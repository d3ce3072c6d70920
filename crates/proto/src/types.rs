//! Shared data types for the client/daemon protocol.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// A 128-bit universally unique puddle identifier (§4.3).
///
/// Serialized as a 32-character lowercase hex string so every JSON consumer
/// (including non-Rust tooling) can parse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PuddleId(pub u128);

impl PuddleId {
    /// Formats the identifier as 32 hex characters.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a 32-character hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        u128::from_str_radix(s, 16).ok().map(PuddleId)
    }
}

impl std::fmt::Display for PuddleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl Serialize for PuddleId {
    fn serialize(&self) -> Value {
        Value::Str(self.to_hex())
    }
}

impl Deserialize for PuddleId {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let s = String::deserialize(v)?;
        PuddleId::from_hex(&s).ok_or_else(|| SerdeError::custom("invalid puddle id"))
    }
}

/// Client credentials presented in `Hello`, used for access control.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct Credentials {
    /// Numeric user id.
    pub uid: u32,
    /// Numeric group id.
    pub gid: u32,
}

impl Credentials {
    /// Credentials of the calling process.
    pub fn current_process() -> Self {
        // SAFETY: getuid/getgid have no preconditions.
        unsafe {
            Credentials {
                uid: sys::getuid(),
                gid: sys::getgid(),
            }
        }
    }
}

/// Minimal libc declarations so `puddles-proto` does not depend on the full
/// `libc` crate: only `getuid`/`getgid` are needed, for
/// [`Credentials::current_process`].
mod sys {
    extern "C" {
        pub fn getuid() -> u32;
        pub fn getgid() -> u32;
    }
}

/// What a puddle is used for; the daemon treats log and log-space puddles
/// specially during recovery.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub enum PuddlePurpose {
    /// Ordinary data puddle (part of a pool heap).
    Data,
    /// Holds a client's crash-consistency log.
    Log,
    /// Holds a client's log space (directory of log puddles).
    LogSpace,
}

/// Metadata describing one puddle, as returned by the daemon.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct PuddleInfo {
    /// The puddle's UUID.
    pub id: PuddleId,
    /// Total size in bytes (header + heap).
    pub size: u64,
    /// Assigned address in the global puddle space.
    pub assigned_addr: u64,
    /// Path of the backing file (a capability grant standing in for the
    /// paper's `SCM_RIGHTS` descriptor; see the README's substitutions).
    pub path: String,
    /// What the puddle is used for.
    pub purpose: PuddlePurpose,
    /// Owning user id.
    pub owner_uid: u32,
    /// Owning group id.
    pub owner_gid: u32,
    /// UNIX-like permission bits (rw for owner/group/other).
    pub mode: u32,
    /// `true` if the puddle's pointers must be rewritten before use.
    pub needs_rewrite: bool,
    /// `true` if the requesting client was granted write access.
    pub writable: bool,
}

/// Metadata describing a pool: a named collection of puddles with a root.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct PoolInfo {
    /// Pool name.
    pub name: String,
    /// UUID of the root puddle (holds the pool's root object).
    pub root_puddle: PuddleId,
    /// Every puddle belonging to the pool, root first.
    pub puddles: Vec<PuddleId>,
}

/// One pointer field inside a persistent type.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct PtrField {
    /// Byte offset of the pointer within the object.
    pub offset: u64,
    /// Type id of the pointed-to type (0 if unknown / opaque).
    pub target_type: u64,
}

/// A pointer map registered for a persistent type (§4.2 "Pointer maps").
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct PtrMapDecl {
    /// Stable 64-bit type identifier (hash of the type name).
    pub type_id: u64,
    /// Human-readable type name (diagnostics only).
    pub type_name: String,
    /// Size of the type in bytes.
    pub size: u64,
    /// Offsets of every pointer field.
    pub fields: Vec<PtrField>,
}

/// An old→new address translation produced by relocation on import.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct Translation {
    /// Base address the puddle was assigned when it was exported.
    pub old_addr: u64,
    /// Base address assigned in this machine's global space.
    pub new_addr: u64,
    /// Length of the translated range.
    pub len: u64,
}

impl Translation {
    /// Translates `addr` if it falls inside this range.
    pub fn translate(&self, addr: u64) -> Option<u64> {
        if addr >= self.old_addr && addr < self.old_addr + self.len {
            Some(self.new_addr + (addr - self.old_addr))
        } else {
            None
        }
    }
}

/// Summary of a recovery pass.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log spaces examined.
    pub log_spaces: u64,
    /// Logs examined.
    pub logs: u64,
    /// Log entries applied.
    pub entries_applied: u64,
    /// Log entries denied by access control.
    pub entries_denied: u64,
    /// Logs that were already complete (nothing to do).
    pub logs_clean: u64,
    /// Logs marked invalid because replay was not permitted.
    pub logs_invalidated: u64,
    /// Logs that spanned more than one puddle (chained via `chain_index`).
    pub chained_logs: u64,
    /// Chained tail segments unregistered and freed after their transaction
    /// was resolved (orphaned by a crash before the client released them).
    pub chain_tails_reclaimed: u64,
    /// Puddles the pass mapped: each log space, the segments of its chains
    /// and the data puddles that live entries named — not every puddle the
    /// owners could write.
    #[serde(default)]
    pub puddles_mapped: u64,
}

/// One latency series in a [`MetricsReport`]: summary quantiles of a
/// daemon-side log-linear histogram. All time values are nanoseconds of
/// the daemon's clock (logical nanoseconds under a virtual clock).
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Series name (`service.<RequestKind>`, `wal.flush`, `checkpoint`,
    /// `alloc.coalesce`, ...).
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (nanoseconds); `sum / count` is the mean.
    pub sum_nanos: u64,
    /// Median latency (bucket upper bound, ≲6% relative error).
    pub p50_nanos: u64,
    /// 90th-percentile latency.
    pub p90_nanos: u64,
    /// 99th-percentile latency.
    pub p99_nanos: u64,
    /// Largest recorded value (exact).
    pub max_nanos: u64,
}

/// One named counter in a [`MetricsReport`].
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Reply to `GetMetrics`: every histogram series and counter the daemon's
/// observability hub holds, name-sorted. Also produced client-side by the
/// client's local reporter (retry/pipeline counters).
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct MetricsReport {
    /// Latency series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Trace events currently buffered in the daemon's trace ring.
    #[serde(default)]
    pub trace_buffered: u64,
    /// Trace events dropped to ring-capacity overflow.
    #[serde(default)]
    pub trace_dropped: u64,
}

impl MetricsReport {
    /// The named series, if present.
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

/// Daemon statistics (puddle/pool counts and space usage).
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct DaemonStats {
    /// Number of live puddles.
    pub puddles: u64,
    /// Number of pools.
    pub pools: u64,
    /// Number of registered pointer maps.
    pub ptr_maps: u64,
    /// Number of registered log spaces.
    pub log_spaces: u64,
    /// Bytes of global puddle space handed out.
    pub space_used: u64,
    /// Total bytes of global puddle space.
    pub space_total: u64,
    /// Bytes of metadata WAL not yet covered by a checkpoint.
    pub wal_bytes: u64,
    /// Metadata-WAL records not yet covered by a checkpoint.
    pub wal_records: u64,
    /// Registry checkpoints written since the daemon started.
    pub checkpoints: u64,
    /// Milliseconds since the last registry checkpoint.
    pub checkpoint_age_ms: u64,
    /// Orphan puddle files deleted by the startup directory sweep.
    pub orphan_files_swept: u64,
    /// Log puddles referenced by no log space, reclaimed at startup (the
    /// crash window between allocating a chain segment and registering it).
    pub log_puddles_swept: u64,
    /// LogSpace puddles with no log-space registration, reclaimed at
    /// startup (the crash window between allocation and `RegLogSpace`).
    pub logspace_puddles_swept: u64,
    /// Connections rejected at the connection cap with a `Busy` frame.
    pub connections_rejected: u64,
    /// Bytes on the space allocator's free lists (fragmented free space
    /// below the bump frontier, canonical merged view).
    pub space_free_bytes: u64,
    /// Free extents in the allocator's canonical view.
    pub free_extents: u64,
    /// External fragmentation of the free space in basis points:
    /// `10000 × (1 − largest_free_extent / free_bytes)`; 0 when the free
    /// space is contiguous or empty.
    pub fragmentation_bp: u64,
    /// Lazy (threshold-triggered) allocator coalesce passes run.
    pub lazy_coalesce_runs: u64,
    /// Allocator coalesce passes forced inline (hard ceiling or allocation
    /// pressure).
    pub forced_inline_coalesces: u64,
    /// Storage operations retried after a transient I/O error (WAL appends,
    /// metadata writes, puddle-file creation/deletion).
    pub io_retries: u64,
    /// Transient storage errors observed (each retry attempt counts one).
    pub transient_io_errors: u64,
    /// `Hello` messages flagged as reconnections (clients re-dialing after
    /// a dropped or reset connection).
    pub client_reconnects: u64,
    /// Operations refused with a typed out-of-space error instead of
    /// poisoning the WAL or panicking.
    pub enospc_rejections: u64,
    /// Live connections currently placed on each reactor (one entry per
    /// running reactor; empty when no socket server is attached). Makes
    /// accept-time placement skew observable: placement is least-loaded at
    /// accept only and connections never migrate, so a long-lived hot
    /// connection shows up here as a lopsided row.
    #[serde(default)]
    pub reactor_connections: Vec<u64>,
    /// Requests dispatched from each reactor's connections since the
    /// socket server started (same indexing as `reactor_connections`).
    /// Placement skew shows where connections *sit*; this shows where the
    /// *work* goes — a balanced placement row with a lopsided request row
    /// is exactly the long-lived-hot-connection case.
    #[serde(default)]
    pub reactor_requests: Vec<u64>,
    /// Reactor threads the attached socket server is running (0 when no
    /// socket server is attached, e.g. in-process endpoints).
    #[serde(default)]
    pub reactors: u64,
}

/// Machine-readable error categories returned by the daemon.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named object does not exist.
    NotFound,
    /// An object with this name already exists.
    AlreadyExists,
    /// The caller lacks permission.
    PermissionDenied,
    /// The request was malformed or violated an invariant.
    InvalidRequest,
    /// The global puddle space (or a puddle file) is exhausted.
    OutOfSpace,
    /// An internal daemon error (I/O, corruption...).
    Internal,
    /// The daemon is at its connection cap; retry after backing off.
    Busy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn puddle_id_hex_roundtrip() {
        let id = PuddleId(12345678901234567890123456789012345678u128);
        assert_eq!(PuddleId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(PuddleId::from_hex("zz"), None);
        assert_eq!(id.to_hex().len(), 32);
    }

    #[test]
    fn translation_translates_only_inside_range() {
        let t = Translation {
            old_addr: 0x1000,
            new_addr: 0x9000,
            len: 0x100,
        };
        assert_eq!(t.translate(0x1000), Some(0x9000));
        assert_eq!(t.translate(0x10ff), Some(0x90ff));
        assert_eq!(t.translate(0x1100), None);
        assert_eq!(t.translate(0xfff), None);
    }

    #[test]
    fn current_process_credentials_are_consistent() {
        let a = Credentials::current_process();
        let b = Credentials::current_process();
        assert_eq!(a, b);
    }

    #[test]
    fn info_types_roundtrip_through_json() {
        let info = PuddleInfo {
            id: PuddleId(7),
            size: 4096,
            assigned_addr: 0x5000_0000_0000,
            path: "/tmp/x".into(),
            purpose: PuddlePurpose::Log,
            owner_uid: 0,
            owner_gid: 0,
            mode: 0o640,
            needs_rewrite: true,
            writable: false,
        };
        let json = serde_json::to_string(&info).unwrap();
        let back: PuddleInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(info, back);

        let report = RecoveryReport {
            log_spaces: 1,
            logs: 2,
            entries_applied: 3,
            entries_denied: 0,
            logs_clean: 1,
            logs_invalidated: 0,
            chained_logs: 1,
            chain_tails_reclaimed: 2,
            puddles_mapped: 4,
        };
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(
            serde_json::from_str::<RecoveryReport>(&json).unwrap(),
            report
        );
    }
}
