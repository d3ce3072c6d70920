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

    /// The `reactor.<i>.<what>` counters in reactor order: one entry per
    /// running reactor, none when no socket server is attached.
    pub fn per_reactor(&self, what: &str) -> Vec<u64> {
        let mut rows: Vec<(usize, u64)> = self
            .counters
            .iter()
            .filter_map(|c| {
                let (i, name) = c.name.strip_prefix("reactor.")?.split_once('.')?;
                (name == what).then_some((i.parse().ok()?, c.value))
            })
            .collect();
        rows.sort_unstable();
        rows.into_iter().map(|(_, value)| value).collect()
    }
}

/// The six [`MetricsReport`] values the repo benchmark reads, under the
/// names it reads them by. Not on the wire: a view of a report, kept only
/// until the next benchmark-typed change ports the benchmark to
/// `MetricsReport` and deletes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// `registry.puddles`: live puddles.
    pub puddles: u64,
    /// `registry.pools`: pools.
    pub pools: u64,
    /// `registry.ptr_maps`: registered pointer maps.
    pub ptr_maps: u64,
    /// The `checkpoint` series' count: checkpoints written into the hub.
    pub checkpoints: u64,
    /// `alloc.fragmentation_bp`: external fragmentation of the free space.
    pub fragmentation_bp: u64,
    /// `reactor.<i>.requests`, in reactor order.
    pub reactor_requests: Vec<u64>,
}

impl From<&MetricsReport> for DaemonStats {
    fn from(report: &MetricsReport) -> Self {
        let counter = |name| report.counter(name).unwrap_or_default();
        DaemonStats {
            puddles: counter("registry.puddles"),
            pools: counter("registry.pools"),
            ptr_maps: counter("registry.ptr_maps"),
            checkpoints: report.series("checkpoint").map_or(0, |s| s.count),
            fragmentation_bp: counter("alloc.fragmentation_bp"),
            reactor_requests: report.per_reactor("requests"),
        }
    }
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

    /// The benchmark's view of a report: counters by name, checkpoints as
    /// the series count, reactors by index (not by name order, where
    /// `reactor.10` sorts before `reactor.2`).
    #[test]
    fn daemon_stats_are_read_from_a_metrics_report() {
        let counter = |name: &str, value| CounterSnapshot {
            name: name.into(),
            value,
        };
        let mut counters = vec![
            counter("alloc.fragmentation_bp", 2_500),
            counter("registry.pools", 2),
            counter("registry.ptr_maps", 3),
            counter("registry.puddles", 9),
        ];
        counters.extend((0..11).map(|i| counter(&format!("reactor.{i}.requests"), i)));
        counters.push(counter("reactor.0.connections", 5));
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let report = MetricsReport {
            series: vec![SeriesSnapshot {
                name: "checkpoint".into(),
                count: 4,
                ..SeriesSnapshot::default()
            }],
            counters,
            ..MetricsReport::default()
        };
        let stats = DaemonStats::from(&report);
        assert_eq!(
            stats,
            DaemonStats {
                puddles: 9,
                pools: 2,
                ptr_maps: 3,
                checkpoints: 4,
                fragmentation_bp: 2_500,
                reactor_requests: (0..11).collect(),
            }
        );
        assert_eq!(report.per_reactor("connections"), [5]);
        assert_eq!(
            DaemonStats::from(&MetricsReport::default()),
            DaemonStats::default()
        );
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
