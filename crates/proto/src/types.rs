//! Shared data types for the client/daemon protocol.

use crate::json;

/// A 128-bit universally unique puddle identifier (§4.3).
///
/// On the wire and in the WAL it is 16 little-endian bytes; in JSON (an
/// export manifest) and in file names it is 32 lowercase hex characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PuddleId(pub u128);

impl PuddleId {
    /// Formats the identifier as 32 hex characters.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a 32-character hex string: exactly 32 hex digits, no sign.
    pub fn from_hex(s: &str) -> Option<Self> {
        let digits = s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit());
        digits.then(|| PuddleId(u128::from_str_radix(s, 16).expect("32 hex digits")))
    }
}

impl std::fmt::Display for PuddleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Client credentials presented in `Hello`, used for access control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PuddlePurpose {
    /// Ordinary data puddle (part of a pool heap).
    Data,
    /// Holds a client's crash-consistency log.
    Log,
    /// Holds a client's log space (directory of log puddles).
    LogSpace,
}

/// Metadata describing one puddle, as returned by the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolInfo {
    /// Pool name.
    pub name: String,
    /// UUID of the root puddle (holds the pool's root object).
    pub root_puddle: PuddleId,
    /// Every puddle belonging to the pool, root first.
    pub puddles: Vec<PuddleId>,
}

/// One pointer field inside a persistent type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtrField {
    /// Byte offset of the pointer within the object.
    pub offset: u64,
    /// Type id of the pointed-to type (0 if unknown / opaque).
    pub target_type: u64,
}

/// A pointer map registered for a persistent type (§4.2 "Pointer maps").
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    pub puddles_mapped: u64,
}

/// One latency series in a [`MetricsReport`]: summary quantiles of a
/// daemon-side log-linear histogram. All time values are nanoseconds of
/// the daemon's clock (logical nanoseconds under a virtual clock).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Series name (`service.<RequestKind>`, `wal.flush`, `checkpoint`,
    /// `stage.queue`, ...).
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

impl SeriesSnapshot {
    /// One histogram as the wire reports it: the single place that picks
    /// which quantiles a series carries (the daemon's `GetMetrics` and the
    /// client-local reporter both go through it). `percentile(p)` is the
    /// histogram's value at `p` percent.
    pub fn from_histogram(
        name: String,
        count: u64,
        sum_nanos: u64,
        max_nanos: u64,
        percentile: impl Fn(f64) -> u64,
    ) -> Self {
        SeriesSnapshot {
            name,
            count,
            sum_nanos,
            p50_nanos: percentile(50.0),
            p90_nanos: percentile(90.0),
            p99_nanos: percentile(99.0),
            max_nanos,
        }
    }
}

/// One named counter in a [`MetricsReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Reply to `GetMetrics`: every histogram series and counter the daemon's
/// observability hub holds, name-sorted. Also produced client-side by the
/// client's local reporter (retry/pipeline counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Latency series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Trace events currently buffered in the daemon's trace ring.
    pub trace_buffered: u64,
    /// Trace events dropped to ring-capacity overflow.
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

    /// The report as JSON (`puddle-stat --json`): the field names above,
    /// each series and counter an object.
    pub fn to_json(&self) -> json::Value {
        let series = |s: &SeriesSnapshot| {
            json::Value::obj([
                ("name", s.name.as_str().into()),
                ("count", s.count.into()),
                ("sum_nanos", s.sum_nanos.into()),
                ("p50_nanos", s.p50_nanos.into()),
                ("p90_nanos", s.p90_nanos.into()),
                ("p99_nanos", s.p99_nanos.into()),
                ("max_nanos", s.max_nanos.into()),
            ])
        };
        let counter = |c: &CounterSnapshot| {
            json::Value::obj([("name", c.name.as_str().into()), ("value", c.value.into())])
        };
        json::Value::obj([
            (
                "series",
                json::Value::Arr(self.series.iter().map(series).collect()),
            ),
            (
                "counters",
                json::Value::Arr(self.counters.iter().map(counter).collect()),
            ),
            ("trace_buffered", self.trace_buffered.into()),
            ("trace_dropped", self.trace_dropped.into()),
        ])
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
    /// Requests the socket server took on, as the one element of a
    /// per-reactor list of the one reactor: `uds.inline + uds.queued`.
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
            reactor_requests: vec![counter("uds.inline") + counter("uds.queued")],
        }
    }
}

/// Machine-readable error categories returned by the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Exactly 32 hex digits, as `to_hex` writes them (either case), and
    /// nothing `u128::from_str_radix` would also take.
    #[test]
    fn from_hex_takes_exactly_32_hex_digits() {
        let id = PuddleId(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(
            PuddleId::from_hex("0123456789abcdef0123456789abcdef"),
            Some(id)
        );
        assert_eq!(
            PuddleId::from_hex("0123456789ABCDEF0123456789ABCDEF"),
            Some(id)
        );
        let short = "123456789abcdef0123456789abcdef";
        let signed = "+123456789abcdef0123456789abcdef";
        for bad in [
            "7",
            "+1",
            "",
            short,
            signed,
            "0x23456789abcdef0123456789abcdef",
        ] {
            assert_eq!(PuddleId::from_hex(bad), None, "{bad:?}");
        }
        assert_eq!(PuddleId::from_hex(&format!("0{}", id.to_hex())), None);
        assert_eq!(PuddleId::from_hex(" 123456789abcdef0123456789abcdef"), None);
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

    /// `puddle-stat --json` reparses: every series and counter under its
    /// own name, escapes and all.
    #[test]
    fn a_metrics_report_reparses_from_its_json() {
        let report = MetricsReport {
            series: vec![SeriesSnapshot {
                name: "service.\"Ping\"\\\n".into(),
                count: 3,
                sum_nanos: 300,
                p50_nanos: 100,
                p90_nanos: 110,
                p99_nanos: 120,
                max_nanos: u64::MAX,
            }],
            counters: vec![CounterSnapshot {
                name: "uds.inline\u{1}ü".into(),
                value: 7,
            }],
            trace_buffered: 9,
            trace_dropped: 1,
        };
        let text = report.to_json().pretty();
        let doc = json::Value::parse(text.as_bytes()).unwrap();
        let series = &doc.field("series").and_then(json::Value::arr).unwrap()[0];
        let s = &report.series[0];
        assert_eq!(
            series.field("name").and_then(json::Value::str),
            Ok(s.name.as_str())
        );
        for (key, value) in [("count", 3), ("p99_nanos", 120), ("max_nanos", u64::MAX)] {
            assert_eq!(
                series.field(key).and_then(json::Value::u64),
                Ok(value),
                "{key}"
            );
        }
        let counter = &doc.field("counters").and_then(json::Value::arr).unwrap()[0];
        let name = counter.field("name").and_then(json::Value::str);
        assert_eq!(name, Ok(report.counters[0].name.as_str()));
        assert_eq!(counter.field("value").and_then(json::Value::u64), Ok(7));
        assert_eq!(
            doc.field("trace_buffered").and_then(json::Value::u64),
            Ok(9)
        );
        assert_eq!(doc.field("trace_dropped").and_then(json::Value::u64), Ok(1));
    }

    /// The benchmark's view of a report: counters by name, checkpoints as
    /// the series count, and the one reactor's requests as a one-element
    /// list — `uds.inline + uds.queued`, and `[0]` without a socket server.
    #[test]
    fn daemon_stats_are_read_from_a_metrics_report() {
        let counter = |name: &str, value| CounterSnapshot {
            name: name.into(),
            value,
        };
        let report = MetricsReport {
            series: vec![SeriesSnapshot {
                name: "checkpoint".into(),
                count: 4,
                ..SeriesSnapshot::default()
            }],
            counters: vec![
                counter("alloc.fragmentation_bp", 2_500),
                counter("registry.pools", 2),
                counter("registry.ptr_maps", 3),
                counter("registry.puddles", 9),
                counter("uds.connections", 5),
                counter("uds.inline", 40),
                counter("uds.queued", 2),
            ],
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
                reactor_requests: vec![42],
            }
        );
        assert_eq!(
            DaemonStats::from(&MetricsReport::default()),
            DaemonStats {
                reactor_requests: vec![0],
                ..DaemonStats::default()
            }
        );
    }
}
