//! Observability plane: mergeable log-linear latency histograms and a
//! structured trace ring.
//!
//! # Histograms
//!
//! [`Histogram`] is an HDR-style log-linear histogram over `u64`
//! nanosecond values: a power-of-two *major* bucket per bit of magnitude,
//! each split into [`SUB_BUCKETS`] linear sub-buckets, so quantile reads
//! carry a bounded (~1/[`SUB_BUCKETS`]) relative error at every scale.
//! Counts are plain `AtomicU64`s — recording is lock-free and wait-free.
//! [`ShardedHistogram`] stripes one histogram per small pool of shards
//! (recorders pick a shard by a per-thread slot, so reactor and worker
//! threads never contend on one cache line) and merges on read; a merged
//! snapshot reports *exactly* the same quantiles a single recorder would
//! (bucket counts add, and quantiles are a pure function of the summed
//! buckets — property-tested in `tests/obs_model.rs`).
//!
//! # Trace ring
//!
//! [`Metrics::trace`] appends a compact [`TraceEvent`] (kind + static
//! detail + two `u64` operands) to a fixed-capacity per-thread-slot ring.
//! Every event takes a globally ordered sequence number and a [`Clock`]
//! timestamp, so [`Metrics::trace_dump`] can flatten all rings into one
//! time-ordered timeline. Under a virtual clock with a serialized request
//! stream (the deterministic torture harness), the dump is a pure function
//! of the seed — byte-identical across replays — because both the sequence
//! numbers and the logical timestamps are.
//!
//! # The hub
//!
//! [`Metrics`] owns the series registry (named [`ShardedHistogram`]s),
//! named counters, and the trace ring, plus the [`Clock`] used to stamp
//! events. The daemon creates one per instance (or the torture harness
//! passes one in so it survives kill/restart cycles within a trial).

use crate::clock::Clock;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Linear sub-buckets per power-of-two major bucket, as a bit count
/// (2^4 = 16 sub-buckets → ≤ 1/16 ≈ 6% relative quantile error).
pub const SUB_BUCKET_BITS: u32 = 4;
/// Linear sub-buckets per major bucket.
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Total buckets covering the whole `u64` range of nanosecond values.
pub const NUM_BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS;

/// Recorder stripes per [`ShardedHistogram`]: enough that the daemon's
/// reactor and workers spread out, small enough that merge-on-read is cheap.
pub const HISTOGRAM_SHARDS: usize = 8;

/// Per-thread-slot trace ring capacity (events); the oldest events in a
/// slot are dropped (and counted) once it fills.
pub const TRACE_RING_CAPACITY: usize = 4096;
/// Trace ring slots; threads map onto slots by their recorder slot.
const TRACE_SHARDS: usize = 16;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A small dense per-thread slot (assigned on first use), used to stripe
/// recorders across histogram shards and trace rings.
pub fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// Maps a value to its bucket index. Values below [`SUB_BUCKETS`] map
/// exactly (bucket = value); above, the top [`SUB_BUCKET_BITS`]+1 bits of
/// the value select the bucket.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let major = 63 - value.leading_zeros();
    let sub = (value >> (major - SUB_BUCKET_BITS)) as usize - SUB_BUCKETS;
    (major - SUB_BUCKET_BITS) as usize * SUB_BUCKETS + SUB_BUCKETS + sub
}

/// The largest value a bucket holds (inclusive); quantiles report this
/// bound, so a quantile read is deterministic given the bucket counts.
pub fn bucket_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let major = (index / SUB_BUCKETS - 1) as u32 + SUB_BUCKET_BITS;
    let sub = (index % SUB_BUCKETS) as u64;
    let width = 1u64 << (major - SUB_BUCKET_BITS);
    // `(base - 1) + (sub + 1) * width`: the top bucket's bound is exactly
    // `u64::MAX`, so the straightforward `base + ... - 1` would overflow.
    ((1u64 << major) - 1) + (sub + 1) * width
}

/// One lock-free log-linear histogram (see the module docs).
pub struct Histogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds). Lock-free: three relaxed atomic
    /// adds and a relaxed max.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds).
    pub sum: u64,
    /// Largest recorded value (exact, not bucket-rounded).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Adds another snapshot's buckets into this one. Quantiles of the
    /// merge equal quantiles of a single recorder fed both value streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at percentile `p` (0–100): the inclusive upper bound of
    /// the bucket holding the rank-`⌈p·n/100⌉` value, clamped to the exact
    /// observed max. Returns 0 on an empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values, in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A histogram striped across [`HISTOGRAM_SHARDS`] recorders; see the
/// module docs.
pub struct ShardedHistogram {
    shards: Vec<Histogram>,
}

impl std::fmt::Debug for ShardedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("ShardedHistogram")
            .field("count", &snap.count)
            .field("max", &snap.max)
            .finish()
    }
}

impl Default for ShardedHistogram {
    fn default() -> Self {
        ShardedHistogram::new()
    }
}

impl ShardedHistogram {
    pub fn new() -> ShardedHistogram {
        ShardedHistogram {
            shards: (0..HISTOGRAM_SHARDS).map(|_| Histogram::new()).collect(),
        }
    }

    /// Records one nanosecond value into the calling thread's shard.
    pub fn record(&self, value: u64) {
        self.shards[thread_slot() % self.shards.len()].record(value);
    }

    /// Records a duration into the calling thread's shard.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merges every shard into one snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for shard in &self.shards {
            merged.merge(&shard.snapshot());
        }
        merged
    }
}

/// What a [`TraceEvent`] marks. Operand meaning per kind:
///
/// | kind | `detail` | `a` | `b` |
/// |------|----------|-----|-----|
/// | `ReqStart` / `ReqEnd` | request kind | req_id (0 = local/v1) | — |
/// | `WalCommit` | — | records in batch | batch bytes |
/// | `CheckpointBegin` / `CheckpointEnd` | — (`failed` on an end that did not complete) | WAL records at cut | — |
/// | `Fault` | fault site | per-site occurrence | — |
/// | `Reconnect` | — | — | — |
/// | `RecoveryMap` | — | puddles one log space's recovery mapped | writable data puddles indexed for it |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    ReqStart,
    ReqEnd,
    WalCommit,
    CheckpointBegin,
    CheckpointEnd,
    Fault,
    Reconnect,
    RecoveryMap,
}

impl TraceEventKind {
    /// Stable name used in dump lines.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::ReqStart => "req.start",
            TraceEventKind::ReqEnd => "req.end",
            TraceEventKind::WalCommit => "wal.commit",
            TraceEventKind::CheckpointBegin => "ckpt.begin",
            TraceEventKind::CheckpointEnd => "ckpt.end",
            TraceEventKind::Fault => "fault",
            TraceEventKind::Reconnect => "reconnect",
            TraceEventKind::RecoveryMap => "recovery.map",
        }
    }
}

/// One compact trace event; see [`TraceEventKind`] for operand meanings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global order of the event across all threads (assigned at record).
    pub seq: u64,
    /// [`Clock`] timestamp, nanoseconds since the clock's epoch.
    pub at_nanos: u64,
    pub kind: TraceEventKind,
    /// Static qualifier (request kind, fault site, checkpoint outcome); may
    /// be empty.
    pub detail: &'static str,
    pub a: u64,
    pub b: u64,
}

impl TraceEvent {
    /// One dump line: `#<seq> t=<nanos> <kind> [<detail>] a=<a> b=<b>`.
    pub fn render(&self) -> String {
        if self.detail.is_empty() {
            format!(
                "#{:06} t={} {} a={} b={}",
                self.seq,
                self.at_nanos,
                self.kind.name(),
                self.a,
                self.b
            )
        } else {
            format!(
                "#{:06} t={} {} {} a={} b={}",
                self.seq,
                self.at_nanos,
                self.kind.name(),
                self.detail,
                self.a,
                self.b
            )
        }
    }
}

struct TraceShard {
    ring: Mutex<VecDeque<TraceEvent>>,
}

/// The observability hub: named histogram series, named counters, and the
/// trace ring, stamped by one [`Clock`]. See the module docs.
pub struct Metrics {
    clock: Clock,
    series: Mutex<BTreeMap<&'static str, Arc<ShardedHistogram>>>,
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    trace_shards: Vec<TraceShard>,
    trace_seq: AtomicU64,
    trace_dropped: AtomicU64,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("series", &self.series.lock().len())
            .field("trace_seq", &self.trace_seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// A point-in-time copy of every series and counter in a [`Metrics`] hub,
/// in deterministic (name-sorted) order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub series: Vec<(String, HistogramSnapshot)>,
    pub counters: Vec<(String, u64)>,
}

impl Metrics {
    /// A hub stamping events with `clock`.
    pub fn new(clock: Clock) -> Arc<Metrics> {
        Arc::new(Metrics {
            clock,
            series: Mutex::new(BTreeMap::new()),
            counters: Mutex::new(BTreeMap::new()),
            trace_shards: (0..TRACE_SHARDS)
                .map(|_| TraceShard {
                    ring: Mutex::new(VecDeque::new()),
                })
                .collect(),
            trace_seq: AtomicU64::new(0),
            trace_dropped: AtomicU64::new(0),
        })
    }

    /// The hub's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The named histogram series, created on first use. Callers on a hot
    /// path should fetch the handle once and record through it.
    pub fn series(&self, name: &'static str) -> Arc<ShardedHistogram> {
        Arc::clone(
            self.series
                .lock()
                .entry(name)
                .or_insert_with(|| Arc::new(ShardedHistogram::new())),
        )
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Appends one trace event to the calling thread's ring, stamped with
    /// the hub clock and the next global sequence number.
    pub fn trace(&self, kind: TraceEventKind, detail: &'static str, a: u64, b: u64) {
        let event = TraceEvent {
            seq: self.trace_seq.fetch_add(1, Ordering::Relaxed),
            at_nanos: u64::try_from(self.clock.now().as_nanos()).unwrap_or(u64::MAX),
            kind,
            detail,
            a,
            b,
        };
        let shard = &self.trace_shards[thread_slot() % self.trace_shards.len()];
        let mut ring = shard.ring.lock();
        if ring.len() >= TRACE_RING_CAPACITY {
            ring.pop_front();
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Trace events dropped to ring-capacity overflow.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    /// All buffered trace events, flattened across rings into global
    /// (sequence) order. Non-destructive.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = Vec::new();
        for shard in &self.trace_shards {
            events.extend(shard.ring.lock().iter().cloned());
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The buffered timeline as rendered lines (one per event, in global
    /// order). Byte-identical across same-seed deterministic runs.
    pub fn trace_dump(&self) -> Vec<String> {
        self.trace_events().iter().map(TraceEvent::render).collect()
    }

    /// Every series and counter, name-sorted. The `trace.dropped` counter
    /// is always included.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self
            .series
            .lock()
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
            .collect();
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
            .collect();
        counters.push(("trace.dropped".to_string(), self.trace_dropped()));
        counters.sort();
        MetricsSnapshot { series, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_map_exactly() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_deterministic() {
        // Every bucket's bound maps back into the same bucket, bounds are
        // strictly increasing, and a bound+1 lands in the next bucket.
        for i in 0..NUM_BUCKETS {
            let bound = bucket_bound(i);
            assert_eq!(bucket_index(bound), i, "bound of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert!(bucket_bound(i + 1) > bound);
                assert_eq!(bucket_index(bound + 1), i + 1);
            } else {
                assert_eq!(bound, u64::MAX);
            }
        }
        // Spot checks at the log-linear seams.
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32); // first two-wide bucket
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 33);
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 100);
        // Values ≤ 15 are exact; larger ones report their bucket bound.
        assert_eq!(snap.percentile(1.0), 1);
        assert_eq!(snap.percentile(10.0), 10);
        let p50 = snap.percentile(50.0);
        assert!((50..=55).contains(&p50), "p50 = {p50}");
        let p99 = snap.percentile(99.0);
        assert!((99..=100).contains(&p99), "p99 = {p99}");
        assert_eq!(snap.percentile(100.0), 100);
        assert_eq!(snap.mean(), 5050 / 100);
    }

    #[test]
    fn empty_snapshot_percentiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.percentile(50.0), 0);
        assert_eq!(snap.percentile(99.0), 0);
        assert_eq!(snap.mean(), 0);
    }

    #[test]
    fn merged_shards_equal_a_single_recorder() {
        // The same value stream split across shards merges to the same
        // snapshot a single recorder produces (the proptest in
        // tests/obs_model.rs generalizes this).
        let single = Histogram::new();
        let sharded = ShardedHistogram::new();
        let mut x = 0x1234_5678u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = x >> 33;
            single.record(v);
            // Bypass thread_slot: spread by value so all shards get data.
            sharded.shards[(v % HISTOGRAM_SHARDS as u64) as usize].record(v);
        }
        let a = single.snapshot();
        let b = sharded.snapshot();
        assert_eq!(a, b);
        for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), b.percentile(p));
        }
    }

    #[test]
    fn trace_ring_orders_and_drops() {
        let m = Metrics::new(Clock::simulated());
        m.trace(TraceEventKind::ReqStart, "Ping", 1, 0);
        m.trace(TraceEventKind::WalCommit, "", 3, 128);
        m.trace(TraceEventKind::ReqEnd, "Ping", 1, 0);
        let dump = m.trace_dump();
        assert_eq!(dump.len(), 3);
        assert!(dump[0].contains("req.start Ping"), "{}", dump[0]);
        assert!(dump[1].contains("wal.commit"), "{}", dump[1]);
        assert!(dump[2].contains("req.end Ping"), "{}", dump[2]);
        // Sequence numbers are global and ascending.
        let events = m.trace_events();
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        // Overflow drops the oldest events of a slot and counts them.
        for i in 0..(TRACE_RING_CAPACITY as u64 + 10) {
            m.trace(TraceEventKind::WalCommit, "", i, 0);
        }
        assert!(m.trace_dropped() > 0);
    }

    #[test]
    fn snapshot_is_name_sorted_and_counts_match() {
        let m = Metrics::new(Clock::simulated());
        m.series("zeta").record_duration(Duration::from_nanos(10));
        m.series("alpha").record_duration(Duration::from_nanos(20));
        m.series("alpha").record_duration(Duration::from_nanos(30));
        m.counter("hits").fetch_add(5, Ordering::Relaxed);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.series.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(snap.series[0].1.count, 2);
        assert_eq!(snap.series[1].1.count, 1);
        assert!(snap.counters.iter().any(|(n, v)| n == "hits" && *v == 5));
        assert!(snap.counters.iter().any(|(n, _)| n == "trace.dropped"));
    }

    #[test]
    fn virtual_clock_stamps_are_logical_time() {
        let clock = Clock::simulated();
        let m = Metrics::new(clock.clone());
        m.trace(TraceEventKind::CheckpointBegin, "", 0, 0);
        clock.sleep(Duration::from_millis(5));
        m.trace(TraceEventKind::CheckpointEnd, "", 0, 0);
        let events = m.trace_events();
        assert_eq!(events[0].at_nanos, 0);
        assert_eq!(events[1].at_nanos, 5_000_000);
    }
}
