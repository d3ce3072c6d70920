//! The seven workloads and what they share: the window a timed run is made
//! of, the verdict of a workload's output checks, and daemon helpers.

pub mod daemon;
pub mod kv;
pub mod recover;
pub mod relocate;
pub mod tx_large;

use crate::env::PmRoot;
use crate::probes::Probe;
use crate::trace::Tracer;
use puddled::{Daemon, Invariants};
use puddles_proto::MetricsReport;
use std::collections::BTreeMap;

/// What a workload is given to run in.
pub struct Ctx<'a> {
    /// Where PM directories go.
    pub root: &'a PmRoot,
    /// One tiny window per workload, so tests can run every check in seconds.
    pub smoke: bool,
}

impl Ctx<'_> {
    /// `full` at benchmark scale, `smoke` in smoke runs.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One fixed-size piece of a timed run. The first window of a run is
/// warm-up and is discarded; every metric is a median over the rest.
#[derive(Debug, Default)]
pub struct Window {
    /// Operations attempted in the timed part.
    pub ops: u64,
    /// Of those, how many failed (error, refusal or wrong result).
    pub failed: u64,
    /// Wall time of the timed part.
    pub wall_ns: u64,
    /// Process CPU time of the timed part.
    pub cpu_ns: u64,
    /// Untimed preparation this window needed (`recover` builds a crash
    /// state per round); reported under `setup_s`.
    pub prep_ns: u64,
    /// Latency of each operation (or of each small batch, per operation).
    pub lat_ns: Vec<u64>,
}

/// Outcome of a workload's output checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Values compared.
    pub attempted: u64,
    /// Values that differed from the expectation.
    pub failed: u64,
}

impl Verdict {
    /// Counts one comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // One broken store can fail 200,000 comparisons; say the first few.
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Counts the registry invariants of `daemon` as one comparison.
    pub fn invariants(&mut self, daemon: &Daemon) {
        let violations = Invariants::check_all(daemon.registry());
        self.check(violations.is_empty(), || {
            format!("registry invariants: {}", violations.join("; "))
        });
    }
}

/// Per-layer values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A workload: set up, run windows, check outputs.
pub trait Workload: Sized {
    /// The probes a traced run of this workload adds: those of the layers
    /// its own path goes through.
    const PROBES: &'static [Probe];

    /// Builds the state the windows run against; timed as `setup_s`.
    fn setup(ctx: &Ctx<'_>, seed: u64) -> Self;

    /// Runs one window. Spans are recorded only while `tracer` is enabled.
    fn window(&mut self, tracer: &mut Tracer) -> Window;

    /// Called once, after the warm-up window: snapshot the counters whose
    /// growth under load the per-layer metrics report.
    fn begin_measure(&mut self) {}

    /// Adds the per-layer metrics only this workload can see. `out`
    /// already holds what the workload's probes measured.
    fn layer_metrics(&mut self, _tracer: &Tracer, _out: &mut Metrics) {}

    /// Checks the workload's outputs.
    fn finish(self) -> Verdict;
}

/// Adds `puddled.service.<Kind>.p50_ns` / `.p99_ns` for the kinds the
/// daemon behind `report` has served.
pub fn service_series(report: &MetricsReport, out: &mut Metrics) {
    const KINDS: [(&str, &str, &str); 8] = [
        (
            "service.Ping",
            "puddled.service.Ping.p50_ns",
            "puddled.service.Ping.p99_ns",
        ),
        (
            "service.RegisterPtrMap",
            "puddled.service.RegisterPtrMap.p50_ns",
            "puddled.service.RegisterPtrMap.p99_ns",
        ),
        (
            "service.CreatePool",
            "puddled.service.CreatePool.p50_ns",
            "puddled.service.CreatePool.p99_ns",
        ),
        (
            "service.OpenPool",
            "puddled.service.OpenPool.p50_ns",
            "puddled.service.OpenPool.p99_ns",
        ),
        (
            "service.DropPool",
            "puddled.service.DropPool.p50_ns",
            "puddled.service.DropPool.p99_ns",
        ),
        (
            "service.ImportPool",
            "puddled.service.ImportPool.p50_ns",
            "puddled.service.ImportPool.p99_ns",
        ),
        (
            "service.ExportPool",
            "puddled.service.ExportPool.p50_ns",
            "puddled.service.ExportPool.p99_ns",
        ),
        (
            "service.Recover",
            "puddled.service.Recover.p50_ns",
            "puddled.service.Recover.p99_ns",
        ),
    ];
    for (series, p50, p99) in KINDS {
        if let Some(s) = report.series(series).filter(|s| s.count > 0) {
            out.insert(p50, s.p50_nanos as f64);
            out.insert(p99, s.p99_nanos as f64);
        }
    }
}

/// How often the daemon behind `report` has served requests of `kind`.
pub fn served(report: &MetricsReport, kind: &str) -> u64 {
    report.series(kind).map_or(0, |s| s.count)
}
