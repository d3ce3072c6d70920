//! One run of one workload: set up, warm up, measure windows for the
//! requested time, take the per-layer numbers if tracing, check outputs.

use crate::probes;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::workloads::daemon::{DaemonPipelined, DaemonRtt};
use crate::workloads::kv::{KvRead, KvUpdate};
use crate::workloads::recover::Recover;
use crate::workloads::relocate::Relocate;
use crate::workloads::tx_large::TxLarge;
use crate::workloads::{Ctx, Metrics, Window, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median plus the warm-up window. A
/// set-up that takes milliseconds is repeated more often, until
/// `SETUP_BUDGET_S` is spent: its single samples are the noisiest.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=25;
const SETUP_BUDGET_S: f64 = 0.5;
/// Fewest measured windows a run reports a median over.
const MIN_WINDOWS: usize = 5;

pub struct Options {
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics (from traced windows, probes and the
    /// daemon's counters) in place of the end-to-end ones.
    pub trace: bool,
}

/// What one run reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Measured windows (untraced, traced).
    pub windows: (usize, usize),
    /// The span dump of a traced run.
    pub span_dump: Option<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs the workload called `name`; `None` if there is none.
pub fn run_named(name: &str, ctx: &Ctx<'_>, opts: &Options) -> Option<RunResult> {
    Some(match name {
        "kv_update" => run::<KvUpdate>(name, ctx, opts),
        "kv_read" => run::<KvRead>(name, ctx, opts),
        "tx_large" => run::<TxLarge>(name, ctx, opts),
        "daemon_rtt" => run::<DaemonRtt>(name, ctx, opts),
        "daemon_pipelined" => run::<DaemonPipelined>(name, ctx, opts),
        "relocate" => run::<Relocate>(name, ctx, opts),
        "recover" => run::<Recover>(name, ctx, opts),
        _ => return None,
    })
}

/// Median over windows of `f`.
fn over(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    median(&windows.iter().map(f).collect::<Vec<_>>())
}

fn ops_per_s(w: &Window) -> f64 {
    w.ops as f64 / (w.wall_ns as f64 / 1e9)
}

pub fn run<W: Workload>(name: &str, ctx: &Ctx<'_>, opts: &Options) -> RunResult {
    run_with::<W>(name, ctx, opts, |_| ())
}

/// [`run`], with a hook that sees the workload just before its output
/// checks (tests use it to corrupt an expectation).
pub fn run_with<W: Workload>(
    name: &str,
    ctx: &Ctx<'_>,
    opts: &Options,
    before_checks: impl FnOnce(&mut W),
) -> RunResult {
    let mut tracer = Tracer::new(Instant::now());

    // Set up several times and keep the last: one set-up is one sample, and
    // `setup_s` has to be steadier than that.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = loop {
        let t0 = Instant::now();
        let workload = W::setup(ctx, opts.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        let cheap = setup_s.iter().sum::<f64>() < SETUP_BUDGET_S;
        let more = setup_s.len() < *SETUP_REPEATS.start()
            || (cheap && setup_s.len() < *SETUP_REPEATS.end());
        if ctx.smoke || !more {
            break workload;
        }
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut warm_up_s = 0.0;
    if !ctx.smoke {
        let warm_up = workload.window(&mut tracer);
        attempted += warm_up.ops;
        failed += warm_up.failed;
        warm_up_s = warm_up.wall_ns as f64 / 1e9;
    }
    workload.begin_measure();

    // Traced and untraced windows alternate, so both see the same machine
    // and their ratio is the cost of tracing.
    let min_windows = ctx.pick(MIN_WINDOWS, 1);
    let mut plain: Vec<Window> = Vec::new();
    let mut traced: Vec<Window> = Vec::new();
    let start = Instant::now();
    loop {
        let trace_this = opts.trace && plain.len() > traced.len();
        tracer.set_enabled(trace_this);
        let window = workload.window(&mut tracer);
        tracer.set_enabled(false);
        attempted += window.ops;
        failed += window.failed;
        if trace_this {
            traced.push(window);
        } else {
            plain.push(window);
        }
        let enough = plain.len() >= min_windows && (!opts.trace || traced.len() >= min_windows);
        if enough && (ctx.smoke || start.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }

    let mut layer = Metrics::new();
    if opts.trace {
        probes::run(W::PROBES, ctx, &mut tracer, &mut layer);
        workload.layer_metrics(&tracer, &mut layer);
        let mut lat: Vec<u64> = plain
            .iter()
            .flat_map(|w| w.lat_ns.iter().copied())
            .collect();
        lat.sort_unstable();
        if let Some(tail) = stats::tail(&lat) {
            layer.insert("op_tail_us", tail.value as f64 / 1e3);
            layer.insert("op_tail_percentile", tail.percentile);
            layer.insert("op_tail_samples", tail.samples as f64);
        }
        layer.insert("trace.spans", tracer.span_count() as f64);
        layer.insert(
            "trace.overhead_share",
            1.0 - over(&traced, ops_per_s) / over(&plain, ops_per_s),
        );
    }

    before_checks(&mut workload);
    let verdict = workload.finish();
    attempted += verdict.attempted;
    failed += verdict.failed;

    let metrics = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layer.get(name).copied().unwrap_or(0.0);
                (name, if value.is_finite() { value } else { 0.0 }, unit)
            })
            .collect()
    } else {
        let prep_s = over(&plain, |w| w.prep_ns as f64 / 1e9);
        let values = [
            ("ops_per_s", over(&plain, ops_per_s)),
            (
                "op_p50_us",
                over(&plain, |w| {
                    let mut lat = w.lat_ns.clone();
                    stats::p50(&mut lat) as f64 / 1e3
                }),
            ),
            (
                "cpu_us_per_op",
                over(&plain, |w| w.cpu_ns as f64 / 1e3 / w.ops as f64),
            ),
            // Everything a run does before its first measured window.
            ("setup_s", median(&setup_s) + prep_s + warm_up_s),
        ];
        END_TO_END
            .iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|v| v.0 == m.name)
                    .map(|v| v.1)
                    .expect("every end-to-end metric is computed");
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} of {name} is {value}",
                    m.name
                );
                (m.name, value, m.unit)
            })
            .collect()
    };
    debug_assert!(layer.keys().all(|k| PER_LAYER.iter().any(|m| m.0 == *k)));

    RunResult {
        attempted: attempted.max(1),
        failed,
        metrics,
        windows: (plain.len(), traced.len()),
        span_dump: opts.trace.then(|| tracer.to_json(name)),
    }
}
