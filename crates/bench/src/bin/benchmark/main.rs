//! The repo benchmark: seven workloads, end-to-end metrics with regression
//! bounds, and per-layer metrics measured from outside the layers. See
//! `README.md` next to this file and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//!           [--pm-root <dir>] [--smoke]
//! benchmark --repeat <sets> [--workload <name>] [...]
//! ```
//!
//! A run prints a `# env` record and then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! It exits with 0 when every output check passed, 1 when one failed, and
//! 2 when the arguments made no sense.

mod env;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use env::PmRoot;
use run::{Options, RunResult};
use spec::{END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Ctx;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    pm_root: Option<PathBuf>,
    repeat: Option<usize>,
}

/// Runs in one set of `--repeat`.
const RUNS_PER_SET: usize = 5;

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        pm_root: None,
        repeat: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: `{text}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a number")?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: `{text}` is not a whole number"))?;
            }
            "--seconds" => parsed.seconds = number(value("a number of seconds")?)?,
            "--pm-root" => parsed.pm_root = Some(PathBuf::from(value("a directory")?)),
            "--repeat" => parsed.repeat = Some(number(value("a number of sets")?)? as usize),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &parsed.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}`; choose one of {}",
                WORKLOADS.join(", ")
            ));
        }
    } else if parsed.repeat.is_none() {
        return Err("--workload <name> is required (or --repeat <sets>)".into());
    }
    Ok(parsed)
}

/// The facts a reader needs to judge a number: where PM lived, on what
/// machine, from which commit, with which inputs.
fn env_record(args: &Args, root: &PmRoot, workload: &str, result: &RunResult) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"windows\": {}, \"traced_windows\": {}, \"pm_root\": \"{}\", \
         \"pm_root_tmpfs\": {}, \"nproc\": {}, \"flush_instruction\": \"{}\", \
         \"git_rev\": \"{}\"}}",
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        result.windows.0,
        result.windows.1,
        root.path().display(),
        root.tmpfs,
        env::nproc(),
        env::flush_instruction(),
        env::git_rev(),
    )
}

fn run_once(args: &Args, root: &PmRoot, workload: &str, seed: u64) -> RunResult {
    let ctx = Ctx {
        root,
        smoke: args.smoke,
    };
    let opts = Options {
        seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    run::run_named(workload, &ctx, &opts).expect("workload name was validated")
}

/// `--repeat`: runs `sets` sets of five runs of every selected workload,
/// each run on a seed of its own, and prints per end-to-end metric the
/// medians of the first and the last set, how far apart they are, the
/// quartile spread of the first set, and the bound — the evidence that the
/// benchmark agrees with itself.
fn repeat(args: &Args, root: &PmRoot, sets: usize) -> bool {
    let selected: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let mut correct = true;
    let mut agree = true;
    println!("workload metric unit first_median last_median worse_by spread bound verdict");
    for workload in selected {
        let mut per_set: Vec<Vec<RunResult>> = Vec::new();
        for set in 0..sets {
            let results = (0..RUNS_PER_SET)
                .map(|run| {
                    let seed = args.seed + (set * RUNS_PER_SET + run) as u64;
                    let result = run_once(args, root, workload, seed);
                    eprintln!("{workload} set {set} run {run}: {}", result.to_json());
                    correct &= result.correct();
                    result
                })
                .collect();
            per_set.push(results);
        }
        for metric in &END_TO_END {
            let medians: Vec<f64> = per_set
                .iter()
                .map(|set| {
                    let values: Vec<f64> =
                        set.iter().filter_map(|r| r.metric(metric.name)).collect();
                    stats::median(&values)
                })
                .collect();
            let first_values: Vec<f64> = per_set[0]
                .iter()
                .filter_map(|r| r.metric(metric.name))
                .collect();
            let (first, last) = (medians[0], medians[medians.len() - 1]);
            let worse_by = if metric.better == "higher" {
                (first - last) / first
            } else {
                (last - first) / first
            };
            let spread = stats::quartile_spread(&first_values);
            let ok =
                worse_by <= metric.bound && (metric.name == "setup_s" || spread <= metric.bound);
            agree &= ok;
            println!(
                "{workload} {} {} {first:.6} {last:.6} {worse_by:+.4} {spread:.4} {} {}",
                metric.name,
                metric.unit,
                metric.bound,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    println!("{{\"correct\": {correct}, \"sets_agree\": {agree}}}");
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let base = args.pm_root.clone().unwrap_or_else(env::scratch_dir);
    let root = PmRoot::create(&base).expect("create the PM root");

    let correct = if let Some(sets) = args.repeat {
        repeat(&args, &root, sets.max(1))
    } else {
        let workload = args.workload.as_deref().expect("checked by parse_args");
        let result = run_once(&args, &root, workload, args.seed);
        if let Some(dump) = &result.span_dump {
            let dir = env::scratch_dir();
            let path = dir.join(format!("benchmark_trace_{workload}.json"));
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, dump)) {
                Ok(()) => println!("# spans {}", path.display()),
                Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
            }
        }
        println!("# env {}", env_record(&args, &root, workload, &result));
        println!("{}", result.to_json());
        result.correct()
    };
    drop(root);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::daemon::{DaemonPipelined, DaemonRtt};
    use crate::workloads::kv::{KvRead, KvUpdate};
    use crate::workloads::recover::Recover;
    use crate::workloads::relocate::Relocate;
    use crate::workloads::tx_large::TxLarge;
    use crate::workloads::Workload;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A PM root in the OS temp dir (tests may not litter the checkout),
    /// and the guard that removes its parent once the root is gone.
    fn test_root(label: &str) -> (PmRoot, env::DirGuard) {
        let base = std::env::temp_dir().join(format!("benchmark_test_{label}"));
        let root = PmRoot::create(&base).expect("create test PM root");
        (root, env::DirGuard(base))
    }

    fn smoke_options(trace: bool) -> Options {
        Options {
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn driver_and_issue_forms_of_the_command_line_parse() {
        let driver = parse_args(&strings(&[
            "--workload",
            "kv_read",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(driver.workload.as_deref(), Some("kv_read"));
        assert_eq!((driver.seed, driver.seconds, driver.trace), (9, 3.0, false));
        let traced = parse_args(&strings(&["--workload", "recover", "--trace", "1"])).unwrap();
        assert!(traced.trace);
        let bare = parse_args(&strings(&["--trace", "--workload", "recover"])).unwrap();
        assert!(bare.trace && bare.workload.as_deref() == Some("recover"));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&[])).is_err());
        assert!(parse_args(&strings(&["--repeat", "2"])).is_ok());
        assert!(parse_args(&strings(&["--workload", "recover", "--seed", "x"])).is_err());
    }

    #[test]
    fn the_same_seed_generates_the_same_request_stream() {
        let stream = |seed| ycsb::Workload::A.generate(2_000, 500, seed);
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));
    }

    /// Smoke scale: one tiny window per workload, every output check run,
    /// both the end-to-end and the per-layer side of the report filled in.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_scale() {
        let (root, _base) = test_root("smoke");
        let ctx = Ctx {
            root: &root,
            smoke: true,
        };
        for name in WORKLOADS {
            let plain = run::run_named(name, &ctx, &smoke_options(false)).unwrap();
            assert!(plain.correct(), "{name}: {}", plain.to_json());
            assert!(plain.attempted > 1, "{name} attempted nothing");
            let names: Vec<_> = plain.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{name}");

            let traced = run::run_named(name, &ctx, &smoke_options(true)).unwrap();
            assert!(traced.correct(), "{name}: {}", traced.to_json());
            assert_eq!(traced.metrics.len(), spec::PER_LAYER.len(), "{name}");
            assert!(traced.metric("trace.spans").unwrap() > 0.0, "{name}");
            assert!(traced.span_dump.unwrap().contains("\"spans\":["), "{name}");
            assert_eq!(traced.windows, (1, 1), "{name}");
        }
        assert!(run::run_named("nope", &ctx, &smoke_options(false)).is_none());
    }

    /// Each workload's own layer metrics show up where, and only where,
    /// that workload reaches the layer.
    #[test]
    fn per_layer_metrics_follow_the_layers_a_workload_reaches() {
        let (root, _base) = test_root("layers");
        let ctx = Ctx {
            root: &root,
            smoke: true,
        };
        let traced = |name| run::run_named(name, &ctx, &smoke_options(true)).unwrap();
        let read = traced("kv_read");
        assert!(read.metric("datastructures.kv.get_ns").unwrap() > 0.0);
        assert_eq!(read.metric("datastructures.kv.put_ns"), Some(0.0));
        assert_eq!(read.metric("puddled.recover_ms"), Some(0.0));
        // Probes follow the layers too: a read takes no transaction.
        assert!(read.metric("core.pool.deref_ns").unwrap() > 0.0);
        assert_eq!(read.metric("core.tx.nop_ns"), Some(0.0));
        let update = traced("kv_update");
        assert!(update.metric("core.tx.commit_1add_ns").unwrap() > 0.0);
        assert!(update.metric("logfmt.append_64B_ns").unwrap() > 0.0);
        assert_eq!(update.metric("logfmt.append_16KiB_MBps"), Some(0.0));
        assert_eq!(update.metric("proto.encode_ping_ns"), Some(0.0));
        let recover = traced("recover");
        assert!(recover.metric("puddled.recover_ms").unwrap() > 0.0);
        assert!(recover.metric("puddled.service.Recover.p50_ns").unwrap() > 0.0);
        assert!(recover.metric("logfmt.replay_4KiB_MBps").unwrap() > 0.0);
        assert_eq!(recover.metric("datastructures.kv.get_ns"), Some(0.0));
        let large = traced("tx_large");
        assert!(large.metric("core.tx.chain_segments").unwrap() >= 2.0);
        assert!(large.metric("core.tx.commit_1MiB_ms").unwrap() > 0.0);
        let rtt = traced("daemon_rtt");
        assert!(rtt.metric("core.client.pool_cycle_p50_us").unwrap() > 0.0);
        let share = rtt.metric("puddled.uds.transport_share").unwrap();
        assert!(share > 0.0 && share < 1.0, "{share}");
    }

    /// A wrong expected value must turn into failed operations (and so a
    /// non-zero exit), in every workload.
    #[test]
    fn a_corrupted_expectation_fails_the_run() {
        fn corrupted<W: Workload>(name: &str, corrupt: fn(&mut W)) {
            let (root, _base) = test_root(&format!("corrupt_{name}"));
            let ctx = Ctx {
                root: &root,
                smoke: true,
            };
            let result = run::run_with::<W>(name, &ctx, &smoke_options(false), corrupt);
            assert!(result.failed > 0 && !result.correct(), "{name}");
            assert!(
                result.to_json().starts_with("{\"correct\": false"),
                "{name}"
            );
        }
        corrupted::<KvUpdate>("kv_update", KvUpdate::corrupt_expectation);
        corrupted::<KvRead>("kv_read", KvRead::corrupt_expectation);
        corrupted::<TxLarge>("tx_large", TxLarge::corrupt_expectation);
        corrupted::<DaemonRtt>("daemon_rtt", DaemonRtt::corrupt_expectation);
        corrupted::<DaemonPipelined>("daemon_pipelined", DaemonPipelined::corrupt_expectation);
        corrupted::<Relocate>("relocate", Relocate::corrupt_expectation);
    }

    /// `recover` checks round by round, so its expectation is corrupted
    /// before the round runs; the failed check is reported once, by the
    /// round's window.
    #[test]
    fn a_corrupted_recovery_expectation_fails_the_round() {
        let (root, _base) = test_root("corrupt_recover");
        let ctx = Ctx {
            root: &root,
            smoke: true,
        };
        let mut workload = Recover::setup(&ctx, 1);
        workload.corrupt_expectation();
        let mut tracer = trace::Tracer::new(std::time::Instant::now());
        let window = workload.window(&mut tracer);
        assert_eq!((window.ops, window.failed), (2, 1));
        let rest = workload.finish();
        assert_eq!((rest.attempted, rest.failed), (0, 0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![("ops_per_s", 1234.5, "1/s"), ("setup_s", 0.25, "s")],
            windows: (1, 0),
            span_dump: None,
        };
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
