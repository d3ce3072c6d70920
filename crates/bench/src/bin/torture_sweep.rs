//! Deep torture sweep driver for CI and soak runs.
//!
//! Runs many seeded torture trials (see `puddles_bench::torture`) and reports
//! per-trial fault/ack statistics. Unlike the bounded `cargo test` sweep
//! this binary is meant for long nightly runs:
//!
//! ```text
//! torture_sweep [--seeds N] [--start SEED] [--threads N] [--json] [--replay-check]
//! ```
//!
//! On a failure it prints the seed + fault trace, writes
//! `target/torture_seed.txt` (uploaded by CI), and exits nonzero.

use puddles_bench::torture::{run_sweep_with, SweepOptions, TortureFailure};
use std::process::exit;

struct Args {
    seeds: u64,
    start: u64,
    threads: u64,
    json: bool,
    opts: SweepOptions,
}

fn parse_args() -> Result<Args, String> {
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
        .min(8);
    let mut args = Args {
        seeds: 500,
        start: 0x7011_70BE,
        threads: default_threads,
        json: false,
        opts: SweepOptions::default(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seeds" => {
                args.seeds = iter
                    .next()
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?
            }
            "--start" => {
                args.start = iter
                    .next()
                    .ok_or("--start needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --start: {e}"))?
            }
            "--threads" => {
                args.threads = iter
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--json" => args.json = true,
            // The determinism gate: run each seed twice, fail on the first
            // fault-trace or history divergence.
            "--replay-check" => args.opts.replay_check = true,
            "--help" | "-h" => {
                println!(
                    "usage: torture_sweep [--seeds N] [--start SEED] [--threads N] \
                     [--json] [--replay-check]"
                );
                exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn report_failure(failure: &TortureFailure) -> ! {
    eprintln!("{failure}");
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write(
        "target/torture_seed.txt",
        format!("TORTURE_SEED={} TORTURE_TRIALS=1\n", failure.seed),
    );
    exit(1);
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("torture_sweep: {e}");
            exit(2);
        }
    };
    match run_sweep_with(args.start, args.seeds, args.threads, args.opts) {
        Ok(reports) => {
            let injected: u64 = reports.iter().map(|r| r.injected).sum();
            let acked: u64 = reports.iter().map(|r| r.acked_ops).sum();
            let kills: usize = reports.iter().map(|r| r.kills).sum();
            // Counted apart from the other faults: resets are the one class
            // a change to the daemon's request path can stop drawing.
            let resets: usize = reports.iter().map(|r| r.conn_resets()).sum();
            if args.json {
                println!(
                    "{{\"seeds\": {}, \"start\": {}, \"injected_faults\": {injected}, \
                     \"conn_resets\": {resets}, \"acked_ops\": {acked}, \
                     \"mid_phase_kills\": {kills}}}",
                    reports.len(),
                    args.start
                );
            } else {
                println!(
                    "torture_sweep: {} seeds passed (start {}): {injected} faults injected \
                     ({resets} conn.io resets), {acked} ops acknowledged, {kills} mid-phase kills",
                    reports.len(),
                    args.start
                );
            }
        }
        Err(failure) => report_failure(&failure),
    }
}
