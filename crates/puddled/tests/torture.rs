//! The in-tree torture sweep: seeded fault injection + kill/restart +
//! invariant checks, bounded for `cargo test`.
//!
//! The harness itself lives in `puddles::torture` (shared with the
//! `torture_sweep` bench binary, which CI uses for deep sweeps). Knobs:
//!
//! * `TORTURE_SEED` — base seed (trial `i` runs seed `base + i`);
//! * `TORTURE_TRIALS` — trial count (default 25);
//! * `TORTURE_THREADS` — worker threads (default: available parallelism,
//!   capped at 4 — each trial itself runs several client threads).
//!
//! A failure panics with the seed and the fault trace; reproduce with
//! `TORTURE_SEED=<seed> TORTURE_TRIALS=1`. The failing seed is also
//! written to `target/torture_seed.txt` for CI artifact upload.

use puddles::torture::{env_u64, run_sweep, run_trial, TortureConfig};

/// The replay guarantee, in-tree: one seed, two runs, byte-identical
/// fault traces, operation histories, and observability trace-ring
/// dumps — on a seed that injects connection resets, the one fault class
/// drawn on the daemon's request path rather than under its storage. (The
/// deep CI gate is `torture_sweep --replay-check`.)
#[test]
fn same_seed_replays_identical_execution() {
    let config = TortureConfig::from_seed(0x7011_70C0);
    assert!(config.profile.conn_reset_ppm > 0, "{config:?}");
    let first = run_trial(&config).unwrap_or_else(|f| panic!("{f}"));
    let second = run_trial(&config).unwrap_or_else(|f| panic!("{f}"));
    assert!(
        first.conn_resets() >= 1,
        "the pinned seed must hold a `conn.io#…: reset` line: {:?}",
        first.fault_trace
    );
    assert!(
        !first.history.is_empty(),
        "the trial must actually record operations"
    );
    assert_eq!(
        first.fault_trace, second.fault_trace,
        "same seed must inject the same faults in the same order"
    );
    assert_eq!(
        first.history, second.history,
        "same seed must replay the same operation interleaving"
    );
    assert!(
        !first.trace_dump.is_empty(),
        "the trial must populate the observability trace ring"
    );
    assert_eq!(
        first.trace_dump, second.trace_dump,
        "same seed must produce a byte-identical trace-ring dump"
    );
}

#[test]
fn seeded_torture_sweep() {
    let trials = env_u64("TORTURE_TRIALS", 25);
    let base_seed = env_u64("TORTURE_SEED", 0x7011_70BE);
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
        .min(4);
    let threads = env_u64("TORTURE_THREADS", default_threads);

    match run_sweep(base_seed, trials, threads) {
        Ok(reports) => {
            let injected: u64 = reports.iter().map(|r| r.injected).sum();
            let acked: u64 = reports.iter().map(|r| r.acked_ops).sum();
            let kills: usize = reports.iter().map(|r| r.kills).sum();
            // The sweep must actually torture: across 25 seeds the fault
            // plan fires and mid-phase kills happen, yet clients still get
            // work acknowledged through the retry plane.
            assert!(injected > 0, "no faults injected across {trials} trials");
            assert!(kills > 0, "no mid-phase kills across {trials} trials");
            assert!(acked > 0, "no operations survived across {trials} trials");
        }
        Err(failure) => {
            let _ = std::fs::write(
                "target/torture_seed.txt",
                format!("TORTURE_SEED={} TORTURE_TRIALS=1\n", failure.seed),
            );
            panic!("{failure}");
        }
    }
}
