//! Randomized black-box crash-consistency sweep.
//!
//! In the spirit of black-box consistency checking (PAPERS.md: "Efficient
//! Black-box Checking of Snapshot Isolation in Databases"), this test
//! treats the whole system — client library, log chaining, daemon,
//! recovery — as opaque: it drives a *seeded* workload of transactions
//! whose log sizes straddle the chain boundary, injects a crash at a
//! randomly chosen executed-store index (or commit-stage / chain-extension
//! boundary) through the existing failpoint machinery, restarts the
//! daemon, and asserts the data region is **bit-identical** to either the
//! pre-transaction or the post-transaction image — committed or rolled
//! back, never torn.
//!
//! The bounded sweep (`PUDDLES_CRASH_SWEEP_TRIALS`, default 100) runs in
//! `cargo test`; CI runs a deeper, non-blocking sweep by raising the trial
//! count. `PUDDLES_CRASH_SWEEP_SEED` pins the base seed; on failure the
//! offending seed is written to `target/crash_sweep_seed.txt` (uploaded by
//! CI) and printed in the panic message, so every failure reproduces with
//! two env vars.
//!
//! Trials run **in parallel** (`PUDDLES_CRASH_SWEEP_THREADS`, default:
//! available parallelism, capped at 8): each trial owns a private PM dir
//! and a unique global-space slot (`DaemonConfig::for_testing`), and its
//! crash points are armed on its worker's thread (`failpoint::arm_scoped`:
//! the library's crash points are thread-local), so concurrent trials can
//! neither trip nor consume one another's points, and checking one takes
//! no lock. Worker threads pull trial indices from a shared counter, so
//! seeds stay `base + trial` regardless of thread count — a failure
//! reproduces identically single-threaded.

use puddled::{Daemon, DaemonConfig};
use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
use puddles_pmem::failpoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REGION: usize = 32 * 1024;
/// Log segments small enough that multi-KiB transactions chain several.
const LOG_SEGMENT: u64 = 32 * 1024;
/// Largest single op payload; must fit one fresh log segment.
const MAX_OP: usize = 8 * 1024;

#[repr(C)]
struct Region {
    data: [u8; REGION],
}
impl_pm_type!(Region, "crash_sweep::Region", []);

/// One logged mutation of the workload.
#[derive(Clone)]
struct Op {
    off: usize,
    len: usize,
    fill: u8,
    redo: bool,
}

fn gen_ops(rng: &mut StdRng) -> Vec<Op> {
    let count = rng.gen_range(1usize..6);
    (0..count)
        .map(|_| {
            // Mix small stores with multi-KiB blobs so per-transaction log
            // volume straddles the segment size in both directions.
            let len = if rng.gen_bool(0.5) {
                rng.gen_range(8usize..256)
            } else {
                rng.gen_range(2048usize..MAX_OP)
            };
            Op {
                off: rng.gen_range(0usize..REGION - len),
                len,
                fill: rng.gen_range(0u64..256) as u8,
                redo: rng.gen_bool(0.3),
            }
        })
        .collect()
}

/// Applies `ops` to the in-DRAM shadow model, producing the post-commit
/// image. Undo-logged ops mutate in place during the body; redo-logged ops
/// land at commit, *after* every in-place write — so where they overlap,
/// redo wins regardless of program order, and the shadow must apply the
/// groups in that order too.
fn apply_to_shadow(shadow: &mut [u8], ops: &[Op]) {
    for op in ops.iter().filter(|op| !op.redo) {
        shadow[op.off..op.off + op.len].fill(op.fill);
    }
    for op in ops.iter().filter(|op| op.redo) {
        shadow[op.off..op.off + op.len].fill(op.fill);
    }
}

/// The failpoint armed for the crashing transaction.
enum Crash {
    /// Crash after N executed (unfenced) log appends — the dominant case:
    /// a power failure at a random executed-store index.
    AppendAt(usize),
    /// Crash at a commit-stage or chain-extension boundary.
    Named(&'static str, usize),
}

fn pick_crash(rng: &mut StdRng) -> Crash {
    if rng.gen_bool(0.55) {
        return Crash::AppendAt(rng.gen_range(0usize..24));
    }
    let named = [
        failpoint::names::COMMIT_AFTER_UNDO_FLUSH,
        failpoint::names::COMMIT_BEFORE_REDO_APPLY,
        failpoint::names::COMMIT_MID_REDO_APPLY,
        failpoint::names::COMMIT_BEFORE_INVALIDATE,
        failpoint::names::LOG_CHAIN_ALLOC_CRASH,
        failpoint::names::LOG_CHAIN_REGISTER_CRASH,
    ];
    let name = named[rng.gen_range(0u64..named.len() as u64) as usize];
    let after = if name == failpoint::names::LOG_CHAIN_ALLOC_CRASH
        || name == failpoint::names::LOG_CHAIN_REGISTER_CRASH
    {
        rng.gen_range(0usize..2)
    } else {
        0
    };
    Crash::Named(name, after)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one seeded trial; returns an error message on a consistency
/// violation instead of panicking, so the caller can attach the seed.
fn run_trial(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());

    let mut shadow = vec![0u8; REGION];
    let mut before_crash_tx = shadow.clone();
    let mut crashed = false;

    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        client.set_log_puddle_size(LOG_SEGMENT);
        let pool = client.create_pool("sweep", PoolOptions::default()).unwrap();
        pool.tx(|tx| {
            pool.create_root(
                tx,
                Region {
                    data: [0u8; REGION],
                },
            )
        })
        .unwrap();
        let root: PmPtr<Region> = pool.root().unwrap();

        let tx_count = rng.gen_range(2usize..5);
        let crash_at = rng.gen_range(0usize..tx_count);
        for tx_index in 0..tx_count {
            let ops = gen_ops(&mut rng);
            if tx_index == crash_at {
                before_crash_tx.copy_from_slice(&shadow);
                // Scoped to this trial's thread: parallel trials must not
                // trip (or consume) each other's crash points.
                match pick_crash(&mut rng) {
                    Crash::AppendAt(n) => {
                        failpoint::arm_scoped(failpoint::names::LOG_APPEND_CRASH, n)
                    }
                    Crash::Named(name, after) => failpoint::arm_scoped(name, after),
                }
            }
            let result = pool.tx(|tx| {
                let region = pool.deref_mut(root)?;
                for op in &ops {
                    if op.redo {
                        let bytes = vec![op.fill; op.len];
                        tx.redo_set_bytes(region.data.as_ptr() as usize + op.off, &bytes)?;
                    } else {
                        tx.add_range(region.data.as_ptr() as usize + op.off, op.len)?;
                        region.data[op.off..op.off + op.len].fill(op.fill);
                    }
                }
                Ok(())
            });
            failpoint::clear_current_thread();
            match result {
                Ok(()) => {
                    // Either no crash was scheduled for this transaction, or
                    // the armed point was never reached (e.g. append index
                    // past the transaction's log volume): it committed.
                    apply_to_shadow(&mut shadow, &ops);
                }
                Err(e) if e.is_injected_crash() => {
                    // Leave `shadow` at the pre-transaction image; the
                    // post-commit candidate is derived below.
                    apply_to_shadow(&mut before_crash_tx, &ops);
                    std::mem::swap(&mut shadow, &mut before_crash_tx);
                    // After the swap: `before_crash_tx` = pre-tx image,
                    // `shadow` = post-commit image. Record and stop driving.
                    crashed = true;
                    break;
                }
                Err(e) => return Err(format!("unexpected workload error: {e}")),
            }
        }
        // The "crashed" client and daemon are dropped without cleanup.
    }

    // Restart: the daemon recovers every registered log chain before any
    // application maps the data.
    let daemon = Daemon::start(config).unwrap();
    // The shared structural layer first: registry/allocator consistency
    // (same checks as `wal_crash` and the torture harness).
    let violations = puddled::Invariants::check_all(daemon.registry());
    if !violations.is_empty() {
        return Err(format!(
            "registry invariant violations after recovery: {}",
            violations.join("; ")
        ));
    }
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let pool = client.open_pool("sweep").unwrap();
    let root: PmPtr<Region> = pool.root().unwrap();
    let data = &pool.deref(root).unwrap().data;

    if !crashed {
        if data[..] != shadow[..] {
            return Err("committed workload image diverged".into());
        }
        return Ok(());
    }
    let rolled_back = data[..] == before_crash_tx[..];
    let committed = data[..] == shadow[..];
    if !rolled_back && !committed {
        let divergence = data
            .iter()
            .zip(before_crash_tx.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "torn state after recovery: matches neither the pre-transaction \
             nor the post-commit image (first divergence from pre-tx at \
             byte {divergence})"
        ));
    }
    Ok(())
}

#[test]
fn randomized_crash_consistency_sweep() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    let trials = env_u64("PUDDLES_CRASH_SWEEP_TRIALS", 100);
    let base_seed = env_u64("PUDDLES_CRASH_SWEEP_SEED", 0xC0FFEE);
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
        .min(8);
    let threads = env_u64("PUDDLES_CRASH_SWEEP_THREADS", default_threads).clamp(1, trials.max(1));

    // Work-stealing trial loop: seeds are a pure function of the trial
    // index, so coverage and reproduction are independent of thread count.
    let next_trial = Arc::new(AtomicU64::new(0));
    let failures: Arc<Mutex<Vec<(u64, u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let next_trial = Arc::clone(&next_trial);
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || loop {
                let trial = next_trial.fetch_add(1, Ordering::Relaxed);
                if trial >= trials {
                    return;
                }
                let seed = base_seed.wrapping_add(trial);
                if let Err(msg) = run_trial(seed) {
                    failures.lock().unwrap().push((trial, seed, msg));
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("sweep worker panicked");
    }

    let failures = failures.lock().unwrap();
    if let Some((trial, seed, msg)) = failures.first() {
        // Record the seed for reproduction (CI uploads this artifact).
        let _ = std::fs::write(
            "target/crash_sweep_seed.txt",
            format!("PUDDLES_CRASH_SWEEP_SEED={seed} PUDDLES_CRASH_SWEEP_TRIALS=1\n"),
        );
        panic!(
            "crash-consistency violation at trial {trial} ({} total): {msg}\n\
             reproduce with PUDDLES_CRASH_SWEEP_SEED={seed} \
             PUDDLES_CRASH_SWEEP_TRIALS=1 PUDDLES_CRASH_SWEEP_THREADS=1",
            failures.len()
        );
    }
}
