//! Registry metadata mutation throughput: what a WAL record costs against
//! what a checkpoint costs.
//!
//! A mutation appends one O(record) entry to the metadata WAL and batches
//! its fsync with concurrent mutators; a checkpoint compacts the WAL — one
//! atomic replace of the file with a put record per live table entry — and
//! is O(registry). This harness prices both on the same `Registry`:
//!
//! * `wal` — `transact` + `commit()` (one group-committed WAL record per
//!   op, the daemon's steady-state path);
//! * `snapshot` — mutate + `checkpoint()` (one compaction per op: the
//!   repo's per-checkpoint cost number, and what every mutation cost when
//!   the registry was rewritten wholesale on each);
//! * `wal-mt` — T threads mutating concurrently through `commit()`,
//!   demonstrating that group commit batches their fsyncs.
//!
//! Output rows: `metadata_ops,puddles,<operation>,<parameter>,<ops_per_sec>`.

use puddled::registry::{PuddleRecord, Registry, Rewrite};
use puddled::RegistryOp;
use puddles_bench::{emit_header, emit_row, secs, Scale};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::{PmError, PAGE_SIZE};
use puddles_proto::PuddlePurpose;
use std::sync::Arc;

fn fresh_registry(dir: &std::path::Path) -> Registry {
    let pm = PmDir::open(dir).expect("pmdir");
    Registry::load_or_create(&pm, 0x5000_0000_0000, 64 << 30).expect("registry")
}

fn record(reg: &Registry) -> PuddleRecord {
    let offset = reg.alloc_space(PAGE_SIZE as u64).expect("alloc");
    PuddleRecord {
        id: reg.fresh_id(),
        size: PAGE_SIZE as u64,
        offset,
        purpose: PuddlePurpose::Data,
        owner_uid: 1,
        owner_gid: 1,
        mode: 0o600,
        pool: None,
        old_addr: 0,
        rewrite: Rewrite::Clean,
    }
}

/// The transaction every cell times: one puddle record put.
fn register(reg: &Registry, rec: PuddleRecord) {
    reg.transact(|_, ops| {
        ops.push(RegistryOp::PutPuddle(rec));
        Ok::<_, PmError>(())
    })
    .expect("register");
}

/// One registered-puddle mutation persisted with a WAL record (`commit`)
/// or a whole compaction (`checkpoint`).
fn run_single(ops: usize, snapshot_per_write: bool) -> f64 {
    let tmp = tempfile::tempdir().expect("tempdir");
    let reg = fresh_registry(tmp.path());
    if !snapshot_per_write {
        // Keep the threshold out of the way so the measurement isolates the
        // per-op append + fsync (the daemon's steady-state cost).
        reg.wal().set_checkpoint_threshold(u64::MAX);
    }
    let elapsed = secs(|| {
        for _ in 0..ops {
            let rec = record(&reg);
            register(&reg, rec);
            if snapshot_per_write {
                reg.checkpoint().expect("checkpoint");
            } else {
                reg.commit().expect("commit");
            }
        }
    });
    ops as f64 / elapsed
}

/// `threads` threads each performing `ops` WAL-committed mutations.
fn run_threaded(threads: usize, ops: usize) -> f64 {
    let tmp = tempfile::tempdir().expect("tempdir");
    let reg = Arc::new(fresh_registry(tmp.path()));
    reg.wal().set_checkpoint_threshold(u64::MAX);
    let elapsed = secs(|| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..ops {
                        let rec = record(&reg);
                        register(&reg, rec);
                        reg.commit().expect("commit");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("join");
        }
    });
    (threads * ops) as f64 / elapsed
}

fn main() {
    let scale = Scale::from_args();
    emit_header();

    // A compaction's cost grows with registry size, so even the quick run
    // makes the O(registry) vs O(record) gap visible.
    let snapshot_ops = scale.pick(300, 2000);
    let wal_ops = scale.pick(3000, 20000);

    // The operation column keeps the name its rows have always had.
    let row = |parameter: &str, value: f64| {
        emit_row(
            "metadata_ops",
            "puddles",
            "register_puddle",
            parameter,
            value,
        )
    };
    let snap = run_single(snapshot_ops, true);
    row("snapshot", snap);

    let wal = run_single(wal_ops, false);
    row("wal", wal);

    for threads in [2usize, 4, 8] {
        let per_thread = scale.pick(1000, 5000);
        row(
            &format!("wal-mt{threads}"),
            run_threaded(threads, per_thread),
        );
    }

    eprintln!(
        "# wal/snapshot speedup: {:.1}x (snapshot={snap:.0} ops/s, wal={wal:.0} ops/s)",
        wal / snap
    );
}
