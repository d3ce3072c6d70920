//! Crash-injection tests for the metadata WAL.
//!
//! Follows the black-box consistency-checking discipline of the paper's
//! correctness evaluation (§5.1) — and of Biswas et al.'s snapshot-isolation
//! checking: inject a crash at a chosen persistence boundary, restart the
//! daemon from the on-disk state alone, and assert the recovered registry
//! satisfies its invariants (and, where the scenario pins it down, equals
//! the exact pre-crash state).
//!
//! A crash is armed on the fault plan of the registry or daemon it crashes
//! ([`CrashPoint`]), so these tests run in parallel, each on its own plan.

use puddled::registry::{PuddleRecord, Registry, RegistryData, Rewrite};
use puddled::{Daemon, DaemonConfig, RegistryOp, Wal};
use puddles_pmem::faultio::{CrashPoint, FaultPlan, FaultProfile};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::{PmError, PAGE_SIZE};
use puddles_proto::{
    Endpoint, ErrorCode, PoolInfo, PtrMapDecl, PuddleId, PuddlePurpose, Request, Response,
    Translation,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A plan that injects no seeded fault: it only carries armed crashes.
fn crash_plan() -> Arc<FaultPlan> {
    FaultPlan::new(0, FaultProfile::default())
}

/// A PM directory on `root` whose layers consult `plan`.
fn pm_with(root: &Path, plan: &Arc<FaultPlan>) -> PmDir {
    PmDir::open(root).unwrap().with_fault_plan(Arc::clone(plan))
}

fn open_registry(pm: &PmDir) -> Registry {
    Registry::load_or_create(pm, 0x5000_0000_0000, 1 << 30).unwrap()
}

/// The PM directory hub's reading of the `io.*` counter `name`.
fn io_counter(pm: &PmDir, name: &'static str) -> u64 {
    pm.obs()
        .counter(name)
        .load(std::sync::atomic::Ordering::Relaxed)
}

/// Checkpoints `reg` has written: its `checkpoint` series' count.
fn checkpoints(reg: &Registry) -> u64 {
    reg.wal()
        .pmdir()
        .obs()
        .series("checkpoint")
        .snapshot()
        .count
}

fn record(reg: &Registry, pool: Option<&str>) -> PuddleRecord {
    let offset = reg.alloc_space(PAGE_SIZE as u64).unwrap();
    PuddleRecord {
        id: reg.fresh_id(),
        size: PAGE_SIZE as u64,
        offset,
        purpose: PuddlePurpose::Data,
        owner_uid: 1,
        owner_gid: 2,
        mode: 0o600,
        pool: pool.map(String::from),
        old_addr: 0,
        rewrite: Rewrite::Clean,
    }
}

fn put(rec: &PuddleRecord) -> Vec<RegistryOp> {
    vec![RegistryOp::PutPuddle(rec.clone())]
}

fn drop_puddle(rec: &PuddleRecord) -> Vec<RegistryOp> {
    vec![RegistryOp::DropPuddle { id: rec.id }]
}

/// One registry transaction of `batch` — what a daemon request is.
fn transact(reg: &Registry, batch: Vec<RegistryOp>) {
    reg.transact(|_, ops| {
        ops.extend(batch);
        Ok::<_, PmError>(())
    })
    .unwrap();
}

/// Creates a pool named `name` with a root and `members - 1` extra member
/// puddles, mirroring how the daemon builds pools: one transaction for the
/// pool and its root, one per further member.
fn build_pool(reg: &Registry, name: &str, members: usize) -> Vec<PuddleId> {
    let root = record(reg, Some(name));
    let mut ids = vec![root.id];
    let pool = RegistryOp::PutPool {
        name: name.into(),
        root: root.id,
    };
    transact(reg, vec![pool, RegistryOp::PutPuddle(root)]);
    for _ in 1..members {
        let rec = record(reg, Some(name));
        ids.push(rec.id);
        transact(reg, put(&rec));
    }
    ids
}

/// Structural invariants every recovered registry must satisfy — the shared
/// [`puddled::Invariants`] layer also used by `crash_sweep` and the torture
/// harness.
fn assert_consistent(data: &RegistryData) {
    puddled::Invariants::assert_data(data);
}

#[test]
fn recovery_roundtrips_a_registry_bit_identically_through_the_wal() {
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let before;
    {
        let reg = open_registry(&pm);
        // ≥ 3 pools, ≥ 8 puddles (plus churn: an update and a drop, so
        // replay exercises put, update, and drop records). The dropped
        // puddle sits in the *middle* of the space so its extent becomes a
        // free-list gap (a freed tail extent is instead absorbed into the
        // bump pointer by the load-time reconcile — correct, but then the
        // comparison would not be bit-exact).
        build_pool(&reg, "alpha", 3);
        let loose = record(&reg, None);
        transact(&reg, put(&loose));
        let beta = build_pool(&reg, "beta", 3);
        build_pool(&reg, "gamma", 3);
        let mut updated = reg.puddle(beta[1]).unwrap();
        updated.mode = 0o640;
        transact(&reg, vec![RegistryOp::PutPuddle(updated)]);
        transact(&reg, drop_puddle(&loose));
        reg.free_space(loose.offset, loose.size);
        let ptr_map = puddles_proto::PtrMapDecl {
            type_id: 42,
            type_name: "Node".into(),
            size: 16,
            fields: vec![],
        };
        let log_space = puddled::registry::LogSpaceRecord {
            puddle: beta[0],
            owner_uid: 1,
            owner_gid: 2,
            invalid: false,
        };
        transact(&reg, vec![RegistryOp::PutPtrMap(ptr_map)]);
        transact(&reg, vec![RegistryOp::PutLogSpace(log_space)]);
        reg.commit().unwrap();
        before = reg.snapshot();

        // The durable checkpoint is still the empty one from load time — a
        // lone snapshot header at the front of the file: every mutation
        // above lives only in the records appended behind it.
        let records = Wal::open(&pm).unwrap().take_initial_replay();
        assert!(
            matches!(records[0].1, RegistryOp::Snapshot { span_bytes: 0, .. }),
            "mutations must not rewrite the checkpoint: {:?}",
            records[0]
        );
        // One record per transaction, however many ops each carried.
        let tail: BTreeSet<u64> = records[1..].iter().map(|(seq, _)| *seq).collect();
        assert_eq!(tail.len() as u64, reg.wal().stats().records);
        assert!(records.len() > 1 + tail.len() && tail.len() >= 10);
        // The registry is dropped without a checkpoint — recovery must
        // rebuild everything from WAL replay alone.
    }
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_eq!(before.puddles.len(), 9);
    assert_eq!(before.pools.len(), 3);
    assert_eq!(
        after, before,
        "recovered registry differs from pre-crash state"
    );
    assert_consistent(&after);
}

#[test]
fn torn_tail_record_is_discarded_and_prior_state_survives() {
    let tmp = tempfile::tempdir().unwrap();
    let plan = crash_plan();
    let pm = pm_with(tmp.path(), &plan);
    let before;
    {
        let reg = open_registry(&pm);
        build_pool(&reg, "stable", 4);
        reg.commit().unwrap();
        before = reg.snapshot();

        // The next mutation's WAL record is torn mid-append.
        plan.arm_crash(CrashPoint::WalAppendTorn, 0);
        transact(&reg, put(&record(&reg, None)));
        let err = reg.commit().unwrap_err();
        assert!(
            matches!(err, PmError::CrashInjected(_)),
            "expected injected crash, got {err}"
        );
        // Once torn, the WAL refuses further traffic until restart.
        assert!(reg.commit().is_err());
    }
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_consistent(&after);
    // The committed state survives in full; the torn mutation may only
    // vanish atomically (the record never passed its checksum).
    assert_eq!(after.pools, before.pools);
    assert_eq!(after.puddles, before.puddles);
}

#[test]
fn crash_between_checkpoint_write_and_wal_truncate_recovers_exactly() {
    let tmp = tempfile::tempdir().unwrap();
    let plan = crash_plan();
    let pm = pm_with(tmp.path(), &plan);
    let before;
    {
        let reg = open_registry(&pm);
        build_pool(&reg, "p0", 3);
        let p1 = build_pool(&reg, "p1", 3);
        build_pool(&reg, "p2", 2);
        // Include a drop so naive double-replay of the un-truncated WAL
        // would resurrect state the checkpoint no longer has.
        let victim = reg.puddle(p1[2]).unwrap();
        transact(&reg, drop_puddle(&victim));
        reg.free_space(victim.offset, victim.size);
        reg.commit().unwrap();
        before = reg.snapshot();

        plan.arm_crash(CrashPoint::MetaWriteBeforeRename, 0);
        let err = reg.checkpoint().unwrap_err();
        assert!(matches!(err, PmError::CrashInjected(_)));
        // The compacted file was written beside the WAL; the WAL itself
        // was not replaced.
        assert!(pm.meta_path("registry.wal.tmp").exists());
        assert!(reg.wal().stats().records > 0);
    }
    // Replay reads the untouched WAL — the temp file is never looked at —
    // and lands on exactly the pre-crash state; opening the WAL removes the
    // stale temp file, whether or not the load checkpoints.
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_eq!(after, before);
    assert_consistent(&after);
    assert!(!pm.meta_path("registry.wal.tmp").exists());
}

/// A checkpoint that fails before its rename — a full device, or a write
/// that stays short through the whole retry budget — reports the typed
/// error and is otherwise as if it had never started: the WAL keeps taking
/// commits, and a reload lands on the live state.
#[test]
fn a_failed_checkpoint_does_not_wedge_the_registry() {
    let enospc = FaultProfile {
        write_enospc_ppm: 1_000_000,
        ..FaultProfile::default()
    };
    let short = FaultProfile {
        write_short_ppm: 1_000_000,
        ..FaultProfile::default()
    };
    for (seed, profile) in [(3, enospc), (4, short)] {
        let tmp = tempfile::tempdir().unwrap();
        let plan = FaultPlan::new(seed, profile);
        plan.set_enabled(false);
        let pm = PmDir::open(tmp.path())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        let live;
        {
            let reg = open_registry(&pm);
            build_pool(&reg, "before", 3);
            reg.commit().unwrap();
            // Enqueued but not committed: the failed compaction takes these
            // records out of the buffer and must put them back.
            transact(&reg, put(&record(&reg, None)));
            let wal_file = std::fs::read(pm.meta_path("registry.wal")).unwrap();

            plan.set_enabled(true);
            let err = reg.checkpoint().unwrap_err();
            plan.set_enabled(false);
            if profile.write_enospc_ppm > 0 {
                assert!(matches!(err, PmError::NoSpace(_)), "got {err:?}");
                assert_eq!(io_counter(&pm, "io.enospc_rejections"), 1);
            } else {
                assert!(matches!(err, PmError::Io(_)), "got {err:?}");
                assert!(
                    io_counter(&pm, "io.retries") > 0,
                    "a short write is retried"
                );
            }
            assert_eq!(
                std::fs::read(pm.meta_path("registry.wal")).unwrap(),
                wal_file,
                "a failed checkpoint must leave the file as it was"
            );
            assert!(!pm.meta_path("registry.wal.tmp").exists());
            let failed = pm.obs().counter("checkpoint.failed");
            assert_eq!(failed.load(std::sync::atomic::Ordering::Relaxed), 1);

            build_pool(&reg, "after", 2);
            reg.commit().expect("the WAL must not be poisoned");
            reg.checkpoint().expect("the next checkpoint goes through");
            build_pool(&reg, "tail", 2);
            reg.commit().unwrap();
            live = reg.snapshot();
        }
        let reg = open_registry(&pm);
        assert_eq!(reg.snapshot(), live);
        assert_consistent(&live);
    }
}

/// `commit()` answers for the flush alone. When the checkpoint it triggers
/// inline fails, the mutation is already durable: the request succeeds, the
/// failure is counted and traced, and the next commit's trigger retries.
#[test]
fn commit_does_not_report_a_failed_checkpoint_as_its_own() {
    let tmp = tempfile::tempdir().unwrap();
    let plan = crash_plan();
    let pm = pm_with(tmp.path(), &plan);
    let live;
    {
        let reg = open_registry(&pm);
        // A bare registry checkpoints inline on the commit that trips the
        // threshold: every commit, here.
        reg.wal().set_checkpoint_threshold(1);
        let before = checkpoints(&reg);
        plan.arm_crash(CrashPoint::MetaWriteBeforeRename, 0);
        build_pool(&reg, "durable", 2);
        reg.commit()
            .expect("the flush succeeded; the checkpoint's failure is not the request's");
        assert_eq!(plan.trace(), vec!["meta.write.before_rename: crash"]);
        let failed = pm.obs().counter("checkpoint.failed");
        assert_eq!(failed.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(
            pm.obs()
                .trace_dump()
                .iter()
                .any(|line| line.contains("ckpt.end failed")),
            "the failure must be in the trace"
        );
        assert_eq!(checkpoints(&reg), before);
        assert!(reg.wal().stats().records > 0);

        build_pool(&reg, "next", 2);
        reg.commit().unwrap();
        assert_eq!(
            (checkpoints(&reg), reg.wal().stats().records),
            (before + 1, 0)
        );
        assert_eq!(failed.load(std::sync::atomic::Ordering::Relaxed), 1);
        live = reg.snapshot();
    }
    let reg = open_registry(&pm);
    assert_eq!(reg.snapshot(), live);
    assert_eq!(live.pools.len(), 2);
}

#[test]
fn crash_mid_group_commit_keeps_every_acknowledged_mutation() {
    let tmp = tempfile::tempdir().unwrap();
    let plan = crash_plan();
    let pm = pm_with(tmp.path(), &plan);
    let acked = Arc::new(Mutex::new(Vec::new()));
    {
        let reg = Arc::new(open_registry(&pm));
        // Let a couple of batches commit cleanly, then tear one mid-write.
        plan.arm_crash(CrashPoint::WalMidGroupCommit, 3);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let rec = record(&reg, None);
                        let id = rec.id;
                        // Refused once the crash has poisoned the WAL.
                        if reg
                            .transact(|_, ops| {
                                ops.extend(put(&rec));
                                Ok::<_, PmError>(())
                            })
                            .is_err()
                        {
                            break;
                        }
                        match reg.commit() {
                            Ok(()) => acked.lock().unwrap().push(id),
                            // The injected crash (or the poisoned WAL after
                            // it): the daemon would be dead, stop "issuing
                            // requests" from this client.
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            plan.trace(),
            vec!["wal.group_commit.mid: crash"],
            "the crash must actually have been injected"
        );
    }
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_consistent(&after);
    // Durability: every mutation whose commit was acknowledged is present.
    let acked = acked.lock().unwrap();
    assert!(!acked.is_empty(), "some commits should have succeeded");
    for id in acked.iter() {
        assert!(
            after.puddles.contains_key(id),
            "acknowledged puddle {id} lost by the crash"
        );
    }
}

/// A crash belongs to the registry it is armed for. Two registries, each
/// on its own directory, commit side by side; A's plan tears A's sixth
/// append. A acknowledged exactly five records and reopens on them; B,
/// whose plan is unarmed, commits every record and reopens whole.
#[test]
fn a_crash_armed_on_one_plan_tears_that_registry_alone() {
    const COMMITS: usize = 40;
    let tmps = [tempfile::tempdir().unwrap(), tempfile::tempdir().unwrap()];
    let plans = [crash_plan(), crash_plan()];
    let pms = [0, 1].map(|i| pm_with(tmps[i].path(), &plans[i]));
    let regs = pms.each_ref().map(open_registry);
    plans[0].arm_crash(CrashPoint::WalAppendTorn, 5);
    let start = std::sync::Barrier::new(2);
    let acked = std::thread::scope(|scope| {
        let threads = regs.each_ref().map(|reg| {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                let mut acked = Vec::new();
                for _ in 0..COMMITS {
                    let rec = record(reg, None);
                    transact(reg, put(&rec));
                    match reg.commit() {
                        Ok(()) => acked.push(rec.id),
                        Err(err) => {
                            assert!(matches!(err, PmError::CrashInjected(_)), "{err}");
                            break;
                        }
                    }
                }
                acked
            })
        });
        threads.map(|t| t.join().unwrap())
    });
    assert_eq!(plans[0].trace(), vec!["wal.append.torn: crash"]);
    assert!(plans[1].trace().is_empty());
    assert_eq!((acked[0].len(), acked[1].len()), (5, COMMITS));
    let live_b = regs[1].snapshot();
    drop(regs);

    let reopened = pms.each_ref().map(|pm| open_registry(pm).snapshot());
    let ids: BTreeSet<&PuddleId> = reopened[0].puddles.keys().collect();
    assert_eq!(ids, acked[0].iter().collect(), "A: its acked records only");
    assert_eq!(reopened[1], live_b, "B reopens whole");
    assert_eq!(reopened[1].puddles.len(), COMMITS);
    reopened.iter().for_each(assert_consistent);
}

#[test]
fn checkpoint_triggers_by_wal_byte_threshold_and_truncates() {
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let reg = open_registry(&pm);
    reg.wal().set_checkpoint_threshold(4 * 1024);
    let baseline = checkpoints(&reg);
    for _ in 0..64 {
        transact(&reg, put(&record(&reg, None)));
        reg.commit().unwrap();
    }
    assert!(
        checkpoints(&reg) > baseline,
        "threshold checkpoint never ran"
    );
    let stats = reg.wal().stats();
    assert!(
        stats.bytes < 64 * 1024,
        "WAL kept growing past the threshold: {} bytes",
        stats.bytes
    );
    // And the checkpointed state still replays correctly.
    drop(reg);
    let reg = open_registry(&pm);
    assert_eq!(reg.snapshot().puddles.len(), 64);
}

/// A load checkpoints only when a commit would: a restart over a snapshot
/// and a short tail replays it and writes nothing — no checkpoint, not a
/// byte of the WAL — and lands on the tables it left.
#[test]
fn a_restart_over_a_short_tail_writes_no_checkpoint() {
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let live;
    {
        let reg = open_registry(&pm);
        build_pool(&reg, "p0", 3);
        let p1 = build_pool(&reg, "p1", 2);
        let victim = reg.puddle(p1[1]).unwrap();
        transact(&reg, drop_puddle(&victim));
        reg.free_space(victim.offset, victim.size);
        reg.commit().unwrap();
        assert!(reg.wal().stats().records > 0, "a tail to replay");
        live = reg.snapshot();
    }
    let wal_file = std::fs::read(pm.meta_path("registry.wal")).unwrap();
    for restart in 0..2 {
        let reg = open_registry(&pm);
        // The one checkpoint is the fresh directory's.
        assert_eq!(checkpoints(&reg), 1, "restart {restart} checkpointed");
        assert_eq!(
            std::fs::read(pm.meta_path("registry.wal")).unwrap(),
            wal_file,
            "restart {restart} rewrote the WAL"
        );
        assert_eq!(reg.snapshot(), live);
    }
    assert_consistent(&live);
}

/// A tail the last run left past the threshold is folded at load, as the
/// commit that crossed it would have: replay at the next start stays
/// bounded by the threshold.
#[test]
fn a_restart_over_a_tail_past_the_threshold_checkpoints() {
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let live;
    {
        let reg = open_registry(&pm);
        reg.wal().set_checkpoint_threshold(u64::MAX);
        while reg.wal().stats().bytes < puddled::wal::DEFAULT_CHECKPOINT_BYTES {
            let batch = (0..1_000).flat_map(|_| put(&record(&reg, None))).collect();
            transact(&reg, batch);
        }
        reg.commit().unwrap();
        live = reg.snapshot();
    }
    let reg = open_registry(&pm);
    // The fresh directory's checkpoint, then the restart's.
    assert_eq!(checkpoints(&reg), 2, "the restart did not fold the tail");
    assert_eq!(reg.wal().stats().bytes, 0);
    assert_eq!(reg.snapshot(), live);
    drop(reg);
    let reg = open_registry(&pm);
    assert_eq!(checkpoints(&reg), 2, "the next restart has nothing to fold");
    assert_eq!(reg.snapshot(), live);
}

/// A fresh directory checkpoints at load: only a snapshot header records
/// the space's base and size.
#[test]
fn a_fresh_directory_checkpoints_at_load() {
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let reg = open_registry(&pm);
    assert_eq!(checkpoints(&reg), 1);
    assert!(reg.wal().has_snapshot());
    drop(reg);
    let records = Wal::open(&pm).unwrap().take_initial_replay();
    assert!(matches!(
        records[..],
        [(
            _,
            RegistryOp::Snapshot {
                space_base: 0x5000_0000_0000,
                space_size: 0x4000_0000,
                ..
            }
        )]
    ));
}

#[test]
fn startup_sweep_deletes_orphan_puddle_files() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let legit_files: Vec<String>;
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let ep = daemon.endpoint_for_current_process();
        use puddles_proto::{Endpoint, Request, Response};
        let resp = ep
            .call(&Request::CreatePool {
                name: "keep".into(),
                root_size: 2 * PAGE_SIZE as u64,
                mode: 0o600,
            })
            .unwrap();
        assert!(matches!(resp, Response::Pool(_)));
        legit_files = daemon.pm_dir().list_puddles().unwrap();
        assert!(!legit_files.is_empty());
        // A crash mid-DropPool leaves a freed member's file behind: model
        // it with puddle files the registry knows nothing about.
        daemon
            .pm_dir()
            .create_puddle_file("00000000deadbeef", PAGE_SIZE)
            .unwrap();
        daemon
            .pm_dir()
            .create_puddle_file("00000000feedface", PAGE_SIZE)
            .unwrap();
    }
    let daemon = Daemon::start(config).unwrap();
    let files = daemon.pm_dir().list_puddles().unwrap();
    assert_eq!(
        files, legit_files,
        "orphans must be swept, legit files kept"
    );
    assert_eq!(counter(&daemon, "sweep.orphan_files"), 2);
}

/// Damage inside the snapshot span is not a torn tail. A daemon that healed
/// it would load an empty registry and sweep every puddle file as an
/// orphan; it must refuse to start instead, with the WAL byte-identical and
/// every puddle file still there.
#[test]
fn damage_inside_the_snapshot_refuses_startup_and_sweeps_nothing() {
    use puddles_proto::{Endpoint, Request, Response};
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let pm = PmDir::open(tmp.path()).unwrap();
    let create = Request::CreatePool {
        name: "keep".into(),
        root_size: 2 * PAGE_SIZE as u64,
        mode: 0o600,
    };
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let resp = daemon.endpoint_for_current_process().call(&create);
        assert!(matches!(resp, Ok(Response::Pool(_))), "{resp:?}");
        daemon.checkpoint().unwrap();
    }
    let files = pm.list_puddles().unwrap();
    assert!(!files.is_empty());
    let wal_path = pm.meta_path("registry.wal");
    let intact = std::fs::read(&wal_path).unwrap();

    // A flipped bit in a snapshot record's payload (the pool's name), and a
    // file cut short inside the span.
    let mut flipped = intact.clone();
    let name_at = intact.windows(4).position(|w| w == b"keep").unwrap();
    flipped[name_at] ^= 0x01;
    for damaged in [&flipped[..], &intact[..intact.len() - 10]] {
        std::fs::write(&wal_path, damaged).unwrap();
        match Daemon::start(config.clone()) {
            Err(PmError::Corruption(_)) => {}
            other => panic!("expected startup to be refused, got {other:?}"),
        }
        assert_eq!(std::fs::read(&wal_path).unwrap(), damaged);
        assert_eq!(pm.list_puddles().unwrap(), files, "nothing may be swept");
    }

    std::fs::write(&wal_path, &intact).unwrap();
    let daemon = Daemon::start(config).unwrap();
    let open = Request::OpenPool {
        name: "keep".into(),
    };
    let resp = daemon.endpoint_for_current_process().call(&open);
    assert!(matches!(resp, Ok(Response::Pool(_))), "{resp:?}");
}

// ---------------------------------------------------------------------
// A request is one record: it is durable whole or not at all.
// ---------------------------------------------------------------------

/// Sends `req` to `daemon` as this process; panics on an error response.
fn call(daemon: &Daemon, req: Request) -> Response {
    match daemon.endpoint_for_current_process().call(&req).unwrap() {
        Response::Error { code, message } => panic!("{req:?}: {code:?}: {message}"),
        resp => resp,
    }
}

/// One of the daemon's `GetMetrics` counters.
fn counter(daemon: &Daemon, name: &str) -> u64 {
    match call(daemon, Request::GetMetrics) {
        Response::Metrics(report) => report.counter(name).expect(name),
        other => panic!("unexpected response {other:?}"),
    }
}

/// The daemon's pool count, puddle count and bytes of space granted.
fn tables(daemon: &Daemon) -> [u64; 3] {
    ["registry.pools", "registry.puddles", "space.used_bytes"].map(|name| counter(daemon, name))
}

/// `config` with a plan of its own, for [`call_torn`].
fn with_crash_plan(config: &DaemonConfig) -> DaemonConfig {
    config.clone().with_fault_plan(crash_plan())
}

fn create_pool(name: &str) -> Request {
    Request::CreatePool {
        name: name.into(),
        root_size: 2 * PAGE_SIZE as u64,
        mode: 0o600,
    }
}

fn create_puddle(pool: Option<&str>, purpose: PuddlePurpose) -> Request {
    Request::CreatePuddle {
        size: 2 * PAGE_SIZE as u64,
        pool: pool.map(String::from),
        purpose,
        mode: 0o600,
    }
}

fn open_pool(daemon: &Daemon, name: &str) -> PoolInfo {
    let open = Request::OpenPool { name: name.into() };
    match call(daemon, open) {
        Response::Pool(pool) => pool,
        other => panic!("unexpected response {other:?}"),
    }
}

/// Sends `req` with the WAL armed to tear its `nth` group commit: that
/// append is cut short on disk, the request fails, the daemon is dead.
/// Returns `false` — the request went through — if it makes no `nth` one.
/// `daemon` must have been started with a fault plan ([`with_crash_plan`]).
fn call_torn(daemon: &Daemon, req: Request, nth: usize) -> bool {
    let plan = daemon.pm_dir().fault_plan().expect("started with a plan");
    plan.arm_crash(CrashPoint::WalAppendTorn, nth);
    let resp = daemon.endpoint_for_current_process().call(&req).unwrap();
    let fired = !plan.trace().is_empty();
    match &resp {
        Response::Error { code, .. } => assert!(fired && *code == ErrorCode::Internal, "{resp:?}"),
        _ => assert!(!fired, "{resp:?}"),
    }
    fired
}

/// `CreatePool` used to be a pool record and a root-puddle record in two
/// group commits; tearing the second left a root puddle — 2 MiB by default
/// — that no pool named and no sweep reclaimed. Whichever of the request's
/// commits is torn — it has exactly one now — the request is gone whole,
/// and its file is the startup sweep's.
#[test]
fn a_torn_create_pool_leaves_nothing_behind() {
    for nth in 0.. {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        {
            let daemon = Daemon::start(with_crash_plan(&config)).unwrap();
            if !call_torn(&daemon, create_pool("torn"), nth) {
                assert_eq!(nth, 1, "CreatePool is one group commit");
                break;
            }
            assert_eq!(daemon.pm_dir().list_puddles().unwrap().len(), 1);
        }
        let daemon = Daemon::start(config).unwrap();
        assert_eq!(tables(&daemon), [0, 0, 0]);
        assert_eq!(counter(&daemon, "sweep.orphan_files"), 1);
        assert!(daemon.pm_dir().list_puddles().unwrap().is_empty());
        assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());
    }
}

/// `DropPool` used to be a group commit per member; a crash in the middle
/// left the survivors without a pool and without anyone holding their ids.
/// One record: the torn drop did not happen — the pool and all eight
/// members are back — and it can simply be retried.
#[test]
fn a_torn_drop_pool_did_not_happen() {
    let drop = Request::DropPool {
        name: "eight".into(),
    };
    for nth in 0.. {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let before;
        {
            let daemon = Daemon::start(with_crash_plan(&config)).unwrap();
            call(&daemon, create_pool("eight"));
            for _ in 1..8 {
                call(&daemon, create_puddle(Some("eight"), PuddlePurpose::Data));
            }
            before = (open_pool(&daemon, "eight"), tables(&daemon));
            assert_eq!(before.0.puddles.len(), 8);
            if !call_torn(&daemon, drop.clone(), nth) {
                assert_eq!(nth, 1, "DropPool is one group commit");
                break;
            }
        }
        let daemon = Daemon::start(config).unwrap();
        assert_eq!(tables(&daemon), before.1);
        assert_eq!(before.1[..2], [1, 8]);
        assert_eq!(counter(&daemon, "sweep.orphan_files"), 0);
        assert_eq!(open_pool(&daemon, "eight"), before.0);
        assert_eq!(daemon.pm_dir().list_puddles().unwrap().len(), 8);
        assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());

        assert_eq!(call(&daemon, drop.clone()), Response::Ok);
        assert_eq!(tables(&daemon), [0, 0, 0]);
        assert!(daemon.pm_dir().list_puddles().unwrap().is_empty());
    }
}

/// A pool's member list is stored nowhere: `apply_op` derives it from the
/// puddle records, live, replaying a tail and replaying a compaction alike.
/// Interleaved creates and frees, then the list a client gets from each of
/// the three — the same, root included, in creation order.
#[test]
fn a_pools_member_order_survives_replay_and_compaction() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let live;
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        daemon.wal().set_checkpoint_threshold(u64::MAX);
        call(&daemon, create_pool("ordered"));
        call(&daemon, create_pool("other"));
        let mut created = Vec::new();
        for round in 0..12 {
            let pool = if round % 4 == 3 { "other" } else { "ordered" };
            match call(&daemon, create_puddle(Some(pool), PuddlePurpose::Data)) {
                Response::Puddle(info) if pool == "ordered" => created.push(info.id),
                _ => {}
            }
            if round % 3 == 2 {
                // From the middle: what is left keeps its order.
                let id = created.remove(created.len() / 2);
                assert_eq!(call(&daemon, Request::FreePuddle { id }), Response::Ok);
            }
        }
        live = open_pool(&daemon, "ordered");
        assert_eq!(live.puddles[0], live.root_puddle);
        assert_eq!(live.puddles[1..], created[..]);
        assert!(
            counter(&daemon, "wal.tail_records") > 12,
            "the tail holds the history"
        );
    }
    {
        // Replays the tail, op by op.
        let daemon = Daemon::start(config.clone()).unwrap();
        assert_eq!(open_pool(&daemon, "ordered"), live);
        assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());
        daemon.checkpoint().unwrap();
        assert_eq!(counter(&daemon, "wal.tail_records"), 0);
    }
    // Replays the compaction: each pool, then its members.
    let daemon = Daemon::start(config).unwrap();
    assert_eq!(open_pool(&daemon, "ordered"), live);
    assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());
}

/// Writes an export directory by hand: `members` as `(id, exported at)`,
/// the first the root, each naming one zero-filled two-page file.
fn hand_built_export(dir: &Path, members: &[(u128, u64)]) {
    use puddled::importexport::{ExportManifest, ExportedPuddle, MANIFEST_FILE};
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("member.pud"), vec![0u8; 2 * PAGE_SIZE]).unwrap();
    let manifest = ExportManifest {
        pool: "exported".into(),
        root: PuddleId(members[0].0),
        puddles: members
            .iter()
            .map(|&(id, assigned_addr)| ExportedPuddle {
                id: PuddleId(id),
                size: 2 * PAGE_SIZE as u64,
                assigned_addr,
                file: "member.pud".into(),
                mode: 0o600,
            })
            .collect(),
        ptr_maps: Vec::new(),
    };
    let bytes = manifest.to_json();
    std::fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
}

fn relocation(daemon: &Daemon, id: PuddleId) -> (bool, Vec<Translation>) {
    match call(daemon, Request::GetRelocation { id }) {
        Response::Relocation {
            needs_rewrite,
            translations,
        } => (needs_rewrite, translations),
        other => panic!("unexpected response {other:?}"),
    }
}

/// An imported pool nobody has mapped yet holds the *exporter's* addresses.
/// A daemon restarted on another base must keep translating those — to the
/// new base — not the base it left; a puddle that was clean gets exactly
/// the whole-space shift.
#[test]
fn a_base_move_keeps_translating_a_pending_imports_exporter_addresses() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path().join("pm"));
    let exported_at = [0x7e00_0000_0000u64, 0x7e00_0100_0000];
    let export = tmp.path().join("export");
    hand_built_export(&export, &[(1, exported_at[0]), (2, exported_at[1])]);
    let (members, offsets, clean);
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        clean = match call(&daemon, create_pool("local")) {
            Response::Pool(pool) => pool.root_puddle,
            other => panic!("unexpected response {other:?}"),
        };
        let import = Request::ImportPool {
            src: export.to_string_lossy().into_owned(),
            new_name: "imported".into(),
        };
        members = match call(&daemon, import) {
            Response::Imported { pool, .. } => pool.puddles,
            other => panic!("unexpected response {other:?}"),
        };
        let base = config.space_base.unwrap() as u64;
        offsets = [clean, members[0], members[1]].map(|id| {
            let get = Request::GetPuddle {
                id,
                writable: false,
            };
            match call(&daemon, get) {
                Response::Puddle(info) => info.assigned_addr - base,
                other => panic!("unexpected response {other:?}"),
            }
        });
        let (pending, table) = relocation(&daemon, members[1]);
        assert!(pending);
        assert_eq!(table[0].translate(exported_at[0]), Some(base + offsets[1]));
    }
    // Nothing was mapped. The same directory, another base.
    let moved = DaemonConfig {
        pm_dir: config.pm_dir.clone(),
        ..DaemonConfig::for_testing("")
    };
    let (old_base, new_base) = (config.space_base.unwrap(), moved.space_base.unwrap());
    assert_ne!(old_base, new_base);
    let space_size = moved.space_size as u64;
    let daemon = Daemon::start(moved).unwrap();
    let expected: Vec<Translation> = (0..2)
        .map(|i| Translation {
            old_addr: exported_at[i],
            new_addr: new_base as u64 + offsets[i + 1],
            len: 2 * PAGE_SIZE as u64,
        })
        .collect();
    for &member in &members {
        assert_eq!(relocation(&daemon, member), (true, expected.clone()));
    }
    let whole_space = Translation {
        old_addr: old_base as u64,
        new_addr: new_base as u64,
        len: space_size,
    };
    assert_eq!(relocation(&daemon, clean), (true, vec![whole_space]));
    assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());
}

/// Copies a PM directory (`meta/` and `puddles/`, one level each).
fn copy_pm_dir(from: &Path, to: &Path) {
    for sub in ["meta", "puddles"] {
        std::fs::create_dir_all(to.join(sub)).unwrap();
        for entry in std::fs::read_dir(from.join(sub)).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(sub).join(entry.file_name())).unwrap();
        }
    }
}

/// The tables of a restarted daemon, its invariants and its puddle
/// directory checked on the way: `puddles/` holds exactly the table's files.
fn restart_and_check(config: &DaemonConfig, what: &str) -> RegistryData {
    let daemon = Daemon::start(config.clone()).unwrap_or_else(|e| panic!("{what}: {e}"));
    let violations = puddled::Invariants::check_all(daemon.registry());
    assert!(violations.is_empty(), "{what}: {violations:?}");
    let data = daemon.registry().snapshot();
    let mut files: Vec<String> = data.puddles.values().map(PuddleRecord::file).collect();
    files.sort();
    assert_eq!(daemon.pm_dir().list_puddles().unwrap(), files, "{what}");
    data
}

/// One seeded request history against a live daemon, an image of its PM
/// directory kept at every request boundary; then the WAL cut at *every*
/// byte of its tail, on the files a crash at that point leaves.
fn check_every_cut_of_a_history(seed: u64) {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path().join("live"));
    let image = |i: usize| tmp.path().join(format!("image-{i}"));
    let wal_len = |dir: &Path| {
        std::fs::metadata(dir.join("meta/registry.wal"))
            .unwrap()
            .len()
    };
    let mut rng = StdRng::seed_from_u64(seed);

    // The history. `states[i]` is the live registry after `i` records and
    // `image(i)` the directory then; a request that appends nothing (a
    // refusal, an export) moves neither.
    let mut states: Vec<RegistryData> = Vec::new();
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        // The tail only grows: no compaction moves a byte under the cuts.
        daemon.wal().set_checkpoint_threshold(u64::MAX);
        let record = |states: &mut Vec<RegistryData>| {
            let grown =
                states.is_empty() || wal_len(&config.pm_dir) > wal_len(&image(states.len() - 1));
            if grown {
                copy_pm_dir(&config.pm_dir, &image(states.len()));
                states.push(daemon.registry().snapshot());
            }
        };
        record(&mut states);
        // A pool first, so that every action after it finds one; the rest
        // in seeded order.
        let mut actions = vec![0, 0, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8];
        actions[1..].shuffle(&mut rng);
        let (mut pools, mut imports) = (0, 0);
        for action in actions {
            let live = daemon.registry().snapshot();
            let names: Vec<&String> = live.pools.keys().collect();
            let pool = names.choose(&mut rng).map(|name| name.as_str());
            let members = pool.map(|name| &live.pools[name].puddles);
            let requests = match (action, pool) {
                (1, Some(pool)) => vec![create_puddle(Some(pool), PuddlePurpose::Data)],
                // The youngest member; a root (alone in its pool) is
                // refused and appends nothing.
                (2, Some(_)) => vec![Request::FreePuddle {
                    id: *members.unwrap().last().unwrap(),
                }],
                (3, Some(pool)) => vec![Request::DropPool { name: pool.into() }],
                (4, Some(pool)) => {
                    imports += 1;
                    let dir = tmp.path().join(format!("export-{imports}"));
                    let dir = dir.to_string_lossy().into_owned();
                    vec![
                        Request::ExportPool {
                            name: pool.into(),
                            dest: dir.clone(),
                        },
                        Request::ImportPool {
                            src: dir,
                            new_name: format!("imported-{imports}"),
                        },
                    ]
                }
                (5, _) => vec![create_puddle(None, PuddlePurpose::LogSpace)],
                (6, _) => vec![Request::RegisterPtrMap {
                    decl: PtrMapDecl {
                        type_id: rng.gen_range(0..3u64),
                        type_name: "cut::Node".into(),
                        size: 16,
                        fields: Vec::new(),
                    },
                }],
                (7, Some(_)) => vec![Request::MarkRewritten {
                    id: *members.unwrap().choose(&mut rng).unwrap(),
                }],
                (8, _) => {
                    let unregistered = live.puddles.values().find(|p| {
                        p.purpose == PuddlePurpose::LogSpace
                            && !live.log_spaces.iter().any(|ls| ls.puddle == p.id)
                    });
                    match unregistered {
                        Some(space) => vec![Request::RegLogSpace { puddle: space.id }],
                        None => vec![create_puddle(None, PuddlePurpose::LogSpace)],
                    }
                }
                _ => {
                    pools += 1;
                    vec![create_pool(&format!("pool-{pools}"))]
                }
            };
            for req in requests {
                // Refusals are part of the history; they append nothing.
                let _ = daemon.endpoint_for_current_process().call(&req).unwrap();
                record(&mut states);
            }
        }
    }
    let last = states.len() - 1;
    assert!(last >= 10, "seed {seed}: only {last} records");

    // What a clean restart at each boundary comes up with: the live state,
    // less what the startup sweeps reclaim (a log-space puddle whose
    // registration had not happened yet).
    let crash = DaemonConfig {
        pm_dir: tmp.path().join("crash"),
        ..config.clone()
    };
    let restart_on = |prepare: &dyn Fn(&Path), what: &str| {
        let _ = std::fs::remove_dir_all(&crash.pm_dir);
        prepare(&crash.pm_dir);
        restart_and_check(&crash, what)
    };
    let references: Vec<RegistryData> = (0..=last)
        .map(|i| {
            let what = format!("seed {seed}, boundary {i}");
            let reference = restart_on(&|dir| copy_pm_dir(&image(i), dir), &what);
            let mut expected = states[i].clone();
            expected.puddles.retain(|id, p| {
                p.purpose != PuddlePurpose::LogSpace
                    || expected.log_spaces.iter().any(|ls| ls.puddle == *id)
            });
            assert_eq!(reference.puddles, expected.puddles, "{what}");
            assert_eq!(reference.pools, expected.pools, "{what}");
            assert_eq!(reference.ptr_maps, expected.ptr_maps, "{what}");
            assert_eq!(reference.log_spaces, expected.log_spaces, "{what}");
            reference
        })
        .collect();

    // Every cut inside record `i + 1`: the file cut there, on the files of
    // both boundaries — a create's file exists before its record, a drop's
    // files until after it — must restart as boundary `i`, exactly.
    let wal = std::fs::read(image(last).join("meta/registry.wal")).unwrap();
    let mut cuts = 0;
    for (i, reference) in references.iter().enumerate().take(last) {
        for cut in wal_len(&image(i))..wal_len(&image(i + 1)) {
            let what = format!("seed {seed}, cut at byte {cut} inside record {}", i + 1);
            let prepare = |dir: &Path| {
                copy_pm_dir(&image(i), dir);
                copy_pm_dir(&image(i + 1), dir);
                std::fs::write(dir.join("meta/registry.wal"), &wal[..cut as usize]).unwrap();
            };
            assert_eq!(&restart_on(&prepare, &what), reference, "{what}");
            cuts += 1;
        }
    }
    assert_eq!(cuts, wal.len() as u64 - wal_len(&image(0)));
    eprintln!("seed {seed}: {last} records, {cuts} cuts");
}

/// Request atomicity, black-box: whatever byte the WAL is cut at, the
/// daemon restarts on the state after some prefix of the *requests* — never
/// between two ops of one — with its invariants intact and `puddles/`
/// holding exactly the table's files. Nothing heals at load: each cut must
/// already be a whole state.
#[test]
fn a_wal_cut_at_any_byte_restarts_on_a_request_boundary() {
    // Thousands of restarts each: side by side, on a space of their own.
    std::thread::scope(|scope| {
        for seed in [11, 12] {
            scope.spawn(move || check_every_cut_of_a_history(seed));
        }
    });
}
