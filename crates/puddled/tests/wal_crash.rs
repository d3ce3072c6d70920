//! Failpoint-driven crash-injection tests for the metadata WAL.
//!
//! Follows the black-box consistency-checking discipline of the paper's
//! correctness evaluation (§5.1) — and of Biswas et al.'s snapshot-isolation
//! checking: inject a crash at a chosen persistence boundary, restart the
//! daemon from the on-disk state alone, and assert the recovered registry
//! satisfies its invariants (and, where the scenario pins it down, equals
//! the exact pre-crash state).

use puddled::registry::{PoolRecord, PuddleRecord, Registry, RegistryData};
use puddled::{Daemon, DaemonConfig, RegistryOp, Wal};
use puddles_pmem::failpoint::{self, names};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::{PmError, PAGE_SIZE};
use puddles_proto::{PuddleId, PuddlePurpose};
use std::sync::{Arc, Mutex};

/// Failpoints are process-global; tests that arm them must not interleave.
static FP_LOCK: Mutex<()> = Mutex::new(());

fn lock_failpoints() -> std::sync::MutexGuard<'static, ()> {
    let guard = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear_all();
    guard
}

fn open_registry(pm: &PmDir) -> Registry {
    Registry::load_or_create(pm, 0x5000_0000_0000, 1 << 30).unwrap()
}

fn record(reg: &Registry, pool: Option<&str>) -> PuddleRecord {
    let id = reg.fresh_id();
    let offset = reg.alloc_space(PAGE_SIZE as u64).unwrap();
    PuddleRecord {
        id,
        size: PAGE_SIZE as u64,
        offset,
        file: id.to_hex(),
        purpose: PuddlePurpose::Data,
        owner_uid: 1,
        owner_gid: 2,
        mode: 0o600,
        pool: pool.map(String::from),
        needs_rewrite: false,
        translations: vec![],
    }
}

/// Creates a pool named `name` with a root and `members - 1` extra member
/// puddles, mirroring how the daemon builds pools.
fn build_pool(reg: &Registry, name: &str, members: usize) -> Vec<PuddleId> {
    let root = record(reg, Some(name));
    let root_id = root.id;
    assert!(reg.try_insert_pool(PoolRecord {
        name: name.into(),
        root: root_id,
        puddles: Vec::new(),
    }));
    reg.register_puddle(root).unwrap();
    let mut ids = vec![root_id];
    for _ in 1..members {
        let rec = record(reg, Some(name));
        ids.push(rec.id);
        reg.register_puddle(rec).unwrap();
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
    let _guard = lock_failpoints();
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
        let loose_id = loose.id;
        reg.register_puddle(loose).unwrap();
        let beta = build_pool(&reg, "beta", 3);
        build_pool(&reg, "gamma", 3);
        reg.update_puddle(beta[1], |p| p.mode = 0o640).unwrap();
        let dropped = reg.unregister_puddle(loose_id).unwrap();
        reg.free_space(dropped.offset, dropped.size);
        reg.register_ptr_map(puddles_proto::PtrMapDecl {
            type_id: 42,
            type_name: "Node".into(),
            size: 16,
            fields: vec![],
        });
        reg.register_log_space(puddled::registry::LogSpaceRecord {
            puddle: beta[0],
            owner_uid: 1,
            owner_gid: 2,
            invalid: false,
        });
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
        assert_eq!(records.len() as u64, 1 + reg.wal().stats().records);
        assert!(reg.wal().stats().records >= 10);
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
    let _guard = lock_failpoints();
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let before;
    {
        let reg = open_registry(&pm);
        build_pool(&reg, "stable", 4);
        reg.commit().unwrap();
        before = reg.snapshot();

        // The next mutation's WAL record is torn mid-append.
        failpoint::arm(names::WAL_APPEND_TORN, 0);
        let rec = record(&reg, None);
        reg.register_puddle(rec).unwrap();
        let err = reg.commit().unwrap_err();
        assert!(
            matches!(err, PmError::CrashInjected(_)),
            "expected injected crash, got {err}"
        );
        failpoint::clear_all();
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
    let _guard = lock_failpoints();
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let before;
    {
        let reg = open_registry(&pm);
        build_pool(&reg, "p0", 3);
        let p1 = build_pool(&reg, "p1", 3);
        build_pool(&reg, "p2", 2);
        // Include a drop so naive double-replay of the un-truncated WAL
        // would resurrect state the checkpoint no longer has.
        let victim = reg.unregister_puddle(p1[2]).unwrap();
        reg.free_space(victim.offset, victim.size);
        reg.commit().unwrap();
        before = reg.snapshot();

        failpoint::arm(names::META_WRITE_BEFORE_RENAME, 0);
        let err = reg.checkpoint().unwrap_err();
        assert!(matches!(err, PmError::CrashInjected(_)));
        failpoint::clear_all();
        // The compacted file was written beside the WAL; the WAL itself
        // was not replaced.
        assert!(pm.meta_path("registry.wal.tmp").exists());
        assert!(reg.wal().stats().records > 0);
    }
    // Replay reads the untouched WAL — the temp file is never looked at —
    // and lands on exactly the pre-crash state; the load-time checkpoint
    // then overwrites the stale temp file and renames it away.
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
    use puddles_pmem::faultio::{FaultPlan, FaultProfile};
    let _guard = lock_failpoints();
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
            let pending = record(&reg, None);
            reg.register_puddle(pending).unwrap();
            let wal_file = std::fs::read(pm.meta_path("registry.wal")).unwrap();

            plan.set_enabled(true);
            let err = reg.checkpoint().unwrap_err();
            plan.set_enabled(false);
            if profile.write_enospc_ppm > 0 {
                assert!(matches!(err, PmError::NoSpace(_)), "got {err:?}");
                assert_eq!(pm.io_stats().enospc_rejections(), 1);
            } else {
                assert!(matches!(err, PmError::Io(_)), "got {err:?}");
                assert!(pm.io_stats().io_retries() > 0, "a short write is retried");
            }
            assert_eq!(
                std::fs::read(pm.meta_path("registry.wal")).unwrap(),
                wal_file,
                "a failed checkpoint must leave the file as it was"
            );
            assert!(!pm.meta_path("registry.wal.tmp").exists());
            let failed = reg.wal().obs().counter("checkpoint.failed");
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
    let _guard = lock_failpoints();
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let live;
    {
        let reg = open_registry(&pm);
        // A bare registry checkpoints inline on the commit that trips the
        // threshold: every commit, here.
        reg.wal().set_checkpoint_threshold(1);
        let checkpoints = reg.wal().stats().checkpoints;
        failpoint::arm(names::META_WRITE_BEFORE_RENAME, 0);
        build_pool(&reg, "durable", 2);
        reg.commit()
            .expect("the flush succeeded; the checkpoint's failure is not the request's");
        assert_eq!(failpoint::fired(), vec![names::META_WRITE_BEFORE_RENAME]);
        let failed = reg.wal().obs().counter("checkpoint.failed");
        assert_eq!(failed.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(
            reg.wal()
                .obs()
                .trace_dump()
                .iter()
                .any(|line| line.contains("ckpt.end failed")),
            "the failure must be in the trace"
        );
        let stats = reg.wal().stats();
        assert_eq!(stats.checkpoints, checkpoints);
        assert!(stats.records > 0);

        build_pool(&reg, "next", 2);
        reg.commit().unwrap();
        let stats = reg.wal().stats();
        assert_eq!((stats.checkpoints, stats.records), (checkpoints + 1, 0));
        assert_eq!(failed.load(std::sync::atomic::Ordering::Relaxed), 1);
        live = reg.snapshot();
    }
    let reg = open_registry(&pm);
    assert_eq!(reg.snapshot(), live);
    assert_eq!(live.pools.len(), 2);
}

#[test]
fn crash_mid_group_commit_keeps_every_acknowledged_mutation() {
    let _guard = lock_failpoints();
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let acked = Arc::new(Mutex::new(Vec::new()));
    {
        let reg = Arc::new(open_registry(&pm));
        // Let a couple of batches commit cleanly, then tear one mid-write.
        failpoint::arm(names::WAL_MID_GROUP_COMMIT, 3);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let rec = record(&reg, None);
                        let id = rec.id;
                        reg.register_puddle(rec).unwrap();
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
        let fired = failpoint::fired();
        failpoint::clear_all();
        assert_eq!(
            fired,
            vec![names::WAL_MID_GROUP_COMMIT.to_string()],
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

#[test]
fn checkpoint_triggers_by_wal_byte_threshold_and_truncates() {
    let _guard = lock_failpoints();
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let reg = open_registry(&pm);
    reg.wal().set_checkpoint_threshold(4 * 1024);
    let baseline = reg.wal().stats().checkpoints;
    for _ in 0..64 {
        let rec = record(&reg, None);
        reg.register_puddle(rec).unwrap();
        reg.commit().unwrap();
    }
    let stats = reg.wal().stats();
    assert!(
        stats.checkpoints > baseline,
        "threshold checkpoint never ran"
    );
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

#[test]
fn startup_sweep_deletes_orphan_puddle_files() {
    let _guard = lock_failpoints();
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
    let ep = daemon.endpoint_for_current_process();
    use puddles_proto::{Endpoint, Request, Response};
    match ep.call(&Request::Stats).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.orphan_files_swept, 2),
        other => panic!("unexpected response {other:?}"),
    }
}

/// Damage inside the snapshot span is not a torn tail. A daemon that healed
/// it would load an empty registry and sweep every puddle file as an
/// orphan; it must refuse to start instead, with the WAL byte-identical and
/// every puddle file still there.
#[test]
fn damage_inside_the_snapshot_refuses_startup_and_sweeps_nothing() {
    use puddles_proto::{Endpoint, Request, Response};
    let _guard = lock_failpoints();
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
