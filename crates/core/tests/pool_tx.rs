//! End-to-end tests of the client library: pools, allocation, transactions,
//! aborts, crash injection + system recovery, and relocation on import.
//!
//! Crash points are armed on the test's own thread (`failpoint::arm_scoped`)
//! and live there only, so the crash tests run in parallel with the rest,
//! with no lock between them.

use puddled::{Daemon, DaemonConfig};
use puddles::{impl_pm_type, Error, PmPtr, PmType, PoolOptions, PuddleClient};
use puddles_logfmt::{
    collect_live, LogRef, LogSpaceRef, LOG_REGION_OFFSET, RANGE_DONE, RANGE_EXEC,
};
use puddles_pmem::persist;
use puddles_proto::{PuddleId, PuddlePurpose};

#[repr(C)]
struct Counter {
    value: u64,
    touched: u64,
}
impl_pm_type!(Counter, "pool_tx::Counter", []);

#[repr(C)]
struct Node {
    value: u64,
    next: PmPtr<Node>,
}
impl_pm_type!(Node, "pool_tx::Node", [next => Node]);

#[repr(C)]
struct ListRoot {
    head: PmPtr<Node>,
    len: u64,
}
impl_pm_type!(ListRoot, "pool_tx::ListRoot", [head => Node]);

fn setup() -> (tempfile::TempDir, DaemonConfig, Daemon, PuddleClient) {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    (tmp, config, daemon, client)
}

fn push_front(pool: &puddles::Pool, value: u64) {
    let root: PmPtr<ListRoot> = pool.root().unwrap();
    pool.tx(|tx| {
        let head = pool.deref(root)?.head;
        let node = pool.alloc_value(tx, Node { value, next: head })?;
        let root_ref = pool.deref_mut(root)?;
        let new_len = root_ref.len + 1;
        tx.set(&mut root_ref.head, node)?;
        tx.set(&mut root_ref.len, new_len)?;
        Ok(())
    })
    .unwrap();
}

fn list_values(pool: &puddles::Pool) -> Vec<u64> {
    let root: PmPtr<ListRoot> = pool.root().unwrap();
    let mut out = Vec::new();
    let mut cur = pool.deref(root).unwrap().head;
    while !cur.is_null() {
        let node = pool.deref(cur).unwrap();
        out.push(node.value);
        cur = node.next;
    }
    out
}

/// One of the daemon's `GetMetrics` counters, as `client` reads it.
fn counter(client: &PuddleClient, name: &str) -> u64 {
    let report = client.metrics().unwrap();
    report
        .counter(name)
        .unwrap_or_else(|| panic!("no `{name}`"))
}

#[test]
fn transactional_updates_survive_reopen() {
    let (_tmp, config, daemon, client) = setup();
    {
        let pool = client
            .create_pool("counters", PoolOptions::default())
            .unwrap();
        pool.tx(|tx| {
            pool.create_root(
                tx,
                Counter {
                    value: 0,
                    touched: 0,
                },
            )
        })
        .unwrap();
        let root: PmPtr<Counter> = pool.root().unwrap();
        for i in 1..=10u64 {
            pool.tx(|tx| {
                let c = pool.deref_mut(root)?;
                let touched = c.touched + 1;
                tx.set(&mut c.value, i)?;
                tx.set(&mut c.touched, touched)?;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(pool.deref(root).unwrap().value, 10);
        assert_eq!(pool.deref(root).unwrap().touched, 10);
    }
    drop(client);
    drop(daemon);

    // A different "application" (new daemon instance + new client) reads the
    // data back.
    let daemon = Daemon::start(config).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let pool = client.open_pool("counters").unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 10);
    assert_eq!(pool.deref(root).unwrap().touched, 10);
}

#[test]
fn aborted_transactions_roll_back_data_and_allocations() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("abort", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    push_front(&pool, 1);
    push_front(&pool, 2);
    let objects_before = pool.live_objects().len();
    let root: PmPtr<ListRoot> = pool.root().unwrap();

    // A transaction that allocates, links, and then fails must leave no
    // trace: the list is unchanged and the allocation is rolled back.
    let err = pool
        .tx(|tx| {
            let head = pool.deref(root)?.head;
            let node = pool.alloc_value(
                tx,
                Node {
                    value: 99,
                    next: head,
                },
            )?;
            let root_ref = pool.deref_mut(root)?;
            let new_len = root_ref.len + 1;
            tx.set(&mut root_ref.head, node)?;
            tx.set(&mut root_ref.len, new_len)?;
            Err::<(), _>(Error::Aborted("simulated failure".into()))
        })
        .unwrap_err();
    assert!(matches!(err, Error::Aborted(_)));

    assert_eq!(list_values(&pool), vec![2, 1]);
    assert_eq!(pool.deref(root).unwrap().len, 2);
    assert_eq!(pool.live_objects().len(), objects_before);
}

#[test]
fn nested_transactions_are_rejected() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client
        .create_pool("nested", PoolOptions::default())
        .unwrap();
    let err = pool
        .tx(|_outer| {
            let inner = pool.tx(|_tx| Ok(()));
            match inner {
                Err(Error::NestedTransaction) => Err::<(), _>(Error::Aborted("saw nested".into())),
                other => panic!("expected NestedTransaction, got {other:?}"),
            }
        })
        .unwrap_err();
    assert!(matches!(err, Error::Aborted(_)));
}

#[test]
fn redo_logged_updates_apply_only_at_commit() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("redo", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 5,
                touched: 0,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    pool.tx(|tx| {
        let c = pool.deref(root)?;
        tx.redo_set(&c.value, 77u64)?;
        // The in-place value is unchanged inside the transaction body.
        assert_eq!(pool.deref(root)?.value, 5);
        Ok(())
    })
    .unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 77);
}

#[test]
fn pool_grows_beyond_one_puddle() {
    let (_tmp, _config, _daemon, client) = setup();
    // Small puddles force growth.
    let options = PoolOptions::default().puddle_size(256 * 1024);
    let pool = client.create_pool("grow", options).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    // Allocate ~2 MiB of 4 KiB objects in several transactions.
    let root: PmPtr<ListRoot> = pool.root().unwrap();
    for chunk in 0..8 {
        pool.tx(|tx| {
            for i in 0..64u64 {
                let addr = pool.alloc_raw(tx, 4096, 0)?;
                // SAFETY: fresh 4 KiB allocation in a writable mapping.
                unsafe { std::ptr::write_bytes(addr as *mut u8, (chunk * 64 + i) as u8, 4096) };
            }
            let root_ref = pool.deref_mut(root)?;
            let new_len = root_ref.len + 64;
            tx.set(&mut root_ref.len, new_len)?;
            Ok(())
        })
        .unwrap();
    }
    assert!(pool.puddle_count() > 1, "pool should have grown");
    assert_eq!(pool.deref(root).unwrap().len, 512);
}

#[test]
fn crash_during_commit_is_recovered_by_the_system() {
    use puddles_pmem::failpoint;

    let failpoints = [
        failpoint::names::COMMIT_AFTER_UNDO_FLUSH,
        failpoint::names::COMMIT_BEFORE_REDO_APPLY,
        failpoint::names::COMMIT_MID_REDO_APPLY,
        failpoint::names::COMMIT_BEFORE_INVALIDATE,
    ];
    for (i, fp) in failpoints.iter().enumerate() {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let pool_name = format!("crash-{i}");
        {
            let daemon = Daemon::start(config.clone()).unwrap();
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool(&pool_name, PoolOptions::default())
                .unwrap();
            pool.tx(|tx| {
                pool.create_root(
                    tx,
                    Counter {
                        value: 100,
                        touched: 1,
                    },
                )
            })
            .unwrap();
            let root: PmPtr<Counter> = pool.root().unwrap();

            // A hybrid transaction: undo-logged update of `value`,
            // redo-logged update of `touched`; crash at the chosen stage.
            failpoint::arm_scoped(fp, 0);
            let err = pool
                .tx(|tx| {
                    let c = pool.deref_mut(root)?;
                    tx.set(&mut c.value, 200)?;
                    tx.redo_set(&c.touched, 2u64)?;
                    Ok(())
                })
                .unwrap_err();
            failpoint::clear_current_thread();
            assert!(
                err.is_injected_crash(),
                "{fp}: expected injected crash, got {err}"
            );
            // The "crashed" client is dropped without any cleanup.
        }

        // Restart: the daemon recovers before any application maps the data.
        let daemon = Daemon::start(config).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.open_pool(&pool_name).unwrap();
        let root: PmPtr<Counter> = pool.root().unwrap();
        let counter = pool.deref(root).unwrap();
        // Atomicity: either the whole transaction happened or none of it.
        let consistent = (counter.value == 100 && counter.touched == 1)
            || (counter.value == 200 && counter.touched == 2);
        assert!(
            consistent,
            "{fp}: inconsistent state value={} touched={}",
            counter.value, counter.touched
        );
        // Stage-specific expectation: before the redo stage is published the
        // transaction must roll back; at or after it, it must roll forward.
        match *fp {
            x if x == failpoint::names::COMMIT_AFTER_UNDO_FLUSH => {
                assert_eq!(counter.value, 100, "{fp}: expected rollback");
            }
            x if x == failpoint::names::COMMIT_BEFORE_INVALIDATE => {
                assert_eq!(counter.value, 200, "{fp}: expected roll-forward");
                assert_eq!(counter.touched, 2);
            }
            _ => {}
        }
    }
}

#[test]
fn crash_while_a_fresh_root_is_first_mapped_leaves_the_pool_usable() {
    use puddles_pmem::failpoint;

    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        // The daemon made the pool and its root durable; the crash lands
        // halfway through the client's first-map initialization of the root.
        failpoint::arm_scoped(failpoint::names::PUDDLE_INIT_CRASH, 0);
        let err = client
            .create_pool("firstmap", PoolOptions::default())
            .unwrap_err();
        failpoint::clear_current_thread();
        assert!(
            err.is_injected_crash(),
            "expected injected crash, got {err}"
        );
    }

    let daemon = Daemon::start(config).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let pool = client.open_pool("firstmap").unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 7,
                touched: 1,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 7);
}

#[test]
fn crash_after_unfenced_appends_rolls_back_exactly_the_logged_prefix() {
    use puddles_pmem::failpoint;

    // The volatile-cursor log keeps no durable head pointer: after a crash
    // mid-body, recovery must replay exactly the checksummed prefix of
    // unfenced appends. The body issues three appends (undo `value`, undo
    // `touched`, redo `value`); crash after N = 0, 1, 2 of them. Every
    // durable undo entry must roll its field back, fields never logged were
    // never modified, and the redo entry is never applied (the commit point
    // was not reached).
    for n in 0..3usize {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        {
            let daemon = Daemon::start(config.clone()).unwrap();
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool("prefix", PoolOptions::default())
                .unwrap();
            pool.tx(|tx| {
                pool.create_root(
                    tx,
                    Counter {
                        value: 10,
                        touched: 20,
                    },
                )
            })
            .unwrap();
            let root: PmPtr<Counter> = pool.root().unwrap();

            failpoint::arm_scoped(failpoint::names::LOG_APPEND_CRASH, n);
            let err = pool
                .tx(|tx| {
                    let c = pool.deref_mut(root)?;
                    tx.set(&mut c.value, 111)?; // append 1 (undo)
                    tx.set(&mut c.touched, 222)?; // append 2 (undo)
                    tx.redo_set(&c.value, 333u64)?; // append 3 (redo)
                    Ok(())
                })
                .unwrap_err();
            failpoint::clear_current_thread();
            assert!(err.is_injected_crash(), "n={n}: got {err}");
        }

        // Restart: system recovery replays the durable undo prefix.
        let daemon = Daemon::start(config).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.open_pool("prefix").unwrap();
        let root: PmPtr<Counter> = pool.root().unwrap();
        let c = pool.deref(root).unwrap();
        assert_eq!(c.value, 10, "n={n}: value must be rolled back / untouched");
        assert_eq!(
            c.touched, 20,
            "n={n}: touched must be rolled back / untouched"
        );
    }
}

#[test]
fn torn_append_is_cut_off_by_the_recovery_scan() {
    use puddles_pmem::failpoint;

    // The third append is torn (header durable, last payload byte not): the
    // recovery scan must stop in front of it and roll back exactly the two
    // intact undo entries. Were the torn entry accepted, its damaged last
    // byte would be copied over the region.
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let region;
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.create_pool("torn", PoolOptions::default()).unwrap();
        pool.tx(|tx| {
            pool.create_root(
                tx,
                Counter {
                    value: 10,
                    touched: 20,
                },
            )
        })
        .unwrap();
        region = pool.tx(|tx| pool.alloc_raw(tx, 64, 0)).unwrap();
        // SAFETY: a fresh 64-byte allocation in a writable mapping.
        unsafe { std::ptr::write_bytes(region as *mut u8, 0x5A, 64) };
        let root: PmPtr<Counter> = pool.root().unwrap();

        failpoint::arm_scoped(failpoint::names::LOG_APPEND_TORN, 2);
        let err = pool
            .tx(|tx| {
                let c = pool.deref_mut(root)?;
                tx.set(&mut c.value, 111)?;
                tx.set(&mut c.touched, 222)?;
                tx.add_range(region, 64) // torn: this append is the crash
            })
            .unwrap_err();
        failpoint::clear_current_thread();
        assert!(err.is_injected_crash(), "got {err}");
    }

    let daemon = Daemon::start(config.no_auto_recover()).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let report = client.recover().unwrap();
    assert_eq!(report.entries_applied, 2, "{report:?}");
    let pool = client.open_pool("torn").unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    let c = pool.deref(root).unwrap();
    assert_eq!((c.value, c.touched), (10, 20));
    pool.ensure_mapped(region as u64).unwrap();
    // SAFETY: the 64-byte allocation, mapped just above.
    let bytes = unsafe { std::slice::from_raw_parts(region as *const u8, 64) };
    assert!(bytes.iter().all(|&b| b == 0x5A), "torn entry was replayed");
}

#[test]
fn undo_only_transaction_gives_the_redo_stage_nothing_to_read() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("undo", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 1,
                touched: 0,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    // Commit walks the log only when this count is non-zero.
    pool.tx(|tx| {
        let c = pool.deref_mut(root)?;
        tx.set(&mut c.value, 2)?;
        tx.set(&mut c.touched, 3)?;
        assert_eq!(tx.entries(), 2);
        assert_eq!(tx.redo_entries(), 0);
        Ok(())
    })
    .unwrap();
    let c = pool.deref(root).unwrap();
    assert_eq!((c.value, c.touched), (2, 3));
    // The count follows redo logging, and starts over with each transaction.
    for _ in 0..2 {
        pool.tx(|tx| {
            let c = pool.deref_mut(root)?;
            assert_eq!(tx.redo_entries(), 0);
            tx.set(&mut c.value, 4)?;
            tx.redo_set(&c.touched, 5u64)?;
            tx.redo_set(&c.touched, 6u64)?;
            assert_eq!((tx.entries(), tx.redo_entries()), (3, 2));
            Ok(())
        })
        .unwrap();
    }
    let c = pool.deref(root).unwrap();
    assert_eq!((c.value, c.touched), (4, 6));
}

#[test]
fn relogging_a_covered_range_appends_nothing() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("dedup", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 1,
                touched: 0,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    // The btree's dominant pattern: the same location is undo-logged on
    // every mutation of its node. Only the first touch may append.
    pool.tx(|tx| {
        let c = pool.deref_mut(root)?;
        tx.set(&mut c.value, 2)?;
        let after_first = tx.entries();
        for i in 3..20u64 {
            tx.set(&mut c.value, i)?;
        }
        assert_eq!(
            tx.entries(),
            after_first,
            "re-logging a covered range must not append"
        );
        // A range that spills beyond the covered one still logs.
        tx.set(&mut c.touched, 9)?;
        assert_eq!(tx.entries(), after_first + 1);
        Ok(())
    })
    .unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 19);
    assert_eq!(pool.deref(root).unwrap().touched, 9);

    // Dedup must not break rollback to the *first-touch* value: the undo
    // entry captured value == 19, not any intermediate.
    let _ = pool.tx(|tx| {
        let c = pool.deref_mut(root)?;
        for i in 0..10u64 {
            tx.set(&mut c.value, 100 + i)?;
        }
        Err::<(), _>(Error::Aborted("rollback".into()))
    });
    assert_eq!(pool.deref(root).unwrap().value, 19);
}

#[test]
fn oversized_transaction_chains_and_tx_too_large_needs_daemon_refusal() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("huge", PoolOptions::default()).unwrap();
    // Redo-log more bytes than one 4 MiB log puddle can hold: since PR 4
    // the transaction chains additional log puddles and *commits* instead
    // of failing with TxTooLarge.
    let blob: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
    let addr = pool.tx(|tx| pool.alloc_raw(tx, blob.len(), 0)).unwrap();
    pool.tx(|tx| {
        // 64 x 256 KiB = 16 MiB of redo payload against 4 MiB segments.
        for _ in 0..64 {
            tx.redo_set_bytes(addr, &blob)?;
        }
        assert!(tx.chain_segments() > 1, "16 MiB must have chained");
        Ok(())
    })
    .unwrap();
    // The committed redo landed.
    // SAFETY: `addr` is a live allocation of `blob.len()` bytes.
    let stored = unsafe { std::slice::from_raw_parts(addr as *const u8, blob.len()) };
    assert_eq!(stored, &blob[..]);
}

#[test]
fn tx_too_large_is_raised_only_when_the_daemon_refuses_a_log_puddle() {
    // A daemon with a deliberately tiny global space: the pool, log space,
    // thread log and a couple of chained segments fit, then CreatePuddle
    // fails with OutOfSpace — only then may TxTooLarge surface.
    let tmp = tempfile::tempdir().unwrap();
    let config = puddled::DaemonConfig {
        space_base: None,
        space_size: 16 << 20,
        ..puddled::DaemonConfig::new(tmp.path())
    };
    let daemon = Daemon::start(config).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    // 1 MiB log segments so the accounting is easy: 16 MiB space minus a
    // 2 MiB pool leaves room for the log space, the thread log, and a
    // handful of chained segments.
    client.set_log_puddle_size(1 << 20);
    let options = PoolOptions::default().puddle_size(2 << 20);
    let pool = client.create_pool("tiny", options).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 7,
                touched: 0,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    let blob = vec![0xEEu8; 512 * 1024];
    let addr = pool.tx(|tx| pool.alloc_raw(tx, blob.len(), 0)).unwrap();

    let err = pool
        .tx(|tx| {
            let c = pool.deref_mut(root)?;
            tx.set(&mut c.value, 8)?;
            // Unbounded redo logging: chaining grows until the global space
            // is exhausted and the daemon refuses the next log puddle.
            for _ in 0..1024 {
                tx.redo_set_bytes(addr, &blob)?;
            }
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, Error::TxTooLarge { .. }),
        "expected TxTooLarge after daemon refusal, got {err}"
    );
    // The abort rolled the whole chain back and released its segments, so
    // ordinary transactions keep working afterwards.
    assert_eq!(pool.deref(root).unwrap().value, 7);
    pool.tx(|tx| {
        let c = pool.deref_mut(root)?;
        tx.set(&mut c.value, 9)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 9);
}

#[test]
fn transaction_one_entry_past_a_full_segment_commits_via_chaining() {
    // The capacity-accounting regression: fill the log to exactly
    // free_bytes == 0, then one more entry must chain (not fail), and the
    // chained segment must be released back to the daemon after commit.
    let (_tmp, _config, _daemon, client) = setup();
    client.set_log_puddle_size(64 * 1024);
    let pool = client.create_pool("exact", PoolOptions::default()).unwrap();
    let region = 128 * 1024;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();
    // SAFETY: fresh allocation in a writable mapping.
    unsafe { std::ptr::write_bytes(addr as *mut u8, 0x11, region) };
    let puddles_before = counter(&client, "registry.puddles");

    pool.tx(|tx| {
        let free = tx.log_free_bytes();
        assert!(free > 0 && free < region);
        // One entry of exactly free_bytes() fills the segment...
        tx.add_range(addr, free)?;
        assert_eq!(tx.log_free_bytes(), 0);
        assert_eq!(tx.chain_segments(), 1);
        // ...and the next entry — one more than the segment holds — chains.
        tx.add_range(addr + free + 64, 8)?;
        assert_eq!(tx.chain_segments(), 2);
        // After chaining, free_bytes reports the fresh tail's headroom.
        assert!(tx.log_free_bytes() > 0);
        // SAFETY: both logged ranges lie inside the allocated region.
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0x22, free) };
        Ok(())
    })
    .unwrap();

    // The committed write stuck. The chained segment is no longer part of
    // any log chain but sits *parked* in the client's spare cache (one
    // puddle still registered daemon-side), ready for the next extension.
    // SAFETY: `addr` is a live `region`-byte allocation.
    let first = unsafe { std::slice::from_raw_parts(addr as *const u8, 8) };
    assert_eq!(first, &[0x22; 8]);
    assert_eq!(counter(&client, "registry.puddles"), puddles_before + 1);

    // A second chaining transaction reuses the spare instead of allocating:
    // the daemon-side puddle count stays flat.
    pool.tx(|tx| {
        let free = tx.log_free_bytes();
        tx.add_range(addr, free)?;
        tx.add_range(addr + free + 64, 8)?;
        assert_eq!(tx.chain_segments(), 2);
        Ok(())
    })
    .unwrap();
    assert_eq!(counter(&client, "registry.puddles"), puddles_before + 1);
}

#[test]
fn spare_log_cache_parks_tails_and_frees_them_on_disconnect() {
    let (_tmp, _config, daemon, client) = setup();
    // A second client observes daemon state after the first disconnects.
    let observer = PuddleClient::connect_local(&daemon).unwrap();
    client.set_log_puddle_size(64 * 1024);
    let pool = client.create_pool("spare", PoolOptions::default()).unwrap();
    let region = 256 * 1024;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();

    // A transaction that undo-logs `total` bytes in 8 KiB entries (small
    // enough to fit any segment size used here), chaining as needed.
    let chain_tx = |total: usize| {
        pool.tx(|tx| {
            let mut off = 0;
            while off < total {
                let len = (total - off).min(8 * 1024);
                tx.add_range(addr + off, len)?;
                off += len;
            }
            Ok(tx.chain_segments())
        })
        .unwrap()
    };
    let segments = chain_tx(150 * 1024);
    assert!(segments >= 3, "150 KiB undo must chain 64 KiB segments");
    let parked = counter(&observer, "registry.puddles");
    // Subsequent chain-heavy transactions run entirely out of the cache up
    // to its capacity: the daemon-side puddle count stays flat.
    for _ in 0..3 {
        assert!(chain_tx(120 * 1024) >= 2);
        assert_eq!(counter(&observer, "registry.puddles"), parked);
    }

    // Changing the segment size invalidates parked spares: the next
    // acquisition frees them rather than reusing the wrong geometry.
    client.set_log_puddle_size(32 * 1024);
    assert!(chain_tx(80 * 1024) >= 2);

    // Disconnect: the cache is dropped and every parked puddle is freed.
    let before_drop = counter(&observer, "registry.puddles");
    drop(pool);
    drop(client);
    let after_drop = counter(&observer, "registry.puddles");
    assert!(
        after_drop < before_drop,
        "disconnect must free parked spares ({before_drop} -> {after_drop})"
    );
}

#[test]
fn max_segment_payload_chains_and_oversized_payload_is_rejected() {
    // Boundary of the never-fits check: when the active segment is full, a
    // payload of *exactly* a fresh segment's capacity must chain and
    // commit; one byte more can never fit any segment and must be
    // TxTooLarge (without looping on chain extensions).
    let (_tmp, _config, _daemon, client) = setup();
    client.set_log_puddle_size(64 * 1024);
    let segment_capacity = 64 * 1024 - LOG_REGION_OFFSET;
    let max_payload = puddles_logfmt::segment_payload_capacity(segment_capacity);
    let pool = client
        .create_pool("maxpay", PoolOptions::default())
        .unwrap();
    let region = 2 * max_payload;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();

    pool.tx(|tx| {
        // Exhaust the active segment...
        let fill = tx.log_free_bytes();
        tx.add_range(addr, fill)?;
        assert_eq!(tx.log_free_bytes(), 0);
        // ...then log a payload of exactly one whole fresh segment.
        let max = vec![0x7Au8; max_payload];
        tx.redo_set_bytes(addr, &max)?;
        assert_eq!(tx.chain_segments(), 2);
        Ok(())
    })
    .unwrap();
    // SAFETY: `addr` is a live `region`-byte allocation.
    let stored = unsafe { std::slice::from_raw_parts(addr as *const u8, max_payload) };
    assert!(stored.iter().all(|&b| b == 0x7A));

    let err = pool
        .tx(|tx| {
            let fill = tx.log_free_bytes();
            tx.add_range(addr, fill)?;
            let too_big = vec![0u8; max_payload + 1];
            tx.redo_set_bytes(addr, &too_big)?;
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, Error::TxTooLarge { .. }),
        "payload over a whole segment must be TxTooLarge, got {err}"
    );
}

/// Sets up a pool with a 0xAB-filled 256 KiB region and a root counter,
/// using 64 KiB log puddles so chaining is cheap to trigger. Returns the
/// region address.
fn chain_crash_setup(client: &PuddleClient, pool: &puddles::Pool) -> usize {
    client.set_log_puddle_size(64 * 1024);
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 1,
                touched: 0,
            },
        )
    })
    .unwrap();
    let region = 256 * 1024;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();
    // SAFETY: fresh allocation in a writable mapping.
    unsafe { std::ptr::write_bytes(addr as *mut u8, 0xAB, region) };
    addr
}

/// The transaction body used by the chain crash tests: undo-log and
/// overwrite the region in 16 KiB chunks, which outgrows a 64 KiB log
/// segment after a few chunks and forces chain extensions.
fn chain_crash_body(
    pool: &puddles::Pool,
    root: PmPtr<Counter>,
    addr: usize,
) -> impl Fn(&mut puddles::Transaction<'_>) -> Result<(), Error> + '_ {
    move |tx| {
        let c = pool.deref_mut(root)?;
        tx.set(&mut c.value, 2)?;
        for chunk in 0..16usize {
            let chunk_addr = addr + chunk * 16 * 1024;
            tx.add_range(chunk_addr, 16 * 1024)?;
            // SAFETY: the chunk lies inside the allocated region.
            unsafe { std::ptr::write_bytes(chunk_addr as *mut u8, 0xCD, 16 * 1024) };
        }
        Ok(())
    }
}

fn assert_chain_rolled_back(pool: &puddles::Pool, addr: usize, context: &str) {
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 1, "{context}: root value");
    // SAFETY: the region is a live 256 KiB allocation in the reopened pool.
    let region = unsafe { std::slice::from_raw_parts(addr as *const u8, 256 * 1024) };
    assert!(
        region.iter().all(|&b| b == 0xAB),
        "{context}: region must be uniformly rolled back"
    );
}

#[test]
fn crash_during_chain_extension_is_recovered_and_tails_reclaimed() {
    use puddles_pmem::failpoint;

    // Crash (a) after the daemon allocated the next chain segment but
    // before it was registered — the unreferenced puddle is swept at the
    // next daemon startup; (b) after registration but before the first
    // append — recovery treats the empty tail as benign and reclaims it.
    for fp in [
        failpoint::names::LOG_CHAIN_ALLOC_CRASH,
        failpoint::names::LOG_CHAIN_REGISTER_CRASH,
    ] {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let addr;
        {
            let daemon = Daemon::start(config.clone()).unwrap();
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool("chaincrash", PoolOptions::default())
                .unwrap();
            addr = chain_crash_setup(&client, &pool);
            let root: PmPtr<Counter> = pool.root().unwrap();

            failpoint::arm_scoped(fp, 0);
            let err = pool.tx(chain_crash_body(&pool, root, addr)).unwrap_err();
            failpoint::clear_current_thread();
            assert!(err.is_injected_crash(), "{fp}: got {err}");
        }

        // Restart without auto-recovery so the report is observable.
        let daemon = Daemon::start(config.no_auto_recover()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let report = client.recover().unwrap();
        match fp {
            x if x == failpoint::names::LOG_CHAIN_ALLOC_CRASH => {
                // The never-registered segment — and nothing else: the log
                // space is registered — was already swept at startup.
                assert_eq!(
                    counter(&client, "sweep.log_puddles"),
                    1,
                    "alloc-crash puddle must be swept at startup"
                );
                assert_eq!(report.chain_tails_reclaimed, 0);
            }
            _ => {
                // The registered-but-empty tail is benign and reclaimed.
                assert!(
                    report.chain_tails_reclaimed >= 1,
                    "register-crash tail must be reclaimed, report {report:?}"
                );
            }
        }
        let pool = client.open_pool("chaincrash").unwrap();
        assert_chain_rolled_back(&pool, addr, fp);
    }
}

#[test]
fn mixed_chained_transaction_rolls_forward_from_the_redo_stage() {
    use puddles_pmem::failpoint;

    // Undo and redo entries interleaved across several 64 KiB segments; the
    // crash hits after the redo stage was published, before or one entry
    // into the apply (which walks the writer's own extents, unverified).
    // Recovery must roll the whole transaction forward: the undo-logged
    // in-place writes stay, every redo entry lands.
    const CHUNK: usize = 16 * 1024;
    for fp in [
        failpoint::names::COMMIT_BEFORE_REDO_APPLY,
        failpoint::names::COMMIT_MID_REDO_APPLY,
    ] {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let addr;
        {
            let daemon = Daemon::start(config.clone()).unwrap();
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client.create_pool("mixed", PoolOptions::default()).unwrap();
            // A 256 KiB region of 0xAB: chunks 0..8 are undo-logged and
            // overwritten in place, chunks 8..16 redo-logged.
            addr = chain_crash_setup(&client, &pool);

            failpoint::arm_scoped(fp, 0);
            let err = pool
                .tx(|tx| {
                    for chunk in 0..8usize {
                        let undo_addr = addr + chunk * CHUNK;
                        tx.add_range(undo_addr, CHUNK)?;
                        // SAFETY: the chunk lies inside the allocated region.
                        unsafe { std::ptr::write_bytes(undo_addr as *mut u8, 0xCD, CHUNK) };
                        tx.redo_set_bytes(addr + (8 + chunk) * CHUNK, &[0xEF; CHUNK])?;
                    }
                    assert!(tx.chain_segments() >= 4, "{} segments", tx.chain_segments());
                    assert_eq!(tx.redo_entries(), 8);
                    Ok(())
                })
                .unwrap_err();
            failpoint::clear_current_thread();
            assert!(err.is_injected_crash(), "{fp}: got {err}");
        }

        let daemon = Daemon::start(config.no_auto_recover()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let report = client.recover().unwrap();
        assert_eq!(report.entries_applied, 8, "{fp}: {report:?}");
        assert_eq!(report.chained_logs, 1, "{fp}: {report:?}");
        let pool = client.open_pool("mixed").unwrap();
        pool.ensure_mapped(addr as u64).unwrap();
        // SAFETY: the region is a live 256 KiB allocation in the reopened pool.
        let region = unsafe { std::slice::from_raw_parts(addr as *const u8, 16 * CHUNK) };
        assert!(
            region[..8 * CHUNK].iter().all(|&b| b == 0xCD),
            "{fp}: undo-logged writes must survive a roll-forward"
        );
        assert!(
            region[8 * CHUNK..].iter().all(|&b| b == 0xEF),
            "{fp}: every redo entry must be applied"
        );
    }
}

#[test]
fn crash_mid_chain_rolls_back_across_segment_boundaries() {
    use puddles_pmem::failpoint;

    // Crash after N unfenced appends with N chosen to land in the *second*
    // chain segment: recovery must stitch (log_id, chain_index) segments,
    // replay the undo entries of both, and reclaim the tail.
    for n in [6usize, 9, 13] {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let addr;
        {
            let daemon = Daemon::start(config.clone()).unwrap();
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool("midchain", PoolOptions::default())
                .unwrap();
            addr = chain_crash_setup(&client, &pool);
            let root: PmPtr<Counter> = pool.root().unwrap();

            failpoint::arm_scoped(failpoint::names::LOG_APPEND_CRASH, n);
            let err = pool.tx(chain_crash_body(&pool, root, addr)).unwrap_err();
            failpoint::clear_current_thread();
            assert!(err.is_injected_crash(), "n={n}: got {err}");
        }

        let daemon = Daemon::start(config.no_auto_recover()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let report = client.recover().unwrap();
        // 16 KiB entries against 64 KiB segments: appends 1..=4 land in the
        // head, later ones in chained segments.
        if n > 4 {
            assert!(
                report.chained_logs >= 1,
                "n={n}: expected a chained log in {report:?}"
            );
            assert!(
                report.chain_tails_reclaimed >= 1,
                "n={n}: expected reclaimed tails in {report:?}"
            );
        }
        assert!(report.entries_applied > 0, "n={n}: {report:?}");
        let pool = client.open_pool("midchain").unwrap();
        assert_chain_rolled_back(&pool, addr, &format!("n={n}"));
    }
}

#[test]
fn export_import_rewrites_pointers_and_keeps_both_copies_open() {
    let (tmp, _config, _daemon, client) = setup();
    let pool = client
        .create_pool("source", PoolOptions::default())
        .unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    for v in 0..50 {
        push_front(&pool, v);
    }
    let original: Vec<u64> = list_values(&pool);

    // Export, then import as a copy into the same machine: every address
    // conflicts with the original, so all pointers must be rewritten.
    let export_dir = tmp.path().join("export");
    client.export_pool("source", &export_dir).unwrap();
    let copy = client.import_pool(&export_dir, "copy").unwrap();

    // Both copies are open simultaneously — impossible in PMDK.
    let copied: Vec<u64> = {
        let root: PmPtr<ListRoot> = copy.root().unwrap();
        let mut out = Vec::new();
        let mut cur = copy.deref(root).unwrap().head;
        while !cur.is_null() {
            let node = copy.deref(cur).unwrap();
            out.push(node.value);
            cur = node.next;
        }
        out
    };
    assert_eq!(copied, original);

    // The copies are independent: modifying one does not affect the other.
    push_front(&copy, 999);
    assert_eq!(list_values(&pool), original);
    assert_eq!(
        copy.deref(copy.root::<ListRoot>().unwrap()).unwrap().len,
        51
    );
}

/// A manifest holds one address per puddle. An imported pool with only its
/// root mapped has rewritten members pointing at new addresses and pending
/// ones pointing at the exporter's: no manifest describes that, so the
/// export is refused — before a directory exists — until every member has
/// been mapped.
#[test]
fn a_pool_awaiting_rewrite_is_not_exported_until_it_is_mapped() {
    let (tmp, _config, _daemon, client) = setup();
    let small = PoolOptions::default().puddle_size(64 << 10);
    let pool = client.create_pool("source", small).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    let mut pushed = 0;
    while pool.puddle_count() < 3 {
        push_front(&pool, pushed);
        pushed += 1;
    }
    let original = list_values(&pool);
    let dir = |name: &str| tmp.path().join(name);
    client.export_pool("source", dir("first")).unwrap();

    // Importing maps the root, and nothing else.
    let copy = client.import_pool(dir("first"), "copy").unwrap();
    assert_eq!((copy.mapped_count(), copy.puddle_count()), (1, 3));
    match client.export_pool("copy", dir("refused")) {
        Err(Error::Daemon(e)) => {
            assert_eq!(e.code, puddles_proto::ErrorCode::InvalidRequest);
            assert!(e.message.contains("2 of the 3 puddles"), "{e}");
            assert!(e.message.contains("ensure_all_mapped"), "{e}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert!(
        !dir("refused").exists(),
        "refused before anything is copied"
    );

    copy.ensure_all_mapped().unwrap();
    client.export_pool("copy", dir("second")).unwrap();
    let again = client.import_pool(dir("second"), "again").unwrap();
    assert_eq!(list_values(&again), original);
    assert_eq!(list_values(&copy), original);
}

/// The sorted table against the scan it replaced: 2,000 disjoint ranges in
/// no order, pointers at both edges of ranges, inside them, in the gaps
/// between and outside all — each ends up where `iter().find_map(translate)`
/// sends it. (Here, not beside `reloc.rs`'s own tests: one of those arms
/// `RELOC_MID_REWRITE` process-wide, and 4,000 objects would walk into it.)
#[test]
fn binary_search_translates_exactly_as_the_linear_scan() {
    use puddles::{rewrite_puddle, NoLog, PuddleAlloc, TypeRegistry};
    use puddles_proto::Translation;
    let mut buf = vec![0u8; 1 << 20];
    // SAFETY: `buf` outlives the allocator and its storage does not move.
    let alloc = unsafe { PuddleAlloc::new(buf.as_mut_ptr() as usize, buf.len()) };
    alloc.init();
    let mut types = TypeRegistry::new();
    types.insert_type::<Node>();
    let mut translations: Vec<Translation> = (0..2000u64)
        .map(|i| Translation {
            old_addr: 0x1000_0000 + i * 0x3000,
            new_addr: 0x9_0000_0000 - i * 0x5000,
            len: 0x2000,
        })
        .collect();
    // A fixed shuffle: the caller's order is not the sorted one.
    for i in 0..translations.len() {
        translations.swap(i, (i * 7919 + 13) % 2000);
    }
    let mut expected = Vec::new();
    for i in 0..4000u64 {
        let range = 0x1000_0000 + (i * 37 % 2002) * 0x3000 - 0x3000;
        let value = range + [0, 1, 0x1fff, 0x2000, 0x2fff, 0x17c8][(i % 6) as usize];
        let size = std::mem::size_of::<Node>();
        let node = alloc.alloc(size, Node::type_id(), &mut NoLog).unwrap() as *mut Node;
        // SAFETY: a fresh allocation of `Node`'s size inside `buf`.
        unsafe { (*node).next = PmPtr::from_addr(value) };
        let scanned = translations.iter().find_map(|t| t.translate(value));
        expected.push((node, scanned.unwrap_or(value)));
    }
    let stats = rewrite_puddle(&alloc, &translations, &types);
    assert_eq!(stats.objects, 4000);
    assert!(
        stats.rewritten > 2000 && stats.untranslated > 1000,
        "{stats:?}"
    );
    for (node, want) in expected {
        // SAFETY: as above; `buf` is still alive.
        assert_eq!(unsafe { (*node).next.addr() }, want);
    }
}

#[repr(C)]
struct Wide {
    next: PmPtr<Wide>,
    pad: [u8; 256],
}
impl_pm_type!(Wide, "pool_tx::Wide", [next => Wide]);

/// An import's record is one fixed-size put per member, its relocation
/// table computed per pool: 5,000 members — 600 MB of stored tables before,
/// refused at ~800 — import, relocate, map and drop.
#[test]
fn a_five_thousand_member_import_is_one_record() {
    use puddled::importexport::{ExportManifest, ExportedPuddle, MANIFEST_FILE};
    use puddles_proto::{Credentials, Request, Response};
    const MEMBERS: u64 = 5000;
    const SIZE: u64 = 2 * 4096;
    const EXPORTED_AT: u64 = 0x7e00_0000_0000;
    let (tmp, _config, daemon, client) = setup();
    // The one source file: a two-page puddle whose root object points
    // 0x1100 bytes into where the *last* member was "exported" at.
    let target = EXPORTED_AT + (MEMBERS - 1) * SIZE + 0x1100;
    let seed = client
        .create_pool("seed", PoolOptions::default().puddle_size(SIZE))
        .unwrap();
    seed.tx(|tx| {
        let root = Wide {
            next: PmPtr::from_addr(target),
            pad: [0; 256],
        };
        seed.create_root(tx, root)
    })
    .unwrap();
    let export = tmp.path().join("export");
    client.export_pool("seed", &export).unwrap();
    let manifest_bytes = std::fs::read(export.join(MANIFEST_FILE)).unwrap();
    let mut manifest = ExportManifest::from_json(&manifest_bytes).unwrap();
    let template = manifest.puddles[0].clone();
    assert_eq!(template.size, SIZE);
    manifest.root = PuddleId(1);
    manifest.puddles = (0..MEMBERS)
        .map(|i| ExportedPuddle {
            id: PuddleId(1 + i as u128),
            assigned_addr: EXPORTED_AT + i * SIZE,
            ..template.clone()
        })
        .collect();
    std::fs::write(export.join(MANIFEST_FILE), manifest.to_json()).unwrap();

    let creds = Credentials::current_process();
    let files = daemon.pm_dir().list_puddles().unwrap();
    let records = daemon.wal().stats().records;
    let import = Request::ImportPool {
        src: export.to_string_lossy().into_owned(),
        new_name: "big".into(),
    };
    let (info, translations) = match daemon.handle(creds, import) {
        Response::Imported { pool, translations } => (pool, translations),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(daemon.wal().stats().records, records + 1);
    let imported = daemon.pm_dir().list_puddles().unwrap().len();
    assert_eq!((imported - files.len()) as u64, MEMBERS);
    assert_eq!(info.puddles.len() as u64, MEMBERS);
    assert_eq!(translations.len() as u64, MEMBERS);
    let last = *info.puddles.last().unwrap();
    match daemon.handle(creds, Request::GetRelocation { id: last }) {
        Response::Relocation {
            needs_rewrite: true,
            translations: table,
        } => assert_eq!(table, translations),
        other => panic!("unexpected {other:?}"),
    }

    // Mapping the root rewrites its pointer into the last member.
    let big = client.open_pool("big").unwrap();
    let root: PmPtr<Wide> = big.root().unwrap();
    let rewritten = translations.last().unwrap().new_addr + 0x1100;
    assert_eq!(big.deref(root).unwrap().next.addr(), rewritten);
    drop(big);

    client.drop_pool("big").unwrap();
    assert_eq!(daemon.pm_dir().list_puddles().unwrap(), files);
    assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());
}

#[test]
fn cross_pool_transaction_updates_two_pools_atomically() {
    let (_tmp, _config, _daemon, client) = setup();
    let accounts = client
        .create_pool("accounts", PoolOptions::default())
        .unwrap();
    let audit = client.create_pool("audit", PoolOptions::default()).unwrap();
    accounts
        .tx(|tx| {
            accounts.create_root(
                tx,
                Counter {
                    value: 1000,
                    touched: 0,
                },
            )
        })
        .unwrap();
    audit
        .tx(|tx| {
            audit.create_root(
                tx,
                Counter {
                    value: 0,
                    touched: 0,
                },
            )
        })
        .unwrap();
    let acc: PmPtr<Counter> = accounts.root().unwrap();
    let log: PmPtr<Counter> = audit.root().unwrap();

    // One transaction touches both pools (cross-pool transaction, §3.6).
    client
        .tx(|tx| {
            let a = accounts.deref_mut(acc)?;
            let debited = a.value - 100;
            tx.set(&mut a.value, debited)?;
            let l = audit.deref_mut(log)?;
            let credited = l.value + 1;
            tx.set(&mut l.value, credited)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(accounts.deref(acc).unwrap().value, 900);
    assert_eq!(audit.deref(log).unwrap().value, 1);

    // An aborted cross-pool transaction rolls back both pools.
    let _ = client.tx(|tx| {
        let a = accounts.deref_mut(acc)?;
        tx.set(&mut a.value, 0)?;
        let l = audit.deref_mut(log)?;
        tx.set(&mut l.value, 999)?;
        Err::<(), _>(Error::Aborted("no".into()))
    });
    assert_eq!(accounts.deref(acc).unwrap().value, 900);
    assert_eq!(audit.deref(log).unwrap().value, 1);
}

#[test]
fn read_only_client_can_read_but_not_write() {
    let (_tmp, _config, daemon, client) = setup();
    // Owner creates a world-readable pool.
    let options = PoolOptions::default().mode(0o644);
    let pool = client.create_pool("shared", options).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 7,
                touched: 0,
            },
        )
    })
    .unwrap();
    drop(pool);

    // Another user (different uid) opens it read-only and reads the data
    // without any PM-awareness of who wrote it.
    let other = PuddleClient::connect_local_as(
        &daemon,
        puddles_proto::Credentials {
            uid: puddles_proto::Credentials::current_process().uid + 1,
            gid: puddles_proto::Credentials::current_process().gid + 1,
        },
    )
    .unwrap();
    let pool = other.open_pool("shared").unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 7);
}

#[test]
fn multithreaded_transactions_use_per_thread_logs() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = std::sync::Arc::new(client.create_pool("mt", PoolOptions::default()).unwrap());
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 0,
                touched: 0,
            },
        )
    })
    .unwrap();

    // Each thread allocates and writes its own objects; the shared counter
    // is updated under a mutex (transactions provide failure atomicity, not
    // isolation, exactly like the paper).
    let lock = std::sync::Arc::new(parking_lot::Mutex::new(()));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let pool = std::sync::Arc::clone(&pool);
            let client = client.clone();
            let lock = std::sync::Arc::clone(&lock);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let root: PmPtr<Counter> = pool.root().unwrap();
                    let _guard = lock.lock();
                    client
                        .tx(|tx| {
                            let c = pool.deref_mut(root)?;
                            let next = c.value + 1;
                            tx.set(&mut c.value, next)?;
                            Ok(())
                        })
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 200);
}

#[test]
fn type_ids_and_pointer_maps_are_registered_with_the_daemon() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("types", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    push_front(&pool, 1);
    let ptr_maps = counter(&client, "registry.ptr_maps");
    assert!(
        ptr_maps >= 2,
        "expected ListRoot and Node maps, got {ptr_maps}"
    );
    // The maps round-trip through the daemon with the right offsets.
    let node_decl = Node::decl();
    assert_eq!(node_decl.fields[0].offset, 8);
}

// ----------------------------------------------------------------------
// Armed thread logs: what a transaction costs in fences, and what sits in
// PM between and inside transactions.
// ----------------------------------------------------------------------

/// A copy of the one log chain registered with `daemon`, as it sits in PM
/// right now: what recovery would scan if the machine lost power here.
struct LogImage {
    segments: Vec<Vec<u8>>,
}

impl LogImage {
    fn take(daemon: &Daemon) -> LogImage {
        let registry = daemon.registry();
        let read = |record: &puddled::registry::PuddleRecord| {
            let (_, path) = daemon
                .pm_dir()
                .open_puddle_file(&record.file(), record.size as usize)
                .unwrap();
            std::fs::read(path).unwrap()
        };
        let puddles = registry.snapshot().puddles;
        let mut log_spaces = puddles
            .values()
            .filter(|p| p.purpose == PuddlePurpose::LogSpace);
        let mut ls_image = read(log_spaces.next().expect("a log space"));
        assert!(log_spaces.next().is_none(), "one client, one log space");
        // SAFETY: the view covers the copy's heap and is dropped before it.
        let ls = unsafe {
            LogSpaceRef::from_raw(
                ls_image.as_mut_ptr().add(LOG_REGION_OFFSET),
                ls_image.len() - LOG_REGION_OFFSET,
            )
        };
        let slots = ls.live_slots();
        assert!(slots.iter().all(|s| s.log_id == slots[0].log_id));
        let segments = slots
            .iter()
            .map(|s| {
                let uuid = (s.puddle_uuid_hi as u128) << 64 | s.puddle_uuid_lo as u128;
                read(&registry.puddle(PuddleId(uuid)).expect("registered segment"))
            })
            .collect();
        LogImage { segments }
    }

    /// Views over the copied segments, head first.
    fn chain(&mut self) -> Vec<LogRef> {
        self.segments
            .iter_mut()
            // SAFETY: each view covers its copy's heap; callers drop the
            // views before the image.
            .map(|buf| unsafe {
                LogRef::from_raw(
                    buf.as_mut_ptr().add(LOG_REGION_OFFSET),
                    buf.len() - LOG_REGION_OFFSET,
                )
            })
            .collect()
    }
}

/// Fences the calling thread issues while `f` runs.
fn fences_in(f: impl FnOnce()) -> u64 {
    let before = persist::thread_counts().fences;
    f();
    persist::thread_counts().fences - before
}

/// Commits a transaction that fills its log segment from the allocation at
/// `addr` and chains a second one (the client's log puddles are small).
fn commit_chained(client: &PuddleClient, addr: usize) {
    client
        .tx(|tx| {
            let free = tx.log_free_bytes();
            tx.add_range(addr, free)?;
            tx.add_range(addr + free + 64, 8)?;
            assert_eq!(tx.chain_segments(), 2);
            Ok(())
        })
        .unwrap()
}

#[test]
fn fences_per_transaction_are_exactly_what_the_shape_needs() {
    let (_tmp, _config, _daemon, client) = setup();
    client.set_log_puddle_size(64 * 1024);
    let pool = client
        .create_pool("fences", PoolOptions::default())
        .unwrap();
    let region = 128 * 1024;
    // Also warms the thread log: this commit leaves it armed.
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();
    let word = addr as *mut u64;

    let empty = || client.tx(|_| Ok(())).unwrap();
    let one_add = || {
        client
            .tx(|tx| {
                tx.add_range(addr, 64)?;
                // SAFETY: `addr` is a live, writable `region`-byte allocation.
                unsafe { *word += 1 };
                Ok(())
            })
            .unwrap()
    };
    // SAFETY (redo target): as above.
    let one_redo = || {
        client
            .tx(|tx| tx.redo_set(unsafe { &*word }, 7u64))
            .unwrap()
    };
    let aborted = || {
        let err = client.tx(|tx| {
            tx.add_range(addr, 64)?;
            Err::<(), _>(Error::Corruption("abort".into()))
        });
        assert!(matches!(err, Err(Error::Corruption(_))));
    };

    // On an armed log: nothing logged, nothing fenced; an undo-only
    // transaction fences its data, then the log's invalidation; a redo
    // entry adds the redo-stage publish and the redo apply.
    assert_eq!(fences_in(empty), 0);
    assert_eq!(fences_in(one_add), 2);
    assert_eq!(fences_in(one_redo), 4);
    assert_eq!(fences_in(empty), 0);
    assert_eq!(fences_in(one_add), 2, "steady state, not a one-off");

    // A chained commit ends in RANGE_DONE, an abort in a plain reset: the
    // next transaction pays the fenced start, and only that one.
    commit_chained(&client, addr);
    assert_eq!(fences_in(one_add), 3, "after a chained commit");
    assert_eq!(fences_in(one_add), 2);
    commit_chained(&client, addr);
    assert_eq!(fences_in(empty), 1, "after a chained commit");
    assert_eq!(fences_in(empty), 0);
    aborted();
    assert_eq!(fences_in(one_redo), 5, "after an abort");
    assert_eq!(fences_in(one_redo), 4);
    // (A thread's first transaction also creates its log, which fences
    // too: `tx::tests` counts that one, with the set-up held apart.)
}

/// `tx_large`'s transaction: 64 undo adds of 16 KiB each over 256 KiB log
/// puddles, a five-segment chain. Its log payloads are streamed past the
/// cache, which moves lines from flushed to streamed and leaves the total,
/// and every fence, where copying and flushing them put it: 32,863 lines
/// (16,385 of them the in-place data's stage-1 flush) and 27 fences, both
/// counted before the log streamed.
#[test]
fn a_large_transaction_streams_its_log_and_keeps_its_line_and_fence_totals() {
    const CHUNK: usize = 16 * 1024;
    const CHUNKS: usize = 64;
    let (_tmp, _config, _daemon, client) = setup();
    client.set_log_puddle_size(256 * 1024);
    let pool = client.create_pool("large", PoolOptions::default()).unwrap();
    let region = pool.tx(|tx| pool.alloc_raw(tx, CHUNK * CHUNKS, 0)).unwrap();
    let large_tx = |fill: u8| {
        client
            .tx(|tx| {
                for chunk in 0..CHUNKS {
                    let addr = region + chunk * CHUNK;
                    tx.add_range(addr, CHUNK)?;
                    // SAFETY: inside the live, writable region, undo-logged
                    // just above.
                    unsafe { std::ptr::write_bytes(addr as *mut u8, fill, CHUNK) };
                }
                assert_eq!(tx.chain_segments(), 5);
                Ok(())
            })
            .unwrap()
    };
    // The first transaction asks the daemon for its tails; later ones take
    // them from the spare cache.
    large_tx(1);
    for fill in 2..5 {
        let before = persist::thread_counts();
        large_tx(fill);
        let after = persist::thread_counts();
        let flushed = after.lines_flushed - before.lines_flushed;
        let streamed = after.lines_streamed - before.lines_streamed;
        // 3 for the head (fenced start, stage 1, reset) and 4 per tail
        // (`LogWriter::extend`, the slot `register` fills, the tail's
        // reset, the slot `unregister` frees).
        assert_eq!(after.fences - before.fences, 19);
        assert_eq!(flushed + streamed, 32_855);
        if cfg!(target_arch = "x86_64") {
            assert!(streamed >= 16_000, "{streamed} lines streamed");
        }
    }
}

#[test]
fn single_segment_commit_arms_the_log_and_a_chained_one_does_not() {
    let (_tmp, _config, daemon, client) = setup();
    client.set_log_puddle_size(64 * 1024);
    let pool = client.create_pool("armed", PoolOptions::default()).unwrap();
    let region = 128 * 1024;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();

    // Between transactions the head is an empty executing transaction.
    let mut idle = LogImage::take(&daemon);
    let chain = idle.chain();
    assert_eq!(chain.len(), 1);
    assert_eq!(chain[0].seq_range(), RANGE_EXEC);
    assert_eq!(
        chain[0].iter().count(),
        0,
        "no entry of the armed generation"
    );
    let armed_gen = chain[0].generation();

    // The next transaction starts without touching the header, and what it
    // undo-logs is live under the armed generation: a crash right here
    // would roll exactly this back.
    pool.tx(|tx| {
        tx.add_range(addr, 64)?;
        tx.add_range(addr + 4096, 8)?;
        let mut mid = LogImage::take(&daemon);
        let chain = mid.chain();
        assert_eq!(chain[0].generation(), armed_gen, "start wrote nothing");
        assert_eq!(chain[0].seq_range(), RANGE_EXEC);
        let live = collect_live(&chain, false);
        let logged: Vec<(u64, usize)> = live.to_apply().map(|(h, d)| (h.addr, d.len())).collect();
        assert_eq!(logged, vec![(addr as u64 + 4096, 8), (addr as u64, 64)]);
        assert!(live.to_apply().all(|(h, _)| h.gen == armed_gen));
        Ok(())
    })
    .unwrap();
    let mut idle = LogImage::take(&daemon);
    let chain = idle.chain();
    assert_eq!(chain[0].seq_range(), RANGE_EXEC);
    assert_eq!(chain[0].generation(), armed_gen + 1, "one write per commit");
    assert_eq!(chain[0].iter().count(), 0);

    // A transaction that logs nothing leaves the header alone.
    client.tx(|_| Ok(())).unwrap();
    let mut idle = LogImage::take(&daemon);
    assert_eq!(idle.chain()[0].generation(), armed_gen + 1);

    // A chained commit ends in RANGE_DONE (its tails are released)...
    commit_chained(&client, addr);
    let mut idle = LogImage::take(&daemon);
    let chain = idle.chain();
    assert_eq!(chain.len(), 1);
    assert_eq!(chain[0].seq_range(), RANGE_DONE);
    // ...and the single-segment one after it arms the log again.
    pool.tx(|tx| tx.add_range(addr, 64)).unwrap();
    let mut idle = LogImage::take(&daemon);
    assert_eq!(idle.chain()[0].seq_range(), RANGE_EXEC);
}

#[test]
fn crash_on_an_armed_log_rolls_back_that_transaction_only() {
    use puddles_pmem::failpoint;

    // Transaction N commits two logged stores; N+1 (started on the armed
    // log, no header write) logs and overwrites `value`, then crashes
    // before or after its second append. N's entries sit at the same log
    // offsets under the previous generation: were the second one visible
    // to recovery when N+1 logged only one, `touched` would go back to 20.
    for appends_before_crash in 0..3usize {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        {
            let daemon = Daemon::start(config.clone()).unwrap();
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client.create_pool("armed", PoolOptions::default()).unwrap();
            pool.tx(|tx| {
                pool.create_root(
                    tx,
                    Counter {
                        value: 10,
                        touched: 20,
                    },
                )
            })
            .unwrap();
            let root: PmPtr<Counter> = pool.root().unwrap();
            pool.tx(|tx| {
                let c = pool.deref_mut(root)?;
                tx.set(&mut c.value, 11)?;
                tx.set(&mut c.touched, 21)?;
                Ok(())
            })
            .unwrap();

            failpoint::arm_scoped(failpoint::names::LOG_APPEND_CRASH, appends_before_crash);
            let err = pool
                .tx(|tx| {
                    let c = pool.deref_mut(root)?;
                    tx.set(&mut c.value, 12)?;
                    tx.set(&mut c.touched, 22)?;
                    tx.add_volatile(&0u64)?; // a third append to crash on
                    Ok(())
                })
                .unwrap_err();
            failpoint::clear_current_thread();
            assert!(err.is_injected_crash(), "got {err}");
        }

        let daemon = Daemon::start(config).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.open_pool("armed").unwrap();
        let root: PmPtr<Counter> = pool.root().unwrap();
        let c = pool.deref(root).unwrap();
        assert_eq!(
            (c.value, c.touched),
            (11, 21),
            "crash after {appends_before_crash} appends: N stays, N+1 goes"
        );
        // The recovered log serves the thread's next transaction.
        pool.tx(|tx| tx.set(&mut pool.deref_mut(root)?.value, 13))
            .unwrap();
        assert_eq!(pool.deref(root).unwrap().value, 13);
    }
}

#[test]
fn panic_in_a_transaction_body_rolls_back_and_frees_the_thread() {
    let (_tmp, _config, daemon, client) = setup();
    let pool = client.create_pool("panic", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 1,
                touched: 2,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.tx(|tx| {
            let c = pool.deref_mut(root)?;
            tx.set(&mut c.value, 100)?;
            tx.set(&mut c.touched, 200)?;
            if c.value == 100 {
                panic!("application bug mid-transaction");
            }
            Ok(())
        })
    }));
    assert!(unwound.is_err());

    // Rolled back like an `Err` return, not left half-applied...
    let c = pool.deref(root).unwrap();
    assert_eq!((c.value, c.touched), (1, 2));
    // ...with the log reset rather than armed over the dead entries...
    let mut idle = LogImage::take(&daemon);
    assert_eq!(idle.chain()[0].seq_range(), RANGE_DONE);
    // ...and the thread can run transactions again.
    assert_eq!(
        fences_in(|| {
            pool.tx(|tx| tx.set(&mut pool.deref_mut(root)?.value, 3))
                .unwrap()
        }),
        3,
        "fenced start, then the usual two"
    );
    assert_eq!(pool.deref(root).unwrap().value, 3);
}
