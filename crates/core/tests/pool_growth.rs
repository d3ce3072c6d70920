//! A pool growing under concurrent allocators, and what `Pool::deref`
//! accepts.
//!
//! Growth races are timing-dependent: the allocating threads start each
//! round together on a barrier, and CI runs this file in release in a loop.

use puddled::{Daemon, DaemonConfig};
use puddles::{impl_pm_type, Error, PmPtr, PoolOptions, PuddleClient};
use puddles_proto::{Credentials, PuddlePurpose, Request, Response};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

#[repr(C)]
struct Cell {
    value: u64,
}
impl_pm_type!(Cell, "pool_growth::Cell", []);

const ALLOCS_PER_THREAD: usize = 300;
const ALLOC_BYTES: usize = 8 << 10;
const ROUNDS: usize = 5;

fn setup() -> (tempfile::TempDir, Daemon, PuddleClient) {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    (tmp, daemon, client)
}

/// Runs `body` on a thread of its own and fails the test if it does not
/// finish within a minute, so a deadlock fails instead of hanging.
fn within_a_minute(body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked: surface its message.
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress in 60 s: deadlock"),
    }
}

/// What `threads` threads, each making `ALLOCS_PER_THREAD` `ALLOC_BYTES`
/// allocations (one transaction each) into a pool of 64 KiB puddles, were
/// granted and refused over `ROUNDS` fresh pools. With `unmapped > 0`, each
/// pool is first given that many members straight from the daemon and
/// reopened, so the threads meet members that no one has mapped yet.
struct Growth {
    attempted: usize,
    granted: usize,
    refused: Vec<String>,
    overlaps: usize,
    live: usize,
}

fn grow_concurrently(threads: usize, unmapped: usize) -> Growth {
    let (_tmp, daemon, client) = setup();
    let mut out = Growth {
        attempted: 0,
        granted: 0,
        refused: Vec::new(),
        overlaps: 0,
        live: 0,
    };
    let options = PoolOptions::default().puddle_size(64 << 10);
    for round in 0..ROUNDS {
        let name = format!("grow-{round}");
        drop(client.create_pool(&name, options.clone()).unwrap());
        for _ in 0..unmapped {
            let granted = daemon.handle(
                Credentials::current_process(),
                Request::CreatePuddle {
                    size: 72 << 10,
                    pool: Some(name.clone()),
                    purpose: PuddlePurpose::Data,
                    mode: 0o600,
                },
            );
            assert!(matches!(granted, Response::Puddle(_)), "{granted:?}");
        }
        let pool = client.open_pool_with(&name, options.clone()).unwrap();
        let start = Barrier::new(threads);
        let granted = Mutex::new(Vec::new());
        let refused = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..ALLOCS_PER_THREAD {
                        match pool.tx(|tx| pool.alloc_raw(tx, ALLOC_BYTES, 0)) {
                            Ok(addr) => granted.lock().unwrap().push(addr),
                            Err(e) => refused.lock().unwrap().push(e.to_string()),
                        }
                    }
                });
            }
        });
        let mut granted = granted.into_inner().unwrap();
        granted.sort_unstable();
        out.overlaps += granted
            .windows(2)
            .filter(|w| w[1] < w[0] + ALLOC_BYTES)
            .count();
        out.attempted += threads * ALLOCS_PER_THREAD;
        out.granted += granted.len();
        out.refused.extend(refused.into_inner().unwrap());
        pool.ensure_all_mapped().unwrap();
        out.live += pool.live_objects().len();
    }
    out
}

/// A fresh member must be initialized once: a second thread mapping it
/// concurrently would find no header either, lay out its allocator again,
/// and so free blocks that were already granted.
#[test]
fn a_fresh_member_is_mapped_once_under_concurrent_growth() {
    let growth = grow_concurrently(2, 0);
    assert_eq!(growth.overlaps, 0, "granted allocations overlap");
    assert_eq!(
        growth.live, growth.granted,
        "live objects must be exactly the granted allocations"
    );
}

/// The same holds for a member the daemon granted that this process has
/// not mapped yet (another handle grew the pool, or its grower crashed
/// before the first map): the allocating threads all reach it at once.
#[test]
fn an_unmapped_member_is_laid_out_once_under_concurrent_allocation() {
    let growth = grow_concurrently(4, 32);
    assert_eq!(growth.overlaps, 0, "granted allocations overlap");
    assert_eq!(growth.live, growth.granted);
    assert_eq!(
        growth.granted,
        growth.attempted,
        "{:?}",
        &growth.refused[..growth.refused.len().min(3)]
    );
}

/// After growing the pool, an allocation must not fail because another
/// thread filled the new puddle first.
#[test]
fn concurrent_growth_never_fails_spuriously() {
    let growth = grow_concurrently(4, 0);
    assert_eq!(
        growth.granted,
        growth.attempted,
        "refused: {:?}",
        &growth.refused[..growth.refused.len().min(3)]
    );
    assert_eq!(growth.overlaps, 0, "granted allocations overlap");
    assert_eq!(growth.live, growth.granted);
}

#[test]
fn deref_accepts_exactly_the_member_spans() {
    let (_tmp, _daemon, client) = setup();
    let pool = client
        .create_pool("spans", PoolOptions::default().puddle_size(1 << 20))
        .unwrap();
    let root = pool.root_puddle();
    let last = (root.addr() + root.size() - 1) as u64;
    assert!(pool.deref(PmPtr::<u8>::from_addr(last)).is_ok());
    assert!(pool.ensure_mapped(last).is_ok());

    let past = last + 1;
    assert!(matches!(
        pool.deref(PmPtr::<u8>::from_addr(past)),
        Err(Error::InvalidAddress(a)) if a == past
    ));
    assert!(matches!(
        pool.deref_mut(PmPtr::<u8>::from_addr(past)),
        Err(Error::InvalidAddress(a)) if a == past
    ));
    assert!(matches!(
        pool.ensure_mapped(past),
        Err(Error::InvalidAddress(a)) if a == past
    ));
    assert!(matches!(
        pool.deref(PmPtr::<u8>::null()),
        Err(Error::InvalidAddress(0))
    ));
    assert!(matches!(
        pool.deref_mut(PmPtr::<u8>::null()),
        Err(Error::InvalidAddress(0))
    ));
    assert_eq!(pool.mapped_count(), 1, "a refused address maps nothing");
}

#[test]
fn deref_into_an_unmapped_member_maps_exactly_that_member() {
    let (_tmp, _daemon, client) = setup();
    let options = PoolOptions::default().puddle_size(64 << 10);
    let far = {
        let pool = client.create_pool("members", options.clone()).unwrap();
        // Each object is too big to share a puddle with another, so the pool
        // grows by one member per object.
        let mut far = PmPtr::<u64>::null();
        for value in 1..=3u64 {
            let addr = pool
                .tx(|tx| {
                    let addr = pool.alloc_raw(tx, 40 << 10, 0)?;
                    let object = pool.deref_mut(PmPtr::<u64>::from_addr(addr as u64))?;
                    tx.set(object, value)?;
                    Ok(addr)
                })
                .unwrap();
            far = PmPtr::from_addr(addr as u64);
        }
        assert_eq!(pool.puddle_count(), 4);
        far
    };

    let pool = client.open_pool_with("members", options).unwrap();
    assert_eq!(pool.mapped_count(), 1, "a reopened pool maps its root only");
    assert_eq!(*pool.deref(far).unwrap(), 3);
    assert_eq!(pool.mapped_count(), 2, "one deref maps one member");
    assert!(pool
        .puddle_containing(far.addr() as usize)
        .unwrap()
        .is_some());
    assert_eq!(pool.mapped_count(), 2);
}

#[test]
fn readers_of_the_root_run_while_another_thread_grows_the_pool() {
    within_a_minute(|| {
        let (_tmp, _daemon, client) = setup();
        let pool = client
            .create_pool("readers", PoolOptions::default().puddle_size(64 << 10))
            .unwrap();
        let root = pool
            .tx(|tx| pool.create_root(tx, Cell { value: 42 }))
            .unwrap();
        let written = Mutex::new(Vec::<(PmPtr<u64>, u64)>::new());
        let growing = std::sync::atomic::AtomicBool::new(true);
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    let mut reads = 0u64;
                    while growing.load(std::sync::atomic::Ordering::Acquire) || reads < 1_000 {
                        assert_eq!(pool.root::<Cell>(), Some(root));
                        assert_eq!(pool.deref(root).unwrap().value, 42);
                        let last = written.lock().unwrap().last().copied();
                        if let Some((ptr, value)) = last {
                            assert_eq!(*pool.deref(ptr).unwrap(), value);
                        }
                        reads += 1;
                    }
                });
            }
            start.wait();
            for value in 0..200u64 {
                let addr = pool
                    .tx(|tx| {
                        let addr = pool.alloc_raw(tx, 16 << 10, 0)?;
                        let cell = pool.deref_mut(PmPtr::<u64>::from_addr(addr as u64))?;
                        tx.set(cell, value)?;
                        Ok(addr)
                    })
                    .unwrap();
                written
                    .lock()
                    .unwrap()
                    .push((PmPtr::from_addr(addr as u64), value));
            }
            growing.store(false, std::sync::atomic::Ordering::Release);
        });
        assert!(pool.puddle_count() > 10, "the pool grew while read");
    });
}
