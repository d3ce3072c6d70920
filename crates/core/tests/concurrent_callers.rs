//! Many threads sharing one `PuddleClient` against a live socket server.
//!
//! The client holds one connection; concurrent callers pipeline their
//! requests on it, and whichever of them finds the socket free reads it for
//! all. Every call must be answered, creates and drops must land, a slow
//! call must not hold up the others, and the daemon must see that one
//! connection the whole time.

use puddled::{Daemon, DaemonConfig, UdsServer};
use puddles::{PoolOptions, PuddleClient};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

#[test]
fn concurrent_callers_share_the_clients_one_connection() {
    const THREADS: usize = 8;
    const PINGS: usize = 40;
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("callers.sock");
    let server = UdsServer::start(daemon.clone(), &socket).unwrap();
    let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();
    let one_connection = || assert_eq!(server.active_connections(), 1);
    let pools = |client: &PuddleClient| client.metrics().unwrap().counter("registry.pools");
    one_connection();

    let created = Barrier::new(THREADS);
    let counted = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (client, created, counted) = (&client, &created, &counted);
            s.spawn(move || {
                let name = format!("caller-{t}");
                for _ in 0..PINGS / 2 {
                    client.ping().expect("ping answered");
                    one_connection();
                }
                let pool = client
                    .create_pool(&name, PoolOptions::default())
                    .expect("create answered");
                one_connection();
                // Every caller's pool exists at once...
                created.wait();
                assert_eq!(pools(client), Some(THREADS as u64));
                counted.wait();
                drop(pool);
                for _ in 0..PINGS / 2 {
                    client.ping().expect("ping answered");
                    one_connection();
                }
                // ...and each is gone once its caller drops it.
                client.drop_pool(&name).expect("drop answered");
                assert!(client.open_pool(&name).is_err(), "{name} outlived its drop");
                one_connection();
            });
        }
    });

    assert_eq!(pools(&client), Some(0));
    let daemon_side = client.metrics().unwrap();
    assert_eq!(daemon_side.counter("uds.connections"), Some(1));
    assert_eq!(daemon_side.counter("connections_rejected"), Some(0));
    let client_side = client.client_metrics();
    assert_eq!(client_side.counter("client.reconnects"), Some(0));
    assert_eq!(client_side.counter("client.retry_attempts"), Some(0));
}

/// The read half's reason to exist, the client-side twin of the daemon's
/// two-lane pool test: one thread's `ExportPool` of a 64-member pool (a
/// worker copying 64 files) must not hold up another thread's `OpenPool`s
/// (run inline on the daemon's reactor) on the same connection. With the
/// opens pipelined past the export, some export's span holds dozens of
/// answered opens; with one call in flight per client, an open waits for
/// the export around it, and no span holds more than the one that was
/// already on the wire when the export's clock started. The test counts
/// calls, it does not time them.
#[test]
fn a_slow_export_does_not_hold_up_another_threads_calls() {
    const MEMBERS: usize = 64;
    const EXPORTS: usize = 20;
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("callers.sock");
    let _server = UdsServer::start(daemon.clone(), &socket).unwrap();
    let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();
    let pool = client
        .create_pool("wide", PoolOptions::default().puddle_size(64 * 1024))
        .unwrap();
    while pool.puddle_count() < MEMBERS {
        pool.tx(|tx| pool.alloc_raw(tx, 40 * 1024, 0)).unwrap();
    }
    drop(pool);

    let exporting = AtomicBool::new(true);
    let (spans, opened) = std::thread::scope(|s| {
        let opener = s.spawn(|| {
            let mut opened = Vec::new();
            while exporting.load(Ordering::Relaxed) {
                client.open_pool("wide").expect("open answered");
                opened.push(Instant::now());
            }
            opened
        });
        let spans: Vec<_> = (0..EXPORTS)
            .map(|i| {
                let start = Instant::now();
                client
                    .export_pool("wide", tmp.path().join(format!("export-{i}")))
                    .expect("export answered");
                (start, Instant::now())
            })
            .collect();
        exporting.store(false, Ordering::Relaxed);
        (spans, opener.join().unwrap())
    });

    let most = spans
        .iter()
        .map(|&(start, end)| opened.iter().filter(|&&t| start < t && t < end).count())
        .max()
        .unwrap();
    assert!(
        most >= 10,
        "at most {most} opens were answered during one export: the export \
         held up the calls behind it"
    );
    let depth = client.client_metrics().counter("client.pipeline_depth_hwm");
    assert!(depth >= Some(2), "the calls never overlapped: {depth:?}");
}

/// A request too big for one frame fails its own caller and nobody else:
/// it is refused before anything reaches the socket, so the shared
/// connection stays up and the next call needs no re-dial.
#[test]
fn an_oversized_request_fails_alone_and_keeps_the_connection() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("callers.sock");
    let server = UdsServer::start(daemon.clone(), &socket).unwrap();
    let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();

    let name = "x".repeat(17 << 20);
    assert!(client.create_pool(&name, PoolOptions::default()).is_err());
    client.ping().expect("ping answered");
    assert_eq!(server.active_connections(), 1);
    let client_side = client.client_metrics();
    assert_eq!(client_side.counter("client.reconnects"), Some(0));
    assert_eq!(client_side.counter("client.retry_attempts"), Some(0));
}
