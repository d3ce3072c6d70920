//! Client retry/backoff against a daemon at its connection cap.
//!
//! The daemon's reactor, which owns the listener, answers connections
//! beyond `max_connections` with a `Busy` frame and closes — which the client maps to a transient
//! `ConnectionRefused` and retries with bounded exponential backoff. Under
//! connection churn (clients connecting, working briefly, and leaving) a
//! waiting client must eventually land in a freed slot rather than fail on
//! one fixed-delay attempt.

use puddled::{Daemon, DaemonConfig, UdsServer};
use puddles::{PuddleClient, RetryPolicy};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn backoff_wins_a_slot_under_connection_cap_churn() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("cap.sock");
    // Two connection slots — two clients' worth, one connection each — for
    // six churning client threads: most dials hit the cap and must back off
    // into a freed slot.
    let _server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 2).unwrap();

    const THREADS: usize = 6;
    const ROUNDS: usize = 8;
    let completed = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let socket = socket.clone();
            let space = daemon.global_space();
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    // Patient policy: plenty of attempts, long deadline —
                    // churn (other threads dropping their client) is what
                    // frees a slot, backoff is what waits for it.
                    let retry = RetryPolicy::new(256, Duration::from_secs(60))
                        .with_backoff(Duration::from_micros(200), Duration::from_millis(10));
                    let client =
                        PuddleClient::connect_uds_shared_tuned(&socket, Arc::clone(&space), retry)
                            .expect("backoff should eventually win a connection slot");
                    client.ping().expect("ping on a won slot");
                    completed.fetch_add(1, Ordering::Relaxed);
                    // Dropping the client frees its slot for a waiter.
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("churn worker panicked");
    }
    assert_eq!(completed.load(Ordering::Relaxed), THREADS * ROUNDS);
}

/// A client holds one connection: against a one-slot cap every call goes
/// over it, with no dial turned away and none retried.
#[test]
fn a_client_takes_one_connection_slot() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("one.sock");
    let _server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 1).unwrap();

    let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();
    for _ in 0..20 {
        client.ping().expect("ping over the one granted connection");
    }
    let daemon_side = client.metrics().unwrap();
    assert_eq!(daemon_side.counter("connections_rejected"), Some(0));
    assert_eq!(daemon_side.counter("uds.connections"), Some(1));
    let client_side = client.client_metrics();
    assert_eq!(client_side.counter("client.retry_attempts"), Some(0));
}

/// `client.reconnects` counts what the daemon's `client_reconnects` counts:
/// re-dials the daemon served a `Hello` on. A re-dial turned away at the
/// cap with `Busy` is neither.
#[test]
fn a_redial_turned_away_at_the_cap_is_not_a_reconnect() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("redial.sock");
    let mut server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 1).unwrap();
    let retry = RetryPolicy::new(2, Duration::from_secs(2))
        .with_backoff(Duration::from_micros(100), Duration::from_millis(1));
    let client =
        PuddleClient::connect_uds_shared_tuned(&socket, daemon.global_space(), retry).unwrap();
    client.ping().unwrap();
    let reconnects = || {
        let daemon_side = daemon.metrics().counter("client_reconnects");
        (
            client.client_metrics().counter("client.reconnects"),
            Some(daemon_side.load(Ordering::Relaxed)),
        )
    };

    // The server restarts under the client's connection...
    server.shutdown();
    let server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 1).unwrap();
    // ...and a raw connection takes the one slot (its `Hello` is answered,
    // so the reactor has accepted it), so every re-dial is turned away.
    let mut raw = UnixStream::connect(&socket).unwrap();
    raw.write_all(&puddles_proto::frame::V2_MAGIC).unwrap();
    let hello = puddles_proto::RequestEnvelope {
        req_id: 1,
        req: puddles_proto::Request::hello(puddles_proto::Credentials::current_process()),
    };
    puddles_proto::write_frame(&mut raw, &hello).unwrap();
    assert!(raw.read(&mut [0u8; 256]).unwrap() > 0, "no Welcome");
    client.ping().expect_err("the one slot is taken");
    assert_eq!(reconnects(), (Some(0), Some(0)));

    // The raw connection leaves; the next re-dial is served.
    drop(raw);
    while server.active_connections() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    client.ping().expect("a freed slot");
    assert_eq!(reconnects(), (Some(1), Some(1)));
}
