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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn backoff_wins_a_slot_under_connection_cap_churn() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("cap.sock");
    // Four connection slots — two clients' worth, each pooling two — for
    // six churning client threads: most dials hit the cap and must back off
    // into a freed slot.
    let _server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 4).unwrap();

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

/// A client whose pool wants more connections than the daemon will give it
/// (it pools two against a one-slot cap) works over the connection it
/// has: the refused top-up dial neither fails the call nor sends it through
/// the dial's backoff schedule.
#[test]
fn a_refused_top_up_dial_falls_through_to_the_live_connection() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("one.sock");
    let _server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 1).unwrap();

    let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();
    for _ in 0..20 {
        client.ping().expect("ping over the one granted connection");
    }
    // Every call tried one top-up and the daemon turned each away...
    let rejected = client.metrics().unwrap().counter("connections_rejected");
    assert!(rejected >= Some(20), "{rejected:?}");
    // ...but none of them was retried: backoff is for an empty pool only.
    let retries = client
        .client_metrics()
        .counters
        .iter()
        .find(|c| c.name == "client.retry_attempts")
        .map(|c| c.value);
    assert_eq!(retries, Some(0));
}
