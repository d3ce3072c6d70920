//! Many threads sharing one `PuddleClient` against a live socket server.
//!
//! The client holds one connection; concurrent callers pipeline their
//! requests on it and pass its read half among themselves. Every call must
//! be answered, creates and drops must land, and the daemon must see that
//! one connection the whole time.

use puddled::{Daemon, DaemonConfig, UdsServer};
use puddles::{PoolOptions, PuddleClient};
use std::sync::Barrier;

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
