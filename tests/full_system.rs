//! Cross-crate integration tests: the full system working together over the
//! UNIX-domain-socket transport and across the comparison libraries.

use pm_datastructures::kv::{value_for, PmdkKv, PuddlesKv};
use pm_datastructures::list::PuddlesList;
use puddled::{Daemon, DaemonConfig, UdsServer};
use puddles::PuddleClient;
use ycsb::Workload;

#[test]
fn puddles_and_pmdk_kv_agree_under_every_ycsb_workload() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let p = PuddlesKv::new(&client, "agree").unwrap();
    let m = PmdkKv::create(tmp.path().join("agree.pmdk"), 64 << 20).unwrap();

    let records = 500u64;
    for k in 0..records {
        p.put(k, &value_for(k, 0)).unwrap();
        m.put(k, &value_for(k, 0)).unwrap();
    }
    for wl in Workload::ALL {
        for req in wl.generate(records, 500, 3) {
            p.execute(&req).unwrap();
            m.execute(&req).unwrap();
        }
    }
    for k in 0..records {
        assert_eq!(p.get(k), m.get(k), "workload divergence at key {k}");
    }
}

#[test]
fn uds_client_builds_a_list_that_a_local_client_reads() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("full.sock");
    let _server = UdsServer::start(daemon.clone(), &socket).unwrap();

    // Writer over the socket.
    let uds_client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();
    let list = PuddlesList::new(&uds_client, "shared-list").unwrap();
    for i in 0..100 {
        list.insert_tail(i).unwrap();
    }
    drop(list);

    // Reader in-process (a different application sharing the same machine).
    let local_client = PuddleClient::connect_local(&daemon).unwrap();
    let list = PuddlesList::new(&local_client, "shared-list").unwrap();
    assert_eq!(list.len(), 100);
    assert_eq!(list.sum(), (0..100).sum::<u64>());
}

#[test]
fn exported_pool_survives_the_machine_and_imports_elsewhere() {
    // "Machine" A writes and exports.
    let a_dir = tempfile::tempdir().unwrap();
    let export = tempfile::tempdir().unwrap();
    {
        let daemon = Daemon::start(DaemonConfig::for_testing(a_dir.path())).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let list = PuddlesList::new(&client, "travel").unwrap();
        for i in 0..200 {
            list.insert_tail(i * 3).unwrap();
        }
        client
            .export_pool("travel", export.path().join("travel"))
            .unwrap();
    }
    // "Machine" B (different PM dir, different global-space base) imports.
    let b_dir = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(b_dir.path())).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let pool = client
        .import_pool(export.path().join("travel"), "travel")
        .unwrap();
    // Walk the imported structure through the typed API.
    let root: puddles::PmPtr<pm_datastructures::list::PListRoot> = pool.root().unwrap();
    let mut sum = 0u64;
    let mut cur = pool.deref(root).unwrap().head;
    let mut count = 0;
    while !cur.is_null() {
        let node = pool.deref(cur).unwrap();
        sum += node.value;
        cur = node.next;
        count += 1;
    }
    assert_eq!(count, 200);
    assert_eq!(sum, (0..200).map(|i| i * 3).sum::<u64>());
}

#[test]
fn pooled_client_connection_survives_a_daemon_server_restart() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("restart.sock");
    let mut server = UdsServer::start(daemon.clone(), &socket).unwrap();

    let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();
    client.ping().unwrap();
    let pools = || client.metrics().unwrap().counter("registry.pools");
    assert_eq!(pools(), Some(0));

    // Restart the socket server: every connection the client pooled is now
    // a dead socket. The next call must detect the stale connection and
    // retry once on a fresh one instead of surfacing EOF/EPIPE.
    server.shutdown();
    let _server = UdsServer::start(daemon.clone(), &socket).unwrap();

    client
        .ping()
        .expect("pooled connection should retry after restart");
    assert_eq!(pools(), Some(0));
}
