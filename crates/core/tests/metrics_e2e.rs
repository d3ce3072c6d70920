//! End-to-end `GetMetrics`: drive a daemon through the client library and
//! assert the observability plane saw the traffic — per-request latency
//! series, WAL flush timings, counters, and the trace ring — both over
//! the in-process endpoint and a real UDS connection.

use puddled::{Daemon, DaemonConfig, UdsServer};
use puddles::{PoolOptions, PuddleClient};
use puddles_proto::MetricsReport;

fn series_count(report: &MetricsReport, name: &str) -> u64 {
    report
        .series
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.count)
        .unwrap_or_else(|| panic!("series `{name}` missing from {report:?}"))
}

/// Pings and pool create/drop through a client must show up as non-empty
/// latency series with sane percentiles, WAL flush samples, and trace
/// events.
#[test]
fn get_metrics_reports_request_series() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("metrics.sock");
    let _server = UdsServer::start(daemon.clone(), &socket).unwrap();
    let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space()).unwrap();

    for i in 0..10 {
        client.ping().unwrap();
        let pool = client
            .create_pool(&format!("m{i}"), PoolOptions::default())
            .unwrap();
        drop(pool);
        client.drop_pool(&format!("m{i}")).unwrap();
    }

    let report = client.metrics().expect("GetMetrics over UDS");
    assert!(series_count(&report, "service.Ping") >= 10);
    assert!(series_count(&report, "service.CreatePool") >= 10);
    assert!(series_count(&report, "service.DropPool") >= 10);
    assert!(
        series_count(&report, "wal.flush") > 0,
        "pool create/drop must flush the WAL: {report:?}"
    );
    let ping = report.series("service.Ping").unwrap();
    assert!(ping.p50_nanos > 0, "real-clock p50 must be non-zero");
    assert!(ping.p50_nanos <= ping.p99_nanos && ping.p99_nanos <= ping.max_nanos);
    assert!(ping.sum_nanos >= ping.max_nanos);

    // The trace ring saw the requests (start/end pairs at minimum).
    assert!(
        report.trace_buffered > 0,
        "trace ring empty after 40+ requests"
    );

    // Counters include the per-reactor request split, and it adds up to
    // at least the requests this client sent.
    let reactor_total: u64 = report
        .counters
        .iter()
        .filter(|c| c.name.starts_with("reactor.") && c.name.ends_with(".requests"))
        .map(|c| c.value)
        .sum();
    assert!(
        reactor_total >= 40,
        "reactor request counters too small: {reactor_total}"
    );

    // Where each request ran: pings (and the handshake) on a reactor, the
    // pool creates/drops through the worker queue, whose wait is timed.
    let counter = |name: &str| report.counter(name).unwrap_or(0);
    assert!(counter("uds.inline") >= 10, "{report:?}");
    assert!(counter("uds.queued") >= 20, "{report:?}");
    assert_eq!(series_count(&report, "stage.queue"), counter("uds.queued"));

    // The client timed its own side of the same calls.
    let local = client.client_metrics();
    let rtt = local.series("client.rtt").expect("client.rtt series");
    assert!(rtt.count >= 40, "{rtt:?}");
    assert!(rtt.p50_nanos > 0 && rtt.p50_nanos <= rtt.p99_nanos && rtt.p99_nanos <= rtt.max_nanos);
    assert!(
        rtt.p50_nanos >= ping.p50_nanos,
        "a round trip cannot be shorter than its service time"
    );

    // A connection is a socket, not a thread: callers read their own
    // responses.
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // (A thread of the other test may exit under the listing.)
        if let Ok(comm) = std::fs::read_to_string(task.unwrap().path().join("comm")) {
            assert!(!comm.starts_with("puddles-pipe"), "reader thread {comm:?}");
        }
    }
}

/// The same plane is reachable without a socket (in-process endpoint),
/// and the client-local reporter tracks its own connection behavior.
#[test]
fn local_endpoint_and_client_reporter() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    client.ping().unwrap();
    client.ping().unwrap();

    let report = client.metrics().expect("GetMetrics in-process");
    assert!(series_count(&report, "service.Ping") >= 2);
    assert_eq!(series_count(&report, "service.ExportPool"), 0);

    // The client-side reporter exists and carries the three local
    // counters (all zero on a quiet in-process connection).
    let local = client.client_metrics();
    for name in [
        "client.retry_attempts",
        "client.reconnects",
        "client.pipeline_depth_hwm",
    ] {
        assert!(
            local.counter(name).is_some(),
            "client reporter missing `{name}`: {local:?}"
        );
    }
}
