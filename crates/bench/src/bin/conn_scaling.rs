//! Connection-scaling benchmark for the daemon's reactor runtime.
//!
//! The old `UdsServer` spawned one OS thread per connection, hard-capped at
//! 256; the sharded reactor runtime holds one fd + state machine per
//! connection, spreads connections across `min(cores, 4)` reactor threads,
//! and executes requests on a small worker pool. This harness measures two
//! axes:
//!
//! **Population scaling** — requests/s and p99 latency with 64 / 2048 /
//! 10000 **concurrently connected** clients in three mixes:
//!
//! * `all_active` — every connection issues `Ping` requests back-to-back
//!   (driver threads multiplex many connections each, so the *daemon*'s
//!   concurrency is what is measured, not the harness's thread count);
//! * `mostly_idle` — the same connection count, but only 1 in 16
//!   connections is active; the rest sit connected and silent. This is the
//!   "millions of users" shape: a large connected population, a small hot
//!   set;
//! * `registry_churn` — the `mostly_idle` population, but the hot set
//!   issues `RegisterPtrMap` mutations instead of pings, so every request
//!   takes the WAL-append path while thousands of idle connections hold
//!   reactor slots.
//!
//! **Pipelining × reactors** — clients keep a window of `depth`
//! enveloped requests in flight per connection against daemons
//! configured with 1 / 2 / 4 reactors. The `--assert-scaling` flag turns
//! the headline claim into a hard check: 4 reactors with pipelining must
//! deliver at least 2x the single-reactor depth-1 baseline.
//!
//! Output rows: `conn_scaling,puddles,<op>,<conns>,<v>`. Pass
//! `--json <path>` to also write `BENCH_conn_scaling.json` for CI.

use puddled::ServerConfig;
use puddles_bench::{emit_header, emit_row, Scale};
use puddles_proto::{BlockingConn, Credentials, PtrField, PtrMapDecl, Request, Response};
use std::collections::HashMap;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Raises `RLIMIT_NOFILE` to its hard limit and returns the resulting
/// soft limit: 10000 connections mean >20000 fds in this process (client +
/// daemon ends), far above the usual 1024 soft default.
fn raise_nofile_limit() -> u64 {
    let mut lim = libc::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a valid in/out pointer for both calls.
    unsafe {
        if libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.rlim_cur < lim.rlim_max {
            lim.rlim_cur = lim.rlim_max;
            let _ = libc::setrlimit(libc::RLIMIT_NOFILE, &lim);
            let _ = libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim);
        }
    }
    lim.rlim_cur
}

/// One client connection, one thread driving it.
type Conn = BlockingConn<UnixStream>;

/// Connects and handshakes one client connection (with a short retry: a
/// burst of 10000 connects can transiently fill the listen backlog).
fn connect(socket: &Path) -> Conn {
    let mut delay = Duration::from_millis(1);
    for attempt in 0.. {
        match UnixStream::connect(socket) {
            Ok(stream) => {
                let hello = Request::hello(Credentials::current_process());
                return BlockingConn::handshake(stream, hello).expect("hello");
            }
            Err(_) if attempt < 50 => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
            Err(e) => panic!("connect failed after retries: {e}"),
        }
    }
    unreachable!()
}

/// What the hot set of a population mix sends.
#[derive(Clone, Copy)]
enum MixOp {
    /// No-op round trips: measures pure dispatch overhead.
    Ping,
    /// Registry mutations: every request appends to the metadata WAL.
    /// A bounded set of type ids is re-registered round-robin so the
    /// registry churns without growing unboundedly.
    RegistryChurn,
}

impl MixOp {
    fn request(self, shard: usize, seq: u64) -> Request {
        match self {
            MixOp::Ping => Request::Ping,
            MixOp::RegistryChurn => {
                let slot = seq % 32;
                Request::RegisterPtrMap {
                    decl: PtrMapDecl {
                        type_id: 0xC0DE_0000 + (shard as u64) * 64 + slot,
                        type_name: format!("bench::Churn{shard}x{slot}"),
                        size: 64,
                        fields: vec![PtrField {
                            offset: 8 * (seq % 4),
                            target_type: 0,
                        }],
                    },
                }
            }
        }
    }
}

struct MixResult {
    reqs_per_s: f64,
    p99_us: f64,
}

/// Computes the p99 from a list of nanosecond latencies.
fn p99_us(latencies_ns: &mut [u64]) -> f64 {
    latencies_ns.sort_unstable();
    latencies_ns
        .get(latencies_ns.len().saturating_sub(1) * 99 / 100)
        .copied()
        .unwrap_or(0) as f64
        / 1000.0
}

/// Drives `conns` live connections for `duration`, with only every
/// `active_stride`-th connection issuing `op` requests (1 = all active).
/// The active set is split across a handful of driver threads, each
/// cycling round-robin over its share.
fn run_mix(
    socket: &Path,
    conns: usize,
    active_stride: usize,
    op: MixOp,
    duration: Duration,
) -> MixResult {
    // Establish the whole population first; it stays connected throughout.
    let streams: Vec<Conn> = (0..conns).map(|_| connect(socket)).collect();
    let mut active: Vec<Conn> = Vec::new();
    let mut idle: Vec<Conn> = Vec::new();
    for (i, stream) in streams.into_iter().enumerate() {
        if i % active_stride == 0 {
            active.push(stream);
        } else {
            idle.push(stream);
        }
    }

    let drivers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 16)
        .min(active.len());
    let mut shards: Vec<Vec<Conn>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, stream) in active.into_iter().enumerate() {
        shards[i % drivers].push(stream);
    }

    let start = Instant::now();
    let workers: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(shard_no, mut shard)| {
            std::thread::spawn(move || {
                let mut latencies_ns: Vec<u64> = Vec::new();
                let mut done = 0u64;
                'outer: loop {
                    for conn in &mut shard {
                        if start.elapsed() >= duration {
                            break 'outer;
                        }
                        let t0 = Instant::now();
                        let Ok(resp) = conn.call(op.request(shard_no, done)) else {
                            break 'outer;
                        };
                        assert!(!matches!(resp, Response::Error { .. }), "{resp:?}");
                        latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        done += 1;
                    }
                }
                (done, latencies_ns, shard)
            })
        })
        .collect();

    let mut total = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut keep_alive: Vec<Vec<Conn>> = Vec::new();
    for worker in workers {
        let (done, mut lat, shard) = worker.join().expect("driver");
        total += done;
        latencies.append(&mut lat);
        keep_alive.push(shard);
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(total > 0, "no requests completed at {conns} connections");
    // The idle population stayed connected for the whole measurement.
    drop(idle);
    MixResult {
        reqs_per_s: total as f64 / elapsed,
        p99_us: p99_us(&mut latencies),
    }
}

/// Drives `conns` connections, each keeping a window of `depth` enveloped
/// pings in flight (one thread per connection: the
/// window, not the harness, provides the concurrency under test).
fn run_pipelined(socket: &Path, conns: usize, depth: usize, duration: Duration) -> MixResult {
    let start = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|_| {
            let socket = socket.to_path_buf();
            std::thread::spawn(move || {
                let mut conn = connect(&socket);
                let mut sent_at: HashMap<u64, Instant> = HashMap::with_capacity(depth);
                let mut latencies_ns: Vec<u64> = Vec::new();
                let mut next_id: u64 = 1;
                let mut done = 0u64;
                // Prime the window.
                for _ in 0..depth {
                    sent_at.insert(next_id, Instant::now());
                    conn.send(next_id, Request::Ping).expect("prime");
                    next_id += 1;
                }
                // Steady state: read one completion, top the window back up.
                while start.elapsed() < duration {
                    let (req_id, _) = conn.recv().expect("response");
                    let t0 = sent_at.remove(&req_id).expect("unknown req_id");
                    latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    done += 1;
                    sent_at.insert(next_id, Instant::now());
                    conn.send(next_id, Request::Ping).expect("refill");
                    next_id += 1;
                }
                // Drain the window so the connection closes cleanly.
                while !sent_at.is_empty() {
                    let (req_id, _) = conn.recv().expect("drain");
                    let t0 = sent_at.remove(&req_id).expect("unknown req_id");
                    latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    done += 1;
                }
                (done, latencies_ns)
            })
        })
        .collect();

    let mut total = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for worker in workers {
        let (done, mut lat) = worker.join().expect("pipelined driver");
        total += done;
        latencies.append(&mut lat);
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        total > 0,
        "no pipelined requests completed at depth {depth}"
    );
    MixResult {
        reqs_per_s: total as f64 / elapsed,
        p99_us: p99_us(&mut latencies),
    }
}

/// `--hold-socket` mode: binds a daemon at `socket` and drives light
/// Ping / CreatePool / DropPool load over one connection for
/// `hold_ms`, so an external `puddle-stat` can poll live, non-empty
/// histograms (the CI observability smoke gate).
fn run_hold(socket: &Path, hold_ms: u64) {
    let tmp = tempfile::tempdir().expect("tempdir");
    let daemon =
        puddled::Daemon::start(puddled::DaemonConfig::for_testing(tmp.path())).expect("daemon");
    let _server = puddled::UdsServer::start(daemon, socket).expect("server");
    println!(
        "# holding {} for {hold_ms}ms under light load",
        socket.display()
    );

    let mut conn = connect(socket);
    let deadline = Instant::now() + Duration::from_millis(hold_ms);
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let pool = format!("hold{}", seq % 8);
        let reqs = [
            Request::Ping,
            Request::CreatePool {
                name: pool.clone(),
                root_size: 4096,
                mode: 0o600,
            },
            Request::DropPool { name: pool },
        ];
        for req in reqs {
            let is_ping = matches!(req, Request::Ping);
            let resp = conn.call(req).expect("hold round trip");
            // Ping answers Welcome here (it measures daemon latency);
            // only hard protocol errors on Ping should abort the hold.
            if is_ping {
                assert!(!matches!(resp, Response::Error { .. }), "{resp:?}");
            }
        }
        seq += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn main() {
    let nofile = raise_nofile_limit();
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    let assert_scaling = args.iter().any(|a| a == "--assert-scaling");
    let hold_socket = args
        .iter()
        .position(|a| a == "--hold-socket")
        .and_then(|i| args.get(i + 1).cloned());
    let hold_ms: u64 = args
        .iter()
        .position(|a| a == "--hold-ms")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("bad --hold-ms"))
        .unwrap_or(5_000);
    emit_header();

    // The hold phase runs first so an external poller gets a live socket
    // as soon as possible; the measurement matrix uses fresh daemons and
    // is unaffected.
    if let Some(path) = &hold_socket {
        run_hold(Path::new(path), hold_ms);
    }

    let mut json = String::from("{\n  \"experiment\": \"conn_scaling\",\n  \"rows\": [\n");
    let mut first = true;
    let mut push_row = |json: &mut String, row: String| {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&row);
    };

    // ---- Population scaling: one daemon, three mixes, up to 10k conns ----
    {
        let tmp = tempfile::tempdir().expect("tempdir");
        let daemon =
            puddled::Daemon::start(puddled::DaemonConfig::for_testing(tmp.path())).expect("daemon");
        let socket = tmp.path().join("conn_scaling.sock");
        let config = ServerConfig {
            // 10k concurrent connections is the acceptance bar (old hard
            // cap: 256 threads); leave headroom above it.
            max_connections: 16384,
            ..ServerConfig::default()
        };
        let _server =
            puddled::UdsServer::start_with_config(daemon, &socket, config).expect("server");

        // Quick scale shortens the measurement window, not the population.
        // Each connection costs two fds in this one process (client end +
        // daemon end); if the fd rlimit cannot hold the 10k cell even
        // after being raised, clamp it rather than wedging the acceptor
        // against EMFILE.
        let population_cap = ((nofile.saturating_sub(256)) / 2) as usize;
        let big = 10_000.min(population_cap);
        if big < 10_000 {
            println!("# RLIMIT_NOFILE {nofile} clamps the large population cell to {big}");
        }
        let conn_counts: &[usize] = &[64, 2048, big];
        let duration = Duration::from_millis(scale.pick(300, 2000));
        let mixes: &[(&str, usize, MixOp)] = &[
            ("all_active", 1, MixOp::Ping),
            ("mostly_idle", 16, MixOp::Ping),
            ("registry_churn", 16, MixOp::RegistryChurn),
        ];
        for &conns in conn_counts {
            for &(mix, stride, op) in mixes {
                let result = run_mix(&socket, conns, stride, op, duration);
                emit_row(
                    "conn_scaling",
                    "puddles",
                    &format!("{mix}_reqs_per_s"),
                    &conns.to_string(),
                    result.reqs_per_s,
                );
                emit_row(
                    "conn_scaling",
                    "puddles",
                    &format!("{mix}_p99_us"),
                    &conns.to_string(),
                    result.p99_us,
                );
                push_row(
                    &mut json,
                    format!(
                        "    {{\"mix\": \"{mix}\", \"connections\": {conns}, \
                         \"reqs_per_s\": {:.1}, \"p99_us\": {:.1}}}",
                        result.reqs_per_s, result.p99_us
                    ),
                );
            }
        }
    }

    // ---- Pipelining x reactors: fresh daemon per reactor count ----------
    let pipelined_conns = 64;
    let depths: &[usize] = &[1, 16, 64];
    let reactor_counts: &[usize] = &[1, 2, 4];
    let pipe_duration = Duration::from_millis(scale.pick(300, 2000));
    let mut pipelined: Vec<(usize, usize, f64)> = Vec::new();
    for &reactors in reactor_counts {
        let tmp = tempfile::tempdir().expect("tempdir");
        let daemon =
            puddled::Daemon::start(puddled::DaemonConfig::for_testing(tmp.path())).expect("daemon");
        let socket = tmp.path().join("conn_scaling.sock");
        let config = ServerConfig {
            reactors,
            ..ServerConfig::default()
        };
        let _server =
            puddled::UdsServer::start_with_config(daemon, &socket, config).expect("server");
        for &depth in depths {
            let result = run_pipelined(&socket, pipelined_conns, depth, pipe_duration);
            emit_row(
                "conn_scaling",
                "puddles",
                &format!("pipelined_r{reactors}_d{depth}_reqs_per_s"),
                &pipelined_conns.to_string(),
                result.reqs_per_s,
            );
            emit_row(
                "conn_scaling",
                "puddles",
                &format!("pipelined_r{reactors}_d{depth}_p99_us"),
                &pipelined_conns.to_string(),
                result.p99_us,
            );
            push_row(
                &mut json,
                format!(
                    "    {{\"mix\": \"pipelined\", \"connections\": {pipelined_conns}, \
                     \"reactors\": {reactors}, \"depth\": {depth}, \
                     \"reqs_per_s\": {:.1}, \"p99_us\": {:.1}}}",
                    result.reqs_per_s, result.p99_us
                ),
            );
            pipelined.push((reactors, depth, result.reqs_per_s));
        }
    }

    json.push_str("\n  ]\n}\n");
    if let Some(path) = json_path {
        std::fs::write(&path, json).expect("write bench json");
    }

    // Headline scaling check: 4 reactors + pipelining vs. 1 reactor at
    // depth 1. Reported always; enforced under `--assert-scaling`.
    let baseline = pipelined
        .iter()
        .find(|&&(r, d, _)| r == 1 && d == 1)
        .map(|&(_, _, v)| v)
        .expect("baseline cell");
    let best = pipelined
        .iter()
        .filter(|&&(r, d, _)| r == 4 && d >= 16)
        .map(|&(_, _, v)| v)
        .fold(0.0f64, f64::max);
    let ratio = best / baseline;
    println!("# pipelined 4-reactor best vs 1-reactor depth-1 baseline: {ratio:.2}x");
    if assert_scaling {
        assert!(
            ratio >= 2.0,
            "pipelined 4-reactor throughput ({best:.0} reqs/s) is below 2x the \
             single-reactor depth-1 baseline ({baseline:.0} reqs/s): {ratio:.2}x"
        );
    }
    let _ = std::io::stdout().flush();
}
