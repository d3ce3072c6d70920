//! `daemon_rtt` and `daemon_pipelined`: the daemon's request path over the
//! UNIX socket, once for latency and once for throughput.
//!
//! `daemon_rtt` is what an application sees per daemon call — the real
//! client at depth 1, so `core::client`, the `proto` codec, `puddled::uds`
//! wake-ups and `service` all sit on the critical path and nothing queues.
//! `daemon_pipelined` keeps 2 x 32 requests in flight from raw protocol-v2
//! connections, so wake-up latency hides and the codec and the
//! reactor/worker hand-off set the rate, with the WAL group-committing a
//! registration for every 63 pings alongside. A batching change that buys
//! throughput with depth-1 latency moves the two in opposite directions.

use super::{served, service_series, Ctx, Metrics, Verdict, Window, Workload};
use crate::env::DirGuard;
use crate::probes::Probe;
use crate::stats::{self, process_cpu_ns};
use crate::trace::Tracer;
use puddled::{Daemon, DaemonConfig, UdsServer};
use puddles::{PoolOptions, PuddleClient};
use puddles_proto::frame::{decode_frame, encode_frame, frame_len, V2_MAGIC};
use puddles_proto::{
    Credentials, PtrField, PtrMapDecl, Request, RequestEnvelope, Response, ServerFrame,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Length of one window of either workload. Windows are timed, not
/// counted: a daemon call costs 30 us or 1 ms depending on whether it
/// reaches the WAL and on what is behind `fsync`, and a window must hold
/// hundreds of calls either way.
const WINDOW: Duration = Duration::from_millis(250);

fn window_length(smoke: bool) -> Duration {
    if smoke {
        Duration::from_millis(20)
    } else {
        WINDOW
    }
}

/// A handshaken raw protocol-v2 connection.
fn connect_v2(socket: &Path) -> UnixStream {
    let mut stream = UnixStream::connect(socket).expect("connect to daemon socket");
    stream.write_all(&V2_MAGIC).expect("send v2 magic");
    let mut untraced = Tracer::new(Instant::now());
    let hello = Request::hello(Credentials::current_process());
    send(&mut stream, 0, hello, &mut untraced);
    let (id, resp) = receive(&mut stream, &mut untraced);
    assert!(
        id == 0 && matches!(resp, Response::Welcome { .. }),
        "{resp:?}"
    );
    stream
}

/// Encodes and writes one enveloped request; the two halves are separate
/// spans because one is `proto`'s cost and the other the socket's.
fn send(stream: &mut UnixStream, req_id: u64, req: Request, tracer: &mut Tracer) {
    let bytes = tracer.span("proto.encode", 1, |_| {
        encode_frame(&RequestEnvelope { req_id, req }).expect("encode request")
    });
    tracer.span("puddled.uds.write", 1, |_| {
        stream.write_all(&bytes).expect("write request")
    });
}

/// Reads and decodes one enveloped response.
fn receive(stream: &mut UnixStream, tracer: &mut Tracer) -> (u64, Response) {
    let body = tracer.span("puddled.uds.read_wait", 1, |_| {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).expect("read frame length");
        let mut body = vec![0u8; frame_len(len).expect("frame length")];
        stream.read_exact(&mut body).expect("read frame body");
        body
    });
    let frame = tracer.span("proto.decode", 1, |_| {
        decode_frame::<ServerFrame>(&body).expect("decode response")
    });
    match frame {
        ServerFrame::Enveloped(env) => (env.req_id, env.resp),
        ServerFrame::Bare(resp) => panic!("bare frame on a v2 connection: {resp:?}"),
    }
}

// ---------------------------------------------------------------------
// daemon_rtt
// ---------------------------------------------------------------------

const STANDING_POOL: &str = "standing";
const CYCLE_POOL: &str = "cycle";
/// Calls in one repetition of the pattern: 12 pings, 3 `open_pool`s of the
/// standing pool (handle dropped) and one create -> drop -> `drop_pool`.
const PATTERN: u64 = 16;

#[derive(Default)]
struct CallCounts {
    pings: u64,
    opens: u64,
    cycles: u64,
}

pub struct DaemonRtt {
    client: PuddleClient,
    server: UdsServer,
    daemon: Daemon,
    window: Duration,
    sent: CallCounts,
    ping_ns: Vec<u64>,
    open_ns: Vec<u64>,
    cycle_ns: Vec<u64>,
    _dir: DirGuard,
}

impl DaemonRtt {
    /// Makes the final check expect a request the daemon never served.
    #[cfg(test)]
    pub fn corrupt_expectation(&mut self) {
        self.sent.pings += 1;
    }
}

impl Workload for DaemonRtt {
    const PROBES: &'static [Probe] = &[Probe::Codec, Probe::Service, Probe::Wal, Probe::SpaceAlloc];

    fn setup(ctx: &Ctx<'_>, _seed: u64) -> Self {
        let dir = ctx.root.fresh_dir("rtt");
        let daemon = Daemon::start(DaemonConfig::for_testing(&dir)).expect("start daemon");
        let socket = dir.join("d.sock");
        let server = UdsServer::start(daemon.clone(), &socket).expect("start server");
        let client =
            PuddleClient::connect_uds_shared(&socket, daemon.global_space()).expect("connect");
        drop(
            client
                .create_pool(STANDING_POOL, PoolOptions::default())
                .expect("create standing pool"),
        );
        DaemonRtt {
            client,
            server,
            daemon,
            window: window_length(ctx.smoke),
            sent: CallCounts::default(),
            ping_ns: Vec::new(),
            open_ns: Vec::new(),
            cycle_ns: Vec::new(),
            _dir: DirGuard(dir),
        }
    }

    fn window(&mut self, tracer: &mut Tracer) -> Window {
        let mut lat_ns = Vec::new();
        let mut failed = 0u64;
        let client = &self.client;
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        while t0.elapsed() < self.window {
            for slot in 0..PATTERN {
                tracer.next_op();
                let c0 = Instant::now();
                let (ok, samples) = match slot {
                    15 => {
                        self.sent.cycles += 1;
                        let ok = tracer.span("core.client.pool_cycle", 1, |_| {
                            client
                                .create_pool(CYCLE_POOL, PoolOptions::default())
                                .map(drop)
                                .and_then(|()| client.drop_pool(CYCLE_POOL))
                                .is_ok()
                        });
                        (ok, &mut self.cycle_ns)
                    }
                    3 | 7 | 11 => {
                        self.sent.opens += 1;
                        let ok = tracer.span("core.client.open_pool", 1, |_| {
                            client.open_pool(STANDING_POOL).is_ok()
                        });
                        (ok, &mut self.open_ns)
                    }
                    _ => {
                        self.sent.pings += 1;
                        let ok = tracer.span("core.client.ping", 1, |_| client.ping().is_ok());
                        (ok, &mut self.ping_ns)
                    }
                };
                let ns = c0.elapsed().as_nanos() as u64;
                samples.push(ns);
                lat_ns.push(ns);
                failed += u64::from(!ok);
            }
        }
        Window {
            ops: lat_ns.len() as u64,
            failed,
            wall_ns: t0.elapsed().as_nanos() as u64,
            cpu_ns: process_cpu_ns() - cpu0,
            prep_ns: 0,
            lat_ns,
        }
    }

    fn begin_measure(&mut self) {
        self.ping_ns.clear();
        self.open_ns.clear();
        self.cycle_ns.clear();
    }

    fn layer_metrics(&mut self, _tracer: &Tracer, out: &mut Metrics) {
        for samples in [&mut self.ping_ns, &mut self.open_ns, &mut self.cycle_ns] {
            samples.sort_unstable();
        }
        let us = |ns: u64| ns as f64 / 1e3;
        out.insert(
            "core.client.ping_p50_us",
            us(stats::percentile(&self.ping_ns, 50.0)),
        );
        out.insert(
            "core.client.ping_p99_us",
            us(stats::percentile(&self.ping_ns, 99.0)),
        );
        out.insert(
            "core.client.open_pool_p50_us",
            us(stats::percentile(&self.open_ns, 50.0)),
        );
        out.insert(
            "core.client.pool_cycle_p50_us",
            us(stats::percentile(&self.cycle_ns, 50.0)),
        );
        out.insert(
            "core.client.pool_cycle_p99_us",
            us(stats::percentile(&self.cycle_ns, 99.0)),
        );

        // The same socket without the client library: a raw connection,
        // one enveloped ping in flight.
        let mut raw = connect_v2(self.server.socket_path());
        let mut idle = Tracer::new(Instant::now());
        let mut rtt_ns: Vec<u64> = (1..=2_000u64)
            .map(|id| {
                let t0 = Instant::now();
                send(&mut raw, id, Request::Ping, &mut idle);
                let (got, resp) = receive(&mut raw, &mut idle);
                assert!(got == id && !matches!(resp, Response::Error { .. }));
                self.sent.pings += 1;
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        let rtt_us = us(stats::p50(&mut rtt_ns));
        out.insert("puddled.uds.raw_rtt_p50_us", rtt_us);
        // What the socket and the wake-ups cost: a raw round trip less the
        // service time and the four codec passes a ping takes (request and
        // response, each encoded once and decoded once), as the probes
        // measured them.
        let inside_ns = 2.0 * (out["proto.encode_ping_ns"] + out["proto.decode_ping_ns"])
            + out["puddled.service.handle_ping_ns"];
        out.insert(
            "puddled.uds.transport_share",
            1.0 - inside_ns / (rtt_us * 1e3),
        );

        let report = self.client.metrics().expect("daemon metrics");
        service_series(&report, out);
        let stats = self.client.stats().expect("daemon stats");
        out.insert(
            "puddled.alloc.fragmentation_bp",
            stats.fragmentation_bp as f64,
        );
    }

    /// Every call answered without error (counted per window), and the
    /// daemon's own per-kind request counts equal the calls sent.
    fn finish(self) -> Verdict {
        let mut verdict = Verdict::default();
        let report = self.client.metrics().expect("daemon metrics");
        let stats = self.client.stats().expect("daemon stats");
        let sent = &self.sent;
        for (kind, want) in [
            ("service.Ping", sent.pings),
            ("service.OpenPool", sent.opens),
            ("service.CreatePool", sent.cycles + 1),
            ("service.DropPool", sent.cycles),
        ] {
            let got = served(&report, kind);
            verdict.check(got == want, || {
                format!("daemon served {got} {kind}, {want} were sent")
            });
        }
        verdict.check(stats.pools == 1, || {
            format!("{} pools left, expected the standing one", stats.pools)
        });
        let handled: u64 = stats.reactor_requests.iter().sum();
        let calls = sent.pings + sent.opens + 2 * sent.cycles;
        verdict.check(handled >= calls, || {
            format!("reactors handled {handled} requests, at least {calls} were sent")
        });
        verdict.invariants(&self.daemon);
        let DaemonRtt {
            client,
            mut server,
            daemon,
            _dir,
            ..
        } = self;
        drop(client);
        server.shutdown();
        drop((server, daemon));
        verdict
    }
}

// ---------------------------------------------------------------------
// daemon_pipelined
// ---------------------------------------------------------------------

const CONNECTIONS: usize = 2;
const DEPTH: usize = 32;
/// Pointer-map type ids each connection rotates through; re-registering a
/// known id is still a WAL append, and the registry stays the same size.
const TYPE_SLOTS: u64 = 32;
/// One request in this many is a `RegisterPtrMap`, the rest are pings. At
/// 1 in 4 the WAL's `fsync` sets the rate wherever the PM root is on a disk
/// (about 5k appends a second here, so 22-36k requests a second, flipping
/// between one and two records per group commit for seconds at a time); at
/// 1 in 64 the WAL still takes some 2,000 appends a second next to the
/// pings, but the request path sets the rate.
const REG_EVERY: u64 = 64;

/// One raw connection and the request stream it sends.
struct Pipe {
    stream: UnixStream,
    index: u64,
    next_id: u64,
    sent: u64,
    pings: u64,
    regs: u64,
}

impl Pipe {
    /// The next request of the 63 Ping : 1 RegisterPtrMap stream.
    fn next_request(&mut self) -> (Request, bool) {
        self.sent += 1;
        if self.sent.is_multiple_of(REG_EVERY) {
            let slot = self.regs % TYPE_SLOTS;
            self.regs += 1;
            let decl = PtrMapDecl {
                type_id: 0xBE4C_0000 + self.index * 64 + slot,
                type_name: format!("benchmark::Churn{}x{slot}", self.index),
                size: 64,
                fields: vec![PtrField {
                    offset: 8 * (self.regs % 4),
                    target_type: 0,
                }],
            };
            (Request::RegisterPtrMap { decl }, false)
        } else {
            self.pings += 1;
            (Request::Ping, true)
        }
    }

    /// Keeps `DEPTH` requests in flight until `deadline`, then drains.
    /// Returns (requests completed, failures, ping latencies).
    fn drive(&mut self, deadline: Instant, tracer: &mut Tracer) -> (u64, u64, Vec<u64>) {
        let mut in_flight: HashMap<u64, (Instant, bool)> = HashMap::with_capacity(DEPTH);
        let mut ping_ns = Vec::new();
        let (mut done, mut failed) = (0u64, 0u64);
        loop {
            let open = Instant::now() < deadline;
            while open && in_flight.len() < DEPTH {
                tracer.next_op();
                let (req, is_ping) = self.next_request();
                self.next_id += 1;
                in_flight.insert(self.next_id, (Instant::now(), is_ping));
                send(&mut self.stream, self.next_id, req, tracer);
            }
            if in_flight.is_empty() {
                return (done, failed, ping_ns);
            }
            let (id, resp) = receive(&mut self.stream, tracer);
            let (sent_at, is_ping) = in_flight.remove(&id).expect("response to a sent request");
            done += 1;
            // A ping is answered with `Welcome`, a registration with `Ok`.
            let ok = match resp {
                Response::Welcome { .. } => is_ping,
                Response::Ok => !is_ping,
                _ => false,
            };
            failed += u64::from(!ok);
            if is_ping {
                ping_ns.push(sent_at.elapsed().as_nanos() as u64);
            }
        }
    }
}

pub struct DaemonPipelined {
    pipes: Vec<Pipe>,
    client: PuddleClient,
    server: UdsServer,
    daemon: Daemon,
    window: Duration,
    flushes_at_start: u64,
    regs_at_start: u64,
    checkpoints_at_start: u64,
    _dir: DirGuard,
}

impl DaemonPipelined {
    fn regs(&self) -> u64 {
        self.pipes.iter().map(|p| p.regs).sum()
    }

    /// Makes the final check expect a request the daemon never served.
    #[cfg(test)]
    pub fn corrupt_expectation(&mut self) {
        self.pipes[0].regs += 1;
    }
}

impl Workload for DaemonPipelined {
    const PROBES: &'static [Probe] = &[Probe::Codec, Probe::Service, Probe::Wal];

    fn setup(ctx: &Ctx<'_>, _seed: u64) -> Self {
        let dir = ctx.root.fresh_dir("pipe");
        let daemon = Daemon::start(DaemonConfig::for_testing(&dir)).expect("start daemon");
        let socket = dir.join("d.sock");
        let server = UdsServer::start(daemon.clone(), &socket).expect("start server");
        let pipes = (0..CONNECTIONS as u64)
            .map(|index| Pipe {
                stream: connect_v2(&socket),
                index,
                next_id: 0,
                sent: 0,
                pings: 0,
                regs: 0,
            })
            .collect();
        // In-process, so reading the daemon's counters adds no socket traffic.
        let client = PuddleClient::connect_local(&daemon).expect("connect");
        DaemonPipelined {
            pipes,
            client,
            server,
            daemon,
            window: window_length(ctx.smoke),
            flushes_at_start: 0,
            regs_at_start: 0,
            checkpoints_at_start: 0,
            _dir: DirGuard(dir),
        }
    }

    fn window(&mut self, tracer: &mut Tracer) -> Window {
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let deadline = t0 + self.window;
        let results: Vec<_> = std::thread::scope(|scope| {
            let drivers: Vec<_> = self
                .pipes
                .iter_mut()
                .map(|pipe| {
                    let mut local = tracer.fork();
                    scope.spawn(move || {
                        let result = pipe.drive(deadline, &mut local);
                        (result, local)
                    })
                })
                .collect();
            drivers
                .into_iter()
                .map(|d| d.join().expect("connection driver panicked"))
                .collect()
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu0;
        let mut window = Window {
            wall_ns,
            cpu_ns,
            ..Window::default()
        };
        for ((done, failed, mut ping_ns), local) in results {
            window.ops += done;
            window.failed += failed;
            window.lat_ns.append(&mut ping_ns);
            tracer.merge(local);
        }
        window
    }

    fn begin_measure(&mut self) {
        let report = self.client.metrics().expect("daemon metrics");
        self.flushes_at_start = served(&report, "wal.flush");
        self.regs_at_start = self.regs();
        self.checkpoints_at_start = self.client.stats().expect("daemon stats").checkpoints;
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Metrics) {
        out.insert(
            "proto.encode_under_load_ns",
            tracer.totals("proto.encode").ns_per_unit(),
        );
        out.insert(
            "proto.decode_under_load_ns",
            tracer.totals("proto.decode").ns_per_unit(),
        );
        out.insert(
            "puddled.uds.write_under_load_ns",
            tracer.totals("puddled.uds.write").ns_per_unit(),
        );
        out.insert(
            "puddled.uds.read_wait_under_load_us",
            tracer.totals("puddled.uds.read_wait").ns_per_unit() / 1e3,
        );
        let report = self.client.metrics().expect("daemon metrics");
        service_series(&report, out);
        let flushes = served(&report, "wal.flush") - self.flushes_at_start;
        out.insert(
            "puddled.wal.reqs_per_flush",
            (self.regs() - self.regs_at_start) as f64 / flushes.max(1) as f64,
        );
        if let Some(flush) = report.series("wal.flush") {
            out.insert("puddled.wal.flush_p99_us", flush.p99_nanos as f64 / 1e3);
        }
        if let Some(checkpoint) = report.series("checkpoint") {
            out.insert(
                "puddled.checkpoint.p99_ms",
                checkpoint.p99_nanos as f64 / 1e6,
            );
        }
        let stats = self.client.stats().expect("daemon stats");
        out.insert(
            "puddled.checkpoint.count",
            (stats.checkpoints - self.checkpoints_at_start) as f64,
        );
        let busiest = stats.reactor_requests.iter().max().copied().unwrap_or(0);
        let idlest = stats.reactor_requests.iter().min().copied().unwrap_or(0);
        out.insert(
            "puddled.uds.reactor_request_skew",
            busiest as f64 / idlest.max(1) as f64,
        );
        out.insert(
            "puddled.alloc.fragmentation_bp",
            stats.fragmentation_bp as f64,
        );
    }

    /// Every response was the non-error answer to its request (counted per
    /// window), and the daemon's counts equal the requests sent.
    fn finish(self) -> Verdict {
        let mut verdict = Verdict::default();
        let report = self.client.metrics().expect("daemon metrics");
        let stats = self.client.stats().expect("daemon stats");
        let pings: u64 = self.pipes.iter().map(|p| p.pings).sum();
        for (kind, want) in [
            ("service.Ping", pings),
            ("service.RegisterPtrMap", self.regs()),
        ] {
            let got = served(&report, kind);
            verdict.check(got == want, || {
                format!("daemon served {got} {kind}, {want} were sent")
            });
        }
        let types: u64 = self.pipes.iter().map(|p| p.regs.min(TYPE_SLOTS)).sum();
        verdict.check(stats.ptr_maps == types, || {
            format!(
                "{} pointer maps registered, expected {types}",
                stats.ptr_maps
            )
        });
        let handled: u64 = stats.reactor_requests.iter().sum();
        verdict.check(handled >= pings + self.regs(), || {
            format!("reactors handled {handled} requests, fewer than were sent")
        });
        verdict.invariants(&self.daemon);
        let DaemonPipelined {
            pipes,
            client,
            mut server,
            daemon,
            _dir,
            ..
        } = self;
        drop((pipes, client));
        server.shutdown();
        drop((server, daemon));
        verdict
    }
}
