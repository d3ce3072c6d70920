//! Reactor-runtime edge cases: frame reassembly over the wire, slow-reader
//! isolation, connection counts beyond the old thread cap, half-close
//! semantics, the checkpoint on the crossing commit (landed on return, a
//! kill before its rename, eight connections mutating across it), and the
//! pipelined runtime (out-of-order completion across dispatch lanes,
//! pipelined backpressure on the inline path, an inline request waiting its
//! turn behind a full window, shutdown with responses in flight, refusal
//! of peers that skip the preamble, `Busy` rejection at the connection
//! cap), and the peer's kernel-verified identity overriding whatever its
//! `Hello` claims.

use puddled::{Daemon, DaemonConfig, UdsServer, MAX_PIPELINED_REQUESTS};
use puddles_pmem::faultio::{CrashPoint, FaultPlan, FaultProfile};
use puddles_proto::frame::encode_frame;
use puddles_proto::{
    read_frame, write_frame, BlockingConn, Credentials, ErrorCode, MetricsReport, PtrField,
    PtrMapDecl, PuddlePurpose, Request, RequestEnvelope, Response, ServerFrame,
};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server() -> (tempfile::TempDir, Daemon, UdsServer, std::path::PathBuf) {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("reactor.sock");
    let server = UdsServer::start(daemon.clone(), &socket).unwrap();
    (tmp, daemon, server, socket)
}

type Conn = BlockingConn<UnixStream>;

/// Opens a connection: preamble, enveloped `Hello`, `Welcome` back.
fn hello(socket: &std::path::Path) -> Conn {
    let stream = UnixStream::connect(socket).unwrap();
    BlockingConn::handshake(stream, Request::hello(Credentials::current_process())).unwrap()
}

/// One enveloped request frame, for tests that write raw bytes.
fn env_frame(req_id: u64, req: Request) -> Vec<u8> {
    encode_frame(&RequestEnvelope { req_id, req }).unwrap()
}

/// Reads `n` responses and returns them sorted by request id.
fn recv_sorted(conn: &mut Conn, n: usize) -> Vec<(u64, Response)> {
    let mut got: Vec<(u64, Response)> = (0..n).map(|_| conn.recv().unwrap()).collect();
    got.sort_by_key(|(req_id, _)| *req_id);
    got
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn metrics(daemon: &Daemon) -> MetricsReport {
    match daemon.handle(Credentials::current_process(), Request::GetMetrics) {
        Response::Metrics(report) => report,
        other => panic!("unexpected {other:?}"),
    }
}

/// One `GetMetrics` counter.
fn counter(daemon: &Daemon, name: &str) -> u64 {
    metrics(daemon).counter(name).expect(name)
}

/// Checkpoints the daemon has written: its `checkpoint` series' count.
fn checkpoints(daemon: &Daemon) -> u64 {
    metrics(daemon).series("checkpoint").map_or(0, |s| s.count)
}

/// Every field the retired `Stats` request reported is a `GetMetrics` row
/// (their values were checked equal, both read from one daemon, before
/// `Stats` went): here a socket server, a rejected and a reconnecting
/// client, a swept orphan, checkpoints and a fragmented
/// allocator stand behind each row.
#[test]
fn every_stats_field_is_a_metric() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let orphan = daemon.pm_dir().create_puddle_file("00000000deadbeef", 8192);
        orphan.unwrap();
    }
    let daemon = Daemon::start(config).unwrap();
    daemon.wal().set_checkpoint_threshold(512);
    let socket = tmp.path().join("equivalence.sock");
    let mut server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 3).unwrap();
    let mut conns: Vec<Conn> = (0..3).map(|_| hello(&socket)).collect();
    let mut extra = UnixStream::connect(&socket).unwrap();
    assert!(read_frame::<_, ServerFrame>(&mut extra).is_ok(), "Busy");
    assert!(read_frame::<_, ServerFrame>(&mut extra).is_err(), "EOF");
    let reconnect = Request::Hello {
        creds: Credentials::current_process(),
        reconnect: true,
    };
    assert!(matches!(
        conns[1].call(reconnect).unwrap(),
        Response::Welcome { .. }
    ));

    let conn = &mut conns[0];
    let create = Request::CreatePool {
        name: "p".into(),
        root_size: 1 << 20,
        mode: 0o600,
    };
    assert!(matches!(conn.call(create).unwrap(), Response::Pool(_)));
    let mut puddles = Vec::new();
    for _ in 0..8 {
        let create = Request::CreatePuddle {
            size: 2 * 4096,
            pool: Some("p".into()),
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        };
        let Response::Puddle(info) = conn.call(create).unwrap() else {
            panic!("puddle creation failed");
        };
        puddles.push(info.id);
    }
    for id in puddles.iter().step_by(2) {
        assert_eq!(
            conn.call(Request::FreePuddle { id: *id }).unwrap(),
            Response::Ok
        );
    }
    for type_id in 0..4 {
        let decl = PtrMapDecl {
            type_id,
            type_name: format!("equivalence::{type_id}"),
            size: 64,
            fields: Vec::new(),
        };
        assert_eq!(
            conn.call(Request::RegisterPtrMap { decl }).unwrap(),
            Response::Ok
        );
    }
    let log_space = Request::CreatePuddle {
        size: 1 << 20,
        pool: None,
        purpose: PuddlePurpose::LogSpace,
        mode: 0o600,
    };
    let Response::Puddle(log_space) = conn.call(log_space).unwrap() else {
        panic!("log-space creation failed");
    };
    let register = Request::RegLogSpace {
        puddle: log_space.id,
    };
    assert_eq!(conn.call(register).unwrap(), Response::Ok);

    // The state rows, against their sources; the event rows, against what
    // this test did.
    let m = metrics(&daemon);
    let counter = |name| m.counter(name).unwrap_or_else(|| panic!("no `{name}`"));
    let data = daemon.registry().snapshot();
    let tables = [
        ("registry.puddles", data.puddles.len() as u64),
        ("registry.pools", 1),
        ("registry.ptr_maps", 4),
        ("registry.log_spaces", 1),
        (
            "space.used_bytes",
            data.puddles.values().map(|p| p.size).sum(),
        ),
        ("space.total_bytes", daemon.global_space().size() as u64),
        ("wal.tail_bytes", daemon.wal().stats().bytes),
        ("wal.tail_records", daemon.wal().stats().records),
        ("sweep.orphan_files", 1),
        ("connections_rejected", 1),
        ("client_reconnects", 1),
    ];
    for (name, value) in tables {
        assert_eq!(counter(name), value, "{name}");
    }
    let free = data.free_list.iter().map(|&(_, len)| len).sum::<u64>();
    assert_eq!(counter("alloc.free_bytes"), free);
    assert_eq!(counter("alloc.free_extents"), data.free_list.len() as u64);
    assert!(counter("alloc.fragmentation_bp") > 0);
    for name in [
        "io.retries",
        "io.transient_errors",
        "io.enospc_rejections",
        "sweep.log_puddles",
    ] {
        assert_eq!(counter(name), 0, "{name}");
    }
    assert!(m.series("checkpoint").is_some_and(|s| s.count > 1));
    assert_eq!(counter("uds.connections"), 3);
    // Over the socket: four `Hello`s (one a reconnect) ran inline; the
    // pool, nine puddles, four frees, four registrations and the log-space
    // registration were queued.
    let sent = 4 + 1 + 9 + 4 + 4 + 1;
    assert!(counter("uds.inline") + counter("uds.queued") >= sent);
    drop(conns);
    server.shutdown();
}

/// Frames arriving split at arbitrary byte boundaries — including a
/// one-byte trickle with delays — must reassemble and be served exactly as
/// a whole frame (partial-read state machine).
#[test]
fn frames_split_across_write_boundaries_are_served() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    let mut conn = hello(&socket);

    let frame = env_frame(
        100,
        Request::CreatePool {
            name: "trickle".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    );
    // Trickle the frame: the length prefix split mid-way, then odd chunks.
    for chunk in frame.chunks(3) {
        conn.stream().write_all(chunk).unwrap();
        conn.stream().flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let (req_id, resp) = conn.recv().unwrap();
    assert_eq!(req_id, 100);
    assert!(matches!(resp, Response::Pool(_)), "{resp:?}");

    // Several frames coalesced into one write also all get served, each
    // answered under its own id.
    let mut batch = Vec::new();
    for req_id in 1..=5 {
        batch.extend_from_slice(&env_frame(req_id, Request::Ping));
    }
    batch.extend_from_slice(&env_frame(
        6,
        Request::OpenPool {
            name: "trickle".into(),
        },
    ));
    conn.stream().write_all(&batch).unwrap();
    let got = recv_sorted(&mut conn, 6);
    assert_eq!(
        got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        (1..=6).collect::<Vec<_>>()
    );
    for (_, resp) in &got[..5] {
        assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    }
    assert!(matches!(got[5].1, Response::Pool(_)), "{:?}", got[5].1);
    server.shutdown();
}

/// A peer that requests large responses and never reads them must stall
/// only itself: its responses park in a bounded output buffer (then
/// backpressure pauses its reads), while other connections keep getting
/// sub-second service. When the stalled peer finally reads, it receives
/// every response intact.
#[test]
fn stalled_reader_does_not_block_other_connections() {
    let (_tmp, daemon, mut server, socket) = start_server();

    // Make GetPtrMaps responses fat: ~100 maps with 2 KiB names.
    let creds = Credentials::current_process();
    for i in 0..100u64 {
        let decl = PtrMapDecl {
            type_id: 1000 + i,
            type_name: format!("stall::{}::{}", i, "x".repeat(2048)),
            size: 64,
            fields: vec![PtrField {
                offset: 8,
                target_type: 1000 + i,
            }],
        };
        match daemon.handle(creds, Request::RegisterPtrMap { decl }) {
            Response::Ok => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // The stalled peer pipelines 20 fat requests and reads nothing.
    let mut stalled = hello(&socket);
    const PIPELINED: usize = 20;
    let mut batch = Vec::new();
    for req_id in 0..PIPELINED as u64 {
        batch.extend_from_slice(&env_frame(req_id, Request::GetPtrMaps));
    }
    stalled.stream().write_all(&batch).unwrap();

    // Meanwhile a well-behaved peer gets prompt service.
    let mut live = hello(&socket);
    for _ in 0..20 {
        let t0 = Instant::now();
        let resp = live.call(Request::Ping).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "ping stalled behind another connection's unread responses"
        );
    }

    // The stalled peer's responses were parked, not dropped: reading now
    // yields all 20 — every id once — each carrying the full 100 maps.
    let got = recv_sorted(&mut stalled, PIPELINED);
    for (i, (req_id, resp)) in got.into_iter().enumerate() {
        assert_eq!(req_id, i as u64);
        match resp {
            Response::PtrMaps(maps) => assert_eq!(maps.len(), 100),
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
}

/// Far more simultaneous connections than the old 256-thread cap, all
/// served by one reactor + a fixed worker pool.
#[test]
fn connections_beyond_the_old_thread_cap_are_served() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    const CONNS: usize = 300;
    let mut streams: Vec<Conn> = (0..CONNS).map(|_| hello(&socket)).collect();
    assert!(server.active_connections() >= CONNS);
    // Every connection stays live and answers across several rounds.
    for round in 0..3 {
        for conn in &mut streams {
            conn.send(round, Request::Ping).unwrap();
        }
        for conn in &mut streams {
            let (req_id, resp) = conn.recv().unwrap();
            assert_eq!(req_id, round);
            assert!(matches!(resp, Response::Welcome { .. }));
        }
    }
    drop(streams);
    server.shutdown();
}

/// A peer that pipelines requests and half-closes (shutdown of its write
/// side) still receives every response before the connection is dropped.
#[test]
fn half_close_drains_pending_responses() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    let mut conn = hello(&socket);
    let mut batch = Vec::new();
    for req_id in 0..8 {
        batch.extend_from_slice(&env_frame(req_id, Request::Ping));
    }
    conn.stream().write_all(&batch).unwrap();
    conn.stream().shutdown(std::net::Shutdown::Write).unwrap();
    for (i, (req_id, resp)) in recv_sorted(&mut conn, 8).into_iter().enumerate() {
        assert_eq!(req_id, i as u64);
        assert!(matches!(resp, Response::Welcome { .. }));
    }
    // Clean EOF after the last response.
    assert!(conn.recv().is_err());
    server.shutdown();
}

fn create_pool(daemon: &Daemon, name: &str) -> Response {
    daemon.handle(
        Credentials::current_process(),
        Request::CreatePool {
            name: name.into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    )
}

/// A commit that crosses the byte threshold has checkpointed when it
/// returns: no thread to wait for, nothing to poll.
#[test]
fn a_commit_that_crosses_the_threshold_has_checkpointed_when_it_returns() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    daemon.wal().set_checkpoint_threshold(64);
    let before = checkpoints(&daemon);
    let resp = create_pool(&daemon, "crossing");
    assert!(matches!(resp, Response::Pool(_)), "{resp:?}");
    assert_eq!(checkpoints(&daemon), before + 1);
    assert!(counter(&daemon, "wal.tail_bytes") < 64);
}

/// Kill during a checkpoint, at its one boundary: the compacted file is
/// written and fsynced beside the WAL but not yet renamed over it. The
/// request whose commit ran it is still acknowledged, the failure is
/// counted, the WAL stays usable (the next crossing commit checkpoints),
/// and a restart replays the untouched WAL to exactly the pre-kill state,
/// ignoring the temp file left behind.
#[test]
fn kill_during_a_checkpoint_still_replays_registry() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let plan = FaultPlan::new(0, FaultProfile::default());
    let stale_tmp = tmp.path().join("meta").join("registry.wal.tmp");
    let failed = |daemon: &Daemon| daemon.metrics().counter("checkpoint.failed").load(Relaxed);
    let expected;
    {
        let daemon = Daemon::start(config.clone().with_fault_plan(Arc::clone(&plan))).unwrap();
        daemon.wal().set_checkpoint_threshold(64);
        let before = checkpoints(&daemon);
        plan.arm_crash(CrashPoint::MetaWriteBeforeRename, 0);
        let resp = create_pool(&daemon, "ckpt-crash");
        assert!(matches!(resp, Response::Pool(_)), "{resp:?}");
        assert_eq!(failed(&daemon), 1);
        assert!(stale_tmp.exists(), "the crash must leave its temp file");
        assert_eq!(checkpoints(&daemon), before);
        let tail = counter(&daemon, "wal.tail_bytes");
        assert!(tail >= 64, "the WAL is as the commit left it");

        // Not wedged: the next crossing commit retries and succeeds.
        let resp = create_pool(&daemon, "ckpt-retry");
        assert!(matches!(resp, Response::Pool(_)), "{resp:?}");
        assert_eq!(checkpoints(&daemon), before + 1);
        let records = counter(&daemon, "wal.tail_records");
        assert_eq!((records, failed(&daemon)), (0, 1));

        // Kill with the checkpoint interrupted again, the WAL holding the
        // one record it never folded.
        plan.arm_crash(CrashPoint::MetaWriteBeforeRename, 0);
        let resp = create_pool(&daemon, "ckpt-killed");
        assert!(matches!(resp, Response::Pool(_)), "{resp:?}");
        assert_eq!(failed(&daemon), 2);
        assert!(stale_tmp.exists());
        assert_eq!(plan.trace(), ["meta.write.before_rename: crash"; 2]);
        expected = daemon.registry().snapshot();
    }

    let daemon = Daemon::start(config).unwrap();
    assert!(
        !stale_tmp.exists(),
        "opening the WAL removes the stale temp file"
    );
    assert_eq!(daemon.registry().snapshot(), expected);
    assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());
}

/// `ckpt_lock`, the tables lock and the WAL's writer role cannot deadlock:
/// eight connections mutate through a server whose every third or fourth
/// commit checkpoints on the worker that ran it.
#[test]
fn concurrent_mutations_across_inline_checkpoints_all_land() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();
    daemon.wal().set_checkpoint_threshold(256);
    let socket = tmp.path().join("reactor.sock");
    let mut server = UdsServer::start(daemon.clone(), &socket).unwrap();
    const THREADS: u64 = 8;
    const MUTATIONS: u64 = 50;
    let clients: Vec<_> = (0..THREADS)
        .map(|t| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut conn = hello(&socket);
                for i in 0..MUTATIONS {
                    let type_id = t * MUTATIONS + i;
                    let decl = PtrMapDecl {
                        type_id,
                        type_name: format!("ckpt::{type_id}"),
                        size: 64,
                        fields: vec![PtrField {
                            offset: 8,
                            target_type: type_id,
                        }],
                    };
                    let resp = conn.call(Request::RegisterPtrMap { decl }).unwrap();
                    assert!(matches!(resp, Response::Ok), "{resp:?}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    server.shutdown();
    assert_eq!(counter(&daemon, "registry.ptr_maps"), THREADS * MUTATIONS);
    assert!(checkpoints(&daemon) >= 1);
    assert!(puddled::Invariants::check_all(daemon.registry()).is_empty());
    let live = daemon.registry().snapshot();
    drop((server, daemon));
    let reloaded = Daemon::start(config).unwrap();
    assert_eq!(reloaded.registry().snapshot(), live);
}

/// A peer that opens with anything but the preamble — a bare `Hello`
/// frame, or the previous generation's `PUD2` preamble and JSON body — is
/// told so once, in a bare frame, and closed; it costs the daemon nothing
/// afterwards and the next well-formed connection is served.
#[test]
fn a_connection_without_the_preamble_gets_one_typed_error_and_eof() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    let json_hello = br#"{"req_id":0,"req":{"Hello":{"creds":{"uid":0,"gid":0}}}}"#;
    let previous = [
        &b"PUD2"[..],
        &(json_hello.len() as u32).to_le_bytes(),
        json_hello,
    ]
    .concat();
    for opening in [None, Some(previous)] {
        let mut old = UnixStream::connect(&socket).unwrap();
        match &opening {
            None => write_frame(&mut old, &Request::hello(Credentials::current_process())).unwrap(),
            Some(bytes) => old.write_all(bytes).unwrap(),
        }
        match read_frame::<_, ServerFrame>(&mut old).unwrap() {
            ServerFrame::Bare(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::InvalidRequest);
                assert!(message.contains("PUD3"), "{message}");
            }
            other => panic!("expected a bare InvalidRequest error, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(
            old.read_to_end(&mut rest).unwrap(),
            0,
            "EOF after the error"
        );
        wait_until("refused connection released", || {
            server.active_connections() == 0
        });
    }

    let mut conn = hello(&socket);
    let resp = conn.call(Request::Ping).unwrap();
    assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    server.shutdown();
}

/// A peer that dies before it has sent even the four preamble bytes holds
/// no connection slot afterwards.
#[test]
fn a_peer_that_closes_mid_preamble_releases_its_slot() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    let mut peer = UnixStream::connect(&socket).unwrap();
    peer.write_all(b"PU").unwrap();
    wait_until("connection counted", || server.active_connections() == 1);
    drop(peer);
    wait_until("slot released", || server.active_connections() == 0);
    server.shutdown();
}

/// The two-lane queue's reason to exist: as many bulk-lane requests as the
/// worker pool can have threads (its clamp's ceiling, 8 — each an
/// `ExportPool` of its own 16 MiB pool) pipelined *before* eight fast-lane
/// `RegisterPtrMap`s must not capture every worker. Each export is made to
/// hold its worker for as long as the test likes — where its one file copy
/// comes from there is a FIFO, which opens only once the test opens the
/// other end — so this is no race: on a single queue, or with every worker
/// willing to take bulk work, all of them (2 or 8) sit in an export and no
/// registration ever runs. With the fast lane's reserved workers the
/// registrations run, commit, and their responses overtake the exports' on
/// the same connection, paired by id: all eight are acknowledged before
/// the first export is. (`Ping`, which this test used to send, has run
/// inline on the reactor since PR 15 and never met the queue.)
#[test]
fn a_full_bulk_lane_does_not_hold_up_fast_lane_registrations() {
    extern "C" {
        fn mkfifo(path: *const std::ffi::c_char, mode: u32) -> i32;
    }
    let (tmp, daemon, mut server, socket) = start_server();
    let creds = Credentials::current_process();
    const EXPORTS: u64 = 8;
    const REGISTRATIONS: u64 = 8;
    let mut conn = hello(&socket);
    let mut fifos = Vec::new();
    for req_id in 0..EXPORTS {
        let name = format!("bulky{req_id}");
        let create = Request::CreatePool {
            name: name.clone(),
            root_size: 16 << 20,
            mode: 0o600,
        };
        let pool = match daemon.handle(creds, create) {
            Response::Pool(pool) => pool,
            other => panic!("unexpected {other:?}"),
        };
        let fifo = daemon.pm_dir().puddle_path(&pool.root_puddle.to_hex());
        std::fs::remove_file(&fifo).unwrap();
        let path = std::ffi::CString::new(fifo.to_str().unwrap()).unwrap();
        // SAFETY: `path` is a NUL-terminated string that outlives the call.
        assert_eq!(unsafe { mkfifo(path.as_ptr(), 0o600) }, 0);
        fifos.push(fifo);
        let dest = tmp.path().join(format!("bulk-export-{req_id}"));
        let dest = dest.to_string_lossy().into_owned();
        conn.send(req_id, Request::ExportPool { name, dest })
            .unwrap();
    }
    for req_id in EXPORTS..EXPORTS + REGISTRATIONS {
        let decl = PtrMapDecl {
            type_id: 3000 + req_id,
            type_name: format!("lanes::T{req_id}"),
            size: 16,
            fields: Vec::new(),
        };
        conn.send(req_id, Request::RegisterPtrMap { decl }).unwrap();
    }

    // No export can answer yet, so whatever arrives is a registration; if
    // none can run, the reads time out instead of hanging the test.
    let patience = Some(Duration::from_secs(10));
    conn.stream().set_read_timeout(patience).unwrap();
    let mut first = Vec::new();
    while first.len() < REGISTRATIONS as usize {
        match conn.recv() {
            Ok(answer) => first.push(answer),
            Err(_) => break,
        }
    }
    // Let the exports go, whatever was seen above (a failure must not
    // leave workers stuck for `shutdown` to wait on): a writer per FIFO,
    // which opens once its export has opened the other end and closes at
    // once, so the export copies an empty file.
    for fifo in fifos {
        std::thread::spawn(move || {
            std::fs::OpenOptions::new().write(true).open(fifo).unwrap();
        });
    }
    let mut rest = Vec::new();
    while first.len() + rest.len() < (EXPORTS + REGISTRATIONS) as usize {
        rest.push(conn.recv().unwrap());
    }
    let ids = |answers: &[(u64, Response)]| {
        let mut ids = Vec::new();
        for (req_id, resp) in answers {
            assert!(matches!(resp, Response::Ok), "{req_id}: {resp:?}");
            ids.push(*req_id);
        }
        ids.sort_unstable();
        ids
    };
    assert_eq!(
        (ids(&first), ids(&rest)),
        (
            (EXPORTS..EXPORTS + REGISTRATIONS).collect(),
            (0..EXPORTS).collect()
        ),
        "the registrations waited behind the exports — bulk work is not \
         confined to its lane's workers"
    );
    server.shutdown();
}

/// A pipelined peer that sends four request windows' worth of fat
/// `GetPtrMaps` in one write and reads nothing must stall only itself.
/// These run on the reactor, so the in-flight window never fills; what
/// bounds the daemon's buffering is the output high-water mark: it stops
/// executing the peer's requests (and reading more) at 1 MiB of parked
/// output plus the response that crossed the mark. Other connections keep
/// sub-second service, and once the stalled peer reads, all responses
/// arrive intact with each id exactly once.
#[test]
fn stalled_pipelined_reader_hits_high_water_without_losing_responses() {
    let (_tmp, daemon, mut server, socket) = start_server();
    let creds = Credentials::current_process();
    for i in 0..100u64 {
        let decl = PtrMapDecl {
            type_id: 2000 + i,
            type_name: format!("v2stall::{}::{}", i, "y".repeat(2048)),
            size: 64,
            fields: vec![PtrField {
                offset: 8,
                target_type: 2000 + i,
            }],
        };
        match daemon.handle(creds, Request::RegisterPtrMap { decl }) {
            Response::Ok => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // ~200 KiB responses, 256 of them: ~50 MiB in total, far past the
    // 1 MiB high-water, requested by ~10 KiB that the daemon takes in with
    // one read.
    let mut stalled = hello(&socket);
    const DEPTH: u64 = 4 * puddled::MAX_PIPELINED_REQUESTS as u64;
    let mut batch = Vec::new();
    for req_id in 1..=DEPTH {
        batch.extend_from_slice(&env_frame(req_id, Request::GetPtrMaps));
    }
    stalled.stream().write_all(&batch).unwrap();

    let mut live = hello(&socket);
    for _ in 0..20 {
        let t0 = Instant::now();
        let resp = live.call(Request::Ping).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "ping stalled behind a pipelined peer's unread responses"
        );
    }

    let mut response_len = 0;
    let mut seen: Vec<u64> = (0..DEPTH)
        .map(|_| {
            let (req_id, resp) = stalled.recv().unwrap();
            response_len = encode_frame(&resp).unwrap().len() as u64;
            match resp {
                Response::PtrMaps(maps) => assert_eq!(maps.len(), 100),
                other => panic!("unexpected {other:?}"),
            }
            req_id
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (1..=DEPTH).collect::<Vec<_>>());

    // The bare response is a few bytes short of its enveloped frame.
    let parked_hwm = daemon
        .metrics()
        .counter("uds.out_parked_hwm")
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        parked_hwm >= 1 << 20,
        "never reached the mark: {parked_hwm}"
    );
    assert!(
        parked_hwm <= (1 << 20) + response_len + 64,
        "{parked_hwm} bytes parked for one connection; one response is {response_len}"
    );
    server.shutdown();
}

/// An inline request parsed behind a full window of worker-bound requests
/// on the same connection keeps its place in line: it runs — on the
/// reactor, from the completion event — as soon as one of them finishes,
/// so the response that frees the slot is written before the ping's.
#[test]
fn an_inline_request_behind_a_full_window_runs_when_a_slot_frees() {
    let (_tmp, daemon, mut server, socket) = start_server();
    let mut conn = hello(&socket);
    let window = MAX_PIPELINED_REQUESTS as u64;
    // One write, so the ping is parsed in the same round as the requests
    // that fill the window ahead of it.
    let mut batch = Vec::new();
    for req_id in 1..=window {
        batch.extend_from_slice(&env_frame(req_id, Request::GetMetrics));
    }
    let ping = window + 1;
    batch.extend_from_slice(&env_frame(ping, Request::Ping));
    conn.stream().write_all(&batch).unwrap();

    let (req_id, resp) = conn.recv().unwrap();
    assert_ne!(req_id, ping, "the ping overtook a full window: {resp:?}");
    assert!(matches!(resp, Response::Metrics(_)), "{resp:?}");
    let mut rest = recv_sorted(&mut conn, window as usize);
    let (req_id, resp) = rest.pop().unwrap();
    assert_eq!(req_id, ping);
    assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    let inline = daemon.metrics().counter("uds.inline");
    // The handshake and the ping.
    assert_eq!(inline.load(std::sync::atomic::Ordering::Relaxed), 2);
    server.shutdown();
}

/// Shutdown with a request in flight on each of 32 connections: every
/// connection still receives its response during the drain, then a clean
/// EOF — no completion is dropped on the floor.
#[test]
fn shutdown_drains_in_flight_responses() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("multi.sock");
    let mut server = UdsServer::start(daemon, &socket).unwrap();

    let mut streams: Vec<Conn> = (0..32).map(|_| hello(&socket)).collect();
    assert_eq!(server.active_connections(), 32);
    for (i, conn) in streams.iter_mut().enumerate() {
        conn.send(1000 + i as u64, Request::Ping).unwrap();
    }
    // Let the reactor parse and complete every ping (a request whose bytes
    // are still unread in the kernel buffer counts as idle and is dropped
    // at drain start — that part of the contract is deliberate).
    std::thread::sleep(Duration::from_millis(200));
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    for (i, conn) in streams.iter_mut().enumerate() {
        let (req_id, resp) = conn.recv().unwrap();
        assert_eq!(req_id, 1000 + i as u64);
        assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
        // After the drained response the daemon closes cleanly.
        assert!(conn.recv().is_err());
    }
    let server = shutdown.join().unwrap();
    assert_eq!(server.active_connections(), 0);
}

/// At the connection cap the daemon does not silently drop the socket: the
/// extra client receives a `Busy` error frame before the close, and the
/// rejection is counted (`connections_rejected`).
#[test]
fn connection_cap_rejects_with_a_busy_frame() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("busy.sock");
    let mut server = UdsServer::start_with_max_connections(daemon.clone(), &socket, 4).unwrap();

    // Fill the cap with live connections (the round trip guarantees each is
    // counted before the next connect).
    let _held: Vec<Conn> = (0..4).map(|_| hello(&socket)).collect();

    // The fifth connects at the listener but is turned away with a proper
    // error frame — not a bare EOF.
    let mut extra = UnixStream::connect(&socket).unwrap();
    match read_frame::<_, ServerFrame>(&mut extra).unwrap() {
        ServerFrame::Bare(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::Busy);
            assert!(message.contains("connection limit"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        read_frame::<_, ServerFrame>(&mut extra).is_err(),
        "EOF after Busy"
    );
    assert!(counter(&daemon, "connections_rejected") >= 1);
    server.shutdown();
}

/// `uds.connections` is the live connection count: it follows connects
/// and disconnects, and reads 0 once the server has shut down.
#[test]
fn uds_connections_follow_connects_and_disconnects() {
    let (_tmp, daemon, mut server, socket) = start_server();
    assert_eq!(counter(&daemon, "uds.connections"), 0);

    // Each hello round-trips, so the connection is counted before the
    // next connect.
    let mut held: Vec<Conn> = (0..4).map(|_| hello(&socket)).collect();
    assert_eq!(counter(&daemon, "uds.connections"), 4);
    assert_eq!(server.active_connections(), 4);

    held.truncate(1);
    wait_until("three closes counted", || {
        counter(&daemon, "uds.connections") == 1
    });
    assert_eq!(server.active_connections(), 1);

    // The one still held is dropped by the shutdown, not by its client.
    server.shutdown();
    assert_eq!(counter(&daemon, "uds.connections"), 0);
    assert_eq!(server.active_connections(), 0);
    drop(held);
}

/// A connection is its peer's kernel-verified credentials: a `Hello`
/// claiming root, or any uid that is not the caller's own, changes
/// nothing — the pool it creates belongs to the process's real uid.
#[test]
fn hello_credentials_never_stand_for_the_peers_own() {
    let (_tmp, daemon, mut server, socket) = start_server();
    let real = Credentials::current_process();
    let claims = [
        Credentials { uid: 0, gid: 0 },
        Credentials {
            uid: real.uid + 1,
            gid: real.gid + 1,
        },
    ];
    for (i, claimed) in claims.into_iter().enumerate() {
        let stream = UnixStream::connect(&socket).unwrap();
        let mut conn = BlockingConn::handshake(stream, Request::hello(claimed)).unwrap();
        let create = Request::CreatePool {
            name: format!("claimed{i}"),
            root_size: 1 << 20,
            mode: 0o600,
        };
        let Response::Pool(pool) = conn.call(create).unwrap() else {
            panic!("pool creation failed");
        };
        let data = daemon.registry().snapshot();
        let root = &data.puddles[&pool.root_puddle];
        assert_eq!((root.owner_uid, root.owner_gid), (real.uid, real.gid));
    }
    server.shutdown();
}
