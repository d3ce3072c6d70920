//! UNIX-domain-socket server exposing the daemon to other processes.
//!
//! The paper's clients talk to `puddled` over a UNIX domain socket and
//! receive puddle file descriptors via `sendmsg(SCM_RIGHTS)`; here the
//! responses carry file paths instead (see the README's "Substitutions vs.
//! the paper"). A connection's only identity is its kernel-verified
//! `SO_PEERCRED` uid/gid, read at accept: the credentials a `Hello` claims
//! are ignored, and a socket whose peer credentials cannot be read is
//! closed unserved.
//!
//! # Runtime
//!
//! The server is **one epoll event loop plus a two-lane worker pool**, and
//! a request runs on whichever of the two `service::lane_of` places its
//! kind:
//!
//! * **One reactor thread** owns the nonblocking listener, a poller, a
//!   waker, and every connection: it accepts, reads whatever bytes its
//!   sockets have, feeds them to an incremental frame decoder
//!   ([`puddles_proto::frame::FrameDecoder`] — frames split at arbitrary
//!   byte boundaries reassemble transparently), and flushes response
//!   bytes, parking partial writes in a per-connection output buffer until
//!   the socket drains. At the connection cap it writes a
//!   [`puddles_proto::ErrorCode::Busy`] error frame and closes the socket,
//!   so clients can back off instead of parsing a bare EOF.
//! * **Inline requests run on the reactor.** The criterion is strict: the
//!   request takes shared registry locks and nothing else — it can never
//!   wait on the WAL, an `fsync`, a file copy, recovery or another thread
//!   (`Hello`, `Ping`, `OpenPool`, `GetPuddle`, `GetPtrMaps`,
//!   `GetRelocation`). The reactor executes it, encodes the response
//!   straight into the connection's output buffer and writes once per
//!   dispatch round, so such a call costs the daemon one wake-up and a
//!   pipelined burst of them one `write`. They answer even while every
//!   worker is busy.
//! * A **worker pool** executes everything else (`Daemon::handle`) off a
//!   **two-lane queue**: heavyweight requests (pool import/export,
//!   creation/deletion, recovery) ride the bulk lane, which only a
//!   reserved minority of workers prefer; the remaining workers serve the
//!   fast lane exclusively — small mutations that end in a WAL group
//!   commit, plus `GetMetrics` — so a burst of imports can never
//!   starve them. Workers push the encoded response to the reactor's
//!   completion queue and wake it.
//!
//! # Protocol
//!
//! A connection opens with the four-byte [`puddles_proto::frame::V2_MAGIC`]
//! preamble (which can never be a valid length prefix). After it every
//! frame is an id-carrying envelope ([`puddles_proto::RequestEnvelope`] /
//! [`puddles_proto::ResponseEnvelope`]): up to [`MAX_PIPELINED_REQUESTS`]
//! requests may be in flight at once and responses complete — and are
//! written — **out of order**, paired by `req_id`. A peer whose first four
//! bytes are anything else gets one bare `InvalidRequest` error frame and
//! is closed.
//!
//! # Backpressure
//!
//! Three bounds keep a misbehaving peer from ballooning daemon memory: the
//! connection cap (excess connections are turned away with a `Busy`
//! frame), a per-connection cap on parsed-plus-in-flight requests (the one
//! fixed window, [`MAX_PIPELINED_REQUESTS`]), and a
//! per-connection output high-water mark — a client that stops reading its
//! responses (or pipelines without reading) has its *read* interest dropped
//! **and its parsed requests left undispatched** until the output buffer
//! drains, so its socket fills and the client blocks instead of the daemon
//! buffering without bound. (Inline requests never count against the
//! in-flight window, so the high-water mark is what bounds a burst of them:
//! parked output stays below the mark plus one response.)
//!
//! # Shutdown
//!
//! [`UdsServer::shutdown`] is graceful and *bounded*: the reactor closes
//! the listener, drops idle connections immediately, gives in-flight
//! requests and partially written responses [`SHUTDOWN_GRACE`] to finish,
//! then force-drops stragglers; the worker pool is drained and joined
//! (detached past the deadline, so a pathological request cannot wedge the
//! process).

use crate::service::{lane_of, Daemon, Lane};
use polling::{Event, Interest, Poller, Waker};
use puddles_pmem::clock::Clock;
use puddles_pmem::obs::ShardedHistogram;
use puddles_proto::frame::{FrameDecoder, V2_MAGIC};
use puddles_proto::{
    frame, Credentials, Request, RequestEnvelope, Response, ResponseEnvelope, ServerFrame,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default bound on simultaneous client connections. The reactor holds one
/// fd and a small state machine per connection — no thread — so this is a
/// memory/fd bound, not a thread-count bound (the old design capped at 256
/// threads).
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// How long in-flight requests and partially written responses are given to
/// finish once shutdown is requested.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Every connection's window: the requests it may have parsed-but-
/// undispatched plus in flight at once; above this the connection's read
/// interest is dropped until completions drain (its socket fills; the
/// kernel pushes back on the client). This is also the useful upper bound
/// on a client's pipeline depth.
pub const MAX_PIPELINED_REQUESTS: usize = 64;

/// Per-connection output high-water mark: once this many bytes are parked
/// waiting for a slow reader, the connection's read interest is dropped and
/// no further request of it is dispatched until the buffer drains below it.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Largest chunk the reactor reads per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Listener token.
const TOKEN_LISTENER: u64 = 0;
/// Waker token.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// One request handed to the worker pool.
struct WorkItem {
    /// Token of the connection the response goes back to.
    conn: u64,
    /// Request id to echo in the response envelope.
    req_id: u64,
    creds: Credentials,
    req: Request,
    /// Clock reading at the push; the pop records the wait as `stage.queue`.
    enqueued: Duration,
}

/// What a worker thread is allowed to pull from the two-lane queue.
#[derive(Clone, Copy)]
enum WorkerRole {
    /// Serves the fast lane only (while the queue is open): these workers
    /// are the fast lane's reservation and can never be captured by a
    /// burst of imports.
    FastOnly,
    /// Prefers the bulk lane, falls back to the fast lane when it is
    /// empty: the bulk lane's reservation, which still helps with cheap
    /// requests when no heavyweight work is queued.
    BulkPreferring,
}

/// The blocking two-lane queue feeding the worker pool.
struct WorkQueue {
    state: Mutex<Queues>,
    ready: Condvar,
}

struct Queues {
    fast: VecDeque<WorkItem>,
    bulk: VecDeque<WorkItem>,
    closed: bool,
}

impl WorkQueue {
    fn new() -> WorkQueue {
        WorkQueue {
            state: Mutex::new(Queues {
                fast: VecDeque::new(),
                bulk: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, lane: Lane, item: WorkItem) {
        let mut q = self.state.lock().unwrap();
        match lane {
            Lane::Fast => q.fast.push_back(item),
            Lane::Bulk => q.bulk.push_back(item),
            Lane::Inline => unreachable!("inline requests run on the reactor"),
        }
        // Consumers are selective (a FastOnly worker skips bulk items), so
        // waking just one waiter could wake a thread that cannot take the
        // new item while an eligible one keeps sleeping. Wake them all.
        self.ready.notify_all();
    }

    /// Blocks for the next item this role may take; `None` once closed
    /// **and** empty (close drains: queued requests still execute, their
    /// responses are simply discarded for connections that no longer
    /// exist — role restrictions are lifted so the drain cannot strand
    /// bulk items behind exited bulk workers).
    fn pop(&self, role: WorkerRole) -> Option<WorkItem> {
        let mut q = self.state.lock().unwrap();
        loop {
            let item = match role {
                WorkerRole::BulkPreferring => {
                    let bulk = q.bulk.pop_front();
                    bulk.or_else(|| q.fast.pop_front())
                }
                WorkerRole::FastOnly if q.closed => {
                    let fast = q.fast.pop_front();
                    fast.or_else(|| q.bulk.pop_front())
                }
                WorkerRole::FastOnly => q.fast.pop_front(),
            };
            if let Some(item) = item {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn close(&self) {
        let mut q = self.state.lock().unwrap();
        q.closed = true;
        self.ready.notify_all();
    }
}

/// The runtime's own series and counters in the daemon's `obs` registry,
/// resolved once so the request path never takes the registry lock.
struct UdsObs {
    /// `uds.connections`: live connections. The reactor increments it on
    /// accept, decrements it on close and zeroes it at teardown.
    connections: Arc<AtomicU64>,
    /// `uds.inline`: requests the reactor executed itself.
    inline: Arc<AtomicU64>,
    /// `uds.queued`: requests handed to the worker pool.
    queued: Arc<AtomicU64>,
    /// `uds.out_parked_hwm`: the most response bytes any one connection has
    /// had parked behind a full socket.
    out_parked_hwm: Arc<AtomicU64>,
    /// `stage.queue`: how long a queued request waited for a worker.
    stage_queue: Arc<ShardedHistogram>,
    /// `connections_rejected`: connections turned away at the cap with a
    /// `Busy` frame, or because their peer credentials could not be read.
    rejected: Arc<AtomicU64>,
}

/// State shared between the reactor, the workers, and the server handle.
struct Shared {
    daemon: Daemon,
    obs: UdsObs,
    shutdown: AtomicBool,
    queue: WorkQueue,
    /// Wakes the reactor's poller (completion or shutdown).
    waker: Waker,
    /// Completed responses: `(conn token, encoded frame)`. Workers push,
    /// the reactor drains after a waker event.
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Exit latches per thread group: each runtime thread signals its
    /// latch on the way out, so shutdown waits on a condvar instead of
    /// spin-polling `JoinHandle::is_finished` every 5 ms.
    reactor_exit: ExitLatch,
    worker_exits: ExitLatch,
}

/// Counts thread exits; [`UdsServer::shutdown`] blocks on the condvar until
/// a group has fully arrived or its deadline passes. Virtual-clock-aware
/// through [`Clock::wait_timeout`], so a simulated timeline drives shutdown
/// deadlines exactly like every other timeout.
struct ExitLatch {
    exited: Mutex<usize>,
    all_out: Condvar,
}

impl ExitLatch {
    fn new() -> ExitLatch {
        ExitLatch {
            exited: Mutex::new(0),
            all_out: Condvar::new(),
        }
    }

    /// Signals one thread's exit (called from a drop guard, so panics and
    /// early returns still count).
    fn arrive(&self) {
        *self.exited.lock().unwrap() += 1;
        self.all_out.notify_all();
    }

    /// Waits until `n` threads have arrived or `clock` passes `deadline`;
    /// `true` when the whole group is out. The round cap bounds the wait in
    /// real time when a *frozen* virtual clock would otherwise never reach
    /// the deadline (each virtual-clock round is a short real-time poll).
    fn wait_all(&self, n: usize, clock: &Clock, deadline: Duration) -> bool {
        const MAX_ROUNDS: u32 = 20_000;
        let mut exited = self.exited.lock().unwrap();
        let mut rounds = 0u32;
        while *exited < n {
            let now = clock.now();
            if now >= deadline || rounds >= MAX_ROUNDS {
                return false;
            }
            rounds += 1;
            let (guard, _) = clock.wait_timeout(exited, &self.all_out, deadline - now);
            exited = guard;
        }
        true
    }
}

/// Signals `ExitLatch::arrive` when dropped; lives at the top of each
/// runtime thread so every exit path (including panics) is counted.
struct ExitGuard<'a>(&'a ExitLatch);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.0.arrive();
    }
}

/// A running UNIX-domain-socket server for one daemon instance.
#[derive(Debug)]
pub struct UdsServer {
    path: PathBuf,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl UdsServer {
    /// Starts serving `daemon` on a socket at `path` (any stale socket file
    /// is replaced), capped at [`DEFAULT_MAX_CONNECTIONS`].
    pub fn start(daemon: Daemon, path: impl AsRef<Path>) -> io::Result<UdsServer> {
        Self::start_with_max_connections(daemon, path, DEFAULT_MAX_CONNECTIONS)
    }

    /// Starts the server with an explicit connection cap (at least 1).
    pub fn start_with_max_connections(
        daemon: Daemon,
        path: impl AsRef<Path>,
        max_connections: usize,
    ) -> io::Result<UdsServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let metrics = daemon.metrics();
        let obs = UdsObs {
            connections: metrics.counter("uds.connections"),
            inline: metrics.counter("uds.inline"),
            queued: metrics.counter("uds.queued"),
            out_parked_hwm: metrics.counter("uds.out_parked_hwm"),
            stage_queue: metrics.series("stage.queue"),
            rejected: metrics.counter("connections_rejected"),
        };
        let shared = Arc::new(Shared {
            daemon,
            obs,
            shutdown: AtomicBool::new(false),
            queue: WorkQueue::new(),
            waker: Waker::new()?,
            completions: Mutex::new(Vec::new()),
            reactor_exit: ExitLatch::new(),
            worker_exits: ExitLatch::new(),
        });

        let reactor = Reactor::new(Arc::clone(&shared), listener, max_connections.max(1))?;
        let worker_count = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        // The bulk lane's worker reservation: a minority of the pool (at
        // least one) prefers heavyweight requests; everyone else is pinned
        // to the fast lane.
        let bulk_workers = (worker_count / 4).max(1);
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let shared = Arc::clone(&shared);
            let role = if i < bulk_workers {
                WorkerRole::BulkPreferring
            } else {
                WorkerRole::FastOnly
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("puddled-worker-{i}"))
                    .spawn(move || {
                        let _exit = ExitGuard(&shared.worker_exits);
                        worker_loop(&shared, role);
                    })?,
            );
        }

        let exits = Arc::clone(&shared);
        let reactor = std::thread::Builder::new()
            .name("puddled-reactor".into())
            .spawn(move || {
                let _exit = ExitGuard(&exits.reactor_exit);
                let mut reactor = reactor;
                reactor.run();
            })?;

        Ok(UdsServer {
            path,
            shared,
            reactor: Some(reactor),
            workers,
        })
    }

    /// Returns the socket path clients should connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Number of currently connected clients (`uds.connections`).
    pub fn active_connections(&self) -> usize {
        self.shared.obs.connections.load(Ordering::Relaxed) as usize
    }

    /// Stops accepting, disconnects idle clients, lets in-flight requests
    /// finish within [`SHUTDOWN_GRACE`], and joins the reactor and worker
    /// threads. The join is *bounded*: any straggler past the deadline is
    /// detached instead of joined, so a wedged peer or request cannot hang
    /// the process.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        let clock = self.shared.daemon.clock().clone();
        let deadline = clock.now() + SHUTDOWN_GRACE + Duration::from_secs(2);
        if let Some(handle) = self.reactor.take() {
            let out = self.shared.reactor_exit.wait_all(1, &clock, deadline);
            join_or_detach(handle, out);
        }
        // The reactor is gone; nothing enqueues work anymore. Drain the
        // workers (queued requests still execute — their mutations matter
        // even if no connection remains to read the response).
        self.shared.queue.close();
        let out = self
            .shared
            .worker_exits
            .wait_all(self.workers.len(), &clock, deadline);
        for handle in self.workers.drain(..) {
            join_or_detach(handle, out);
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Joins `handle` when its exit latch fired (`arrived` — the join then only
/// waits out final thread teardown, microseconds); otherwise joins only an
/// already-finished thread and detaches stragglers (a detached thread holds
/// nothing but fds that process teardown closes).
fn join_or_detach(handle: JoinHandle<()>, arrived: bool) {
    if arrived || handle.is_finished() {
        let _ = handle.join();
    } else {
        drop(handle);
    }
}

impl Drop for UdsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>, role: WorkerRole) {
    let clock = shared.daemon.clock();
    while let Some(item) = shared.queue.pop(role) {
        shared
            .obs
            .stage_queue
            .record_duration(clock.now().saturating_sub(item.enqueued));
        let resp = shared
            .daemon
            .handle_traced(item.creds, item.req, item.req_id);
        // Left empty if even the error frame will not encode; the reactor
        // then drops the connection instead of leaving its caller waiting.
        let mut bytes = Vec::new();
        let _ = encode_response(&mut bytes, item.req_id, resp);
        shared.completions.lock().unwrap().push((item.conn, bytes));
        shared.waker.wake();
    }
}

/// Appends a response to `out` in the envelope that echoes its request's
/// id. An unencodable response (outsized payload) is reported in-band as an
/// `Internal` error, so the client is not left waiting on a silent drop;
/// `Err` means not even that could be encoded and `out` is unchanged.
fn encode_response(out: &mut Vec<u8>, req_id: u64, resp: Response) -> io::Result<()> {
    frame::encode_frame_into(out, &ResponseEnvelope { req_id, resp }).or_else(|e| {
        let resp = Response::Error {
            code: puddles_proto::ErrorCode::Internal,
            message: format!("response encoding failed: {e}"),
        };
        frame::encode_frame_into(out, &ResponseEnvelope { req_id, resp })
    })
}

/// Reads SO_PEERCRED credentials from a connected UNIX socket.
fn peer_credentials(stream: &UnixStream) -> Option<Credentials> {
    let mut ucred = libc::ucred {
        pid: 0,
        uid: 0,
        gid: 0,
    };
    let mut len = std::mem::size_of::<libc::ucred>() as libc::socklen_t;
    // SAFETY: `ucred`/`len` are valid for writes of the requested size and
    // the fd is a live socket owned by `stream`.
    let rc = unsafe {
        libc::getsockopt(
            stream.as_raw_fd(),
            libc::SOL_SOCKET,
            libc::SO_PEERCRED,
            &mut ucred as *mut libc::ucred as *mut libc::c_void,
            &mut len,
        )
    };
    if rc == 0 {
        Some(Credentials {
            uid: ucred.uid,
            gid: ucred.gid,
        })
    } else {
        None
    }
}

/// How long accepting pauses after a persistent accept failure.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

// -- Connections ------------------------------------------------------------

/// Per-connection state machine.
struct Conn {
    stream: UnixStream,
    decoder: FrameDecoder,
    /// The peer's first four bytes were the [`V2_MAGIC`] preamble; until
    /// then nothing is decoded.
    preamble_seen: bool,
    /// The peer's kernel-verified credentials, read at accept: every
    /// request of this connection runs as them.
    creds: Credentials,
    /// Parsed requests not yet dispatched: `(req_id, request)`.
    pending: VecDeque<(u64, Request)>,
    /// Requests from this connection currently with the worker pool.
    in_flight: usize,
    /// Encoded response bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    out_pos: usize,
    /// Nothing more is read from this peer — it half-closed (EOF on read),
    /// or it was refused for not sending the preamble; serve what is
    /// queued, then drop.
    peer_closed: bool,
    /// Protocol or I/O error: drop as soon as control returns to the loop.
    dead: bool,
    /// Interest bits currently registered with the poller.
    reg_readable: bool,
    reg_writable: bool,
}

impl Conn {
    fn new(stream: UnixStream, creds: Credentials) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            preamble_seen: false,
            creds,
            pending: VecDeque::new(),
            in_flight: 0,
            out: Vec::new(),
            out_pos: 0,
            peer_closed: false,
            dead: false,
            reg_readable: true,
            reg_writable: false,
        }
    }

    fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The output buffer, ready to be appended to (the already-written
    /// prefix is compacted away first).
    fn out_tail(&mut self) -> &mut Vec<u8> {
        if self.out_pos > 0 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        &mut self.out
    }

    /// `true` when nothing remains to serve: no in-flight request, no
    /// queued request, no unwritten response bytes.
    fn idle(&self) -> bool {
        self.in_flight == 0 && self.pending.is_empty() && self.out_len() == 0
    }

    /// Whether the reactor should keep consuming bytes from this peer.
    fn wants_read(&self) -> bool {
        !self.dead
            && !self.peer_closed
            && self.pending.len() + self.in_flight < MAX_PIPELINED_REQUESTS
            && self.out_len() < OUT_HIGH_WATER
    }
}

// -- Reactor ----------------------------------------------------------------

/// The event loop: owns the listener, the poller and every connection.
struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    /// The listener, until shutdown closes it.
    listener: Option<UnixListener>,
    /// Set after a persistent accept failure (e.g. EMFILE under a low fd
    /// rlimit): the listener is deregistered from the poller until this
    /// clock reading, so a full backlog does not busy-loop on
    /// level-triggered accept readiness.
    accept_backoff: Option<Duration>,
    max_connections: usize,
    /// Pre-encoded `Busy` rejection frame (a bare response: it is sent
    /// before any request id could have been read, and clients decode bare
    /// frames via `ServerFrame`).
    busy_frame: Vec<u8>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Set once shutdown is observed; records the drain deadline (a clock
    /// reading).
    draining: Option<Duration>,
    /// The daemon's time source (virtual under torture).
    clock: Clock,
    /// Poll rounds spent draining: a real-time bound on the drain when a
    /// frozen virtual clock can never reach the deadline.
    drain_rounds: u32,
    /// Scratch for socket reads, shared by every connection (allocated
    /// once: a stack array would be zero-filled per event).
    read_buf: Box<[u8]>,
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        listener: UnixListener,
        max_connections: usize,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.add(shared.waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        let busy_frame = frame::encode_frame(&ServerFrame::Bare(Response::Error {
            code: puddles_proto::ErrorCode::Busy,
            message: format!("connection limit reached ({max_connections})"),
        }))?;
        let clock = shared.daemon.clock().clone();
        Ok(Reactor {
            shared,
            poller,
            listener: Some(listener),
            accept_backoff: None,
            max_connections,
            busy_frame,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            draining: None,
            clock,
            drain_rounds: 0,
            read_buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // While draining, wake at least every 20 ms to check the
            // deadline; while accepting backs off (never while draining:
            // the drain closed the listener), every `ACCEPT_BACKOFF` to
            // resume it; otherwise sleep until an event or waker.
            let drain_tick = self.draining.map(|_| Duration::from_millis(20));
            let timeout = drain_tick.or(self.accept_backoff.map(|_| ACCEPT_BACKOFF));
            let _ = self.poller.wait(&mut events, timeout);
            if self.shared.shutdown.load(Ordering::SeqCst) && self.draining.is_none() {
                self.begin_drain();
            }
            self.resume_accepting();

            for &event in &events {
                match event.token {
                    TOKEN_WAKER => {
                        self.shared.waker.drain();
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, event),
                }
            }
            // Completions may arrive with or without a waker event in this
            // round (coalesced wakes); drain unconditionally.
            self.process_completions();

            if self.draining.is_some() && self.drain_finished() {
                break;
            }
        }
        // Teardown: connections drop here, closing their sockets.
        self.conns.clear();
        self.shared.obs.connections.store(0, Ordering::Relaxed);
    }

    // -- Accept -------------------------------------------------------------

    /// Accepts every pending connection.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Persistent accept failure (e.g. EMFILE under a low fd
                // rlimit): the level-triggered listener readiness would
                // fire on every wait while the backlog is non-empty,
                // spinning the loop hot. Deregister and retry after a
                // short backoff.
                Err(_) => {
                    let _ = self.poller.delete(listener.as_raw_fd());
                    self.accept_backoff = Some(self.clock.now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Re-registers the listener once its accept backoff has passed.
    fn resume_accepting(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        let due = self.accept_backoff.is_some_and(|t| self.clock.now() >= t);
        if due
            && self
                .poller
                .add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
                .is_ok()
        {
            self.accept_backoff = None;
        }
    }

    /// Registers one accepted socket as a connection, or turns it away: at
    /// the connection cap with a `Busy` frame, and without a word when its
    /// peer credentials cannot be read (it would have no identity).
    fn admit(&mut self, stream: UnixStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let rejected = &self.shared.obs.rejected;
        if self.conns.len() >= self.max_connections {
            // Tell the client to back off. Best-effort — the frame is far
            // smaller than a socket buffer, so the nonblocking write only
            // fails if the peer is already gone.
            let _ = (&stream).write(&self.busy_frame);
            rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Some(creds) = peer_credentials(&stream) else {
            rejected.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        // Bytes that raced in before registration are reported by the next
        // level-triggered wait; no eager read needed.
        self.conns.insert(token, Conn::new(stream, creds));
        self.shared.obs.connections.fetch_add(1, Ordering::Relaxed);
    }

    // -- Connection I/O -----------------------------------------------------

    fn conn_ready(&mut self, token: u64, event: Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if event.error {
            // EPOLLERR / EPOLLHUP: the peer is gone in both directions, so
            // no queued response is deliverable. (A graceful half-close
            // surfaces as readable + EOF instead and drains normally.)
            // Dropping now also keeps the unmaskable level-triggered HUP
            // from spinning the loop while a dead peer's request finishes.
            conn.dead = true;
        } else {
            if event.writable {
                flush_out(conn);
            }
            if event.readable {
                read_ready(conn, &mut self.read_buf);
            }
        }
        self.after_io(token);
    }

    /// Post-I/O bookkeeping for one connection: run or hand off newly
    /// parsed requests, update poller interest, reap finished/broken
    /// connections.
    fn after_io(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Dispatch queued requests unless we are draining (drain finishes
        // in-flight work only).
        if self.draining.is_none() {
            dispatch_ready(&self.shared, token, conn);
        }
        let parked = conn.out_len() as u64;
        if parked > 0 {
            let hwm = &self.shared.obs.out_parked_hwm;
            hwm.fetch_max(parked, Ordering::Relaxed);
        }
        let drop_now = conn.dead || (conn.peer_closed && conn.idle());
        if drop_now {
            self.remove_conn(token);
            return;
        }
        // Re-register interest if it changed.
        let want_read = conn.wants_read() && self.draining.is_none();
        let want_write = conn.out_len() > 0;
        if want_read != conn.reg_readable || want_write != conn.reg_writable {
            let interest = Interest {
                readable: want_read,
                writable: want_write,
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                self.remove_conn(token);
                return;
            }
            let conn = self.conns.get_mut(&token).expect("just checked");
            conn.reg_readable = want_read;
            conn.reg_writable = want_write;
        }
    }

    fn remove_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.shared.obs.connections.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // -- Worker completions -------------------------------------------------

    fn process_completions(&mut self) {
        let completed: Vec<(u64, Vec<u8>)> =
            std::mem::take(&mut *self.shared.completions.lock().unwrap());
        for (token, bytes) in completed {
            let Some(conn) = self.conns.get_mut(&token) else {
                // The connection died while its request executed; the
                // response has no reader. The mutation itself is fine —
                // exactly as if the client crashed after the daemon applied
                // its request.
                continue;
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            // An injected reset here is the one *after* execution: the
            // mutation stands, its acknowledgement is lost.
            if bytes.is_empty() || reset_injected(&self.shared) {
                conn.dead = true;
            } else {
                conn.out_tail().extend_from_slice(&bytes);
                flush_out(conn);
            }
            self.after_io(token);
        }
    }

    // -- Shutdown -----------------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = Some(self.clock.now() + SHUTDOWN_GRACE);
        // Nothing is accepted once shutdown starts: closing the listener
        // also takes it out of the poller.
        self.listener = None;
        // Idle connections go immediately; busy ones get the grace period
        // to finish their in-flight requests and flush.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle() || c.dead)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.remove_conn(token);
        }
    }

    fn drain_finished(&mut self) -> bool {
        // ~SHUTDOWN_GRACE of 20 ms poll rounds: the real-time fallback for
        // a frozen virtual clock (whose deadline would never arrive).
        const MAX_DRAIN_ROUNDS: u32 = 500;
        let deadline = self.draining.expect("only called while draining");
        self.drain_rounds += 1;
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dead || (c.in_flight == 0 && c.out_len() == 0))
            .map(|(t, _)| *t)
            .collect();
        for token in done {
            self.remove_conn(token);
        }
        self.conns.is_empty()
            || self.clock.now() >= deadline
            || self.drain_rounds >= MAX_DRAIN_ROUNDS
    }
}

/// Consumes every byte the socket currently has, parsing complete frames
/// into the pending queue. Stops early when backpressure bounds trip.
fn read_ready(conn: &mut Conn, buf: &mut [u8]) {
    while conn.wants_read() {
        match conn.stream.read(buf) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.decoder.feed(&buf[..n]);
                if !parse_frames(conn) {
                    return;
                }
                if n < buf.len() {
                    // Short read: the socket is drained (saves the final
                    // WouldBlock round trip).
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    parse_frames(conn);
}

/// Pulls complete frames out of the decoder, once the connection's first
/// four bytes have proven to be the preamble. Returns `false` when the
/// connection stops being read (framing error, or no preamble).
fn parse_frames(conn: &mut Conn) -> bool {
    if !conn.preamble_seen {
        match conn.decoder.peek(4) {
            Some(head) if head == V2_MAGIC => {
                conn.decoder.consume(4);
                conn.preamble_seen = true;
            }
            // Not this protocol (another generation's preamble, a bare
            // frame, or noise): say so in a bare frame, discard what it
            // sent, and close once the refusal is written.
            Some(_) => {
                let refusal = frame::encode_frame(&ServerFrame::Bare(Response::Error {
                    code: puddles_proto::ErrorCode::InvalidRequest,
                    message: "connection did not start with the PUD3 preamble".into(),
                }));
                conn.out.extend_from_slice(&refusal.unwrap_or_default());
                conn.decoder.consume(conn.decoder.buffered());
                conn.peer_closed = true;
                flush_out(conn);
                return false;
            }
            // Fewer than four bytes buffered: wait for the rest.
            None => return true,
        }
    }
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(RequestEnvelope { req_id, req })) => conn.pending.push_back((req_id, req)),
            Ok(None) => return true,
            Err(_) => {
                conn.dead = true;
                return false;
            }
        }
    }
}

/// Torture only: whether the daemon's fault plan resets a connection now —
/// the peer sees an abrupt close, exactly like a crashed daemon thread or a
/// dropped socket. Consulted twice per request, at the two points whose
/// count is a function of the request sequence rather than of kernel
/// timing (how many epoll events a request's bytes arrive in is not): when
/// [`dispatch_ready`] pops the request, and when its response is about to
/// be appended to the connection's output buffer. So a seed replays its
/// resets byte for byte.
fn reset_injected(shared: &Shared) -> bool {
    let plan = shared.daemon.pm_dir().fault_plan();
    plan.is_some_and(|plan| plan.on_conn_request())
}

/// Runs or hands off a connection's parsed requests, in arrival order, up
/// to [`MAX_PIPELINED_REQUESTS`] in flight and only while its parked output is
/// below [`OUT_HIGH_WATER`] (what is held back stays in `pending` and
/// resumes from the completion or writable event that lifts the bound).
/// [`Lane::Inline`] requests execute right here, their responses encoded
/// into the output buffer and written once per round; the rest go to the
/// worker pool.
fn dispatch_ready(shared: &Shared, token: u64, conn: &mut Conn) {
    while !conn.dead {
        let mut ran_inline = false;
        while conn.in_flight < MAX_PIPELINED_REQUESTS && conn.out_len() < OUT_HIGH_WATER {
            let Some((req_id, req)) = conn.pending.pop_front() else {
                break;
            };
            // An injected reset here is the one *before* execution: the
            // request never ran.
            if reset_injected(shared) {
                conn.dead = true;
                return;
            }
            match lane_of(&req) {
                Lane::Inline => {
                    shared.obs.inline.fetch_add(1, Ordering::Relaxed);
                    let resp = shared.daemon.handle_traced(conn.creds, req, req_id);
                    // (Or *after* it, for a request that ran right here.)
                    if reset_injected(shared)
                        || encode_response(conn.out_tail(), req_id, resp).is_err()
                    {
                        conn.dead = true;
                        return;
                    }
                    ran_inline = true;
                }
                lane => {
                    conn.in_flight += 1;
                    shared.obs.queued.fetch_add(1, Ordering::Relaxed);
                    shared.queue.push(
                        lane,
                        WorkItem {
                            conn: token,
                            req_id,
                            creds: conn.creds,
                            req,
                            enqueued: shared.daemon.clock().now(),
                        },
                    );
                }
            }
        }
        if !ran_inline {
            return;
        }
        // One write for the whole round. If the socket took it all, the
        // next pass runs whatever the high-water mark was holding back.
        flush_out(conn);
    }
}

/// Writes as much of the output buffer as the socket accepts; the rest
/// stays parked until the next writable event.
fn flush_out(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DaemonConfig;
    use puddles_proto::BlockingConn;

    /// Liveness of the inline path while every worker is occupied by a
    /// request that cannot finish: `GetMetrics` reads the WAL tail, whose
    /// state lock the test holds, so each worker that takes one stays in
    /// it, and whatever is queued behind them on either lane is taken by
    /// nobody. Inline requests — on another connection and behind the stuck
    /// ones on the same connection — never reach the WAL and are answered
    /// all the same, and the stuck requests all complete once the lock is
    /// released.
    #[test]
    fn inline_requests_answer_while_every_worker_is_stuck() {
        let tmp = tempfile::tempdir().unwrap();
        let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
        let creds = Credentials::current_process();
        let create = Request::CreatePool {
            name: "standing".into(),
            root_size: 1 << 20,
            mode: 0o600,
        };
        let Response::Pool(pool) = daemon.handle(creds, create) else {
            panic!("pool creation failed");
        };
        let socket = tmp.path().join("stuck-workers.sock");
        let mut server = UdsServer::start(daemon.clone(), &socket).unwrap();
        let connect = || {
            let stream = UnixStream::connect(&socket).unwrap();
            BlockingConn::handshake(stream, Request::hello(creds)).unwrap()
        };

        let wal_state = daemon.wal().hold_state_lock();
        let mut stuck = connect();
        // One `GetMetrics` per worker, and some that stay in the fast lane.
        let workers = server.workers.len() as u64;
        let reads = workers + 4;
        for req_id in 0..reads {
            stuck.send(req_id, Request::GetMetrics).unwrap();
        }
        let popped = || server.shared.obs.stage_queue.snapshot().count;
        while popped() < workers {
            std::thread::yield_now();
        }
        let dest = tmp.path().join("export").to_string_lossy().into_owned();
        let export = Request::ExportPool {
            name: "standing".into(),
            dest,
        };
        stuck.send(reads, export).unwrap();
        stuck.send(reads + 1, Request::Ping).unwrap();
        let (req_id, resp) = stuck.recv().unwrap();
        assert_eq!(req_id, reads + 1, "{resp:?}");

        let mut other = connect();
        let resp = other.call(Request::Ping).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
        let open = Request::OpenPool {
            name: "standing".into(),
        };
        let resp = other.call(open).unwrap();
        assert!(matches!(resp, Response::Pool(_)), "{resp:?}");
        let get = Request::GetPuddle {
            id: pool.root_puddle,
            writable: false,
        };
        let resp = other.call(get).unwrap();
        assert!(matches!(resp, Response::Puddle(_)), "{resp:?}");
        // Nothing queued moved in the meantime.
        assert_eq!(popped(), workers);
        assert_eq!(server.shared.obs.queued.load(Ordering::Relaxed), reads + 1);

        drop(wal_state);
        let mut rest: Vec<u64> = (0..=reads).map(|_| stuck.recv().unwrap().0).collect();
        rest.sort_unstable();
        assert_eq!(rest, (0..=reads).collect::<Vec<_>>());
        drop((stuck, other));
        server.shutdown();
    }

    /// A connection still busy when the drain's grace runs out is
    /// force-dropped at teardown, and `uds.connections` reads 0 all the
    /// same: its `GetMetrics` waits on a WAL lock the test holds past the
    /// deadline of a virtual clock the test drives.
    #[test]
    fn teardown_zeroes_the_connections_a_drain_leaves_behind() {
        let tmp = tempfile::tempdir().unwrap();
        let clock = Clock::simulated();
        let timeline = Arc::clone(clock.virtual_clock().unwrap());
        let config = DaemonConfig::for_testing(tmp.path()).with_clock(clock);
        let daemon = Daemon::start(config).unwrap();
        let socket = tmp.path().join("straggler.sock");
        let server = UdsServer::start(daemon.clone(), &socket).unwrap();
        let connections = daemon.metrics().counter("uds.connections");

        let wal_state = daemon.wal().hold_state_lock();
        let stream = UnixStream::connect(&socket).unwrap();
        let hello = Request::hello(Credentials::current_process());
        let mut conn = BlockingConn::handshake(stream, hello).unwrap();
        conn.send(1, Request::GetMetrics).unwrap();
        while server.shared.obs.stage_queue.snapshot().count == 0 {
            std::thread::yield_now();
        }
        let shutdown = std::thread::spawn(move || {
            let mut server = server;
            server.shutdown();
        });
        // Small steps: the drain's 5 s grace ends well before shutdown's
        // own 7 s deadline for the reactor's exit.
        while !shutdown.is_finished() {
            timeline.advance(Duration::from_millis(250));
            std::thread::sleep(Duration::from_millis(20));
        }
        shutdown.join().unwrap();
        assert!(conn.recv().is_err(), "the straggler was not dropped");
        assert_eq!(connections.load(Ordering::Relaxed), 0);
        drop(wal_state);
    }

    /// One `CreatePool` over a connection the fault plan resets at exactly
    /// one of its two draws — `[before, after]` execution. Returns whether
    /// the pool exists afterwards; asserts that the caller read EOF and
    /// that the daemon serves a reconnect.
    fn pool_exists_after_a_reset(draws: [bool; 2]) -> bool {
        use puddles_pmem::faultio::{FaultPlan, FaultProfile};
        // Draws are a pure function of (seed, call number): probe for the
        // seed whose first two come out as asked.
        let profile = FaultProfile {
            conn_reset_ppm: 500_000,
            ..FaultProfile::default()
        };
        let drawn = |seed| {
            let probe = FaultPlan::new(seed, profile);
            [probe.on_conn_request(), probe.on_conn_request()]
        };
        let seed = (0..).find(|seed| drawn(*seed) == draws).unwrap();
        let plan = FaultPlan::new(seed, profile);
        plan.set_enabled(false);

        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path()).with_fault_plan(Arc::clone(&plan));
        let daemon = Daemon::start(config).unwrap();
        let socket = tmp.path().join("reset.sock");
        let mut server = UdsServer::start(daemon.clone(), &socket).unwrap();
        let creds = Credentials::current_process();
        let connect = || {
            let stream = UnixStream::connect(&socket).unwrap();
            BlockingConn::handshake(stream, Request::hello(creds)).unwrap()
        };
        let mut conn = connect();
        plan.set_enabled(true);
        let create = Request::CreatePool {
            name: "reset".into(),
            root_size: 1 << 20,
            mode: 0o600,
        };
        let eof = conn.call(create).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof, "{eof}");
        plan.set_enabled(false);
        assert_eq!(plan.trace().len(), 1, "{:?}", plan.trace());
        assert!(plan.trace()[0].ends_with(": reset"), "{:?}", plan.trace());

        let open = Request::OpenPool {
            name: "reset".into(),
        };
        let exists = match connect().call(open).unwrap() {
            Response::Pool(_) => true,
            Response::Error { code, .. } => {
                assert_eq!(code, puddles_proto::ErrorCode::NotFound);
                false
            }
            other => panic!("unexpected {other:?}"),
        };
        server.shutdown();
        assert_eq!(daemon.registry().snapshot().pools.len(), exists as usize);
        exists
    }

    #[test]
    fn a_reset_before_execution_means_the_request_never_ran() {
        assert!(!pool_exists_after_a_reset([true, false]));
    }

    #[test]
    fn a_reset_after_execution_loses_only_the_acknowledgement() {
        assert!(pool_exists_after_a_reset([false, true]));
    }
}
