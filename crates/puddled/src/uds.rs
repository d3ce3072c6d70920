//! UNIX-domain-socket server exposing the daemon to other processes.
//!
//! The paper's clients talk to `puddled` over a UNIX domain socket and
//! receive puddle file descriptors via `sendmsg(SCM_RIGHTS)`; here the
//! responses carry file paths instead (see the README's "Substitutions vs.
//! the paper"). Credentials are taken from the client's `Hello` message; on
//! Linux the kernel-verified `SO_PEERCRED` uid/gid are preferred when
//! available.
//!
//! # Runtime
//!
//! The server is a **sharded epoll runtime plus a two-lane worker pool**,
//! and a request runs on whichever of the two `service::lane_of` places its
//! kind:
//!
//! * One **acceptor thread** owns the nonblocking listener. Each accepted
//!   socket is handed to the least-loaded reactor whose slice of the
//!   connection budget has room; at the global connection cap the acceptor
//!   writes a [`puddles_proto::ErrorCode::Busy`] error frame and closes the
//!   socket, so clients can back off instead of parsing a bare EOF.
//! * **N reactor threads** (default `min(cores, 4)`, see [`ServerConfig`])
//!   each own a private poller, waker, and connection table: a reactor
//!   reads whatever bytes its sockets have, feeds them to an incremental
//!   frame decoder ([`puddles_proto::frame::FrameDecoder`] — frames split
//!   at arbitrary byte boundaries reassemble transparently), and flushes
//!   response bytes, parking partial writes in a per-connection output
//!   buffer until the socket drains. Reactors never touch each other's
//!   connections, so accept/decode/write work scales with cores instead of
//!   funneling through one event loop.
//! * **Inline requests run on the reactor that decoded them.** The
//!   criterion is strict: the request takes shared registry locks and
//!   nothing else — it can never wait on the WAL, an `fsync`, a file copy,
//!   recovery or another thread (`Hello`, `Ping`, `OpenPool`, `GetPuddle`,
//!   `GetPtrMaps`, `GetRelocation`). The reactor executes it, encodes the
//!   response straight into the connection's output buffer and writes once
//!   per dispatch round, so such a call costs the daemon one wake-up and a
//!   pipelined burst of them one `write`. They answer even while every
//!   worker is busy.
//! * A **worker pool** executes everything else (`Daemon::handle`) off a
//!   **two-lane queue**: heavyweight requests (pool import/export,
//!   creation/deletion, recovery) ride the bulk lane, which only a
//!   reserved minority of workers prefer; the remaining workers serve the
//!   fast lane exclusively — small mutations that end in a WAL group
//!   commit, plus `GetMetrics` — so a burst of imports can never
//!   starve them. Workers push the encoded response to the owning
//!   reactor's completion queue and wake it.
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
//! global connection cap (excess connections are turned away with a `Busy`
//! frame), a per-connection cap on parsed-plus-in-flight requests, and a
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
//! [`UdsServer::shutdown`] is graceful and *bounded*: the acceptor stops,
//! every reactor drops idle connections immediately, gives in-flight
//! requests and partially written responses [`SHUTDOWN_GRACE`] to finish,
//! then force-drops stragglers; the worker pool is drained and joined
//! (detached past the deadline, so a pathological request cannot wedge the
//! process).

use crate::service::{grant_limit, lane_of, Daemon, Lane, DEFAULT_MAX_IN_FLIGHT};
use polling::{Event, Interest, Poller, Waker};
use puddles_pmem::clock::Clock;
use puddles_pmem::obs::ShardedHistogram;
use puddles_proto::frame::{FrameDecoder, V2_MAGIC};
use puddles_proto::{frame, Credentials, Request, RequestEnvelope, Response, ResponseEnvelope};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default bound on simultaneous client connections. A reactor holds one
/// fd and a small state machine per connection — no thread — so this is a
/// memory/fd bound, not a thread-count bound (the old design capped at 256
/// threads).
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// Hard ceiling on reactor threads (more event loops than this buys
/// nothing: the worker pool, not event demultiplexing, is the next
/// bottleneck).
pub const MAX_REACTORS: usize = 4;

/// How long in-flight requests and partially written responses are given to
/// finish once shutdown is requested.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Requests a single connection may have parsed-but-undispatched plus in
/// flight at once; above this the connection's read interest is dropped
/// until completions drain (its socket fills; the kernel pushes back on the
/// client). This is also the useful upper bound on a client's pipeline
/// depth.
pub const MAX_PIPELINED_REQUESTS: usize = 64;

/// Per-connection output high-water mark: once this many bytes are parked
/// waiting for a slow reader, the connection's read interest is dropped and
/// no further request of it is dispatched until the buffer drains below it.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Largest chunk a reactor reads per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Acceptor poll-token namespace: listener plus waker.
const TOKEN_LISTENER: u64 = 0;
/// Waker token (used by the acceptor's and every reactor's poller).
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection (per-reactor token space).
const FIRST_CONN_TOKEN: u64 = 2;

/// Runtime shape of a [`UdsServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on simultaneous connections across all reactors; beyond it the
    /// acceptor answers with a `Busy` frame and closes.
    pub max_connections: usize,
    /// Number of reactor (event-loop) threads. Clamped to
    /// `1..=`[`MAX_REACTORS`].
    pub reactors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: DEFAULT_MAX_CONNECTIONS,
            reactors: default_reactor_count(),
        }
    }
}

/// The default reactor count: `min(cores, 4)`, at least 1.
pub fn default_reactor_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_REACTORS)
}

/// One request handed to the worker pool.
struct WorkItem {
    /// Index of the reactor owning the connection (completion routing).
    reactor: usize,
    /// Connection token within that reactor.
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
            Lane::Inline => unreachable!("inline requests run on their reactor"),
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

/// Per-reactor state shared with the acceptor and the workers.
struct ReactorShared {
    /// Wakes this reactor's poller (new incoming connection or completion).
    waker: Waker,
    /// Sockets handed off by the acceptor, not yet registered.
    incoming: Mutex<Vec<(UnixStream, Option<Credentials>)>>,
    /// Completed responses: `(conn token, encoded frame)`. Workers push,
    /// the reactor drains after a waker event.
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Connections owned by this reactor, **including** handed-off sockets
    /// it has not registered yet: the acceptor increments at handoff, the
    /// reactor decrements on close, so the global cap check never races a
    /// not-yet-registered socket past the limit. Behind an `Arc` because
    /// `GetMetrics` reports it (`reactor.<i>.connections`: per-reactor
    /// placement skew).
    active: Arc<AtomicUsize>,
    /// Requests handled on behalf of this reactor's connections. Behind an
    /// `Arc` because `GetMetrics` reports it (`reactor.<i>.requests`:
    /// *served traffic* skew, complementing the placement counter above).
    requests: Arc<AtomicU64>,
}

impl ReactorShared {
    fn new() -> io::Result<ReactorShared> {
        Ok(ReactorShared {
            waker: Waker::new()?,
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            active: Arc::new(AtomicUsize::new(0)),
            requests: Arc::new(AtomicU64::new(0)),
        })
    }
}

/// The runtime's own series and counters in the daemon's `obs` registry,
/// resolved once so the request path never takes the registry lock.
struct UdsObs {
    /// `uds.inline`: requests a reactor executed itself.
    inline: Arc<AtomicU64>,
    /// `uds.queued`: requests handed to the worker pool.
    queued: Arc<AtomicU64>,
    /// `uds.out_parked_hwm`: the most response bytes any one connection has
    /// had parked behind a full socket.
    out_parked_hwm: Arc<AtomicU64>,
    /// `stage.queue`: how long a queued request waited for a worker.
    stage_queue: Arc<ShardedHistogram>,
    /// `connections_rejected`: connections turned away at the cap with a
    /// `Busy` frame.
    rejected: Arc<AtomicU64>,
}

/// State shared between the acceptor, the reactors, the workers, and the
/// server handle.
struct Shared {
    daemon: Daemon,
    obs: UdsObs,
    shutdown: AtomicBool,
    /// Wakes the acceptor's poller (shutdown).
    acceptor_waker: Waker,
    queue: WorkQueue,
    reactors: Vec<Arc<ReactorShared>>,
    /// Exit latches per thread group: each runtime thread signals its
    /// latch on the way out, so shutdown waits on a condvar instead of
    /// spin-polling `JoinHandle::is_finished` every 5 ms.
    acceptor_exits: ExitLatch,
    reactor_exits: ExitLatch,
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
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("reactors", &self.reactors.len())
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl UdsServer {
    /// Starts serving `daemon` on a socket at `path` (any stale socket file
    /// is replaced) with the default [`ServerConfig`].
    pub fn start(daemon: Daemon, path: impl AsRef<Path>) -> io::Result<UdsServer> {
        Self::start_with_config(daemon, path, ServerConfig::default())
    }

    /// Starts the server with an explicit runtime shape.
    pub fn start_with_config(
        daemon: Daemon,
        path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> io::Result<UdsServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let max_connections = config.max_connections.max(1);
        let reactor_count = config.reactors.clamp(1, MAX_REACTORS);
        let mut reactor_shared = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            reactor_shared.push(Arc::new(ReactorShared::new()?));
        }
        let metrics = daemon.metrics();
        let obs = UdsObs {
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
            acceptor_waker: Waker::new()?,
            queue: WorkQueue::new(),
            reactors: reactor_shared,
            acceptor_exits: ExitLatch::new(),
            reactor_exits: ExitLatch::new(),
            worker_exits: ExitLatch::new(),
        });
        // Publish the per-reactor counters for `GetMetrics` (reactor-skew
        // observability); detached again at shutdown.
        shared.daemon.attach_reactor_loads(
            shared
                .reactors
                .iter()
                .map(|r| Arc::clone(&r.active))
                .collect(),
        );
        shared.daemon.attach_reactor_requests(
            shared
                .reactors
                .iter()
                .map(|r| Arc::clone(&r.requests))
                .collect(),
        );

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

        let mut reactors = Vec::with_capacity(reactor_count);
        for index in 0..reactor_count {
            let shared = Arc::clone(&shared);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("puddled-reactor-{index}"))
                    .spawn(move || {
                        let _exit = ExitGuard(&shared.reactor_exits);
                        let mut r = match Reactor::new(Arc::clone(&shared), index) {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        r.run();
                    })?,
            );
        }

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("puddled-acceptor".into())
            .spawn(move || {
                let _exit = ExitGuard(&acceptor_shared.acceptor_exits);
                let mut a =
                    match Acceptor::new(Arc::clone(&acceptor_shared), listener, max_connections) {
                        Ok(a) => a,
                        Err(_) => return,
                    };
                a.run();
            })?;

        Ok(UdsServer {
            path,
            shared,
            acceptor: Some(acceptor),
            reactors,
            workers,
        })
    }

    /// Returns the socket path clients should connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Number of currently connected clients (summed across reactors).
    pub fn active_connections(&self) -> usize {
        self.shared
            .reactors
            .iter()
            .map(|r| r.active.load(Ordering::Relaxed))
            .sum()
    }

    /// Stops accepting, disconnects idle clients, lets in-flight requests
    /// finish within [`SHUTDOWN_GRACE`], and joins the acceptor, reactor,
    /// and worker threads. The join is *bounded*: any straggler past the
    /// deadline is detached instead of joined, so a wedged peer or request
    /// cannot hang the process.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.acceptor_waker.wake();
        for r in &self.shared.reactors {
            r.waker.wake();
        }
        let clock = self.shared.daemon.clock().clone();
        let deadline = clock.now() + SHUTDOWN_GRACE + Duration::from_secs(2);
        let out = self.shared.acceptor_exits.wait_all(
            usize::from(self.acceptor.is_some()),
            &clock,
            deadline,
        );
        if let Some(handle) = self.acceptor.take() {
            join_or_detach(handle, out);
        }
        let out = self
            .shared
            .reactor_exits
            .wait_all(self.reactors.len(), &clock, deadline);
        for handle in self.reactors.drain(..) {
            join_or_detach(handle, out);
        }
        // The reactors are gone; nothing enqueues work anymore. Drain the
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
        self.shared.daemon.attach_reactor_loads(Vec::new());
        self.shared.daemon.attach_reactor_requests(Vec::new());
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
        shared.reactors[item.reactor]
            .requests
            .fetch_add(1, Ordering::Relaxed);
        let resp = shared
            .daemon
            .handle_traced(item.creds, item.req, item.req_id);
        // Left empty if even the error frame will not encode; the reactor
        // then drops the connection instead of leaving its caller waiting.
        let mut bytes = Vec::new();
        let _ = encode_response(&mut bytes, item.req_id, resp);
        let target = &shared.reactors[item.reactor];
        target.completions.lock().unwrap().push((item.conn, bytes));
        target.waker.wake();
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

// -- Acceptor ---------------------------------------------------------------

/// The accept loop: owns the listener, places sockets onto reactors.
struct Acceptor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: UnixListener,
    max_connections: usize,
    /// The listener is registered with the poller (deregistered while a
    /// persistent accept failure backs off, so a full backlog does not
    /// busy-loop on level-triggered accept readiness).
    accepting: bool,
    /// Accepting is paused until this clock reading after a persistent
    /// accept failure (e.g. EMFILE under a low fd rlimit).
    accept_backoff_until: Option<Duration>,
    /// The daemon's time source (virtual under torture).
    clock: Clock,
    /// Pre-encoded `Busy` rejection frame (a bare response: it is sent
    /// before any request id could have been read, and clients decode bare
    /// frames via `ServerFrame`).
    busy_frame: Vec<u8>,
}

impl Acceptor {
    fn new(
        shared: Arc<Shared>,
        listener: UnixListener,
        max_connections: usize,
    ) -> io::Result<Acceptor> {
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.add(shared.acceptor_waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        let busy_frame = frame::encode_frame(&Response::Error {
            code: puddles_proto::ErrorCode::Busy,
            message: format!("connection limit reached ({max_connections})"),
        })?;
        let clock = shared.daemon.clock().clone();
        Ok(Acceptor {
            shared,
            poller,
            listener,
            max_connections,
            accepting: true,
            accept_backoff_until: None,
            clock,
            busy_frame,
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.accept_backoff_until.map(|_| Duration::from_millis(10));
            let _ = self.poller.wait(&mut events, timeout);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Some(until) = self.accept_backoff_until {
                if self.clock.now() >= until {
                    self.accept_backoff_until = None;
                    self.resume_accepting();
                }
            }
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.shared.acceptor_waker.drain();
                    }
                    _ => {}
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.place(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Persistent accept failure (e.g. EMFILE under a low fd
                // rlimit): the level-triggered listener readiness would
                // fire on every wait while the backlog is non-empty,
                // spinning the loop hot. Deregister and retry after a
                // short backoff.
                Err(_) => {
                    self.pause_accepting();
                    self.accept_backoff_until = Some(self.clock.now() + Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    /// Routes one accepted socket: least-loaded reactor with room in its
    /// slice of the budget, or a `Busy` rejection at the global cap.
    fn place(&mut self, stream: UnixStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let n = self.shared.reactors.len();
        // Per-reactor slice of the budget. Ceiling division: if the total
        // is below the cap, at least one reactor is below its slice, so a
        // non-rejected socket always finds a home.
        let slice = self.max_connections.div_ceil(n);
        let mut total = 0usize;
        let mut best: Option<(usize, usize)> = None;
        for (i, r) in self.shared.reactors.iter().enumerate() {
            let active = r.active.load(Ordering::Relaxed);
            total += active;
            if active < slice && best.is_none_or(|(_, b)| active < b) {
                best = Some((i, active));
            }
        }
        let target = match best {
            Some((i, _)) if total < self.max_connections => i,
            // At (or, transiently, above) the cap: tell the client to back
            // off. Best-effort — the frame is far smaller than a socket
            // buffer, so the nonblocking write only fails if the peer is
            // already gone.
            _ => {
                let mut stream = stream;
                let _ = stream.write(&self.busy_frame);
                self.shared.obs.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let peer = peer_credentials(&stream);
        let reactor = &self.shared.reactors[target];
        // Count the connection *before* the reactor sees it so the cap
        // check above can never race a handed-off socket past the limit.
        reactor.active.fetch_add(1, Ordering::Relaxed);
        reactor.incoming.lock().unwrap().push((stream, peer));
        reactor.waker.wake();
    }

    fn pause_accepting(&mut self) {
        if self.accepting {
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.accepting = false;
        }
    }

    fn resume_accepting(&mut self) {
        if !self.accepting
            && self
                .poller
                .add(
                    self.listener.as_raw_fd(),
                    TOKEN_LISTENER,
                    Interest::READABLE,
                )
                .is_ok()
        {
            self.accepting = true;
        }
    }
}

// -- Connections ------------------------------------------------------------

/// Per-connection state machine.
struct Conn {
    stream: UnixStream,
    decoder: FrameDecoder,
    /// The peer's first four bytes were the [`V2_MAGIC`] preamble; until
    /// then nothing is decoded.
    preamble_seen: bool,
    /// Kernel-verified peer credentials captured at accept (when available).
    peer: Option<Credentials>,
    /// Effective credentials, fixed by the first frame (peer credentials
    /// override whatever the client claims in `Hello`).
    creds: Option<Credentials>,
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
    /// Server-side ceiling on the negotiable in-flight window (the daemon's
    /// configured max clamped to [`MAX_PIPELINED_REQUESTS`]).
    cap: u32,
    /// The in-flight window currently granted to this connection: the
    /// default grant until a `Hello` negotiates one.
    window: usize,
}

impl Conn {
    fn new(stream: UnixStream, peer: Option<Credentials>, cap: u32) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            preamble_seen: false,
            peer,
            creds: None,
            pending: VecDeque::new(),
            in_flight: 0,
            out: Vec::new(),
            out_pos: 0,
            peer_closed: false,
            dead: false,
            reg_readable: true,
            reg_writable: false,
            cap,
            window: grant_limit(0, DEFAULT_MAX_IN_FLIGHT, cap) as usize,
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
            && self.pending.len() + self.in_flight < self.window
            && self.out_len() < OUT_HIGH_WATER
    }
}

// -- Reactor ----------------------------------------------------------------

/// One event loop: owns a poller and a shard of the connections.
struct Reactor {
    shared: Arc<Shared>,
    /// This reactor's slot in `shared.reactors`.
    index: usize,
    me: Arc<ReactorShared>,
    poller: Poller,
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
    /// Scratch for socket reads, shared by every connection of this reactor
    /// (allocated once: a stack array would be zero-filled per event).
    read_buf: Box<[u8]>,
}

impl Reactor {
    fn new(shared: Arc<Shared>, index: usize) -> io::Result<Reactor> {
        let me = Arc::clone(&shared.reactors[index]);
        let poller = Poller::new()?;
        poller.add(me.waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        let clock = shared.daemon.clock().clone();
        Ok(Reactor {
            shared,
            index,
            me,
            poller,
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
            // deadline; otherwise sleep until an event or waker.
            let timeout = self.draining.map(|_| Duration::from_millis(20));
            let _ = self.poller.wait(&mut events, timeout);
            if self.shared.shutdown.load(Ordering::SeqCst) && self.draining.is_none() {
                self.begin_drain();
            }

            for &event in &events {
                match event.token {
                    TOKEN_WAKER => {
                        self.me.waker.drain();
                    }
                    token => self.conn_ready(token, event),
                }
            }
            // Handoffs and completions may arrive with or without a waker
            // event in this round (coalesced wakes); drain unconditionally.
            self.process_incoming();
            self.process_completions();

            if self.draining.is_some() && self.drain_finished() {
                break;
            }
        }
        // Teardown: connections (and any never-registered handoffs) drop
        // here, closing their sockets.
        self.conns.clear();
        self.me.incoming.lock().unwrap().clear();
        self.me.active.store(0, Ordering::Relaxed);
    }

    // -- Accept handoff -----------------------------------------------------

    /// Registers sockets the acceptor handed to this reactor. Their
    /// `active` count was already taken at handoff; undone here on failure.
    fn process_incoming(&mut self) {
        let incoming: Vec<(UnixStream, Option<Credentials>)> =
            std::mem::take(&mut *self.me.incoming.lock().unwrap());
        for (stream, peer) in incoming {
            if self.draining.is_some() {
                self.me.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                self.me.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            // Bytes that raced in before registration are reported by the
            // next level-triggered wait; no eager read needed.
            let cap = self.shared.daemon.in_flight_cap();
            self.conns.insert(token, Conn::new(stream, peer, cap));
        }
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
            dispatch_ready(&self.shared, self.index, token, conn);
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
            self.me.active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // -- Worker completions -------------------------------------------------

    fn process_completions(&mut self) {
        let completed: Vec<(u64, Vec<u8>)> =
            std::mem::take(&mut *self.me.completions.lock().unwrap());
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
            // Not this protocol (an old client's bare frame, or noise):
            // say so in the one frame such a peer can still parse, discard
            // what it sent, and close once the refusal is written.
            Some(_) => {
                let refusal = frame::encode_frame(&Response::Error {
                    code: puddles_proto::ErrorCode::InvalidRequest,
                    message: "connection did not start with the PUD2 preamble".into(),
                });
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
        let RequestEnvelope { req_id, req } = match conn.decoder.next_frame() {
            Ok(Some(env)) => env,
            Ok(None) => return true,
            Err(_) => {
                conn.dead = true;
                return false;
            }
        };
        if conn.creds.is_none() {
            // First frame fixes the connection's credentials:
            // kernel-verified peer credentials win; otherwise an explicit
            // Hello is trusted (tests); otherwise fall back to this
            // process's identity.
            conn.creds = Some(match (conn.peer, &req) {
                (Some(peer), _) => peer,
                (None, Request::Hello { creds, .. }) => *creds,
                (None, _) => Credentials::current_process(),
            });
        }
        if let Request::Hello { max_in_flight, .. } = &req {
            // Apply the negotiated window immediately: the same clamp the
            // service reports in `Welcome`, so enforcement matches the
            // grant the client is about to read.
            conn.window = grant_limit(*max_in_flight, DEFAULT_MAX_IN_FLIGHT, conn.cap) as usize;
        }
        conn.pending.push_back((req_id, req));
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
/// to its negotiated in-flight window and only while its parked output is
/// below [`OUT_HIGH_WATER`] (what is held back stays in `pending` and
/// resumes from the completion or writable event that lifts the bound).
/// [`Lane::Inline`] requests execute right here, their responses encoded
/// into the output buffer and written once per round; the rest go to the
/// worker pool.
fn dispatch_ready(shared: &Shared, reactor: usize, token: u64, conn: &mut Conn) {
    while !conn.dead {
        let mut ran_inline = false;
        while conn.in_flight < conn.window && conn.out_len() < OUT_HIGH_WATER {
            let Some((req_id, req)) = conn.pending.pop_front() else {
                break;
            };
            // An injected reset here is the one *before* execution: the
            // request never ran.
            if reset_injected(shared) {
                conn.dead = true;
                return;
            }
            let creds = conn.creds.unwrap_or_else(Credentials::current_process);
            match lane_of(&req) {
                Lane::Inline => {
                    let me = &shared.reactors[reactor];
                    me.requests.fetch_add(1, Ordering::Relaxed);
                    shared.obs.inline.fetch_add(1, Ordering::Relaxed);
                    let resp = shared.daemon.handle_traced(creds, req, req_id);
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
                            reactor,
                            conn: token,
                            req_id,
                            creds,
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
    /// request that cannot finish: `GetMetrics` reads the reactor-load
    /// table, whose lock the test holds, so each worker that takes one stays in
    /// it, and whatever is queued behind them on either lane is taken by
    /// nobody. Inline requests — on another connection and behind the stuck
    /// ones on the same connection — are answered all the same, and the
    /// stuck requests all complete once the lock is released.
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

        let reactor_loads = daemon.inner.reactor_loads.lock().unwrap();
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

        drop(reactor_loads);
        let mut rest: Vec<u64> = (0..=reads).map(|_| stuck.recv().unwrap().0).collect();
        rest.sort_unstable();
        assert_eq!(rest, (0..=reads).collect::<Vec<_>>());
        drop((stuck, other));
        server.shutdown();
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
