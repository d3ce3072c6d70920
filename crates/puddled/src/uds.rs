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
//! The server is **one epoll event loop plus a two-lane worker pool**; this
//! module starts and stops them, and each decides its own part. The
//! **reactor** (`reactor.rs`) owns the listener and every connection — the
//! wire protocol, its backpressure, and the requests `service::lane_of`
//! runs inline, which answer even while every worker is busy. The
//! **workers** (`workers.rs`) run everything else off a two-lane queue, so
//! a burst of imports cannot starve the small mutations.
//!
//! # Shutdown
//!
//! [`UdsServer::shutdown`] is graceful and *bounded*: the reactor closes
//! the listener, drops idle connections immediately, gives in-flight
//! requests and partially written responses `SHUTDOWN_GRACE` (5 s) to finish,
//! then force-drops stragglers; the worker pool is drained and joined
//! (detached past the deadline, so a pathological request cannot wedge the
//! process).

use crate::reactor::Reactor;
use crate::service::Daemon;
use crate::workers::{worker_loop, WorkQueue, WorkerRole};
use polling::Waker;
use puddles_pmem::clock::Clock;
use puddles_pmem::obs::ShardedHistogram;
use std::io;
use std::os::unix::net::UnixListener;
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
pub(crate) const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// The runtime's own series and counters in the daemon's `obs` registry,
/// resolved once so the request path never takes the registry lock.
pub(crate) struct UdsObs {
    /// `uds.connections`: live connections. The reactor increments it on
    /// accept, decrements it on close and zeroes it at teardown.
    pub(crate) connections: Arc<AtomicU64>,
    /// `uds.inline`: requests the reactor executed itself.
    pub(crate) inline: Arc<AtomicU64>,
    /// `uds.queued`: requests handed to the worker pool.
    pub(crate) queued: Arc<AtomicU64>,
    /// `uds.out_parked_hwm`: the most response bytes any one connection has
    /// had parked behind a full socket.
    pub(crate) out_parked_hwm: Arc<AtomicU64>,
    /// `stage.queue`: how long a queued request waited for a worker.
    pub(crate) stage_queue: Arc<ShardedHistogram>,
    /// `connections_rejected`: connections turned away at the cap with a
    /// `Busy` frame, or because their peer credentials could not be read.
    pub(crate) rejected: Arc<AtomicU64>,
}

/// State shared between the reactor, the workers, and the server handle.
pub(crate) struct Shared {
    pub(crate) daemon: Daemon,
    pub(crate) obs: UdsObs,
    pub(crate) shutdown: AtomicBool,
    pub(crate) queue: WorkQueue,
    /// Wakes the reactor's poller (completion or shutdown).
    pub(crate) waker: Waker,
    /// Completed responses: `(conn token, encoded frame)`. Workers push,
    /// the reactor drains after a waker event.
    pub(crate) completions: Mutex<Vec<(u64, Vec<u8>)>>,
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
    pub(crate) shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    pub(crate) workers: Vec<JoinHandle<()>>,
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
    /// finish within `SHUTDOWN_GRACE`, and joins the reactor and worker
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
