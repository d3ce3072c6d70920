//! The reactor: one thread owning the nonblocking listener, a poller, a
//! waker, and every connection's state machine ([`Conn`]).
//!
//! It accepts, reads whatever bytes its sockets have, feeds them to an
//! incremental frame decoder ([`puddles_proto::frame::FrameDecoder`] —
//! frames split at arbitrary byte boundaries reassemble transparently),
//! and flushes response bytes, parking partial writes in a per-connection
//! output buffer until the socket drains. At the connection cap it writes a
//! [`puddles_proto::ErrorCode::Busy`] error frame and closes the socket, so
//! clients can back off instead of parsing a bare EOF.
//!
//! **Inline requests run here.** The rule is strict: the request
//! takes shared registry locks and nothing else — it can never wait on the
//! WAL, an `fsync`, a file copy, recovery or another thread (the kinds
//! `service::lane_of` places on [`Lane::Inline`]). The reactor executes
//! it, encodes the response straight into the connection's output buffer
//! and writes once per dispatch round, so such a call costs the daemon one
//! wake-up and a pipelined burst of them one `write`. Everything else goes
//! to the worker pool ([`crate::workers`]), whose responses come back
//! through the completion queue.
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

use crate::service::{lane_of, Lane};
use crate::uds::{Shared, SHUTDOWN_GRACE};
use crate::workers::{encode_response, WorkItem};
use polling::{Event, Interest, Poller};
use puddles_pmem::clock::Clock;
use puddles_proto::frame::{FrameDecoder, V2_MAGIC};
use puddles_proto::{frame, Credentials, Request, RequestEnvelope, Response, ServerFrame};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

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
pub(crate) struct Reactor {
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
    pub(crate) fn new(
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

    pub(crate) fn run(&mut self) {
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
            if bytes.is_empty() || self.shared.daemon.pm_dir().should_reset_conn() {
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
            // Torture only: the peer sees an abrupt close, like a crashed
            // daemon thread. Drawn per request, where it is popped and where
            // its response is queued, never per socket event (kernel
            // timing), so a seed replays its resets. One here is *before*
            // execution: the request never ran.
            if shared.daemon.pm_dir().should_reset_conn() {
                conn.dead = true;
                return;
            }
            match lane_of(req.kind()) {
                Lane::Inline => {
                    shared.obs.inline.fetch_add(1, Ordering::Relaxed);
                    let resp = shared.daemon.handle_traced(conn.creds, req, req_id);
                    // (Or *after* it, for a request that ran right here.)
                    if shared.daemon.pm_dir().should_reset_conn()
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
    use crate::service::Daemon;
    use crate::uds::UdsServer;
    use crate::DaemonConfig;
    use puddles_pmem::obs::Metrics;
    use puddles_proto::BlockingConn;

    /// A connection still busy when the drain's grace runs out is
    /// force-dropped at teardown, and `uds.connections` reads 0 all the
    /// same: its `GetMetrics` waits on a WAL lock the test holds past the
    /// deadline of a virtual clock the test drives.
    #[test]
    fn teardown_zeroes_the_connections_a_drain_leaves_behind() {
        let tmp = tempfile::tempdir().unwrap();
        let clock = Clock::simulated();
        let timeline = Arc::clone(clock.virtual_clock().unwrap());
        let config = DaemonConfig::for_testing(tmp.path()).with_metrics(Metrics::new(clock));
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
            [0, 1].map(|_| probe.on_conn_request().is_some())
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
