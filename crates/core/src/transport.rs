//! The socket transport under a [`PuddleClient`](crate::PuddleClient): what
//! is retried and when ([`RetryPolicy`], idempotence and transience
//! classification), the client-local counters ([`ClientMetrics`]), and the
//! one socket endpoint — a small pool of pipelined connections, each a
//! shared writer plus a reader thread pairing out-of-order responses with
//! their callers by request id.

use parking_lot::Mutex;
use puddles_pmem::clock::{entropy_seed, Clock};
use puddles_proto::{Credentials, Endpoint, Request, Response};
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// `true` for I/O failures that a fresh connection may fix: the daemon
/// closed (or was restarted under) a pooled socket, so a write lands on a
/// dead peer or a read hits EOF. Logic errors (e.g. a malformed frame) are
/// not transient — retrying would repeat them.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::WriteZero
    )
}

/// `true` for requests that are safe to resend when a pooled connection
/// dies *after* the request was written but before the response arrived:
/// reads, and writes whose re-application lands on the same state
/// (registrations are keyed puts, `MarkRewritten` clears an already-clear
/// flag, an export overwrites its own output). Creates, frees, drops, and
/// imports are **not** retried — the daemon may have applied them and lost
/// only the acknowledgement, so a resend would double-apply (e.g. a second
/// puddle allocated, or a successful `DropPool` reported as `NotFound`).
fn is_idempotent(req: &Request) -> bool {
    matches!(
        req,
        Request::Hello { .. }
            | Request::Ping
            | Request::GetPuddle { .. }
            | Request::OpenPool { .. }
            | Request::GetPtrMaps
            | Request::RegisterPtrMap { .. }
            | Request::RegLogSpace { .. }
            | Request::GetRelocation { .. }
            | Request::MarkRewritten { .. }
            | Request::ExportPool { .. }
            | Request::Recover
            | Request::Stats
            | Request::GetMetrics
    )
}

/// Client-local observability counters, shared by the endpoint, its retry
/// policy, and every pipelined connection. Surfaced through
/// [`PuddleClient::client_metrics`] in the same report shape the daemon's
/// `GetMetrics` uses, so one consumer renders both sides.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Retry attempts actually performed past each operation's first try
    /// (dials and idempotent re-sends alike).
    pub retry_attempts: std::sync::atomic::AtomicU64,
    /// Re-dials after the first successful handshake (each also flags
    /// `reconnect` in its `Hello`, so the daemon's count should match).
    pub reconnects: std::sync::atomic::AtomicU64,
    /// High-water mark of requests in flight on one pipelined connection
    /// (how deep the id→waiter completion map has grown).
    pub pipeline_depth_hwm: std::sync::atomic::AtomicU64,
}

impl ClientMetrics {
    /// The counters as a wire-shaped report (no histogram series).
    pub fn report(&self) -> puddles_proto::MetricsReport {
        use std::sync::atomic::Ordering::Relaxed;
        let counter = |name: &str, value: u64| puddles_proto::CounterSnapshot {
            name: name.to_string(),
            value,
        };
        puddles_proto::MetricsReport {
            series: Vec::new(),
            counters: vec![
                counter(
                    "client.pipeline_depth_hwm",
                    self.pipeline_depth_hwm.load(Relaxed),
                ),
                counter("client.reconnects", self.reconnects.load(Relaxed)),
                counter("client.retry_attempts", self.retry_attempts.load(Relaxed)),
            ],
            trace_buffered: 0,
            trace_dropped: 0,
        }
    }
}

/// Reusable bounded retry policy: exponential backoff with jitter, capped
/// attempts and an overall deadline.
///
/// One policy instance covers every retryable edge of a client endpoint —
/// dialing the daemon (refused while it restarts, `Busy` at the connection
/// cap) and re-sending idempotent requests after a mid-pipeline connection
/// loss. Only errors [`is_transient`] classifies as connection-level are
/// retried; the caller is responsible for never handing a non-idempotent
/// request to [`RetryPolicy::run`].
#[derive(Debug)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry up to `max_delay`.
    pub base_delay: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_delay: Duration,
    /// Overall budget: once elapsed, no further retry is attempted even if
    /// attempts remain.
    pub deadline: Duration,
    /// Seed of the jitter stream. Drawn from OS entropy by default (so a
    /// herd of clients decorrelates) and overridden with a derived torture
    /// seed under test, making backoff sequences replayable.
    jitter_seed: u64,
    /// Position in the jitter stream (monotone per policy instance).
    jitter_seq: std::sync::atomic::AtomicU64,
    /// Time source for deadlines and backoff sleeps.
    clock: Clock,
    /// Counts retries actually performed into a client-local reporter.
    metrics: Option<Arc<ClientMetrics>>,
}

impl Clone for RetryPolicy {
    fn clone(&self) -> Self {
        RetryPolicy {
            max_attempts: self.max_attempts,
            base_delay: self.base_delay,
            max_delay: self.max_delay,
            deadline: self.deadline,
            jitter_seed: self.jitter_seed,
            jitter_seq: std::sync::atomic::AtomicU64::new(0),
            clock: self.clock.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl Default for RetryPolicy {
    /// Defaults tuned for a local daemon: a handful of quick retries well
    /// under human-visible latency, giving a restarting daemon ~2 s to
    /// come back.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            deadline: Duration::from_secs(2),
            jitter_seed: entropy_seed(),
            jitter_seq: std::sync::atomic::AtomicU64::new(0),
            clock: Clock::real(),
            metrics: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with explicit attempt and deadline budgets (delays keep the
    /// defaults).
    pub fn new(max_attempts: u32, deadline: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            deadline,
            ..RetryPolicy::default()
        }
    }

    /// Overrides the backoff schedule: first retry after `base`, doubling
    /// per retry up to `max`.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_delay = base;
        self.max_delay = max.max(base);
        self
    }

    /// Pins the jitter stream to an explicit seed, making the backoff
    /// sequence replayable (torture runs derive this from `TORTURE_SEED`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Replaces the time source; under a virtual clock, backoff sleeps
    /// consume logical time instead of wall time.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Counts retries this policy performs into `metrics` (attached by the
    /// client's connect path; the counters are client-local).
    fn with_metrics(mut self, metrics: Arc<ClientMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Runs `op` until it succeeds, fails non-transiently, or the attempt /
    /// deadline budget is spent. `op` receives the 0-based attempt number;
    /// attempts past the first follow a backoff sleep.
    fn run<T>(&self, mut op: impl FnMut(u32) -> std::io::Result<T>) -> std::io::Result<T> {
        let start = self.clock.now();
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !is_transient(&e) => return Err(e),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts {
                        return Err(e);
                    }
                    let delay = self.backoff_delay(attempt - 1);
                    if self.clock.now().saturating_sub(start) + delay > self.deadline {
                        return Err(e);
                    }
                    if let Some(metrics) = &self.metrics {
                        metrics
                            .retry_attempts
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    self.clock.sleep(delay);
                }
            }
        }
    }

    /// Backoff for the given retry: `base · 2^retry` capped at `max_delay`,
    /// then jittered into `[d/2, d]` so a herd of clients kicked off one
    /// daemon restart does not re-dial in lockstep.
    fn backoff_delay(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_delay);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let n = self
            .jitter_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SplitMix64 over (seed ⊕ sequence): decorrelates concurrent
        // clients (seeds differ per instance) yet replays exactly when the
        // seed is pinned.
        let mut z = self.jitter_seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Duration::from_nanos(nanos / 2 + z % (nanos / 2 + 1))
    }
}

/// Connections a [`PipelinedEndpoint`] multiplexes calls over until the
/// daemon grants a pool depth in `Welcome` (the grant then takes over).
/// Each carries up to the connection's negotiated window of in-flight
/// requests, so a couple of sockets serve many concurrent callers.
const PIPELINE_CONNECTIONS: usize = 2;

/// One caller parked on a pipelined response.
struct Waiter {
    slot: std::sync::Mutex<Option<std::io::Result<Response>>>,
    ready: std::sync::Condvar,
}

impl Waiter {
    fn new() -> Waiter {
        Waiter {
            slot: std::sync::Mutex::new(None),
            ready: std::sync::Condvar::new(),
        }
    }

    fn fill(&self, result: std::io::Result<Response>) {
        *self.slot.lock().unwrap() = Some(result);
        self.ready.notify_one();
    }

    fn wait(&self) -> std::io::Result<Response> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.ready.wait(slot).unwrap();
        }
    }
}

/// One connection: a shared writer, a reader thread, and the id→waiter
/// completion map that pairs out-of-order responses with their callers.
struct PipeConn {
    /// Write half (a `try_clone` of the socket; the reader owns the other).
    /// The lock covers one whole frame write, so concurrent callers never
    /// interleave frame bytes.
    writer: Mutex<UnixStream>,
    /// Callers waiting for their response, keyed by request id.
    pending: Mutex<HashMap<u64, Arc<Waiter>>>,
    next_id: std::sync::atomic::AtomicU64,
    /// The reader exited (EOF, I/O error, protocol violation): no future
    /// call on this connection can complete. The endpoint replaces it.
    dead: std::sync::atomic::AtomicBool,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Client-local reporter; tracks the in-flight high-water mark.
    metrics: Arc<ClientMetrics>,
}

impl PipeConn {
    /// Wraps an already-connected (and preamble-sent) stream, spawning the
    /// reader thread (tests drive a connection without an endpoint).
    #[cfg(test)]
    fn over_stream(stream: UnixStream) -> std::io::Result<Arc<PipeConn>> {
        PipeConn::over_stream_with(stream, Arc::new(ClientMetrics::default()))
    }

    /// [`PipeConn::over_stream`] reporting into an existing client-local
    /// reporter.
    fn over_stream_with(
        stream: UnixStream,
        metrics: Arc<ClientMetrics>,
    ) -> std::io::Result<Arc<PipeConn>> {
        let reader_stream = stream.try_clone()?;
        let conn = Arc::new(PipeConn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
            dead: std::sync::atomic::AtomicBool::new(false),
            reader: Mutex::new(None),
            metrics,
        });
        let for_reader = Arc::clone(&conn);
        let handle = std::thread::Builder::new()
            .name("puddles-pipe-reader".into())
            .spawn(move || reader_loop(for_reader, reader_stream))?;
        *conn.reader.lock() = Some(handle);
        Ok(conn)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Sends one enveloped request and blocks until the reader fills this
    /// call's waiter. Any number of calls may be in flight concurrently.
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        if self.is_dead() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipelined connection is closed",
            ));
        }
        let req_id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let waiter = Arc::new(Waiter::new());
        let in_flight = {
            let mut pending = self.pending.lock();
            pending.insert(req_id, Arc::clone(&waiter));
            pending.len() as u64
        };
        self.metrics
            .pipeline_depth_hwm
            .fetch_max(in_flight, std::sync::atomic::Ordering::Relaxed);
        let env = puddles_proto::RequestEnvelope {
            req_id,
            req: req.clone(),
        };
        let written = {
            let mut writer = self.writer.lock();
            puddles_proto::write_frame(&mut *writer, &env)
        };
        if let Err(e) = written {
            self.pending.lock().remove(&req_id);
            self.dead.store(true, std::sync::atomic::Ordering::Relaxed);
            return Err(e);
        }
        waiter.wait()
    }

    /// Marks the connection dead and fails every parked caller (the reader
    /// is gone; their responses can never arrive).
    fn fail_all(&self, error: &std::io::Error) {
        self.dead.store(true, std::sync::atomic::Ordering::Relaxed);
        let pending: Vec<Arc<Waiter>> = self.pending.lock().drain().map(|(_, w)| w).collect();
        for waiter in pending {
            waiter.fill(Err(std::io::Error::new(error.kind(), error.to_string())));
        }
    }

    /// Unblocks the reader (both socket halves are clones of one fd, so
    /// shutting down the writer EOFs the reader too).
    fn close(&self) {
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

/// The reader half of one pipelined connection: decodes server frames and
/// routes each to its waiter by id. Exits — failing all parked callers — on
/// EOF, an I/O error, or a protocol violation (an id nobody is waiting on,
/// or a bare frame after the handshake, which can only be the acceptor's
/// `Busy` rejection).
fn reader_loop(conn: Arc<PipeConn>, mut stream: UnixStream) {
    use std::io::Read;
    let mut decoder = puddles_proto::frame::FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    let failure: std::io::Error = 'read: loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                break 'read std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )
            }
            Ok(n) => {
                decoder.feed(&buf[..n]);
                loop {
                    match decoder.next_frame::<puddles_proto::ServerFrame>() {
                        Ok(Some(puddles_proto::ServerFrame::Enveloped(env))) => {
                            let waiter = conn.pending.lock().remove(&env.req_id);
                            match waiter {
                                Some(waiter) => waiter.fill(Ok(env.resp)),
                                None => {
                                    break 'read std::io::Error::new(
                                        std::io::ErrorKind::InvalidData,
                                        format!("response for unknown req_id {}", env.req_id),
                                    )
                                }
                            }
                        }
                        Ok(Some(puddles_proto::ServerFrame::Bare(resp))) => {
                            break 'read bare_frame_error(resp)
                        }
                        Ok(None) => break,
                        Err(e) => break 'read e,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break 'read e,
        }
    };
    conn.fail_all(&failure);
}

/// Maps a bare (un-enveloped) server frame to the error every parked caller
/// gets. The daemon only sends one legitimately: the pre-handshake `Busy`
/// rejection at the connection cap, which maps to `ConnectionRefused` so
/// callers treat it as transient and back off.
fn bare_frame_error(resp: Response) -> std::io::Error {
    match resp {
        Response::Error {
            code: puddles_proto::ErrorCode::Busy,
            message,
        } => std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            format!("daemon busy: {message}"),
        ),
        other => std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bare frame on a pipelined connection: {other:?}"),
        ),
    }
}

/// Client-side endpoint speaking the framed protocol over a UNIX socket.
///
/// Keeps a small pool of connections ([`PIPELINE_CONNECTIONS`]) and spreads
/// calls round-robin across them; each connection multiplexes any number of
/// concurrent callers through its id→waiter map, so client threads never
/// wait for each other's round trips. Dead connections are replaced on the
/// next call; a call that fails transiently on an idempotent request is
/// re-sent under the endpoint's [`RetryPolicy`].
pub(crate) struct PipelinedEndpoint {
    path: std::path::PathBuf,
    pool: Mutex<Vec<Arc<PipeConn>>>,
    rr: std::sync::atomic::AtomicUsize,
    retry: RetryPolicy,
    /// Pool depth granted by the daemon's `Welcome`; starts at
    /// [`PIPELINE_CONNECTIONS`] and is replaced by the negotiated grant
    /// after the first handshake.
    depth: std::sync::atomic::AtomicUsize,
    /// Set after the first successful handshake; later dials flag
    /// themselves `reconnect` in `Hello`.
    connected_once: std::sync::atomic::AtomicBool,
    /// Pool depth to *request* in `Hello` (0 = take the server default).
    requested_depth: u32,
    /// Client-local reporter, shared with the retry policy and every
    /// connection in the pool.
    metrics: Arc<ClientMetrics>,
}

impl PipelinedEndpoint {
    pub(crate) fn new(path: &Path, retry: RetryPolicy) -> Self {
        PipelinedEndpoint {
            path: path.to_path_buf(),
            pool: Mutex::new(Vec::new()),
            rr: std::sync::atomic::AtomicUsize::new(0),
            retry,
            depth: std::sync::atomic::AtomicUsize::new(PIPELINE_CONNECTIONS),
            connected_once: std::sync::atomic::AtomicBool::new(false),
            requested_depth: 0,
            metrics: Arc::new(ClientMetrics::default()),
        }
    }

    /// Shares a client-local reporter (also wired into the retry policy so
    /// its retry counts land in the same place).
    pub(crate) fn with_client_metrics(mut self, metrics: Arc<ClientMetrics>) -> Self {
        self.retry = self.retry.clone().with_metrics(Arc::clone(&metrics));
        self.metrics = metrics;
        self
    }

    /// Requests a specific connection-pool depth in the handshake; the
    /// server clamps to its configured maximum and the grant replaces
    /// [`PIPELINE_CONNECTIONS`] as the pool target.
    pub(crate) fn with_requested_depth(mut self, depth: u32) -> Self {
        self.requested_depth = depth;
        if depth > 0 {
            // Until the grant arrives, don't dial beyond the request.
            self.depth
                .store(depth as usize, std::sync::atomic::Ordering::Relaxed);
        }
        self
    }

    /// Returns a live connection. Only an *empty* pool makes the caller
    /// wait: its dial is retried under the [`RetryPolicy`] (daemon
    /// restarting, or its connection cap — the `Busy` rejection surfaces as
    /// `ConnectionRefused`) with bounded exponential backoff, so a client at
    /// the cap gets through once load drains.
    fn conn(&self) -> std::io::Result<Arc<PipeConn>> {
        self.retry.run(|_| self.try_conn())
    }

    /// One pass over the pool: prune dead connections, dial at most one
    /// replacement towards the granted depth, pick round-robin. The pool
    /// lock covers a single dial, never a backoff sleep.
    fn try_conn(&self) -> std::io::Result<Arc<PipeConn>> {
        let mut pool = self.pool.lock();
        pool.retain(|c| !c.is_dead());
        if pool.len() < self.depth.load(std::sync::atomic::Ordering::Relaxed).max(1) {
            match self.try_connect_conn() {
                Ok(conn) => pool.push(conn),
                // A top-up the daemon turned away (it may grant fewer slots
                // than the pool wants) costs nothing while a live
                // connection can carry the call.
                Err(_) if !pool.is_empty() => {}
                Err(e) => return Err(e),
            }
        }
        let i = self.rr.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % pool.len();
        Ok(Arc::clone(&pool[i]))
    }

    /// Dials and handshakes one new connection.
    fn try_connect_conn(&self) -> std::io::Result<Arc<PipeConn>> {
        use std::io::Write;
        let mut stream = UnixStream::connect(&self.path)?;
        // The preamble: everything after it is enveloped frames.
        stream.write_all(&puddles_proto::frame::V2_MAGIC)?;
        let conn = PipeConn::over_stream_with(stream, Arc::clone(&self.metrics))?;
        let creds = Credentials::current_process();
        let reconnect = self
            .connected_once
            .load(std::sync::atomic::Ordering::Relaxed);
        if reconnect {
            self.metrics
                .reconnects
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let hello = Request::Hello {
            creds,
            max_in_flight: 0,
            pool_depth: self.requested_depth,
            reconnect,
        };
        // Handshake round trip: proves the daemon accepted the connection
        // (a cap rejection fails here, not on a later caller), fixes the
        // connection's credentials daemon-side, and carries back the
        // granted pool depth.
        if let Response::Welcome { pool_depth, .. } = conn.call(&hello)? {
            if pool_depth > 0 {
                self.depth
                    .store(pool_depth as usize, std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.connected_once
            .store(true, std::sync::atomic::Ordering::Relaxed);
        Ok(conn)
    }
}

impl Endpoint for PipelinedEndpoint {
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        let conn = self.conn()?;
        match conn.call(req) {
            Err(e) if is_transient(&e) && is_idempotent(req) => {
                // The connection died under us (daemon restart, stale
                // socket, injected reset). The daemon may have applied the
                // request and lost only the response, so only idempotent
                // requests are re-sent — each retry on a connection that
                // just handshook, under the backoff policy.
                self.retry.run(|_| {
                    let conn = self.conn()?;
                    conn.call(req)
                })
            }
            other => other,
        }
    }
}

impl Drop for PipelinedEndpoint {
    fn drop(&mut self) {
        // Shut every socket down first (EOFs all readers at once), then
        // join the reader threads.
        let pool = std::mem::take(&mut *self.pool.lock());
        for conn in &pool {
            conn.close();
        }
        for conn in &pool {
            if let Some(handle) = conn.reader.lock().take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puddles_proto::{PoolInfo, PuddleId};

    #[test]
    fn only_idempotent_requests_are_retried() {
        assert!(is_idempotent(&Request::Ping));
        assert!(is_idempotent(&Request::Stats));
        assert!(is_idempotent(&Request::OpenPool { name: "p".into() }));
        assert!(!is_idempotent(&Request::CreatePool {
            name: "p".into(),
            root_size: 4096,
            mode: 0o600,
        }));
        assert!(!is_idempotent(&Request::DropPool { name: "p".into() }));
        assert!(!is_idempotent(&Request::FreePuddle { id: PuddleId(7) }));
    }

    #[test]
    fn transient_errors_are_classified() {
        use std::io::{Error, ErrorKind};
        assert!(is_transient(&Error::new(ErrorKind::BrokenPipe, "x")));
        assert!(is_transient(&Error::new(ErrorKind::UnexpectedEof, "x")));
        assert!(is_transient(&Error::new(ErrorKind::ConnectionRefused, "x")));
        assert!(!is_transient(&Error::new(ErrorKind::InvalidData, "x")));
        assert!(!is_transient(&Error::new(ErrorKind::PermissionDenied, "x")));
    }

    #[test]
    fn retry_policy_backoff_stays_within_bounds() {
        let policy = RetryPolicy::default();
        let mut last_cap = Duration::ZERO;
        for retry in 0..10 {
            let cap = policy
                .base_delay
                .saturating_mul(1u32 << retry.min(16))
                .min(policy.max_delay);
            let delay = policy.backoff_delay(retry);
            // Jittered into [cap/2, cap]: never zero, never past the cap.
            assert!(delay >= cap / 2, "retry {retry}: {delay:?} < {:?}", cap / 2);
            assert!(delay <= cap, "retry {retry}: {delay:?} > {cap:?}");
            assert!(cap >= last_cap, "backoff schedule must not shrink");
            last_cap = cap;
        }
    }

    #[test]
    fn retry_policy_retries_transient_until_success() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy {
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let mut calls = 0u32;
        let result = policy.run(|_| {
            calls += 1;
            if calls < 3 {
                Err(Error::new(ErrorKind::BrokenPipe, "flaky"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
    }

    #[test]
    fn retry_policy_fails_fast_on_non_transient_errors() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let err = policy
            .run(|_| -> std::io::Result<()> {
                calls += 1;
                Err(Error::new(ErrorKind::PermissionDenied, "no"))
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
    }

    #[test]
    fn retry_policy_exhausts_its_attempt_budget() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let mut calls = 0u32;
        let err = policy
            .run(|_| -> std::io::Result<()> {
                calls += 1;
                Err(Error::new(ErrorKind::ConnectionReset, "down"))
            })
            .unwrap_err();
        assert_eq!(calls, 4);
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    }

    #[test]
    fn retry_policy_respects_its_deadline() {
        use std::io::{Error, ErrorKind};
        // Huge attempt budget but a deadline shorter than one backoff: the
        // policy must stop sleeping and return the last error. Run it on a
        // virtual clock — the whole schedule evaluates in logical time, so
        // the test cannot hang even if the deadline check regresses.
        let clock = Clock::simulated(7);
        let policy = RetryPolicy {
            max_attempts: 1_000,
            base_delay: Duration::from_secs(10),
            max_delay: Duration::from_secs(10),
            deadline: Duration::from_millis(5),
            ..RetryPolicy::default()
        }
        .with_clock(clock.clone());
        let mut calls = 0u32;
        let err = policy
            .run(|_| -> std::io::Result<()> {
                calls += 1;
                Err(Error::new(ErrorKind::BrokenPipe, "down"))
            })
            .unwrap_err();
        assert!(calls < 3, "deadline should cut the schedule short");
        // The first backoff (≥ 5 s jittered) overshoots the 5 ms deadline,
        // so no sleep was ever taken: virtual time did not move.
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn retry_policy_jitter_replays_from_a_pinned_seed() {
        // Same seed ⇒ identical backoff sequences across instances; a
        // different seed diverges somewhere in the first few draws.
        let a = RetryPolicy::default().with_seed(42);
        let b = RetryPolicy::default().with_seed(42);
        let c = RetryPolicy::default().with_seed(43);
        let seq = |p: &RetryPolicy| (0..8).map(|r| p.backoff_delay(r)).collect::<Vec<_>>();
        let (sa, sb, sc) = (seq(&a), seq(&b), seq(&c));
        assert_eq!(sa, sb, "pinned seed must replay the jitter stream");
        assert_ne!(sa, sc, "distinct seeds should decorrelate");
        // Cloning resets the stream position but keeps the seed.
        assert_eq!(seq(&a.clone()), sa);
    }

    #[test]
    fn busy_frames_map_to_transient_connection_refused() {
        let err = bare_frame_error(Response::Error {
            code: puddles_proto::ErrorCode::Busy,
            message: "cap".into(),
        });
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
        assert!(is_transient(&err));
        // Any other bare frame is a protocol violation, not retryable.
        let err = bare_frame_error(Response::Ok);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!is_transient(&err));
    }

    mod pipelined {
        use super::*;
        use proptest::prelude::*;
        use puddles_proto::frame::FrameDecoder;
        use puddles_proto::{frame, RequestEnvelope, ResponseEnvelope};
        use std::io::{Read, Write};

        /// Concurrent pipelined callers on one connection.
        const CALLERS: usize = 8;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Whatever order the server completes requests in, and however
            /// the response bytes are split on the wire, every caller gets
            /// exactly the response carrying its own `req_id` (verified by
            /// echoing each request's pool name in its response).
            #[test]
            fn out_of_order_responses_resolve_to_their_waiters(
                plan in proptest::collection::vec((0u64..1_000_000, 1usize..48), CALLERS..CALLERS + 1)
            ) {
                // Per caller: a completion-order seed and a wire-split size.
                let cuts: Vec<usize> = plan.iter().map(|&(_, cut)| cut).collect();
                // Completion order: argsort of the random seeds.
                let mut order: Vec<usize> = (0..CALLERS).collect();
                order.sort_by_key(|&i| (plan[i].0, i));

                let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
                let conn = PipeConn::over_stream(client_sock).unwrap();

                // Fake daemon: gather every request, then answer them in
                // the permuted order, splitting the byte stream at the
                // arbitrary `cuts` boundaries.
                let server = std::thread::spawn(move || {
                    let mut dec = FrameDecoder::new();
                    let mut buf = [0u8; 4096];
                    let mut reqs: Vec<RequestEnvelope> = Vec::new();
                    while reqs.len() < CALLERS {
                        let n = server_sock.read(&mut buf).unwrap();
                        assert!(n > 0, "client hung up early");
                        dec.feed(&buf[..n]);
                        while let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                            reqs.push(env);
                        }
                    }
                    let mut bytes = Vec::new();
                    for &i in &order {
                        let env = &reqs[i];
                        let name = match &env.req {
                            Request::OpenPool { name } => name.clone(),
                            other => panic!("unexpected request {other:?}"),
                        };
                        let resp = ResponseEnvelope {
                            req_id: env.req_id,
                            resp: Response::Pool(PoolInfo {
                                name,
                                root_puddle: PuddleId(0),
                                puddles: Vec::new(),
                            }),
                        };
                        bytes.extend_from_slice(&frame::encode_frame(&resp).unwrap());
                    }
                    let mut pos = 0usize;
                    for &cut in &cuts {
                        if pos >= bytes.len() {
                            break;
                        }
                        let end = (pos + cut).min(bytes.len());
                        server_sock.write_all(&bytes[pos..end]).unwrap();
                        pos = end;
                    }
                    server_sock.write_all(&bytes[pos..]).unwrap();
                });

                let mut callers = Vec::new();
                for i in 0..CALLERS {
                    let conn = Arc::clone(&conn);
                    callers.push(std::thread::spawn(move || {
                        let resp = conn
                            .call(&Request::OpenPool {
                                name: format!("pool-{i}"),
                            })
                            .unwrap();
                        match resp {
                            Response::Pool(info) => {
                                assert_eq!(info.name, format!("pool-{i}"))
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                    }));
                }
                for caller in callers {
                    caller.join().unwrap();
                }
                server.join().unwrap();
                conn.close();
                let handle = conn.reader.lock().take();
                if let Some(handle) = handle {
                    let _ = handle.join();
                }
            }
        }

        /// A scripted daemon on a real socket: handshakes each connection,
        /// then follows per-request directives — answer, or drop the
        /// connection mid-pipeline (after reading the request, before
        /// responding — the window where the client cannot know whether
        /// the daemon applied it). Returns after `conns` connections.
        fn scripted_server(
            socket: std::path::PathBuf,
            conns: usize,
            create_pools_seen: Arc<std::sync::atomic::AtomicUsize>,
            drop_pings: usize,
        ) -> std::thread::JoinHandle<()> {
            use std::sync::atomic::Ordering;
            let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
            std::thread::spawn(move || {
                let mut pings_to_drop = drop_pings;
                for _ in 0..conns {
                    let (mut stream, _) = listener.accept().unwrap();
                    let mut magic = [0u8; frame::V2_MAGIC.len()];
                    stream.read_exact(&mut magic).unwrap();
                    assert_eq!(magic, frame::V2_MAGIC);
                    let mut dec = FrameDecoder::new();
                    let mut buf = [0u8; 4096];
                    'conn: loop {
                        let n = match stream.read(&mut buf) {
                            Ok(0) | Err(_) => break 'conn,
                            Ok(n) => n,
                        };
                        dec.feed(&buf[..n]);
                        while let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                            let resp = match &env.req {
                                Request::Hello { .. } => Response::Welcome {
                                    space_base: 0x5000_0000_0000,
                                    space_size: 1 << 30,
                                    max_in_flight: 64,
                                    pool_depth: 1,
                                },
                                Request::Ping if pings_to_drop > 0 => {
                                    pings_to_drop -= 1;
                                    break 'conn;
                                }
                                Request::Ping => Response::Ok,
                                Request::CreatePool { .. } => {
                                    create_pools_seen.fetch_add(1, Ordering::SeqCst);
                                    break 'conn;
                                }
                                other => panic!("unexpected request {other:?}"),
                            };
                            let env = ResponseEnvelope {
                                req_id: env.req_id,
                                resp,
                            };
                            stream
                                .write_all(&frame::encode_frame(&env).unwrap())
                                .unwrap();
                        }
                    }
                }
            })
        }

        fn fast_retry() -> RetryPolicy {
            RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_millis(2),
                deadline: Duration::from_secs(2),
                ..RetryPolicy::default()
            }
        }

        /// A non-idempotent request whose connection dies mid-pipeline is
        /// NEVER blindly re-sent: the daemon may already have applied it,
        /// and a re-send could create the pool twice (or re-free a
        /// puddle). The error surfaces to the caller instead — and the
        /// endpoint still reconnects fine for the *next* call.
        #[test]
        fn non_idempotent_requests_are_not_resent_after_a_mid_pipeline_drop() {
            use std::sync::atomic::Ordering;
            let tmp = tempfile::tempdir().unwrap();
            let socket = tmp.path().join("scripted.sock");
            let creates = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let server = scripted_server(socket.clone(), 2, Arc::clone(&creates), 0);

            let ep = PipelinedEndpoint::new(&socket, fast_retry());
            let err = ep
                .call(&Request::CreatePool {
                    name: "once".into(),
                    root_size: 4096,
                    mode: 0o600,
                })
                .unwrap_err();
            assert!(is_transient(&err), "drop should surface as transport loss");
            // The endpoint recovers on a fresh connection for idempotent
            // work...
            assert!(matches!(ep.call(&Request::Ping), Ok(Response::Ok)));
            // ...but the create was sent exactly once, ever.
            assert_eq!(creates.load(Ordering::SeqCst), 1);
            drop(ep);
            server.join().unwrap();
        }

        /// Idempotent requests lost mid-pipeline ARE re-sent on a fresh
        /// connection under the backoff policy, invisibly to the caller.
        #[test]
        fn idempotent_requests_are_resent_after_a_mid_pipeline_drop() {
            let tmp = tempfile::tempdir().unwrap();
            let socket = tmp.path().join("scripted.sock");
            let creates = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let server = scripted_server(socket.clone(), 2, Arc::clone(&creates), 1);

            let ep = PipelinedEndpoint::new(&socket, fast_retry());
            // First Ping's connection is dropped mid-pipeline; the retry
            // plane re-dials and re-sends without the caller noticing.
            assert!(matches!(ep.call(&Request::Ping), Ok(Response::Ok)));
            drop(ep);
            server.join().unwrap();
        }

        /// A response whose id matches no waiter is a protocol violation:
        /// the connection dies and parked callers fail instead of hanging.
        #[test]
        fn unknown_req_id_kills_the_connection() {
            let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
            let conn = PipeConn::over_stream(client_sock).unwrap();
            let server = std::thread::spawn(move || {
                let mut dec = FrameDecoder::new();
                let mut buf = [0u8; 4096];
                let env = loop {
                    let n = server_sock.read(&mut buf).unwrap();
                    dec.feed(&buf[..n]);
                    if let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                        break env;
                    }
                };
                let resp = ResponseEnvelope {
                    req_id: env.req_id.wrapping_add(1000),
                    resp: Response::Ok,
                };
                server_sock
                    .write_all(&frame::encode_frame(&resp).unwrap())
                    .unwrap();
                server_sock
            });
            let err = conn.call(&Request::Ping).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(conn.is_dead());
            drop(server.join().unwrap());
            let handle = conn.reader.lock().take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}
