//! The socket transport under a [`PuddleClient`](crate::PuddleClient): what
//! is retried and when ([`RetryPolicy`], idempotence and transience
//! classification), the client-local metrics ([`ClientMetrics`]), and the
//! one socket endpoint — one pipelined connection per client.
//!
//! A connection has no thread of its own. Callers share its write half one
//! frame at a time, and **whoever finds the socket free reads**: a caller
//! whose response is not in yet waits while another caller is reading, and
//! otherwise reads the socket once itself, hands every response frame that
//! read completed to the caller awaiting its `req_id`, and looks again. So
//! a depth-1 call is one `write` and one `read` on the calling thread, and
//! deeper pipelines still complete out of order: a slow request holds up
//! only its own caller.
//!
//! What is re-sent: a request whose frame could not be written was never
//! delivered (the daemon dispatches complete frames only), so whatever its
//! kind it is sent once more on a freshly dialed connection — nobody reads
//! an idle connection, so a daemon restart is first noticed by the write
//! that fails on it; a request that was written and whose response was
//! lost may already have been applied, so only the kinds the protocol's
//! table marks idempotent ([`puddles_proto::RequestKind::idempotent`]) are
//! re-sent, under the [`RetryPolicy`].

use parking_lot::Mutex;
use puddles_pmem::clock::{entropy_seed, Clock};
use puddles_pmem::util::{mix64, GOLDEN};
use puddles_proto::{Credentials, Endpoint, Request, Response};
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// `true` for I/O failures that a fresh connection may fix: the daemon
/// closed (or was restarted under) the client's socket, so a write lands on a
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

/// Client-local observability, shared by the endpoint, its retry policy,
/// and every pipelined connection. Surfaced through
/// [`crate::PuddleClient::client_metrics`] in the same report shape the daemon's
/// `GetMetrics` uses, so one consumer renders both sides.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Round trips of answered calls, write to response, on the retry
    /// policy's clock: the `client.rtt` series. Against the daemon's
    /// `service.*` series, the difference is what the transport costs.
    pub rtt: puddles_pmem::obs::ShardedHistogram,
    /// Retry attempts actually performed past each operation's first try
    /// (dials and idempotent re-sends alike).
    pub retry_attempts: std::sync::atomic::AtomicU64,
    /// Re-dials the daemon accepted after the first successful handshake
    /// (each also flags `reconnect` in its `Hello`, and the daemon counts a
    /// `Hello` it served, so the two counts match). Counted once `Welcome`
    /// is in: a re-dial turned away with `Busy` is not a reconnect.
    pub reconnects: std::sync::atomic::AtomicU64,
    /// High-water mark of requests in flight on one pipelined connection
    /// (calls that had written, or were about to write, their frame and
    /// did not yet have their response).
    pub pipeline_depth_hwm: std::sync::atomic::AtomicU64,
}

impl ClientMetrics {
    /// The series and counters as a wire-shaped report.
    pub fn report(&self) -> puddles_proto::MetricsReport {
        use std::sync::atomic::Ordering::Relaxed;
        let rtt = self.rtt.snapshot();
        let counter = |name: &str, value: u64| puddles_proto::CounterSnapshot {
            name: name.to_string(),
            value,
        };
        puddles_proto::MetricsReport {
            series: vec![puddles_proto::SeriesSnapshot::from_histogram(
                "client.rtt".to_string(),
                rtt.count,
                rtt.sum,
                rtt.max,
                |p| rtt.percentile(p),
            )],
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
/// loss. Only errors `is_transient` classifies as connection-level are
/// retried; the caller is responsible for never handing a non-idempotent
/// request to `RetryPolicy::run`.
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
    /// deadline budget is spent; attempts past the first follow a backoff
    /// sleep.
    fn run<T>(&self, mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        let start = self.clock.now();
        let mut attempt = 0u32;
        loop {
            match op() {
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
        let z = mix64(self.jitter_seed ^ n.wrapping_mul(GOLDEN));
        Duration::from_nanos(nanos / 2 + z % (nanos / 2 + 1))
    }
}

/// Largest chunk a connection's reader takes per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Why a call on one connection failed, split by the one fact the re-send
/// rule needs: whether the daemon can have seen the request.
#[derive(Debug)]
enum CallError {
    /// The frame was not (completely) written — the connection was already
    /// known dead, or the write failed. The daemon dispatches complete
    /// frames only, so the request was never delivered.
    Unsent(std::io::Error),
    /// The frame was written and the response never came: the daemon may
    /// or may not have applied the request.
    Unanswered(std::io::Error),
}

/// `true` for a request that never left and that a fresh connection may
/// carry.
fn unsent(outcome: &Result<Response, CallError>) -> bool {
    matches!(outcome, Err(CallError::Unsent(e)) if is_transient(e))
}

impl CallError {
    fn into_io(self) -> std::io::Error {
        match self {
            CallError::Unsent(e) | CallError::Unanswered(e) => e,
        }
    }
}

/// What the callers of one connection coordinate through.
struct Waiting {
    /// Every call in flight, by request id: `None` until its outcome is in.
    /// Only the call itself removes its entry.
    answers: HashMap<u64, Option<std::io::Result<Response>>>,
    /// A caller is reading the socket for everyone.
    reading: bool,
}

/// The read half of a connection, used by whichever caller is reading.
struct ReadHalf {
    stream: UnixStream,
    decoder: puddles_proto::frame::FrameDecoder,
    /// Scratch for socket reads (allocated once per connection).
    buf: Box<[u8]>,
}

/// One connection: a shared write half, a read half that whichever caller
/// finds it free reads for everyone, and the answers by request id that
/// pair out-of-order responses with their callers.
struct PipeConn {
    /// Write half (a `try_clone` of the socket). The lock covers one whole
    /// frame write, so concurrent callers never interleave frame bytes.
    writer: Mutex<UnixStream>,
    /// Locked only by the caller that set [`Waiting::reading`], so never
    /// contended; the mutex is what lets the read half move between
    /// threads.
    reader: Mutex<ReadHalf>,
    waiting: std::sync::Mutex<Waiting>,
    /// Signalled when a reader is done: answers may be in, and the read
    /// half is free.
    answered: std::sync::Condvar,
    next_id: std::sync::atomic::AtomicU64,
    /// A read or write failed (EOF, I/O error, protocol violation): no
    /// future call on this connection can complete. The endpoint replaces
    /// it.
    dead: std::sync::atomic::AtomicBool,
    /// Client-local reporter; tracks the in-flight high-water mark.
    metrics: Arc<ClientMetrics>,
}

impl PipeConn {
    /// Wraps an already-connected (and preamble-sent) stream.
    fn over_stream(stream: UnixStream, metrics: Arc<ClientMetrics>) -> std::io::Result<PipeConn> {
        Ok(PipeConn {
            reader: Mutex::new(ReadHalf {
                stream: stream.try_clone()?,
                decoder: puddles_proto::frame::FrameDecoder::new(),
                buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
            }),
            writer: Mutex::new(stream),
            waiting: std::sync::Mutex::new(Waiting {
                answers: HashMap::new(),
                reading: false,
            }),
            answered: std::sync::Condvar::new(),
            next_id: std::sync::atomic::AtomicU64::new(1),
            dead: std::sync::atomic::AtomicBool::new(false),
            metrics,
        })
    }

    fn is_dead(&self) -> bool {
        self.dead.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn waiting(&self) -> std::sync::MutexGuard<'_, Waiting> {
        // Every update under this lock leaves the map valid at every step,
        // so a caller that panicked while holding it took nothing with it.
        self.waiting.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sends one enveloped request and blocks until its response is in —
    /// reading the socket itself whenever nobody else is (see the module
    /// docs). Any number of calls may be in flight concurrently.
    fn call(&self, req: &Request) -> Result<Response, CallError> {
        use std::io::Write;
        if self.is_dead() {
            return Err(CallError::Unsent(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipelined connection is closed",
            )));
        }
        let req_id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Encoded before the connection is touched: a request too big for
        // one frame fails its own caller and leaves the connection up.
        let frame = puddles_proto::frame::encode_frame(&puddles_proto::RequestEnvelope {
            req_id,
            req: req.clone(),
        })
        .map_err(CallError::Unsent)?;
        let in_flight = {
            let mut waiting = self.waiting();
            waiting.answers.insert(req_id, None);
            waiting.answers.len() as u64
        };
        self.metrics
            .pipeline_depth_hwm
            .fetch_max(in_flight, std::sync::atomic::Ordering::Relaxed);
        if let Err(e) = self.writer.lock().write_all(&frame) {
            // Callers already waiting learn of it from the read half: the
            // peer that refused this write has closed on them too.
            self.dead.store(true, std::sync::atomic::Ordering::Relaxed);
            self.waiting().answers.remove(&req_id);
            return Err(CallError::Unsent(e));
        }

        let mut waiting = self.waiting();
        loop {
            if let Some(answer) = waiting.answers.get_mut(&req_id).and_then(Option::take) {
                waiting.answers.remove(&req_id);
                return answer.map_err(CallError::Unanswered);
            }
            if waiting.reading {
                waiting = self
                    .answered
                    .wait(waiting)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            waiting.reading = true;
            drop(waiting);
            let outcome = self.read_batch();
            waiting = self.waiting();
            waiting.reading = false;
            if let Err(failure) = outcome {
                // The stream position is lost (or the peer is gone):
                // nothing more can arrive. Fail every call still waiting,
                // exactly once each.
                self.dead.store(true, std::sync::atomic::Ordering::Relaxed);
                for answer in waiting.answers.values_mut().filter(|a| a.is_none()) {
                    *answer = Some(Err(std::io::Error::new(
                        failure.kind(),
                        failure.to_string(),
                    )));
                }
            }
            // Only other callers can be waiting, and each has an entry.
            // Alone, skip the notify: it is a syscall even with nobody to
            // wake.
            if waiting.answers.len() > 1 {
                self.answered.notify_all();
            }
        }
    }

    /// Reads the socket once and hands every complete response frame to
    /// its entry in the answers (so no complete frame is left buffered for
    /// the next batch, which reads first too). An error means the
    /// connection is lost: it failed, closed, sent a bare frame or answered
    /// an id nobody awaits.
    fn read_batch(&self) -> std::io::Result<()> {
        use std::io::Read;
        let mut half = self.reader.lock();
        let ReadHalf {
            stream,
            decoder,
            buf,
        } = &mut *half;
        match stream.read(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ))
            }
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        while let Some(frame) = decoder.next_frame::<puddles_proto::ServerFrame>()? {
            let env = match frame {
                puddles_proto::ServerFrame::Enveloped(env) => env,
                puddles_proto::ServerFrame::Bare(resp) => return Err(bare_frame_error(resp)),
            };
            let mut waiting = self.waiting();
            let Some(answer) = waiting.answers.get_mut(&env.req_id) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response for unknown req_id {}", env.req_id),
                ));
            };
            *answer = Some(Ok(env.resp));
        }
        Ok(())
    }
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
/// Holds one connection, which multiplexes any number of concurrent callers
/// by request id, so client threads never wait for each other's round
/// trips. A dead connection is replaced on the next call; what a
/// failed call re-sends is the module docs' rule.
pub(crate) struct PipelinedEndpoint {
    path: std::path::PathBuf,
    /// The connection: `None` until the first dial succeeds, then the last
    /// one the daemon accepted (possibly dead, until a re-dial replaces it).
    conn: Mutex<Option<Arc<PipeConn>>>,
    retry: RetryPolicy,
    /// Client-local reporter, shared with the retry policy and the
    /// connection.
    metrics: Arc<ClientMetrics>,
}

impl PipelinedEndpoint {
    pub(crate) fn new(path: &Path, retry: RetryPolicy) -> Self {
        PipelinedEndpoint {
            path: path.to_path_buf(),
            conn: Mutex::new(None),
            retry,
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

    /// Returns the live connection, dialing one if there is none. A dial is
    /// retried under the [`RetryPolicy`] (daemon restarting, or its
    /// connection cap — the `Busy` rejection surfaces as
    /// `ConnectionRefused`) with bounded exponential backoff, so a client at
    /// the cap gets through once load drains. The lock covers a single
    /// dial, never a backoff sleep.
    fn conn(&self) -> std::io::Result<Arc<PipeConn>> {
        self.retry.run(|| {
            let mut held = self.conn.lock();
            match &*held {
                Some(conn) if !conn.is_dead() => Ok(Arc::clone(conn)),
                // A connection held before makes this dial a reconnect.
                _ => {
                    let conn = self.try_connect_conn(held.is_some())?;
                    *held = Some(Arc::clone(&conn));
                    Ok(conn)
                }
            }
        })
    }

    /// Dials and handshakes one new connection.
    fn try_connect_conn(&self, reconnect: bool) -> std::io::Result<Arc<PipeConn>> {
        use std::io::Write;
        let mut stream = UnixStream::connect(&self.path)?;
        // The preamble: everything after it is enveloped frames.
        stream.write_all(&puddles_proto::frame::V2_MAGIC)?;
        let conn = Arc::new(PipeConn::over_stream(stream, Arc::clone(&self.metrics))?);
        let creds = Credentials::current_process();
        let hello = Request::Hello { creds, reconnect };
        // Handshake round trip: proves the daemon accepted the connection
        // (a cap rejection fails here, not on a later caller) and fixes the
        // connection's credentials daemon-side.
        conn.call(&hello).map_err(CallError::into_io)?;
        if reconnect {
            self.metrics
                .reconnects
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(conn)
    }
}

impl PipelinedEndpoint {
    /// One round trip on `conn`, timed into `client.rtt` when it is
    /// answered.
    fn round_trip(&self, conn: &PipeConn, req: &Request) -> Result<Response, CallError> {
        let clock = &self.retry.clock;
        let start = clock.now();
        let resp = conn.call(req)?;
        self.metrics
            .rtt
            .record_duration(clock.now().saturating_sub(start));
        Ok(resp)
    }
}

impl Endpoint for PipelinedEndpoint {
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        let mut outcome = self.round_trip(&*self.conn()?, req);
        if unsent(&outcome) {
            // The connection had died while it sat idle (daemon restart,
            // stale socket) and the frame never left: nothing was applied,
            // so a request of any kind goes out again, on a connection
            // dialed for it.
            outcome = self.round_trip(&*self.conn()?, req);
        }
        match outcome.map_err(CallError::into_io) {
            Err(e) if is_transient(&e) && req.kind().idempotent() => {
                // The connection died under us (daemon restart, injected
                // reset). The daemon may have applied the request and lost
                // only the response, so only idempotent requests are
                // re-sent — each retry on a connection that just handshook,
                // under the backoff policy.
                self.retry.run(|| {
                    self.round_trip(&*self.conn()?, req)
                        .map_err(CallError::into_io)
                })
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puddles_proto::{PoolInfo, PuddleId, RequestKind};

    #[test]
    fn only_idempotent_requests_are_retried() {
        let never_resent: Vec<RequestKind> = RequestKind::ALL
            .into_iter()
            .filter(|kind| !kind.idempotent())
            .collect();
        assert_eq!(
            never_resent,
            [
                RequestKind::CreatePuddle,
                RequestKind::FreePuddle,
                RequestKind::CreatePool,
                RequestKind::DropPool,
                RequestKind::ImportPool,
            ]
        );
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
        let result = policy.run(|| {
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
    fn retry_policy_backoff_sleeps_on_its_clock() {
        use std::io::{Error, ErrorKind};
        // Two transient failures, then success, on a virtual clock: the two
        // backoff sleeps move virtual time by exactly the delays drawn, and
        // cost no wall time (a real clock would sleep ≥ 1.5 s here).
        let clock = Clock::simulated();
        let schedule = || {
            RetryPolicy {
                base_delay: Duration::from_secs(1),
                max_delay: Duration::from_secs(10),
                deadline: Duration::from_secs(60),
                ..RetryPolicy::default()
            }
            .with_seed(9)
        };
        let replica = schedule();
        let expected = replica.backoff_delay(0) + replica.backoff_delay(1);
        let policy = schedule().with_clock(clock.clone());
        let wall = std::time::Instant::now();
        let mut calls = 0u32;
        let result = policy.run(|| {
            calls += 1;
            if calls < 3 {
                Err(Error::new(ErrorKind::ConnectionReset, "flaky"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
        assert_eq!(clock.now(), expected);
        assert!(
            wall.elapsed() < Duration::from_millis(500),
            "{:?}",
            wall.elapsed()
        );
    }

    #[test]
    fn retry_policy_fails_fast_on_non_transient_errors() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let err = policy
            .run(|| -> std::io::Result<()> {
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
            .run(|| -> std::io::Result<()> {
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
        let clock = Clock::simulated();
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
            .run(|| -> std::io::Result<()> {
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
    fn retry_policy_jitter_stream_is_pinned() {
        // The first draws for seed 42 under the default schedule: any
        // change to the jitter mixer shifts every seeded retry sequence.
        let policy = RetryPolicy::default().with_seed(42);
        let nanos: Vec<u128> = (0..8).map(|r| policy.backoff_delay(r).as_nanos()).collect();
        assert_eq!(
            nanos,
            [
                1_233_827,
                3_928_899,
                7_759_790,
                11_658_278,
                25_401_800,
                44_203_864,
                107_687_065,
                125_153_323
            ]
        );
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
                let conn = pipe_conn(client_sock);

                // Fake daemon: gather every request, then answer them in
                // the permuted order, splitting the byte stream at the
                // arbitrary `cuts` boundaries.
                let server = std::thread::spawn(move || {
                    let reqs = read_requests(&mut server_sock, CALLERS);
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
            }
        }

        fn pipe_conn(stream: UnixStream) -> Arc<PipeConn> {
            Arc::new(PipeConn::over_stream(stream, Arc::default()).unwrap())
        }

        /// Reads request frames off `stream` until `n` have arrived.
        fn read_requests(stream: &mut UnixStream, n: usize) -> Vec<RequestEnvelope> {
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let mut reqs = Vec::new();
            while reqs.len() < n {
                let got = stream.read(&mut buf).unwrap();
                assert!(got > 0, "client hung up early");
                dec.feed(&buf[..got]);
                while let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                    reqs.push(env);
                }
            }
            reqs
        }

        /// The free socket is taken up, one forced step at a time: the
        /// first reader is answered first and leaves with every other
        /// caller still waiting; after that each response (reverse arrival
        /// order) is written only once the previous caller has returned, so
        /// at every step some waiting caller must find the socket free and
        /// read, or the test times out. A wake-up lost anywhere strands the
        /// callers behind it.
        #[test]
        fn a_waiting_caller_reads_once_the_socket_is_free_until_the_last_is_answered() {
            use std::sync::mpsc;
            const N: usize = 6;
            let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
            let conn = pipe_conn(client_sock);
            let (done_tx, done_rx) = mpsc::channel::<u64>();
            let spawn_caller = |i: usize| {
                let conn = Arc::clone(&conn);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    let name = format!("pool-{i}");
                    match conn.call(&Request::OpenPool { name: name.clone() }) {
                        Ok(Response::Pool(info)) => assert_eq!(info.name, name),
                        other => panic!("caller {i}: {other:?}"),
                    }
                    done_tx.send(i as u64).unwrap();
                })
            };

            let mut callers = vec![spawn_caller(0)];
            let mut reqs = read_requests(&mut server_sock, 1);
            // Caller 0 wrote its frame; wait until it is also reading, so
            // that the others find the socket taken and park.
            while !conn.waiting().reading {
                std::thread::yield_now();
            }
            callers.extend((1..N).map(spawn_caller));
            reqs.extend(read_requests(&mut server_sock, N - 1));

            let first = reqs.remove(0);
            for env in std::iter::once(first).chain(reqs.into_iter().rev()) {
                let Request::OpenPool { name } = env.req else {
                    panic!("unexpected request {:?}", env.req);
                };
                let resp = ResponseEnvelope {
                    req_id: env.req_id,
                    resp: Response::Pool(PoolInfo {
                        name,
                        root_puddle: PuddleId(0),
                        puddles: Vec::new(),
                    }),
                };
                server_sock
                    .write_all(&frame::encode_frame(&resp).unwrap())
                    .unwrap();
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a written response reached nobody: no caller was reading");
            }
            for caller in callers {
                caller.join().unwrap();
            }
            let waiting = conn.waiting();
            assert!(waiting.answers.is_empty() && !waiting.reading);
        }

        /// Callers still writing their frames when the reader leaves must
        /// not strand a caller that is parked: if their writes fail (the
        /// peer answered the reader and closed), they leave without
        /// reading, and the parked caller must still find the socket free
        /// and read the EOF itself. Several writers are held mid-write,
        /// over several rounds, so that their failures interleave with the
        /// reader's departure.
        #[test]
        fn a_failed_write_does_not_strand_a_parked_caller() {
            use std::sync::mpsc;
            const WRITERS: usize = 4;
            for round in 0..8 {
                let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
                let conn = pipe_conn(client_sock);
                let call = |conn: &Arc<PipeConn>| {
                    let conn = Arc::clone(conn);
                    std::thread::spawn(move || conn.call(&Request::Ping))
                };
                let entries = |n: usize| {
                    while conn.waiting().answers.len() < n {
                        std::thread::yield_now();
                    }
                };

                let reader = call(&conn);
                let first = read_requests(&mut server_sock, 1).remove(0);
                while !conn.waiting().reading {
                    std::thread::yield_now();
                }
                // Parks behind the reader once its frame is out.
                let (parked_tx, parked_rx) = mpsc::channel();
                let parked = {
                    let conn = Arc::clone(&conn);
                    std::thread::spawn(move || parked_tx.send(conn.call(&Request::Ping)).unwrap())
                };
                read_requests(&mut server_sock, 1);
                // These take their entries, then block on the write half.
                let write_half = conn.writer.lock();
                let writers: Vec<_> = (0..WRITERS).map(|_| call(&conn)).collect();
                entries(2 + WRITERS);

                // The reader is answered and the peer goes away.
                let resp = ResponseEnvelope {
                    req_id: first.req_id,
                    resp: Response::Ok,
                };
                server_sock
                    .write_all(&frame::encode_frame(&resp).unwrap())
                    .unwrap();
                drop(server_sock);
                assert!(matches!(reader.join().unwrap(), Ok(Response::Ok)));
                drop(write_half);

                for writer in writers {
                    assert!(writer.join().unwrap().is_err());
                }
                match parked_rx.recv_timeout(Duration::from_secs(10)) {
                    Ok(Err(CallError::Unanswered(e))) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
                    }
                    other => panic!("round {round}: the parked caller got {other:?}"),
                }
                parked.join().unwrap();
                assert!(conn.waiting().answers.is_empty());
            }
        }

        /// The daemon going away mid-pipeline fails every caller parked on
        /// the connection — the one reading and those waiting alike — once
        /// each, as undelivered-response errors; nobody is left waiting.
        #[test]
        fn eof_mid_pipeline_fails_every_parked_caller_once() {
            const N: usize = 6;
            let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
            let conn = pipe_conn(client_sock);
            let callers: Vec<_> = (0..N)
                .map(|_| {
                    let conn = Arc::clone(&conn);
                    std::thread::spawn(move || conn.call(&Request::Ping))
                })
                .collect();
            // Every request is in: every caller is parked (or about to be).
            read_requests(&mut server_sock, N);
            drop(server_sock);
            for caller in callers {
                match caller.join().unwrap() {
                    Err(CallError::Unanswered(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
                    }
                    other => panic!("expected a lost response, got {other:?}"),
                }
            }
            assert!(conn.is_dead());
            assert!(conn.waiting().answers.is_empty());
            // And the dead connection refuses new calls without sending.
            assert!(matches!(
                conn.call(&Request::Ping),
                Err(CallError::Unsent(_))
            ));
        }

        /// A scripted daemon on a real socket: handshakes each connection,
        /// then follows per-request directives — answer, or drop the
        /// connection mid-pipeline (after reading the request, before
        /// responding — the window where the client cannot know whether
        /// the daemon applied it). The first `drop_pings` pings and every
        /// `CreatePool` on connections before the last are dropped that
        /// way; the last connection answers its creates. A connection
        /// before the last is also closed right after it answers a ping
        /// (it goes away while the client holds it idle). Each closed
        /// connection is announced on `closed`. The script serves one
        /// connection at a time and stops listening once the last is in (a
        /// dial past it is refused rather than left unanswered). Returns
        /// after `conns` connections.
        fn scripted_server(
            socket: std::path::PathBuf,
            conns: usize,
            create_pools_seen: Arc<std::sync::atomic::AtomicUsize>,
            drop_pings: usize,
            closed: std::sync::mpsc::Sender<()>,
        ) -> std::thread::JoinHandle<()> {
            use std::sync::atomic::Ordering;
            let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
            std::thread::spawn(move || {
                let mut pings_to_drop = drop_pings;
                let mut listener = Some(listener);
                for nth in 0..conns {
                    let (mut stream, _) = listener.as_ref().unwrap().accept().unwrap();
                    if nth + 1 == conns {
                        listener = None;
                    }
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
                                },
                                Request::Ping if pings_to_drop > 0 => {
                                    pings_to_drop -= 1;
                                    break 'conn;
                                }
                                Request::Ping => Response::Ok,
                                Request::CreatePool { name, .. } => {
                                    create_pools_seen.fetch_add(1, Ordering::SeqCst);
                                    if nth + 1 < conns {
                                        break 'conn;
                                    }
                                    Response::Pool(PoolInfo {
                                        name: name.clone(),
                                        root_puddle: PuddleId(0),
                                        puddles: Vec::new(),
                                    })
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
                            if matches!(env.resp, Response::Ok) && nth + 1 < conns {
                                break 'conn;
                            }
                        }
                    }
                    drop(stream);
                    let _ = closed.send(());
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
            let (closed, _) = std::sync::mpsc::channel();
            let server = scripted_server(socket.clone(), 2, Arc::clone(&creates), 0, closed);

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
            let (closed, _) = std::sync::mpsc::channel();
            let server = scripted_server(socket.clone(), 2, Arc::clone(&creates), 1, closed);

            let ep = PipelinedEndpoint::new(&socket, fast_retry());
            // First Ping's connection is dropped mid-pipeline; the retry
            // plane re-dials and re-sends without the caller noticing.
            assert!(matches!(ep.call(&Request::Ping), Ok(Response::Ok)));
            drop(ep);
            server.join().unwrap();
        }

        /// A request whose frame could not be written was never delivered,
        /// so it is safe to send again whatever its kind: a `CreatePool`
        /// issued after the daemon closed the connection as it sat idle is
        /// sent once more, on a freshly dialed connection, and is created
        /// exactly once.
        #[test]
        fn an_unsent_request_of_any_kind_is_resent_until_a_connection_is_fresh() {
            use std::sync::atomic::Ordering;
            let tmp = tempfile::tempdir().unwrap();
            let socket = tmp.path().join("scripted.sock");
            let creates = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let (closed, closed_rx) = std::sync::mpsc::channel();
            let server = scripted_server(socket.clone(), 2, Arc::clone(&creates), 0, closed);

            let ep = PipelinedEndpoint::new(&socket, fast_retry());
            // Dials the connection, which the script closes once it has
            // answered.
            assert!(matches!(ep.call(&Request::Ping), Ok(Response::Ok)));
            closed_rx.recv_timeout(Duration::from_secs(10)).unwrap();
            let resp = ep.call(&Request::CreatePool {
                name: "once".into(),
                root_size: 4096,
                mode: 0o600,
            });
            assert!(matches!(resp, Ok(Response::Pool(_))), "{resp:?}");
            assert_eq!(creates.load(Ordering::SeqCst), 1);
            drop(ep);
            server.join().unwrap();
        }

        /// A response whose id matches no waiting caller is a protocol violation:
        /// the connection dies and parked callers fail instead of hanging.
        #[test]
        fn unknown_req_id_kills_the_connection() {
            let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
            let conn = pipe_conn(client_sock);
            let server = std::thread::spawn(move || {
                let env = read_requests(&mut server_sock, 1).remove(0);
                let resp = ResponseEnvelope {
                    req_id: env.req_id.wrapping_add(1000),
                    resp: Response::Ok,
                };
                server_sock
                    .write_all(&frame::encode_frame(&resp).unwrap())
                    .unwrap();
                server_sock
            });
            let err = conn.call(&Request::Ping).unwrap_err().into_io();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(conn.is_dead());
            drop(server.join().unwrap());
        }
    }
}
