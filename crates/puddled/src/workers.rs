//! The worker pool behind the reactor: a **two-lane queue** and the
//! threads that drain it.
//!
//! Heavyweight requests (pool import/export, creation/deletion, recovery)
//! ride the bulk lane, which only a reserved minority of workers prefer;
//! the remaining workers serve the fast lane exclusively — small mutations
//! that end in a WAL group commit, plus `GetMetrics` — so a burst of
//! imports can never starve them. A worker runs `Daemon::handle`, encodes
//! the response and pushes it to the reactor's completion queue. Which
//! lane a request takes is `service::lane_of`'s decision; how many workers
//! of each role run is the server's ([`crate::uds::UdsServer`]).

use crate::service::Lane;
use crate::uds::Shared;
use puddles_proto::{frame, Credentials, Request, Response, ResponseEnvelope};
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One request handed to the worker pool.
pub(crate) struct WorkItem {
    /// Token of the connection the response goes back to.
    pub(crate) conn: u64,
    /// Request id to echo in the response envelope.
    pub(crate) req_id: u64,
    pub(crate) creds: Credentials,
    pub(crate) req: Request,
    /// Clock reading at the push; the pop records the wait as `stage.queue`.
    pub(crate) enqueued: Duration,
}

/// What a worker thread is allowed to pull from the two-lane queue.
#[derive(Clone, Copy)]
pub(crate) enum WorkerRole {
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
pub(crate) struct WorkQueue {
    state: Mutex<Queues>,
    ready: Condvar,
}

struct Queues {
    fast: VecDeque<WorkItem>,
    bulk: VecDeque<WorkItem>,
    closed: bool,
}

impl WorkQueue {
    pub(crate) fn new() -> WorkQueue {
        WorkQueue {
            state: Mutex::new(Queues {
                fast: VecDeque::new(),
                bulk: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn push(&self, lane: Lane, item: WorkItem) {
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

    pub(crate) fn close(&self) {
        let mut q = self.state.lock().unwrap();
        q.closed = true;
        self.ready.notify_all();
    }
}

pub(crate) fn worker_loop(shared: &Arc<Shared>, role: WorkerRole) {
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
pub(crate) fn encode_response(out: &mut Vec<u8>, req_id: u64, resp: Response) -> io::Result<()> {
    frame::encode_frame_into(out, &ResponseEnvelope { req_id, resp }).or_else(|e| {
        let resp = Response::Error {
            code: puddles_proto::ErrorCode::Internal,
            message: format!("response encoding failed: {e}"),
        };
        frame::encode_frame_into(out, &ResponseEnvelope { req_id, resp })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Daemon;
    use crate::uds::UdsServer;
    use crate::DaemonConfig;
    use puddles_proto::BlockingConn;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::Ordering;

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
}
