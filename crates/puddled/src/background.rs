//! Background task scheduler: a submit queue plus one periodic hook,
//! executed by one daemon-owned worker thread.
//!
//! The daemon keeps latency-insensitive work — WAL checkpoints (see
//! [`crate::registry`]) — off the request path by handing it to this
//! scheduler: a request that *triggers* such work enqueues it and returns,
//! instead of absorbing the work's latency inline. Two entry points:
//!
//! * [`Background::submit`] — run a task as soon as the worker is free
//!   (FIFO);
//! * [`Background::set_periodic`] — run one hook every `period` of the
//!   scheduler's clock. The period only bounds how long the idle worker
//!   sleeps, so an idle scheduler wakes once per period and one without a
//!   hook not at all.
//!
//! # Shutdown
//!
//! [`Background::shutdown`] *drains*: every task already submitted runs
//! before the worker exits, so a checkpoint enqueued moments before the
//! daemon stops still lands on disk. Tasks submitted after shutdown run
//! inline in the submitter, preserving the "submitted means executed"
//! guarantee. (A *crash*, by contrast, loses queued tasks by design — WAL
//! replay covers exactly that window.) The periodic hook is not a
//! submitted task and does not run during the drain.
//!
//! [`Background::pause`] / [`Background::resume`] exist for tests that need
//! a deterministically stalled scheduler (e.g. to force the registry's
//! inline-checkpoint fallback); shutdown overrides a pause.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use puddles_pmem::clock::Clock;

/// A unit of background work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// The recurring hook and when it next runs.
struct Periodic {
    period: Duration,
    /// Clock reading at which the hook is next due.
    next_due: Duration,
    hook: Arc<dyn Fn() + Send + Sync>,
}

struct State {
    queue: VecDeque<Task>,
    periodic: Option<Periodic>,
    shutdown: bool,
    paused: bool,
}

struct Inner {
    state: Mutex<State>,
    wake: Condvar,
    /// Time source for the periodic hook's schedule; virtual under test.
    clock: Clock,
    /// Tasks completed since start (drained tasks included).
    executed: AtomicU64,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Handle to the daemon's background scheduler. Clones share one worker.
#[derive(Clone)]
pub struct Background {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Background {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock().unwrap();
        f.debug_struct("Background")
            .field("queued", &state.queue.len())
            .field("periodic", &state.periodic.as_ref().map(|p| p.period))
            .field("executed", &self.inner.executed.load(Ordering::Relaxed))
            .field("shutdown", &state.shutdown)
            .finish()
    }
}

impl Background {
    /// Starts the scheduler's worker thread on the real clock.
    pub fn start(name: &str) -> Background {
        Background::start_with_clock(name, Clock::real())
    }

    /// Starts the scheduler's worker thread reading time from `clock` —
    /// a virtual clock makes the periodic hook's timeline test-controlled.
    pub fn start_with_clock(name: &str, clock: Clock) -> Background {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                periodic: None,
                shutdown: false,
                paused: false,
            }),
            wake: Condvar::new(),
            clock,
            executed: AtomicU64::new(0),
            thread: Mutex::new(None),
        });
        let worker_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || worker_loop(worker_inner))
            .expect("spawn background worker");
        *inner.thread.lock().unwrap() = Some(handle);
        Background { inner }
    }

    /// Enqueues `task` to run as soon as the worker is free. After
    /// [`Background::shutdown`] the task runs inline in the caller instead
    /// (submitted work is never silently dropped).
    pub fn submit(&self, task: Task) {
        {
            let mut state = self.inner.state.lock().unwrap();
            if !state.shutdown {
                state.queue.push_back(task);
                self.inner.wake.notify_one();
                return;
            }
        }
        task();
        self.inner.executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Installs the scheduler's one recurring hook (replacing any earlier
    /// one): the worker calls it every `period` of the scheduler's clock,
    /// first one period from now, until shutdown. A paused scheduler skips
    /// it like everything else.
    pub fn set_periodic(&self, period: Duration, hook: impl Fn() + Send + Sync + 'static) {
        let mut state = self.inner.state.lock().unwrap();
        state.periodic = Some(Periodic {
            period,
            next_due: self.inner.clock.now() + period,
            hook: Arc::new(hook),
        });
        self.inner.wake.notify_one();
    }

    /// Tasks completed so far (including inline-after-shutdown ones).
    pub fn executed(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// Tasks submitted but not yet run.
    pub fn pending(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Stops the worker from picking up tasks (they keep queueing). Test
    /// hook for forcing "scheduler saturated" conditions deterministically.
    pub fn pause(&self) {
        self.inner.state.lock().unwrap().paused = true;
    }

    /// Resumes a paused worker.
    pub fn resume(&self) {
        let mut state = self.inner.state.lock().unwrap();
        state.paused = false;
        self.inner.wake.notify_one();
    }

    /// Drains and stops: every task submitted before this call is executed,
    /// then the worker thread is joined. Idempotent; overrides a pause.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
            state.paused = false;
            self.inner.wake.notify_all();
        }
        // Joining from the worker itself (a task calling shutdown) would
        // deadlock; the flag alone stops the loop in that case.
        let handle = self.inner.thread.lock().unwrap().take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    let mut state = inner.state.lock().unwrap();
    loop {
        if state.shutdown {
            // Drain: everything already submitted runs before we exit.
            let queued: Vec<Task> = state.queue.drain(..).collect();
            drop(state);
            for task in queued {
                task();
                inner.executed.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if state.paused {
            state = inner.wake.wait(state).unwrap();
            continue;
        }
        if let Some(task) = state.queue.pop_front() {
            drop(state);
            task();
            inner.executed.fetch_add(1, Ordering::Relaxed);
            state = inner.state.lock().unwrap();
            continue;
        }
        // Idle: sleep until the periodic hook is due (indefinitely without
        // one); submits notify the condvar.
        let now = inner.clock.now();
        state = match &mut state.periodic {
            Some(p) if now >= p.next_due => {
                p.next_due = now + p.period;
                let hook = Arc::clone(&p.hook);
                drop(state);
                hook();
                inner.state.lock().unwrap()
            }
            Some(p) => {
                let timeout = p.next_due - now;
                inner.clock.wait_timeout(state, &inner.wake, timeout).0
            }
            None => inner.wake.wait(state).unwrap(),
        };
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Last handle gone without an explicit shutdown: stop the worker
        // (it is detached if still parked; the condvar wake below lets it
        // exit promptly).
        if let Ok(mut state) = self.state.lock() {
            state.shutdown = true;
        }
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn counter_task(counter: &Arc<AtomicUsize>) -> Task {
        let counter = Arc::clone(counter);
        Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })
    }

    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let real = Clock::real();
        let deadline = real.now() + Duration::from_secs(5);
        while !pred() {
            assert!(real.now() < deadline, "timed out waiting for {what}");
            real.sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn submitted_tasks_run_in_fifo_order() {
        let bg = Background::start("bg-test");
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let order = Arc::clone(&order);
            bg.submit(Box::new(move || order.lock().unwrap().push(i)));
        }
        wait_for(|| bg.executed() >= 10, "10 tasks");
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
        bg.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        let bg = Background::start("bg-drain");
        bg.pause();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            bg.submit(counter_task(&hits));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 0, "paused worker ran a task");
        assert_eq!(bg.pending(), 5);
        bg.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(bg.pending(), 0);
        // Submit-after-shutdown runs inline, never silently dropped.
        bg.submit(counter_task(&hits));
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn pause_blocks_and_resume_releases() {
        let bg = Background::start("bg-pause");
        bg.pause();
        let hits = Arc::new(AtomicUsize::new(0));
        bg.submit(counter_task(&hits));
        Clock::real().sleep(Duration::from_millis(30));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        bg.resume();
        wait_for(|| hits.load(Ordering::SeqCst) == 1, "resumed task");
        bg.shutdown();
    }

    #[test]
    fn periodic_hook_fires_once_per_period_of_virtual_time() {
        let clock = Clock::simulated(42);
        let vc = clock.virtual_clock().unwrap().clone();
        vc.set_auto_advance(false);
        let bg = Background::start_with_clock("bg-virtual", clock);
        let ticks = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&ticks);
        bg.set_periodic(Duration::from_secs(2), move || {
            t.fetch_add(1, Ordering::SeqCst);
        });
        // Submitted tasks still run: the worker is live, time is frozen.
        let hits = Arc::new(AtomicUsize::new(0));
        bg.submit(counter_task(&hits));
        wait_for(|| bg.executed() == 1, "immediate task under frozen time");
        assert_eq!(
            ticks.load(Ordering::SeqCst),
            0,
            "hook fired with time frozen"
        );
        // One tick short of the period: still nothing.
        vc.advance(Duration::from_millis(1999));
        Clock::real().sleep(Duration::from_millis(20));
        assert_eq!(ticks.load(Ordering::SeqCst), 0, "hook fired early");
        vc.advance(Duration::from_millis(1));
        wait_for(|| ticks.load(Ordering::SeqCst) == 1, "first period");
        // It re-arms itself: each further period is one more call, and the
        // hook is neither a pending nor an executed *task*.
        vc.advance(Duration::from_secs(2));
        wait_for(|| ticks.load(Ordering::SeqCst) == 2, "second period");
        assert_eq!((bg.pending(), bg.executed()), (0, 1));
        // A paused scheduler skips it; shutdown does not run it either.
        bg.pause();
        vc.advance(Duration::from_secs(10));
        Clock::real().sleep(Duration::from_millis(20));
        bg.shutdown();
        assert_eq!(ticks.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn shutdown_is_idempotent_and_safe_from_clones() {
        let bg = Background::start("bg-idem");
        let clone = bg.clone();
        bg.shutdown();
        clone.shutdown();
        assert_eq!(bg.pending(), 0);
    }
}
