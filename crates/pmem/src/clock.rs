//! Time as a value: a swappable clock so tests can own the timeline.
//!
//! Every time consumer in the stack (latency series, the reported WAL
//! checkpoint age, reactor drain/shutdown deadlines, client retry
//! backoff) reads time through a [`Clock`] instead of calling
//! `Instant::now()` or `thread::sleep` directly. Nothing *branches* on
//! which kind of clock it was handed — there is no accessor to ask:
//!
//! - [`Clock::real`] is wall time: `now()` is the elapsed `Duration` since
//!   a lazily-anchored process epoch, `sleep` is `thread::sleep`, and
//!   timed condvar waits are real timed waits. Production behaviour is
//!   unchanged.
//! - [`Clock::simulated`] wraps a [`VirtualClock`]: a logical timeline
//!   that only moves when something advances it. Timers registered on it
//!   fire in deterministic order — earliest deadline first, ties broken
//!   by registration order — so the same seed replays the same execution.
//!
//! `Clock` is a concrete cloneable value (not a trait object) so it can
//! expose generic methods like [`Clock::wait_timeout`] and be stored in
//! configs without boxing. Cloning is cheap; clones of a simulated clock
//! share one timeline.
//!
//! # Auto-advance
//!
//! A [`VirtualClock`] in auto-advance mode (the default for
//! [`Clock::simulated`]) lets sleepers pull time forward: when a sleeping
//! thread holds the *earliest* pending timer, it advances `now` to its
//! own deadline and wakes. Sleeps cost no wall time, yet wakeups stay
//! ordered — with one runnable thread at a time (the torture harness's
//! cooperative scheduler) the timeline is a pure function of the
//! workload. Passive waiters ([`Clock::wait_timeout`]) never pull time
//! forward; they poll the virtual timeline with a short real-time tick
//! and report whether their virtual deadline has passed.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Real poll tick used by passive virtual waits (see module docs): short
/// enough that virtual-time tests feel instant, long enough not to burn a
/// core while a waiting thread idles.
const VIRTUAL_POLL: Duration = Duration::from_millis(1);

/// A source of time: real (wall clock) or simulated (virtual timeline).
/// See the module docs.
#[derive(Clone, Debug)]
pub struct Clock(Source);

#[derive(Clone, Debug)]
enum Source {
    Real,
    Virtual(Arc<VirtualClock>),
}

/// The process-wide anchor all real `now()` readings are relative to.
/// Lazily initialized on first use; only differences ever matter.
fn real_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl Clock {
    /// The production clock: wall time.
    pub fn real() -> Clock {
        Clock(Source::Real)
    }

    /// A fresh virtual timeline seeded for reproducibility, with
    /// auto-advance enabled (see module docs). Clones share the timeline.
    pub fn simulated(seed: u64) -> Clock {
        Clock(Source::Virtual(VirtualClock::new(seed)))
    }

    /// The underlying virtual clock, if simulated — for tests and
    /// harnesses that drive the timeline explicitly.
    pub fn virtual_clock(&self) -> Option<&Arc<VirtualClock>> {
        match &self.0 {
            Source::Real => None,
            Source::Virtual(vc) => Some(vc),
        }
    }

    /// Time elapsed since this clock's epoch. Monotonic; starts near zero.
    pub fn now(&self) -> Duration {
        match &self.0 {
            Source::Real => real_epoch().elapsed(),
            Source::Virtual(vc) => vc.now(),
        }
    }

    /// Blocks the calling thread for `dur` of *this clock's* time. On a
    /// virtual clock in auto-advance mode this returns promptly in real
    /// time while consuming `dur` of virtual time, with deterministic
    /// ordering between concurrent sleepers.
    pub fn sleep(&self, dur: Duration) {
        match &self.0 {
            Source::Real => std::thread::sleep(dur),
            Source::Virtual(vc) => vc.sleep(dur),
        }
    }

    /// A timed condvar wait against this clock. Returns the reacquired
    /// guard and `true` if `dur` of clock time has elapsed ("timed out").
    ///
    /// Spurious and early wakeups are allowed on *both* clock kinds (a
    /// virtual wait polls in short real-time ticks) — callers must loop on
    /// their predicate and recompute the remaining timeout, exactly as
    /// standard condvar discipline already requires.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        cv: &Condvar,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        match &self.0 {
            Source::Real => {
                let (guard, res) = cv.wait_timeout(guard, dur).unwrap();
                (guard, res.timed_out())
            }
            Source::Virtual(vc) => {
                let deadline = vc.now() + dur;
                let (guard, _) = cv.wait_timeout(guard, VIRTUAL_POLL.min(dur)).unwrap();
                (guard, vc.now() >= deadline)
            }
        }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::real()
    }
}

/// A seed of OS entropy with no dependencies: `RandomState` hashes with
/// per-process random keys, so one finished hash of nothing is a random
/// u64. Used for production jitter seeds where determinism is unwanted.
pub fn entropy_seed() -> u64 {
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

/// A logical timeline with deterministically ordered timers. Usually
/// handled through [`Clock::simulated`]; see the module docs.
#[derive(Debug)]
pub struct VirtualClock {
    seed: u64,
    state: Mutex<VState>,
    wake: Condvar,
    auto_advance: AtomicBool,
}

#[derive(Debug)]
struct VState {
    now: Duration,
    /// Next timer id; ids double as the registration-order tie-break.
    next_id: u64,
    /// Pending timers, ordered `(deadline, id)` — the firing order.
    pending: BTreeMap<(Duration, u64), ()>,
    /// Timers that have fired and not yet been claimed by their sleeper.
    fired: BTreeSet<u64>,
    /// Every fired timer id, in firing order — the deterministic wake log.
    fired_log: Vec<u64>,
}

impl VirtualClock {
    /// A fresh timeline at `now == 0` with auto-advance enabled.
    pub fn new(seed: u64) -> Arc<VirtualClock> {
        Arc::new(VirtualClock {
            seed,
            state: Mutex::new(VState {
                now: Duration::ZERO,
                next_id: 0,
                pending: BTreeMap::new(),
                fired: BTreeSet::new(),
                fired_log: Vec::new(),
            }),
            wake: Condvar::new(),
            auto_advance: AtomicBool::new(true),
        })
    }

    /// The seed this timeline was created with (recorded for traces).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables or disables auto-advance (see module docs). Tests that
    /// drive time explicitly via [`VirtualClock::advance`] turn it off.
    pub fn set_auto_advance(&self, on: bool) {
        self.auto_advance.store(on, Ordering::SeqCst);
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.state.lock().unwrap().now
    }

    /// Registers a timer `delay` from now, returning its id. The timer
    /// fires when the timeline reaches its deadline — earliest deadline
    /// first, ties in registration (id) order.
    pub fn register_timer(&self, delay: Duration) -> u64 {
        let mut st = self.state.lock().unwrap();
        let id = st.next_id;
        st.next_id += 1;
        let deadline = st.now + delay;
        if delay.is_zero() {
            // Already due: fires immediately, keeping the log ordered.
            st.fired.insert(id);
            st.fired_log.push(id);
        } else {
            st.pending.insert((deadline, id), ());
        }
        id
    }

    /// Moves the timeline forward by `by`, firing every timer whose
    /// deadline is reached, in deterministic order, and waking sleepers.
    pub fn advance(&self, by: Duration) {
        let mut st = self.state.lock().unwrap();
        Self::advance_locked(&mut st, by);
        self.wake.notify_all();
    }

    fn advance_locked(st: &mut VState, by: Duration) {
        st.now += by;
        while let Some((&(deadline, id), ())) = st.pending.iter().next() {
            if deadline > st.now {
                break;
            }
            st.pending.remove(&(deadline, id));
            st.fired.insert(id);
            st.fired_log.push(id);
        }
    }

    /// The ids of every fired timer so far, in firing order.
    pub fn fired_order(&self) -> Vec<u64> {
        self.state.lock().unwrap().fired_log.clone()
    }

    /// `true` once timer `id` has fired.
    pub fn has_fired(&self, id: u64) -> bool {
        let st = self.state.lock().unwrap();
        st.fired.contains(&id) || st.fired_log.contains(&id)
    }

    /// How many timers have ever been registered (sleeps included) — lets
    /// tests gate on registration order without exposing internals.
    pub fn timers_registered(&self) -> u64 {
        self.state.lock().unwrap().next_id
    }

    /// Sleeps `dur` of virtual time: registers a timer and blocks until it
    /// fires. Under auto-advance, the sleeper holding the earliest pending
    /// timer pulls `now` to its own deadline, so sleeps cost no wall time
    /// but still wake in deterministic `(deadline, registration)` order.
    pub fn sleep(&self, dur: Duration) {
        if dur.is_zero() {
            return;
        }
        let mut st = self.state.lock().unwrap();
        let id = st.next_id;
        st.next_id += 1;
        let deadline = st.now + dur;
        st.pending.insert((deadline, id), ());
        loop {
            if st.fired.remove(&id) {
                return;
            }
            let earliest = st.pending.keys().next() == Some(&(deadline, id));
            if earliest && self.auto_advance.load(Ordering::SeqCst) {
                let by = deadline - st.now;
                Self::advance_locked(&mut st, by);
                self.wake.notify_all();
                continue;
            }
            st = self.wake.wait(st).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_and_sleeps() {
        let clock = Clock::real();
        let a = clock.now();
        clock.sleep(Duration::from_millis(2));
        let b = clock.now();
        assert!(b >= a + Duration::from_millis(2), "{a:?} -> {b:?}");
    }

    #[test]
    fn virtual_now_only_moves_on_advance() {
        let clock = Clock::simulated(1);
        let vc = clock.virtual_clock().unwrap();
        vc.set_auto_advance(false);
        assert_eq!(clock.now(), Duration::ZERO);
        vc.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        vc.advance(Duration::from_secs(3600));
        assert_eq!(
            clock.now(),
            Duration::from_millis(250) + Duration::from_secs(3600)
        );
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let vc = VirtualClock::new(7);
        vc.set_auto_advance(false);
        let late = vc.register_timer(Duration::from_millis(20));
        let early = vc.register_timer(Duration::from_millis(5));
        let mid = vc.register_timer(Duration::from_millis(10));
        vc.advance(Duration::from_millis(50));
        assert_eq!(vc.fired_order(), vec![early, mid, late]);
    }

    #[test]
    fn equal_deadlines_tie_break_by_registration_order() {
        let vc = VirtualClock::new(7);
        vc.set_auto_advance(false);
        let ids: Vec<u64> = (0..8)
            .map(|_| vc.register_timer(Duration::from_millis(10)))
            .collect();
        vc.advance(Duration::from_millis(10));
        assert_eq!(vc.fired_order(), ids);
    }

    #[test]
    fn partial_advance_fires_only_due_timers() {
        let vc = VirtualClock::new(7);
        vc.set_auto_advance(false);
        let early = vc.register_timer(Duration::from_millis(5));
        let late = vc.register_timer(Duration::from_millis(500));
        vc.advance(Duration::from_millis(5));
        assert_eq!(vc.fired_order(), vec![early]);
        assert!(!vc.has_fired(late));
        vc.advance(Duration::from_millis(495));
        assert_eq!(vc.fired_order(), vec![early, late]);
    }

    #[test]
    fn auto_advance_sleep_consumes_virtual_time_instantly() {
        let clock = Clock::simulated(3);
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now(), Duration::from_secs(3600));
    }

    #[test]
    fn concurrent_sleepers_fire_in_deadline_order() {
        // Three threads park with distinct delays, registration order
        // gated so ids are assigned 0 (300ms), 1 (200ms), 2 (100ms). One
        // advance must fire them earliest-deadline-first: [2, 1, 0].
        let clock = Clock::simulated(9);
        let vc = clock.virtual_clock().unwrap().clone();
        vc.set_auto_advance(false);
        let delays = [300u64, 200, 100];
        let mut handles = Vec::new();
        for (i, ms) in delays.into_iter().enumerate() {
            let clock = clock.clone();
            handles.push(std::thread::spawn(move || {
                let vc = clock.virtual_clock().unwrap();
                while vc.timers_registered() != i as u64 {
                    std::thread::yield_now();
                }
                vc.sleep(Duration::from_millis(ms));
            }));
        }
        while vc.timers_registered() != 3 {
            std::thread::yield_now();
        }
        vc.advance(Duration::from_secs(1));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(vc.fired_order(), vec![2, 1, 0]);
        assert_eq!(clock.now(), Duration::from_secs(1));
    }

    #[test]
    fn staggered_auto_advance_sleeps_accumulate_time() {
        // Sequential sleeps under auto-advance: each jumps the timeline by
        // its own delay, so virtual time is the running sum.
        let clock = Clock::simulated(11);
        let delays = [300u64, 200, 100];
        let mut handles = Vec::new();
        for (i, ms) in delays.into_iter().enumerate() {
            let clock = clock.clone();
            handles.push(std::thread::spawn(move || {
                let vc = clock.virtual_clock().unwrap();
                while vc.timers_registered() != i as u64 {
                    std::thread::yield_now();
                }
                vc.sleep(Duration::from_millis(ms));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now(), Duration::from_millis(600));
        assert_eq!(clock.virtual_clock().unwrap().fired_order(), vec![0, 1, 2]);
    }

    #[test]
    fn wait_timeout_reports_virtual_deadline() {
        let clock = Clock::simulated(5);
        let vc = clock.virtual_clock().unwrap().clone();
        vc.set_auto_advance(false);
        let lock = Mutex::new(());
        let cv = Condvar::new();
        // Deadline not reached: the poll returns without timing out.
        let (g, timed_out) = clock.wait_timeout(lock.lock().unwrap(), &cv, Duration::from_secs(60));
        assert!(!timed_out);
        drop(g);
        // The standard caller loop: recompute the remaining timeout each
        // round; an advance from another thread ends the wait.
        let deadline = vc.now() + Duration::from_millis(50);
        let advancer = {
            let vc = vc.clone();
            std::thread::spawn(move || vc.advance(Duration::from_millis(60)))
        };
        let mut guard = lock.lock().unwrap();
        loop {
            let remaining = deadline.saturating_sub(vc.now());
            if remaining.is_zero() {
                break;
            }
            let (g, _) = clock.wait_timeout(guard, &cv, remaining);
            guard = g;
        }
        drop(guard);
        advancer.join().unwrap();
        assert!(vc.now() >= deadline);
    }

    #[test]
    fn zero_delay_timer_fires_immediately() {
        let vc = VirtualClock::new(2);
        vc.set_auto_advance(false);
        let id = vc.register_timer(Duration::ZERO);
        assert!(vc.has_fired(id));
        assert_eq!(vc.fired_order(), vec![id]);
    }

    #[test]
    fn entropy_seed_varies() {
        // Two draws colliding is astronomically unlikely; a deterministic
        // stub would return equal values every time.
        assert_ne!(entropy_seed(), entropy_seed());
    }
}
