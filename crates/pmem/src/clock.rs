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
//!   that only moves when something advances it.
//!
//! `Clock` is a concrete cloneable value (not a trait object) so it can
//! expose generic methods like [`Clock::wait_timeout`] and be stored in
//! configs without boxing. Cloning is cheap; clones of a simulated clock
//! share one timeline.
//!
//! # Virtual time
//!
//! A virtual timeline has no timers. A sleep *is* an advance: it moves
//! `now` forward by its own duration and returns at once, so sleeps cost
//! no wall time and back-to-back sleeps add up. The clock does not order
//! threads — under torture the cooperative scheduler lets one client run
//! at a time, so the timeline is a pure function of the workload. Passive
//! waiters ([`Clock::wait_timeout`]) never move time; they poll the
//! virtual timeline with a short real-time tick and report whether their
//! virtual deadline has passed.

use std::hash::{BuildHasher, Hasher};
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

    /// A fresh virtual timeline at zero (see module docs). Clones share
    /// the timeline.
    pub fn simulated() -> Clock {
        Clock(Source::Virtual(VirtualClock::new()))
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
    /// virtual clock this is [`VirtualClock::advance`]: it returns at once,
    /// having moved the timeline forward by `dur`.
    pub fn sleep(&self, dur: Duration) {
        match &self.0 {
            Source::Real => std::thread::sleep(dur),
            Source::Virtual(vc) => vc.advance(dur),
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

/// A logical timeline: a `Duration` that moves only when advanced.
/// Usually handled through [`Clock::simulated`]; see the module docs.
#[derive(Debug)]
pub struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    /// A fresh timeline at `now == 0`.
    pub fn new() -> Arc<VirtualClock> {
        Arc::new(VirtualClock {
            now: Mutex::new(Duration::ZERO),
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        *self.now.lock().unwrap()
    }

    /// Moves the timeline forward by `by`.
    pub fn advance(&self, by: Duration) {
        *self.now.lock().unwrap() += by;
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
        let clock = Clock::simulated();
        let vc = clock.virtual_clock().unwrap();
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
    fn virtual_sleep_consumes_virtual_time_instantly() {
        let clock = Clock::simulated();
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now(), Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn sequential_virtual_sleeps_accumulate_time() {
        // Each sleep jumps the timeline by its own delay, so virtual time
        // is the running sum.
        let clock = Clock::simulated();
        let mut elapsed = Duration::ZERO;
        for ms in [300u64, 200, 100] {
            clock.sleep(Duration::from_millis(ms));
            elapsed += Duration::from_millis(ms);
            assert_eq!(clock.now(), elapsed);
        }
        assert_eq!(clock.now(), Duration::from_millis(600));
    }

    #[test]
    fn concurrent_virtual_sleeps_lose_no_time() {
        // Sleepers on clones of one clock all move the shared timeline:
        // no advance is lost, whatever the interleaving.
        let clock = Clock::simulated();
        let handles: Vec<_> = (1..=4u64)
            .map(|ms| {
                let clock = clock.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        clock.sleep(Duration::from_millis(ms));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now(), Duration::from_millis(100 * (1 + 2 + 3 + 4)));
    }

    #[test]
    fn wait_timeout_reports_virtual_deadline() {
        let clock = Clock::simulated();
        let vc = clock.virtual_clock().unwrap().clone();
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
    fn entropy_seed_varies() {
        // Two draws colliding is astronomically unlikely; a deterministic
        // stub would return equal values every time.
        assert_ne!(entropy_seed(), entropy_seed());
    }
}
