//! Named crash-injection points, each owned by what it crashes.
//!
//! The paper validates recovery by "injecting crashes into Puddles' runtime"
//! (§5.1 Correctness Check). A crash point is a named stage boundary; when it
//! fires, the caller aborts the operation exactly as a power failure would,
//! leaving persistent state as-is for the daemon's recovery to repair.
//!
//! * The **library's** points ([`names`]: the commit stages, log appends and
//!   chaining, the allocator, a puddle's first map, log-space creation,
//!   pointer rewrite) run on the application's thread, and they are armed on
//!   it: [`arm_scoped`] arms a point for the calling thread, and
//!   [`should_fail`] consults the calling thread's points only. Parallel
//!   trials can neither trip nor consume each other's points, and a
//!   thread's points die with it.
//! * The **daemon's** points belong to one daemon instance: they are
//!   [`crate::faultio::CrashPoint`]s, armed on its
//!   [`crate::faultio::FaultPlan`], and each one that fires is a line of
//!   that plan's trace.
//!
//! Both owners count down by one rule (`Countdowns`). Points are compiled
//! in unconditionally — an unarmed check is a thread-local emptiness test —
//! so integration tests and the crash-consistency harness can use them
//! against release builds.

use std::borrow::Borrow;
use std::cell::RefCell;

/// Armed points and their countdowns: a point armed with `after` fires on
/// its `after`-th check (`0` fires on the first) and is disarmed by firing.
#[derive(Debug)]
pub(crate) struct Countdowns<K>(Vec<(K, usize)>);

impl<K: PartialEq> Countdowns<K> {
    pub(crate) const fn new() -> Self {
        Countdowns(Vec::new())
    }

    /// Arms `key`; re-arming an armed point restarts its countdown.
    pub(crate) fn arm(&mut self, key: K, after: usize) {
        self.0.retain(|(armed, _)| *armed != key);
        self.0.push((key, after));
    }

    /// Counts one check of `key`; `true` when it fires.
    pub(crate) fn fire<Q: PartialEq + ?Sized>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        let Some(i) = self.0.iter().position(|(armed, _)| armed.borrow() == key) else {
            return false;
        };
        match &mut self.0[i].1 {
            0 => {
                self.0.swap_remove(i);
                true
            }
            left => {
                *left -= 1;
                false
            }
        }
    }
}

thread_local! {
    static ARMED: RefCell<Countdowns<String>> = const { RefCell::new(Countdowns::new()) };
}

/// Arms `name` for the **calling thread**: its `after`-th `should_fail(name)`
/// fires (`after == 0` fires on the first). Other threads' calls neither
/// fire nor consume the countdown.
pub fn arm_scoped(name: &str, after: usize) {
    ARMED.with_borrow_mut(|armed| armed.arm(name.to_string(), after));
}

/// Disarms every point the calling thread armed.
pub fn clear_current_thread() {
    ARMED.set(Countdowns::new());
}

/// Returns `true` when the calling thread's point `name` fires on this call
/// (and disarms it).
pub fn should_fail(name: &str) -> bool {
    ARMED.with_borrow_mut(|armed| armed.fire(name))
}

/// The library's crash-point names, collected here so tests and
/// implementation cannot drift apart.
pub mod names {
    /// After undo-logged locations are flushed, before the sequence range
    /// advances to the redo stage (end of Fig. 7 stage 1).
    pub const COMMIT_AFTER_UNDO_FLUSH: &str = "tx.commit.after_undo_flush";
    /// After the sequence range advances to (2,4), before any redo entry is
    /// applied (start of Fig. 7 stage 2).
    pub const COMMIT_BEFORE_REDO_APPLY: &str = "tx.commit.before_redo_apply";
    /// In the middle of applying redo entries.
    pub const COMMIT_MID_REDO_APPLY: &str = "tx.commit.mid_redo_apply";
    /// After redo entries are applied, before the log is invalidated
    /// (end of Fig. 7 stage 2).
    pub const COMMIT_BEFORE_INVALIDATE: &str = "tx.commit.before_invalidate";
    /// In the middle of writing a log entry (models a torn log append).
    pub const LOG_APPEND_TORN: &str = "log.append.torn";
    /// Before a log append begins (models a power failure after N fully
    /// flushed, unfenced appends: arm with `after == N` and exactly the
    /// first N entries are durable).
    pub const LOG_APPEND_CRASH: &str = "log.append.crash";
    /// While a transaction extends its log chain: after the daemon
    /// allocated the next log puddle but before it was registered in the
    /// log space (the puddle is unreachable by recovery and must be swept
    /// at the next daemon startup).
    pub const LOG_CHAIN_ALLOC_CRASH: &str = "log.chain.after_alloc";
    /// While a transaction extends its log chain: after the next segment
    /// was registered in the log space but before its first append (the
    /// empty tail is benign for replay and is reclaimed by recovery).
    pub const LOG_CHAIN_REGISTER_CRASH: &str = "log.chain.after_register";
    /// While a client creates its log space: after the daemon allocated the
    /// LogSpace puddle but before `RegLogSpace` registered it (the puddle
    /// is unreachable by recovery and must be swept at the next daemon
    /// startup).
    pub const LOGSPACE_ALLOC_CRASH: &str = "logspace.after_alloc";
    /// While a client maps a brand-new puddle for the first time: between
    /// persisting its allocator metadata and its header. The header's magic
    /// is the commit point, so the next map must find the puddle fresh and
    /// initialize it again.
    pub const PUDDLE_INIT_CRASH: &str = "puddle.init.mid";
    /// While the allocator mutates persistent metadata inside a transaction.
    pub const ALLOC_METADATA: &str = "alloc.metadata";
    /// While the client rewrites pointers during relocation.
    pub const RELOC_MID_REWRITE: &str = "reloc.mid_rewrite";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        assert!(!should_fail("nope"));
    }

    #[test]
    fn armed_point_fires_once_after_count() {
        arm_scoped("p", 2);
        assert!(!should_fail("p"));
        assert!(!should_fail("p"));
        assert!(should_fail("p"));
        // Disarmed after firing.
        assert!(!should_fail("p"));
    }

    #[test]
    fn rearming_restarts_the_countdown_and_clearing_disarms() {
        arm_scoped("r", 5);
        arm_scoped("r", 0);
        assert!(should_fail("r"));
        arm_scoped("r", 0);
        arm_scoped("other", 0);
        clear_current_thread();
        assert!(!should_fail("r") && !should_fail("other"));
    }

    #[test]
    fn scoped_points_are_invisible_to_other_threads() {
        arm_scoped("s", 0);
        // Another thread neither fires nor consumes the scoped point...
        let other = std::thread::spawn(|| should_fail("s"));
        assert!(!other.join().unwrap());
        // ...but the arming thread does.
        assert!(should_fail("s"));
        assert!(!should_fail("s"), "fired scoped point is disarmed");
    }

    #[test]
    fn scoped_points_on_distinct_threads_are_independent() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    // Each thread arms its own countdown of 2 and must see
                    // exactly its own third call fire, regardless of how
                    // the other threads interleave.
                    arm_scoped("par", 2);
                    [should_fail("par"), should_fail("par"), should_fail("par")]
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), [false, false, true]);
        }
    }
}
