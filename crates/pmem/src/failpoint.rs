//! Named crash-injection points.
//!
//! The paper validates recovery by "injecting crashes into Puddles' runtime"
//! (§5.1 Correctness Check). We reproduce that with a tiny process-global
//! failpoint registry: tests arm a named point (optionally after N hits),
//! the commit/allocation/recovery code calls [`should_fail`] at each stage
//! boundary, and when the point fires the caller aborts the operation
//! exactly as a power failure would, leaving persistent state as-is for the
//! daemon's recovery to repair.
//!
//! Failpoints are compiled in unconditionally (they are a handful of hash
//! lookups guarded by a fast atomic emptiness check), so integration tests
//! and the crash-consistency harness can use them against release builds.
//!
//! # Scoping
//!
//! [`arm`] arms a point **globally**: any thread's next matching
//! [`should_fail`] fires it. [`arm_scoped`] restricts the point to the
//! *calling thread*, which is what lets the randomized crash-consistency
//! sweep run trials in parallel — each trial thread arms its own crash
//! points and cannot trip (or consume) another trial's. A scoped point
//! shadows nothing: scoped and global arms of the same name coexist, and
//! `should_fail` consults the caller's scoped entry first, then the global
//! one.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

/// Number of currently armed failpoints; fast path check.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Key of one armed point: the name plus an optional owning thread
/// (`None` = global, fires on any thread).
type Key = (String, Option<ThreadId>);

struct Registry {
    points: HashMap<Key, usize>,
    log: Vec<String>,
}

fn registry() -> &'static Mutex<Registry> {
    use std::sync::OnceLock;
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(Registry {
            points: HashMap::new(),
            log: Vec::new(),
        })
    })
}

fn arm_key(key: Key, after: usize) {
    let mut reg = registry().lock();
    if reg.points.insert(key, after).is_none() {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Arms `name` so that the `after`-th call to [`should_fail`] — from any
/// thread — fires (`after == 0` fires on the first call).
pub fn arm(name: &str, after: usize) {
    arm_key((name.to_string(), None), after);
}

/// Arms `name` for the **calling thread only**: `should_fail(name)` from
/// other threads neither fires nor consumes the countdown. Parallel test
/// harnesses use this so concurrent trials' crash points stay independent.
pub fn arm_scoped(name: &str, after: usize) {
    arm_key((name.to_string(), Some(std::thread::current().id())), after);
}

/// Disarms every failpoint and clears the hit log.
pub fn clear_all() {
    let mut reg = registry().lock();
    if !reg.points.is_empty() {
        ARMED.store(0, Ordering::SeqCst);
    }
    reg.points.clear();
    reg.log.clear();
}

/// Disarms every failpoint scoped to the calling thread (global entries and
/// other threads' scoped entries are untouched); per-trial cleanup for
/// parallel harnesses.
pub fn clear_current_thread() {
    let tid = std::thread::current().id();
    let mut reg = registry().lock();
    let mine: Vec<Key> = reg
        .points
        .keys()
        .filter(|(_, scope)| *scope == Some(tid))
        .cloned()
        .collect();
    for key in mine {
        reg.points.remove(&key);
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Returns `true` when the named failpoint fires on this call.
///
/// The armed counter is decremented on every call; the point fires (and is
/// disarmed) when the counter reaches zero. The calling thread's scoped
/// entry is consulted first, then the global one.
pub fn should_fail(name: &str) -> bool {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let mut reg = registry().lock();
    let scoped = (name.to_string(), Some(std::thread::current().id()));
    let global = (name.to_string(), None);
    let key = if reg.points.contains_key(&scoped) {
        scoped
    } else {
        global
    };
    let fire = match reg.points.get_mut(&key) {
        Some(remaining) => {
            if *remaining == 0 {
                true
            } else {
                *remaining -= 1;
                false
            }
        }
        None => false,
    };
    if fire {
        reg.points.remove(&key);
        ARMED.fetch_sub(1, Ordering::SeqCst);
        reg.log.push(name.to_string());
    }
    fire
}

/// Returns the names of failpoints that have fired since the last
/// [`clear_all`], in firing order.
pub fn fired() -> Vec<String> {
    registry().lock().log.clone()
}

/// RAII guard that disarms the calling thread's scoped failpoints when
/// dropped — **including on panic**, which a bare `clear_current_thread()`
/// at the end of a trial misses. A trial thread that panics mid-trial would
/// otherwise leak its scoped entries into the registry, where they pin the
/// `ARMED` fast-path counter above zero and slow (or, after thread-id
/// reuse, poison) every later trial. `!Send`, so the drop runs on the
/// thread whose entries it clears.
#[must_use = "the guard clears scoped failpoints when dropped"]
pub struct ScopedClearGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Returns a guard that calls [`clear_current_thread`] when dropped. Take
/// one at the top of every parallel-trial body that arms scoped points.
pub fn scoped_clear_guard() -> ScopedClearGuard {
    ScopedClearGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopedClearGuard {
    fn drop(&mut self) {
        clear_current_thread();
    }
}

/// Standard failpoint names used throughout the workspace, collected here so
/// tests and implementation cannot drift apart.
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
    /// While the daemon rewrites pointers during relocation.
    pub const RELOC_MID_REWRITE: &str = "reloc.mid_rewrite";
    /// While the metadata-WAL group-commit leader writes a batch: only a
    /// prefix of the batch reaches the file (some records durable, the last
    /// one torn).
    pub const WAL_MID_GROUP_COMMIT: &str = "wal.group_commit.mid";
    /// While a metadata-WAL record is appended: the record's tail bytes are
    /// lost (models a torn append, like `LOG_APPEND_TORN` for client logs).
    pub const WAL_APPEND_TORN: &str = "wal.append.torn";
    /// Inside `PmDir::write_meta`, after the temp file is written and
    /// fsynced, before it is renamed over its target — the one boundary a
    /// metadata-WAL compaction (a checkpoint) has. The old file must still
    /// be whole, and the temp file left behind must be ignored and
    /// overwritten.
    pub const META_WRITE_BEFORE_RENAME: &str = "meta.write.before_rename";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and the harness runs a module's tests
    /// in parallel: one test's `clear_all()` would disarm (and zero the
    /// fast-path count under) another's points. Every test here holds this
    /// for its whole body; poison-tolerant, so one failure is not eight.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_points_never_fire() {
        let _serial = serial();
        clear_all();
        assert!(!should_fail("nope"));
        assert!(fired().is_empty());
    }

    #[test]
    fn armed_point_fires_once_after_count() {
        let _serial = serial();
        clear_all();
        arm("p", 2);
        assert!(!should_fail("p"));
        assert!(!should_fail("p"));
        assert!(should_fail("p"));
        // Disarmed after firing.
        assert!(!should_fail("p"));
        assert_eq!(fired(), vec!["p".to_string()]);
        clear_all();
    }

    #[test]
    fn scoped_points_are_invisible_to_other_threads() {
        let _serial = serial();
        clear_all();
        arm_scoped("s", 0);
        // Another thread neither fires nor consumes the scoped point...
        let other = std::thread::spawn(|| should_fail("s"));
        assert!(!other.join().unwrap());
        // ...but the arming thread does.
        assert!(should_fail("s"));
        assert!(!should_fail("s"), "fired scoped point is disarmed");
        clear_all();
    }

    #[test]
    fn scoped_points_on_distinct_threads_are_independent() {
        let _serial = serial();
        clear_all();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    // Each thread arms its own countdown of 2 and must see
                    // exactly its own third call fire, regardless of how
                    // the other threads interleave.
                    arm_scoped("par", 2);
                    let hits = [should_fail("par"), should_fail("par"), should_fail("par")];
                    clear_current_thread();
                    hits
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), [false, false, true]);
        }
        clear_all();
    }

    #[test]
    fn scoped_guard_clears_on_panic() {
        let _serial = serial();
        // A trial that panics mid-body must not leak its scoped entry: the
        // guard's drop runs during unwinding, so a later probe on the same
        // thread (the only thread the entry could ever fire on) sees it
        // gone.
        let hit = std::thread::spawn(|| {
            let result = std::panic::catch_unwind(|| {
                let _guard = scoped_clear_guard();
                arm_scoped("guard-panicking-trial", 0);
                panic!("trial failed");
            });
            assert!(result.is_err());
            should_fail("guard-panicking-trial")
        })
        .join()
        .unwrap();
        assert!(!hit, "panicked trial's scoped failpoint leaked");
    }

    #[test]
    fn scoped_guard_clears_on_normal_drop() {
        let _serial = serial();
        let hit = std::thread::spawn(|| {
            {
                let _guard = scoped_clear_guard();
                arm_scoped("guard-normal-trial", 0);
            }
            should_fail("guard-normal-trial")
        })
        .join()
        .unwrap();
        assert!(!hit);
    }

    #[test]
    fn clear_current_thread_spares_global_and_foreign_points() {
        let _serial = serial();
        clear_all();
        arm("g", 0);
        arm_scoped("mine", 0);
        clear_current_thread();
        assert!(!should_fail("mine"));
        assert!(should_fail("g"), "global point must survive a scoped clear");
        clear_all();
    }
}
