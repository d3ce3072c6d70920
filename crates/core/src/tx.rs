//! Failure-atomic transactions (`libtx`, §3.6 and §4.1).
//!
//! Transactions are thread-local: each thread lazily acquires one log puddle
//! from the daemon and reuses it — and the [`LogWriter`] and undo set that
//! go with it — for every subsequent transaction. Inside a transaction the
//! application (and the allocator) record undo entries
//! ([`Transaction::add`], the analogue of `TX_ADD`) and redo entries
//! ([`Transaction::redo_set`], the analogue of `TX_REDO_SET`); commit then
//! runs the stages of Fig. 7.
//!
//! A transaction that **redo-logged something** runs all three:
//!
//! 1. flush every undo-logged location (coalesced by cache line), fence,
//!    publish sequence range `(2,4)` — the commit point: from here recovery
//!    rolls the transaction forward;
//! 2. copy every redo entry to its target (straight from the log memory —
//!    zero-copy), flush, fence. The entries come from the writer's own
//!    DRAM-cursor extents ([`LogWriter::written`]) and are not re-verified:
//!    this process checksummed them when it appended them, and hashing a
//!    megabyte of log a second time was most of a large commit;
//! 3. the transaction is complete; one fenced header write invalidates the
//!    log ([`LogWriter::finish`]).
//!
//! An **undo-only** transaction ([`LogWriter::redo_entries`] is zero) has no
//! stage 2 and publishes no `(2,4)`: stage 1's fence makes the in-place
//! updates durable, and the write that invalidates the log is its commit
//! point. A crash between the two finds the undo entries fully durable
//! under `(0,2)` and rolls back a transaction nobody was told had
//! committed — what a crash just after stage 1's fence always did. A
//! transaction that logged **nothing** has nothing to make durable or to
//! invalidate, and commits without touching persistent memory.
//!
//! # Persist cost of the hot path
//!
//! Log appends go through [`LogWriter`]: the cursor lives in DRAM, so an
//! append is one unfenced flush — no log-header rewrite and no `sfence`.
//! Starting a transaction is free too when the previous one on this thread
//! committed without chaining: its invalidating write left the log *armed*
//! (see [`LogWriter`]). Fences per transaction, by shape:
//!
//! | shape | fences | which |
//! |---|---|---|
//! | nothing logged | 0 | — |
//! | undo-only | 2 | data durable (stage 1), log invalidated |
//! | redo-carrying | 4 | stage 1, publish `(2,4)`, stage 2, log invalidated |
//! | first on a thread's log; after a chained, aborted, panicked or crashed one | +1 | the fenced start |
//! | each chained segment | +2 | tail header, log-space slot |
//!
//! Two is the floor for an undo-logged transaction: the data must be
//! durable *before* the log that could roll it back is invalidated, and the
//! invalidation durable before the commit is acknowledged. Undo logging is
//! additionally *deduplicated* through an [`IntervalSet`]: re-logging an
//! already-covered location (the dominant pattern in tree updates) appends
//! nothing.
//!
//! One ordering caveat is inherent to eliding the per-append fence: after
//! `add`/`set` return, nothing orders the undo entry's write-back before
//! the caller's in-place store to the same location. On ADR hardware whose
//! cache evicts lines in arbitrary order, a power failure could persist
//! the mutated data while the (flushed but unfenced) undo entry is still
//! in cache, leaving that location unrecoverable. This reproduction's
//! crash model makes the race unobservable — crashes are failpoint-driven
//! process exits over mmap-backed "PM", so every executed store is
//! durable and tearing exists only where failpoints inject it — but a port
//! to real PM must fence between a *first-touch* undo append and the store
//! it guards (dedup already makes later touches fence-free). Tracked in
//! ROADMAP.
//!
//! A crash anywhere in this sequence leaves the log in a state from which
//! the daemon's recovery (stage-aware replay) produces a consistent result:
//! before `(2,4)` the durable prefix of undo entries rolls the transaction
//! back, after it the redo entries roll it forward.

use crate::alloc::MetaLogger;
use crate::client::{ClientInner, ThreadLog};
use crate::error::{Error, Result};
#[cfg(doc)]
use crate::interval::IntervalSet;
#[cfg(doc)]
use puddles_logfmt::LogWriter;
use puddles_logfmt::{
    replay_chain, segment_payload_capacity, DirectMemoryTarget, EntryKind, ReplayOrder, RANGE_REDO,
    SEQ_REDO, SEQ_UNDO,
};
use puddles_pmem::failpoint;
use puddles_pmem::persist;
use puddles_pmem::{PmError, CACHELINE};
use puddles_proto::PuddleInfo;
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static IN_TX: Cell<bool> = const { Cell::new(false) };
}

/// An open failure-atomic transaction.
///
/// Obtained through [`crate::PuddleClient::tx`] (or `Pool::tx`); all undo /
/// redo records of one transaction go to this thread's cached log puddle.
/// A transaction that outgrows that puddle transparently *chains* further
/// log puddles (Fig. 5's `chain_index`): the daemon supplies a fresh
/// puddle, it is registered in the log space under the same `log_id`, and
/// logging continues — [`Error::TxTooLarge`] is raised only when the daemon
/// cannot supply another log puddle (or a single entry exceeds a whole
/// segment). Chained segments are released back to the daemon once the
/// transaction commits or aborts.
pub struct Transaction<'c> {
    client: &'c ClientInner,
    /// This thread's log: the writer, the undo-logged `[addr, addr+len)`
    /// ranges (they dedup re-logging and drive the coalesced stage-1
    /// flush), and the log-space id shared by every segment of the chain.
    log: &'c mut ThreadLog,
    /// Chain segments acquired mid-transaction, in `chain_index` order
    /// starting at 1; released after commit/abort (never on an injected
    /// crash — the daemon's recovery reclaims them, like real power loss).
    chain: Vec<PuddleInfo>,
    /// Neither committed nor crashed (yet): dropping the transaction in
    /// this state rolls it back.
    open: bool,
}

impl<'c> Transaction<'c> {
    /// Appends one log entry, growing the log chain when the active segment
    /// is full. Every logging path funnels through here so chaining is
    /// transparent to `add`/`set`/`redo_set`/allocator metadata logging.
    fn append_entry(
        &mut self,
        addr: u64,
        seq: u32,
        order: ReplayOrder,
        kind: EntryKind,
        data: &[u8],
    ) -> Result<()> {
        match self.log.writer.append(addr, seq, order, kind, data) {
            Ok(()) => Ok(()),
            Err(PmError::LogFull { need, free }) => {
                let segment_capacity =
                    self.client.log_puddle_size() as usize - puddled::LOG_REGION_OFFSET;
                if data.len() > segment_payload_capacity(segment_capacity) {
                    // No fresh segment could ever hold this payload; chaining
                    // would allocate puddles forever without making progress.
                    return Err(Error::TxTooLarge { need, free });
                }
                self.extend_chain(need, free)?;
                self.log
                    .writer
                    .append(addr, seq, order, kind, data)
                    .map_err(Error::from)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Chains one more log puddle onto this transaction's log.
    ///
    /// Ordering at the chain boundary (the Fig. 7 discipline): the new
    /// tail's header is initialized and fenced by [`LogWriter::extend`]
    /// (which also commits every unfenced flush into earlier segments),
    /// then the log-space slot is persisted and fenced — only after that
    /// does the first append land in the tail, so recovery always finds a
    /// registered (possibly empty) segment, never entries it cannot reach.
    fn extend_chain(&mut self, need: usize, free: usize) -> Result<()> {
        let (info, seg) = match self.client.acquire_log_segment() {
            Ok(pair) => pair,
            // The daemon cannot supply another log puddle — the log cannot
            // grow, which is what TxTooLarge reports. Other daemon errors
            // (permission, shutdown) keep their own diagnosis.
            Err(Error::Daemon(e)) if e.code == puddles_proto::ErrorCode::OutOfSpace => {
                return Err(Error::TxTooLarge { need, free })
            }
            Err(e) => return Err(e),
        };
        if failpoint::should_fail(failpoint::names::LOG_CHAIN_ALLOC_CRASH) {
            // Crash window: the puddle exists daemon-side but no log space
            // references it yet — only the startup sweep can reclaim it.
            return Err(Error::CrashInjected(
                failpoint::names::LOG_CHAIN_ALLOC_CRASH,
            ));
        }
        let chain_index = self.chain.len() as u32 + 1;
        // Track the segment before registering it: if registration fails,
        // the abort path still releases the acquired puddle.
        self.chain.push(info);
        let info = self.chain.last().expect("just pushed");
        self.log.writer.extend(seg).map_err(Error::from)?;
        self.client
            .register_log_segment(info, self.log.log_id, chain_index)
            .map_err(|e| match e {
                // Every log-space slot is taken: the log genuinely cannot
                // grow any further, same condition as a daemon refusal.
                Error::Pm(PmError::OutOfRange { .. }) => Error::TxTooLarge { need, free },
                other => other,
            })?;
        if failpoint::should_fail(failpoint::names::LOG_CHAIN_REGISTER_CRASH) {
            return Err(Error::CrashInjected(
                failpoint::names::LOG_CHAIN_REGISTER_CRASH,
            ));
        }
        Ok(())
    }

    /// Unregisters, unmaps and frees every chained segment (best-effort);
    /// called after the head log was reset, so the chain is already invalid
    /// for recovery whichever prefix of the release survives.
    fn release_chain(&mut self) {
        for info in std::mem::take(&mut self.chain) {
            self.client.release_log_segment(&info);
        }
    }
    /// Undo-logs the current contents of `*target` so the transaction can
    /// roll it back (the analogue of `TX_ADD`). The caller then updates the
    /// location in place.
    pub fn add<T>(&mut self, target: &T) -> Result<()> {
        self.add_range(target as *const T as usize, std::mem::size_of::<T>())
    }

    /// Undo-logs `[addr, addr + len)`.
    ///
    /// Re-logging a range that earlier undo logging already covers is a
    /// no-op: the first entry captured the pre-transaction bytes, and
    /// reverse-order replay applies it last, so it alone decides the
    /// rolled-back contents.
    pub fn add_range(&mut self, addr: usize, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if self.log.undo_set.covers(addr as u64, len as u64) {
            return Ok(());
        }
        // SAFETY: the caller asserts (by passing the location to a logging
        // call) that `[addr, addr+len)` is a mapped, readable persistent
        // location it owns for the duration of the transaction.
        let data = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
        self.append_entry(
            addr as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            data,
        )?;
        self.log.undo_set.insert(addr as u64, len as u64);
        Ok(())
    }

    /// Undo-logs `*target` and then stores `value` into it: the common
    /// "logged store" idiom.
    pub fn set<T: Copy>(&mut self, target: &mut T, value: T) -> Result<()> {
        self.add(&*target)?;
        *target = value;
        Ok(())
    }

    /// Redo-logs a store of `value` into `*target` (the analogue of
    /// `TX_REDO_SET`): the location is untouched now and updated when the
    /// transaction commits.
    pub fn redo_set<T: Copy>(&mut self, target: &T, value: T) -> Result<()> {
        // SAFETY: `value` is a live local; viewing it as bytes is sound for
        // Copy types.
        let bytes = unsafe {
            std::slice::from_raw_parts(&value as *const T as *const u8, std::mem::size_of::<T>())
        };
        self.redo_set_bytes(target as *const T as usize, bytes)
    }

    /// Redo-logs a store of `bytes` at `addr`.
    pub fn redo_set_bytes(&mut self, addr: usize, bytes: &[u8]) -> Result<()> {
        self.append_entry(
            addr as u64,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            bytes,
        )
    }

    /// Logs the current contents of a *volatile* location so an abort can
    /// restore it; ignored by post-crash recovery (§4.1).
    ///
    /// Volatile entries are not deduplicated: they live in a different
    /// address space than the persistent undo set tracks.
    pub fn add_volatile<T>(&mut self, target: &T) -> Result<()> {
        let addr = target as *const T as usize;
        let len = std::mem::size_of::<T>();
        // SAFETY: as in `add_range`, for a volatile location.
        let data = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
        self.append_entry(
            addr as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Volatile,
            data,
        )
    }

    /// Returns the number of log entries recorded so far.
    pub fn entries(&self) -> u64 {
        self.log.writer.num_entries()
    }

    /// Of [`Transaction::entries`], the redo entries: what commit's second
    /// stage will apply (zero: the stage reads nothing).
    pub fn redo_entries(&self) -> u64 {
        self.log.writer.redo_entries()
    }

    /// Number of log puddles backing this transaction's log chain
    /// (1 = no chaining has happened yet).
    pub fn chain_segments(&self) -> usize {
        self.log.writer.segment_count()
    }

    /// Largest payload that can still be logged **without chaining another
    /// segment** — the active segment's headroom. Chaining extends this
    /// transparently; the hard limit is the daemon's willingness to supply
    /// further log puddles.
    pub fn log_free_bytes(&self) -> usize {
        self.log.writer.free_bytes()
    }

    fn commit(&mut self) -> Result<()> {
        if self.log.writer.num_entries() == 0 {
            // Nothing logged: nothing to make durable, nothing to invalidate.
            self.log.writer.finish();
            return Ok(());
        }
        // Stage 1: make every undo-logged location durable. Spans are
        // sorted and disjoint, so tracking the last flushed cache line
        // ensures a line shared by two spans is flushed once. The closing
        // `sfence` also commits every unfenced log-entry flush issued by
        // the appends.
        let line_mask = !(CACHELINE as u64 - 1);
        let mut flushed_to: u64 = 0;
        for (start, end) in self.log.undo_set.spans() {
            let from = (start & line_mask).max(flushed_to);
            if from < end {
                persist::flush(from as *const u8, (end - from) as usize);
                flushed_to = (end + CACHELINE as u64 - 1) & line_mask;
            }
        }
        persist::sfence();
        if failpoint::should_fail(failpoint::names::COMMIT_AFTER_UNDO_FLUSH) {
            return Err(Error::CrashInjected(
                failpoint::names::COMMIT_AFTER_UNDO_FLUSH,
            ));
        }
        // Publish stage 2: only redo entries are live from here on. With
        // none logged there is no stage 2 to protect — the undo entries
        // stay live until stage 3 invalidates them, and a crash before
        // that rolls back a commit that was never acknowledged.
        let redo = self.log.writer.redo_entries() > 0;
        if redo {
            self.log.writer.set_seq_range(RANGE_REDO);
        }
        if failpoint::should_fail(failpoint::names::COMMIT_BEFORE_REDO_APPLY) {
            return Err(Error::CrashInjected(
                failpoint::names::COMMIT_BEFORE_REDO_APPLY,
            ));
        }

        // Stage 2: apply the redo entries in logging order, copying each
        // payload straight out of the log memory (zero-copy), stitched
        // across every chained segment.
        if redo {
            let mut applied = 0usize;
            for (hdr, data) in self.log.writer.written() {
                if !RANGE_REDO.contains(hdr.seq) {
                    continue;
                }
                // SAFETY: the application redo-logged this address inside
                // the transaction, asserting it owns a writable mapping of
                // it; the log memory and the target never overlap (log
                // puddles hold no application data).
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), hdr.addr as *mut u8, data.len());
                }
                persist::flush(hdr.addr as *const u8, data.len());
                applied += 1;
                if applied == 1 && failpoint::should_fail(failpoint::names::COMMIT_MID_REDO_APPLY) {
                    persist::sfence();
                    return Err(Error::CrashInjected(
                        failpoint::names::COMMIT_MID_REDO_APPLY,
                    ));
                }
            }
            persist::sfence();
        }
        if failpoint::should_fail(failpoint::names::COMMIT_BEFORE_INVALIDATE) {
            return Err(Error::CrashInjected(
                failpoint::names::COMMIT_BEFORE_INVALIDATE,
            ));
        }

        // Stage 3: the transaction is complete; drop the log (one fenced
        // head write invalidates the whole chain, and leaves a
        // single-segment log armed for the next transaction) and return any
        // chained segments to the daemon.
        self.log.writer.finish();
        self.release_chain();
        Ok(())
    }

    fn abort(&mut self) {
        // Roll back in-place (undo-logged) updates and volatile locations,
        // replaying across every chained segment.
        let mut target = DirectMemoryTarget::unrestricted();
        replay_chain(self.log.writer.chain(), &mut target, true);
        self.log.writer.reset();
        self.release_chain();
    }
}

impl Drop for Transaction<'_> {
    /// Runs however `run_tx` is left, a panic in the body included: a
    /// transaction still open is rolled back (ending in
    /// [`LogWriter::reset`], so the log is left unarmed), and the thread
    /// may start its next one.
    fn drop(&mut self) {
        if self.open {
            self.abort();
        }
        IN_TX.with(|flag| flag.set(false));
    }
}

impl MetaLogger for Transaction<'_> {
    fn log_range(&mut self, addr: usize, len: usize) -> Result<()> {
        self.add_range(addr, len)
    }
}

/// Runs `body` inside a failure-atomic transaction on the calling thread.
pub(crate) fn run_tx<R>(
    client: &Arc<ClientInner>,
    body: impl FnOnce(&mut Transaction<'_>) -> Result<R>,
) -> Result<R> {
    if IN_TX.with(|flag| flag.get()) {
        return Err(Error::NestedTransaction);
    }
    let handle = client.thread_log()?;
    let mut log = handle.lock();
    // Free on an armed log; otherwise one fenced header write bumps the
    // generation (orphaning any leftover entries) and publishes the
    // exec-stage range.
    log.writer.start()?;
    log.undo_set.clear();
    IN_TX.with(|flag| flag.set(true));
    let mut tx = Transaction {
        client,
        log: &mut log,
        chain: Vec::new(),
        open: true,
    };
    let result = body(&mut tx).and_then(|value| {
        tx.commit()?;
        Ok(value)
    });
    // An injected crash must leave persistent state exactly as the "power
    // failure" found it: no abort processing. Any other error is rolled
    // back as the transaction drops.
    tx.open = matches!(&result, Err(e) if !e.is_injected_crash());
    result
}

#[cfg(test)]
mod tests {
    use crate::{PoolOptions, PuddleClient};
    use puddled::{Daemon, DaemonConfig};
    use puddles_pmem::persist;

    fn fences_in(f: impl FnOnce()) -> u64 {
        let before = persist::thread_counts().fences;
        f();
        persist::thread_counts().fences - before
    }

    /// The fence counts `tests/pool_tx.rs` cannot take from outside: a
    /// thread's first transaction also creates (or recycles) and registers
    /// its log, which fences too, so that set-up is run apart here.
    #[test]
    fn first_transaction_on_a_fresh_or_recycled_thread_log_pays_one_fenced_start() {
        let tmp = tempfile::tempdir().unwrap();
        let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        client.set_log_puddle_size(64 * 1024);
        let pool = client.create_pool("fresh", PoolOptions::default()).unwrap();
        let empty = || client.tx(|_| Ok(())).unwrap();

        // A fresh log: just initialised, `RANGE_DONE`, unarmed.
        client.inner.thread_log().unwrap();
        assert_eq!(fences_in(empty), 1);
        assert_eq!(fences_in(empty), 0);

        // A chained commit parks its tail as a spare...
        let addr = pool.tx(|tx| pool.alloc_raw(tx, 128 * 1024, 0)).unwrap();
        let one_add = || client.tx(|tx| tx.add_range(addr, 64)).unwrap();
        assert_eq!(fences_in(one_add), 2);
        client
            .tx(|tx| {
                let free = tx.log_free_bytes();
                tx.add_range(addr, free)?;
                tx.add_range(addr + free + 64, 8)?;
                assert_eq!(tx.chain_segments(), 2);
                Ok(())
            })
            .unwrap();
        let puddles = || client.metrics().unwrap().counter("registry.puddles");
        let parked = puddles();
        // ...which the next thread recycles as its log: reset, unarmed.
        std::thread::scope(|s| {
            s.spawn(|| {
                client.inner.thread_log().unwrap();
                assert_eq!(puddles(), parked, "recycled");
                assert_eq!(fences_in(one_add), 3);
                assert_eq!(fences_in(one_add), 2);
            });
        });
    }
}
