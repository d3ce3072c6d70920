//! Stage-aware log replay, shared by commit (roll forward) and recovery.
//!
//! The key property of the Puddles log format is that replay is *uniform*:
//! regardless of whether an entry is an undo or a redo entry, applying it
//! means copying its payload to its target address (§4.1 "Recovery"). What
//! differs is *which* entries are live (the sequence range) and in *what
//! order* they are applied (reverse for undo, forward for redo).
//!
//! Replay writes through a [`ReplayTarget`], which is how the daemon
//! enforces access control during recovery: a [`DirectMemoryTarget`]
//! restricted to the address ranges the crashed client could write refuses
//! entries that fall outside them.

use crate::entry::{EntryKind, LogEntryHeader, ReplayOrder};
use crate::log::LogRef;
use puddles_pmem::persist;

/// Destination for replayed log entries.
pub trait ReplayTarget {
    /// Returns `true` if the target accepts writes to `[addr, addr + len)`.
    fn allows(&self, addr: u64, len: usize) -> bool;

    /// Copies `data` to `addr`.
    ///
    /// Only called when [`ReplayTarget::allows`] returned `true`.
    fn apply(&mut self, addr: u64, data: &[u8]);
}

/// Replays into raw memory: the daemon (and commit) use this once the
/// relevant puddles are mapped at the addresses the entries refer to.
#[derive(Debug, Default)]
pub struct DirectMemoryTarget {
    /// Allowed `(start, len)` ranges, sorted by start with both starts and
    /// ends strictly increasing (see [`DirectMemoryTarget::restricted`]);
    /// an empty list allows nothing, `None` allows everything
    /// (library-internal commit path).
    allowed: Option<Vec<(u64, u64)>>,
}

impl DirectMemoryTarget {
    /// Creates a target that accepts any address (the in-process commit
    /// path, where the transaction only ever logged addresses it owns).
    pub fn unrestricted() -> Self {
        DirectMemoryTarget { allowed: None }
    }

    /// Creates a target restricted to the given `(start, len)` ranges: a
    /// write is allowed when it lies inside one of them (never when it
    /// merely straddles two adjacent ones).
    ///
    /// The ranges are sorted, and a range contained in an earlier one is
    /// dropped, which leaves ends increasing with starts: the only range
    /// that can contain an address is then the last one starting at or
    /// before it, found by binary search.
    pub fn restricted(mut ranges: Vec<(u64, u64)>) -> Self {
        ranges.sort_unstable();
        let mut max_end = 0u64;
        ranges.retain(|&(start, len)| {
            let end = start.saturating_add(len);
            let extends = end > max_end;
            max_end = max_end.max(end);
            extends
        });
        DirectMemoryTarget {
            allowed: Some(ranges),
        }
    }

    /// The allowed `(start, len)` range containing `[addr, addr + len)`,
    /// if this target is restricted and has one.
    pub fn containing(&self, addr: u64, len: usize) -> Option<(u64, u64)> {
        let ranges = self.allowed.as_deref()?;
        let idx = ranges.partition_point(|&(start, _)| start <= addr);
        let &(start, rlen) = ranges.get(idx.checked_sub(1)?)?;
        (addr.saturating_add(len as u64) <= start.saturating_add(rlen)).then_some((start, rlen))
    }
}

impl ReplayTarget for DirectMemoryTarget {
    fn allows(&self, addr: u64, len: usize) -> bool {
        self.allowed.is_none() || self.containing(addr, len).is_some()
    }

    fn apply(&mut self, addr: u64, data: &[u8]) {
        // SAFETY: `allows` confirmed the range lies inside a region the
        // caller declared mapped and writable (or the caller opted into the
        // unrestricted mode, taking responsibility for every logged address).
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), addr as *mut u8, data.len());
        }
        persist::flush(addr as *const u8, data.len());
    }
}

/// Replays into an owned byte buffer standing in for a mapped region;
/// used by unit and property tests.
#[derive(Debug)]
pub struct BufferTarget {
    base: u64,
    buf: Vec<u8>,
}

impl BufferTarget {
    /// Creates a buffer of `len` bytes modelling memory at `[base, base+len)`.
    pub fn new(base: u64, len: usize) -> Self {
        BufferTarget {
            base,
            buf: vec![0; len],
        }
    }

    /// Creates the target from existing contents.
    pub fn from_bytes(base: u64, buf: Vec<u8>) -> Self {
        BufferTarget { base, buf }
    }

    /// Returns the backing bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Reads `len` bytes at absolute address `addr`.
    pub fn read(&self, addr: u64, len: usize) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.buf[off..off + len]
    }

    /// Writes `data` at absolute address `addr` (test setup helper).
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let off = (addr - self.base) as usize;
        self.buf[off..off + data.len()].copy_from_slice(data);
    }
}

impl ReplayTarget for BufferTarget {
    fn allows(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr + len as u64 <= self.base + self.buf.len() as u64
    }

    fn apply(&mut self, addr: u64, data: &[u8]) {
        let off = (addr - self.base) as usize;
        self.buf[off..off + data.len()].copy_from_slice(data);
    }
}

/// Outcome counters of a replay pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Entries copied to their target address.
    pub applied: usize,
    /// Entries whose sequence number was outside the live range.
    pub skipped_sequence: usize,
    /// Volatile entries ignored because this is post-crash recovery.
    pub skipped_volatile: usize,
    /// Entries denied by the target's access control.
    pub denied: usize,
    /// Entries with undecodable kind/order bytes.
    pub malformed: usize,
}

/// Replays the live entries of `log` into `target`.
///
/// * `apply_volatile` — the in-process abort path applies volatile entries
///   (to keep DRAM state consistent with PM); post-crash recovery passes
///   `false` because the volatile state no longer exists.
///
/// Reverse-order (undo) entries are applied last-logged-first, then
/// forward-order (redo) entries first-logged-first; under the staged
/// sequence ranges of Fig. 7 only one of the two groups is live at a time.
pub fn replay_log<T: ReplayTarget>(
    log: &LogRef,
    target: &mut T,
    apply_volatile: bool,
) -> ReplayStats {
    replay_chain(std::slice::from_ref(log), target, apply_volatile)
}

/// Replays a multi-segment log chain (`segments[0]` is the head) into
/// `target`, exactly like [`replay_log`] over one logical log: one
/// verified scan ([`collect_live`]), then [`LiveEntries::apply`].
///
/// The **head** segment's sequence range decides which entries are live
/// throughout the chain; each segment contributes its own checksummed,
/// generation-valid prefix ([`crate::log::chain_iter`]). Reverse-order
/// (undo) entries are applied last-logged-first *globally* — the last
/// segment's entries roll back before the first's — and forward-order
/// (redo) entries first-logged-first, so multi-segment replay is
/// indistinguishable from replaying the same entries out of one large log.
pub fn replay_chain<T: ReplayTarget>(
    segments: &[LogRef],
    target: &mut T,
    apply_volatile: bool,
) -> ReplayStats {
    collect_live(segments, apply_volatile).apply(target)
}

/// The live entries of a log chain, found by one verified scan and
/// borrowed from the log memory (zero-copy): payloads are copied exactly
/// once, into their targets, by [`LiveEntries::apply`].
///
/// Recovery reads this between the scan and the apply — to check every
/// entry against the crashed client's permissions and to map only the
/// puddles the entries name — without scanning (and checksumming) the
/// chain a second time.
#[derive(Debug, Default)]
pub struct LiveEntries<'a> {
    /// Reverse-order (undo) entries, in append order.
    reverse: Vec<(LogEntryHeader, &'a [u8])>,
    /// Forward-order (redo) entries, in append order.
    forward: Vec<(LogEntryHeader, &'a [u8])>,
    /// Live entries with an undecodable kind or order byte: never applied,
    /// but still naming an address the writer claimed.
    malformed: Vec<(LogEntryHeader, &'a [u8])>,
    /// What the scan skipped (`skipped_*`); `apply` fills in the rest.
    stats: ReplayStats,
}

/// Scans `segments` once (checksum + generation, [`crate::log::chain_iter`])
/// and collects the entries that are live under the head's sequence range.
/// `apply_volatile` as for [`replay_log`].
pub fn collect_live(segments: &[LogRef], apply_volatile: bool) -> LiveEntries<'_> {
    let mut live = LiveEntries::default();
    let Some(head) = segments.first() else {
        return live;
    };
    let range = head.seq_range();
    for (hdr, data) in crate::log::chain_iter(segments) {
        if !range.contains(hdr.seq) {
            live.stats.skipped_sequence += 1;
            continue;
        }
        let (kind, order) = match (hdr.entry_kind(), hdr.replay_order()) {
            (Some(k), Some(o)) => (k, o),
            _ => {
                live.malformed.push((hdr, data));
                continue;
            }
        };
        if kind == EntryKind::Volatile && !apply_volatile {
            live.stats.skipped_volatile += 1;
            continue;
        }
        match order {
            ReplayOrder::Reverse => live.reverse.push((hdr, data)),
            ReplayOrder::Forward => live.forward.push((hdr, data)),
        }
    }
    live
}

impl<'a> LiveEntries<'a> {
    /// Number of entries live under the sequence range, whatever became of
    /// them (to apply, skipped as volatile, malformed).
    pub fn live_count(&self) -> usize {
        self.reverse.len() + self.forward.len() + self.malformed.len() + self.stats.skipped_volatile
    }

    /// The entries [`LiveEntries::apply`] will copy, in the order it will
    /// copy them: reverse-order entries last-logged-first, then
    /// forward-order entries first-logged-first.
    pub fn to_apply(&self) -> impl Iterator<Item = &(LogEntryHeader, &'a [u8])> {
        self.reverse.iter().rev().chain(&self.forward)
    }

    /// Every `(addr, len)` a live entry claims in persistent memory — the
    /// entries to apply plus the malformed ones, volatile entries excepted
    /// — in no particular order: what an access check has to cover.
    pub fn claimed(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.to_apply()
            .chain(&self.malformed)
            .filter(|(hdr, _)| hdr.entry_kind() != Some(EntryKind::Volatile))
            .map(|(hdr, data)| (hdr.addr, data.len()))
    }

    /// Copies the collected entries into `target` (flushing, then one
    /// fence) and returns the counters of the whole replay.
    pub fn apply<T: ReplayTarget>(self, target: &mut T) -> ReplayStats {
        let mut stats = self.stats;
        stats.malformed = self.malformed.len();
        for (hdr, data) in self.to_apply() {
            if target.allows(hdr.addr, data.len()) {
                target.apply(hdr.addr, data);
                stats.applied += 1;
            } else {
                stats.denied += 1;
            }
        }
        persist::sfence();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ENTRY_HEADER_SIZE;
    use crate::log::LOG_HEADER_SIZE;
    use crate::{RANGE_DONE, RANGE_EXEC, RANGE_REDO, SEQ_REDO, SEQ_UNDO};

    fn make_log(buf: &mut Vec<u8>) -> LogRef {
        // SAFETY: the Vec outlives the LogRef in every test.
        unsafe { LogRef::from_raw(buf.as_mut_ptr(), buf.len()) }
    }

    #[test]
    fn undo_entries_roll_back_in_reverse_order() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        log.set_seq_range(RANGE_EXEC);
        // Two undo records for the same address: the first holds the oldest
        // value; reverse replay must leave that oldest value in place.
        log.append(
            0x1000,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xAA; 8],
        )
        .unwrap();
        log.append(
            0x1000,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xBB; 8],
        )
        .unwrap();

        let mut target = BufferTarget::new(0x1000, 64);
        target.write(0x1000, &[0xFF; 8]);
        let stats = replay_log(&log, &mut target, false);
        assert_eq!(stats.applied, 2);
        assert_eq!(target.read(0x1000, 8), &[0xAA; 8]);
    }

    #[test]
    fn redo_entries_roll_forward_in_order() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        log.set_seq_range(RANGE_REDO);
        log.append(
            0x2000,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            &[1; 4],
        )
        .unwrap();
        log.append(
            0x2000,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            &[2; 4],
        )
        .unwrap();
        let mut target = BufferTarget::new(0x2000, 64);
        let stats = replay_log(&log, &mut target, false);
        assert_eq!(stats.applied, 2);
        // The later redo record wins under forward replay.
        assert_eq!(target.read(0x2000, 4), &[2; 4]);
    }

    #[test]
    fn sequence_range_selects_the_stage() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        log.append(
            0x100,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xAA],
        )
        .unwrap();
        log.append(
            0x101,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            &[0xBB],
        )
        .unwrap();

        // Stage 1 (exec / undo): only the undo entry is applied.
        log.set_seq_range(RANGE_EXEC);
        let mut t1 = BufferTarget::new(0x100, 16);
        let s1 = replay_log(&log, &mut t1, false);
        assert_eq!((s1.applied, s1.skipped_sequence), (1, 1));
        assert_eq!(t1.read(0x100, 1), &[0xAA]);
        assert_eq!(t1.read(0x101, 1), &[0x00]);

        // Stage 2 (redo): only the redo entry is applied.
        log.set_seq_range(RANGE_REDO);
        let mut t2 = BufferTarget::new(0x100, 16);
        let s2 = replay_log(&log, &mut t2, false);
        assert_eq!((s2.applied, s2.skipped_sequence), (1, 1));
        assert_eq!(t2.read(0x101, 1), &[0xBB]);

        // Stage 3 (done): nothing is applied.
        log.set_seq_range(RANGE_DONE);
        let mut t3 = BufferTarget::new(0x100, 16);
        let s3 = replay_log(&log, &mut t3, false);
        assert_eq!(s3.applied, 0);
        assert_eq!(s3.skipped_sequence, 2);
    }

    #[test]
    fn volatile_entries_are_ignored_by_recovery_but_applied_on_abort() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        log.set_seq_range(RANGE_EXEC);
        log.append(
            0x300,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Volatile,
            &[7; 4],
        )
        .unwrap();
        let mut recovery = BufferTarget::new(0x300, 16);
        let s = replay_log(&log, &mut recovery, false);
        assert_eq!(s.applied, 0);
        assert_eq!(s.skipped_volatile, 1);

        let mut abort = BufferTarget::new(0x300, 16);
        let s = replay_log(&log, &mut abort, true);
        assert_eq!(s.applied, 1);
        assert_eq!(abort.read(0x300, 4), &[7; 4]);
    }

    #[test]
    fn access_control_denies_out_of_range_entries() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        log.set_seq_range(RANGE_EXEC);
        log.append(
            0x500,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[1; 8],
        )
        .unwrap();
        log.append(
            0x9000,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[2; 8],
        )
        .unwrap();
        let mut target = BufferTarget::new(0x500, 64);
        let stats = replay_log(&log, &mut target, false);
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.denied, 1);
        assert_eq!(target.read(0x500, 8), &[1; 8]);
    }

    // ------------------------------------------------------------------
    // Chained replay.
    // ------------------------------------------------------------------

    #[test]
    fn replay_chain_of_one_segment_equals_replay_log() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        log.set_seq_range(RANGE_EXEC);
        log.append(
            0x100,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[5; 8],
        )
        .unwrap();
        let mut a = BufferTarget::new(0x100, 64);
        let mut b = BufferTarget::new(0x100, 64);
        let sa = replay_log(&log, &mut a, false);
        let sb = replay_chain(std::slice::from_ref(&log), &mut b, false);
        assert_eq!(sa, sb);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(replay_chain(&[], &mut a, false), ReplayStats::default());
    }

    /// One logical entry of the randomized chained-replay property.
    #[derive(Clone, Copy)]
    struct PropEntry {
        off: usize,
        len: usize,
        redo: bool,
        fill: u8,
    }

    fn build_prop_entries(raw: &[(usize, usize, u8)], region: usize) -> Vec<PropEntry> {
        raw.iter()
            .map(|&(off, len, tag)| {
                let len = len.min(region - 1);
                PropEntry {
                    off: off % (region - len),
                    len,
                    redo: tag % 2 == 1,
                    fill: tag,
                }
            })
            .collect()
    }

    fn append_prop_entry(w: &mut crate::log::LogWriter, base: u64, e: &PropEntry) -> bool {
        let data: Vec<u8> = (0..e.len).map(|i| e.fill ^ (i as u8)).collect();
        let (seq, order, kind) = if e.redo {
            (SEQ_REDO, ReplayOrder::Forward, EntryKind::Redo)
        } else {
            (SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo)
        };
        match w.append(base + e.off as u64, seq, order, kind, &data) {
            Ok(()) => true,
            Err(puddles_pmem::PmError::LogFull { .. }) => false,
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn chained_replay_equals_single_log_replay(
            raw in proptest::collection::vec((0usize..4096, 0usize..200, 0u8..255), 16..48)
        ) {
            const REGION: usize = 4096;
            const BASE: u64 = 0x10_0000;
            let entries = build_prop_entries(&raw, REGION);

            // (a) One large log holding every entry.
            let mut big_buf = vec![0u8; 64 * 1024];
            let big = make_log(&mut big_buf);
            big.init();
            let mut bw = crate::log::LogWriter::begin(big).unwrap();
            for e in &entries {
                proptest::prop_assert!(append_prop_entry(&mut bw, BASE, e));
            }

            // (b) The same entries split across small chained segments.
            let mut head_buf = vec![0u8; 512];
            let head = make_log(&mut head_buf);
            head.init();
            let mut cw = crate::log::LogWriter::begin(head).unwrap();
            for e in &entries {
                if !append_prop_entry(&mut cw, BASE, e) {
                    let buf: &'static mut [u8] = vec![0u8; 512].leak();
                    // SAFETY: the leaked buffer lives for the process.
                    let seg = unsafe { LogRef::from_raw(buf.as_mut_ptr(), buf.len()) };
                    cw.extend(seg).unwrap();
                    proptest::prop_assert!(append_prop_entry(&mut cw, BASE, e));
                }
            }
            proptest::prop_assert!(
                cw.segment_count() >= 2,
                "workload must actually straddle segments (got {})",
                cw.segment_count()
            );

            // Replaying the chain must produce memory identical to replaying
            // the single log, in every stage.
            let init: Vec<u8> = (0..REGION).map(|i| (i * 31 % 251) as u8).collect();
            for range in [RANGE_EXEC, RANGE_REDO] {
                bw.set_seq_range(range);
                cw.set_seq_range(range);
                let mut single = BufferTarget::from_bytes(BASE, init.clone());
                let mut chained = BufferTarget::from_bytes(BASE, init.clone());
                let ss = replay_log(&big, &mut single, false);
                let sc = replay_chain(cw.chain(), &mut chained, false);
                proptest::prop_assert_eq!(ss, sc);
                proptest::prop_assert_eq!(single.bytes(), chained.bytes());
            }
        }
    }

    #[test]
    fn collected_entries_expose_apply_order_and_claims_before_the_apply() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        log.set_seq_range(RANGE_EXEC);
        for (addr, kind) in [
            (0x100, EntryKind::Undo),
            (0x7000_0000, EntryKind::Volatile),
            (0x108, EntryKind::Undo),
        ] {
            log.append(addr, SEQ_UNDO, ReplayOrder::Reverse, kind, &[addr as u8; 8])
                .unwrap();
        }
        log.append(
            0x110,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            &[9; 8],
        )
        .unwrap();
        // An entry whose kind byte decodes to nothing, with a valid
        // checksum: never applied, but its address still counts as claimed.
        let data = [7u8; 8];
        let mut bad = LogEntryHeader::new(
            0x9000,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            log.generation(),
            &data,
        );
        bad.kind = 9;
        bad.checksum = bad.compute_checksum(&data);
        let off = LOG_HEADER_SIZE + 4 * (ENTRY_HEADER_SIZE + 8);
        // SAFETY: `off + 40` lies inside the 4 KiB buffer.
        unsafe {
            std::ptr::write_unaligned(buf.as_mut_ptr().add(off) as *mut LogEntryHeader, bad);
        }
        buf[off + ENTRY_HEADER_SIZE..off + ENTRY_HEADER_SIZE + 8].copy_from_slice(&data);

        let live = collect_live(std::slice::from_ref(&log), false);
        assert_eq!(live.live_count(), 4, "2 undo + 1 volatile + 1 malformed");
        let order: Vec<u64> = live.to_apply().map(|(h, _)| h.addr).collect();
        assert_eq!(order, vec![0x108, 0x100], "undo entries, last logged first");
        let mut claimed: Vec<(u64, usize)> = live.claimed().collect();
        claimed.sort_unstable();
        assert_eq!(claimed, vec![(0x100, 8), (0x108, 8), (0x9000, 8)]);

        let mut target = BufferTarget::new(0x100, 64);
        let stats = live.apply(&mut target);
        let again = replay_log(&log, &mut BufferTarget::new(0x100, 64), false);
        assert_eq!(stats, again, "replay_chain is collect + apply");
        assert_eq!(
            stats,
            ReplayStats {
                applied: 2,
                skipped_sequence: 1,
                skipped_volatile: 1,
                denied: 0,
                malformed: 1,
            }
        );
        assert_eq!(target.read(0x100, 8), &[0x00; 8]);
        assert_eq!(target.read(0x108, 8), &[0x08; 8]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn restricted_target_answers_like_a_linear_search(
            raw in proptest::collection::vec((0u64..4096, 0u64..600), 0..24)
        ) {
            // Unsorted, overlapping, nested, adjacent and empty ranges.
            let target = DirectMemoryTarget::restricted(raw.clone());
            for addr in (0..4800u64).step_by(7) {
                for len in [0usize, 1, 8, 64, 500] {
                    let linear = raw.iter().any(|&(start, rlen)| {
                        addr >= start && addr + len as u64 <= start + rlen
                    });
                    proptest::prop_assert_eq!(
                        target.allows(addr, len),
                        linear,
                        "addr {} len {} over {:?}",
                        addr,
                        len,
                        raw
                    );
                    if let Some((start, rlen)) = target.containing(addr, len) {
                        proptest::prop_assert!(raw.contains(&(start, rlen)));
                        proptest::prop_assert!(addr >= start && addr + len as u64 <= start + rlen);
                    }
                }
            }
        }
    }

    #[test]
    fn direct_memory_target_respects_ranges() {
        let mut data = vec![0u8; 128];
        let base = data.as_mut_ptr() as u64;
        let mut allowed = DirectMemoryTarget::restricted(vec![(base, 64)]);
        assert!(allowed.allows(base, 64));
        assert!(!allowed.allows(base + 32, 64));
        allowed.apply(base, &[9; 16]);
        assert_eq!(&data[..16], &[9; 16]);

        let none = DirectMemoryTarget::restricted(vec![]);
        assert!(!none.allows(base, 1));
        let all = DirectMemoryTarget::unrestricted();
        assert!(all.allows(base, 128));
    }
}
