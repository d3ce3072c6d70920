//! Cache-line flush and store-fence primitives, and the persistent copy.
//!
//! On the paper's testbed (`clwb`-capable Xeon + Optane in App Direct
//! mode) persistence is achieved with `clwb` followed by `sfence`. We issue
//! the same instruction sequence when the CPU supports it so the relative
//! cost of flushes on the commit path is modelled; on CPUs without `clwb`
//! we fall back to `clflush`, and on non-x86 targets to a compiler +
//! memory fence. Durability of the backing file itself is not required for
//! the reproduction: crash experiments are driven by failpoints, not by
//! killing the machine.
//!
//! # Streaming copies
//!
//! [`copy_flush`] is the one way to copy bytes into persistent memory and
//! flush them: a log append's payload, commit's redo apply, and replay
//! (abort and the daemon's recovery). A large copy writes its whole cache
//! lines with non-temporal stores (`movntdq`), which go to memory without
//! first reading the line into the cache and need no `clwb` afterwards.
//! Into a `MAP_SHARED` file on a 2-vCPU KVM guest with `clwb`, a 16 KiB
//! copy and its `clwb`s took 3.2–3.6× as long as the streamed copy, one
//! fence closing each 1.25 MiB of copies. The partial lines at either edge
//! are stored through the cache and [`flush`]ed. libpmem's
//! `pmem_memcpy_persist` does the same from 256 bytes on
//! (`PMEM_MOVNT_THRESHOLD`); below four whole lines a copy is the plain
//! copy and [`flush`].
//!
//! Streamed lines, like flushed ones, are durable only at the next
//! [`sfence`]: the fence drains the write-combining buffers exactly as it
//! orders `clwb`s, so every stage and chain boundary that made a flushed
//! line durable makes a streamed one durable too, and a copy that is not
//! yet fenced is as pending as an unfenced flush.

use crate::CACHELINE;
use std::cell::Cell;
use std::sync::atomic::{fence, Ordering};

/// What the calling thread has asked of this module since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistCounts {
    /// Cache lines covered by [`flush`] calls (a [`copy_flush`]'s edge
    /// lines and short copies included).
    pub lines_flushed: u64,
    /// Whole cache lines [`copy_flush`] wrote with non-temporal stores.
    pub lines_streamed: u64,
    /// [`sfence`] calls (one per [`persist`]).
    pub fences: u64,
}

thread_local! {
    static LINES_FLUSHED: Cell<u64> = const { Cell::new(0) };
    static LINES_STREAMED: Cell<u64> = const { Cell::new(0) };
    static FENCES: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's flush, stream and fence counts. Persist cost is a
/// count before it is a time: take the difference around an operation to
/// learn (or assert) exactly how many lines and fences it issued.
pub fn thread_counts() -> PersistCounts {
    PersistCounts {
        lines_flushed: LINES_FLUSHED.get(),
        lines_streamed: LINES_STREAMED.get(),
        fences: FENCES.get(),
    }
}

/// Which flush instruction the running CPU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushKind {
    /// `clwb`: write back without evicting (preferred, matches the paper).
    Clwb,
    /// `clflushopt`: flush-and-evict, weakly ordered.
    ClflushOpt,
    /// `clflush`: flush-and-evict, strongly ordered.
    Clflush,
    /// No cache-line flush available; rely on fences only.
    FenceOnly,
}

#[cfg(target_arch = "x86_64")]
fn detect_flush_kind() -> FlushKind {
    // Leaf 7, sub-leaf 0: EBX bit 23 = clflushopt, bit 24 = clwb. Queried
    // via raw CPUID because this toolchain's feature-detection macro does
    // not know the `clwb` feature name.
    let leaf7 = core::arch::x86_64::__cpuid_count(7, 0);
    if leaf7.ebx & (1 << 24) != 0 {
        FlushKind::Clwb
    } else if leaf7.ebx & (1 << 23) != 0 {
        FlushKind::ClflushOpt
    } else {
        FlushKind::Clflush
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_flush_kind() -> FlushKind {
    FlushKind::FenceOnly
}

fn flush_kind() -> FlushKind {
    use std::sync::OnceLock;
    static KIND: OnceLock<FlushKind> = OnceLock::new();
    *KIND.get_or_init(detect_flush_kind)
}

#[cfg(target_arch = "x86_64")]
unsafe fn clwb_line(ptr: *const u8) {
    // SAFETY: the caller guarantees `ptr` points into mapped memory; `clwb`
    // never faults on valid addresses and has no other side effects. The
    // instruction is emitted directly because the `_mm_clwb` intrinsic is
    // not stable on this toolchain.
    unsafe {
        core::arch::asm!("clwb [{0}]", in(reg) ptr, options(nostack, preserves_flags));
    }
}

#[cfg(target_arch = "x86_64")]
unsafe fn clflushopt_line(ptr: *const u8) {
    // SAFETY: same contract as `clwb_line`.
    unsafe {
        core::arch::asm!("clflushopt [{0}]", in(reg) ptr, options(nostack, preserves_flags));
    }
}

#[cfg(target_arch = "x86_64")]
unsafe fn clflush_line(ptr: *const u8) {
    // SAFETY: same contract as `clwb_line`; `clflush` is part of SSE2 which
    // is baseline on x86_64.
    unsafe { core::arch::x86_64::_mm_clflush(ptr) }
}

/// Flushes every cache line overlapping `[ptr, ptr + len)`.
///
/// Does not order subsequent stores; call [`fence`](sfence) (or use
/// [`persist`]) for the full persist sequence.
///
/// # Safety-relevant contract
///
/// `ptr .. ptr + len` must lie within a single mapped allocation. Passing an
/// unmapped address is undefined behaviour on targets where a hardware flush
/// instruction is issued.
pub fn flush(ptr: *const u8, len: usize) {
    if len == 0 {
        return;
    }
    let start = ptr as usize & !(CACHELINE - 1);
    let end = ptr as usize + len;
    LINES_FLUSHED.set(LINES_FLUSHED.get() + (end - start).div_ceil(CACHELINE) as u64);
    let kind = flush_kind();
    if kind == FlushKind::FenceOnly {
        fence(Ordering::SeqCst);
        return;
    }
    let mut line = start;
    while line < end {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `line` lies within the caller-provided mapped range
            // rounded down to a cache-line boundary, which is still inside
            // the same mapping because mappings are page aligned.
            unsafe {
                match kind {
                    FlushKind::Clwb => clwb_line(line as *const u8),
                    FlushKind::ClflushOpt => clflushopt_line(line as *const u8),
                    FlushKind::Clflush => clflush_line(line as *const u8),
                    FlushKind::FenceOnly => {}
                }
            }
        }
        line += CACHELINE;
    }
}

/// Issues a store fence ordering all previous flushes/stores.
pub fn sfence() {
    FENCES.set(FENCES.get() + 1);
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `_mm_sfence` has no preconditions.
        unsafe { core::arch::x86_64::_mm_sfence() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        fence(Ordering::SeqCst);
    }
}

/// Flushes `[ptr, ptr + len)` and fences: the canonical persist operation.
pub fn persist(ptr: *const u8, len: usize) {
    flush(ptr, len);
    sfence();
}

/// Flushes and fences a typed value in place.
pub fn persist_obj<T>(obj: &T) {
    persist(obj as *const T as *const u8, std::mem::size_of::<T>());
}

/// Fewest whole cache lines a [`copy_flush`] streams: 4 × 64 = 256 bytes,
/// libpmem's `PMEM_MOVNT_THRESHOLD`. On the host measured above, copies
/// that share one fence stream 3–4× faster at every size from 64 bytes,
/// but a copy with a fence of its own streams slower below 320–512 bytes,
/// where waiting for the write-combining buffers to reach memory outweighs
/// the `clwb`s saved: 256 ns against 221 at 256 bytes, 239 against 184 at
/// 64. A streamed line also leaves the cache, so a destination read soon
/// after (a redo target, a rolled-back object) misses. Below four lines
/// there is little to save, and the small entries of the KV store and the
/// B-tree keep their cached copy.
const STREAM_MIN_LINES: usize = 4;

/// Copies `src` to `dst` and makes every cache line of `[dst, dst +
/// src.len())` durable at the next [`sfence`]; issues no fence itself.
///
/// When the copy covers at least four whole lines, those lines are written
/// with non-temporal stores and the partial lines at either edge are stored
/// through the cache and [`flush`]ed (see the module docs). A shorter copy,
/// and every copy on a target other than x86_64, is a plain copy and
/// [`flush`].
///
/// Before that fence the calling thread may read the bytes back (x86 keeps
/// a thread's own non-temporal stores ordered before its later loads of the
/// same bytes), and a `lock`-prefixed instruction, which every mutex,
/// channel and thread join issues, drains them before another thread can
/// look.
///
/// # Safety
///
/// `dst .. dst + src.len()` must be valid for writes, lie within a single
/// mapped allocation and not overlap `src`.
#[inline]
pub unsafe fn copy_flush(dst: *mut u8, src: &[u8]) {
    // The length test alone keeps a short copy to one comparison.
    #[cfg(target_arch = "x86_64")]
    if src.len() >= STREAM_MIN_LINES * CACHELINE {
        let first = (dst as usize).next_multiple_of(CACHELINE);
        let last = (dst as usize + src.len()) & !(CACHELINE - 1);
        let lines = last.saturating_sub(first) / CACHELINE;
        if lines >= STREAM_MIN_LINES {
            // SAFETY: the caller's contract.
            return unsafe { copy_stream(dst, src, first - dst as usize, lines) };
        }
    }
    // SAFETY: the caller's contract.
    unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len()) };
    flush(dst, src.len());
}

/// [`copy_flush`] of a copy whose `lines` whole lines start `head` bytes
/// into `dst`.
///
/// # Safety
///
/// As for [`copy_flush`].
#[cfg(target_arch = "x86_64")]
#[inline(never)]
unsafe fn copy_stream(dst: *mut u8, src: &[u8], head: usize, lines: usize) {
    use core::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_stream_si128};
    let body = lines * CACHELINE;
    // SAFETY: every pointer below stays inside `dst .. dst + src.len()` or
    // `src`, per the caller's contract; `dst + head` is line-aligned, so
    // every streamed store is 16-byte aligned, and `movntdq` is SSE2,
    // baseline on x86_64.
    unsafe {
        std::ptr::copy_nonoverlapping(src.as_ptr(), dst, head);
        flush(dst, head);
        let from = src.as_ptr().add(head);
        let to = dst.add(head);
        for off in (0..body).step_by(16) {
            let chunk = _mm_loadu_si128(from.add(off) as *const __m128i);
            _mm_stream_si128(to.add(off) as *mut __m128i, chunk);
        }
        LINES_STREAMED.set(LINES_STREAMED.get() + lines as u64);
        let tail = src.len() - head - body;
        std::ptr::copy_nonoverlapping(from.add(body), to.add(body), tail);
        flush(to.add(body), tail);
    }
}

/// Flushes a header of `len` bytes at `ptr` that is followed directly by a
/// payload of `payload_len` bytes written with [`copy_flush`]. The copy
/// already covered the line the payload starts in, header bytes included,
/// so only the header's lines before it are left (all of them when the
/// payload is empty). Together the two flush each line of the entry once.
pub fn flush_header(ptr: *const u8, len: usize, payload_len: usize) {
    let end = ptr as usize + len;
    let covered_from = if payload_len == 0 {
        end
    } else {
        end & !(CACHELINE - 1)
    };
    flush(ptr, covered_from.saturating_sub(ptr as usize));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_and_persist_do_not_crash_on_heap_memory() {
        let data = vec![0u8; 4096];
        flush(data.as_ptr(), data.len());
        sfence();
        persist(data.as_ptr(), data.len());
        persist(data.as_ptr().wrapping_add(1), 1);
        flush(data.as_ptr(), 0);
    }

    #[test]
    fn thread_counts_follow_this_threads_flushes_and_fences() {
        let mut data = vec![0u8; 4096];
        // An aligned pointer inside the buffer, whatever the allocator gave.
        let base = (data.as_mut_ptr() as usize).next_multiple_of(CACHELINE) as *mut u8;
        let src = [7u8; 4 * CACHELINE + 2];
        let before = thread_counts();
        flush(base, 0);
        flush(base, 1);
        flush(base.wrapping_add(CACHELINE - 1), 2);
        flush(base, 3 * CACHELINE);
        // SAFETY: both copies end inside `data`, 18 lines past `base`.
        unsafe {
            // Four whole lines and a byte on either side: the two edge
            // lines are flushed, the four between them streamed.
            copy_flush(base.add(CACHELINE - 1), &src);
            // One byte short of four whole lines: copied and flushed.
            copy_flush(base.add(8 * CACHELINE), &src[..4 * CACHELINE - 1]);
        }
        sfence();
        persist(base, CACHELINE);
        std::thread::spawn(|| persist(&0u64 as *const u64 as *const u8, 8))
            .join()
            .unwrap();
        let after = thread_counts();
        let streamed = if cfg!(target_arch = "x86_64") { 4 } else { 0 };
        assert_eq!(after.lines_streamed - before.lines_streamed, streamed);
        assert_eq!(
            after.lines_flushed - before.lines_flushed,
            1 + 2 + 3 + (6 - streamed) + 4 + 1
        );
        assert_eq!(after.fences - before.fences, 2);
    }

    /// Every destination offset within a line against lengths around the
    /// line size and the streaming threshold: the copy lands exactly, and
    /// each line it covers is flushed or streamed exactly once.
    #[test]
    fn copy_flush_copies_exactly_and_accounts_each_covered_line_once() {
        const LENGTHS: [usize; 10] = [0, 1, 63, 64, 65, 255, 256, 257, 4096, 16 * 1024 + 8];
        const GUARD: usize = 2 * CACHELINE;
        let max = LENGTHS[LENGTHS.len() - 1];
        let src: Vec<u8> = (0..max).map(|i| (i * 31 + 7) as u8).collect();
        let mut buf = vec![0u8; max + 2 * GUARD + 2 * CACHELINE];
        let aligned = (buf.as_ptr() as usize).next_multiple_of(CACHELINE) - buf.as_ptr() as usize;
        for off in 0..CACHELINE {
            for len in LENGTHS {
                buf.fill(0xA5);
                let at = aligned + GUARD + off;
                let before = thread_counts();
                // SAFETY: `at + len` lies inside `buf`, which `src` does
                // not overlap.
                unsafe { copy_flush(buf.as_mut_ptr().add(at), &src[..len]) };
                let after = thread_counts();
                assert_eq!(&buf[at..at + len], &src[..len], "off {off} len {len}");
                assert!(
                    buf[..at].iter().chain(&buf[at + len..]).all(|&b| b == 0xA5),
                    "off {off} len {len}: a byte outside the copy changed"
                );
                let covered = if len == 0 {
                    0
                } else {
                    ((off + len).div_ceil(CACHELINE)) as u64
                };
                let flushed = after.lines_flushed - before.lines_flushed;
                let streamed = after.lines_streamed - before.lines_streamed;
                assert_eq!(flushed + streamed, covered, "off {off} len {len}");
                let whole = ((off + len) / CACHELINE).saturating_sub(off.div_ceil(CACHELINE));
                let streams = cfg!(target_arch = "x86_64") && whole >= STREAM_MIN_LINES;
                assert_eq!(
                    streamed,
                    if streams { whole as u64 } else { 0 },
                    "off {off} len {len}"
                );
                assert_eq!(after.fences, before.fences);
            }
        }
        sfence();
    }

    #[test]
    fn a_header_and_its_payload_flush_each_entry_line_once() {
        let mut data = vec![0u8; 4096];
        let base = (data.as_mut_ptr() as usize).next_multiple_of(CACHELINE) as *mut u8;
        let payload = [1u8; 5 * CACHELINE];
        for hdr_off in (0..CACHELINE).step_by(8) {
            for len in [0, 8, 64, 5 * CACHELINE] {
                let before = thread_counts();
                // SAFETY: the entry ends inside `data`.
                unsafe {
                    let hdr = base.add(hdr_off);
                    copy_flush(hdr.add(32), &payload[..len]);
                    flush_header(hdr, 32, len);
                }
                let after = thread_counts();
                let lines = (after.lines_flushed - before.lines_flushed)
                    + (after.lines_streamed - before.lines_streamed);
                assert_eq!(lines, (hdr_off + 32 + len).div_ceil(CACHELINE) as u64);
            }
        }
        sfence();
    }

    #[test]
    fn persist_obj_handles_unaligned_struct() {
        #[repr(C)]
        struct Odd {
            a: u8,
            b: u64,
            c: [u8; 3],
        }
        let odd = Odd {
            a: 1,
            b: 2,
            c: [3; 3],
        };
        persist_obj(&odd);
    }
}
