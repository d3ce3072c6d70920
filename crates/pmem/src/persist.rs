//! Cache-line flush and store-fence primitives.
//!
//! On the paper's testbed (`clwb`-capable Xeon + Optane in App Direct
//! mode) persistence is achieved with `clwb` followed by `sfence`. We issue
//! the same instruction sequence when the CPU supports it so the relative
//! cost of flushes on the commit path is modelled; on CPUs without `clwb`
//! we fall back to `clflush`, and on non-x86 targets to a compiler +
//! memory fence. Durability of the backing file itself is not required for
//! the reproduction: crash experiments are driven by failpoints, not by
//! killing the machine.

use crate::CACHELINE;
use std::cell::Cell;
use std::sync::atomic::{fence, Ordering};

/// What the calling thread has asked of this module since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistCounts {
    /// Cache lines covered by [`flush`] calls.
    pub lines_flushed: u64,
    /// [`sfence`] calls (one per [`persist`]).
    pub fences: u64,
}

thread_local! {
    static LINES_FLUSHED: Cell<u64> = const { Cell::new(0) };
    static FENCES: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's flush and fence counts. Persist cost is a count
/// before it is a time: take the difference around an operation to learn
/// (or assert) exactly how many fences it issued.
pub fn thread_counts() -> PersistCounts {
    PersistCounts {
        lines_flushed: LINES_FLUSHED.get(),
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
        let data = vec![0u8; 4096];
        // An aligned pointer inside the buffer, whatever the allocator gave.
        let base = (data.as_ptr() as usize).next_multiple_of(CACHELINE) as *const u8;
        let before = thread_counts();
        flush(base, 0);
        flush(base, 1);
        flush(base.wrapping_add(CACHELINE - 1), 2);
        flush(base, 3 * CACHELINE);
        sfence();
        persist(base, CACHELINE);
        std::thread::spawn(|| persist(&0u64 as *const u64 as *const u8, 8))
            .join()
            .unwrap();
        let after = thread_counts();
        assert_eq!(after.lines_flushed - before.lines_flushed, 1 + 2 + 3 + 1);
        assert_eq!(after.fences - before.fences, 2);
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
