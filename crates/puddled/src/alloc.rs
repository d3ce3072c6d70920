//! The global-space address allocator: size-bucketed segregated free lists
//! with lazy coalescing, in one mutex-guarded arena.
//!
//! The seed allocator was first-fit over a flat `Vec` with a full
//! sort-and-coalesce on **every** free — O(extents) per operation. Fine for
//! dozens of puddles; hopeless for the millions the roadmap targets (every
//! log segment, B-tree node pool, and user pool is a daemon-granted
//! extent). This module replaces it with:
//!
//! * **Segregated free lists** — freed extents are binned into power-of-two
//!   buckets by page count (bucket *b* holds extents of `[2^b, 2^(b+1))`
//!   pages). Alloc pops from the first bucket guaranteed to fit (a bounded
//!   first-fit scan of the floor bucket first, so exact-size churn reuses
//!   exact-size extents), splits, and re-bins the remainder: O(1). Free is
//!   a push: O(1).
//! * **Lazy coalescing** — adjacent free extents are *not* merged on free.
//!   A deferred merge pass (collect, sort, merge, re-bin, and absorb any
//!   extent touching the bump frontier back into it) runs on the free that
//!   takes the free-extent count past a threshold (re-armed relative to
//!   what the last pass could not merge), and *forced* when an allocation
//!   would otherwise fail. The pass holds the arena's only lock for its
//!   whole sort whichever thread runs it, so it is not handed to another.
//!
//! One lock guards all of it, on purpose: every grant is followed by the
//! `PutPuddle` that uses it, which enqueues under the WAL's single lock, so
//! a per-thread front-end cannot buy a daemon caller any concurrency.
//!
//! # Persistence contract
//!
//! The allocator is **derived state**: volatile, never logged, a function
//! of the puddle table. A grant becomes durable only as the `offset`/`size`
//! of the `PutPuddle` record that uses it, a free only as the `DropPuddle`
//! before it, and recovery rebuilds the free list and the bump frontier
//! from the live puddle extents at every load ([`crate::registry`]'s
//! `reconcile`): an extent no puddle record covers is free by definition.
//! [`SpaceAlloc::canonical`] reports the in-memory state in exactly the
//! form `reconcile` would rebuild — sorted, fully merged, frontier-adjacent
//! extents absorbed into the bump pointer — so a checkpoint taken from a
//! live allocator and one rebuilt after a crash are bit-identical.

use parking_lot::Mutex;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets cover any u64 extent length.
const BUCKETS: usize = 48;

/// Entries of the floor bucket examined before giving up and splitting a
/// larger extent. Bounds the alloc path at O(1) while letting exact-size
/// churn (the common create/drop pattern) reuse exact-size extents.
const FLOOR_SCAN: usize = 8;

/// Default free-extent count that triggers a lazy coalesce pass.
pub const DEFAULT_COALESCE_THRESHOLD: u64 = 1024;

/// Why a coalesce pass ran (the registry's counters distinguish the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceKind {
    /// Threshold-triggered, on the free that tripped it (amortized O(1)
    /// per free).
    Lazy,
    /// Forced: an allocation would otherwise fail, or a caller asked
    /// (`Registry::force_coalesce`).
    ForcedInline,
}

/// Allocator observability, surfaced through the daemon's `Stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes sitting on free lists below the bump frontier (canonical view:
    /// merged, frontier-absorbed).
    pub free_bytes: u64,
    /// Free extents in the canonical view.
    pub free_extents: u64,
    /// Largest single free extent.
    pub largest_free: u64,
    /// External fragmentation in basis points:
    /// `10000 × (1 − largest_free / free_bytes)`. 0 when the free space is
    /// one extent (or there is none); approaches 10000 as it shatters.
    pub fragmentation_bp: u64,
    /// Lazy (threshold-triggered) coalesce passes run.
    pub lazy_coalesce_runs: u64,
    /// Coalesce passes forced (allocation pressure, or asked for).
    pub forced_inline_coalesces: u64,
}

/// Everything the lock guards: the bump frontier and the segregated
/// buckets of freed extents.
#[derive(Debug)]
struct Arena {
    next_offset: u64,
    buckets: [Vec<(u64, u64)>; BUCKETS],
}

impl Arena {
    /// The canonical `(free_list, next_offset)` pair: every bucketed extent
    /// sorted and merged with its neighbours, and an extent touching the
    /// bump frontier absorbed into it. The one place free extents are
    /// merged — a coalesce pass re-bins this, stats and snapshots read it.
    fn canonical(&self) -> (Vec<(u64, u64)>, u64) {
        let mut extents: Vec<(u64, u64)> = self.buckets.iter().flatten().copied().collect();
        extents.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(extents.len());
        for (off, len) in extents {
            match merged.last_mut() {
                Some((moff, mlen)) if *moff + *mlen == off => *mlen += len,
                _ => merged.push((off, len)),
            }
        }
        // Merged extents are pairwise non-adjacent, so at most one can touch
        // the frontier; absorbing it lowers the bump pointer.
        let mut next_offset = self.next_offset;
        if let Some(&(off, len)) = merged.last() {
            if off + len == next_offset {
                next_offset = off;
                merged.pop();
            }
        }
        (merged, next_offset)
    }
}

/// The segregated-fit allocator. All methods take `&self`; the arena is
/// locked internally.
pub struct SpaceAlloc {
    space_size: u64,
    arena: Mutex<Arena>,
    /// Extents across all buckets, updated under the arena lock; the
    /// lazy-coalesce trigger reads it without the lock.
    bucket_extents: AtomicU64,
    coalesce_threshold: AtomicU64,
    /// Extents the last coalesce pass could *not* merge (its residue). The
    /// trigger re-arms relative to this floor: a fragmented heap whose holes
    /// genuinely cannot merge must not re-run an O(n log n) pass on every
    /// subsequent free.
    coalesce_floor: AtomicU64,
    lazy_coalesces: AtomicU64,
    forced_coalesces: AtomicU64,
}

impl std::fmt::Debug for SpaceAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceAlloc")
            .field(
                "bucket_extents",
                &self.bucket_extents.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

/// Bucket index for an extent of `len` bytes: `floor(log2(pages))`, clamped
/// to the table. Bucket `b` holds extents of `[2^b, 2^(b+1))` pages.
fn bucket_of(len: u64) -> usize {
    let pages = (len / PAGE_SIZE as u64).max(1);
    ((63 - pages.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Pops an extent of at least `size` bytes from `buckets`: a bounded
/// first-fit scan of the floor bucket, then the first non-empty larger
/// bucket (whose every extent is guaranteed to fit). Returns the whole
/// extent; the caller splits. O(1): the scan is bounded and the bucket walk
/// is over at most `BUCKETS` heads.
fn take_fit(buckets: &mut [Vec<(u64, u64)>; BUCKETS], size: u64) -> Option<(u64, u64)> {
    let floor = bucket_of(size);
    let list = &mut buckets[floor];
    let scan = list.len().min(FLOOR_SCAN);
    for back in 1..=scan {
        let idx = list.len() - back;
        if list[idx].1 >= size {
            return Some(list.swap_remove(idx));
        }
    }
    for bucket in buckets.iter_mut().skip(floor + 1) {
        if let Some(extent) = bucket.pop() {
            return Some(extent);
        }
    }
    None
}

impl SpaceAlloc {
    /// Builds the allocator from reconciled registry state: the free list
    /// goes into the buckets, the bump frontier is taken as-is. Grants are
    /// offsets, so the space's base address (`_space_base`, which the
    /// registry's tables own) takes no part in them.
    pub fn new(
        _space_base: u64,
        space_size: u64,
        next_offset: u64,
        free_list: Vec<(u64, u64)>,
    ) -> Self {
        let mut arena = Arena {
            next_offset,
            buckets: std::array::from_fn(|_| Vec::new()),
        };
        let count = free_list.len() as u64;
        for (off, len) in free_list {
            arena.buckets[bucket_of(len)].push((off, len));
        }
        SpaceAlloc {
            space_size,
            arena: Mutex::new(arena),
            bucket_extents: AtomicU64::new(count),
            coalesce_threshold: AtomicU64::new(DEFAULT_COALESCE_THRESHOLD),
            // A reconciled free list is already fully merged: treat it as
            // the first pass's residue so recovery into a fragmented heap
            // doesn't trip an immediate (useless) pass.
            coalesce_floor: AtomicU64::new(count),
            lazy_coalesces: AtomicU64::new(0),
            forced_coalesces: AtomicU64::new(0),
        }
    }

    /// Allocates `size` bytes (page-aligned up), returning the offset. On
    /// exhaustion a forced coalesce pass runs once before the allocation is
    /// declared impossible.
    pub fn alloc(&self, size: u64) -> Result<u64> {
        let size = align_up(size.max(1) as usize, PAGE_SIZE) as u64;
        for attempt in 0..2 {
            if let Some(off) = self.try_alloc(size) {
                return Ok(off);
            }
            if attempt == 0 && !self.coalesce(CoalesceKind::ForcedInline) {
                break;
            }
        }
        Err(PmError::OutOfRange {
            offset: self.arena.lock().next_offset as usize,
            len: size as usize,
        })
    }

    /// Takes `size` bytes from the arena: buckets first, bump second.
    fn try_alloc(&self, size: u64) -> Option<u64> {
        let mut arena = self.arena.lock();
        if let Some((off, len)) = take_fit(&mut arena.buckets, size) {
            let rem = len - size;
            if rem > 0 {
                arena.buckets[bucket_of(rem)].push((off + size, rem));
            } else {
                self.bucket_extents.fetch_sub(1, Ordering::Relaxed);
            }
            return Some(off);
        }
        let off = arena.next_offset;
        if off + size > self.space_size {
            return None;
        }
        arena.next_offset = off + size;
        Some(off)
    }

    /// Returns `[offset, offset + size)` to the free lists: one push, no
    /// merging — coalescing is the deferred pass's job.
    pub fn free(&self, offset: u64, size: u64) {
        let size = align_up(size.max(1) as usize, PAGE_SIZE) as u64;
        let mut arena = self.arena.lock();
        arena.buckets[bucket_of(size)].push((offset, size));
        self.bucket_extents.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs one coalesce pass: replaces the buckets' contents with their
    /// canonical form (sorted, merged, the extent touching the bump
    /// frontier absorbed back into it). Returns `false`, and counts no
    /// pass, when there was nothing to merge.
    pub fn coalesce(&self, kind: CoalesceKind) -> bool {
        let mut arena = self.arena.lock();
        if self.bucket_extents.load(Ordering::Relaxed) == 0 {
            self.coalesce_floor.store(0, Ordering::Relaxed);
            return false;
        }
        match kind {
            CoalesceKind::Lazy => self.lazy_coalesces.fetch_add(1, Ordering::Relaxed),
            CoalesceKind::ForcedInline => self.forced_coalesces.fetch_add(1, Ordering::Relaxed),
        };
        let (merged, next_offset) = arena.canonical();
        arena.next_offset = next_offset;
        arena.buckets.iter_mut().for_each(Vec::clear);
        let kept = merged.len() as u64;
        for (off, len) in merged {
            arena.buckets[bucket_of(len)].push((off, len));
        }
        self.bucket_extents.store(kept, Ordering::Relaxed);
        self.coalesce_floor.store(kept, Ordering::Relaxed);
        true
    }

    /// `true` once the free-extent count has outgrown the lazy-coalesce
    /// threshold (read without the lock). The trigger re-arms relative to
    /// the last pass's residue, multiplicatively: a heap whose holes
    /// genuinely cannot merge (residue above the threshold) would otherwise
    /// re-run the O(n log n) pass on *every* free, turning the O(1) fast
    /// path back into the flat-Vec behaviour this allocator replaced.
    /// Requiring the count to double keeps the total merge work geometric in
    /// the frees between passes.
    pub fn wants_coalesce(&self) -> bool {
        let floor = self.coalesce_floor.load(Ordering::Relaxed);
        let threshold = self.coalesce_threshold.load(Ordering::Relaxed);
        self.bucket_extents() >= floor.saturating_mul(2).saturating_add(threshold)
    }

    /// Extents across all buckets (read without the lock).
    pub fn bucket_extents(&self) -> u64 {
        self.bucket_extents.load(Ordering::Relaxed)
    }

    /// Overrides the lazy-coalesce threshold (tests, benches).
    pub fn set_coalesce_threshold(&self, threshold: u64) {
        self.coalesce_threshold
            .store(threshold.max(1), Ordering::Relaxed);
    }

    /// The canonical `(free_list, next_offset)` pair. This is byte-for-byte
    /// the state `reconcile` rebuilds from the live extents at load, which
    /// keeps crash-replayed registries bit-identical to the checkpoints the
    /// live daemon writes.
    pub fn canonical(&self) -> (Vec<(u64, u64)>, u64) {
        self.arena.lock().canonical()
    }

    /// Observability snapshot (the lock is held for the canonical view
    /// only).
    pub fn stats(&self) -> AllocStats {
        let (free_list, _next) = self.canonical();
        let free_bytes: u64 = free_list.iter().map(|&(_, len)| len).sum();
        let largest_free = free_list.iter().map(|&(_, len)| len).max().unwrap_or(0);
        let fragmentation_bp = (largest_free * 10_000)
            .checked_div(free_bytes)
            .map_or(0, |solid| 10_000 - solid);
        AllocStats {
            free_bytes,
            free_extents: free_list.len() as u64,
            largest_free,
            fragmentation_bp,
            lazy_coalesce_runs: self.lazy_coalesces.load(Ordering::Relaxed),
            forced_inline_coalesces: self.forced_coalesces.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = PAGE_SIZE as u64;

    fn fresh(size: u64) -> SpaceAlloc {
        SpaceAlloc::new(0, size, P, Vec::new())
    }

    #[test]
    fn alloc_is_page_granular_and_disjoint() {
        let alloc = fresh(1 << 30);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for size in [1, 100, P, P + 1, 17 * P] {
            let off = alloc.alloc(size).unwrap();
            let len = align_up(size as usize, PAGE_SIZE) as u64;
            assert_eq!(off % P, 0);
            for &(o, l) in &seen {
                assert!(off + len <= o || o + l <= off, "overlap at {off:#x}");
            }
            seen.push((off, len));
        }
    }

    #[test]
    fn free_then_alloc_reuses_after_coalesce() {
        let alloc = fresh(1 << 30);
        let a = alloc.alloc(P).unwrap();
        let b = alloc.alloc(P).unwrap();
        alloc.free(a, P);
        alloc.free(b, P);
        // Lazily: the two pages sit unmerged in their bucket, so a 2-page
        // request cannot use them yet...
        assert_eq!(alloc.bucket_extents(), 2);
        // ...until a merge pass runs.
        assert!(alloc.coalesce(CoalesceKind::ForcedInline));
        let c = alloc.alloc(2 * P).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn canonical_merges_and_absorbs_the_frontier() {
        let alloc = fresh(1 << 30);
        let a = alloc.alloc(P).unwrap();
        let _b = alloc.alloc(P).unwrap();
        let c = alloc.alloc(P).unwrap();
        alloc.free(a, P);
        alloc.free(c, P);
        let (free_list, next) = alloc.canonical();
        // `c` merges into the frontier; `a` stays.
        assert_eq!(free_list, vec![(a, P)]);
        assert_eq!(next, c);
    }

    #[test]
    fn exhaustion_forces_one_merge_pass_then_fails_typed() {
        // Eight pages past the reserved first one, all granted.
        let alloc = fresh(9 * P);
        let offs: Vec<u64> = (0..8).map(|_| alloc.alloc(P).unwrap()).collect();
        // Truly full, nothing binned: the typed error, and no pass to count.
        assert!(matches!(alloc.alloc(P), Err(PmError::OutOfRange { .. })));
        assert_eq!(alloc.stats().forced_inline_coalesces, 0);
        // Four adjacent one-page frees: no binned extent fits four pages, so
        // only the forced pass on exhaustion can satisfy the request.
        for &off in &offs[2..6] {
            alloc.free(off, P);
        }
        assert_eq!(alloc.bucket_extents(), 4);
        assert_eq!(alloc.alloc(4 * P).unwrap(), offs[2]);
        assert_eq!(alloc.stats().forced_inline_coalesces, 1);
        assert_eq!(alloc.bucket_extents(), 0);
        // Full again: fails without inflating the counter.
        assert!(matches!(alloc.alloc(P), Err(PmError::OutOfRange { .. })));
        assert_eq!(alloc.stats().forced_inline_coalesces, 1);
    }

    /// Eight threads churn one arena with seeded random sizes. A page map
    /// claims every granted page and releases it before the free, so two
    /// live grants sharing a page — at any moment, not just at the end —
    /// trip the swap.
    #[test]
    fn concurrent_grants_are_disjoint_and_frees_restore_the_bump_state() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        const THREADS: u64 = 8;
        const SPACE_PAGES: u64 = 1 << 18;
        let alloc = fresh(SPACE_PAGES * P);
        let owned: Vec<AtomicBool> = (0..SPACE_PAGES).map(|_| AtomicBool::new(false)).collect();
        let pages = |off: u64, len: u64| (off / P) as usize..((off + len) / P) as usize;
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (alloc, owned, start) = (&alloc, &owned, &start);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xa11c ^ t);
                    let mut live: Vec<(u64, u64)> = Vec::new();
                    let release = |(off, len): (u64, u64)| {
                        for page in &owned[pages(off, len)] {
                            assert!(page.swap(false, Ordering::SeqCst));
                        }
                        alloc.free(off, len);
                    };
                    start.wait();
                    for _ in 0..400 {
                        let len = rng.gen_range(1..513u64) * P;
                        let off = alloc.alloc(len).unwrap();
                        assert!(off >= P && off + len <= SPACE_PAGES * P && off % P == 0);
                        for page in &owned[pages(off, len)] {
                            assert!(!page.swap(true, Ordering::SeqCst), "page granted twice");
                        }
                        live.push((off, len));
                        if live.len() > 16 || rng.gen_range(0..3) == 0 {
                            let victim = rng.gen_range(0..live.len());
                            release(live.swap_remove(victim));
                        }
                    }
                    live.drain(..).for_each(release);
                });
            }
        });
        // Everything is free again: one forced pass folds it all back into
        // the frontier.
        assert!(alloc.coalesce(CoalesceKind::ForcedInline));
        assert_eq!(alloc.canonical(), (Vec::new(), P));
        assert_eq!(alloc.bucket_extents(), 0);
    }

    #[test]
    fn stats_report_fragmentation() {
        let alloc = fresh(1 << 30);
        let offs: Vec<u64> = (0..8).map(|_| alloc.alloc(P).unwrap()).collect();
        // Free alternating pages: four 1-page islands.
        for chunk in offs.chunks(2) {
            alloc.free(chunk[0], P);
        }
        let stats = alloc.stats();
        assert_eq!(stats.free_extents, 4);
        assert_eq!(stats.free_bytes, 4 * P);
        assert_eq!(stats.largest_free, P);
        assert_eq!(stats.fragmentation_bp, 7_500);
        // One contiguous free region → fragmentation 0.
        let alloc = fresh(1 << 30);
        let a = alloc.alloc(P).unwrap();
        let _pin = alloc.alloc(P).unwrap();
        alloc.free(a, P);
        assert_eq!(alloc.stats().fragmentation_bp, 0);
    }
}
