//! The global-space address allocator: one ordered free map, merged on
//! every free, best fit on every alloc, in one mutex-guarded arena.
//!
//! Free space is kept in exactly one form, the canonical one: disjoint,
//! pairwise non-adjacent extents below a bump frontier, none of them
//! touching it. The arena indexes those extents twice — by offset, to find
//! the neighbours a free merges with, and by `(len, offset)`, to find the
//! smallest extent an alloc fits in — so both operations are O(log free
//! extents) and there is no deferred merge pass, trigger or threshold.
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
//! Because the arena is always canonical, [`SpaceAlloc::canonical`] is
//! exactly what `reconcile` would rebuild — sorted, fully merged,
//! frontier-adjacent space absorbed into the bump pointer — so a checkpoint
//! taken from a live allocator and one rebuilt after a crash are
//! bit-identical.

use parking_lot::Mutex;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result, PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};

/// The allocator's state as `GetMetrics` reports it (`alloc.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes in free extents below the bump frontier.
    pub free_bytes: u64,
    /// Free extents below the bump frontier.
    pub free_extents: u64,
    /// Largest single free extent.
    pub largest_free: u64,
    /// External fragmentation in basis points:
    /// `10000 × (1 − largest_free / free_bytes)`. 0 when the free space is
    /// one extent (or there is none); approaches 10000 as it shatters.
    pub fragmentation_bp: u64,
}

/// Everything the lock guards: the bump frontier and the free extents,
/// indexed twice. Both indexes always hold the same canonical set.
#[derive(Debug)]
struct Arena {
    next_offset: u64,
    /// `offset -> len` of every free extent.
    by_offset: BTreeMap<u64, u64>,
    /// `(len, offset)` of every free extent: the first entry at or above a
    /// request is its best fit, lowest offset on ties.
    by_size: BTreeSet<(u64, u64)>,
}

impl Arena {
    fn insert(&mut self, offset: u64, len: u64) {
        self.by_offset.insert(offset, len);
        self.by_size.insert((len, offset));
    }

    fn remove(&mut self, offset: u64, len: u64) {
        self.by_offset.remove(&offset);
        self.by_size.remove(&(len, offset));
    }
}

/// The best-fit allocator. All methods take `&self`; the arena is locked
/// internally.
#[derive(Debug)]
pub struct SpaceAlloc {
    space_size: u64,
    arena: Mutex<Arena>,
}

impl SpaceAlloc {
    /// Builds the allocator from reconciled registry state: the free list
    /// (canonical, as `reconcile` derives it) fills the map, the bump
    /// frontier is taken as-is. Grants are offsets, so the space's base
    /// address (`_space_base`, which the registry's tables own) takes no
    /// part in them.
    pub fn new(
        _space_base: u64,
        space_size: u64,
        next_offset: u64,
        free_list: Vec<(u64, u64)>,
    ) -> Self {
        let mut arena = Arena {
            next_offset,
            by_offset: BTreeMap::new(),
            by_size: BTreeSet::new(),
        };
        for (off, len) in free_list {
            arena.insert(off, len);
        }
        SpaceAlloc {
            space_size,
            arena: Mutex::new(arena),
        }
    }

    /// Allocates `size` bytes (page-aligned up), returning the offset: the
    /// smallest free extent that fits, split, or else the bump frontier.
    pub fn alloc(&self, size: u64) -> Result<u64> {
        let size = align_up(size.max(1) as usize, PAGE_SIZE) as u64;
        let mut arena = self.arena.lock();
        if let Some(&(len, off)) = arena.by_size.range((size, 0)..).next() {
            // The remainder keeps the extent's far end, so it stays apart
            // from every other extent and from the frontier.
            arena.remove(off, len);
            if len > size {
                arena.insert(off + size, len - size);
            }
            return Ok(off);
        }
        let off = arena.next_offset;
        if off + size > self.space_size {
            return Err(PmError::OutOfRange {
                offset: off as usize,
                len: size as usize,
            });
        }
        arena.next_offset = off + size;
        Ok(off)
    }

    /// Returns `[offset, offset + size)` to the map, merged with the free
    /// extents that end at `offset` and start at its end; space that then
    /// reaches the bump frontier lowers it instead.
    pub fn free(&self, offset: u64, size: u64) {
        let size = align_up(size.max(1) as usize, PAGE_SIZE) as u64;
        let mut arena = self.arena.lock();
        let (mut start, mut end) = (offset, offset + size);
        debug_assert!(
            end <= arena.next_offset
                && arena
                    .by_offset
                    .range(..end)
                    .next_back()
                    .is_none_or(|(&o, &l)| o + l <= offset),
            "free of [{offset:#x}, {end:#x}) overlaps free space: a double free"
        );
        if let Some((&off, &len)) = arena.by_offset.range(..offset).next_back() {
            if off + len == offset {
                arena.remove(off, len);
                start = off;
            }
        }
        if let Some(&len) = arena.by_offset.get(&end) {
            arena.remove(end, len);
            end += len;
        }
        if end == arena.next_offset {
            arena.next_offset = start;
        } else {
            arena.insert(start, end - start);
        }
    }

    /// The canonical `(free_list, next_offset)` pair. This is byte-for-byte
    /// the state `reconcile` rebuilds from the live extents at load, which
    /// keeps crash-replayed registries bit-identical to the checkpoints the
    /// live daemon writes.
    pub fn canonical(&self) -> (Vec<(u64, u64)>, u64) {
        let arena = self.arena.lock();
        let free_list = arena.by_offset.iter().map(|(&o, &l)| (o, l)).collect();
        (free_list, arena.next_offset)
    }

    /// Observability snapshot.
    pub fn stats(&self) -> AllocStats {
        let arena = self.arena.lock();
        let free_bytes: u64 = arena.by_offset.values().sum();
        let largest_free = arena.by_size.last().map_or(0, |&(len, _)| len);
        let fragmentation_bp = (largest_free * 10_000)
            .checked_div(free_bytes)
            .map_or(0, |solid| 10_000 - solid);
        AllocStats {
            free_bytes,
            free_extents: arena.by_offset.len() as u64,
            largest_free,
            fragmentation_bp,
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
    fn adjacent_frees_serve_a_spanning_request_at_once() {
        // Eight pages past the reserved first one, all granted.
        let alloc = fresh(9 * P);
        let offs: Vec<u64> = (0..8).map(|_| alloc.alloc(P).unwrap()).collect();
        assert!(matches!(alloc.alloc(P), Err(PmError::OutOfRange { .. })));
        // Four adjacent one-page frees are one four-page extent the moment
        // the last of them lands.
        for &off in &offs[2..6] {
            alloc.free(off, P);
        }
        assert_eq!(alloc.canonical().0, vec![(offs[2], 4 * P)]);
        assert_eq!(alloc.alloc(4 * P).unwrap(), offs[2]);
        assert!(matches!(alloc.alloc(P), Err(PmError::OutOfRange { .. })));
    }

    #[test]
    fn best_fit_takes_the_smallest_extent_that_fits() {
        let alloc = fresh(1 << 30);
        // Holes of 3, 1, 2 and 2 pages, each pinned apart by a live page.
        let mut holes = Vec::new();
        for pages in [3, 1, 2, 2] {
            holes.push(alloc.alloc(pages * P).unwrap());
            alloc.alloc(P).unwrap();
        }
        for (&off, pages) in holes.iter().zip([3, 1, 2, 2]) {
            alloc.free(off, pages * P);
        }
        // Two pages: the first two-page hole, not the lower three-page one.
        assert_eq!(alloc.alloc(2 * P).unwrap(), holes[2]);
        // One page: the one-page hole, not a split of a larger one.
        assert_eq!(alloc.alloc(P).unwrap(), holes[1]);
        // Three pages: only the three-page hole fits.
        assert_eq!(alloc.alloc(3 * P).unwrap(), holes[0]);
        // Four pages: no hole fits, so the frontier serves it.
        let (_, frontier) = alloc.canonical();
        assert_eq!(alloc.alloc(4 * P).unwrap(), frontier);
        assert_eq!(alloc.canonical().0, vec![(holes[3], 2 * P)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double free")]
    fn a_double_free_panics_at_the_call() {
        let alloc = fresh(1 << 30);
        let a = alloc.alloc(P).unwrap();
        let _pin = alloc.alloc(P).unwrap();
        alloc.free(a, P);
        alloc.free(a, P);
    }

    /// Eight threads churn one arena with seeded random sizes. A page map
    /// claims every granted page and releases it before the free, so two
    /// live grants sharing a page — at any moment, not just at the end —
    /// trip the swap.
    #[test]
    fn concurrent_grants_are_disjoint_and_frees_restore_the_bump_state() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::atomic::{AtomicBool, Ordering};
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
        // Everything is free again, and already folded back into the
        // frontier.
        assert_eq!(alloc.canonical(), (Vec::new(), P));
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
