//! The two-level per-puddle object allocator (§4.5).
//!
//! Each puddle heap is managed by:
//!
//! * a **block allocator** for allocations ≥ 256 B: the heap is divided into
//!   256-byte blocks and a persistent one-byte-per-block state table records
//!   whether each block is free, an allocation head (with its power-of-two
//!   order), a continuation, or a slab chunk head;
//! * **per-type slab allocators** for allocations < 256 B: 4 KiB chunks are
//!   carved from the block allocator; each chunk serves one (type, size
//!   class) pair and tracks its slots in a small bitmap.
//!
//! Every allocation records the object's 64-bit type id (in the object
//! header for block allocations, in the chunk header for slab allocations),
//! which is what lets [`PuddleAlloc::walk`] enumerate every live object —
//! the mechanism behind pointer discovery during relocation (§4.2).
//!
//! Allocator metadata updates made inside a transaction are undo-logged
//! through the [`MetaLogger`] hook so that a crash mid-allocation rolls the
//! metadata back together with the application data.

use crate::error::{Error, Result};
use parking_lot::Mutex;
use puddles_pmem::persist;
use puddles_pmem::util::align_up;
use std::collections::HashMap;

/// Smallest block managed by the block allocator.
pub const MIN_BLOCK: usize = 256;
/// Size of a slab chunk (16 blocks).
pub const SLAB_CHUNK: usize = 4096;
/// Largest allocation served from slabs.
pub const SLAB_MAX: usize = 256;
/// Slab size classes.
pub const SLAB_CLASSES: [usize; 5] = [16, 32, 64, 128, 256];

/// Offset of the allocator region within a puddle (right after the fixed
/// puddle header).
pub const ALLOC_REGION_OFFSET: usize = puddles_logfmt::PUDDLE_HEADER_SIZE;

const ALLOC_MAGIC: u64 = 0x5055_4444_414c_4c31; // "PUDDALL1"

/// Block states stored in the block table.
const B_FREE: u8 = 0x00;
const B_CONT: u8 = 0x01;
const B_OBJ: u8 = 0x80;
const B_SLAB: u8 = 0xC0;
const B_KIND_MASK: u8 = 0xC0;
const B_ORDER_MASK: u8 = 0x3F;

/// Receives the address ranges of persistent metadata about to be modified
/// so they can be undo-logged by the enclosing transaction.
pub trait MetaLogger {
    /// Undo-logs `[addr, addr + len)` before it is modified.
    fn log_range(&mut self, addr: usize, len: usize) -> Result<()>;
}

/// A [`MetaLogger`] that logs nothing (used outside transactions, e.g. when
/// initializing a fresh puddle).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoLog;

impl MetaLogger for NoLog {
    fn log_range(&mut self, _addr: usize, _len: usize) -> Result<()> {
        Ok(())
    }
}

/// On-PM allocator header stored at [`ALLOC_REGION_OFFSET`].
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct AllocHeader {
    magic: u64,
    n_blocks: u64,
    table_off: u64,
    heap_off: u64,
}

const ALLOC_HEADER_SIZE: usize = std::mem::size_of::<AllocHeader>();

/// Header preceding every block allocation.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct ObjHeader {
    type_id: u64,
    size: u64,
}

const OBJ_HEADER_SIZE: usize = std::mem::size_of::<ObjHeader>();

/// Header at the start of every slab chunk.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct SlabHeader {
    slot_size: u32,
    slot_count: u32,
    type_id: u64,
    bitmap: [u64; 2],
    allocated: u32,
    _pad: u32,
}

const SLAB_HEADER_SIZE: usize = 64;

/// One live object reported by [`PuddleAlloc::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjRef {
    /// Address of the object's first byte (the user data, not the header).
    pub addr: usize,
    /// The object's 64-bit type id.
    pub type_id: u64,
    /// The usable size of the object in bytes.
    pub size: usize,
}

#[derive(Debug, Default)]
struct VolatileCache {
    /// (type_id, class) → chunk head block indices with free slots.
    slabs: HashMap<(u64, usize), Vec<usize>>,
    /// Hint where to start scanning for free blocks.
    scan_hint: usize,
    /// Whether the slab index has been built from the persistent table.
    slabs_indexed: bool,
}

/// The allocator view over one mapped puddle.
///
/// `PuddleAlloc` does not own the memory; it operates on a mapped puddle
/// whose base address and size are supplied at construction. All operations
/// are internally serialized with a mutex, so a pool can share one
/// `PuddleAlloc` across threads.
#[derive(Debug)]
pub struct PuddleAlloc {
    base: usize,
    size: usize,
    cache: Mutex<VolatileCache>,
}

// SAFETY: the allocator's raw pointer accesses all stay within
// `[base, base + size)`, a region the constructor contract declares mapped
// for the allocator's lifetime; internal state is mutex-protected.
unsafe impl Send for PuddleAlloc {}
// SAFETY: see above.
unsafe impl Sync for PuddleAlloc {}

impl PuddleAlloc {
    /// Creates an allocator view over a mapped puddle at `base` spanning
    /// `size` bytes (the full puddle, including its header).
    ///
    /// # Safety
    ///
    /// `[base, base + size)` must remain mapped read-write for the lifetime
    /// of the returned value, and only `PuddleAlloc` (plus object accesses
    /// to addresses it hands out) may touch the allocator metadata region.
    pub unsafe fn new(base: usize, size: usize) -> Self {
        assert!(size > ALLOC_REGION_OFFSET + ALLOC_HEADER_SIZE + MIN_BLOCK);
        PuddleAlloc {
            base,
            size,
            cache: Mutex::new(VolatileCache::default()),
        }
    }

    fn header_ptr(&self) -> *mut AllocHeader {
        (self.base + ALLOC_REGION_OFFSET) as *mut AllocHeader
    }

    fn read_header(&self) -> AllocHeader {
        // SAFETY: the constructor contract guarantees the region is mapped.
        unsafe { std::ptr::read_unaligned(self.header_ptr()) }
    }

    /// Returns `true` if the puddle already carries allocator metadata.
    pub fn is_initialized(&self) -> bool {
        self.read_header().magic == ALLOC_MAGIC
    }

    /// Lays out and persists fresh allocator metadata, erasing prior state.
    pub fn init(&self) {
        let avail = self.size - ALLOC_REGION_OFFSET - ALLOC_HEADER_SIZE;
        let mut n_blocks = avail / (MIN_BLOCK + 1);
        let table_off = ALLOC_REGION_OFFSET + ALLOC_HEADER_SIZE;
        let mut heap_off = align_up(table_off + n_blocks, MIN_BLOCK);
        while heap_off + n_blocks * MIN_BLOCK > self.size && n_blocks > 0 {
            n_blocks -= 1;
            heap_off = align_up(table_off + n_blocks, MIN_BLOCK);
        }
        let hdr = AllocHeader {
            magic: ALLOC_MAGIC,
            n_blocks: n_blocks as u64,
            table_off: table_off as u64,
            heap_off: heap_off as u64,
        };
        // SAFETY: header + table lie inside the mapped puddle by the size
        // computation above.
        unsafe {
            std::ptr::write_bytes((self.base + table_off) as *mut u8, B_FREE, n_blocks);
            std::ptr::write_unaligned(self.header_ptr(), hdr);
        }
        persist::persist((self.base + table_off) as *const u8, n_blocks);
        persist::persist(self.header_ptr() as *const u8, ALLOC_HEADER_SIZE);
        let mut cache = self.cache.lock();
        *cache = VolatileCache::default();
    }

    fn table(&self) -> (usize, usize, usize) {
        let hdr = self.read_header();
        (
            self.base + hdr.table_off as usize,
            self.base + hdr.heap_off as usize,
            hdr.n_blocks as usize,
        )
    }

    fn entry(&self, table: usize, idx: usize) -> u8 {
        // SAFETY: callers only pass `idx < n_blocks`; the table is mapped.
        unsafe { *((table + idx) as *const u8) }
    }

    fn set_entry(&self, table: usize, idx: usize, value: u8) {
        // SAFETY: as in `entry`.
        unsafe { *((table + idx) as *mut u8) = value };
    }

    /// Returns `true` if `addr` points into this puddle's heap.
    pub fn contains(&self, addr: usize) -> bool {
        let (_, heap, n_blocks) = self.table();
        addr >= heap && addr < heap + n_blocks * MIN_BLOCK
    }

    /// Returns the number of free heap bytes (block granularity).
    pub fn free_bytes(&self) -> usize {
        let (table, _, n_blocks) = self.table();
        (0..n_blocks)
            .filter(|&i| self.entry(table, i) == B_FREE)
            .count()
            * MIN_BLOCK
    }

    /// Returns the total number of heap bytes managed by this allocator.
    pub fn capacity(&self) -> usize {
        let (_, _, n_blocks) = self.table();
        n_blocks * MIN_BLOCK
    }

    /// Allocates `size` bytes for an object of type `type_id`, returning the
    /// object's address.
    pub fn alloc(&self, size: usize, type_id: u64, logger: &mut dyn MetaLogger) -> Result<usize> {
        if puddles_pmem::failpoint::should_fail(puddles_pmem::failpoint::names::ALLOC_METADATA) {
            return Err(Error::CrashInjected(
                puddles_pmem::failpoint::names::ALLOC_METADATA,
            ));
        }
        let size = size.max(1);
        if size <= SLAB_MAX {
            self.slab_alloc(size, type_id, logger)
        } else {
            self.block_alloc(size, type_id, logger)
        }
    }

    /// Frees the object at `addr` (previously returned by [`PuddleAlloc::alloc`]).
    pub fn dealloc(&self, addr: usize, logger: &mut dyn MetaLogger) -> Result<()> {
        let (table, heap, n_blocks) = self.table();
        if addr < heap || addr >= heap + n_blocks * MIN_BLOCK {
            return Err(Error::InvalidAddress(addr as u64));
        }
        let mut idx = (addr - heap) / MIN_BLOCK;
        while idx > 0 && self.entry(table, idx) == B_CONT {
            idx -= 1;
        }
        let entry = self.entry(table, idx);
        match entry & B_KIND_MASK {
            0x80 => self.block_dealloc(table, heap, idx, entry, addr, logger),
            0xC0 => self.slab_dealloc(table, heap, idx, addr, logger),
            _ => Err(Error::InvalidAddress(addr as u64)),
        }
    }

    // ------------------------------------------------------------------
    // Block (>= 256 B) allocations.
    // ------------------------------------------------------------------

    fn block_alloc(&self, size: usize, type_id: u64, logger: &mut dyn MetaLogger) -> Result<usize> {
        let (table, heap, n_blocks) = self.table();
        let needed = align_up(size + OBJ_HEADER_SIZE, MIN_BLOCK) / MIN_BLOCK;
        let span = needed.next_power_of_two();
        let order = span.trailing_zeros() as u8;

        let mut cache = self.cache.lock();
        let start_hint = cache.scan_hint - (cache.scan_hint % span);
        let head = self
            .find_free_run(table, n_blocks, span, start_hint)
            .or_else(|| self.find_free_run(table, n_blocks, span, 0))
            .ok_or_else(|| Error::OutOfMemory(format!("no run of {span} free blocks")))?;

        logger.log_range(table + head, span)?;
        self.set_entry(table, head, B_OBJ | (order & B_ORDER_MASK));
        for i in 1..span {
            self.set_entry(table, head + i, B_CONT);
        }
        persist::persist((table + head) as *const u8, span);

        let obj_base = heap + head * MIN_BLOCK;
        logger.log_range(obj_base, OBJ_HEADER_SIZE)?;
        let hdr = ObjHeader {
            type_id,
            size: size as u64,
        };
        // SAFETY: `obj_base` lies in the heap (head < n_blocks) and the span
        // is reserved above.
        unsafe { std::ptr::write_unaligned(obj_base as *mut ObjHeader, hdr) };
        persist::persist(obj_base as *const u8, OBJ_HEADER_SIZE);

        cache.scan_hint = head + span;
        Ok(obj_base + OBJ_HEADER_SIZE)
    }

    fn find_free_run(
        &self,
        table: usize,
        n_blocks: usize,
        span: usize,
        start: usize,
    ) -> Option<usize> {
        let mut i = start - (start % span);
        while i + span <= n_blocks {
            let mut all_free = true;
            for j in 0..span {
                if self.entry(table, i + j) != B_FREE {
                    all_free = false;
                    break;
                }
            }
            if all_free {
                return Some(i);
            }
            i += span;
        }
        None
    }

    fn block_dealloc(
        &self,
        table: usize,
        heap: usize,
        head: usize,
        entry: u8,
        addr: usize,
        logger: &mut dyn MetaLogger,
    ) -> Result<()> {
        let span = 1usize << (entry & B_ORDER_MASK);
        let expected = heap + head * MIN_BLOCK + OBJ_HEADER_SIZE;
        if addr != expected {
            return Err(Error::InvalidAddress(addr as u64));
        }
        logger.log_range(table + head, span)?;
        for i in 0..span {
            self.set_entry(table, head + i, B_FREE);
        }
        persist::persist((table + head) as *const u8, span);
        let mut cache = self.cache.lock();
        cache.scan_hint = cache.scan_hint.min(head);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Slab (< 256 B) allocations.
    // ------------------------------------------------------------------

    fn class_for(size: usize) -> usize {
        *SLAB_CLASSES
            .iter()
            .find(|&&c| size <= c)
            .expect("size fits the largest slab class")
    }

    fn slab_header(&self, heap: usize, head: usize) -> *mut SlabHeader {
        (heap + head * MIN_BLOCK) as *mut SlabHeader
    }

    fn ensure_slab_index(&self, cache: &mut VolatileCache) {
        if cache.slabs_indexed {
            return;
        }
        let (table, heap, n_blocks) = self.table();
        let mut i = 0;
        while i < n_blocks {
            let entry = self.entry(table, i);
            if entry & B_KIND_MASK == 0xC0 {
                // SAFETY: slab heads always have a valid header written at
                // creation time.
                let hdr = unsafe { std::ptr::read_unaligned(self.slab_header(heap, i)) };
                if hdr.allocated < hdr.slot_count {
                    cache
                        .slabs
                        .entry((hdr.type_id, hdr.slot_size as usize))
                        .or_default()
                        .push(i);
                }
                i += SLAB_CHUNK / MIN_BLOCK;
            } else if entry & B_KIND_MASK == 0x80 {
                i += 1usize << (entry & B_ORDER_MASK);
            } else {
                i += 1;
            }
        }
        cache.slabs_indexed = true;
    }

    fn slab_alloc(&self, size: usize, type_id: u64, logger: &mut dyn MetaLogger) -> Result<usize> {
        let class = Self::class_for(size);
        let (table, heap, n_blocks) = self.table();
        let mut cache = self.cache.lock();
        self.ensure_slab_index(&mut cache);

        // Try an existing chunk with a free slot.
        let key = (type_id, class);
        while let Some(head) = cache.slabs.get(&key).and_then(|v| v.last().copied()) {
            // SAFETY: indexed slab heads carry valid headers.
            let mut hdr = unsafe { std::ptr::read_unaligned(self.slab_header(heap, head)) };
            if hdr.allocated >= hdr.slot_count {
                cache.slabs.get_mut(&key).unwrap().pop();
                continue;
            }
            let slot = Self::first_clear_bit(&hdr.bitmap, hdr.slot_count as usize)
                .ok_or_else(|| Error::Corruption("slab bitmap inconsistent".into()))?;
            let slab_base = heap + head * MIN_BLOCK;
            logger.log_range(slab_base, SLAB_HEADER_SIZE)?;
            hdr.bitmap[slot / 64] |= 1u64 << (slot % 64);
            hdr.allocated += 1;
            // SAFETY: slab base is inside the heap.
            unsafe { std::ptr::write_unaligned(self.slab_header(heap, head), hdr) };
            persist::persist(slab_base as *const u8, SLAB_HEADER_SIZE);
            if hdr.allocated >= hdr.slot_count {
                cache.slabs.get_mut(&key).unwrap().pop();
            }
            return Ok(slab_base + SLAB_HEADER_SIZE + slot * class);
        }

        // Carve a new chunk out of the block allocator.
        let span = SLAB_CHUNK / MIN_BLOCK;
        let start_hint = cache.scan_hint - (cache.scan_hint % span);
        let head = self
            .find_free_run(table, n_blocks, span, start_hint)
            .or_else(|| self.find_free_run(table, n_blocks, span, 0))
            .ok_or_else(|| Error::OutOfMemory("no room for a new slab chunk".into()))?;
        logger.log_range(table + head, span)?;
        self.set_entry(
            table,
            head,
            B_SLAB | (span.trailing_zeros() as u8 & B_ORDER_MASK),
        );
        for i in 1..span {
            self.set_entry(table, head + i, B_CONT);
        }
        persist::persist((table + head) as *const u8, span);

        let slab_base = heap + head * MIN_BLOCK;
        let slot_count = ((SLAB_CHUNK - SLAB_HEADER_SIZE) / class).min(128) as u32;
        logger.log_range(slab_base, SLAB_HEADER_SIZE)?;
        let hdr = SlabHeader {
            slot_size: class as u32,
            slot_count,
            type_id,
            bitmap: [1, 0], // slot 0 handed out below
            allocated: 1,
            _pad: 0,
        };
        // SAFETY: slab base is inside the heap; the chunk was reserved above.
        unsafe { std::ptr::write_unaligned(self.slab_header(heap, head), hdr) };
        persist::persist(slab_base as *const u8, SLAB_HEADER_SIZE);

        cache.scan_hint = head + span;
        cache.slabs.entry(key).or_default().push(head);
        Ok(slab_base + SLAB_HEADER_SIZE)
    }

    fn first_clear_bit(bitmap: &[u64; 2], limit: usize) -> Option<usize> {
        (0..limit).find(|&slot| bitmap[slot / 64] & (1u64 << (slot % 64)) == 0)
    }

    fn slab_dealloc(
        &self,
        table: usize,
        heap: usize,
        head: usize,
        addr: usize,
        logger: &mut dyn MetaLogger,
    ) -> Result<()> {
        let slab_base = heap + head * MIN_BLOCK;
        // SAFETY: slab heads carry valid headers.
        let mut hdr = unsafe { std::ptr::read_unaligned(self.slab_header(heap, head)) };
        let class = hdr.slot_size as usize;
        let slots_start = slab_base + SLAB_HEADER_SIZE;
        if addr < slots_start || !(addr - slots_start).is_multiple_of(class) {
            return Err(Error::InvalidAddress(addr as u64));
        }
        let slot = (addr - slots_start) / class;
        if slot >= hdr.slot_count as usize || hdr.bitmap[slot / 64] & (1u64 << (slot % 64)) == 0 {
            return Err(Error::InvalidAddress(addr as u64));
        }
        logger.log_range(slab_base, SLAB_HEADER_SIZE)?;
        hdr.bitmap[slot / 64] &= !(1u64 << (slot % 64));
        hdr.allocated -= 1;
        // SAFETY: as above.
        unsafe { std::ptr::write_unaligned(self.slab_header(heap, head), hdr) };
        persist::persist(slab_base as *const u8, SLAB_HEADER_SIZE);

        let mut cache = self.cache.lock();
        if hdr.allocated == 0 {
            // Return the empty chunk to the block allocator.
            let span = SLAB_CHUNK / MIN_BLOCK;
            logger.log_range(table + head, span)?;
            for i in 0..span {
                self.set_entry(table, head + i, B_FREE);
            }
            persist::persist((table + head) as *const u8, span);
            if let Some(list) = cache.slabs.get_mut(&(hdr.type_id, class)) {
                list.retain(|&h| h != head);
            }
            cache.scan_hint = cache.scan_hint.min(head);
        } else if hdr.allocated + 1 == hdr.slot_count {
            // The chunk just transitioned from full to having a free slot.
            if cache.slabs_indexed {
                cache
                    .slabs
                    .entry((hdr.type_id, class))
                    .or_default()
                    .push(head);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Object discovery.
    // ------------------------------------------------------------------

    /// Enumerates every live object in the puddle with its type id, which is
    /// how the relocation machinery finds pointers to rewrite.
    pub fn walk(&self) -> Vec<ObjRef> {
        let (table, heap, n_blocks) = self.table();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n_blocks {
            let entry = self.entry(table, i);
            match entry & B_KIND_MASK {
                0x80 => {
                    let span = 1usize << (entry & B_ORDER_MASK);
                    let obj_base = heap + i * MIN_BLOCK;
                    // SAFETY: allocation heads always have a header.
                    let hdr = unsafe { std::ptr::read_unaligned(obj_base as *const ObjHeader) };
                    out.push(ObjRef {
                        addr: obj_base + OBJ_HEADER_SIZE,
                        type_id: hdr.type_id,
                        size: hdr.size as usize,
                    });
                    i += span;
                }
                0xC0 => {
                    let slab_base = heap + i * MIN_BLOCK;
                    // SAFETY: slab heads always have a header.
                    let hdr = unsafe { std::ptr::read_unaligned(slab_base as *const SlabHeader) };
                    for slot in 0..hdr.slot_count as usize {
                        if hdr.bitmap[slot / 64] & (1u64 << (slot % 64)) != 0 {
                            out.push(ObjRef {
                                addr: slab_base + SLAB_HEADER_SIZE + slot * hdr.slot_size as usize,
                                type_id: hdr.type_id,
                                size: hdr.slot_size as usize,
                            });
                        }
                    }
                    i += SLAB_CHUNK / MIN_BLOCK;
                }
                _ => i += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestHeap {
        #[allow(dead_code)]
        buf: Vec<u8>,
        alloc: PuddleAlloc,
    }

    fn heap(size: usize) -> TestHeap {
        let mut buf = vec![0u8; size];
        // SAFETY: the Vec outlives the allocator inside TestHeap and is not
        // moved (Vec's heap buffer is stable).
        let alloc = unsafe { PuddleAlloc::new(buf.as_mut_ptr() as usize, size) };
        alloc.init();
        TestHeap { buf, alloc }
    }

    #[test]
    fn init_reports_reasonable_capacity() {
        let h = heap(1 << 20);
        assert!(h.alloc.is_initialized());
        let cap = h.alloc.capacity();
        assert!(cap > (1 << 20) * 9 / 10, "capacity {cap} too small");
        assert_eq!(h.alloc.free_bytes(), cap);
    }

    #[test]
    fn large_allocations_are_disjoint_and_typed() {
        let h = heap(1 << 20);
        let a = h.alloc.alloc(1000, 7, &mut NoLog).unwrap();
        let b = h.alloc.alloc(5000, 8, &mut NoLog).unwrap();
        assert!(a.abs_diff(b) >= 1000);
        assert!(h.alloc.contains(a) && h.alloc.contains(b));

        let objs = h.alloc.walk();
        assert_eq!(objs.len(), 2);
        let ta: Vec<u64> = objs.iter().map(|o| o.type_id).collect();
        assert!(ta.contains(&7) && ta.contains(&8));
        let sizes: Vec<usize> = objs.iter().map(|o| o.size).collect();
        assert!(sizes.contains(&1000) && sizes.contains(&5000));
    }

    #[test]
    fn small_allocations_share_slab_chunks_per_type() {
        let h = heap(1 << 20);
        let mut addrs = Vec::new();
        for _ in 0..10 {
            addrs.push(h.alloc.alloc(24, 42, &mut NoLog).unwrap());
        }
        // All ten 24-byte objects of the same type should fit in one 4 KiB
        // chunk (class 32).
        let min = *addrs.iter().min().unwrap();
        let max = *addrs.iter().max().unwrap();
        assert!(max - min < SLAB_CHUNK);
        // A different type gets a different chunk.
        let other = h.alloc.alloc(24, 43, &mut NoLog).unwrap();
        assert!(other.abs_diff(min) >= SLAB_CHUNK - SLAB_HEADER_SIZE);
        assert_eq!(h.alloc.walk().len(), 11);
    }

    #[test]
    fn dealloc_releases_blocks_for_reuse() {
        let h = heap(1 << 20);
        let before = h.alloc.free_bytes();
        let a = h.alloc.alloc(10_000, 1, &mut NoLog).unwrap();
        assert!(h.alloc.free_bytes() < before);
        h.alloc.dealloc(a, &mut NoLog).unwrap();
        assert_eq!(h.alloc.free_bytes(), before);
        assert!(h.alloc.walk().is_empty());
        // The same space is handed out again.
        let b = h.alloc.alloc(10_000, 1, &mut NoLog).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn slab_slots_are_reused_and_chunks_reclaimed() {
        let h = heap(1 << 20);
        let before = h.alloc.free_bytes();
        let a = h.alloc.alloc(16, 5, &mut NoLog).unwrap();
        let b = h.alloc.alloc(16, 5, &mut NoLog).unwrap();
        h.alloc.dealloc(a, &mut NoLog).unwrap();
        let c = h.alloc.alloc(16, 5, &mut NoLog).unwrap();
        assert_eq!(a, c);
        h.alloc.dealloc(b, &mut NoLog).unwrap();
        h.alloc.dealloc(c, &mut NoLog).unwrap();
        // Chunk fully empty ⇒ returned to the block allocator.
        assert_eq!(h.alloc.free_bytes(), before);
    }

    #[test]
    fn invalid_frees_are_rejected() {
        let h = heap(1 << 20);
        let a = h.alloc.alloc(1000, 1, &mut NoLog).unwrap();
        assert!(h.alloc.dealloc(a + 8, &mut NoLog).is_err());
        assert!(h.alloc.dealloc(a - 100_000, &mut NoLog).is_err());
        h.alloc.dealloc(a, &mut NoLog).unwrap();
        let s = h.alloc.alloc(16, 2, &mut NoLog).unwrap();
        assert!(h.alloc.dealloc(s + 1, &mut NoLog).is_err());
        assert!(h.alloc.dealloc(s + 32, &mut NoLog).is_err());
    }

    #[test]
    fn allocation_fails_cleanly_when_full() {
        let h = heap(64 * 1024);
        let mut count = 0;
        loop {
            match h.alloc.alloc(4000, 1, &mut NoLog) {
                Ok(_) => count += 1,
                Err(Error::OutOfMemory(_)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(count >= 10, "only {count} allocations fit");
        // Small allocations may still fit or fail cleanly, but never panic.
        let _ = h.alloc.alloc(16, 1, &mut NoLog);
    }

    #[test]
    fn walk_reports_slab_and_block_objects_with_addresses() {
        let h = heap(1 << 20);
        let small = h.alloc.alloc(64, 100, &mut NoLog).unwrap();
        let large = h.alloc.alloc(4096, 200, &mut NoLog).unwrap();
        let objs = h.alloc.walk();
        assert_eq!(objs.len(), 2);
        assert!(objs.iter().any(|o| o.addr == small && o.type_id == 100));
        assert!(objs.iter().any(|o| o.addr == large && o.type_id == 200));
    }

    #[test]
    fn metadata_logger_sees_every_metadata_range() {
        #[derive(Default)]
        struct Recorder(Vec<(usize, usize)>);
        impl MetaLogger for Recorder {
            fn log_range(&mut self, addr: usize, len: usize) -> Result<()> {
                self.0.push((addr, len));
                Ok(())
            }
        }
        let h = heap(1 << 20);
        let mut rec = Recorder::default();
        let a = h.alloc.alloc(1000, 1, &mut rec).unwrap();
        assert!(!rec.0.is_empty());
        let logged_before_alloc = rec.0.len();
        h.alloc.dealloc(a, &mut rec).unwrap();
        assert!(rec.0.len() > logged_before_alloc);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random alloc/free interleavings never hand out overlapping
            /// memory and always free cleanly.
            #[test]
            fn allocations_never_overlap(ops in proptest::collection::vec((1usize..6000, 0u8..4), 1..80)) {
                let h = heap(1 << 20);
                let mut live: Vec<(usize, usize)> = Vec::new();
                for (size, action) in ops {
                    if action == 0 && !live.is_empty() {
                        let (addr, _) = live.swap_remove(size % live.len());
                        h.alloc.dealloc(addr, &mut NoLog).unwrap();
                    } else if let Ok(addr) = h.alloc.alloc(size, 1 + (size as u64 % 3), &mut NoLog) {
                        for &(other, osize) in &live {
                            let no_overlap = addr + size <= other || other + osize <= addr;
                            prop_assert!(no_overlap, "{addr:#x}+{size} overlaps {other:#x}+{osize}");
                        }
                        live.push((addr, size));
                    }
                }
                // The walk agrees with what is live (same count).
                prop_assert_eq!(h.alloc.walk().len(), live.len());
                for (addr, _) in live {
                    h.alloc.dealloc(addr, &mut NoLog).unwrap();
                }
                prop_assert!(h.alloc.walk().is_empty());
            }

            /// Free bytes return to the original value after freeing all.
            #[test]
            fn free_all_restores_capacity(sizes in proptest::collection::vec(1usize..8192, 1..40)) {
                let h = heap(1 << 20);
                let before = h.alloc.free_bytes();
                let mut addrs = Vec::new();
                for size in sizes {
                    if let Ok(a) = h.alloc.alloc(size, 9, &mut NoLog) {
                        addrs.push(a);
                    }
                }
                for a in addrs {
                    h.alloc.dealloc(a, &mut NoLog).unwrap();
                }
                prop_assert_eq!(h.alloc.free_bytes(), before);
            }
        }
    }
}
