//! The Romulus-style twin-replica pool.

use parking_lot::Mutex;
use puddles_pmem::persist;
use puddles_pmem::space::VaReservation;
use puddles_pmem::util::align_up;
use std::fmt;
use std::fs::OpenOptions;
use std::path::Path;

/// Result alias for romulus-sim operations.
pub type Result<T> = std::result::Result<T, RomulusError>;

/// Errors produced by the Romulus baseline.
#[derive(Debug)]
pub enum RomulusError {
    /// Underlying I/O or mmap failure.
    Io(String),
    /// The file is not a valid romulus-sim pool.
    BadPool(String),
    /// The pool's main replica is out of space.
    OutOfSpace,
    /// A transaction was aborted by its body.
    Aborted(String),
}

impl fmt::Display for RomulusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RomulusError::Io(m) => write!(f, "I/O error: {m}"),
            RomulusError::BadPool(m) => write!(f, "invalid pool: {m}"),
            RomulusError::OutOfSpace => write!(f, "pool out of space"),
            RomulusError::Aborted(m) => write!(f, "transaction aborted: {m}"),
        }
    }
}

impl std::error::Error for RomulusError {}

const MAGIC: u64 = 0x524f_4d55_4c53_4932; // "ROMULSI2"
const HEADER_SIZE: usize = 4096;
const ALLOC_ALIGN: usize = 64;
/// Block sizes that can have a free list at once.
const FREE_LISTS: usize = 32;

/// Persistent commit-state flag.
const STATE_IDLE: u64 = 0;
const STATE_COPYING: u64 = 1;

#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct PoolHeader {
    magic: u64,
    size: u64,
    region_size: u64,
    state: u64,
}

/// The heap's own state. It heads the main region, so a transaction's
/// commit, abort and recovery cover it like any other range it stores to.
#[derive(Clone, Copy)]
#[repr(C)]
struct Meta {
    /// Offset of the root object, 0 if none.
    root_off: u64,
    /// End of the bump-allocated part of the region.
    bump: u64,
    /// Exact-size free lists: `(block size, first free block)`. A free
    /// block's first word is the offset of the next one (0 ends the list);
    /// a slot whose list is empty may be taken by another size.
    free: [(u64, u64); FREE_LISTS],
}

/// Offset of the first allocation: offset 0, the metadata, is never one,
/// so 0 serves as the null offset.
const HEAP_START: u64 = align_up(std::mem::size_of::<Meta>(), ALLOC_ALIGN) as u64;

/// A Romulus-style pool with main and back replicas.
pub struct RomulusPool {
    base: usize,
    size: usize,
    region_size: usize,
    tx_lock: Mutex<()>,
}

impl fmt::Debug for RomulusPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RomulusPool")
            .field("size", &self.size)
            .field("region_size", &self.region_size)
            .finish()
    }
}

impl RomulusPool {
    /// Creates a pool whose *main* replica holds `region_size` usable bytes.
    pub fn create(path: impl AsRef<Path>, region_size: usize) -> Result<RomulusPool> {
        let region_size = align_up(region_size.max(64 * 1024), 4096);
        let size = HEADER_SIZE + 2 * region_size;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path.as_ref())
            .map_err(|e| RomulusError::Io(e.to_string()))?;
        file.set_len(size as u64)
            .map_err(|e| RomulusError::Io(e.to_string()))?;
        let base = VaReservation::map_file_anywhere(&file, size, true)
            .map_err(|e| RomulusError::Io(e.to_string()))?;
        let header = PoolHeader {
            magic: MAGIC,
            size: size as u64,
            region_size: region_size as u64,
            state: STATE_IDLE,
        };
        let meta = Meta {
            root_off: 0,
            bump: HEAP_START,
            free: [(0, 0); FREE_LISTS],
        };
        // SAFETY: fresh writable mapping of the header and both replicas,
        // each of which starts with room for a `Meta`.
        unsafe {
            std::ptr::write_unaligned(base as *mut PoolHeader, header);
            for replica in [base + HEADER_SIZE, base + HEADER_SIZE + region_size] {
                std::ptr::write(replica as *mut Meta, meta);
                persist::flush(replica as *const u8, std::mem::size_of::<Meta>());
            }
        }
        persist::persist(base as *const u8, HEADER_SIZE);
        Ok(RomulusPool {
            base,
            size,
            region_size,
            tx_lock: Mutex::new(()),
        })
    }

    /// Opens an existing pool, reconciling the replicas if a crash left them
    /// out of sync.
    pub fn open(path: impl AsRef<Path>) -> Result<RomulusPool> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())
            .map_err(|e| RomulusError::Io(e.to_string()))?;
        let size = file
            .metadata()
            .map_err(|e| RomulusError::Io(e.to_string()))?
            .len() as usize;
        let base = VaReservation::map_file_anywhere(&file, size, true)
            .map_err(|e| RomulusError::Io(e.to_string()))?;
        // SAFETY: mapping of at least HEADER_SIZE bytes.
        let header = unsafe { std::ptr::read_unaligned(base as *const PoolHeader) };
        if header.magic != MAGIC || size != header.size as usize {
            // SAFETY: mapping not published.
            unsafe { VaReservation::unmap_anywhere(base, size).ok() };
            return Err(RomulusError::BadPool("bad magic or size".into()));
        }
        let pool = RomulusPool {
            base,
            size,
            region_size: header.region_size as usize,
            tx_lock: Mutex::new(()),
        };
        pool.recover();
        Ok(pool)
    }

    fn header(&self) -> PoolHeader {
        // SAFETY: mapping lives as long as `self`.
        unsafe { std::ptr::read_unaligned(self.base as *const PoolHeader) }
    }

    fn write_header(&self, header: PoolHeader) {
        // SAFETY: as above.
        unsafe { std::ptr::write_unaligned(self.base as *mut PoolHeader, header) };
        persist::persist(self.base as *const u8, std::mem::size_of::<PoolHeader>());
    }

    fn main_base(&self) -> usize {
        self.base + HEADER_SIZE
    }

    fn back_base(&self) -> usize {
        self.base + HEADER_SIZE + self.region_size
    }

    /// Recovery: if a crash happened while copying main→back, main is
    /// consistent (the transaction had committed) — finish the copy. If the
    /// state is idle, back is authoritative for any torn main updates, so
    /// restore main from back.
    fn recover(&self) {
        let mut header = self.header();
        if header.state == STATE_COPYING {
            // Main is the committed image; resynchronize back from it.
            // SAFETY: both replicas lie inside the mapping.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.main_base() as *const u8,
                    self.back_base() as *mut u8,
                    self.region_size,
                );
            }
            persist::flush(self.back_base() as *const u8, self.region_size);
            persist::sfence();
            header.state = STATE_IDLE;
            self.write_header(header);
        } else {
            // Any un-committed main updates are discarded by restoring main
            // from back.
            // SAFETY: as above.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.back_base() as *const u8,
                    self.main_base() as *mut u8,
                    self.region_size,
                );
            }
            persist::flush(self.main_base() as *const u8, self.region_size);
            persist::sfence();
        }
    }

    /// Translates a main-region offset to a native pointer.
    #[inline]
    pub fn at<T>(&self, off: u64) -> *mut T {
        (self.main_base() + off as usize) as *mut T
    }

    fn meta(&self) -> *mut Meta {
        self.at(0)
    }

    /// Reads the root offset (0 if unset).
    pub fn root_off(&self) -> u64 {
        // SAFETY: the metadata heads the main region.
        unsafe { (*self.meta()).root_off }
    }

    /// Returns the number of bytes of the main replica ever allocated (freed
    /// blocks included: they wait on a free list).
    pub fn used_bytes(&self) -> usize {
        // SAFETY: as in `root_off`.
        unsafe { (*self.meta()).bump as usize }
    }

    /// Runs a failure-atomic transaction.
    pub fn tx<R>(&self, body: impl FnOnce(&mut RomulusTx<'_>) -> Result<R>) -> Result<R> {
        let _guard = self.tx_lock.lock();
        let mut tx = RomulusTx {
            pool: self,
            dirty: Vec::new(),
        };
        match body(&mut tx) {
            Ok(value) => {
                tx.commit();
                Ok(value)
            }
            Err(e) => {
                tx.abort();
                Err(e)
            }
        }
    }
}

impl Drop for RomulusPool {
    fn drop(&mut self) {
        // SAFETY: the pool owns the mapping and is being dropped; callers
        // must not retain pointers produced by `at` beyond the pool.
        unsafe {
            let _ = VaReservation::unmap_anywhere(self.base, self.size);
        }
    }
}

/// An open Romulus-style transaction: writes go to main in place, the
/// modified ranges are tracked in DRAM, and commit copies them to back.
pub struct RomulusTx<'p> {
    pool: &'p RomulusPool,
    /// Modified (offset, len) ranges in the main replica (the volatile log).
    dirty: Vec<(u64, u64)>,
}

impl<'p> RomulusTx<'p> {
    /// Allocates `size` bytes in the main replica, returning its offset:
    /// the head of the free list of that (aligned) size, else fresh space.
    pub fn alloc(&mut self, size: usize) -> Result<u64> {
        let need = align_up(size.max(1), ALLOC_ALIGN) as u64;
        // SAFETY: the metadata heads the main region; nothing else borrows
        // it while the transaction lock is held.
        let meta = unsafe { &mut *self.pool.meta() };
        if let Some(list) = meta.free.iter_mut().find(|l| l.0 == need && l.1 != 0) {
            let off = list.1;
            self.add(&list.1);
            list.1 = self.load(off);
            return Ok(off);
        }
        if meta.bump + need > self.pool.region_size as u64 {
            return Err(RomulusError::OutOfSpace);
        }
        let off = meta.bump;
        self.add(&meta.bump);
        meta.bump += need;
        Ok(off)
    }

    /// Frees the `size`-byte block at `off` onto the free list of its size.
    /// Fails with [`RomulusError::OutOfSpace`] if every one of the
    /// metadata's free lists already holds blocks of other sizes.
    pub fn free(&mut self, off: u64, size: usize) -> Result<()> {
        let need = align_up(size.max(1), ALLOC_ALIGN) as u64;
        // SAFETY: as in `alloc`.
        let meta = unsafe { &mut *self.pool.meta() };
        let slot = meta
            .free
            .iter()
            .position(|l| l.0 == need)
            .or_else(|| meta.free.iter().position(|l| l.1 == 0))
            .ok_or(RomulusError::OutOfSpace)?;
        let list = &mut meta.free[slot];
        self.store(off, list.1);
        self.add(&*list);
        *list = (need, off);
        Ok(())
    }

    /// Records that `*target`, which must lie in the main replica, is about
    /// to be stored to in place: commit persists it and copies it to back,
    /// abort restores it from back.
    pub fn add<T: ?Sized>(&mut self, target: &T) {
        let len = std::mem::size_of_val(target);
        // Commit and abort copy the range between the replicas: one outside
        // the main replica would reach past them.
        let off = (target as *const T as *const u8 as usize)
            .checked_sub(self.pool.main_base())
            .filter(|off| off + len <= self.pool.region_size)
            .expect("RomulusTx::add: target lies outside the main replica");
        self.dirty.push((off as u64, len as u64));
    }

    /// Records a store of `value` at main-region offset `off`.
    pub fn store<T: Copy>(&mut self, off: u64, value: T) {
        // SAFETY: `off` was produced by `alloc` within the main region; the
        // caller is responsible for type agreement, as with raw PM stores.
        unsafe { std::ptr::write_unaligned(self.pool.at::<T>(off), value) };
        self.dirty.push((off, std::mem::size_of::<T>() as u64));
    }

    /// Reads a value from main-region offset `off`.
    pub fn load<T: Copy>(&self, off: u64) -> T {
        // SAFETY: as in `store`.
        unsafe { std::ptr::read_unaligned(self.pool.at::<T>(off)) }
    }

    /// Sets the pool root offset.
    pub fn set_root(&mut self, off: u64) {
        // SAFETY: as in `alloc`.
        let meta = unsafe { &mut *self.pool.meta() };
        self.add(&meta.root_off);
        meta.root_off = off;
    }

    fn commit(&mut self) {
        let pool = self.pool;
        // Phase 1: persist main.
        for &(off, len) in &self.dirty {
            persist::flush(pool.at::<u8>(off) as *const u8, len as usize);
        }
        persist::sfence();
        // Phase 2: mark copying, then apply the volatile log to back.
        let mut header = pool.header();
        header.state = STATE_COPYING;
        pool.write_header(header);
        for &(off, len) in &self.dirty {
            // SAFETY: both ranges lie inside the mapped replicas.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    pool.at::<u8>(off) as *const u8,
                    (pool.back_base() + off as usize) as *mut u8,
                    len as usize,
                );
            }
            persist::flush((pool.back_base() + off as usize) as *const u8, len as usize);
        }
        persist::sfence();
        let mut header = pool.header();
        header.state = STATE_IDLE;
        pool.write_header(header);
    }

    fn abort(&mut self) {
        // Discard main updates, the metadata's among them, by restoring the
        // touched ranges from back.
        let pool = self.pool;
        for &(off, len) in &self.dirty {
            // SAFETY: both ranges lie inside the mapped replicas.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    (pool.back_base() + off as usize) as *const u8,
                    pool.at::<u8>(off),
                    len as usize,
                );
            }
        }
        persist::sfence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_store_commit_reopen() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("r.pool");
        {
            let pool = RomulusPool::create(&path, 1 << 20).unwrap();
            pool.tx(|tx| {
                let off = tx.alloc(16)?;
                tx.store(off, 0xabcdu64);
                tx.store(off + 8, 99u64);
                tx.set_root(off);
                Ok(())
            })
            .unwrap();
        }
        let pool = RomulusPool::open(&path).unwrap();
        let root = pool.root_off();
        assert_ne!(root, 0);
        // SAFETY: root points at a committed 16-byte allocation.
        unsafe {
            assert_eq!(std::ptr::read_unaligned(pool.at::<u64>(root)), 0xabcd);
            assert_eq!(std::ptr::read_unaligned(pool.at::<u64>(root + 8)), 99);
        }
    }

    #[test]
    fn uncommitted_main_updates_are_discarded_on_reopen() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("crash.pool");
        let off;
        {
            let pool = RomulusPool::create(&path, 1 << 20).unwrap();
            off = pool
                .tx(|tx| {
                    let off = tx.alloc(8)?;
                    tx.store(off, 1u64);
                    tx.set_root(off);
                    Ok(off)
                })
                .unwrap();
            // Simulate a crash mid-transaction: write main directly without
            // going through commit.
            // SAFETY: `off` is a live allocation in the main region.
            unsafe { std::ptr::write_unaligned(pool.at::<u64>(off), 777u64) };
            persist::persist(pool.at::<u8>(off) as *const u8, 8);
        }
        let pool = RomulusPool::open(&path).unwrap();
        // SAFETY: as above.
        assert_eq!(unsafe { std::ptr::read_unaligned(pool.at::<u64>(off)) }, 1);
    }

    #[test]
    fn aborted_transactions_restore_main_from_back() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("abort.pool");
        let pool = RomulusPool::create(&path, 1 << 20).unwrap();
        let off = pool
            .tx(|tx| {
                let off = tx.alloc(8)?;
                tx.store(off, 5u64);
                tx.set_root(off);
                Ok(off)
            })
            .unwrap();
        let err = pool
            .tx(|tx| {
                tx.store(off, 6u64);
                Err::<(), _>(RomulusError::Aborted("no".into()))
            })
            .unwrap_err();
        assert!(matches!(err, RomulusError::Aborted(_)));
        // SAFETY: `off` is a live allocation.
        assert_eq!(unsafe { std::ptr::read_unaligned(pool.at::<u64>(off)) }, 5);
    }

    #[test]
    fn out_of_space_is_reported() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("full.pool");
        let pool = RomulusPool::create(&path, 64 * 1024).unwrap();
        let err = pool
            .tx(|tx| {
                loop {
                    tx.alloc(4096)?;
                }
                #[allow(unreachable_code)]
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, RomulusError::OutOfSpace));
    }

    #[test]
    fn an_aborted_transaction_keeps_neither_its_root_nor_its_allocation() {
        let tmp = tempfile::tempdir().unwrap();
        let pool = RomulusPool::create(tmp.path().join("abort.pool"), 64 * 1024).unwrap();
        let (root, used) = (pool.root_off(), pool.used_bytes());
        let err = pool
            .tx(|tx| {
                let off = tx.alloc(64)?;
                tx.set_root(off);
                Err::<(), _>(RomulusError::Aborted("no".into()))
            })
            .unwrap_err();
        assert!(matches!(err, RomulusError::Aborted(_)));
        assert_eq!(pool.root_off(), root);
        assert_eq!(pool.used_bytes(), used);
    }

    #[test]
    fn a_crash_mid_transaction_keeps_neither_its_root_nor_its_allocation() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("crash.pool");
        let (root, used);
        {
            let pool = RomulusPool::create(&path, 64 * 1024).unwrap();
            (root, used) = (pool.root_off(), pool.used_bytes());
            // The body dies after its stores: neither commit nor abort runs.
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.tx(|tx| {
                    let off = tx.alloc(64)?;
                    tx.set_root(off);
                    panic!("crash mid-transaction");
                    #[allow(unreachable_code)]
                    Ok(())
                })
            }));
            assert!(crashed.is_err());
        }
        let pool = RomulusPool::open(&path).unwrap();
        assert_eq!(pool.root_off(), root);
        assert_eq!(pool.used_bytes(), used);
    }

    #[test]
    fn freed_blocks_are_reused_by_allocations_of_their_size() {
        let tmp = tempfile::tempdir().unwrap();
        let pool = RomulusPool::create(tmp.path().join("free.pool"), 64 * 1024).unwrap();
        let a = pool.tx(|tx| tx.alloc(16)).unwrap();
        let used = pool.used_bytes();
        pool.tx(|tx| tx.free(a, 16)).unwrap();
        // Another size does not take the block; its own size does.
        let b = pool.tx(|tx| tx.alloc(128)).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.tx(|tx| tx.alloc(64)).unwrap(), a);
        assert_eq!(pool.used_bytes(), used + 128);
        // An aborted free leaves the block allocated.
        let err = pool.tx(|tx| {
            tx.free(a, 64)?;
            Err::<(), _>(RomulusError::Aborted("no".into()))
        });
        assert!(err.is_err());
        assert_ne!(pool.tx(|tx| tx.alloc(64)).unwrap(), a);
    }
}
