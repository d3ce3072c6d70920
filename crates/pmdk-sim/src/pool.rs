//! PMDK-style pools: one mmapped file per pool, a UUID registered on open,
//! a root object, and a bump + free-list allocator.

use crate::oid::{pool_table, PmdkOid, Toid};
use crate::tx::{PmdkTx, LOG_REGION_SIZE};
use parking_lot::Mutex;
use puddles_pmem::persist;
use puddles_pmem::space::VaReservation;
use puddles_pmem::util::align_up;
use std::collections::HashSet;
use std::fmt;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::OnceLock;

/// Result alias for pmdk-sim operations.
pub type Result<T> = std::result::Result<T, PmdkError>;

/// Errors produced by the PMDK baseline.
#[derive(Debug)]
pub enum PmdkError {
    /// Underlying I/O or mmap failure.
    Io(String),
    /// The pool file is not a valid pmdk-sim pool.
    BadPool(String),
    /// The pool (same UUID) is already open in this process — PMDK refuses
    /// to open a pool or its clone twice (§2.3).
    AlreadyOpen,
    /// The pool is out of space.
    OutOfSpace,
    /// A transaction was aborted.
    Aborted(String),
}

impl fmt::Display for PmdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmdkError::Io(m) => write!(f, "I/O error: {m}"),
            PmdkError::BadPool(m) => write!(f, "invalid pool: {m}"),
            PmdkError::AlreadyOpen => write!(f, "a pool with this UUID is already open"),
            PmdkError::OutOfSpace => write!(f, "pool out of space"),
            PmdkError::Aborted(m) => write!(f, "transaction aborted: {m}"),
        }
    }
}

impl std::error::Error for PmdkError {}

const POOL_MAGIC: u64 = 0x504d_444b_5349_4d31; // "PMDKSIM1"
const HEADER_SIZE: usize = 4096;
const ALLOC_ALIGN: usize = 64;

/// On-PM pool header.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct PoolHeader {
    magic: u64,
    uuid: u64,
    size: u64,
    root_off: u64,
    heap_start: u64,
    heap_bump: u64,
    free_list: u64,
}

/// Header preceding every allocation (and every free-list node).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct ChunkHeader {
    size: u64,
    next_free: u64,
}

const CHUNK_HEADER_SIZE: usize = std::mem::size_of::<ChunkHeader>();

fn open_uuids() -> &'static Mutex<HashSet<u64>> {
    static SET: OnceLock<Mutex<HashSet<u64>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

/// A PMDK-style persistent memory pool.
pub struct PmdkPool {
    base: usize,
    size: usize,
    uuid: u64,
    pub(crate) tx_lock: Mutex<()>,
}

impl fmt::Debug for PmdkPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmdkPool")
            .field("uuid", &format_args!("{:#x}", self.uuid))
            .field("size", &self.size)
            .finish()
    }
}

impl PmdkPool {
    /// Creates a new pool file of `size` bytes at `path`.
    pub fn create(path: impl AsRef<Path>, size: usize) -> Result<PmdkPool> {
        let size = align_up(size.max(HEADER_SIZE + LOG_REGION_SIZE + 64 * 1024), 4096);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path.as_ref())
            .map_err(|e| PmdkError::Io(e.to_string()))?;
        file.set_len(size as u64)
            .map_err(|e| PmdkError::Io(e.to_string()))?;
        let base = VaReservation::map_file_anywhere(&file, size, true)
            .map_err(|e| PmdkError::Io(e.to_string()))?;
        let uuid: u64 = rand::random::<u64>() | 1;
        let header = PoolHeader {
            magic: POOL_MAGIC,
            uuid,
            size: size as u64,
            root_off: 0,
            heap_start: (HEADER_SIZE + LOG_REGION_SIZE) as u64,
            heap_bump: (HEADER_SIZE + LOG_REGION_SIZE) as u64,
            free_list: 0,
        };
        // SAFETY: `base` is a fresh writable mapping of at least HEADER_SIZE.
        unsafe { std::ptr::write_unaligned(base as *mut PoolHeader, header) };
        persist::persist(base as *const u8, HEADER_SIZE);
        crate::tx::init_log(base);
        Self::register(base, size, uuid)
    }

    /// Opens an existing pool, running (application-dependent) recovery if
    /// an interrupted transaction is found.
    ///
    /// Fails with [`PmdkError::AlreadyOpen`] if a pool with the same UUID is
    /// already open in this process — this is the restriction that prevents
    /// PMDK applications from opening a pool and its clone simultaneously.
    pub fn open(path: impl AsRef<Path>) -> Result<PmdkPool> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())
            .map_err(|e| PmdkError::Io(e.to_string()))?;
        let size = file
            .metadata()
            .map_err(|e| PmdkError::Io(e.to_string()))?
            .len() as usize;
        let base = VaReservation::map_file_anywhere(&file, size, true)
            .map_err(|e| PmdkError::Io(e.to_string()))?;
        // SAFETY: mapping of at least HEADER_SIZE bytes (checked below).
        let header = unsafe { std::ptr::read_unaligned(base as *const PoolHeader) };
        if size < HEADER_SIZE + LOG_REGION_SIZE || header.magic != POOL_MAGIC {
            // SAFETY: mapping not published anywhere yet.
            unsafe { VaReservation::unmap_anywhere(base, size).ok() };
            return Err(PmdkError::BadPool("bad magic".into()));
        }
        let pool = Self::register(base, size, header.uuid)?;
        // PMDK-style recovery: happens only now, inside the application that
        // reopened the pool.
        crate::tx::recover(&pool);
        Ok(pool)
    }

    fn register(base: usize, size: usize, uuid: u64) -> Result<PmdkPool> {
        {
            let mut open = open_uuids().lock();
            if !open.insert(uuid) {
                // SAFETY: mapping not published.
                unsafe { VaReservation::unmap_anywhere(base, size).ok() };
                return Err(PmdkError::AlreadyOpen);
            }
        }
        pool_table().write().insert(uuid, base);
        Ok(PmdkPool {
            base,
            size,
            uuid,
            tx_lock: Mutex::new(()),
        })
    }

    /// The pool's mapped base address (crate-internal).
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    fn header(&self) -> PoolHeader {
        // SAFETY: the pool mapping is live for `self`'s lifetime.
        unsafe { std::ptr::read_unaligned(self.base as *const PoolHeader) }
    }

    fn write_header(&self, header: PoolHeader) {
        // SAFETY: as in `header`.
        unsafe { std::ptr::write_unaligned(self.base as *mut PoolHeader, header) };
        persist::persist(self.base as *const u8, std::mem::size_of::<PoolHeader>());
    }

    /// Translates a fat pointer belonging to this pool without the global
    /// table lookup (used internally).
    pub(crate) fn direct_local(&self, oid: PmdkOid) -> *mut u8 {
        (self.base + oid.off as usize) as *mut u8
    }

    /// Returns the pool's root object, or null if none was created.
    pub fn root<T>(&self) -> Toid<T> {
        let off = self.header().root_off;
        if off == 0 {
            Toid::null()
        } else {
            Toid::from_oid(PmdkOid {
                pool_id: self.uuid,
                off,
            })
        }
    }

    /// Runs a failure-atomic (undo-logged) transaction against this pool.
    pub fn tx<R>(&self, body: impl FnOnce(&mut PmdkTx<'_>) -> Result<R>) -> Result<R> {
        crate::tx::run_tx(self, body)
    }

    /// Allocates `size` bytes inside a transaction, returning a fat pointer.
    pub(crate) fn alloc_in_tx(&self, tx: &mut PmdkTx<'_>, size: usize) -> Result<PmdkOid> {
        let need = align_up(size.max(1) + CHUNK_HEADER_SIZE, ALLOC_ALIGN);
        let mut header = self.header();

        // First fit from the free list.
        let mut prev: u64 = 0;
        let mut cur = header.free_list;
        while cur != 0 {
            // SAFETY: free-list offsets were produced by this allocator and
            // stay within the pool.
            let chunk = unsafe {
                std::ptr::read_unaligned((self.base + cur as usize) as *const ChunkHeader)
            };
            if chunk.size as usize >= need {
                tx.log_range(self.base, std::mem::size_of::<PoolHeader>())?;
                if prev == 0 {
                    header.free_list = chunk.next_free;
                    self.write_header(header);
                } else {
                    // SAFETY: as above.
                    let prev_ptr = (self.base + prev as usize) as *mut ChunkHeader;
                    tx.log_range(prev_ptr as usize, CHUNK_HEADER_SIZE)?;
                    let mut prev_chunk = unsafe { std::ptr::read_unaligned(prev_ptr) };
                    prev_chunk.next_free = chunk.next_free;
                    unsafe { std::ptr::write_unaligned(prev_ptr, prev_chunk) };
                    persist::persist(prev_ptr as *const u8, CHUNK_HEADER_SIZE);
                }
                return Ok(PmdkOid {
                    pool_id: self.uuid,
                    off: cur + CHUNK_HEADER_SIZE as u64,
                });
            }
            prev = cur;
            cur = chunk.next_free;
        }

        // Bump allocation.
        let off = header.heap_bump;
        if off as usize + need > self.size {
            return Err(PmdkError::OutOfSpace);
        }
        tx.log_range(self.base, std::mem::size_of::<PoolHeader>())?;
        header.heap_bump = off + need as u64;
        self.write_header(header);
        let chunk_ptr = (self.base + off as usize) as *mut ChunkHeader;
        tx.log_range(chunk_ptr as usize, CHUNK_HEADER_SIZE)?;
        // SAFETY: `off + need <= size`, inside the mapping.
        unsafe {
            std::ptr::write_unaligned(
                chunk_ptr,
                ChunkHeader {
                    size: need as u64,
                    next_free: 0,
                },
            )
        };
        persist::persist(chunk_ptr as *const u8, CHUNK_HEADER_SIZE);
        Ok(PmdkOid {
            pool_id: self.uuid,
            off: off + CHUNK_HEADER_SIZE as u64,
        })
    }

    /// Frees an allocation inside a transaction.
    pub(crate) fn free_in_tx(&self, tx: &mut PmdkTx<'_>, oid: PmdkOid) -> Result<()> {
        if oid.is_null() {
            return Ok(());
        }
        let chunk_off = oid.off - CHUNK_HEADER_SIZE as u64;
        let chunk_ptr = (self.base + chunk_off as usize) as *mut ChunkHeader;
        let mut header = self.header();
        tx.log_range(self.base, std::mem::size_of::<PoolHeader>())?;
        tx.log_range(chunk_ptr as usize, CHUNK_HEADER_SIZE)?;
        // SAFETY: the offset was produced by `alloc_in_tx`.
        let mut chunk = unsafe { std::ptr::read_unaligned(chunk_ptr) };
        chunk.next_free = header.free_list;
        unsafe { std::ptr::write_unaligned(chunk_ptr, chunk) };
        persist::persist(chunk_ptr as *const u8, CHUNK_HEADER_SIZE);
        header.free_list = chunk_off;
        self.write_header(header);
        Ok(())
    }

    /// Sets the pool's root object inside a transaction.
    pub(crate) fn set_root_in_tx(&self, tx: &mut PmdkTx<'_>, oid: PmdkOid) -> Result<()> {
        let mut header = self.header();
        tx.log_range(self.base, std::mem::size_of::<PoolHeader>())?;
        header.root_off = oid.off;
        self.write_header(header);
        Ok(())
    }
}

impl Drop for PmdkPool {
    fn drop(&mut self) {
        pool_table().write().remove(&self.uuid);
        open_uuids().lock().remove(&self.uuid);
        // SAFETY: the pool table no longer references the mapping and the
        // owner is being dropped, so no fat-pointer translation can reach it.
        unsafe {
            let _ = VaReservation::unmap_anywhere(self.base, self.size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[repr(C)]
    struct Record {
        value: u64,
        next: PmdkOid,
    }

    #[test]
    fn create_write_reopen_reads_back() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("pool.pmdk");
        {
            let pool = PmdkPool::create(&path, 1 << 20).unwrap();
            pool.tx(|tx| {
                let root: Toid<Record> = tx.alloc(Record {
                    value: 7,
                    next: PmdkOid::NULL,
                })?;
                tx.set_root(root)?;
                Ok(())
            })
            .unwrap();
        }
        let pool = PmdkPool::open(&path).unwrap();
        let root: Toid<Record> = pool.root();
        assert!(!root.is_null());
        // SAFETY: pool is open and root refers to a Record.
        assert_eq!(unsafe { root.as_ref() }.value, 7);
    }

    #[test]
    fn a_pool_cannot_be_opened_twice_and_clones_conflict() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("orig.pmdk");
        let pool = PmdkPool::create(&path, 1 << 20).unwrap();
        // Same file again: rejected.
        assert!(matches!(PmdkPool::open(&path), Err(PmdkError::AlreadyOpen)));
        // A byte-for-byte clone carries the same UUID: also rejected while
        // the original is open (the restriction Puddles removes).
        let clone_path = tmp.path().join("clone.pmdk");
        std::fs::copy(&path, &clone_path).unwrap();
        assert!(matches!(
            PmdkPool::open(&clone_path),
            Err(PmdkError::AlreadyOpen)
        ));
        drop(pool);
        // Once the original is closed the clone can be opened.
        let clone = PmdkPool::open(&clone_path).unwrap();
        drop(clone);
    }

    #[test]
    fn aborted_transactions_roll_back() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("abort.pmdk");
        let pool = PmdkPool::create(&path, 1 << 20).unwrap();
        pool.tx(|tx| {
            let root: Toid<Record> = tx.alloc(Record {
                value: 1,
                next: PmdkOid::NULL,
            })?;
            tx.set_root(root)?;
            Ok(())
        })
        .unwrap();
        let root: Toid<Record> = pool.root();
        let err = pool
            .tx(|tx| {
                // SAFETY: root is live and the pool is open.
                let record = unsafe { root.as_mut() };
                tx.add(record)?;
                record.value = 999;
                Err::<(), _>(PmdkError::Aborted("no".into()))
            })
            .unwrap_err();
        assert!(matches!(err, PmdkError::Aborted(_)));
        // SAFETY: as above.
        assert_eq!(unsafe { root.as_ref() }.value, 1);
    }

    #[test]
    fn free_list_reuses_space() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("free.pmdk");
        let pool = PmdkPool::create(&path, 1 << 20).unwrap();
        let first = pool
            .tx(|tx| {
                let a: Toid<[u8; 512]> = tx.alloc([0u8; 512])?;
                tx.free(a)?;
                let b: Toid<[u8; 512]> = tx.alloc([1u8; 512])?;
                Ok(b.oid.off)
            })
            .unwrap();
        let second = pool
            .tx(|tx| {
                let c: Toid<[u8; 512]> = tx.alloc([2u8; 512])?;
                Ok(c.oid.off)
            })
            .unwrap();
        assert_ne!(first, second);
    }
}
