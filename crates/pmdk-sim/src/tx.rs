//! PMDK-style undo-logged transactions with application-dependent recovery.
//!
//! The undo log lives inside the pool file and records pool-relative
//! offsets. It is replayed only when the *application* reopens the pool
//! ([`crate::PmdkPool::open`]) — if the writer never comes back, or lost
//! write access, the data stays inconsistent. This is precisely the
//! behaviour the Puddles daemon removes.

use crate::oid::{PmdkOid, Toid};
use crate::pool::{PmdkError, PmdkPool, Result};
use puddles_pmem::persist;

/// Offset of the undo-log region within a pool file.
pub(crate) const LOG_REGION_OFF: usize = 4096;
/// Size of the undo-log region.
pub(crate) const LOG_REGION_SIZE: usize = 1 << 20;

const LOG_DATA_OFF: usize = LOG_REGION_OFF + std::mem::size_of::<UndoLogHeader>();

#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct UndoLogHeader {
    /// 1 while a transaction is in flight, 0 otherwise.
    active: u64,
    /// Number of entries appended.
    entries: u64,
    /// Offset (within the log region data area) of the next free byte.
    head: u64,
}

#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct UndoEntryHeader {
    /// Pool-relative offset of the saved range.
    off: u64,
    /// Length of the saved range.
    len: u64,
}

/// Initializes the undo-log region of a freshly created pool.
pub(crate) fn init_log(base: usize) {
    let header = UndoLogHeader {
        active: 0,
        entries: 0,
        head: 0,
    };
    // SAFETY: called on a freshly mapped pool of at least
    // LOG_REGION_OFF + LOG_REGION_SIZE bytes.
    unsafe { std::ptr::write_unaligned((base + LOG_REGION_OFF) as *mut UndoLogHeader, header) };
    persist::persist(
        (base + LOG_REGION_OFF) as *const u8,
        std::mem::size_of::<UndoLogHeader>(),
    );
}

fn read_log_header(base: usize) -> UndoLogHeader {
    // SAFETY: pool mappings always cover the log region.
    unsafe { std::ptr::read_unaligned((base + LOG_REGION_OFF) as *const UndoLogHeader) }
}

fn write_log_header(base: usize, header: UndoLogHeader) {
    // SAFETY: as above.
    unsafe { std::ptr::write_unaligned((base + LOG_REGION_OFF) as *mut UndoLogHeader, header) };
    persist::persist(
        (base + LOG_REGION_OFF) as *const u8,
        std::mem::size_of::<UndoLogHeader>(),
    );
}

/// Rolls back an interrupted transaction, if any. Called from
/// [`crate::PmdkPool::open`] — recovery is the application's job here.
pub(crate) fn recover(pool: &PmdkPool) {
    let base = pool.base();
    let header = read_log_header(base);
    if header.active == 0 {
        return;
    }
    apply_undo(base, &header);
    write_log_header(
        base,
        UndoLogHeader {
            active: 0,
            entries: 0,
            head: 0,
        },
    );
}

fn apply_undo(base: usize, header: &UndoLogHeader) {
    // Collect entries in append order, then apply them in reverse.
    let mut entries = Vec::with_capacity(header.entries as usize);
    let mut cursor = 0u64;
    for _ in 0..header.entries {
        let entry_addr = base + LOG_DATA_OFF + cursor as usize;
        // SAFETY: entries were appended within the log region by `log_range`.
        let entry = unsafe { std::ptr::read_unaligned(entry_addr as *const UndoEntryHeader) };
        entries.push((entry, entry_addr + std::mem::size_of::<UndoEntryHeader>()));
        cursor += (std::mem::size_of::<UndoEntryHeader>() + entry.len as usize) as u64;
        cursor = (cursor + 7) & !7;
    }
    for (entry, data_addr) in entries.into_iter().rev() {
        // SAFETY: both source (log data) and destination (pool offset) lie
        // inside the pool mapping, the one in the log region and the other
        // outside it.
        unsafe {
            let data = std::slice::from_raw_parts(data_addr as *const u8, entry.len as usize);
            persist::copy_flush((base + entry.off as usize) as *mut u8, data);
        }
    }
    persist::sfence();
}

/// An open PMDK-style transaction.
pub struct PmdkTx<'p> {
    pool: &'p PmdkPool,
    undo_ranges: Vec<(u64, u64)>,
}

impl<'p> PmdkTx<'p> {
    /// Undo-logs the pool-internal range `[addr, addr + len)` (addresses are
    /// converted to pool offsets, as PMDK does).
    pub fn log_range(&mut self, addr: usize, len: usize) -> Result<()> {
        let base = self.pool.base();
        let off = (addr - base) as u64;
        let mut header = read_log_header(base);
        let header_size = std::mem::size_of::<UndoEntryHeader>();
        let entry_size = header_size + len;
        let entry_off = header.head as usize;
        if LOG_DATA_OFF + entry_off + entry_size > LOG_REGION_OFF + LOG_REGION_SIZE {
            return Err(PmdkError::OutOfSpace);
        }
        let entry_addr = base + LOG_DATA_OFF + entry_off;
        // SAFETY: the entry lies inside the log region (checked above); the
        // source range lies inside the pool mapping per the caller, outside
        // the log region.
        unsafe {
            std::ptr::write_unaligned(
                entry_addr as *mut UndoEntryHeader,
                UndoEntryHeader {
                    off,
                    len: len as u64,
                },
            );
            let data = std::slice::from_raw_parts(addr as *const u8, len);
            persist::copy_flush((entry_addr + header_size) as *mut u8, data);
        }
        persist::flush_header(entry_addr as *const u8, header_size, len);
        persist::sfence();
        header.entries += 1;
        header.head = (((entry_off + entry_size) as u64) + 7) & !7;
        write_log_header(base, header);
        self.undo_ranges.push((off, len as u64));
        Ok(())
    }

    /// Undo-logs an object before the caller modifies it (`TX_ADD`).
    pub fn add<T>(&mut self, target: &T) -> Result<()> {
        self.log_range(target as *const T as usize, std::mem::size_of::<T>())
    }

    /// Allocates and initializes an object, returning its typed fat pointer.
    pub fn alloc<T>(&mut self, value: T) -> Result<Toid<T>> {
        let oid = self.alloc_raw(std::mem::size_of::<T>())?;
        let ptr = self.pool.direct_local(oid) as *mut T;
        // SAFETY: fresh allocation of `size_of::<T>()` bytes.
        unsafe { std::ptr::write(ptr, value) };
        persist::persist(ptr as *const u8, std::mem::size_of::<T>());
        Ok(Toid::from_oid(oid))
    }

    /// Allocates `size` raw bytes (`TX_ALLOC`).
    pub fn alloc_raw(&mut self, size: usize) -> Result<PmdkOid> {
        let pool = self.pool;
        pool.alloc_in_tx(self, size)
    }

    /// Frees an allocation (`TX_FREE`).
    pub fn free<T>(&mut self, toid: Toid<T>) -> Result<()> {
        let pool = self.pool;
        pool.free_in_tx(self, toid.oid)
    }

    /// Sets the pool's root object.
    pub fn set_root<T>(&mut self, toid: Toid<T>) -> Result<()> {
        let pool = self.pool;
        pool.set_root_in_tx(self, toid.oid)
    }

    fn commit(&mut self) {
        let base = self.pool.base();
        // Flush every undo-logged location, then retire the log.
        for &(off, len) in &self.undo_ranges {
            persist::flush((base + off as usize) as *const u8, len as usize);
        }
        persist::sfence();
        write_log_header(
            base,
            UndoLogHeader {
                active: 0,
                entries: 0,
                head: 0,
            },
        );
    }

    fn abort(&mut self) {
        let base = self.pool.base();
        let header = read_log_header(base);
        apply_undo(base, &header);
        write_log_header(
            base,
            UndoLogHeader {
                active: 0,
                entries: 0,
                head: 0,
            },
        );
    }
}

/// Runs `body` inside a transaction on `pool`.
pub(crate) fn run_tx<R>(
    pool: &PmdkPool,
    body: impl FnOnce(&mut PmdkTx<'_>) -> Result<R>,
) -> Result<R> {
    let _guard = pool.tx_lock.lock();
    let base = pool.base();
    write_log_header(
        base,
        UndoLogHeader {
            active: 1,
            entries: 0,
            head: 0,
        },
    );
    let mut tx = PmdkTx {
        pool,
        undo_ranges: Vec::new(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupted_transaction_is_rolled_back_only_on_reopen() {
        // An 8-byte root and a range large enough that its undo entry, and
        // the rollback that copies it back, are streamed.
        const BIG: usize = 4096 + 8;
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("recover.pmdk");
        let big_off = {
            let pool = PmdkPool::create(&path, 1 << 20).unwrap();
            let (root_off, big) = pool
                .tx(|tx| {
                    let root: Toid<u64> = tx.alloc(42u64)?;
                    tx.set_root(root)?;
                    let big = tx.alloc_raw(BIG)?;
                    // SAFETY: a fresh allocation of BIG bytes.
                    unsafe { std::ptr::write_bytes(pool.direct_local(big), 0x42, BIG) };
                    Ok((root.oid.off, big))
                })
                .unwrap();
            // Simulate a crash mid-transaction: log the values, overwrite
            // them, and "lose power" before commit (bypass run_tx's commit).
            let base = pool.base();
            write_log_header(
                base,
                UndoLogHeader {
                    active: 1,
                    entries: 0,
                    head: 0,
                },
            );
            let mut tx = PmdkTx {
                pool: &pool,
                undo_ranges: Vec::new(),
            };
            let addr = base + root_off as usize;
            let big_addr = pool.direct_local(big);
            tx.log_range(addr, 8).unwrap();
            tx.log_range(big_addr as usize, BIG).unwrap();
            // SAFETY: the root object lies at `addr` and the large range at
            // `big_addr`, both inside the mapping.
            unsafe {
                std::ptr::write_unaligned(addr as *mut u64, 7777);
                std::ptr::write_bytes(big_addr, 0x77, BIG);
            }
            std::mem::forget(tx);
            // Value is now inconsistent on "PM".
            // SAFETY: as above.
            assert_eq!(
                unsafe { std::ptr::read_unaligned(addr as *const u64) },
                7777
            );
            drop(pool);
            big.off
        };
        // Recovery happens only because the application reopens the pool.
        let pool = PmdkPool::open(&path).unwrap();
        let root: Toid<u64> = pool.root();
        // SAFETY: pool open, root live.
        assert_eq!(unsafe { *root.as_ref() }, 42);
        // SAFETY: the large range lies at `big_off` inside the mapping.
        let big = unsafe {
            std::slice::from_raw_parts((pool.base() + big_off as usize) as *const u8, BIG)
        };
        assert!(big.iter().all(|&b| b == 0x42));
    }
}
