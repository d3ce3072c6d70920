//! The log space: a directory of the log puddles a client has registered
//! (Fig. 5).
//!
//! A client registers one *log space* puddle with the daemon
//! (`RegLogSpace`); afterwards it can create, grow and drop logs without
//! talking to the daemon again — it simply records each log puddle in the
//! log space. After a crash the daemon walks the log space to find every
//! log that may need replay.

use puddles_pmem::persist;
use puddles_pmem::{PmError, Result};

/// Magic number identifying an initialized log space.
pub const LOGSPACE_MAGIC: u64 = 0x5055_4444_4c53_5031; // "PUDDLSP1"

/// On-PM header of a log space area.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct LogSpaceHeader {
    magic: u64,
    capacity_entries: u64,
    /// Unused: zeroed by `init` and never written again (the slots'
    /// `in_use` flags are the record of which are live). Kept so the slots
    /// stay where they are.
    num_slots: u64,
}

/// One slot in the log space, identifying a log stored in a log puddle.
///
/// A log that outgrows its puddle is continued in another puddle by linking
/// a second slot with the same `log_id` and the next `chain_index` (Fig. 5
/// shows a log spanning Puddle 0 and Puddle 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct LogSpaceEntry {
    /// Low 64 bits of the log puddle's UUID.
    pub puddle_uuid_lo: u64,
    /// High 64 bits of the log puddle's UUID.
    pub puddle_uuid_hi: u64,
    /// Identifier shared by all slots of one (possibly multi-puddle) log.
    pub log_id: u64,
    /// Position of this puddle within the log's chain (0 = first).
    pub chain_index: u32,
    /// 1 if the slot is live, 0 if free.
    pub in_use: u32,
}

const HEADER_SIZE: usize = std::mem::size_of::<LogSpaceHeader>();
const SLOT_SIZE: usize = std::mem::size_of::<LogSpaceEntry>();

/// A view over a log-space area in (persistent) memory.
#[derive(Debug, Clone, Copy)]
pub struct LogSpaceRef {
    base: *mut u8,
    capacity: usize,
}

// SAFETY: pointer+length view; mutation is serialized by the owning client
// (log spaces are per-client) or by the single-threaded daemon recovery.
unsafe impl Send for LogSpaceRef {}

impl LogSpaceRef {
    /// Creates a view over `capacity` bytes of log-space memory at `base`.
    ///
    /// # Safety
    ///
    /// `base` must be valid for reads and writes of `capacity` bytes for the
    /// lifetime of the returned value, and no other code may concurrently
    /// mutate the range.
    pub unsafe fn from_raw(base: *mut u8, capacity: usize) -> Self {
        assert!(capacity >= HEADER_SIZE + SLOT_SIZE);
        LogSpaceRef { base, capacity }
    }

    fn read_header(&self) -> LogSpaceHeader {
        // SAFETY: `base` is valid for at least HEADER_SIZE bytes.
        unsafe { std::ptr::read_unaligned(self.base as *const LogSpaceHeader) }
    }

    fn write_header(&self, hdr: LogSpaceHeader) {
        // SAFETY: as in `read_header`.
        unsafe { std::ptr::write_unaligned(self.base as *mut LogSpaceHeader, hdr) };
        persist::persist(self.base, HEADER_SIZE);
    }

    fn slot_ptr(&self, index: usize) -> *mut LogSpaceEntry {
        // SAFETY: callers only pass indices below `capacity_entries`, which
        // `init` sized to fit within `capacity`.
        unsafe { self.base.add(HEADER_SIZE + index * SLOT_SIZE) as *mut LogSpaceEntry }
    }

    /// Initializes the log space, clearing all slots.
    pub fn init(&self) {
        let slots = (self.capacity - HEADER_SIZE) / SLOT_SIZE;
        let hdr = LogSpaceHeader {
            magic: LOGSPACE_MAGIC,
            capacity_entries: slots as u64,
            num_slots: 0,
        };
        for i in 0..slots {
            // SAFETY: slot `i` < `slots` fits inside the area by construction.
            unsafe {
                std::ptr::write_unaligned(
                    self.slot_ptr(i),
                    LogSpaceEntry {
                        puddle_uuid_lo: 0,
                        puddle_uuid_hi: 0,
                        log_id: 0,
                        chain_index: 0,
                        in_use: 0,
                    },
                )
            };
        }
        persist::persist(self.base, HEADER_SIZE + slots * SLOT_SIZE);
        self.write_header(hdr);
    }

    /// Returns `true` if the area carries an initialized log space.
    pub fn is_initialized(&self) -> bool {
        self.read_header().magic == LOGSPACE_MAGIC
    }

    /// Returns the maximum number of slots.
    pub fn capacity_entries(&self) -> usize {
        self.read_header().capacity_entries as usize
    }

    /// Registers a log puddle under `log_id` at chain position `chain_index`.
    pub fn register(&self, puddle_uuid: u128, log_id: u64, chain_index: u32) -> Result<()> {
        let hdr = self.read_header();
        if hdr.magic != LOGSPACE_MAGIC {
            return Err(PmError::Corruption("uninitialized log space".into()));
        }
        let slots = hdr.capacity_entries as usize;
        for i in 0..slots {
            // SAFETY: `i < slots` as sized by `init`.
            let slot = unsafe { std::ptr::read_unaligned(self.slot_ptr(i)) };
            if slot.in_use == 0 {
                let entry = LogSpaceEntry {
                    puddle_uuid_lo: puddle_uuid as u64,
                    puddle_uuid_hi: (puddle_uuid >> 64) as u64,
                    log_id,
                    chain_index,
                    in_use: 1,
                };
                // SAFETY: same slot as read above.
                unsafe { std::ptr::write_unaligned(self.slot_ptr(i), entry) };
                persist::persist(self.slot_ptr(i) as *const u8, SLOT_SIZE);
                return Ok(());
            }
        }
        Err(PmError::OutOfRange {
            offset: slots,
            len: 1,
        })
    }

    /// Removes every slot referring to `puddle_uuid`.
    pub fn unregister(&self, puddle_uuid: u128) -> usize {
        let hdr = self.read_header();
        let slots = hdr.capacity_entries as usize;
        let mut removed = 0;
        for i in 0..slots {
            // SAFETY: `i < slots`.
            let mut slot = unsafe { std::ptr::read_unaligned(self.slot_ptr(i)) };
            let uuid = (slot.puddle_uuid_hi as u128) << 64 | slot.puddle_uuid_lo as u128;
            if slot.in_use == 1 && uuid == puddle_uuid {
                slot.in_use = 0;
                // SAFETY: same slot.
                unsafe { std::ptr::write_unaligned(self.slot_ptr(i), slot) };
                persist::persist(self.slot_ptr(i) as *const u8, SLOT_SIZE);
                removed += 1;
            }
        }
        removed
    }

    /// Returns every live slot, sorted by (`log_id`, `chain_index`).
    pub fn live_slots(&self) -> Vec<LogSpaceEntry> {
        let hdr = self.read_header();
        if hdr.magic != LOGSPACE_MAGIC {
            return Vec::new();
        }
        let slots = hdr.capacity_entries as usize;
        let mut out = Vec::new();
        for i in 0..slots {
            // SAFETY: `i < slots`.
            let slot = unsafe { std::ptr::read_unaligned(self.slot_ptr(i)) };
            if slot.in_use == 1 {
                out.push(slot);
            }
        }
        out.sort_by_key(|s| (s.log_id, s.chain_index));
        out
    }

    /// Returns the UUIDs of all registered log puddles (deduplicated, in
    /// registration-slot order).
    pub fn log_puddles(&self) -> Vec<u128> {
        let mut seen = Vec::new();
        for slot in self.live_slots() {
            let uuid = (slot.puddle_uuid_hi as u128) << 64 | slot.puddle_uuid_lo as u128;
            if !seen.contains(&uuid) {
                seen.push(uuid);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(buf: &mut Vec<u8>) -> LogSpaceRef {
        // SAFETY: the Vec outlives the view in each test.
        unsafe { LogSpaceRef::from_raw(buf.as_mut_ptr(), buf.len()) }
    }

    #[test]
    fn init_register_unregister() {
        let mut buf = vec![0u8; 4096];
        let ls = make(&mut buf);
        assert!(!ls.is_initialized());
        ls.init();
        assert!(ls.is_initialized());
        assert!(ls.capacity_entries() > 10);

        ls.register(0xAAAA, 1, 0).unwrap();
        ls.register(0xBBBB, 1, 1).unwrap();
        ls.register(0xCCCC, 2, 0).unwrap();
        assert_eq!(ls.live_slots().len(), 3);
        assert_eq!(ls.log_puddles(), vec![0xAAAA, 0xBBBB, 0xCCCC]);

        assert_eq!(ls.unregister(0xBBBB), 1);
        assert_eq!(ls.log_puddles(), vec![0xAAAA, 0xCCCC]);
        assert_eq!(ls.unregister(0xBBBB), 0);
    }

    #[test]
    fn slots_are_ordered_by_log_and_chain() {
        let mut buf = vec![0u8; 4096];
        let ls = make(&mut buf);
        ls.init();
        ls.register(3, 7, 1).unwrap();
        ls.register(1, 7, 0).unwrap();
        ls.register(2, 5, 0).unwrap();
        let slots = ls.live_slots();
        assert_eq!(
            slots
                .iter()
                .map(|s| (s.log_id, s.chain_index, s.puddle_uuid_lo))
                .collect::<Vec<_>>(),
            vec![(5, 0, 2), (7, 0, 1), (7, 1, 3)]
        );
    }

    #[test]
    fn register_fails_when_full() {
        // Room for the header plus exactly 2 slots.
        let mut buf = vec![0u8; HEADER_SIZE + 2 * SLOT_SIZE];
        let ls = make(&mut buf);
        ls.init();
        ls.register(1, 1, 0).unwrap();
        ls.register(2, 2, 0).unwrap();
        assert!(ls.register(3, 3, 0).is_err());
        // Freeing a slot makes room again.
        ls.unregister(1);
        ls.register(3, 3, 0).unwrap();
    }

    #[test]
    fn uninitialized_space_reports_no_slots() {
        let mut buf = vec![0u8; 1024];
        let ls = make(&mut buf);
        assert!(ls.live_slots().is_empty());
        assert!(ls.register(1, 1, 0).is_err());
    }
}
