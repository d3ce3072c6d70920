//! Log-entry layout (Fig. 6b).

use puddles_pmem::checksum::{crc32c64, crc32c64_with_seed};

/// How valid entries of this record are applied during replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplayOrder {
    /// Apply in append order (redo logging).
    Forward = 0,
    /// Apply in reverse append order (undo logging).
    Reverse = 1,
}

impl ReplayOrder {
    /// Decodes a stored order byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ReplayOrder::Forward),
            1 => Some(ReplayOrder::Reverse),
            _ => None,
        }
    }
}

/// The kind of a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EntryKind {
    /// Old value of a location; replayed to roll a transaction back.
    Undo = 0,
    /// New value of a location; replayed to roll a transaction forward.
    Redo = 1,
    /// Targets volatile memory; applied on abort during normal execution,
    /// ignored by post-crash recovery (§4.1).
    Volatile = 2,
}

impl EntryKind {
    /// Decodes a stored kind byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(EntryKind::Undo),
            1 => Some(EntryKind::Redo),
            2 => Some(EntryKind::Volatile),
            _ => None,
        }
    }
}

/// On-PM header preceding each log entry's payload.
///
/// The checksum covers every other header field plus the payload, so a torn
/// append (header or data only partially persisted) is detected and the
/// entry skipped, exactly like PMDK's log checksums.
///
/// The `gen` field ties the entry to one *generation* of its log: the log
/// header stores the current generation and bumps it whenever the log is
/// (re)started, so the validity scan never mistakes a leftover entry from an
/// earlier transaction for the continuation of the current one. This is what
/// lets the log keep its append cursor in DRAM — validity is decided
/// entirely by `checksum ∧ gen`, not by a durable head pointer.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct LogEntryHeader {
    /// [`crc32c64`] (four interleaved CRC32C lanes folded to 64 bits) of
    /// the 24 bytes (addr, size, seq, order, kind, flags, gen), continued
    /// over the payload. Computed once when the entry is appended and
    /// checked once when a scan reads it back; a log whose magic is not
    /// [`LOG_MAGIC`](crate::log::LOG_MAGIC) was written with a different
    /// function and is never scanned.
    pub checksum: u64,
    /// Target virtual address in the global puddle space (or a volatile
    /// address for [`EntryKind::Volatile`] entries).
    pub addr: u64,
    /// Payload size in bytes.
    pub size: u32,
    /// Sequence number compared against the log's sequence range.
    pub seq: u32,
    /// Replay order ([`ReplayOrder`] as u8).
    pub order: u8,
    /// Entry kind ([`EntryKind`] as u8).
    pub kind: u8,
    /// Reserved flag bits (unused, must be zero).
    pub flags: u16,
    /// Generation of the log this entry belongs to.
    pub gen: u32,
}

/// Size of the entry header in bytes.
pub const ENTRY_HEADER_SIZE: usize = std::mem::size_of::<LogEntryHeader>();

/// Payload alignment inside the log.
pub const ENTRY_ALIGN: usize = 8;

impl LogEntryHeader {
    /// Builds a header (checksum included) for an entry of log generation
    /// `gen` targeting `addr` with payload `data`.
    pub fn new(
        addr: u64,
        seq: u32,
        order: ReplayOrder,
        kind: EntryKind,
        gen: u32,
        data: &[u8],
    ) -> Self {
        let mut hdr = LogEntryHeader {
            checksum: 0,
            addr,
            size: data.len() as u32,
            seq,
            order: order as u8,
            kind: kind as u8,
            flags: 0,
            gen,
        };
        hdr.checksum = hdr.compute_checksum(data);
        hdr
    }

    /// Computes the checksum this header should carry for payload `data`.
    pub fn compute_checksum(&self, data: &[u8]) -> u64 {
        let mut buf = [0u8; 8 * 3];
        buf[0..8].copy_from_slice(&self.addr.to_le_bytes());
        buf[8..12].copy_from_slice(&self.size.to_le_bytes());
        buf[12..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16] = self.order;
        buf[17] = self.kind;
        buf[18..20].copy_from_slice(&self.flags.to_le_bytes());
        buf[20..24].copy_from_slice(&self.gen.to_le_bytes());
        crc32c64_with_seed(crc32c64(&buf), data)
    }

    /// Returns `true` if the stored checksum matches the header and payload.
    pub fn verify(&self, data: &[u8]) -> bool {
        data.len() == self.size as usize && self.checksum == self.compute_checksum(data)
    }

    /// Returns the decoded replay order, if the stored byte is valid.
    pub fn replay_order(&self) -> Option<ReplayOrder> {
        ReplayOrder::from_u8(self.order)
    }

    /// Returns the decoded entry kind, if the stored byte is valid.
    pub fn entry_kind(&self) -> Option<EntryKind> {
        EntryKind::from_u8(self.kind)
    }

    /// Total bytes the entry occupies in the log (header + padded payload).
    pub fn stored_size(&self) -> usize {
        ENTRY_HEADER_SIZE + puddles_pmem::util::align_up(self.size as usize, ENTRY_ALIGN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout_is_32_bytes() {
        assert_eq!(ENTRY_HEADER_SIZE, 32);
    }

    #[test]
    fn checksum_roundtrip_verifies() {
        let data = [1u8, 2, 3, 4, 5];
        let hdr = LogEntryHeader::new(0x1234, 1, ReplayOrder::Reverse, EntryKind::Undo, 7, &data);
        assert!(hdr.verify(&data));
        assert_eq!(hdr.size, 5);
        assert_eq!(hdr.gen, 7);
        assert_eq!(hdr.entry_kind(), Some(EntryKind::Undo));
        assert_eq!(hdr.replay_order(), Some(ReplayOrder::Reverse));
    }

    #[test]
    fn corrupting_payload_or_header_fails_verification() {
        let data = [7u8; 64];
        let hdr = LogEntryHeader::new(0xabcd, 3, ReplayOrder::Forward, EntryKind::Redo, 1, &data);
        let mut bad = data;
        bad[10] ^= 0xff;
        assert!(!hdr.verify(&bad));

        let mut bad_hdr = hdr;
        bad_hdr.addr ^= 0x1;
        assert!(!bad_hdr.verify(&data));

        let mut bad_seq = hdr;
        bad_seq.seq = 1;
        assert!(!bad_seq.verify(&data));

        // A rewritten generation invalidates the checksum: a stale entry
        // cannot be forged into the current generation.
        let mut bad_gen = hdr;
        bad_gen.gen += 1;
        assert!(!bad_gen.verify(&data));

        // Wrong length payload also fails.
        assert!(!hdr.verify(&data[..63]));
    }

    #[test]
    fn stored_size_is_padded() {
        let hdr = LogEntryHeader::new(0, 1, ReplayOrder::Forward, EntryKind::Redo, 0, &[1, 2, 3]);
        assert_eq!(hdr.stored_size(), 32 + 8);
        let hdr = LogEntryHeader::new(0, 1, ReplayOrder::Forward, EntryKind::Redo, 0, &[0; 8]);
        assert_eq!(hdr.stored_size(), 32 + 8);
        let hdr = LogEntryHeader::new(0, 1, ReplayOrder::Forward, EntryKind::Redo, 0, &[]);
        assert_eq!(hdr.stored_size(), 32);
    }

    #[test]
    fn kind_and_order_decoding_rejects_garbage() {
        assert_eq!(EntryKind::from_u8(3), None);
        assert_eq!(ReplayOrder::from_u8(2), None);
        assert_eq!(EntryKind::from_u8(2), Some(EntryKind::Volatile));
    }
}
