//! Torn-write detection by the entry checksum, on a cache-line model:
//! entries before the last are flushed, the last one is still dirty, and
//! the power fails. Whatever part of the last entry did not reach PM — any
//! one of its cache lines, or any single bit — the entry must fail `verify`
//! and the validity scan must stop in front of it.

use proptest::prelude::*;
use puddles_logfmt::entry::{ENTRY_ALIGN, ENTRY_HEADER_SIZE};
use puddles_logfmt::log::LOG_ENTRIES_OFFSET;
use puddles_logfmt::{EntryKind, LogEntryHeader, LogRef, LogWriter, ReplayOrder, SEQ_UNDO};
use puddles_pmem::util::align_up;
use puddles_pmem::CACHELINE;

const LOG_BYTES: usize = 8192;

/// A payload with no zero byte, so a dropped line (zeros in the durable
/// image) always differs from what was written.
fn payload(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag) | 1)
        .collect()
}

/// The header and payload stored at `off` in `image`, reading `len` payload
/// bytes (the length the writer stored, not the possibly torn `size`).
fn entry_at(image: &[u8], off: usize, len: usize) -> (LogEntryHeader, &[u8]) {
    // SAFETY: `off + ENTRY_HEADER_SIZE <= image.len()` for every entry the
    // tests wrote; the header is plain old data.
    let hdr = unsafe { std::ptr::read_unaligned(image[off..].as_ptr() as *const LogEntryHeader) };
    let data = &image[off + ENTRY_HEADER_SIZE..off + ENTRY_HEADER_SIZE + len];
    (hdr, data)
}

/// Entries the validity scan finds in `image`.
fn scanned(image: &mut [u8]) -> usize {
    // SAFETY: `image` outlives the view and nothing else touches it.
    unsafe { LogRef::from_raw(image.as_mut_ptr(), image.len()) }
        .iter()
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn losing_any_line_or_bit_of_the_last_entry_fails_verify(
        sizes in proptest::collection::vec(1usize..400, 1..6)
    ) {
        // Write the entries through the real append path.
        let mut buf = vec![0u8; LOG_BYTES];
        // SAFETY: `buf` outlives the view and is only read back once the
        // appends are done.
        let log = unsafe { LogRef::from_raw(buf.as_mut_ptr(), buf.len()) };
        log.init();
        let mut writer = LogWriter::begin(log).unwrap();
        let mut last_off = LOG_ENTRIES_OFFSET;
        let mut next_off = LOG_ENTRIES_OFFSET;
        for (i, &len) in sizes.iter().enumerate() {
            last_off = next_off;
            let data = payload(len, i as u8);
            writer
                .append(0x1000 + i as u64, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, &data)
                .unwrap();
            next_off += ENTRY_HEADER_SIZE + align_up(len, ENTRY_ALIGN);
        }
        let last_len = *sizes.last().unwrap();
        // End of the last entry's payload (its alignment padding holds
        // nothing a crash could lose).
        let end = last_off + ENTRY_HEADER_SIZE + last_len;

        // Everything before the last entry is durable; the last is dirty:
        // it is in the cache (the intact image), not yet in PM.
        let mut durable = vec![0u8; LOG_BYTES];
        durable[..last_off].copy_from_slice(&buf[..last_off]);
        let mut intact = durable.clone();
        intact[last_off..end].copy_from_slice(&buf[last_off..end]);
        let (hdr, data) = entry_at(&intact, last_off, last_len);
        prop_assert!(hdr.verify(data), "the intact entry verifies");
        prop_assert_eq!(scanned(&mut intact.clone()), sizes.len());

        // Any one cache line of the last entry never reached PM.
        for line in last_off / CACHELINE..=(end - 1) / CACHELINE {
            let mut image = intact.clone();
            let range = line * CACHELINE..(line + 1) * CACHELINE;
            image[range.clone()].copy_from_slice(&durable[range]);
            let (hdr, data) = entry_at(&image, last_off, last_len);
            prop_assert!(!hdr.verify(data), "line {line} lost, entry still verifies");
            prop_assert_eq!(scanned(&mut image), sizes.len() - 1, "line {}", line);
        }

        // Any single bit of the header or the payload flipped.
        for bit in 0..(ENTRY_HEADER_SIZE + last_len) * 8 {
            let mut image = intact.clone();
            image[last_off + bit / 8] ^= 1 << (bit % 8);
            let (hdr, data) = entry_at(&image, last_off, last_len);
            prop_assert!(!hdr.verify(data), "bit {bit} flipped, entry still verifies");
        }
    }
}
