//! Checksums used by log entries, the metadata WAL and persistent type ids.
//!
//! The paper uses checksums (like PMDK) so that recovery can identify and
//! skip log entries that only partially persisted before a crash. Two
//! functions live here, each with one job:
//!
//! * [`crc32c64`] — the **log-entry checksum**. Every logged byte passes
//!   through it once when written and once when recovered, so it has to run
//!   at memory speed: four independent CRC32C (Castagnoli) chains over
//!   interleaved 8-byte words, one per lane, so the 3-cycle latency of the
//!   SSE4.2 `crc32` instruction overlaps across lanes (8 bytes per cycle),
//!   folded together with the length into 64 bits. The hardware kernel is
//!   picked at run time from what the CPU reports (like `persist` picks
//!   `clwb`); the portable slicing-by-8 tables return bit-identical values,
//!   so a log written on one machine verifies on any other.
//!
//!   *Why 64 bits:* the entry header has always carried a 64-bit field, and
//!   a transaction of 4,096 entries meets 4,096 chances of a torn tail
//!   passing by accident; at 2^-32 each that is not negligible over a
//!   fleet's lifetime, at 2^-64 it is. The four lanes exist for speed
//!   anyway, so filling the field costs two extra `crc32` steps. Any error
//!   confined to one 8-byte word (every single-bit flip included) changes
//!   exactly one lane by a non-zero CRC difference and is always detected.
//! * [`fnv1a64`] — byte-serial FNV-1a, kept for [`type_id_for_name`]
//!   (persistent type ids must never change) and the metadata WAL's
//!   88-byte records (fsync-bound; their format is not this module's to
//!   change).

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the FNV-1a 64-bit hash of `data`.
///
/// # Examples
///
/// ```
/// let a = puddles_pmem::checksum::fnv1a64(b"hello");
/// let b = puddles_pmem::checksum::fnv1a64(b"hello");
/// assert_eq!(a, b);
/// assert_ne!(a, puddles_pmem::checksum::fnv1a64(b"world"));
/// ```
#[inline]
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_with_seed(FNV_OFFSET, data)
}

/// Continues an FNV-1a 64-bit hash from a previous state.
///
/// Useful for hashing a header and its payload without copying them into a
/// contiguous buffer.
#[inline]
pub fn fnv1a64_with_seed(seed: u64, data: &[u8]) -> u64 {
    let mut hash = seed;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes a string into a stable 64-bit identifier.
///
/// Used to derive persistent type ids from type names (the Rust stand-in for
/// the paper's use of C++ `typeid`).
#[inline]
pub fn type_id_for_name(name: &str) -> u64 {
    fnv1a64(name.as_bytes())
}

/// Reflected CRC32C (Castagnoli) polynomial, the one the SSE4.2 `crc32`
/// instruction implements.
const CRC32C_POLY: u32 = 0x82f6_3b78;

/// Number of interleaved CRC lanes (8-byte word `k` feeds lane `k % LANES`).
const LANES: usize = 4;

/// Initial state of the lanes the seed does not fill.
const LANE_INIT: u32 = !0;

/// Seed of a fresh [`crc32c64`] (no previous state to continue from).
const CRC_SEED: u64 = !0;

/// Slicing-by-8 tables: `TABLES[k][b]` is the raw CRC32C state after byte
/// `b` followed by `k` zero bytes, starting from state 0.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Raw CRC32C state update over one byte (no initial or final inversion):
/// the portable twin of `_mm_crc32_u8`.
#[inline]
fn step_u8_portable(crc: u32, byte: u8) -> u32 {
    TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8)
}

/// Raw CRC32C state update over one little-endian 8-byte word: the portable
/// twin of `_mm_crc32_u64`.
#[inline]
fn step_u64_portable(crc: u32, word: u64) -> u32 {
    let b = (word ^ u64::from(crc)).to_le_bytes();
    TABLES[7][b[0] as usize]
        ^ TABLES[6][b[1] as usize]
        ^ TABLES[5][b[2] as usize]
        ^ TABLES[4][b[3] as usize]
        ^ TABLES[3][b[4] as usize]
        ^ TABLES[2][b[5] as usize]
        ^ TABLES[1][b[6] as usize]
        ^ TABLES[0][b[7] as usize]
}

/// The lane kernel, generic over the two CRC32C state updates so the
/// hardware and the portable build share every line that decides *which*
/// bytes go *where* — the two can only differ inside `word` / `byte`.
///
/// The seed fills lanes 0 and 1; 8-byte word `k` of `data` feeds lane
/// `k % LANES`; a tail shorter than a word is fed bytewise to the lane the
/// next word would have used; `lo = fold(lane0, lane2, len)` and
/// `hi = fold(lane1, lane3, len)`. Each fold step is a bijection of the
/// state for a fixed input and of a 32-bit input for a fixed state, so a
/// change to one lane (or to either half of the seed) always changes the
/// result.
#[inline(always)]
fn lanes(
    seed: u64,
    data: &[u8],
    word: impl Fn(u32, u64) -> u32,
    byte: impl Fn(u32, u8) -> u32,
) -> u64 {
    let le = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    let mut c = [seed as u32, (seed >> 32) as u32, LANE_INIT, LANE_INIT];
    let mut blocks = data.chunks_exact(8 * LANES);
    for block in &mut blocks {
        c[0] = word(c[0], le(&block[0..8]));
        c[1] = word(c[1], le(&block[8..16]));
        c[2] = word(c[2], le(&block[16..24]));
        c[3] = word(c[3], le(&block[24..32]));
    }
    let mut lane = 0;
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        c[lane] = word(c[lane], le(w));
        lane += 1;
    }
    for &b in words.remainder() {
        c[lane] = byte(c[lane], b);
    }
    let len = data.len() as u64;
    let lo = word(word(c[0], u64::from(c[2])), len);
    let hi = word(word(c[1], u64::from(c[3])), len);
    u64::from(hi) << 32 | u64::from(lo)
}

fn crc32c64_portable(seed: u64, data: &[u8]) -> u64 {
    lanes(seed, data, step_u64_portable, step_u8_portable)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c64_sse42(seed: u64, data: &[u8]) -> u64 {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    lanes(
        seed,
        data,
        |crc, word| _mm_crc32_u64(u64::from(crc), word) as u32,
        |crc, byte| _mm_crc32_u8(crc, byte),
    )
}

/// Computes the 64-bit log-entry checksum of `data` (see the module docs).
///
/// # Examples
///
/// ```
/// use puddles_pmem::checksum::crc32c64;
/// assert_eq!(crc32c64(b"hello"), crc32c64(b"hello"));
/// assert_ne!(crc32c64(b"hello"), crc32c64(b"hellp"));
/// ```
#[inline]
pub fn crc32c64(data: &[u8]) -> u64 {
    crc32c64_with_seed(CRC_SEED, data)
}

/// Continues a [`crc32c64`] from a previous result: the checksum of a
/// header and its payload without copying them into one buffer. Every bit
/// of `seed` and of `data` influences the result; it is *not* the checksum
/// of the concatenation (the lanes restart at each call).
#[inline]
pub fn crc32c64_with_seed(seed: u64, data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the running CPU reports SSE4.2, the only requirement of
        // `crc32c64_sse42`.
        return unsafe { crc32c64_sse42(seed, data) };
    }
    crc32c64_portable(seed, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seeded_hash_equals_concatenated_hash() {
        let full = fnv1a64(b"header-payload");
        let part = fnv1a64_with_seed(fnv1a64(b"header-"), b"payload");
        assert_eq!(full, part);
    }

    #[test]
    fn type_ids_are_stable_and_distinct() {
        assert_eq!(type_id_for_name("Node"), type_id_for_name("Node"));
        assert_ne!(type_id_for_name("Node"), type_id_for_name("node"));
        assert_ne!(type_id_for_name("Node"), type_id_for_name("Tree"));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 256];
        let base = fnv1a64(&data);
        data[200] ^= 0x10;
        assert_ne!(base, fnv1a64(&data));
    }

    // ------------------------------------------------------------------
    // The CRC32C lane kernel.
    // ------------------------------------------------------------------

    /// The two state updates of one build of the kernel.
    type Steps = (fn(u32, u64) -> u32, fn(u32, u8) -> u32);

    const PORTABLE: Steps = (step_u64_portable, step_u8_portable);

    /// The hardware primitives behind plain function pointers, or `None`
    /// when this CPU has no SSE4.2.
    fn hardware() -> Option<Steps> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
            // SAFETY (both): reached only when the CPU reports SSE4.2.
            fn word(crc: u32, w: u64) -> u32 {
                unsafe { _mm_crc32_u64(u64::from(crc), w) as u32 }
            }
            fn byte(crc: u32, b: u8) -> u32 {
                unsafe { _mm_crc32_u8(crc, b) }
            }
            return Some((word, byte));
        }
        None
    }

    /// Standard single-lane CRC32C (initial and final inversion) built from
    /// one build's primitives: words first, the tail bytewise.
    fn single_lane(crc: u32, (word, byte): Steps, data: &[u8]) -> u32 {
        let mut state = !crc;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            state = word(state, u64::from_le_bytes(w.try_into().unwrap()));
        }
        for &b in words.remainder() {
            state = byte(state, b);
        }
        !state
    }

    #[test]
    fn crc32c_known_answer_on_the_single_lane_primitive() {
        // The check value of CRC-32C (iSCSI / RFC 3720).
        for steps in [Some(PORTABLE), hardware()].into_iter().flatten() {
            assert_eq!(single_lane(0, steps, b"123456789"), 0xE306_9283);
            assert_eq!(single_lane(0, steps, b""), 0);
            // 32 zero bytes, RFC 3720 B.4.
            assert_eq!(single_lane(0, steps, &[0u8; 32]), 0x8A91_36AA);
        }
    }

    #[test]
    fn single_lane_continuation_equals_the_concatenation() {
        // A true CRC composes: continuing from the state after the header
        // gives the CRC of header ‖ payload.
        for steps in [Some(PORTABLE), hardware()].into_iter().flatten() {
            let full = single_lane(0, steps, b"header--payload-bytes");
            let part = single_lane(single_lane(0, steps, b"header--"), steps, b"payload-bytes");
            assert_eq!(full, part);
        }
    }

    #[test]
    fn hardware_and_portable_kernels_are_bit_identical() {
        use rand::{Rng, SeedableRng};
        if hardware().is_none() {
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3_2C64);
        let mut buf = vec![0u8; 70_000 + 8];
        rng.fill(&mut buf);
        let check = |seed: u64, data: &[u8]| {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `hardware()` confirmed SSE4.2 above.
            let hw = unsafe { crc32c64_sse42(seed, data) };
            #[cfg(not(target_arch = "x86_64"))]
            let hw = crc32c64_with_seed(seed, data);
            assert_eq!(
                hw,
                crc32c64_portable(seed, data),
                "len {} misalignment {}",
                data.len(),
                data.as_ptr() as usize % 8
            );
            assert_eq!(hw, crc32c64_with_seed(seed, data), "dispatch");
        };
        // Every length around the lane and word boundaries, then random
        // lengths up to 70,000, each at all 8 start misalignments.
        let lengths = (0..=200usize)
            .chain([16 * 1024, 65_535, 70_000])
            .chain((0..120).map(|_| rng.gen_range(0..70_001usize)))
            .collect::<Vec<_>>();
        for len in lengths {
            let seed: u64 = rng.gen();
            for start in 0..8 {
                check(seed, &buf[start..start + len]);
            }
        }
    }

    #[test]
    fn seeded_continuation_depends_on_header_and_payload() {
        let header = *b"addr....sizeseq.okfgen..";
        let payload = [0x5Au8; 100];
        let sum = crc32c64_with_seed(crc32c64(&header), &payload);
        assert_eq!(sum, crc32c64_with_seed(crc32c64(&header), &payload));
        // Either half of the seed alone changes the result.
        let seed = crc32c64(&header);
        assert_ne!(sum, crc32c64_with_seed(seed ^ 1, &payload));
        assert_ne!(sum, crc32c64_with_seed(seed ^ (1 << 32), &payload));
        // Every single-bit flip of the header or the payload does.
        for bit in 0..header.len() * 8 {
            let mut h = header;
            h[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                sum,
                crc32c64_with_seed(crc32c64(&h), &payload),
                "header bit {bit}"
            );
        }
        for bit in 0..payload.len() * 8 {
            let mut p = payload;
            p[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum, crc32c64_with_seed(seed, &p), "payload bit {bit}");
        }
    }

    #[test]
    fn length_is_part_of_the_checksum() {
        // All-zero data of different lengths, and data against the same
        // data plus a trailing zero, must differ (a CRC alone would be
        // blind to leading zeros from a zero state).
        let zeros = [0u8; 96];
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=zeros.len() {
            assert!(
                seen.insert(crc32c64(&zeros[..len])),
                "length {len} collides"
            );
        }
        assert_ne!(crc32c64(b"ab"), crc32c64(b"ab\0"));
    }
}
