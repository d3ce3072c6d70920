//! Small helpers shared across the workspace: alignment and the one
//! SplitMix64 mixer.

/// Rounds `value` up to the next multiple of `align`.
///
/// `align` must be a power of two.
///
/// # Examples
///
/// ```
/// assert_eq!(puddles_pmem::util::align_up(10, 8), 16);
/// assert_eq!(puddles_pmem::util::align_up(16, 8), 16);
/// ```
#[inline]
pub const fn align_up(value: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (value + align - 1) & !(align - 1)
}

/// SplitMix64's increment: 2^64 divided by the golden ratio, rounded to
/// odd.
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's finalizer (public-domain constants): a bijection on `u64`
/// with good avalanche, so sequential or XOR-combined inputs come out
/// decorrelated. The workspace's one copy; the generators that need random
/// bits (fault plans, torture, retry jitter) draw through it.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One SplitMix64 draw keyed by `x`: `mix64(x + GOLDEN)`. A generator
/// whose state steps by [`GOLDEN`] returns `mix64(state)` after each step.
#[inline]
pub const fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_rounds_to_multiple() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of the reference SplitMix64 generator seeded
        // with 0 (state += GOLDEN, then the finalizer).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GOLDEN), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix64(0), 0);
    }
}
