//! In-workspace stand-in for the `rand` crate (0.8-style API subset).
//!
//! The build environment has no access to crates.io, so this crate
//! implements the pieces the workspace uses: [`Rng::gen`],
//! [`Rng::gen_range`], [`Rng::gen_bool`], [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`], [`seq::SliceRandom::shuffle`], and [`random`]. The
//! generator is xoshiro256++ seeded via splitmix64 — not cryptographically
//! secure, which matches how the workspace uses randomness (test workloads,
//! benchmark key sequences, and id salts).

use std::ops::Range;

/// A source of random 64-bit values.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from an [`RngCore`].
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types usable as `gen_range` bounds.
pub trait SampleUniform: Copy {
    /// Draws a value uniformly from `[low, high)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                // Multiply-shift bounded sampling (Lemire); the slight bias
                // is irrelevant for workload generation.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                ((low as $wide).wrapping_add(v as $wide)) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
                     i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

/// The user-facing random-number interface.
pub trait Rng: RngCore {
    /// Draws one uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range` (half-open).
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Fills `dest` with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn entropy_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let stack_probe = 0u8;
    let mut s = nanos
        ^ (std::process::id() as u64).rotate_left(32)
        ^ (&stack_probe as *const u8 as u64).rotate_left(16)
        ^ SEQ.fetch_add(0x9e37_79b9, Ordering::Relaxed);
    splitmix64(&mut s)
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Slice helpers, mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// Random-order operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..(i + 1) as u64) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len() as u64) as usize])
            }
        }
    }
}

/// Draws one uniformly distributed value from fresh entropy.
pub fn random<T: Standard>() -> T {
    T::sample(&mut rngs::StdRng::seed_from_u64(entropy_seed()))
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = rngs::StdRng::seed_from_u64(1);
        let mut b = rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let i = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn f64_samples_are_in_unit_interval() {
        let mut rng = rngs::StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = rngs::StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in sorted order");
    }

    #[test]
    fn random_values_vary() {
        let a: u64 = random();
        let b: u64 = random();
        assert_ne!(a, b);
    }
}
