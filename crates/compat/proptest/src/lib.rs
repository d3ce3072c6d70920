//! In-workspace stand-in for the `proptest` crate.
//!
//! Supports the API subset the workspace uses: the [`proptest!`] macro over
//! functions with a single `ident in strategy` binding, range and tuple
//! strategies, [`collection::vec`], [`ProptestConfig::with_cases`], and the
//! `prop_assert*` macros. Each case runs with a seeded, per-case-index RNG,
//! so failures are reproducible; there is no shrinking.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random test inputs.
pub trait Strategy {
    /// The generated input type.
    type Value;

    /// Draws one input.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Range, StdRng, Strategy};
    use rand::Rng;

    /// Strategy producing vectors with lengths drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element` inputs with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.gen_range(self.len.start..self.len.end);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[doc(hidden)]
pub fn __run_property<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    body: impl Fn(S::Value),
) {
    for case in 0..config.cases {
        // Deterministic per-case seed so a failing case is reproducible.
        let mut rng = StdRng::seed_from_u64(0x70726f70 ^ (case as u64) << 16 ^ name.len() as u64);
        let input = strategy.sample(&mut rng);
        body(input);
    }
}

/// Declares property tests (`proptest!` macro subset).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($arg:ident in $strategy:expr) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::__run_property(&$config, stringify!($name), &$strategy, |$arg| $body);
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($arg:ident in $strategy:expr) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($arg in $strategy) $body
            )*
        }
    };
}

/// Asserts inside a property (panics, aborting the run).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(v in 5usize..50) {
            prop_assert!((5..50).contains(&v));
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec((1usize..10, 0u8..3), 2..7) ) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            for (a, b) in v {
                prop_assert!((1..10).contains(&a));
                prop_assert!(b < 3);
            }
        }
    }
}
