//! A vendored, dependency-free stand-in for the `proptest` crate.
//!
//! The workspace builds fully offline, so the property tests are executed by
//! this minimal shim instead of the real crate. It keeps the subset of the
//! API the tests were written against — `proptest!` with `pat in strategy`
//! bindings and an optional `proptest_config` attribute, `any`, ranges,
//! tuples, `Just`, `prop_oneof!`, `prop_map`, `collection::vec`, and the
//! `prop_assert*` macros — with deterministic case generation (every run
//! draws the same inputs for a given test name) and **no shrinking**: a
//! failing case panics with the generated values visible in the assertion
//! message.

#![forbid(unsafe_code)]

/// Strategy combinators: how arbitrary values are described.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// Describes how to generate values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy (what `prop_oneof!` arms collapse to).
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between equally weighted boxed alternatives.
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// Builds a union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for chunk in out.chunks_mut(8) {
                let w = rng.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&w[..n]);
            }
            out
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.unit() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident/$idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` of values from `element`, with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test configuration and the deterministic case RNG.
pub mod test_runner {
    /// Per-test configuration (`ProptestConfig` in the prelude).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of cases to run per test.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Deterministic generator (SplitMix64 seeded from the test path).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// An RNG fixed by the test's module path and case number, so every
        /// run of the suite replays identical inputs.
        pub fn deterministic(test_path: &str, case: u64) -> TestRng {
            let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_path.bytes() {
                seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be positive.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "below(0)");
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform value in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::strategy::{any, Any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: `fn name(binding in strategy, ...) { body }`.
///
/// An optional leading `#![proptest_config(...)]` sets the case count for
/// every test in the block.
#[macro_export]
macro_rules! proptest {
    (@impl $cfg:expr;) => {};
    (@impl $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::Config = $cfg;
            for case in 0..cfg.cases {
                let mut __proptest_rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    case as u64,
                );
                $(let $p = $crate::strategy::Strategy::generate(&($s), &mut __proptest_rng);)+
                $body
            }
        }
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::test_runner::Config::default(); $($rest)*);
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice between strategies that may have distinct types but a
/// common `Value`.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        use crate::test_runner::TestRng;
        let mut a = TestRng::deterministic("x", 3);
        let mut b = TestRng::deterministic("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u8..9, y in 1u8..=255, f in -2f64..2.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y >= 1);
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in crate::collection::vec(any::<u8>(), 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            Just(0u64),
            any::<u32>().prop_map(|x| x as u64 + 1),
        ]) {
            prop_assert!(v == 0 || v >= 1);
        }

        #[test]
        fn tuples_and_mut_bindings(mut v in (any::<u16>(), 0u32..5)) {
            v.0 = v.0.wrapping_add(1);
            prop_assert!(v.1 < 5);
        }
    }
}
