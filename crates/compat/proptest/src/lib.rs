//! Offline stand-in for `proptest`: the subset the workspace's property
//! tests use — the `proptest!` macro, `Strategy` with `prop_map`, range and
//! tuple strategies, `collection::vec`, and `prop_assert*`.
//!
//! Differences from real proptest: case generation is a fixed deterministic
//! PRNG stream seeded from the test name (stable across runs and machines),
//! and there is **no shrinking** — a failing case prints its seed/index via
//! the assert message instead. Default case count is 64.

#![forbid(unsafe_code)]

/// Deterministic per-test random source (SplitMix64).
pub struct TestRng {
    x: u64,
}

impl TestRng {
    /// Seed from a test name (FNV-1a hash), so every test gets a stable,
    /// distinct stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { x: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end - start) as u128 + 1;
                start + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        start + unit * (end - start)
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification: an exact `usize` or a `Range<usize>`.
    pub trait SizeRange {
        /// Draw a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The common imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestRng};
}

/// Assert within a property (plain assert here — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Equality assert within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Inequality assert within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Declare property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]`-style function running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`].
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; ) => {};
    (cfg = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident( $($parm:pat in $strategy:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $( let $parm = $crate::Strategy::generate(&($strategy), &mut __rng); )+
                { $body }
            }
        }
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(a in 0u64..10, b in 5usize..=9, f in 0.0f64..=1.0) {
            prop_assert!(a < 10);
            prop_assert!((5..=9).contains(&b));
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn vec_and_map_compose(v in collection::vec(0u64..100, 3usize).prop_map(|v| v.len())) {
            prop_assert_eq!(v, 3);
        }

        #[test]
        fn tuples_and_mut_patterns(mut pair in (0usize..4, 0usize..4)) {
            pair.0 += 1;
            prop_assert!(pair.0 <= 4 && pair.1 < 4);
        }
    }

    #[test]
    fn config_cases_respected() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]
            fn three_cases(_x in 0u64..10) {}
        }
        three_cases();
    }

    #[test]
    fn deterministic_streams() {
        let mut a = TestRng::deterministic("t");
        let mut b = TestRng::deterministic("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
