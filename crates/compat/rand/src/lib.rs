//! Offline stand-in for `rand` 0.8: `StdRng` (xoshiro256++ seeded through
//! SplitMix64), `SeedableRng::seed_from_u64`, and the `Rng` methods the
//! workspace uses (`gen_range`, `gen_bool`). Deterministic per seed, which
//! is all the simulator's jitter/workload generation requires.

#![forbid(unsafe_code)]

/// Core random source: 64 random bits per call.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Ranges that can be sampled to produce a `T`.
pub trait SampleRange<T> {
    /// Draw a uniform sample from the range.
    ///
    /// # Panics
    /// Panics on an empty range.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end - start) as u128 + 1;
                start + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
impl_sample_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample(self, rng: &mut dyn RngCore) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample(self, rng: &mut dyn RngCore) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        start + unit * (end - start)
    }
}

/// The high-level sampling methods.
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli trial with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<T: RngCore> Rng for T {}

/// Named RNGs.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++, seeded via SplitMix64 (the standard recommendation).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the 64-bit seed into full state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(0u64..=5);
            assert!(w <= 5);
            let f = r.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(7);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
