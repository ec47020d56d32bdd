//! Working offline stand-in for the slice of `rand` 0.8 that the
//! `workload` crate uses, for the authz-bench build.
//!
//! `StdRng` here is xoshiro256** seeded through SplitMix64, not ChaCha12,
//! so a seed yields a different (still deterministic) stream than the real
//! crate: generated enterprises differ from the ones a registry build
//! makes for the same seed. Range sampling uses a multiply-shift without
//! rejection; its bias is below 2^-32 for the spans the generators ask for.
//! Only what `workload` calls exists: integer `gen_range`, `gen_bool`,
//! `shuffle`.

use distributions::uniform::{SampleRange, SampleUniform};

/// Source of random bits.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    /// Build the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range`. Panics on an empty range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`. Panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Map 64 random bits to `[0, 1)` with 53 bits of precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

pub mod rngs {
    //! Concrete generators.

    /// The default seedable generator (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            // SplitMix64 expands the seed; it never yields four zeros.
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }
}

pub mod distributions {
    //! Uniform ranges.

    pub mod uniform {
        //! Uniform sampling from `a..b` and `a..=b`.

        use crate::Rng;

        /// Types `gen_range` can sample.
        pub trait SampleUniform: Sized {
            /// Uniform sample from `low..high` (`high` included when
            /// `inclusive`). Panics on an empty range.
            fn sample_between<R: Rng + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self;
        }

        /// Range forms accepted by `gen_range`.
        pub trait SampleRange<T> {
            /// Draw one value from the range.
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        }

        // Generic over `T` exactly like real rand: per-type impls would
        // leave integer-literal ranges ambiguous during inference.
        impl<T: SampleUniform + PartialOrd> SampleRange<T> for core::ops::Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                T::sample_between(self.start, self.end, false, rng)
            }
        }
        impl<T: SampleUniform + PartialOrd> SampleRange<T> for core::ops::RangeInclusive<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                let (low, high) = self.into_inner();
                T::sample_between(low, high, true, rng)
            }
        }

        macro_rules! uniform_int {
            ($($t:ty => $wide:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_between<R: Rng + ?Sized>(
                        low: $t,
                        high: $t,
                        inclusive: bool,
                        rng: &mut R,
                    ) -> $t {
                        assert!(
                            if inclusive { low <= high } else { low < high },
                            "gen_range: empty range"
                        );
                        // Span as an unsigned 128-bit count of values.
                        let span = (high as $wide - low as $wide) as u128 + u128::from(inclusive);
                        let offset = (u128::from(rng.next_u64()) * span) >> 64;
                        (low as $wide + offset as $wide) as $t
                    }
                }
            )*};
        }
        uniform_int!(
            u8 => i128, u16 => i128, u32 => i128, u64 => i128, usize => i128,
            i8 => i128, i16 => i128, i32 => i128, i64 => i128, isize => i128
        );
    }
}

pub mod seq {
    //! Slice helpers.

    use crate::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

pub mod prelude {
    //! Common imports.
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.gen_range(0..1000)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen_range(0..1000)).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen_range(0..1000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..10_000 {
            assert!((3..7).contains(&a.gen_range(3..7usize)));
            assert!((-2..=2).contains(&a.gen_range(-2..=2i32)));
        }
        assert_eq!(a.gen_range(5..=5u8), 5);
        assert!(!a.gen_bool(0.0));
        assert!(a.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation_and_gen_bool_tracks_p() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.2)).count();
        assert!((19_000..21_000).contains(&hits), "{hits}");
    }
}
