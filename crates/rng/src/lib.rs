//! Repo-owned deterministic pseudo-random number generation.
//!
//! Every stochastic component in the workspace — weight init, replay
//! sampling, exploration noise, bootstrap resampling, synthetic dataset
//! generation, Monte-Carlo posteriors — draws from [`DetRng`], a
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) generator owned
//! by this repository.
//!
//! # Why not an external `rand` crate?
//!
//! The EA-DRL evaluation protocol (rank rewards, Bayesian sign-rank
//! tests, ablation deltas) is only meaningful when a seed pins the
//! *exact* byte stream: Table II comparisons are re-run across machines
//! and the paper's figures must regenerate bit-identically. External
//! RNG crates explicitly reserve the right to change their `StdRng`
//! stream between versions, which silently re-rolls every seeded
//! experiment on upgrade. Owning the generator makes the stream part of
//! this repo's reproducibility contract:
//!
//! * **The stream is frozen.** `DetRng::seed_from_u64(s)` produces the
//!   same sequence on every platform, architecture, and compiler
//!   version, forever. Changing it is a breaking change to every
//!   recorded experiment and requires regenerating `EXPERIMENTS.md`.
//! * **Zero dependencies.** The workspace builds offline with nothing
//!   but `std`, matching the house style set by `eadrl-obs`.
//!
//! SplitMix64 is statistically solid for simulation workloads (passes
//! BigCrush when used as a 64-bit generator), trivially seedable from a
//! single `u64`, and `Copy`-cheap. It is **not** cryptographically
//! secure; nothing in this workspace needs that.
//!
//! # Example
//!
//! ```
//! use eadrl_rng::DetRng;
//!
//! let mut rng = DetRng::seed_from_u64(42);
//! let unit: f64 = rng.random();            // uniform in [0, 1)
//! let weight = rng.random_range(-0.1..0.1); // uniform in [-0.1, 0.1)
//! let idx = rng.random_range(0..10usize);   // uniform integer in [0, 10)
//! assert!((0.0..1.0).contains(&unit));
//! assert!((-0.1..0.1).contains(&weight));
//! assert!(idx < 10);
//! ```
#![forbid(unsafe_code)]

/// Deterministic SplitMix64 generator.
///
/// The output stream for a given seed is frozen — see the crate docs
/// for the reproducibility contract. Cloning is cheap and forks an
/// identical stream (both copies produce the same subsequent values).
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

/// Weyl-sequence increment from the SplitMix64 reference
/// implementation (`0x9E3779B97F4A7C15` = 2^64 / golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl DetRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    ///
    /// Distinct seeds — including adjacent ones like `s` and `s ^ 1` —
    /// yield well-separated streams thanks to the SplitMix64 output
    /// mixer.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            state: seed.wrapping_add(GOLDEN_GAMMA),
        }
    }

    /// Advances the state and returns the next 64 raw bits.
    ///
    /// This is the primitive every typed draw below is built on.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws a value of type `T` from its canonical distribution:
    /// `f64`/`f32` uniform in `[0, 1)`, `bool` fair coin, `u64` raw
    /// bits.
    pub fn random<T: Draw>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// Supported ranges: half-open and inclusive integer ranges over
    /// the primitive integer types, and half-open `f64`/`f32` ranges.
    /// Panics if the range is empty — an empty sampling range is a
    /// caller bug, never a data condition.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]` by the
    /// comparison itself: `p <= 0` never fires, `p >= 1` always fires).
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }

    /// Derives an independent substream identified by `index`, without
    /// advancing `self`.
    ///
    /// The substream is a pure function of the parent's current state
    /// and `index` — it does **not** depend on how many substreams were
    /// forked before it or in what order. This is the property parallel
    /// workloads need: a per-chunk/per-chain generator whose draws are
    /// identical no matter how work is split across threads
    /// (`parent.substream(i)` is the same stream whether chunk `i` runs
    /// first, last, or concurrently with its siblings).
    ///
    /// Like the main stream, substreams are part of the frozen
    /// reproducibility contract: the mapping `(state, index) → stream`
    /// must never change.
    #[must_use]
    pub fn substream(&self, index: u64) -> DetRng {
        // Avalanche the parent state through the SplitMix64 output mixer
        // so substreams of adjacent parents are uncorrelated, then place
        // `index` on its own Weyl sequence so adjacent indices land in
        // well-separated seeds.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng::seed_from_u64(z ^ index.wrapping_mul(GOLDEN_GAMMA))
    }
}

/// Types that can be drawn from a [`DetRng`] with a canonical
/// distribution. Implemented for `f64`, `f32`, `bool`, and `u64`.
pub trait Draw: Sized {
    /// Draws one value, consuming exactly one `next_u64` call.
    fn draw(rng: &mut DetRng) -> Self;
}

impl Draw for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision (the full f64
    /// mantissa), via the standard `(bits >> 11) * 2^-53` ladder.
    fn draw(rng: &mut DetRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Draw for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn draw(rng: &mut DetRng) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Draw for bool {
    /// Fair coin from the low bit.
    fn draw(rng: &mut DetRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Draw for u64 {
    /// The raw 64-bit output.
    fn draw(rng: &mut DetRng) -> u64 {
        rng.next_u64()
    }
}

/// Ranges a [`DetRng`] can sample uniformly. Implemented for integer
/// `Range`/`RangeInclusive` and float `Range`.
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    fn sample(self, rng: &mut DetRng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "empty sampling range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = ((rng.next_u64() as u128) % span) as i128 + self.start as i128;
                v as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty sampling range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = ((rng.next_u64() as u128) % span) as i128 + start as i128;
                v as $t
            }
        }
    )*}
}
int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut DetRng) -> f64 {
        let u: f64 = rng.random();
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample(self, rng: &mut DetRng) -> f32 {
        let u: f32 = rng.random();
        self.start + u * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream for seed 0 is part of the reproducibility contract
    /// (it equals reference SplitMix64 seeded with `GOLDEN_GAMMA`,
    /// because seeding pre-advances the Weyl state once). If this test
    /// ever fails, every recorded experiment in EXPERIMENTS.md is
    /// invalidated.
    #[test]
    fn stream_is_frozen_for_seed_zero() {
        let mut rng = DetRng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(rng.next_u64(), 0xF88B_B8A8_724C_81EC);
        assert_eq!(rng.next_u64(), 0x1B39_896A_51A8_749B);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(1234);
        let mut b = DetRng::seed_from_u64(1234);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn clone_forks_identical_stream() {
        let mut a = DetRng::seed_from_u64(7);
        a.next_u64();
        let mut b = a.clone();
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_live_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(99);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x), "{x} outside [0,1)");
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y), "{y} outside [0,1)");
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        // 20 equal-width bins over [0,1); 10k draws should hit them all.
        let mut rng = DetRng::seed_from_u64(5);
        let mut bins = [0usize; 20];
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            bins[(x * 20.0) as usize] += 1;
        }
        assert!(bins.iter().all(|&c| c > 300), "skewed bins: {bins:?}");
    }

    #[test]
    fn integer_ranges_stay_in_bounds_and_cover() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.random_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));

        let mut seen_inc = [false; 11];
        for _ in 0..1_000 {
            let v = rng.random_range(0..=10usize);
            seen_inc[v] = true;
        }
        assert!(seen_inc.iter().all(|&s| s));

        for _ in 0..1_000 {
            let v = rng.random_range(-5..5i64);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = DetRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let v = rng.random_range(-2.5..7.5f64);
            assert!((-2.5..7.5).contains(&v));
        }
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = DetRng::seed_from_u64(17);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "p=0.25 gave {hits}/10000");
        assert_eq!((0..100).filter(|_| rng.random_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| rng.random_bool(1.5)).count(), 100);
    }

    #[test]
    #[should_panic(expected = "empty sampling range")]
    fn empty_range_panics() {
        let mut rng = DetRng::seed_from_u64(1);
        let _ = rng.random_range(3..3usize);
    }

    /// Substreams for seed 0 are part of the frozen reproducibility
    /// contract, same as the main stream: the mapping must never change.
    #[test]
    fn substreams_are_frozen_for_seed_zero() {
        let rng = DetRng::seed_from_u64(0);
        assert_eq!(rng.substream(0).next_u64(), 0xB382_A305_F441_4F5E);
        assert_eq!(rng.substream(1).next_u64(), 0x20A4_03A0_B1A9_1D80);
        assert_eq!(rng.substream(2).next_u64(), 0x1C40_0665_0BA6_5785);
    }

    #[test]
    fn substream_does_not_advance_parent() {
        let mut a = DetRng::seed_from_u64(9);
        let mut b = DetRng::seed_from_u64(9);
        let _ = a.substream(3);
        let _ = a.substream(7);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn substreams_depend_only_on_state_and_index() {
        let parent = DetRng::seed_from_u64(21);
        // Forking in any order, any number of times, yields the same
        // stream per index.
        let mut first = parent.substream(5);
        let _ = parent.substream(0);
        let mut again = parent.substream(5);
        for _ in 0..32 {
            assert_eq!(first.next_u64(), again.next_u64());
        }
    }

    #[test]
    fn substreams_with_distinct_indices_diverge() {
        let parent = DetRng::seed_from_u64(3);
        let mut a = parent.substream(0);
        let mut b = parent.substream(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
