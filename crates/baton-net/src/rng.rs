//! Deterministic random number generation shared by every crate in the
//! workspace.
//!
//! The paper runs each experiment 10 times with different join/leave
//! sequences and averages the results.  To make those repetitions
//! reproducible, every source of randomness in this workspace goes through a
//! [`SimRng`] seeded explicitly by the harness.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The SplitMix64 finalizer: a cheap, well-distributed bijection on `u64`,
/// shared by seed derivation ([`SimRng::derive`]) and the stateless
/// peer-to-region hash ([`RegionMap`](crate::time::RegionMap)).
pub(crate) fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random number generator with convenience helpers used across the
/// workspace (uniform keys, index selection, Bernoulli trials, shuffles).
#[derive(Clone, Debug)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent generator for a sub-component, mixing `salt`
    /// into the seed so different components get uncorrelated streams.
    pub fn derive(&self, salt: u64) -> Self {
        // SplitMix64-style mixing keeps derived seeds well distributed even
        // for small consecutive salts.
        Self::seeded(splitmix64_finalize(
            self.seed
                .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// Uniform value in `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low >= high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "uniform_u64 requires low < high");
        self.inner.gen_range(low..high)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform index in `[0, len)`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index requires a non-empty range");
        self.inner.gen_range(0..len)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Picks a uniformly random element of `slice`, or `None` when empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let idx = self.index(slice.len());
            Some(&slice[idx])
        }
    }

    /// Fisher–Yates shuffle of a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_identical_streams() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_produces_uncorrelated_but_deterministic_children() {
        let parent = SimRng::seeded(7);
        let c1a = parent.derive(1).next_u64_fresh();
        let c1b = parent.derive(1).next_u64_fresh();
        let c2 = parent.derive(2).next_u64_fresh();
        assert_eq!(c1a, c1b);
        assert_ne!(c1a, c2);
    }

    impl SimRng {
        fn next_u64_fresh(mut self) -> u64 {
            self.next_u64()
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seeded(3);
        for _ in 0..1000 {
            let v = rng.uniform_u64(10, 20);
            assert!((10..20).contains(&v));
        }
        for _ in 0..1000 {
            let f = rng.uniform_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn uniform_panics_on_empty_range() {
        let mut rng = SimRng::seeded(0);
        rng.uniform_u64(5, 5);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seeded(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn pick_and_index() {
        let mut rng = SimRng::seeded(11);
        let items = [10, 20, 30, 40];
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(*rng.pick(&items).unwrap());
        }
        assert_eq!(seen.len(), items.len());
        let empty: [i32; 0] = [];
        assert!(rng.pick(&empty).is_none());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seeded(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut rng = SimRng::seeded(13);
        let mut empty: Vec<u32> = vec![];
        rng.shuffle(&mut empty);
        let mut one = vec![1];
        rng.shuffle(&mut one);
        assert_eq!(one, vec![1]);
    }
}
