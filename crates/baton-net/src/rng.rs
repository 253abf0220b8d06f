//! Deterministic random number generation shared by every crate in the
//! workspace.
//!
//! The paper runs each experiment 10 times with different join/leave
//! sequences and averages the results.  To make those repetitions
//! reproducible, every source of randomness in this workspace goes through a
//! [`SimRng`] seeded explicitly by the harness.
//!
//! This module is the only place that knows the algorithm:
//!
//! * the generator is xoshiro256**, its four state words filled by four
//!   consecutive SplitMix64 outputs of the seed;
//! * an integer draw in `[low, high)` takes a 128-bit value (high word
//!   drawn first) modulo the span, so `[0, u64::MAX)` needs no special
//!   case and the bias is far below anything a test can observe;
//! * a float draw keeps the top 53 bits of one output, scaled into
//!   `[0, 1)`.
//!
//! Every seeded run, fixture and pinned counter in the workspace reads this
//! stream, so `sim_rng_streams_are_pinned` fixes its digest: a change to
//! the algorithm, the seeding or a mapping fails that test.

/// The SplitMix64 finalizer: a cheap, well-distributed bijection on `u64`,
/// shared by seeding ([`SimRng::seeded`], [`SimRng::derive`]) and the
/// stateless peer-to-region hash ([`RegionMap`](crate::time::RegionMap)).
pub(crate) fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 increment (the golden-ratio constant).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A seeded xoshiro256** generator with the helpers used across the
/// workspace (uniform keys, index selection, Bernoulli trials, shuffles).
#[derive(Clone, Debug)]
pub struct SimRng {
    seed: u64,
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from an explicit seed.
    ///
    /// The state words are four consecutive SplitMix64 outputs.  The
    /// finalizer is a bijection and the four inputs differ, so at most one
    /// word is zero and the state is never the all-zero fixed point.
    pub fn seeded(seed: u64) -> Self {
        let mut state = seed;
        let s = [(); 4].map(|()| {
            state = state.wrapping_add(GOLDEN_GAMMA);
            splitmix64_finalize(state)
        });
        Self { seed, s }
    }

    /// Derives an independent generator for a sub-component, mixing `salt`
    /// into the seed so different components get uncorrelated streams.
    pub fn derive(&self, salt: u64) -> Self {
        // SplitMix64-style mixing keeps derived seeds well distributed even
        // for small consecutive salts.
        Self::seeded(splitmix64_finalize(
            self.seed.wrapping_add(salt.wrapping_mul(GOLDEN_GAMMA)),
        ))
    }

    /// The next raw 64-bit output (one xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
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

    /// A value in `[0, span)`: a 128-bit draw, high word first, modulo
    /// `span`.
    fn below(&mut self, span: u128) -> u128 {
        let high = u128::from(self.next_u64());
        let draw = (high << 64) | u128::from(self.next_u64());
        draw % span
    }

    /// Uniform value in `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low >= high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "uniform_u64 requires low < high");
        low + self.below(u128::from(high - low)) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, len)`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index requires a non-empty range");
        self.below(len as u128) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform_f64() < p
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
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
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
        let c1a = parent.derive(1).next_u64();
        let c1b = parent.derive(1).next_u64();
        let c2 = parent.derive(2).next_u64();
        assert_eq!(c1a, c1b);
        assert_ne!(c1a, c2);
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
    fn top_of_domain_draws_stay_in_bounds() {
        let mut rng = SimRng::seeded(2);
        for _ in 0..200 {
            assert_eq!(rng.uniform_u64(u64::MAX - 1, u64::MAX), u64::MAX - 1);
            rng.uniform_u64(0, u64::MAX);
        }
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = SimRng::seeded(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.index(8)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
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

    /// FNV-1a over every draw kind the workspace makes, for four seeds:
    /// any change to the algorithm, the seeding or a draw's mapping moves
    /// the digest.  The constant was recorded from the vendored `rand`
    /// stand-in's xoshiro256** before the generator moved here.
    #[test]
    fn sim_rng_streams_are_pinned() {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |value: u64| {
            for byte in value.to_le_bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for seed in [0, 1, 2005, u64::MAX] {
            let mut rng = SimRng::seeded(seed);
            for _ in 0..1_000 {
                fold(rng.next_u64());
                fold(rng.uniform_u64(10, 1_000_000_000));
                fold(rng.uniform_u64(0, u64::MAX));
                fold(rng.uniform_f64().to_bits());
                fold(rng.index(7) as u64);
                fold(u64::from(rng.chance(0.3)));
            }
            let mut order: Vec<u64> = (0..100).collect();
            rng.shuffle(&mut order);
            order.into_iter().for_each(&mut fold);
            fold(rng.derive(3).next_u64());
        }
        assert_eq!(digest, 0xc865_43e0_7a29_6735, "{digest:016x}");
    }

    #[test]
    fn shuffle_can_place_every_element_at_every_position() {
        let mut rng = SimRng::seeded(17);
        let mut seen = [[false; 6]; 6];
        for _ in 0..2_000 {
            let mut v: Vec<usize> = (0..6).collect();
            rng.shuffle(&mut v);
            for (position, &element) in v.iter().enumerate() {
                seen[element][position] = true;
            }
        }
        assert!(seen.iter().flatten().all(|&hit| hit), "{seen:?}");
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
