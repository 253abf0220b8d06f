//! Key generators: uniform and Zipfian, over the paper's `[1, 10^9)` domain.
//!
//! The paper loads each network with `1000 × N` values drawn uniformly from
//! `[1, 10^9)` and, for the load-balancing experiment (§V-D), with a skewed
//! dataset "generated by Zipfian method with parameter 1.0".

use baton_net::SimRng;

/// The paper's key domain: `[1, 10^9)`.
pub const DOMAIN_LOW: u64 = 1;
/// Exclusive upper bound of the paper's key domain.
pub const DOMAIN_HIGH: u64 = 1_000_000_000;

/// Distribution of generated keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDistribution {
    /// Keys drawn uniformly from the domain.
    Uniform,
    /// Keys drawn from a Zipfian distribution with the given exponent
    /// (`theta`), concentrating probability mass on a small part of the
    /// domain — the paper uses `theta = 1.0`.
    Zipf {
        /// Zipf exponent.
        theta: f64,
    },
}

/// A deterministic key generator over `[low, high)`.
#[derive(Clone, Debug)]
pub struct KeyGenerator {
    low: u64,
    high: u64,
    distribution: KeyDistribution,
    /// Cumulative distribution over the Zipf buckets (empty for uniform):
    /// [`Self::ZIPF_SLOTS`] of them, or one per key on a narrower window.
    cdf: Vec<f64>,
}

impl KeyGenerator {
    /// Number of Zipf buckets the domain is divided into.  10,000 buckets
    /// keep the CDF table small while giving the skew plenty of resolution
    /// relative to the node counts used in the paper (≤ 10,000 nodes).
    pub const ZIPF_SLOTS: usize = 10_000;

    /// Creates a generator over the paper's domain.
    pub fn paper(distribution: KeyDistribution) -> Self {
        Self::new(DOMAIN_LOW, DOMAIN_HIGH, distribution)
    }

    /// Creates a generator over `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low >= high`.
    pub fn new(low: u64, high: u64, distribution: KeyDistribution) -> Self {
        assert!(low < high, "empty key domain");
        let cdf = match distribution {
            KeyDistribution::Uniform => Vec::new(),
            KeyDistribution::Zipf { theta } => {
                let slots = (Self::ZIPF_SLOTS as u64).min(high - low);
                let mut weights: Vec<f64> = (1..=slots)
                    .map(|rank| 1.0 / (rank as f64).powf(theta))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                for w in &mut weights {
                    acc += *w / total;
                    *w = acc;
                }
                weights
            }
        };
        Self {
            low,
            high,
            distribution,
            cdf,
        }
    }

    /// Draws one key.
    pub fn next_key(&self, rng: &mut SimRng) -> u64 {
        match self.distribution {
            KeyDistribution::Uniform => rng.uniform_u64(self.low, self.high),
            KeyDistribution::Zipf { .. } => {
                let u = rng.uniform_f64();
                // Binary search the CDF for the bucket, then pick a uniform
                // key inside the bucket so that duplicates stay plausible.
                // There are never more buckets than keys, so every bucket
                // holds at least one key and lies inside the window.
                let slots = self.cdf.len();
                let slot = self.cdf.partition_point(|&c| c < u).min(slots - 1);
                let slot_width = (self.high - self.low) / slots as u64;
                let slot_low = self.low + slot as u64 * slot_width;
                let slot_high = slot_low + slot_width;
                if slot_width == 1 {
                    slot_low
                } else {
                    rng.uniform_u64(slot_low, slot_high)
                }
            }
        }
    }

    /// Draws `count` keys.
    pub fn keys(&self, rng: &mut SimRng, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.next_key(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_stay_in_domain_and_spread_out() {
        let generator = KeyGenerator::paper(KeyDistribution::Uniform);
        let mut rng = SimRng::seeded(1);
        let keys = generator.keys(&mut rng, 10_000);
        assert!(keys.iter().all(|k| (DOMAIN_LOW..DOMAIN_HIGH).contains(k)));
        // Roughly uniform: each half of the domain gets 40–60%.
        let mid = DOMAIN_HIGH / 2;
        let lower = keys.iter().filter(|k| **k < mid).count();
        assert!((3_500..6_500).contains(&lower), "lower half got {lower}");
    }

    #[test]
    fn zipf_keys_are_heavily_skewed() {
        let generator = KeyGenerator::paper(KeyDistribution::Zipf { theta: 1.0 });
        let mut rng = SimRng::seeded(2);
        let keys = generator.keys(&mut rng, 10_000);
        assert!(keys.iter().all(|k| (DOMAIN_LOW..DOMAIN_HIGH).contains(k)));
        // With theta = 1.0 over 10^4 buckets, the first 1% of the domain
        // should receive far more than 1% of the keys.
        let first_percent = DOMAIN_LOW + (DOMAIN_HIGH - DOMAIN_LOW) / 100;
        let hits = keys.iter().filter(|k| **k < first_percent).count();
        assert!(
            hits > 2_000,
            "Zipf(1.0) put only {hits}/10000 keys in the first 1% of the domain"
        );
    }

    #[test]
    fn zipf_is_more_skewed_with_larger_theta() {
        let mut rng = SimRng::seeded(3);
        let z1 = KeyGenerator::paper(KeyDistribution::Zipf { theta: 0.5 });
        let z2 = KeyGenerator::paper(KeyDistribution::Zipf { theta: 1.5 });
        let first_percent = DOMAIN_LOW + (DOMAIN_HIGH - DOMAIN_LOW) / 100;
        let hits1 = z1
            .keys(&mut rng, 5_000)
            .iter()
            .filter(|k| **k < first_percent)
            .count();
        let hits2 = z2
            .keys(&mut rng, 5_000)
            .iter()
            .filter(|k| **k < first_percent)
            .count();
        assert!(hits2 > hits1);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let generator = KeyGenerator::paper(KeyDistribution::Zipf { theta: 1.0 });
        let a = generator.keys(&mut SimRng::seeded(7), 100);
        let b = generator.keys(&mut SimRng::seeded(7), 100);
        let c = generator.keys(&mut SimRng::seeded(8), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn custom_domain_is_respected() {
        let generator = KeyGenerator::new(100, 200, KeyDistribution::Uniform);
        let mut rng = SimRng::seeded(9);
        assert!(generator
            .keys(&mut rng, 1000)
            .iter()
            .all(|k| (100..200).contains(k)));
    }

    #[test]
    fn zipf_on_a_narrow_window_stays_inside_it() {
        let zipf = KeyDistribution::Zipf { theta: 1.0 };
        let generator = KeyGenerator::new(1000, 1100, zipf);
        let mut rng = SimRng::seeded(4);
        let keys = generator.keys(&mut rng, 10_000);
        assert!(keys.iter().all(|k| (1000..1100).contains(k)));
        // One bucket per key: key `1000 + r` has the Zipf weight of rank
        // `r + 1`, so the top key no longer collects the clamped tail.
        let harmonic: f64 = (1..=100).map(|rank| 1.0 / rank as f64).sum();
        for (offset, expected) in [(0, 1.0), (1, 0.5), (99, 0.01)] {
            let share = keys.iter().filter(|&&k| k == 1000 + offset).count() as f64 / 1e4;
            assert!(
                (share - expected / harmonic).abs() < 0.02,
                "key {} took {share}",
                1000 + offset
            );
        }

        let top = KeyGenerator::new(u64::MAX - 100, u64::MAX, zipf);
        let keys = top.keys(&mut rng, 1_000);
        assert!(keys.iter().all(|k| (u64::MAX - 100..u64::MAX).contains(k)));
        assert!(keys.iter().filter(|&&k| k == u64::MAX - 1).count() <= 20);
    }

    #[test]
    #[should_panic(expected = "empty key domain")]
    fn empty_domain_panics() {
        KeyGenerator::new(5, 5, KeyDistribution::Uniform);
    }
}
