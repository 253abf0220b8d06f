//! Key generators: uniform and Zipfian, over the paper's `[1, 10^9)` domain.
//!
//! The paper loads each network with `1000 × N` values drawn uniformly from
//! `[1, 10^9)` and, for the load-balancing experiment (§V-D), with a skewed
//! dataset "generated by Zipfian method with parameter 1.0".

use rand::Rng;

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
    /// Cumulative distribution over `zipf_slots` buckets (empty for uniform).
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
                let mut weights: Vec<f64> = (1..=Self::ZIPF_SLOTS)
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
    pub fn next_key<R: Rng>(&self, rng: &mut R) -> u64 {
        match self.distribution {
            KeyDistribution::Uniform => rng.gen_range(self.low..self.high),
            KeyDistribution::Zipf { .. } => {
                let u: f64 = rng.gen();
                // Binary search the CDF for the bucket, then pick a uniform
                // key inside the bucket so that duplicates stay plausible.
                let slot = self.cdf.partition_point(|&c| c < u);
                let slot = slot.min(Self::ZIPF_SLOTS - 1);
                let width = (self.high - self.low).max(1);
                let slot_width = (width / Self::ZIPF_SLOTS as u64).max(1);
                let slot_low = self.low + slot as u64 * slot_width;
                let slot_high = (slot_low + slot_width).min(self.high);
                if slot_low + 1 >= slot_high {
                    slot_low.min(self.high - 1)
                } else {
                    rng.gen_range(slot_low..slot_high)
                }
            }
        }
    }

    /// Draws `count` keys.
    pub fn keys<R: Rng>(&self, rng: &mut R, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.next_key(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_net::SimRng;

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
    #[should_panic(expected = "empty key domain")]
    fn empty_domain_panics() {
        KeyGenerator::new(5, 5, KeyDistribution::Uniform);
    }
}
