//! Query workloads: exact-match and range queries.
//!
//! The paper executes 1000 exact queries and 1000 range queries per
//! configuration and reports the average message cost (§V).

use baton_net::SimRng;

use crate::keys::{KeyDistribution, KeyGenerator};

/// One query of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Exact-match query for a key.
    Exact(u64),
    /// Range query `[low, high)`.
    Range {
        /// Inclusive lower bound.
        low: u64,
        /// Exclusive upper bound.
        high: u64,
    },
}

/// Parameters of a query workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryWorkload {
    /// Number of exact-match queries.
    pub exact_queries: usize,
    /// Number of range queries.
    pub range_queries: usize,
    /// Width of each range query as a fraction of the domain (the paper does
    /// not state its selectivity; 0.1% of the domain covers a handful of
    /// nodes at the evaluated scales, matching the `O(log N + X)` regime).
    pub range_selectivity: f64,
    /// Distribution the query points are drawn from.
    pub distribution: KeyDistribution,
}

impl Default for QueryWorkload {
    fn default() -> Self {
        Self {
            exact_queries: 1000,
            range_queries: 1000,
            range_selectivity: 0.001,
            distribution: KeyDistribution::Uniform,
        }
    }
}

impl QueryWorkload {
    /// The paper's workload: 1000 exact + 1000 range queries, uniform.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Scales the number of queries by `factor` (used by the fast test /
    /// bench profiles), keeping at least one query of each kind.
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            exact_queries: ((self.exact_queries as f64 * factor) as usize).max(1),
            range_queries: ((self.range_queries as f64 * factor) as usize).max(1),
            ..self
        }
    }

    /// Generates the exact-match queries.
    pub fn exact(&self, rng: &mut SimRng) -> Vec<Query> {
        let generator = KeyGenerator::paper(self.distribution);
        (0..self.exact_queries)
            .map(|_| Query::Exact(generator.next_key(rng)))
            .collect()
    }

    /// Generates the range queries.
    pub fn ranges(&self, rng: &mut SimRng) -> Vec<Query> {
        let generator = KeyGenerator::paper(self.distribution);
        let domain_width = crate::keys::DOMAIN_HIGH - crate::keys::DOMAIN_LOW;
        let width = ((domain_width as f64 * self.range_selectivity) as u64).max(1);
        (0..self.range_queries)
            .map(|_| {
                let low = generator.next_key(rng);
                let high = low.saturating_add(width).min(crate::keys::DOMAIN_HIGH);
                Query::Range { low, high }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_sizes() {
        let w = QueryWorkload::paper();
        assert_eq!(w.exact_queries, 1000);
        assert_eq!(w.range_queries, 1000);
        let mut rng = SimRng::seeded(1);
        assert_eq!(w.exact(&mut rng).len(), 1000);
        assert_eq!(w.ranges(&mut rng).len(), 1000);
    }

    #[test]
    fn scaled_keeps_at_least_one_query() {
        let w = QueryWorkload::paper().scaled(0.0001);
        assert_eq!(w.exact_queries, 1);
        assert_eq!(w.range_queries, 1);
        let half = QueryWorkload::paper().scaled(0.5);
        assert_eq!(half.exact_queries, 500);
    }

    #[test]
    fn range_queries_have_the_requested_width() {
        let w = QueryWorkload {
            range_queries: 100,
            range_selectivity: 0.01,
            ..QueryWorkload::paper()
        };
        let mut rng = SimRng::seeded(2);
        for q in w.ranges(&mut rng) {
            match q {
                Query::Range { low, high } => {
                    assert!(high > low);
                    assert!(high - low <= (crate::keys::DOMAIN_HIGH / 100) + 1);
                }
                Query::Exact(_) => panic!("expected ranges"),
            }
        }
    }

    #[test]
    fn queries_are_deterministic_per_seed() {
        let w = QueryWorkload::paper();
        assert_eq!(
            w.exact(&mut SimRng::seeded(3)),
            w.exact(&mut SimRng::seeded(3))
        );
        assert_ne!(
            w.exact(&mut SimRng::seeded(3)),
            w.exact(&mut SimRng::seeded(4))
        );
    }
}
