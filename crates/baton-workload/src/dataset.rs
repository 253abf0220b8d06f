//! Dataset plans: the bulk loads the paper applies before measuring.
//!
//! "For a network of size N, 1000 × N data values in the domain of
//! [1, 1000000000) are inserted in batches." (§V)  Running that volume for
//! every configuration is what the paper's testbed did; the harness scales
//! it down by a configurable factor for the fast profiles while keeping the
//! full-scale plan available.

use baton_net::SimRng;

use crate::keys::{KeyDistribution, KeyGenerator};

/// A bulk-load plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetPlan {
    /// Number of values to insert per node of the network (the paper uses
    /// 1000).
    pub values_per_node: usize,
    /// Distribution of the inserted keys.
    pub distribution: KeyDistribution,
}

impl DatasetPlan {
    /// The paper's uniform bulk load: 1000 values per node.
    pub fn paper_uniform() -> Self {
        Self {
            values_per_node: 1000,
            distribution: KeyDistribution::Uniform,
        }
    }

    /// The paper's skewed bulk load: Zipfian with parameter 1.0.
    pub fn paper_zipf() -> Self {
        Self {
            values_per_node: 1000,
            distribution: KeyDistribution::Zipf { theta: 1.0 },
        }
    }

    /// Scales the per-node volume by `factor`, keeping at least one value.
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            values_per_node: ((self.values_per_node as f64 * factor) as usize).max(1),
            ..self
        }
    }

    /// Total number of values for a network of `nodes` nodes.
    pub fn total_values(&self, nodes: usize) -> usize {
        self.values_per_node * nodes
    }

    /// Generates the `(key, value)` pairs for a network of `nodes` nodes.
    /// Values are sequence numbers, which makes losses easy to spot in
    /// tests.
    pub fn generate(&self, rng: &mut SimRng, nodes: usize) -> Vec<(u64, u64)> {
        let generator = KeyGenerator::paper(self.distribution);
        (0..self.total_values(nodes))
            .map(|i| (generator.next_key(rng), i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plans_have_the_published_volume() {
        assert_eq!(DatasetPlan::paper_uniform().total_values(1000), 1_000_000);
        assert_eq!(DatasetPlan::paper_zipf().values_per_node, 1000);
    }

    #[test]
    fn scaling_reduces_volume_but_never_to_zero() {
        let plan = DatasetPlan::paper_uniform().scaled(0.01);
        assert_eq!(plan.values_per_node, 10);
        let tiny = DatasetPlan::paper_uniform().scaled(0.000001);
        assert_eq!(tiny.values_per_node, 1);
    }

    #[test]
    fn generate_produces_the_right_count_with_unique_values() {
        let plan = DatasetPlan::paper_uniform().scaled(0.01);
        let mut rng = SimRng::seeded(1);
        let data = plan.generate(&mut rng, 5);
        assert_eq!(data.len(), 50);
        let mut values: Vec<u64> = data.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 50);
    }
}
