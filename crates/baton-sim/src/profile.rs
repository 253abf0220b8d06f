//! Experiment profiles: how big, how many repetitions, how much data.
//!
//! The paper's configuration (§V) is: network sizes 1000–10,000 nodes,
//! `1000 × N` inserted values, 1000 exact and 1000 range queries, 10
//! repetitions with different join/leave orders.  Running that verbatim
//! takes a long while in a single-threaded simulator, so the harness
//! supports scaled-down profiles that keep the *shape* of every curve while
//! the full-scale profile remains available for a faithful run.

/// Scale parameters of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Network sizes (the x-axis of most figures).
    pub network_sizes: Vec<usize>,
    /// Repetitions per configuration (the paper uses 10).
    pub repetitions: usize,
    /// Fraction of the paper's `1000 × N` bulk load to insert.
    pub data_scale: f64,
    /// Fraction of the paper's 1000 + 1000 query workload to run.
    pub query_scale: f64,
    /// Number of join and leave operations measured per configuration.
    pub churn_ops: usize,
    /// Base RNG seed; repetition `r` uses `seed + r`.
    pub seed: u64,
}

impl Profile {
    /// The paper's exact configuration.  Expect hours of simulation time.
    pub fn paper() -> Self {
        Self {
            network_sizes: (1..=10).map(|i| i * 1000).collect(),
            repetitions: 10,
            data_scale: 1.0,
            query_scale: 1.0,
            churn_ops: 200,
            seed: 2005,
        }
    }

    /// The paper's network sizes with a reduced bulk load and 3 repetitions:
    /// the default of the `reproduce --full` run (minutes, not hours).
    pub fn full() -> Self {
        Self {
            network_sizes: (1..=10).map(|i| i * 1000).collect(),
            repetitions: 3,
            data_scale: 0.02,
            query_scale: 1.0,
            churn_ops: 100,
            seed: 2005,
        }
    }

    /// Small networks, enough to see every trend: the default of the
    /// `reproduce` binary.
    pub fn quick() -> Self {
        Self {
            network_sizes: vec![125, 250, 500, 1000, 2000],
            repetitions: 2,
            data_scale: 0.02,
            query_scale: 0.1,
            churn_ops: 40,
            seed: 2005,
        }
    }

    /// Tiny profile used by the unit/integration tests.
    pub fn smoke() -> Self {
        Self {
            network_sizes: vec![40, 80],
            repetitions: 1,
            data_scale: 0.01,
            query_scale: 0.01,
            churn_ops: 8,
            seed: 2005,
        }
    }

    /// Number of values bulk-loaded into a network of `n` nodes.
    pub fn dataset_size(&self, n: usize) -> usize {
        ((n as f64) * 1000.0 * self.data_scale).round().max(1.0) as usize
    }

    /// Number of exact (and of range) queries per configuration.
    pub fn query_count(&self) -> usize {
        ((1000.0 * self.query_scale).round() as usize).max(1)
    }

    /// Seed for repetition `rep`.
    pub fn rep_seed(&self, rep: usize) -> u64 {
        self.seed + rep as u64 * 7919
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_the_publication() {
        let p = Profile::paper();
        assert_eq!(p.network_sizes.first(), Some(&1000));
        assert_eq!(p.network_sizes.last(), Some(&10000));
        assert_eq!(p.repetitions, 10);
        assert_eq!(p.dataset_size(1000), 1_000_000);
        assert_eq!(p.query_count(), 1000);
    }

    #[test]
    fn scaled_profiles_shrink_but_never_vanish() {
        let q = Profile::quick();
        assert!(q.dataset_size(100) >= 1);
        assert!(q.query_count() >= 1);
        let s = Profile::smoke();
        assert!(s.dataset_size(40) >= 1);
        assert!(s.network_sizes.len() >= 2);
    }

    #[test]
    fn rep_seeds_differ() {
        let p = Profile::quick();
        assert_ne!(p.rep_seed(0), p.rep_seed(1));
    }
}
