//! Churn workloads: join / leave / failure sequences.
//!
//! The paper evaluates join and leave costs by growing networks to different
//! sizes and, for Figure 8(i), by applying *concurrent* batches of joins and
//! leaves of increasing intensity ("network dynamics").

use baton_net::SimRng;

/// One churn event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new node joins through a random contact.
    Join,
    /// A random node departs gracefully.
    Leave,
    /// A random node fails abruptly.
    Fail,
}

/// Parameters of a churn sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnWorkload {
    /// Total number of events.
    pub events: usize,
    /// Fraction of events that are joins (the rest split between leaves and
    /// failures).
    pub join_fraction: f64,
    /// Fraction of the non-join events that are failures rather than
    /// graceful departures.
    pub failure_fraction: f64,
}

impl Default for ChurnWorkload {
    fn default() -> Self {
        Self {
            events: 100,
            join_fraction: 0.5,
            failure_fraction: 0.0,
        }
    }
}

impl ChurnWorkload {
    /// Generates the event sequence.
    pub fn events(&self, rng: &mut SimRng) -> Vec<ChurnEvent> {
        (0..self.events)
            .map(|_| {
                if rng.uniform_f64() < self.join_fraction {
                    ChurnEvent::Join
                } else if rng.uniform_f64() < self.failure_fraction {
                    ChurnEvent::Fail
                } else {
                    ChurnEvent::Leave
                }
            })
            .collect()
    }

    /// A balanced join/leave mix of `events` events (no failures), the shape
    /// used by the network-dynamics experiment.
    pub fn balanced(events: usize) -> Self {
        Self {
            events,
            join_fraction: 0.5,
            failure_fraction: 0.0,
        }
    }
}

/// A batch of concurrent churn for the network-dynamics experiment
/// (Figure 8(i)): `concurrency` joins and leaves that are considered to be
/// in flight at the same time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConcurrentChurnBatch {
    /// Number of concurrent joins.
    pub joins: usize,
    /// Number of concurrent leaves.
    pub leaves: usize,
}

impl ConcurrentChurnBatch {
    /// A batch with an equal number of joins and leaves summing to
    /// `concurrency` (odd totals round the extra event to a join).
    pub fn of_intensity(concurrency: usize) -> Self {
        Self {
            joins: concurrency.div_ceil(2),
            leaves: concurrency / 2,
        }
    }

    /// Total number of concurrent operations.
    pub fn total(&self) -> usize {
        self.joins + self.leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_mix_roughly_matches_fractions() {
        let workload = ChurnWorkload {
            events: 10_000,
            join_fraction: 0.7,
            failure_fraction: 0.5,
        };
        let mut rng = SimRng::seeded(1);
        let events = workload.events(&mut rng);
        let joins = events.iter().filter(|e| **e == ChurnEvent::Join).count();
        let fails = events.iter().filter(|e| **e == ChurnEvent::Fail).count();
        let leaves = events.iter().filter(|e| **e == ChurnEvent::Leave).count();
        assert_eq!(joins + fails + leaves, 10_000);
        assert!((6_500..7_500).contains(&joins), "joins = {joins}");
        assert!(fails > 1_000 && leaves > 1_000);
    }

    #[test]
    fn balanced_has_no_failures() {
        let workload = ChurnWorkload::balanced(1000);
        let mut rng = SimRng::seeded(2);
        let events = workload.events(&mut rng);
        assert!(events.iter().all(|e| *e != ChurnEvent::Fail));
    }

    #[test]
    fn concurrent_batch_intensity_splits_evenly() {
        let batch = ConcurrentChurnBatch::of_intensity(10);
        assert_eq!(batch.joins, 5);
        assert_eq!(batch.leaves, 5);
        assert_eq!(batch.total(), 10);
        let odd = ConcurrentChurnBatch::of_intensity(7);
        assert_eq!(odd.joins, 4);
        assert_eq!(odd.leaves, 3);
    }

    #[test]
    fn events_are_deterministic_per_seed() {
        let w = ChurnWorkload::default();
        assert_eq!(
            w.events(&mut SimRng::seeded(5)),
            w.events(&mut SimRng::seeded(5))
        );
    }
}
