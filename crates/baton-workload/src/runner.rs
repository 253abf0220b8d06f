//! Generic workload runners: apply churn, bulk loads and query batches to
//! **any** [`Overlay`] implementation.
//!
//! Before the `Overlay` trait existed, every harness (figure drivers,
//! examples, tests) carried its own copy of "loop over the events, call the
//! system, add up the messages" — once per system.  These runners are that
//! loop, written once, operating on `&mut dyn Overlay`, so BATON, Chord, the
//! multiway tree and any future baseline all execute the exact same
//! workload code.

use baton_net::{Overlay, OverlayError, OverlayResult};

use crate::churn::ChurnEvent;
use crate::queries::Query;

/// Aggregate outcome of a churn sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Joins executed.
    pub joins: u64,
    /// Graceful departures executed.
    pub leaves: u64,
    /// Failures executed.
    pub fails: u64,
    /// Events skipped to protect the overlay (too few nodes, or a failure
    /// on a system without failure support — see `min_nodes`).
    pub skipped: u64,
    /// Total locate messages across all executed events.
    pub locate_messages: u64,
    /// Total routing-table update messages across all executed events.
    pub update_messages: u64,
    /// Data items lost to failures.
    pub lost_items: usize,
}

impl ChurnOutcome {
    /// Number of executed events.
    pub fn executed(&self) -> u64 {
        self.joins + self.leaves + self.fails
    }

    /// Average messages (locate + update) per executed event.
    pub fn mean_messages(&self) -> f64 {
        let executed = self.executed();
        if executed == 0 {
            0.0
        } else {
            (self.locate_messages + self.update_messages) as f64 / executed as f64
        }
    }
}

/// Applies a churn event sequence to an overlay.
///
/// Leaves and failures are skipped while the overlay has `min_nodes` nodes
/// or fewer (every system refuses to lose its last node, and experiments
/// usually want to keep a floor).  Failures on overlays without failure
/// support fall back to graceful departures, so one event sequence drives
/// every system.
///
/// Like every runner here, finished operations are retired into the
/// per-class streaming aggregates after each event
/// ([`baton_net::MessageStats::retire_finished`]), so long workloads hold
/// O(in-flight) per-operation state instead of O(events-ever).
pub fn run_churn(
    overlay: &mut dyn Overlay,
    events: &[ChurnEvent],
    min_nodes: usize,
) -> OverlayResult<ChurnOutcome> {
    let mut outcome = ChurnOutcome::default();
    for event in events {
        match event {
            ChurnEvent::Join => {
                let cost = overlay.join_random()?;
                outcome.joins += 1;
                outcome.locate_messages += cost.locate_messages;
                outcome.update_messages += cost.update_messages;
            }
            ChurnEvent::Leave | ChurnEvent::Fail => {
                if overlay.node_count() <= min_nodes {
                    outcome.skipped += 1;
                    continue;
                }
                let (cost, failed) = if *event == ChurnEvent::Fail {
                    match overlay.fail_random() {
                        Ok(cost) => (cost, true),
                        // No failure protocol: degrade to a graceful leave.
                        Err(OverlayError::Unsupported(_)) => (overlay.leave_random()?, false),
                        Err(other) => return Err(other),
                    }
                } else {
                    (overlay.leave_random()?, false)
                };
                if failed {
                    outcome.fails += 1;
                } else {
                    outcome.leaves += 1;
                }
                outcome.locate_messages += cost.locate_messages;
                outcome.update_messages += cost.update_messages;
                outcome.lost_items += cost.lost_items;
            }
        }
        overlay.stats_mut().retire_finished();
    }
    Ok(outcome)
}

/// Aggregate outcome of a bulk load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Values inserted.
    pub inserted: u64,
    /// Total messages spent (routing, expansion — balancing excluded).
    pub messages: u64,
    /// Total load-balancing messages triggered by the inserts.
    pub balance_messages: u64,
}

impl LoadOutcome {
    /// Average messages per insert (balancing excluded).
    pub fn mean_messages(&self) -> f64 {
        if self.inserted == 0 {
            0.0
        } else {
            self.messages as f64 / self.inserted as f64
        }
    }
}

/// Inserts a generated dataset into an overlay.
pub fn bulk_load(overlay: &mut dyn Overlay, data: &[(u64, u64)]) -> OverlayResult<LoadOutcome> {
    let mut outcome = LoadOutcome::default();
    for (key, value) in data {
        let cost = overlay.insert(*key, *value)?;
        outcome.inserted += 1;
        outcome.messages += cost.messages;
        outcome.balance_messages += cost.balance_messages;
        overlay.stats_mut().retire_finished();
    }
    Ok(outcome)
}

/// Aggregate outcome of a query batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Exact queries executed.
    pub exact_executed: u64,
    /// Range queries executed.
    pub range_executed: u64,
    /// Queries skipped because the overlay does not support them (range
    /// queries on a DHT).
    pub unsupported: u64,
    /// Total messages across executed exact queries.
    pub exact_messages: u64,
    /// Total messages across executed range queries.
    pub range_messages: u64,
    /// Total matches returned.
    pub matches: u64,
}

impl QueryOutcome {
    /// Average messages per executed exact query.
    pub fn mean_exact_messages(&self) -> f64 {
        if self.exact_executed == 0 {
            0.0
        } else {
            self.exact_messages as f64 / self.exact_executed as f64
        }
    }

    /// Average messages per executed range query.
    pub fn mean_range_messages(&self) -> f64 {
        if self.range_executed == 0 {
            0.0
        } else {
            self.range_messages as f64 / self.range_executed as f64
        }
    }
}

/// Runs a query batch against an overlay.
///
/// Queries the overlay answers `Unsupported` are counted and
/// skipped rather than treated as errors, so one workload drives every
/// system and the caller can still see what was omitted.
pub fn run_queries(overlay: &mut dyn Overlay, queries: &[Query]) -> OverlayResult<QueryOutcome> {
    let mut outcome = QueryOutcome::default();
    for query in queries {
        match query {
            Query::Exact(key) => {
                let cost = overlay.search_exact(*key)?;
                outcome.exact_executed += 1;
                outcome.exact_messages += cost.messages;
                outcome.matches += cost.matches as u64;
            }
            Query::Range { low, high } => match overlay.search_range(*low, *high) {
                Ok(cost) => {
                    outcome.range_executed += 1;
                    outcome.range_messages += cost.messages;
                    outcome.matches += cost.matches as u64;
                }
                Err(OverlayError::Unsupported(_)) => outcome.unsupported += 1,
                Err(other) => return Err(other),
            },
        }
        overlay.stats_mut().retire_finished();
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_net::{
        ChurnCost, OpCost, OverlayCapabilities, OverlayResult as OR, PeerId, SimNetwork,
    };

    /// Deterministic fake overlay: every operation costs one message;
    /// range queries and failures are unsupported.  Holds a network and
    /// implements only the required methods.
    struct Fake {
        net: SimNetwork,
        nodes: usize,
        items: usize,
    }

    impl Overlay for Fake {
        fn capabilities(&self) -> OverlayCapabilities {
            OverlayCapabilities {
                range_queries: false,
            }
        }
        fn node_count(&self) -> usize {
            self.nodes
        }
        fn total_items(&self) -> usize {
            self.items
        }
        fn net(&self) -> &SimNetwork {
            &self.net
        }
        fn net_mut(&mut self) -> &mut SimNetwork {
            &mut self.net
        }
        fn estimated_state_bytes(&self) -> u64 {
            0
        }
        fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
            None
        }
        fn peers(&self) -> &[PeerId] {
            &[]
        }
        fn set_replication(&mut self, _k: usize) -> OR<()> {
            Err(OverlayError::Unsupported("replication"))
        }
        fn join_random(&mut self) -> OR<ChurnCost> {
            self.nodes += 1;
            Ok(ChurnCost {
                locate_messages: 1,
                update_messages: 2,
                lost_items: 0,
            })
        }
        fn leave_random(&mut self) -> OR<ChurnCost> {
            self.nodes -= 1;
            Ok(ChurnCost {
                locate_messages: 0,
                update_messages: 3,
                lost_items: 0,
            })
        }
        fn leave_peer(&mut self, _peer: PeerId) -> OR<ChurnCost> {
            self.leave_random()
        }
        fn insert(&mut self, _key: u64, _value: u64) -> OR<OpCost> {
            self.items += 1;
            Ok(OpCost {
                messages: 1,
                balance_messages: 1,
                ..OpCost::default()
            })
        }
        fn delete(&mut self, _key: u64) -> OR<OpCost> {
            Ok(OpCost::default())
        }
        fn search_exact(&mut self, _key: u64) -> OR<OpCost> {
            Ok(OpCost {
                messages: 2,
                matches: 1,
                ..OpCost::default()
            })
        }
        fn search_range(&mut self, _low: u64, _high: u64) -> OR<OpCost> {
            Err(OverlayError::Unsupported("range"))
        }
        fn validate(&self) -> Result<(), String> {
            Ok(())
        }
    }

    fn fake() -> Fake {
        Fake {
            net: SimNetwork::new(),
            nodes: 4,
            items: 0,
        }
    }

    #[test]
    fn churn_runner_executes_and_respects_the_floor() {
        let mut overlay = fake();
        let events = [
            ChurnEvent::Join,
            ChurnEvent::Leave,
            ChurnEvent::Fail,  // unsupported -> degrades to a leave
            ChurnEvent::Leave, // at the floor of 3 nodes: skipped
            ChurnEvent::Leave, // skipped
        ];
        let outcome = run_churn(&mut overlay, &events, 3).unwrap();
        assert_eq!(outcome.joins, 1);
        assert_eq!(outcome.leaves, 2);
        assert_eq!(outcome.fails, 0);
        assert_eq!(outcome.skipped, 2);
        assert_eq!(outcome.executed(), 3);
        assert_eq!(outcome.locate_messages, 1);
        assert_eq!(outcome.update_messages, 2 + 3 * 2);
        assert!(outcome.mean_messages() > 0.0);
    }

    #[test]
    fn bulk_load_accumulates_messages_and_balance() {
        let mut overlay = fake();
        let data = [(1u64, 1u64), (2, 2), (3, 3)];
        let outcome = bulk_load(&mut overlay, &data).unwrap();
        assert_eq!(outcome.inserted, 3);
        assert_eq!(outcome.messages, 3);
        assert_eq!(outcome.balance_messages, 3);
        assert_eq!(overlay.total_items(), 3);
        assert_eq!(outcome.mean_messages(), 1.0);
    }

    #[test]
    fn query_runner_skips_unsupported_ranges() {
        let mut overlay = fake();
        let queries = [
            Query::Exact(1),
            Query::Range { low: 1, high: 10 },
            Query::Exact(2),
        ];
        let outcome = run_queries(&mut overlay, &queries).unwrap();
        assert_eq!(outcome.exact_executed, 2);
        assert_eq!(outcome.range_executed, 0);
        assert_eq!(outcome.unsupported, 1);
        assert_eq!(outcome.matches, 2);
        assert_eq!(outcome.mean_exact_messages(), 2.0);
        assert_eq!(outcome.mean_range_messages(), 0.0);
    }

    #[test]
    fn empty_outcomes_have_zero_means() {
        assert_eq!(ChurnOutcome::default().mean_messages(), 0.0);
        assert_eq!(LoadOutcome::default().mean_messages(), 0.0);
        assert_eq!(QueryOutcome::default().mean_exact_messages(), 0.0);
    }
}
