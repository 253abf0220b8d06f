//! Node failure and recovery (paper §III-C).
//!
//! When a node fails (or departs abruptly), the peers that discover the
//! unreachable address report it to the failed node's parent.  The parent
//! regenerates the failed node's routing knowledge from its own tables
//! (Theorem 2 makes the failed node's neighbours reachable as children of
//! the parent's neighbours) and then runs a *graceful departure* on the
//! failed node's behalf: either the direct leaf removal or the
//! FINDREPLACEMENT protocol, exactly as in §III-B.
//!
//! BATON does not replicate data, so the items stored at the failed node are
//! lost; its key range, however, is preserved — it is taken over by the
//! parent or by the replacement node so that the overlay keeps covering the
//! whole domain.

use baton_net::{OpScope, Overlay, PeerId, RepairPolicy, SimTime};

use crate::error::{BatonError, Result};
use crate::reports::FailureReport;
use crate::system::BatonSystem;

impl BatonSystem {
    /// Marks `peer` as failed **without** running the recovery protocol.
    ///
    /// Until [`BatonSystem::recover_failed`] (or another operation's repair
    /// path) runs, the overlay must route *around* the dead node using the
    /// redundancy of its sideways routing tables and parent–neighbour–child
    /// detours — the fault-tolerance property of paper §III-D, exercised by
    /// the resilient-search tests.
    pub fn fail_silently(&mut self, peer: PeerId) -> Result<()> {
        self.check_alive(peer)?;
        self.net.fail_peer(peer);
        self.mark_dead(peer);
        Ok(())
    }

    /// Fails `peer` abruptly and returns the virtual delay after which its
    /// repair ([`BatonSystem::recover_failed`]) should run: the policy's
    /// fast path when a replica of the slice survives, the slow
    /// detect-and-rebuild path otherwise, plus a detection round-trip drawn
    /// from the network's latency model.  Until the repair runs, queries
    /// route around the dead node (§III-D) and, at k > 1, fail over to its
    /// replica holders.
    pub fn fail_deferred(&mut self, peer: PeerId, policy: &RepairPolicy) -> Result<SimTime> {
        self.check_alive(peer)?;
        let survives = self.replication > 1 && self.replica_survives(peer);
        // The failure is *detected* by a linked neighbour timing out, so the
        // repair start jitters by one round-trip on that link.
        let detector = self.node_ref(peer)?.link_targets().next().unwrap_or(peer);
        let round_trip =
            self.net.sample_latency(detector, peer) + self.net.sample_latency(peer, detector);
        self.net.fail_peer(peer);
        self.mark_dead(peer);
        Ok(policy.delay(survives) + round_trip)
    }

    /// Runs the §III-C recovery protocol for a peer previously failed with
    /// [`BatonSystem::fail_silently`].  While none of its parent, children
    /// and adjacent nodes is alive the repair is refused with
    /// [`BatonError::PeerNotAlive`] and changes nothing; retry it after
    /// theirs.
    pub fn recover_failed(&mut self, peer: PeerId) -> Result<FailureReport> {
        if self.node(peer).is_none() {
            return Err(BatonError::UnknownPeer(peer));
        }
        if self.net.is_alive(peer) {
            return Err(BatonError::InvariantViolation(format!(
                "recover_failed called for {peer}, which is still alive"
            )));
        }
        self.recover_inner(peer)
    }

    /// Simulates the abrupt failure of `peer` and runs the recovery
    /// protocol.  A failure no live neighbour could repair is refused with
    /// [`BatonError::PeerNotAlive`] and changes nothing.
    pub fn fail(&mut self, peer: PeerId) -> Result<FailureReport> {
        self.check_alive(peer)?;
        self.recover_inner(peer)
    }

    fn recover_inner(&mut self, peer: PeerId) -> Result<FailureReport> {
        let coordinator = self.repair_coordinator(peer)?;
        self.net.fail_peer(peer);
        self.in_op("failure", |system, op| {
            system.recover_in_op(op, peer, coordinator)
        })
    }

    /// The peer that coordinates `peer`'s repair: its parent or, if the
    /// parent is dead or `peer` is the root, the first live one of its
    /// children and adjacent nodes.  `None` when `peer` is the only node.
    /// With no live candidate the repair cannot run — every message of it
    /// starts at the coordinator — so it is refused with the retryable
    /// [`BatonError::PeerNotAlive`] (naming the first dead candidate)
    /// before anything changes.
    fn repair_coordinator(&self, peer: PeerId) -> Result<Option<PeerId>> {
        let node = self.node_ref(peer)?;
        if self.node_count() == 1 {
            return Ok(None);
        }
        let candidates = [
            node.parent,
            node.left_child,
            node.right_child,
            node.left_adjacent,
            node.right_adjacent,
        ];
        let mut linked = candidates.into_iter().flatten().map(|l| l.peer).peekable();
        let first = *linked.peek().ok_or_else(|| {
            BatonError::InvariantViolation(
                "failed node has no links but the overlay has other nodes".into(),
            )
        })?;
        let live = linked.find(|p| self.net.is_alive(*p));
        live.map(Some).ok_or(BatonError::PeerNotAlive(first))
    }

    fn recover_in_op(
        &mut self,
        op: OpScope,
        peer: PeerId,
        coordinator: Option<PeerId>,
    ) -> Result<FailureReport> {
        // Special case: the overlay's only node fails — nothing to recover.
        let Some(coordinator) = coordinator else {
            let lost_items = self.node_ref(peer)?.store.len();
            let node = self.remove_node(peer).expect("checked above");
            self.vacate(node.position, peer);
            self.mark_repaired(peer);
            return Ok(FailureReport {
                failed: peer,
                coordinator: None,
                replacement: None,
                regeneration_messages: 0,
                departure_messages: 0,
                lost_items,
            });
        };

        let (reporter, lost_items, is_removable_leaf) = {
            let node = self.node_ref(peer)?;
            // Any peer that held a link to the failed node may be the one
            // that noticed; pick one different from the coordinator when
            // possible.
            let reporter = node
                .link_targets()
                .find(|p| *p != coordinator)
                .unwrap_or(coordinator);
            (
                reporter,
                node.store.len(),
                node.can_leave_without_replacement(),
            )
        };

        // Failure report: one message from the discovering peer to the
        // coordinator.
        let mut regeneration_messages = 0u64;
        self.notify(op, "failure.report", reporter, coordinator);
        regeneration_messages += 1;

        // The coordinator regenerates the failed node's routing tables by
        // querying the children of the nodes in its own routing tables: one
        // query and one response per regenerated neighbour entry.
        let neighbors: Vec<PeerId> = self.node_ref(peer)?.table_peers().collect();
        for neighbor in neighbors {
            self.notify(op, "failure.table_regen", coordinator, neighbor);
            self.notify(op, "failure.table_regen", neighbor, coordinator);
            regeneration_messages += 2;
        }

        // At k = 1 the failed node's data is lost (no replication); clear it
        // before the departure protocol merges the (now empty) content away.
        // At k > 1 with a surviving replica holder, the slice is streamed
        // back from the replica (one fetch + one copy message) and the
        // departure protocol hands the restored content over instead.
        let replica_source = self
            .replica_pair(peer)
            .into_iter()
            .flatten()
            .find(|t| self.net.is_alive(*t));
        let lost_items = match replica_source {
            Some(source) => {
                self.notify(op, "failure.replica_fetch", coordinator, source);
                self.notify(op, "failure.replica_copy", source, coordinator);
                regeneration_messages += 2;
                0
            }
            None => {
                self.node_mut(peer)?.store = Default::default();
                lost_items
            }
        };

        // Graceful departure on the failed node's behalf, driven by the
        // coordinator.
        let mut departure_messages = 0u64;
        let replacement = if is_removable_leaf {
            departure_messages += self.detach_leaf(op, peer, coordinator)?;
            None
        } else {
            let (replacement, locate) = self.find_replacement(op, peer, coordinator)?;
            if !self.net.is_alive(replacement) {
                // The walk landed on a leaf that is itself dead (possible
                // only while several failures overlap).  Nothing has been
                // mutated yet: report the collision so the caller can retry
                // the repair after the replacement's own repair has run.
                return Err(BatonError::PeerNotAlive(replacement));
            }
            departure_messages += locate;
            departure_messages += self.detach_leaf(op, replacement, replacement)?;
            departure_messages += self.take_over_position(op, peer, replacement, coordinator)?;
            Some(replacement)
        };

        self.mark_repaired(peer);
        Ok(FailureReport {
            failed: peer,
            coordinator: Some(coordinator),
            replacement,
            regeneration_messages,
            departure_messages,
            lost_items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatonConfig;
    use crate::validate::validate;

    fn build(n: usize, seed: u64) -> BatonSystem {
        BatonSystem::build(BatonConfig::default(), seed, n).expect("build network")
    }

    #[test]
    fn failed_leaf_is_cleaned_up() {
        let mut system = build(30, 1);
        // Find a leaf.
        let leaf = system
            .peers()
            .iter()
            .copied()
            .find(|p| system.node(*p).unwrap().is_leaf())
            .unwrap();
        let report = system.fail(leaf).unwrap();
        assert_eq!(report.failed, leaf);
        assert!(report.coordinator.is_some());
        assert_eq!(system.node_count(), 29);
        assert!(system.node(leaf).is_none());
        validate(&system).unwrap();
    }

    #[test]
    fn failed_internal_node_gets_replacement() {
        let mut system = build(40, 2);
        let internal = system
            .peers()
            .iter()
            .copied()
            .find(|p| !system.node(*p).unwrap().is_leaf())
            .unwrap();
        let report = system.fail(internal).unwrap();
        assert!(report.replacement.is_some());
        assert_eq!(system.node_count(), 39);
        validate(&system).unwrap();
    }

    #[test]
    fn root_failure_is_recovered() {
        let mut system = build(25, 3);
        let root = system.root().unwrap();
        let report = system.fail(root).unwrap();
        assert!(report.replacement.is_some());
        assert_ne!(system.root(), Some(root));
        assert!(system.root().is_some());
        validate(&system).unwrap();
    }

    #[test]
    fn failed_node_data_is_lost_but_range_preserved() {
        let mut system = build(20, 4);
        // Insert data and find a node that stores some of it.
        for i in 0..200u64 {
            system.insert(1 + i * 4_999_999, i).unwrap();
        }
        let victim = system
            .peers()
            .iter()
            .copied()
            .find(|p| !system.node(*p).unwrap().store.is_empty())
            .unwrap();
        let victim_items = system.node(victim).unwrap().store.len();
        let before_total = system.total_items();
        let report = system.fail(victim).unwrap();
        assert_eq!(report.lost_items, victim_items);
        assert_eq!(system.total_items(), before_total - victim_items);
        // The domain is still fully covered.
        validate(&system).unwrap();
    }

    #[test]
    fn repeated_failures_keep_the_overlay_consistent() {
        let mut system = build(50, 5);
        for round in 0..30 {
            let peer = system.random_peer().unwrap();
            if system.node_count() == 1 {
                break;
            }
            system.fail(peer).unwrap();
            validate(&system)
                .unwrap_or_else(|e| panic!("invariant broken after failure {round}: {e}"));
        }
        assert_eq!(system.node_count(), 20);
    }

    #[test]
    fn failing_the_last_node_empties_the_overlay() {
        let mut system = BatonSystem::new(BatonConfig::default(), 6);
        let root = system.bootstrap().unwrap();
        system.insert(100, 1).unwrap();
        let report = system.fail(root).unwrap();
        assert_eq!(report.lost_items, 1);
        assert!(system.is_empty());
        assert_eq!(system.root(), None);
    }

    #[test]
    fn failing_an_unknown_or_dead_peer_is_rejected() {
        let mut system = build(5, 7);
        assert!(matches!(
            system.fail(PeerId(12345)),
            Err(BatonError::UnknownPeer(_))
        ));
        let victim = system.peers()[0];
        if system.node_count() > 1 {
            system.fail(victim).unwrap();
            assert!(matches!(
                system.fail(victim),
                Err(BatonError::UnknownPeer(_) | BatonError::PeerNotAlive(_))
            ));
        }
    }

    #[test]
    fn recovery_cost_is_logarithmic() {
        let mut system = build(200, 8);
        let log_n = (system.node_count() as f64).log2();
        for _ in 0..20 {
            let peer = system.random_peer().unwrap();
            let report = system.fail(peer).unwrap();
            assert!(
                (report.total_messages() as f64) <= 14.0 * log_n + 30.0,
                "recovery took {} messages",
                report.total_messages()
            );
        }
        validate(&system).unwrap();
    }

    #[test]
    fn searches_still_work_after_failures() {
        let mut system = build(60, 9);
        for i in 0..100u64 {
            system.insert(1 + i * 9_000_000, i).unwrap();
        }
        for _ in 0..15 {
            let peer = system.random_peer().unwrap();
            system.fail(peer).unwrap();
        }
        validate(&system).unwrap();
        // Every key still routes to a live owner (data at failed nodes is
        // lost, but routing must never break).
        for i in 0..100u64 {
            let report = system.search_exact(1 + i * 9_000_000).unwrap();
            assert!(system.node(report.owner).is_some());
        }
    }
}
