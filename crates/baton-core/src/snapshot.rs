//! Routing-snapshot extraction for the concurrent serve front-end.
//!
//! Serializes the overlay's current ownership into a
//! [`RoutingSnapshot`]: the in-order traversal of the tree is an ordered
//! partition of the key domain, so slots are the nodes sorted by range low,
//! items are each node's store run-length-encoded by key, links carry the
//! paper's §II link taxonomy (parent, children, adjacents, sideways routing
//! tables) and replicas are the adjacent-link replica targets of the
//! k-replica capability.  Extraction is read-only: statistics, RNG streams
//! and the virtual clock are untouched.

use baton_net::serve::{ExactPlacement, RoutingSnapshot, SnapshotBuilder};
use baton_net::{LinkKind, PeerId};

use crate::system::BatonSystem;

impl BatonSystem {
    /// Builds a [`RoutingSnapshot`] of the overlay's current state.
    pub fn build_routing_snapshot(&self) -> RoutingSnapshot {
        let domain = self.domain();
        let mut builder = SnapshotBuilder::new(
            "BATON",
            ExactPlacement::DomainPartition,
            true,
            (domain.low(), domain.high()),
        );
        builder.reserve(self.node_count(), self.total_items());
        // Slots in key order: the in-order traversal of the tree.
        let mut nodes: Vec<(PeerId, &crate::node::BatonNode)> = self.iter_nodes().collect();
        nodes.sort_by_key(|(_, node)| node.range.low());
        for (peer, node) in &nodes {
            // Registered nodes are dead only while awaiting a deferred repair.
            builder.push_slot(peer.0, node.range.high(), self.net.is_alive(*peer));
            builder.push_keys(node.store.keys().iter().copied());
            builder.seal_slot();
        }
        for (slot, (peer, node)) in nodes.iter().enumerate() {
            if let Some(parent) = &node.parent {
                builder.link_peer(slot, parent.peer.0, LinkKind::Parent);
            }
            for child in [&node.left_child, &node.right_child].into_iter().flatten() {
                builder.link_peer(slot, child.peer.0, LinkKind::Child);
            }
            for adjacent in [&node.left_adjacent, &node.right_adjacent]
                .into_iter()
                .flatten()
            {
                builder.link_peer(slot, adjacent.peer.0, LinkKind::Adjacent);
            }
            for table in [&node.left_table, &node.right_table] {
                for (_, entry) in table.iter() {
                    builder.link_peer(slot, entry.link.peer.0, LinkKind::RoutingTable);
                }
            }
            for target in self.replica_pair(*peer).into_iter().flatten() {
                builder.replica_peer(slot, target.0);
            }
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use baton_net::serve::ServeCounters;
    use baton_net::Overlay;

    use crate::config::BatonConfig;
    use crate::system::BatonSystem;

    #[test]
    fn snapshot_slots_partition_the_domain_in_key_order() {
        let system = BatonSystem::build(BatonConfig::default(), 7, 40).unwrap();
        let snapshot = system.build_routing_snapshot();
        assert_eq!(snapshot.slots(), 40);
        assert_eq!(snapshot.overlay(), "BATON");
        assert!(snapshot.range_supported());
        assert_eq!(
            snapshot.total_items() as usize,
            Overlay::total_items(&system)
        );
    }

    #[test]
    fn snapshot_exact_matches_store_contents() {
        let mut system = BatonSystem::build(BatonConfig::default(), 11, 32).unwrap();
        for key in [5u64, 5, 123_456, 999_999_998] {
            system.insert(key, key).unwrap();
        }
        let snapshot = system.build_routing_snapshot();
        let mut counters = ServeCounters::default();
        assert_eq!(snapshot.exact(5, 0, &mut counters).matches, 2);
        assert_eq!(snapshot.exact(123_456, 3, &mut counters).matches, 1);
        assert_eq!(snapshot.exact(77, 9, &mut counters).matches, 0);
        assert!(counters.hops > 0, "greedy routing should charge hops");
    }
}
