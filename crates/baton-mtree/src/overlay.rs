//! [`Overlay`] implementation for [`MTreeSystem`].
//!
//! The multiway tree preserves key order, so range queries are supported;
//! it has no load balancing and no failure-recovery protocol, which its
//! capabilities report accordingly.

use std::collections::HashMap;

use baton_net::{
    ChurnCost, OpCost, Overlay, OverlayCapabilities, OverlayError, OverlayResult, PeerId,
    SimNetwork,
};

use crate::system::{MTreeError, MTreeSystem};

fn op_err(error: MTreeError) -> OverlayError {
    OverlayError::Op(error.to_string())
}

impl Overlay for MTreeSystem {
    fn name(&self) -> &'static str {
        "Multiway tree"
    }

    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities::PLAIN_TREE
    }

    fn node_count(&self) -> usize {
        MTreeSystem::node_count(self)
    }

    fn total_items(&self) -> usize {
        MTreeSystem::total_items(self)
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    fn estimated_state_bytes(&self) -> u64 {
        MTreeSystem::estimated_state_bytes(self)
    }

    fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    fn peers(&self) -> &[PeerId] {
        MTreeSystem::peers(self)
    }

    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        MTreeSystem::join_random(self).map_err(op_err)
    }

    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        MTreeSystem::leave_random(self).map_err(op_err)
    }

    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        MTreeSystem::leave(self, peer).map_err(op_err)
    }

    fn insert(&mut self, key: u64, _value: u64) -> OverlayResult<OpCost> {
        // The baseline tracks key multisets; values are not materialised.
        MTreeSystem::insert(self, key).map_err(op_err)
    }

    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        MTreeSystem::delete(self, key).map_err(op_err)
    }

    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        MTreeSystem::search_exact(self, key).map_err(op_err)
    }

    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost> {
        MTreeSystem::search_range(self, low, high).map_err(op_err)
    }

    fn access_load_by_level(&self) -> Vec<(u32, f64)> {
        let mut per_level: HashMap<u32, (u64, u64)> = HashMap::new();
        for (peer, node) in self.nodes() {
            let received = self.stats().received_count(peer);
            let entry = per_level.entry(node.depth).or_insert((0, 0));
            entry.0 += received;
            entry.1 += 1;
        }
        let mut levels: Vec<(u32, f64)> = per_level
            .into_iter()
            .map(|(level, (msgs, count))| (level, msgs as f64 / count.max(1) as f64))
            .collect();
        levels.sort_unstable_by_key(|(l, _)| *l);
        levels
    }

    fn replication(&self) -> usize {
        MTreeSystem::replication(self)
    }

    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        MTreeSystem::set_replication(self, k).map_err(op_err)
    }

    fn validate(&self) -> Result<(), String> {
        MTreeSystem::validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtree_through_the_trait_supports_ranges_but_not_failures() {
        let mut overlay: Box<dyn Overlay> = Box::new(MTreeSystem::build(1, 40).unwrap());
        assert_eq!(overlay.name(), "Multiway tree");
        let caps = overlay.capabilities();
        assert!(caps.range_queries);
        assert!(!caps.load_balancing);
        assert!(!caps.failures);

        overlay.insert(123_456, 99).unwrap();
        assert_eq!(overlay.search_exact(123_456).unwrap().matches, 1);
        let range = overlay.search_range(1, 1_000_000_000).unwrap();
        assert!(range.nodes_visited >= 1);
        assert!(overlay.fail_random().is_err());
        assert!(overlay.balance_shift_histogram().is_none());

        overlay.join_random().unwrap();
        overlay.leave_random().unwrap();
        assert_eq!(overlay.node_count(), 40);
        overlay.validate().unwrap();
    }

    #[test]
    fn mtree_reports_per_level_access_load() {
        let mut overlay: Box<dyn Overlay> = Box::new(MTreeSystem::build(2, 60).unwrap());
        for i in 0..100u64 {
            overlay.search_exact(1 + i * 9_999_991).unwrap();
        }
        let by_level = overlay.access_load_by_level();
        assert!(!by_level.is_empty());
        assert!(by_level.iter().any(|(_, load)| *load > 0.0));
    }
}
