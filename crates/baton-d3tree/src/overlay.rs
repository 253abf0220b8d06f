//! [`Overlay`] implementation for [`D3TreeSystem`].
//!
//! The D3-Tree is fully capable through the trait: it preserves key order
//! (range queries), runs the deterministic weight-based balancer
//! (`load_balancing`), repairs abrupt failures bucket-locally (`failures`)
//! and reports per-backbone-level access load (`level_load`).

use baton_net::{
    ChurnCost, Histogram, OpCost, Overlay, OverlayCapabilities, OverlayError, OverlayResult,
    PeerId, SimNetwork,
};

use crate::system::{D3Error, D3TreeSystem};

fn op_err(error: D3Error) -> OverlayError {
    OverlayError::Op(error.to_string())
}

impl Overlay for D3TreeSystem {
    fn name(&self) -> &'static str {
        "D3-Tree"
    }

    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities::FULL
    }

    fn node_count(&self) -> usize {
        D3TreeSystem::node_count(self)
    }

    fn total_items(&self) -> usize {
        D3TreeSystem::total_items(self)
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    fn estimated_state_bytes(&self) -> u64 {
        D3TreeSystem::estimated_state_bytes(self)
    }

    fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    fn peers(&self) -> &[PeerId] {
        D3TreeSystem::peers(self)
    }

    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        D3TreeSystem::join_random(self).map_err(op_err)
    }

    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        D3TreeSystem::leave_random(self).map_err(op_err)
    }

    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        D3TreeSystem::leave(self, peer).map_err(op_err)
    }

    fn fail_random(&mut self) -> OverlayResult<ChurnCost> {
        D3TreeSystem::fail_random(self).map_err(op_err)
    }

    fn fail_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        D3TreeSystem::fail(self, peer).map_err(op_err)
    }

    fn insert(&mut self, key: u64, _value: u64) -> OverlayResult<OpCost> {
        // The baseline tracks key multisets; values are not materialised.
        D3TreeSystem::insert(self, key).map_err(op_err)
    }

    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        D3TreeSystem::delete(self, key).map_err(op_err)
    }

    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        D3TreeSystem::search_exact(self, key).map_err(op_err)
    }

    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost> {
        D3TreeSystem::search_range(self, low, high).map_err(op_err)
    }

    fn access_load_by_level(&self) -> Vec<(u32, f64)> {
        D3TreeSystem::access_load_by_level(self)
    }

    fn replication(&self) -> usize {
        D3TreeSystem::replication(self)
    }

    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        D3TreeSystem::set_replication(self, k).map_err(op_err)
    }

    fn balance_shift_histogram(&self) -> Option<&Histogram> {
        Some(D3TreeSystem::balance_shift_histogram(self))
    }

    fn validate(&self) -> Result<(), String> {
        D3TreeSystem::validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d3tree_is_fully_capable_through_the_trait() {
        let mut overlay: Box<dyn Overlay> = Box::new(D3TreeSystem::build(1, 50).unwrap());
        assert_eq!(overlay.name(), "D3-Tree");
        assert_eq!(overlay.capabilities(), OverlayCapabilities::FULL);

        overlay.insert(123_456, 99).unwrap();
        assert_eq!(overlay.search_exact(123_456).unwrap().matches, 1);
        let range = overlay.search_range(1, 1_000_000_000).unwrap();
        assert_eq!(range.matches, 1);
        assert!(range.nodes_visited >= 1);
        assert_eq!(overlay.delete(123_456).unwrap().matches, 1);

        overlay.join_random().unwrap();
        overlay.leave_random().unwrap();
        let fail = overlay.fail_random().unwrap();
        assert!(fail.locate_messages + fail.update_messages > 0);
        assert_eq!(overlay.node_count(), 49);
        assert!(overlay.balance_shift_histogram().is_some());
        overlay.validate().unwrap();
    }

    #[test]
    fn d3tree_reports_per_level_access_load() {
        let mut overlay: Box<dyn Overlay> = Box::new(D3TreeSystem::build(2, 120).unwrap());
        for i in 0..200u64 {
            overlay.search_exact(1 + i * 4_999_999).unwrap();
        }
        let by_level = overlay.access_load_by_level();
        assert!(by_level.len() >= 2);
        assert!(by_level.iter().any(|(_, load)| *load > 0.0));
        // The root host concentrates routed traffic.
        assert!(by_level[0].1 > 0.0);
    }
}
