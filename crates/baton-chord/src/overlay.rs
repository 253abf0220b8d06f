//! [`Overlay`] implementation for [`ChordSystem`].
//!
//! Chord is a plain DHT: exact-match lookups and churn only.  Its
//! capabilities report `range_queries: false` and [`Overlay::search_range`]
//! returns [`OverlayError::Unsupported`], which is how the generic figure
//! drivers know to omit Chord from Figure 8(e) — exactly as the paper does.

use baton_net::{
    ChurnCost, OpCost, Overlay, OverlayCapabilities, OverlayError, OverlayResult, PeerId,
    SimNetwork,
};

use crate::system::{ChordError, ChordSystem};

fn op_err(error: ChordError) -> OverlayError {
    OverlayError::Op(error.to_string())
}

impl Overlay for ChordSystem {
    fn name(&self) -> &'static str {
        "Chord"
    }

    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities::DHT.with_bulk_build()
    }

    fn node_count(&self) -> usize {
        ChordSystem::node_count(self)
    }

    fn total_items(&self) -> usize {
        ChordSystem::total_items(self)
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    fn estimated_state_bytes(&self) -> u64 {
        ChordSystem::estimated_state_bytes(self)
    }

    fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    fn peers(&self) -> &[PeerId] {
        ChordSystem::peers(self)
    }

    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        ChordSystem::join_random(self).map_err(op_err)
    }

    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        ChordSystem::leave_random(self).map_err(op_err)
    }

    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        ChordSystem::leave(self, peer).map_err(op_err)
    }

    fn load_direct(&mut self, data: &[(u64, u64)]) -> bool {
        ChordSystem::load_direct(self, data);
        true
    }

    fn replication(&self) -> usize {
        ChordSystem::replication(self)
    }

    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        ChordSystem::set_replication(self, k).map_err(op_err)
    }

    fn insert(&mut self, key: u64, value: u64) -> OverlayResult<OpCost> {
        ChordSystem::insert(self, key, value).map_err(op_err)
    }

    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        ChordSystem::delete(self, key).map_err(op_err)
    }

    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        ChordSystem::search_exact(self, key).map_err(op_err)
    }

    fn search_range(&mut self, _low: u64, _high: u64) -> OverlayResult<OpCost> {
        // Consistent hashing destroys key order: there is no range query
        // to route.
        Err(OverlayError::Unsupported("range queries on a DHT"))
    }

    fn validate(&self) -> Result<(), String> {
        ChordSystem::validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chord_through_the_trait_supports_exact_but_not_range() {
        let mut overlay: Box<dyn Overlay> = Box::new(ChordSystem::build(1, 40).unwrap());
        assert_eq!(overlay.name(), "Chord");
        assert!(!overlay.capabilities().range_queries);

        overlay.insert(42, 7).unwrap();
        assert_eq!(overlay.search_exact(42).unwrap().matches, 1);
        assert!(matches!(
            overlay.search_range(0, 100),
            Err(OverlayError::Unsupported(_))
        ));
        assert!(overlay.fail_random().is_err());

        let join = overlay.join_random().unwrap();
        assert!(join.locate_messages >= 1);
        overlay.leave_random().unwrap();
        assert_eq!(overlay.node_count(), 40);
        overlay.validate().unwrap();
    }
}
