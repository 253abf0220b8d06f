//! [`Overlay`] implementation for [`BatonSystem`]: the adapter between
//! BATON's rich protocol reports and the workspace-wide overlay interface
//! the generic harness (`baton-workload` runners, `baton-sim` drivers)
//! programs against.

use baton_net::{
    ChurnCost, OpCost, Overlay, OverlayCapabilities, OverlayError, OverlayResult, PeerId,
    RepairPolicy, SimNetwork, SimTime,
};

use crate::error::BatonError;
use crate::range::KeyRange;
use crate::system::BatonSystem;

fn op_err(error: BatonError) -> OverlayError {
    OverlayError::Op(error.to_string())
}

/// Error mapping for the query/update paths: an operation that bounced off
/// an unrepaired failure (a dead peer in the way, or a routing walk whose
/// budget drowned in dead candidates) is an *availability* miss — the
/// workload layer counts it instead of aborting the run.  Every other error
/// stays a hard [`OverlayError::Op`].
fn avail_err(error: BatonError) -> OverlayError {
    match error {
        BatonError::PeerNotAlive(_) | BatonError::RoutingLoop { .. } => {
            OverlayError::Unavailable(error.to_string())
        }
        other => OverlayError::Op(other.to_string()),
    }
}

impl Overlay for BatonSystem {
    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities {
            range_queries: true,
        }
    }

    fn node_count(&self) -> usize {
        BatonSystem::node_count(self)
    }

    fn total_items(&self) -> usize {
        BatonSystem::total_items(self)
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    fn estimated_state_bytes(&self) -> u64 {
        BatonSystem::estimated_state_bytes(self)
    }

    fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        let report = BatonSystem::join_random(self).map_err(avail_err)?;
        Ok((&report).into())
    }

    fn peers(&self) -> &[PeerId] {
        BatonSystem::peers(self)
    }

    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        let report = BatonSystem::leave_random(self).map_err(avail_err)?;
        Ok((&report).into())
    }

    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        let report = BatonSystem::leave(self, peer).map_err(avail_err)?;
        Ok((&report).into())
    }

    fn fail_random(&mut self) -> OverlayResult<ChurnCost> {
        let victim = self
            .random_peer()
            .ok_or_else(|| OverlayError::Op("the overlay is empty".into()))?;
        self.fail_peer(victim)
    }

    fn fail_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        let report = self.fail(peer).map_err(avail_err)?;
        Ok((&report).into())
    }

    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        BatonSystem::set_replication(self, k).map_err(op_err)
    }

    fn fail_peer_deferred(
        &mut self,
        peer: PeerId,
        policy: &RepairPolicy,
    ) -> OverlayResult<SimTime> {
        self.fail_deferred(peer, policy).map_err(op_err)
    }

    fn repair_fast_eligible(&self, peer: PeerId) -> bool {
        BatonSystem::replication(self) > 1
            && self.node(peer).is_some()
            && !self.net.is_alive(peer)
            && self.replica_survives(peer)
    }

    fn repair_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        match self.recover_failed(peer) {
            Ok(report) => Ok((&report).into()),
            // A victim chosen as replacement for an earlier repair was
            // already absorbed into the tree: nothing left to repair.
            Err(BatonError::UnknownPeer(_)) => Ok(ChurnCost::default()),
            Err(e) => Err(avail_err(e)),
        }
    }

    fn load_direct(&mut self, data: &[(u64, u64)]) -> bool {
        BatonSystem::load_direct(self, data);
        true
    }

    fn insert(&mut self, key: u64, value: u64) -> OverlayResult<OpCost> {
        let report = BatonSystem::insert(self, key, value).map_err(avail_err)?;
        Ok((&report).into())
    }

    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        let report = BatonSystem::delete(self, key).map_err(avail_err)?;
        Ok((&report).into())
    }

    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        // Count-only variant: the trait reports costs, so the matched
        // values are never materialised on this hot path.
        BatonSystem::search_exact_count(self, key).map_err(avail_err)
    }

    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost> {
        // An inverted range is empty, like one outside the domain: the walk
        // clamps it away and answers without a message.
        let range = KeyRange::new(low, high.max(low));
        BatonSystem::search_range_count(self, range).map_err(avail_err)
    }

    fn validate(&self) -> Result<(), String> {
        crate::validate(self).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatonConfig;

    fn boxed(n: usize, seed: u64) -> Box<dyn Overlay> {
        Box::new(BatonSystem::build(BatonConfig::default(), seed, n).unwrap())
    }

    #[test]
    fn baton_is_fully_capable_through_the_trait() {
        let mut overlay = boxed(30, 1);
        assert!(overlay.capabilities().range_queries);
        assert_eq!(overlay.node_count(), 30);

        let insert = overlay.insert(123_456, 7).unwrap();
        assert!(insert.messages > 0);
        assert_eq!(overlay.total_items(), 1);
        let hit = overlay.search_exact(123_456).unwrap();
        assert_eq!(hit.matches, 1);
        let range = overlay.search_range(1, 1_000_000_000).unwrap();
        assert_eq!(range.matches, 1);
        assert!(range.nodes_visited >= 1);
        let gone = overlay.delete(123_456).unwrap();
        assert_eq!(gone.matches, 1);

        let join = overlay.join_random().unwrap();
        assert!(join.locate_messages + join.update_messages > 0);
        overlay.leave_random().unwrap();
        assert_eq!(overlay.node_count(), 30);
        overlay.validate().unwrap();
    }

    #[test]
    fn baton_failures_report_lost_items_through_the_trait() {
        let mut overlay = boxed(20, 2);
        for i in 0..100u64 {
            overlay.insert(1 + i * 9_999_991, i).unwrap();
        }
        let before = overlay.total_items();
        let cost = overlay.fail_random().unwrap();
        assert_eq!(overlay.node_count(), 19);
        assert_eq!(overlay.total_items() + cost.lost_items, before);
        overlay.validate().unwrap();
    }
}
