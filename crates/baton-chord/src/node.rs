//! Per-peer state of the Chord baseline.
//!
//! A [`ChordNode`] is what the simulator stores per peer besides the ring:
//! its identifier and its keys, under the peer's address.  Its links — the
//! successor and the [`M`] fingers, finger `k` on successor(`id + 2^k`) —
//! are reads of the sorted ring ([`crate::ChordSystem::finger`]); the
//! per-peer memory model
//! ([`ChordNode::estimated_state_bytes`]) still counts them as a real peer
//! holds them.

use std::collections::BTreeMap;

use crate::id::{ChordId, M};

/// Bytes of the per-peer struct of a peer that holds its own address, its
/// successor and predecessor as (peer, id) pairs and its finger table and
/// key store in place: the layout every committed bytes-per-peer figure
/// was measured with.  The finger table's [`M`] entries are counted on
/// top, 8 bytes each (a peer and an id).
pub const PEER_STATE_BYTES: u64 = 72;

/// Bytes of one finger-table entry: a peer and its identifier.
const FINGER_BYTES: u64 = 8;

/// State of one Chord peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChordNode {
    /// The peer's identifier on the ring.
    pub id: ChordId,
    /// Keys stored at this node (key identifier → original keys).
    pub store: BTreeMap<u64, Vec<u64>>,
}

impl ChordNode {
    /// Creates a node at `id` with an empty store.
    pub fn new(id: ChordId) -> Self {
        Self {
            id,
            store: BTreeMap::new(),
        }
    }

    /// Number of stored values.
    pub fn load(&self) -> usize {
        self.store.values().map(Vec::len).sum()
    }

    /// Approximate resident bytes of what a peer at this identifier holds:
    /// [`PEER_STATE_BYTES`], a finger table of [`M`] entries, and the key
    /// store (B-tree entries plus per-key value vectors, with ~16 bytes of
    /// amortised tree overhead each).
    pub fn estimated_state_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(u64, Vec<u64>)>() as u64 + 16;
        let store = self.store.len() as u64 * entry
            + self
                .store
                .values()
                .map(|v| (v.capacity() * std::mem::size_of::<u64>()) as u64)
                .sum::<u64>();
        PEER_STATE_BYTES + u64::from(M) * FINGER_BYTES + store
    }
}

#[cfg(test)]
mod tests {
    use baton_net::{Overlay, PeerId};

    use super::*;
    use crate::ring::{Member, Ring};
    use crate::ChordSystem;

    fn ring(members: &[(u32, u64)]) -> Ring {
        let members = members.iter().map(|&(p, id)| (PeerId(p), ChordId::new(id)));
        Ring::from_sorted(members.collect())
    }

    /// The peer that owns identifier `id` in `ring`: its successor.
    fn owner(ring: &Ring, id: u64) -> u32 {
        ring[ring.successor(ChordId::new(id))].0 .0
    }

    #[test]
    fn solo_node_owns_everything() {
        let mut system = ChordSystem::build(7, 1).unwrap();
        let peer = system.peers()[0];
        // Every finger is the node itself, successor(start) in a one-node
        // ring, and an entry is a peer and an id: 8 bytes.
        assert!((0..M).all(|k| system.finger(peer, k).unwrap().0 == peer));
        assert_eq!(std::mem::size_of::<Member>() as u64, FINGER_BYTES);
        let solo = ring(&[(1, 100)]);
        assert_eq!([0, 100, u32::MAX as u64].map(|id| owner(&solo, id)), [1; 3]);
        for key in [0, 100, u64::MAX] {
            system.insert(key, key).unwrap();
        }
        assert_eq!(system.nodes().next().unwrap().1.load(), 3);
    }

    #[test]
    fn ownership_is_predecessor_exclusive_self_inclusive() {
        let ring = ring(&[(2, 50), (1, 100)]);
        let owners = [100, 51, 50, 101, 0].map(|id| owner(&ring, id));
        assert_eq!(owners, [1, 1, 2, 2, 2]);
    }

    #[test]
    fn closest_preceding_prefers_the_farthest_useful_finger() {
        // From the node at 0, fingers 0–3 are 10, 4–5 are 40 and 6 is 90.
        let ring = ring(&[(1, 0), (2, 10), (3, 40), (4, 90)]);
        let node = ChordId::new(0);
        let closest_preceding = |target| {
            let last_before = ring[ring.rank(ChordId::new(target)) - 1].1;
            let k = node.closest_preceding_finger(last_before)?;
            Some(owner(&ring, node.finger_start(k).value()))
        };
        // Past every finger: the farthest (6).  Between fingers: the nearer
        // (5).  Right after the node: finger 3.  Before everything: none.
        let found = [100, 60, 20, 5].map(closest_preceding);
        assert_eq!(found, [Some(4), Some(3), Some(2), None]);
    }
}
