//! Per-peer state of the Chord baseline.

use std::collections::BTreeMap;

use baton_net::PeerId;

use crate::id::{ChordId, M};

/// Finger-table entry `k` of node `n`: the successor of `n + 2^k`
/// ([`ChordId::finger_start`]) on the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Finger {
    /// Peer that succeeds the finger's start.
    pub node: PeerId,
    /// That peer's identifier.
    pub node_id: ChordId,
}

/// State of one Chord peer.
#[derive(Clone, Debug)]
pub struct ChordNode {
    /// The peer's network address.
    pub peer: PeerId,
    /// The peer's identifier on the ring.
    pub id: ChordId,
    /// Immediate successor (peer, id).
    pub successor: (PeerId, ChordId),
    /// Immediate predecessor (peer, id).
    pub predecessor: (PeerId, ChordId),
    /// Finger table: entry `k` is the successor of `id + 2^k`, for all
    /// [`M`] entries.
    pub fingers: Vec<Finger>,
    /// Keys stored at this node (key identifier → original keys).
    pub store: BTreeMap<u64, Vec<u64>>,
}

impl ChordNode {
    /// Creates a node that is its own successor, predecessor and every
    /// finger (a single-node ring).
    pub fn solo(peer: PeerId, id: ChordId) -> Self {
        let itself = Finger {
            node: peer,
            node_id: id,
        };
        Self {
            peer,
            id,
            successor: (peer, id),
            predecessor: (peer, id),
            fingers: vec![itself; M as usize],
            store: BTreeMap::new(),
        }
    }

    /// Number of stored values.
    pub fn load(&self) -> usize {
        self.store.values().map(Vec::len).sum()
    }

    /// Approximate resident bytes of this node's state: the struct itself,
    /// the finger table and the key store (B-tree entries plus per-key
    /// value vectors, with ~16 bytes of amortised tree overhead each).
    pub fn estimated_state_bytes(&self) -> u64 {
        let fingers = (self.fingers.capacity() * std::mem::size_of::<Finger>()) as u64;
        let entry = std::mem::size_of::<(u64, Vec<u64>)>() as u64 + 16;
        let store = self.store.len() as u64 * entry
            + self
                .store
                .values()
                .map(|v| (v.capacity() * std::mem::size_of::<u64>()) as u64)
                .sum::<u64>();
        std::mem::size_of::<Self>() as u64 + fingers + store
    }

    /// `true` if this node is responsible for identifier `id`: `id` lies in
    /// `(predecessor, self]`.
    pub fn owns(&self, id: ChordId) -> bool {
        id.in_half_open_interval(self.predecessor.1, self.id)
    }

    /// The closest preceding finger for `target`, used by the iterative
    /// lookup: the highest finger whose node id lies strictly between this
    /// node and the target.
    pub fn closest_preceding(&self, target: ChordId) -> Option<(PeerId, ChordId)> {
        for finger in self.fingers.iter().rev() {
            if finger.node_id.in_open_interval(self.id, target) {
                return Some((finger.node, finger.node_id));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_node_owns_everything() {
        let node = ChordNode::solo(PeerId(1), ChordId::new(100));
        // Every finger is the node itself, successor(start) in a one-node
        // ring, and an entry is a peer and an id: 8 bytes.
        assert!(node.fingers.iter().all(|f| f.node == PeerId(1)));
        assert_eq!(std::mem::size_of::<Finger>(), 8);
        assert!(node.owns(ChordId::new(0)));
        assert!(node.owns(ChordId::new(100)));
        assert!(node.owns(ChordId::new(u32::MAX as u64)));
        assert_eq!(node.load(), 0);
    }

    #[test]
    fn ownership_is_predecessor_exclusive_self_inclusive() {
        let mut node = ChordNode::solo(PeerId(1), ChordId::new(100));
        node.predecessor = (PeerId(2), ChordId::new(50));
        assert!(node.owns(ChordId::new(100)));
        assert!(node.owns(ChordId::new(51)));
        assert!(!node.owns(ChordId::new(50)));
        assert!(!node.owns(ChordId::new(101)));
        assert!(!node.owns(ChordId::new(0)));
    }

    #[test]
    fn closest_preceding_prefers_the_farthest_useful_finger() {
        let mut node = ChordNode::solo(PeerId(1), ChordId::new(0));
        let finger = |peer, id| Finger {
            node: PeerId(peer),
            node_id: ChordId::new(id),
        };
        // Finger 0 is the successor.
        node.fingers[0] = finger(2, 10);
        node.fingers[3] = finger(3, 40);
        node.fingers[5] = finger(4, 90);
        // Target beyond both fingers: pick the farther one (higher index).
        assert_eq!(
            node.closest_preceding(ChordId::new(100)),
            Some((PeerId(4), ChordId::new(90)))
        );
        // Target between the fingers: pick the nearer one.
        assert_eq!(
            node.closest_preceding(ChordId::new(60)),
            Some((PeerId(3), ChordId::new(40)))
        );
        // Target right after the node: only finger 0 helps.
        assert_eq!(
            node.closest_preceding(ChordId::new(20)),
            Some((PeerId(2), ChordId::new(10)))
        );
        // Target before everything: nothing precedes it.
        assert_eq!(node.closest_preceding(ChordId::new(5)), None);
    }
}
