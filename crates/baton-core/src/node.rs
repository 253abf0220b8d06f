//! State held by a single BATON peer.
//!
//! A [`BatonNode`] is what the simulator stores per peer besides the routing
//! plane: its position and its local data.  The peer's address is the key
//! its node is stored under, and the key range it manages is the plane's
//! record for its position ([`crate::BatonSystem::range_of`]).  Its links —
//! parent, children, adjacent nodes and the two sideways routing tables
//! (paper §III) — follow from its position and are read from the plane too
//! ([`crate::routing::Links`], through [`crate::BatonSystem::links`]); the
//! per-peer memory model ([`BatonNode::estimated_state_bytes`]) still counts
//! them, and the range, as a real peer would hold them.  All protocol logic
//! lives in [`crate::protocol`] and [`crate::system`].

use crate::position::{Position, Side};
use crate::routing::RoutingEntry;
use crate::store::LocalStore;

/// Bytes of the per-peer struct of a peer that holds its parent, child and
/// adjacent links and its two routing tables in place: the layout every
/// committed bytes-per-peer figure was measured with.  The tables' slots
/// are counted on top, one `Option<RoutingEntry>` per slot.
pub const PEER_STATE_BYTES: u64 = 320;

/// State of one peer in the BATON overlay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatonNode {
    /// Logical position in the balanced tree: the peer → position index
    /// its links and its range are read through.
    pub position: Position,
    /// Local index entries (keys inside the range the node manages).
    pub store: LocalStore,
}

impl BatonNode {
    /// Creates a node at `position` with an empty store.
    pub fn new(position: Position) -> Self {
        Self {
            position,
            store: LocalStore::new(),
        }
    }

    /// Approximate resident bytes of what a peer at this node's position
    /// holds: [`PEER_STATE_BYTES`], a routing table of `level` slots on each
    /// side, and the heap behind its local store.
    pub fn estimated_state_bytes(&self) -> u64 {
        let slots = 2 * u64::from(self.level());
        PEER_STATE_BYTES
            + slots * std::mem::size_of::<Option<RoutingEntry>>() as u64
            + self.store.estimated_heap_bytes()
    }

    /// Level of this node in the tree.
    pub fn level(&self) -> u32 {
        self.position.level()
    }

    /// `true` if this node currently occupies the root position.
    pub fn is_root(&self) -> bool {
        self.position.is_root()
    }

    /// Number of data items currently stored.
    pub fn load(&self) -> usize {
        self.store.len()
    }

    /// The slot of this node's routing tables that refers to `position`:
    /// `(side, i)` when `position` lies on the tables' level at distance
    /// `2^i` from this node, `None` otherwise (another level, the node
    /// itself, a distance that is not a power of two).
    pub fn table_slot_of(&self, position: Position) -> Option<(Side, usize)> {
        let owner = self.position;
        if position.level() != owner.level() {
            return None;
        }
        let side = if position.number() < owner.number() {
            Side::Left
        } else {
            Side::Right
        };
        let distance = position.number().abs_diff(owner.number());
        distance
            .is_power_of_two()
            .then(|| (side, distance.trailing_zeros() as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::tests::{at, five, links, plane_of};
    use crate::routing::NodeLink;

    #[test]
    fn state_layout_stays_within_its_byte_budgets() {
        use std::mem::size_of;
        assert_eq!(size_of::<Position>(), 8);
        assert_eq!(size_of::<Option<Position>>(), 8);
        assert!(size_of::<Option<NodeLink>>() <= 16);
        // A routing slot of the memory model: peer, range and two child ids.
        assert_eq!(size_of::<Option<RoutingEntry>>(), 32);
        assert_eq!(size_of::<Option<BatonNode>>(), 56);
    }

    #[test]
    fn fresh_node_is_a_rootless_leaf() {
        let n = BatonNode::new(Position::new(2, 3));
        assert!(!n.is_root());
        assert_eq!(n.level(), 2);
        assert_eq!(n.load(), 0);
        let plane = plane_of(&[(0, 1), (1, 2), (2, 3)]);
        let links = links(&plane, 2, 3);
        assert!(links.is_leaf());
        assert_eq!(links.free_child_side(), Some(Side::Left));
        assert_eq!(links.parent().map(|l| l.peer), Some(at(1, 2)));
    }

    #[test]
    fn root_node_tables_are_trivially_full() {
        let plane = plane_of(&[(0, 1)]);
        let root = links(&plane, 0, 1);
        assert!(root.parent().is_none());
        assert!(root.tables_full());
        assert!(root.can_accept_child());
    }

    #[test]
    fn child_and_adjacent_accessors() {
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 1)]);
        let n = links(&plane, 1, 1);
        assert_eq!(n.child(Side::Left).unwrap().peer, at(2, 1));
        assert!(n.child(Side::Right).is_none());
        // In-order: (2,1) (1,1) (0,1) (1,2).
        assert_eq!(n.adjacent(Side::Left).unwrap().peer, at(2, 1));
        assert_eq!(n.adjacent(Side::Right).unwrap().peer, at(0, 1));
        assert!(!n.is_leaf());
        assert_eq!(n.free_child_side(), Some(Side::Right));
        let full = five();
        assert_eq!(links(&full, 1, 1).free_child_side(), None);
    }

    #[test]
    fn can_accept_child_requires_full_tables() {
        // Level 1 number 1: its right table has one valid slot (number 2).
        let plane = plane_of(&[(0, 1), (1, 1)]);
        assert!(
            !links(&plane, 1, 1).can_accept_child(),
            "right table not yet full"
        );
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2)]);
        assert!(links(&plane, 1, 1).can_accept_child());
        // Two children: still full tables but no capacity.
        assert!(!links(&five(), 1, 1).can_accept_child());
    }

    #[test]
    fn can_leave_without_replacement_logic() {
        // Leaf whose neighbours have no children: may depart.
        let plane = five();
        assert!(links(&plane, 2, 2).can_leave_without_replacement());
        // Its right neighbour (2,3) gains a child: it must find a replacement.
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 5)]);
        assert!(!links(&plane, 2, 2).can_leave_without_replacement());
        // A non-leaf can never depart directly.
        assert!(!links(&plane, 2, 3).can_leave_without_replacement());
    }

    #[test]
    fn linked_peers_deduplicates() {
        // The root is (1,1)'s parent and its right adjacent.
        let plane = plane_of(&[(0, 1), (1, 1)]);
        assert_eq!(links(&plane, 1, 1).linked_peers(), vec![at(0, 1)]);
    }

    #[test]
    fn table_slot_of_is_the_inverse_of_routing_neighbor() {
        let n = BatonNode::new(Position::new(3, 5));
        assert_eq!(n.table_slot_of(Position::new(3, 4)), Some((Side::Left, 0)));
        assert_eq!(n.table_slot_of(Position::new(3, 1)), Some((Side::Left, 2)));
        assert_eq!(n.table_slot_of(Position::new(3, 7)), Some((Side::Right, 1)));
        // Distance 3, the owner itself, another level.
        assert_eq!(n.table_slot_of(Position::new(3, 8)), None);
        assert_eq!(n.table_slot_of(Position::new(3, 5)), None);
        assert_eq!(n.table_slot_of(Position::new(2, 3)), None);
    }

    #[test]
    fn node_link_reflects_current_state() {
        let plane = five();
        let parent = links(&plane, 2, 2).parent().unwrap();
        assert_eq!(parent, NodeLink::new(at(1, 1), Position::new(1, 1)));
    }
}
