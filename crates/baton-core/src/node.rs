//! State held by a single BATON peer.
//!
//! A [`BatonNode`] is what the simulator stores per peer: its address, its
//! position and key range, and its local data.  Its links — parent,
//! children, adjacent nodes and the two sideways routing tables (paper §III)
//! — follow from its position and are read from the routing plane
//! ([`crate::routing::Links`], through [`crate::BatonSystem::links`]); the
//! per-peer memory model ([`BatonNode::estimated_state_bytes`]) still counts
//! them as a real peer would hold them.  All protocol logic lives in
//! [`crate::protocol`] and [`crate::system`].

use baton_net::PeerId;

use crate::position::{Position, Side};
use crate::range::KeyRange;
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
    /// Physical address of this peer.
    pub peer: PeerId,
    /// Logical position in the balanced tree.
    pub position: Position,
    /// Key range this node manages directly.
    pub range: KeyRange,
    /// Local index entries (keys inside `range`).
    pub store: LocalStore,
}

impl BatonNode {
    /// Creates a node at `position` managing `range`, with an empty store.
    pub fn new(peer: PeerId, position: Position, range: KeyRange) -> Self {
        Self {
            peer,
            position,
            range,
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
    use crate::routing::tests::plane_of;
    use crate::routing::{Links, NodeLink, PositionMap};

    /// The links of the occupant of `(level, number)` in `plane`.
    fn links(plane: &PositionMap, level: u32, number: u64) -> Links<'_> {
        let position = Position::new(level, number);
        Links::new(plane, plane.get(position).unwrap(), position)
    }

    /// The peer [`plane_of`] places at `(level, number)`.
    fn at(level: u32, number: u64) -> PeerId {
        PeerId(Position::new(level, number).heap_index() as u32)
    }

    /// Root, both level-1 positions and the two children of `(1, 1)`.
    fn five() -> PositionMap {
        plane_of(&[(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
    }

    #[test]
    fn state_layout_stays_within_its_byte_budgets() {
        use std::mem::size_of;
        assert_eq!(size_of::<Position>(), 8);
        assert_eq!(size_of::<Option<Position>>(), 8);
        assert!(size_of::<Option<NodeLink>>() <= 16);
        // A routing slot of the memory model: peer, range and two child ids.
        assert_eq!(size_of::<Option<RoutingEntry>>(), 32);
        assert!(size_of::<Option<BatonNode>>() <= 96);
    }

    #[test]
    fn fresh_node_is_a_rootless_leaf() {
        let n = BatonNode::new(PeerId(1), Position::new(2, 3), KeyRange::new(0, 100));
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
        let n = BatonNode::new(PeerId(1), Position::new(3, 5), KeyRange::new(0, 100));
        assert_eq!(n.table_slot_of(Position::new(3, 4)), Some((Side::Left, 0)));
        assert_eq!(n.table_slot_of(Position::new(3, 1)), Some((Side::Left, 2)));
        assert_eq!(n.table_slot_of(Position::new(3, 7)), Some((Side::Right, 1)));
        // Distance 3, the owner itself, another level.
        assert_eq!(n.table_slot_of(Position::new(3, 8)), None);
        assert_eq!(n.table_slot_of(Position::new(3, 5)), None);
        assert_eq!(n.table_slot_of(Position::new(2, 3)), None);
    }

    // The tests named after a receiver-side update (`rewrite_links`,
    // `update_link_range`, …) check that every link view reads the change
    // a peer records when it receives that update.

    #[test]
    fn rewrite_links_replaces_every_reference() {
        // A replacement taking over (1,1) is every link to that position.
        let mut plane = five();
        plane.insert(Position::new(1, 1), PeerId(99), KeyRange::new(0, 10));
        let n = links(&plane, 2, 2);
        assert_eq!(n.parent().unwrap().peer, PeerId(99));
        assert_eq!(n.adjacent(Side::Left).unwrap().peer, PeerId(99));
        assert!(!n.linked_peers().contains(&at(1, 1)));
        assert_eq!(
            links(&plane, 1, 2).table(Side::Left).entry(0).unwrap().peer,
            PeerId(99)
        );
    }

    #[test]
    fn rewrite_links_updates_child_knowledge_in_tables() {
        // (1,2) records (1,1)'s children; (2,1) changes occupant.
        let mut plane = five();
        plane.insert(Position::new(2, 1), PeerId(98), KeyRange::new(0, 10));
        let entry = links(&plane, 1, 2).table(Side::Left).entry(0).unwrap();
        assert_eq!(entry.children().collect::<Vec<_>>(), [PeerId(98), at(2, 2)]);
        assert_eq!(entry.peer, at(1, 1));
    }

    #[test]
    fn update_link_range_touches_all_link_kinds() {
        let mut plane = five();
        let moved = KeyRange::new(40, 60);
        let before = links(&plane, 1, 2).table(Side::Left).entry(0);
        // A range write naming another peer changes nothing.
        plane.set_range(Position::new(1, 1), PeerId(77), moved);
        assert_eq!(links(&plane, 1, 2).table(Side::Left).entry(0), before);
        plane.set_range(Position::new(1, 1), at(1, 1), moved);
        assert_eq!(plane.at(2).unwrap().1, moved);
        let entry = links(&plane, 1, 2).table(Side::Left).entry(0).unwrap();
        assert_eq!(entry.range, moved);
    }

    #[test]
    fn update_neighbor_children_sets_table_knowledge() {
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2)]);
        let entry = links(&plane, 1, 1).table(Side::Right).entry(0).unwrap();
        assert!(!entry.has_any_child());
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 3)]);
        let entry = links(&plane, 1, 1).table(Side::Right).entry(0).unwrap();
        assert_eq!(entry.children().collect::<Vec<_>>(), [at(2, 3)]);
    }

    #[test]
    fn drop_table_link_clears_the_one_matching_slot() {
        // (3,4) links to (3,3) in slot 0 and to (3,2) in slot 1.
        let ancestors = [(0, 1), (1, 1), (2, 1), (2, 2)];
        let level3 = [(3, 2), (3, 3), (3, 4)];
        let mut plane = plane_of(&[&ancestors[..], &level3[..]].concat());
        assert_eq!(links(&plane, 3, 4).table(Side::Left).iter().count(), 2);
        plane.remove(Position::new(3, 3));
        let table = links(&plane, 3, 4).table(Side::Left);
        assert_eq!(table.entry(0), None);
        assert_eq!(table.entry(1).unwrap().peer, at(3, 2));
    }

    #[test]
    fn node_link_reflects_current_state() {
        let plane = five();
        let parent = links(&plane, 2, 2).parent().unwrap();
        assert_eq!(parent, NodeLink::new(at(1, 1), Position::new(1, 1)));
    }
}
