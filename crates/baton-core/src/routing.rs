//! Links and sideways routing tables.
//!
//! Each BATON node keeps a link to its parent, each child, each adjacent
//! node, and two *sideways routing tables* with entries to nodes at the same
//! level whose number differs by a power of two (paper §III).  Every link
//! records the key range managed by its target (paper §IV: "We record for
//! each link the range of values managed by the node at the target of the
//! link"), and routing-table entries additionally record the target's
//! children — the information the join algorithm (Algorithm 1) and
//! Theorem 1 rely on.  A routing-table entry does not record its target's
//! position: slot `i` of a table always targets the position `2^i` away
//! from the owner ([`RoutingTable::target_position`]).

use baton_net::PeerId;

use crate::position::{Position, Side};
use crate::range::KeyRange;

/// A link to another node: the target's address, logical position and the
/// key range it was last known to manage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeLink {
    /// Physical address of the target peer.
    pub peer: PeerId,
    /// Logical position of the target in the tree.
    pub position: Position,
    /// Key range managed by the target, as last advertised.
    pub range: KeyRange,
}

impl NodeLink {
    /// Creates a link.
    pub fn new(peer: PeerId, position: Position, range: KeyRange) -> Self {
        Self {
            peer,
            position,
            range,
        }
    }
}

/// One entry of a sideways routing table: the neighbour's address, the key
/// range it last advertised and the peers at its child positions.
///
/// The children are stored as two ids plus two presence flags rather than
/// two `Option<PeerId>`s, which keeps an entry — and, through the flags'
/// niche, an `Option<RoutingEntry>` slot — at 32 bytes.  An absent child's
/// id is always `PeerId(0)`, so the derived equality compares only what
/// the accessors expose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingEntry {
    /// Physical address of the neighbour peer.
    pub peer: PeerId,
    /// Key range managed by the neighbour, as last advertised.
    pub range: KeyRange,
    children: [PeerId; 2],
    has_child: [bool; 2],
}

impl RoutingEntry {
    /// Creates an entry with no known children.
    pub fn new(peer: PeerId, range: KeyRange) -> Self {
        Self::with_children(peer, range, None, None)
    }

    /// Creates an entry with explicit child knowledge.
    pub fn with_children(
        peer: PeerId,
        range: KeyRange,
        left_child: Option<PeerId>,
        right_child: Option<PeerId>,
    ) -> Self {
        let mut entry = Self {
            peer,
            range,
            children: [PeerId(0); 2],
            has_child: [false; 2],
        };
        entry.set_children(left_child, right_child);
        entry
    }

    /// Peer occupying the neighbour's child position on `side`, if known.
    #[inline]
    pub fn child(&self, side: Side) -> Option<PeerId> {
        let i = usize::from(side == Side::Right);
        self.has_child[i].then_some(self.children[i])
    }

    /// Peer occupying the neighbour's left child position, if known.
    #[inline]
    pub fn left_child(&self) -> Option<PeerId> {
        self.child(Side::Left)
    }

    /// Peer occupying the neighbour's right child position, if known.
    #[inline]
    pub fn right_child(&self) -> Option<PeerId> {
        self.child(Side::Right)
    }

    /// The known children, left first.
    pub fn children(&self) -> impl Iterator<Item = PeerId> {
        self.left_child().into_iter().chain(self.right_child())
    }

    /// Records the neighbour's children.
    pub fn set_children(&mut self, left_child: Option<PeerId>, right_child: Option<PeerId>) {
        for (i, child) in [left_child, right_child].into_iter().enumerate() {
            self.children[i] = child.unwrap_or(PeerId(0));
            self.has_child[i] = child.is_some();
        }
    }

    /// `true` if the target is known to have at least one child.
    pub fn has_any_child(&self) -> bool {
        self.has_child[0] || self.has_child[1]
    }

    /// `true` if the target is known to have both children.
    pub fn has_both_children(&self) -> bool {
        self.has_child[0] && self.has_child[1]
    }
}

/// A sideways routing table (left or right) of one node.
///
/// Slot `i` refers to the position at the same level whose number differs
/// from the owner's by `2^i`.  A slot whose target position falls outside
/// `1 ..= 2^level` is *invalid* and never counted towards fullness; a slot
/// whose target position is in range but currently unoccupied holds `None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTable {
    side: Side,
    owner: Position,
    slots: Vec<Option<RoutingEntry>>,
}

impl RoutingTable {
    /// Heap bytes behind the table's slot vector.  Part of the perf
    /// harness's bytes-per-peer estimate.
    pub fn estimated_heap_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Option<RoutingEntry>>()) as u64
    }

    /// Creates an empty table for a node at `owner` on the given `side`.
    pub fn new(side: Side, owner: Position) -> Self {
        Self {
            side,
            owner,
            slots: vec![None; owner.routing_table_size()],
        }
    }

    /// Position of the node owning this table.
    pub fn owner(&self) -> Position {
        self.owner
    }

    /// Number of slots (valid or not) in the table: equals the owner's level.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Target position of slot `index`, or `None` if that slot is invalid
    /// (outside the level's number range).
    pub fn target_position(&self, index: usize) -> Option<Position> {
        self.owner.routing_neighbor(self.side, index)
    }

    /// Iterates over the indices of the slots whose target position is in
    /// range, without allocating — the form the protocol hot loops use.
    pub fn valid_slot_indices(&self) -> impl DoubleEndedIterator<Item = usize> + '_ {
        (0..self.slot_count()).filter(|&i| self.target_position(i).is_some())
    }

    /// The entry in slot `index`, if set.
    pub fn entry(&self, index: usize) -> Option<&RoutingEntry> {
        self.slots.get(index).and_then(|s| s.as_ref())
    }

    /// Mutable access to the entry in slot `index`.
    pub fn entry_mut(&mut self, index: usize) -> Option<&mut RoutingEntry> {
        self.slots.get_mut(index).and_then(|s| s.as_mut())
    }

    /// Sets slot `index` to `entry`, the neighbour at the slot's target
    /// position.
    ///
    /// # Panics
    /// Panics if the slot is invalid for the owner's position.
    pub fn set(&mut self, index: usize, entry: RoutingEntry) {
        assert!(
            self.target_position(index).is_some(),
            "slot {index} is invalid for owner {:?}",
            self.owner
        );
        self.slots[index] = Some(entry);
    }

    /// Clears slot `index`.
    pub fn clear(&mut self, index: usize) {
        if let Some(slot) = self.slots.get_mut(index) {
            *slot = None;
        }
    }

    /// `true` if every *valid* slot holds an entry (the fullness condition
    /// of Theorem 1 and Algorithm 1).
    pub fn is_full(&self) -> bool {
        self.valid_slot_indices().all(|i| self.slots[i].is_some())
    }

    /// Iterates over `(index, entry)` for every occupied slot, nearest
    /// neighbour first (reversible: `.rev()` walks farthest first, which is
    /// how the search hot path builds its greedy candidate order).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (usize, &RoutingEntry)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i, e)))
    }

    /// The nearest occupied entry satisfying `pred`.
    pub fn nearest_matching<F>(&self, mut pred: F) -> Option<(usize, &RoutingEntry)>
    where
        F: FnMut(&RoutingEntry) -> bool,
    {
        self.iter().find(|(_, e)| pred(e))
    }

    /// First occupied entry whose target lacks at least one child (used by
    /// Algorithm 1 to redirect a join towards a node that can still accept
    /// children).
    pub fn first_without_both_children(&self) -> Option<(usize, &RoutingEntry)> {
        self.nearest_matching(|e| !e.has_both_children())
    }

    /// `true` if any occupied entry's target is known to have a child
    /// (the condition deciding whether a leaf may depart directly,
    /// paper §III-B).
    pub fn any_neighbor_has_child(&self) -> bool {
        self.iter().any(|(_, e)| e.has_any_child())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(peer: u32) -> RoutingEntry {
        RoutingEntry::new(PeerId(peer), KeyRange::new(0, 1))
    }

    #[test]
    fn table_slot_geometry_matches_position_math() {
        // Owner: level 3, number 1 (the paper's node h).
        let owner = Position::new(3, 1);
        let left = RoutingTable::new(Side::Left, owner);
        let right = RoutingTable::new(Side::Right, owner);
        assert_eq!(left.slot_count(), 3);
        assert_eq!(right.slot_count(), 3);
        assert_eq!(left.valid_slot_indices().count(), 0);
        assert_eq!(
            right.valid_slot_indices().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(right.target_position(0), Some(Position::new(3, 2)));
        assert_eq!(right.target_position(2), Some(Position::new(3, 5)));
        // A table with no valid slots is trivially full.
        assert!(left.is_full());
        assert!(!right.is_full());
        // The slot vector is allocated exactly: its capacity is the slot
        // count the state estimate multiplies by the slot size.
        assert_eq!(right.slots.capacity(), right.slot_count());
    }

    #[test]
    fn set_and_get_entries() {
        let owner = Position::new(2, 2);
        let mut table = RoutingTable::new(Side::Right, owner);
        table.set(0, entry(7));
        assert_eq!(table.iter().count(), 1);
        assert_eq!(table.entry(0).unwrap().peer, PeerId(7));
        assert_eq!(table.entry(1), None);
        // The slot supplies the position the entry does not store.
        assert_eq!(table.target_position(0), Some(Position::new(2, 3)));
    }

    #[test]
    #[should_panic(expected = "invalid for owner")]
    fn set_rejects_invalid_slot() {
        let owner = Position::new(2, 4); // rightmost of level 2
        let mut table = RoutingTable::new(Side::Right, owner);
        table.set(0, entry(7));
    }

    #[test]
    fn fullness_counts_only_valid_slots() {
        // Owner level 2 number 4 (rightmost): right table has no valid slot,
        // left table has slots for numbers 3 and 2.
        let owner = Position::new(2, 4);
        let right = RoutingTable::new(Side::Right, owner);
        assert!(right.is_full());
        let mut left = RoutingTable::new(Side::Left, owner);
        assert!(!left.is_full());
        left.set(0, entry(1));
        assert!(!left.is_full());
        left.set(1, entry(2));
        assert!(left.is_full());
        left.clear(0);
        assert!(!left.is_full());
    }

    #[test]
    fn farthest_and_matching_selectors() {
        let owner = Position::new(3, 1);
        let mut table = RoutingTable::new(Side::Right, owner);
        let mk =
            |peer: u32, low: u64| RoutingEntry::new(PeerId(peer), KeyRange::new(low, low + 10));
        table.set(0, mk(1, 10));
        table.set(1, mk(2, 20));
        table.set(2, mk(3, 40));
        // The search hot path walks `iter().rev()`: farthest first.
        let (idx, e) = table.iter().next_back().unwrap();
        assert_eq!((idx, e.peer), (2, PeerId(3)));
        // Nearest entry whose lower bound >= 20 is the one at number 3.
        let (idx, e) = table.nearest_matching(|e| e.range.low() >= 20).unwrap();
        assert_eq!((idx, e.peer), (1, PeerId(2)));
        assert!(table.nearest_matching(|e| e.range.low() >= 50).is_none());
    }

    #[test]
    fn child_knowledge_helpers() {
        let owner = Position::new(2, 1);
        let mut table = RoutingTable::new(Side::Right, owner);
        let range = KeyRange::new(0, 1);
        table.set(
            0,
            RoutingEntry::with_children(PeerId(5), range, Some(PeerId(50)), None),
        );
        table.set(1, entry(6));
        assert!(table.entry(0).unwrap().has_any_child());
        assert!(!table.entry(0).unwrap().has_both_children());
        assert!(!table.entry(1).unwrap().has_any_child());
        assert!(table.any_neighbor_has_child());
        assert_eq!(
            table.first_without_both_children().unwrap().1.peer,
            PeerId(5)
        );
        // Fill both children of slot 0; now the first without both children is slot 1.
        table
            .entry_mut(0)
            .unwrap()
            .set_children(Some(PeerId(50)), Some(PeerId(51)));
        assert!(table.entry(0).unwrap().has_both_children());
        assert_eq!(
            table.first_without_both_children().unwrap().1.peer,
            PeerId(6)
        );
    }

    #[test]
    fn iter_orders_slots_nearest_first() {
        let owner = Position::new(3, 8);
        let mut table = RoutingTable::new(Side::Left, owner);
        table.set(2, entry(3));
        table.set(0, entry(1));
        let indices: Vec<usize> = table.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 2]);
    }

    #[test]
    fn entry_children_round_trip_and_compare_by_value() {
        let range = KeyRange::new(0, 1);
        let mut e = RoutingEntry::with_children(PeerId(1), range, None, Some(PeerId(9)));
        assert_eq!((e.left_child(), e.right_child()), (None, Some(PeerId(9))));
        assert_eq!(e.child(Side::Right), Some(PeerId(9)));
        assert_eq!(e.children().collect::<Vec<_>>(), vec![PeerId(9)]);
        e.set_children(Some(PeerId(4)), None);
        assert_eq!(e.children().collect::<Vec<_>>(), vec![PeerId(4)]);
        // Clearing a child forgets its id: equal knowledge, equal entries.
        e.set_children(None, None);
        assert_eq!(e, RoutingEntry::new(PeerId(1), range));
        assert!(!e.has_any_child());
    }

    #[test]
    fn root_table_is_empty_and_full() {
        let table = RoutingTable::new(Side::Left, Position::ROOT);
        assert_eq!(table.slot_count(), 0);
        assert!(table.is_full());
        assert_eq!(table.valid_slot_indices().count(), 0);
        assert_eq!(table.iter().count(), 0);
    }
}
