//! State held by a single BATON peer.
//!
//! A [`BatonNode`] is everything one peer knows: its own position and key
//! range, its local data, and its links — parent, children, adjacent nodes
//! and the two sideways routing tables (paper §III).  All protocol logic
//! lives in [`crate::protocol`] and [`crate::system`]; this module is pure
//! state plus small queries over that state.

use baton_net::PeerId;

use crate::position::{Position, Side};
use crate::range::KeyRange;
use crate::routing::{NodeLink, RoutingEntry, RoutingTable};
use crate::store::LocalStore;

/// State of one peer in the BATON overlay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatonNode {
    /// Physical address of this peer.
    pub peer: PeerId,
    /// Logical position in the balanced tree.
    pub position: Position,
    /// Key range this node manages directly.
    pub range: KeyRange,
    /// Link to the parent node (`None` only for the root).
    pub parent: Option<NodeLink>,
    /// Link to the left child, if present.
    pub left_child: Option<NodeLink>,
    /// Link to the right child, if present.
    pub right_child: Option<NodeLink>,
    /// Link to the left adjacent node (in-order predecessor).
    pub left_adjacent: Option<NodeLink>,
    /// Link to the right adjacent node (in-order successor).
    pub right_adjacent: Option<NodeLink>,
    /// Left sideways routing table.
    pub left_table: RoutingTable,
    /// Right sideways routing table.
    pub right_table: RoutingTable,
    /// Local index entries (keys inside `range`).
    pub store: LocalStore,
}

impl BatonNode {
    /// Creates a node at `position` managing `range`, with no links yet.
    pub fn new(peer: PeerId, position: Position, range: KeyRange) -> Self {
        Self {
            peer,
            position,
            range,
            parent: None,
            left_child: None,
            right_child: None,
            left_adjacent: None,
            right_adjacent: None,
            left_table: RoutingTable::new(Side::Left, position),
            right_table: RoutingTable::new(Side::Right, position),
            store: LocalStore::new(),
        }
    }

    /// Approximate resident bytes of this node's state: the struct itself
    /// plus the heap behind its routing tables and local store.
    pub fn estimated_state_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
            + self.left_table.estimated_heap_bytes()
            + self.right_table.estimated_heap_bytes()
            + self.store.estimated_heap_bytes()
    }

    /// The link other nodes should hold for this node, reflecting its
    /// current position and range.
    pub fn link(&self) -> NodeLink {
        NodeLink::new(self.peer, self.position, self.range)
    }

    /// The entry this node's same-level neighbours hold for it: its address,
    /// current range and children.
    pub(crate) fn routing_entry(&self) -> RoutingEntry {
        RoutingEntry::with_children(
            self.peer,
            self.range,
            self.left_child.map(|l| l.peer),
            self.right_child.map(|l| l.peer),
        )
    }

    /// Level of this node in the tree.
    pub fn level(&self) -> u32 {
        self.position.level()
    }

    /// `true` if this node currently occupies the root position.
    pub fn is_root(&self) -> bool {
        self.position.is_root()
    }

    /// `true` if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.left_child.is_none() && self.right_child.is_none()
    }

    /// Number of children (0, 1 or 2).
    pub fn child_count(&self) -> usize {
        usize::from(self.left_child.is_some()) + usize::from(self.right_child.is_some())
    }

    /// Child link on `side`.
    pub fn child(&self, side: Side) -> Option<&NodeLink> {
        match side {
            Side::Left => self.left_child.as_ref(),
            Side::Right => self.right_child.as_ref(),
        }
    }

    /// Sets (or clears) the child link on `side`.
    pub fn set_child(&mut self, side: Side, link: Option<NodeLink>) {
        match side {
            Side::Left => self.left_child = link,
            Side::Right => self.right_child = link,
        }
    }

    /// Adjacent link on `side`.
    pub fn adjacent(&self, side: Side) -> Option<&NodeLink> {
        match side {
            Side::Left => self.left_adjacent.as_ref(),
            Side::Right => self.right_adjacent.as_ref(),
        }
    }

    /// Sets (or clears) the adjacent link on `side`.
    pub fn set_adjacent(&mut self, side: Side, link: Option<NodeLink>) {
        match side {
            Side::Left => self.left_adjacent = link,
            Side::Right => self.right_adjacent = link,
        }
    }

    /// Routing table on `side`.
    pub fn table(&self, side: Side) -> &RoutingTable {
        match side {
            Side::Left => &self.left_table,
            Side::Right => &self.right_table,
        }
    }

    /// Mutable routing table on `side`.
    pub fn table_mut(&mut self, side: Side) -> &mut RoutingTable {
        match side {
            Side::Left => &mut self.left_table,
            Side::Right => &mut self.right_table,
        }
    }

    /// `true` if both sideways routing tables are full — the precondition of
    /// Theorem 1 for accepting a child and the acceptance test of
    /// Algorithm 1.
    pub fn tables_full(&self) -> bool {
        self.left_table.is_full() && self.right_table.is_full()
    }

    /// `true` if Algorithm 1 lets this node accept a new child right now:
    /// both routing tables full and fewer than two children.
    pub fn can_accept_child(&self) -> bool {
        self.tables_full() && self.child_count() < 2
    }

    /// The side on which a new child would be attached (left preferred),
    /// or `None` if both child positions are occupied.
    pub fn free_child_side(&self) -> Option<Side> {
        if self.left_child.is_none() {
            Some(Side::Left)
        } else if self.right_child.is_none() {
            Some(Side::Right)
        } else {
            None
        }
    }

    /// `true` if a leaf may depart directly without disturbing balance:
    /// it has no children and no neighbour in either routing table has a
    /// child (paper §III-B).
    pub fn can_leave_without_replacement(&self) -> bool {
        self.is_leaf()
            && !self.left_table.any_neighbor_has_child()
            && !self.right_table.any_neighbor_has_child()
    }

    /// Number of data items currently stored.
    pub fn load(&self) -> usize {
        self.store.len()
    }

    /// The entries of both routing tables: left table first, each nearest
    /// neighbour first.
    pub fn table_entries(&self) -> impl Iterator<Item = &RoutingEntry> + '_ {
        let slots = self.left_table.iter().chain(self.right_table.iter());
        slots.map(|(_, e)| e)
    }

    /// The targets of both routing tables, in [`Self::table_entries`] order.
    pub fn table_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.table_entries().map(|e| e.peer)
    }

    /// The target of every link this node holds, in link order — parent,
    /// children, adjacents, then both routing tables — duplicates included.
    pub(crate) fn link_targets(&self) -> impl Iterator<Item = PeerId> + '_ {
        let fixed = [
            &self.parent,
            &self.left_child,
            &self.right_child,
            &self.left_adjacent,
            &self.right_adjacent,
        ];
        let fixed = fixed.into_iter().flatten().map(|l| l.peer);
        fixed.chain(self.table_peers())
    }

    /// Every peer this node holds a link to (parent, children, adjacents and
    /// routing-table targets), without duplicates.  These are exactly the
    /// peers that must be notified when this node's range or address
    /// changes.
    pub fn linked_peers(&self) -> Vec<PeerId> {
        let slots = self.left_table.slot_count() + self.right_table.slot_count();
        let mut peers = Vec::with_capacity(5 + slots);
        for peer in self.link_targets() {
            if !peers.contains(&peer) {
                peers.push(peer);
            }
        }
        peers
    }

    /// The slot of this node's routing tables that refers to `position`:
    /// `(side, i)` when `position` lies on the tables' level at distance
    /// `2^i` from their owner, `None` otherwise (another level, the owner
    /// itself, a distance that is not a power of two).
    ///
    /// A membership notification carries its sender's position, so the
    /// receiver updates this one slot instead of scanning both tables: an
    /// entry's position is its slot's, so no other slot can refer to it.
    pub fn table_slot_of(&self, position: Position) -> Option<(Side, usize)> {
        let owner = self.left_table.owner();
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

    /// The routing-table slot whose entry names `peer`, which sits at
    /// `position`.
    fn slot_naming(&self, peer: PeerId, position: Position) -> Option<(Side, usize)> {
        let slot = self.table_slot_of(position);
        debug_assert!(
            Side::BOTH.into_iter().all(|s| self
                .table(s)
                .iter()
                .all(|(i, e)| e.peer != peer || slot == Some((s, i)))),
            "{peer} is named outside the slot of {position:?}"
        );
        slot.filter(|&(side, i)| self.table(side).entry(i).is_some_and(|e| e.peer == peer))
    }

    /// The routing-table entry naming `peer`, which sits at `position`.
    fn table_entry_of(&mut self, peer: PeerId, position: Position) -> Option<&mut RoutingEntry> {
        let (side, index) = self.slot_naming(peer, position)?;
        self.table_mut(side).entry_mut(index)
    }

    /// The parent, child and adjacent links that point at `peer`.
    fn fixed_links_to(&mut self, peer: PeerId) -> impl Iterator<Item = &mut NodeLink> {
        [
            &mut self.parent,
            &mut self.left_child,
            &mut self.right_child,
            &mut self.left_adjacent,
            &mut self.right_adjacent,
        ]
        .into_iter()
        .flatten()
        .filter(move |l| l.peer == peer)
    }

    /// Replaces every reference to `old` (in parent/child/adjacent links and
    /// routing tables) with a link to `new_link`, which keeps `old`'s
    /// position.  Used when a replacement node takes over a departed node's
    /// position (paper §III-B) — "all nodes with links to x must be informed
    /// to change the physical address of the link to point to y".
    pub fn rewrite_links(&mut self, old: PeerId, new_link: NodeLink) {
        for link in self.fixed_links_to(old) {
            *link = new_link;
        }
        if let Some(entry) = self.table_entry_of(old, new_link.position) {
            entry.peer = new_link.peer;
            entry.range = new_link.range;
        }
        // Child knowledge names `old` only in the entry of its parent.
        let parent_slot = new_link
            .position
            .parent()
            .and_then(|p| self.table_slot_of(p));
        if let Some(entry) = parent_slot.and_then(|(side, i)| self.table_mut(side).entry_mut(i)) {
            let renamed = |child: Option<PeerId>| {
                if child == Some(old) {
                    Some(new_link.peer)
                } else {
                    child
                }
            };
            entry.set_children(renamed(entry.left_child()), renamed(entry.right_child()));
        }
    }

    /// Updates the recorded range on every link that points at `peer`,
    /// which sits at `position`.
    pub fn update_link_range(&mut self, peer: PeerId, position: Position, range: KeyRange) {
        for link in self.fixed_links_to(peer) {
            link.range = range;
        }
        if let Some(entry) = self.table_entry_of(peer, position) {
            entry.range = range;
        }
    }

    /// Updates the child knowledge recorded for the routing-table neighbour
    /// `peer`, which sits at `position`.
    pub fn update_neighbor_children(
        &mut self,
        peer: PeerId,
        position: Position,
        left_child: Option<PeerId>,
        right_child: Option<PeerId>,
    ) {
        if let Some(entry) = self.table_entry_of(peer, position) {
            entry.set_children(left_child, right_child);
        }
    }

    /// Drops the routing-table entry naming `peer`, a leaf departing from
    /// `position` (paper §III-B).
    pub fn drop_table_link(&mut self, peer: PeerId, position: Position) {
        if let Some((side, index)) = self.slot_naming(peer, position) {
            self.table_mut(side).clear(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(peer: u32, level: u32, number: u64) -> BatonNode {
        BatonNode::new(
            PeerId(peer),
            Position::new(level, number),
            KeyRange::new(0, 100),
        )
    }

    fn link_to(n: &BatonNode) -> NodeLink {
        n.link()
    }

    #[test]
    fn state_layout_stays_within_its_byte_budgets() {
        use std::mem::size_of;
        assert_eq!(size_of::<Position>(), 8);
        assert_eq!(size_of::<Option<Position>>(), 8);
        assert!(size_of::<Option<NodeLink>>() <= 32);
        // A routing slot, empty or not: peer, range and two child ids.
        assert!(size_of::<Option<RoutingEntry>>() <= 32);
        assert!(size_of::<Option<BatonNode>>() <= 336);
    }

    #[test]
    fn fresh_node_is_a_rootless_leaf() {
        let n = node(1, 2, 3);
        assert!(n.is_leaf());
        assert_eq!(n.child_count(), 0);
        assert!(!n.is_root());
        assert_eq!(n.level(), 2);
        assert_eq!(n.load(), 0);
        assert_eq!(n.free_child_side(), Some(Side::Left));
        assert!(n.linked_peers().is_empty());
    }

    #[test]
    fn root_node_tables_are_trivially_full() {
        let root = node(0, 0, 1);
        assert!(root.is_root());
        assert!(root.tables_full());
        assert!(root.can_accept_child());
    }

    #[test]
    fn child_and_adjacent_accessors() {
        let mut n = node(1, 1, 1);
        let c = node(2, 2, 1);
        let a = node(3, 0, 1);
        n.set_child(Side::Left, Some(link_to(&c)));
        n.set_adjacent(Side::Right, Some(link_to(&a)));
        assert_eq!(n.child(Side::Left).unwrap().peer, PeerId(2));
        assert!(n.child(Side::Right).is_none());
        assert_eq!(n.adjacent(Side::Right).unwrap().peer, PeerId(3));
        assert!(n.adjacent(Side::Left).is_none());
        assert_eq!(n.child_count(), 1);
        assert!(!n.is_leaf());
        assert_eq!(n.free_child_side(), Some(Side::Right));
        n.set_child(Side::Right, Some(link_to(&a)));
        assert_eq!(n.free_child_side(), None);
        n.set_child(Side::Left, None);
        assert_eq!(n.free_child_side(), Some(Side::Left));
    }

    #[test]
    fn can_accept_child_requires_full_tables() {
        // Node at level 1 number 1: right table has one valid slot (number 2).
        let mut n = node(1, 1, 1);
        assert!(!n.can_accept_child(), "right table not yet full");
        let sibling = node(2, 1, 2);
        n.right_table.set(0, sibling.routing_entry());
        assert!(n.can_accept_child());
        // Give it two children: still full tables but no capacity.
        n.set_child(Side::Left, Some(link_to(&sibling)));
        n.set_child(Side::Right, Some(link_to(&sibling)));
        assert!(!n.can_accept_child());
    }

    #[test]
    fn can_leave_without_replacement_logic() {
        let mut n = node(1, 2, 2);
        // Leaf, no routing entries: may depart.
        assert!(n.can_leave_without_replacement());
        // Neighbour with a child: must find a replacement.
        let neighbor = node(2, 2, 3);
        n.right_table.set(
            0,
            RoutingEntry::with_children(neighbor.peer, neighbor.range, Some(PeerId(9)), None),
        );
        assert!(!n.can_leave_without_replacement());
        // Non-leaf can never depart directly.
        let mut m = node(3, 2, 2);
        m.set_child(Side::Left, Some(link_to(&neighbor)));
        assert!(!m.can_leave_without_replacement());
    }

    #[test]
    fn linked_peers_deduplicates() {
        let mut n = node(1, 2, 2);
        let other = node(5, 2, 1);
        let other_link = link_to(&other);
        n.parent = Some(other_link);
        n.left_adjacent = Some(other_link);
        n.left_table.set(0, other.routing_entry());
        assert_eq!(n.linked_peers(), vec![PeerId(5)]);
    }

    #[test]
    fn table_slot_of_is_the_inverse_of_routing_neighbor() {
        let n = node(1, 3, 5);
        assert_eq!(n.table_slot_of(Position::new(3, 4)), Some((Side::Left, 0)));
        assert_eq!(n.table_slot_of(Position::new(3, 1)), Some((Side::Left, 2)));
        assert_eq!(n.table_slot_of(Position::new(3, 7)), Some((Side::Right, 1)));
        // Distance 3, the owner itself, another level.
        assert_eq!(n.table_slot_of(Position::new(3, 8)), None);
        assert_eq!(n.table_slot_of(Position::new(3, 5)), None);
        assert_eq!(n.table_slot_of(Position::new(2, 3)), None);
    }

    #[test]
    fn rewrite_links_replaces_every_reference() {
        let mut n = node(1, 2, 2);
        let old = node(5, 2, 1);
        let old_link = link_to(&old);
        n.parent = Some(old_link);
        n.left_adjacent = Some(old_link);
        n.left_table.set(0, old.routing_entry());
        let replacement = NodeLink::new(PeerId(9), Position::new(2, 1), KeyRange::new(0, 10));
        n.rewrite_links(PeerId(5), replacement);
        assert_eq!(n.parent, Some(replacement));
        assert_eq!(n.left_adjacent, Some(replacement));
        let entry = n.left_table.entry(0).unwrap();
        assert_eq!(
            (entry.peer, entry.range),
            (replacement.peer, replacement.range)
        );
        // No references to the old peer remain.
        assert!(!n.linked_peers().contains(&PeerId(5)));
    }

    #[test]
    fn rewrite_links_updates_child_knowledge_in_tables() {
        let mut n = node(1, 2, 2);
        let neighbor = node(5, 2, 1);
        n.left_table.set(
            0,
            RoutingEntry::with_children(neighbor.peer, neighbor.range, Some(PeerId(7)), None),
        );
        let replacement = NodeLink::new(PeerId(8), Position::new(3, 1), KeyRange::new(0, 10));
        n.rewrite_links(PeerId(7), replacement);
        let entry = n.left_table.entry(0).unwrap();
        assert_eq!(entry.left_child(), Some(PeerId(8)));
        assert_eq!((entry.peer, entry.range), (neighbor.peer, neighbor.range));
    }

    #[test]
    fn update_link_range_touches_all_link_kinds() {
        let mut n = node(1, 2, 2);
        let other = node(5, 2, 1);
        let other_link = link_to(&other);
        n.parent = Some(other_link);
        n.right_adjacent = Some(other_link);
        n.left_table.set(0, other.routing_entry());
        let before = n.clone();
        n.update_link_range(PeerId(5), other.position, KeyRange::new(40, 60));
        assert_eq!(n.parent.unwrap().range, KeyRange::new(40, 60));
        assert_eq!(n.right_adjacent.unwrap().range, KeyRange::new(40, 60));
        assert_eq!(n.left_table.entry(0).unwrap().range, KeyRange::new(40, 60));
        // A peer this node holds no link to changes nothing.
        let mut untouched = before.clone();
        untouched.update_link_range(PeerId(99), other.position, KeyRange::new(0, 1));
        assert_eq!(untouched, before);
    }

    #[test]
    fn update_neighbor_children_sets_table_knowledge() {
        let mut n = node(1, 2, 2);
        let neighbor = node(5, 2, 3);
        n.right_table.set(0, neighbor.routing_entry());
        assert!(!n.right_table.entry(0).unwrap().has_any_child());
        n.update_neighbor_children(PeerId(5), neighbor.position, Some(PeerId(8)), None);
        assert_eq!(
            n.right_table.entry(0).unwrap().left_child(),
            Some(PeerId(8))
        );
        let before = n.clone();
        n.update_neighbor_children(PeerId(99), neighbor.position, None, None);
        assert_eq!(n, before);
    }

    #[test]
    fn drop_table_link_clears_the_one_matching_slot() {
        let mut n = node(1, 3, 4);
        let near = node(10, 3, 3);
        let far = node(11, 3, 2);
        n.left_table.set(0, near.routing_entry());
        n.left_table.set(1, far.routing_entry());
        // The slot is held by another peer: nothing is dropped.
        n.drop_table_link(PeerId(99), near.position);
        assert_eq!(n.left_table.iter().count(), 2);
        n.drop_table_link(PeerId(10), near.position);
        assert_eq!(n.left_table.entry(0), None);
        assert_eq!(n.left_table.entry(1).unwrap().peer, PeerId(11));
    }

    #[test]
    fn node_link_reflects_current_state() {
        let n = node(4, 3, 5);
        let l = n.link();
        assert_eq!(l.peer, PeerId(4));
        assert_eq!(l.position, Position::new(3, 5));
        assert_eq!(l.range, KeyRange::new(0, 100));
    }
}
