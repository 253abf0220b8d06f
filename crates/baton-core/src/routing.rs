//! The routing plane and the links a BATON peer holds.
//!
//! Each BATON node links to its parent, each child, each adjacent node, and
//! keeps two *sideways routing tables* with entries to nodes at the same
//! level whose number differs by a power of two (paper §III).  Every link
//! records the key range managed by its target (paper §IV: "We record for
//! each link the range of values managed by the node at the target of the
//! link"), and routing-table entries additionally record the target's
//! children — the information the join algorithm (Algorithm 1) and
//! Theorem 1 rely on.
//!
//! All of these follow from the positions: for the node at heap index `h`,
//! the parent is `h/2`, the children `2h` and `2h+1`, routing-table slot `i`
//! targets `h ± 2^i` on the same level, and the adjacent nodes are the
//! in-order neighbours among the occupied positions.  So the simulator
//! records each position once, in the routing plane (`PositionMap`: the
//! occupant, its current range and the heap indices of its in-order
//! neighbours), and a peer's links are a read-only view computed from it
//! ([`Links`], [`RoutingTable`]).  The plane is the one record of each
//! peer's range and of the root's occupant too: a node keeps only its
//! position, through which its links and range are read, and its store.  A
//! real peer holds the same links in its own state; the protocols still
//! send, and count, every notification that keeps them current.

use baton_net::PeerId;

use crate::node::BatonNode;
use crate::position::{Position, Side};
use crate::range::KeyRange;

/// A link to another node: the target's address and logical position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeLink {
    /// Physical address of the target peer.
    pub peer: PeerId,
    /// Logical position of the target in the tree.
    pub position: Position,
}

impl NodeLink {
    /// Creates a link.
    pub fn new(peer: PeerId, position: Position) -> Self {
        Self { peer, position }
    }
}

/// One entry of a sideways routing table: the neighbour's address, the key
/// range it manages and the peers at its child positions.
///
/// The children are stored as two ids plus two presence flags rather than
/// two `Option<PeerId>`s, which keeps an entry — and, through the flags'
/// niche, an `Option<RoutingEntry>` slot — at 32 bytes, the slot size of
/// the per-peer memory model ([`BatonNode::estimated_state_bytes`]).  An
/// absent child's id is always `PeerId(0)`, so the derived equality
/// compares only what the accessors expose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingEntry {
    /// Physical address of the neighbour peer.
    pub peer: PeerId,
    /// Key range managed by the neighbour.
    pub range: KeyRange,
    children: [PeerId; 2],
    has_child: [bool; 2],
}

impl RoutingEntry {
    /// Creates an entry with explicit child knowledge.
    pub fn with_children(
        peer: PeerId,
        range: KeyRange,
        left_child: Option<PeerId>,
        right_child: Option<PeerId>,
    ) -> Self {
        let children = [left_child, right_child];
        Self {
            peer,
            range,
            children: children.map(|c| c.unwrap_or(PeerId(0))),
            has_child: children.map(|c| c.is_some()),
        }
    }

    /// Peer occupying the neighbour's child position on `side`, if any.
    #[inline]
    pub fn child(&self, side: Side) -> Option<PeerId> {
        let i = usize::from(side == Side::Right);
        self.has_child[i].then_some(self.children[i])
    }

    /// The children, left first.
    pub fn children(&self) -> impl Iterator<Item = PeerId> {
        let entry = *self;
        Side::BOTH
            .into_iter()
            .filter_map(move |side| entry.child(side))
    }

    /// `true` if the target has at least one child.
    pub fn has_any_child(&self) -> bool {
        self.has_child[0] || self.has_child[1]
    }

    /// `true` if the target has both children.
    pub fn has_both_children(&self) -> bool {
        self.has_child[0] && self.has_child[1]
    }
}

/// One position of the [`PositionMap`]: its occupant, if any, the key range
/// that occupant manages now, and the heap indices of the previous and next
/// occupied positions in in-order (meaningless while unoccupied).
#[derive(Clone, Copy, Debug)]
struct PlaneSlot {
    range: KeyRange,
    peer: Option<PeerId>,
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<PlaneSlot>() == 32);
// A node holds its position and store; its address, range and links are
// read from the plane.
const _: () = assert!(std::mem::size_of::<BatonNode>() == 56);

impl PlaneSlot {
    fn empty() -> Self {
        Self {
            range: KeyRange::new(0, 0),
            peer: None,
            prev: 0,
            next: 0,
        }
    }
}

/// The routing plane: one flat array indexed by [`Position::heap_index`]
/// whose entries hold each occupied position's peer, that peer's current key
/// range and the position's in-order neighbours.
///
/// It is the one record of who sits where and what each peer manages: every
/// link of every peer is read from it ([`Links`]), every range
/// (`BatonSystem::range_of`), restructuring probes occupancy through it and
/// the snapshot exporter reads slots from it.  It changes only through
/// `BatonSystem::occupy` / `BatonSystem::vacate`, which log the position for
/// the exporter, and `BatonSystem::set_range`, which logs the peer;
/// `validate` check 7 holds its occupants to the nodes' positions.
///
/// The in-order neighbours form a doubly linked list through the slots,
/// with index 0 — never a position — as its head: `slots[0].next` is the
/// leftmost occupied position.  A position enters the list when first
/// occupied, as a leaf under its occupied parent, and leaves it when
/// vacated; a change of occupant keeps its place.
///
/// BATON keeps the tree balanced, so the occupied positions of an `N`-node
/// overlay span `O(N)` heap indices.  The array grows lazily to the highest
/// index occupied.
#[derive(Clone, Debug, Default)]
pub(crate) struct PositionMap {
    slots: Vec<PlaneSlot>,
    /// Occupied positions per level, so the tree height — consulted by
    /// every search walk for its loop budget — is an O(levels) scan
    /// instead of an O(N) sweep over the nodes.
    occupied: Vec<usize>,
    /// A peer spliced into the in-order chain without a position yet, the
    /// heap index of the position it precedes and the range it manages
    /// ([`Self::splice`]).
    spliced: Option<(PeerId, usize, KeyRange)>,
}

impl PositionMap {
    /// Occupant and range at heap index `h`, if occupied.
    #[inline]
    pub(crate) fn at(&self, h: usize) -> Option<(PeerId, KeyRange)> {
        let slot = self.slots.get(h)?;
        Some((slot.peer?, slot.range))
    }

    /// The peer at heap index `h`, if occupied.
    #[inline]
    pub(crate) fn occupant(&self, h: usize) -> Option<PeerId> {
        self.slots.get(h)?.peer
    }

    /// The peer occupying `position`, if any.
    #[inline]
    pub(crate) fn get(&self, position: Position) -> Option<PeerId> {
        self.occupant(position.heap_index() as usize)
    }

    /// `true` if `position` is occupied.
    #[inline]
    pub(crate) fn contains(&self, position: Position) -> bool {
        self.get(position).is_some()
    }

    /// The link to the occupant of heap index `h`, if occupied.
    #[inline]
    fn link_at(&self, h: usize) -> Option<NodeLink> {
        let peer = self.occupant(h)?;
        Some(NodeLink::new(peer, Position::from_heap_index(h as u64)))
    }

    /// Records that `peer`, managing `range`, occupies `position`.
    ///
    /// An occupied position changes occupant in place.  A free one enters
    /// the in-order chain next to its parent, which must be occupied (or
    /// the plane empty, for the root), and must have no occupied child: the
    /// positions between a leaf and its parent in in-order are the leaf's
    /// own descendants.
    pub(crate) fn insert(&mut self, position: Position, peer: PeerId, range: KeyRange) {
        let level = position.level() as usize;
        if self.occupied.len() <= level {
            self.occupied.resize(level + 1, 0);
        }
        let h = position.heap_index() as usize;
        if self.slots.len() <= h {
            self.slots.resize(h + 1, PlaneSlot::empty());
        }
        if self.spliced.is_some_and(|(spliced, _, _)| spliced == peer) {
            self.spliced = None;
        }
        if self.slots[h].peer.is_none() {
            self.occupied[level] += 1;
            self.link_in(h);
        }
        let slot = &mut self.slots[h];
        slot.peer = Some(peer);
        slot.range = range;
    }

    /// Links the free leaf position `h` into the in-order chain: a left
    /// child precedes its parent, a right child follows it.
    fn link_in(&mut self, h: usize) {
        debug_assert!(
            self.occupant(2 * h).is_none() && self.occupant(2 * h + 1).is_none(),
            "heap index {h} is occupied above an occupied child"
        );
        let parent = h / 2;
        debug_assert!(
            if parent == 0 {
                self.slots[0].next == 0
            } else {
                self.occupant(parent).is_some()
            },
            "heap index {h} enters the chain without an occupied parent"
        );
        let h32 = u32::try_from(h).expect("heap indices fit in 32 bits");
        let (prev, next) = match parent {
            0 => (0, 0),
            _ if h.is_multiple_of(2) => (self.slots[parent].prev, parent as u32),
            _ => (parent as u32, self.slots[parent].next),
        };
        self.slots[h].prev = prev;
        self.slots[h].next = next;
        self.slots[prev as usize].next = h32;
        self.slots[next as usize].prev = h32;
    }

    /// Clears the occupancy record of `position` and unlinks it from the
    /// in-order chain.
    pub(crate) fn remove(&mut self, position: Position) {
        let h = position.heap_index() as usize;
        let Some(slot) = self.slots.get_mut(h) else {
            return;
        };
        if slot.peer.is_none() {
            return;
        }
        let (prev, next) = (slot.prev, slot.next);
        *slot = PlaneSlot::empty();
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
        self.occupied[position.level() as usize] -= 1;
    }

    /// The range `peer` manages: the spliced peer's own, or the range of
    /// heap index `h`, which `peer` occupies.
    #[inline]
    pub(crate) fn range_of(&self, peer: PeerId, h: usize) -> Option<KeyRange> {
        match self.spliced {
            Some((spliced, _, range)) if spliced == peer => Some(range),
            _ => self
                .at(h)
                .filter(|&(p, _)| p == peer)
                .map(|(_, range)| range),
        }
    }

    /// Records the range `peer` — the spliced peer, or the occupant of heap
    /// index `h` — now manages.
    pub(crate) fn set_range(&mut self, peer: PeerId, h: usize, range: KeyRange) {
        match &mut self.spliced {
            Some((spliced, _, own)) if *spliced == peer => *own = range,
            _ => {
                debug_assert_eq!(self.occupant(h), Some(peer), "{peer} is not at {h}");
                self.slots[h].range = range
            }
        }
    }

    /// Splices `peer`, which holds no position and manages `range`, into
    /// the in-order chain as the predecessor of the occupant of heap index
    /// `h`: until `peer` occupies a position, [`Self::adjacent`] places it
    /// there, and its own adjacent links are the occupant's previous
    /// predecessor and the occupant.  Only the load balancer's re-join does
    /// this, and the restructuring that follows in the same operation gives
    /// `peer` a position.
    pub(crate) fn splice(&mut self, peer: PeerId, h: usize, range: KeyRange) {
        debug_assert!(self.spliced.is_none(), "one splice at a time");
        self.spliced = Some((peer, h, range));
    }

    /// The adjacent link on `side` of `peer`, which occupies heap index `h`
    /// or is the spliced peer.  A spliced peer's link carries the position
    /// of the occupant it precedes.
    pub(crate) fn adjacent(&self, peer: PeerId, h: usize, side: Side) -> Option<NodeLink> {
        let step = |h: usize| {
            let slot = &self.slots[h];
            (match side {
                Side::Left => slot.prev,
                Side::Right => slot.next,
            }) as usize
        };
        if let Some((spliced, before, _)) = self.spliced {
            if spliced == peer {
                return self.link_at(if side == Side::Left {
                    step(before)
                } else {
                    before
                });
            }
            let neighbour = if side == Side::Left { h } else { step(h) };
            if neighbour == before {
                return Some(NodeLink::new(
                    spliced,
                    Position::from_heap_index(before as u64),
                ));
            }
        }
        self.link_at(step(h))
    }

    /// `1 + deepest occupied level` (0 when nothing is occupied).
    pub(crate) fn height(&self) -> u32 {
        self.occupied
            .iter()
            .rposition(|&count| count > 0)
            .map(|level| level as u32 + 1)
            .unwrap_or(0)
    }

    /// Occupied positions per level, shallowest first.
    pub(crate) fn level_counts(&self) -> &[usize] {
        &self.occupied
    }

    /// One past the highest heap index the array covers: every occupied
    /// heap index is below it.
    pub(crate) fn heap_len(&self) -> usize {
        self.slots.len()
    }

    /// Every occupied heap index with its occupant and range, in heap order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, PeerId, KeyRange)> + '_ {
        let occupied = |(h, slot): (usize, &PlaneSlot)| Some((h, slot.peer?, slot.range));
        self.slots.iter().enumerate().filter_map(occupied)
    }

    /// The occupied heap indices in the order of the in-order chain.
    pub(crate) fn chain(&self) -> impl Iterator<Item = usize> + '_ {
        let mut h = self.slots.first().map_or(0, |head| head.next as usize);
        std::iter::from_fn(move || {
            let current = h;
            (current != 0).then(|| {
                h = self.slots[current].next as usize;
                current
            })
        })
    }

    /// Overwrites the in-order neighbours recorded at heap index `h`.
    #[cfg(test)]
    pub(crate) fn corrupt_chain(&mut self, h: usize, prev: u32, next: u32) {
        self.slots[h].prev = prev;
        self.slots[h].next = next;
    }
}

/// The links of one peer, read from the routing plane: what the node at
/// `position` holds (paper §III).  Cheap to build and to copy.
#[derive(Clone, Copy, Debug)]
pub struct Links<'a> {
    plane: &'a PositionMap,
    peer: PeerId,
    position: Position,
}

impl<'a> Links<'a> {
    pub(crate) fn new(plane: &'a PositionMap, peer: PeerId, position: Position) -> Self {
        Self {
            plane,
            peer,
            position,
        }
    }

    fn h(&self) -> usize {
        self.position.heap_index() as usize
    }

    /// Link to the parent (`None` only for the root).
    pub fn parent(&self) -> Option<NodeLink> {
        self.plane.link_at(self.h() / 2)
    }

    /// Link to the child on `side`, if present.
    pub fn child(&self, side: Side) -> Option<NodeLink> {
        self.plane
            .link_at(2 * self.h() + usize::from(side == Side::Right))
    }

    /// Link to the adjacent node on `side` (in-order predecessor on the
    /// left, successor on the right), if present.
    pub fn adjacent(&self, side: Side) -> Option<NodeLink> {
        self.plane.adjacent(self.peer, self.h(), side)
    }

    /// Sideways routing table on `side`.
    pub fn table(&self, side: Side) -> RoutingTable<'a> {
        RoutingTable {
            plane: self.plane,
            side,
            owner: self.position,
        }
    }

    /// `true` if the node has no children.
    pub fn is_leaf(&self) -> bool {
        Side::BOTH
            .into_iter()
            .all(|side| self.child(side).is_none())
    }

    /// The side on which a new child would be attached (left preferred),
    /// or `None` if both child positions are occupied.
    pub fn free_child_side(&self) -> Option<Side> {
        Side::BOTH
            .into_iter()
            .find(|&side| self.child(side).is_none())
    }

    /// `true` if both sideways routing tables are full — the precondition of
    /// Theorem 1 for accepting a child and the acceptance test of
    /// Algorithm 1.
    pub fn tables_full(&self) -> bool {
        Side::BOTH
            .into_iter()
            .all(|side| self.table(side).is_full())
    }

    /// `true` if Algorithm 1 lets this node accept a new child right now:
    /// both routing tables full and fewer than two children.
    pub fn can_accept_child(&self) -> bool {
        self.tables_full() && self.free_child_side().is_some()
    }

    /// `true` if a leaf may depart directly without disturbing balance:
    /// it has no children and no neighbour in either routing table has a
    /// child (paper §III-B).
    pub fn can_leave_without_replacement(&self) -> bool {
        self.is_leaf()
            && !Side::BOTH
                .into_iter()
                .any(|side| self.table(side).any_neighbor_has_child())
    }

    /// The entries of both routing tables: left table first, each nearest
    /// neighbour first.
    pub fn table_entries(&self) -> impl Iterator<Item = RoutingEntry> + 'a {
        let slots = self
            .table(Side::Left)
            .iter()
            .chain(self.table(Side::Right).iter());
        slots.map(|(_, e)| e)
    }

    /// The targets of both routing tables, in [`Self::table_entries`] order.
    pub fn table_peers(&self) -> impl Iterator<Item = PeerId> + 'a {
        let left = self.table(Side::Left).peers();
        left.chain(self.table(Side::Right).peers())
    }

    /// The target of every link this node holds, in link order — parent,
    /// children, adjacents, then both routing tables — duplicates included.
    pub fn link_targets(&self) -> impl Iterator<Item = PeerId> + 'a {
        let fixed = [
            self.parent(),
            self.child(Side::Left),
            self.child(Side::Right),
            self.adjacent(Side::Left),
            self.adjacent(Side::Right),
        ];
        let fixed = fixed.into_iter().flatten().map(|l| l.peer);
        fixed.chain(self.table_peers())
    }

    /// Every peer this node holds a link to (parent, children, adjacents and
    /// routing-table targets), without duplicates.  These are exactly the
    /// peers that must be notified when this node's range or address
    /// changes.
    pub fn linked_peers(&self) -> Vec<PeerId> {
        let mut peers = Vec::with_capacity(5 + 2 * self.position.routing_table_size());
        for peer in self.link_targets() {
            if !peers.contains(&peer) {
                peers.push(peer);
            }
        }
        peers
    }
}

/// A sideways routing table (left or right) of one node, read from the
/// routing plane.
///
/// Slot `i` refers to the position at the same level whose number differs
/// from the owner's by `2^i`.  A slot whose target position falls outside
/// `1 ..= 2^level` is *invalid* and never counted towards fullness; a slot
/// whose target position is in range but currently unoccupied is empty.
#[derive(Clone, Copy, Debug)]
pub struct RoutingTable<'a> {
    plane: &'a PositionMap,
    side: Side,
    owner: Position,
}

impl<'a> RoutingTable<'a> {
    /// Number of slots (valid or not) in the table: equals the owner's level.
    pub fn slot_count(&self) -> usize {
        self.owner.routing_table_size()
    }

    /// Target position of slot `index`, or `None` if that slot is invalid
    /// (outside the level's number range).
    pub fn target_position(&self, index: usize) -> Option<Position> {
        self.owner.routing_neighbor(self.side, index)
    }

    /// The entry in slot `index`, if its target position is occupied.
    pub fn entry(&self, index: usize) -> Option<RoutingEntry> {
        let target = self.target_position(index)?.heap_index() as usize;
        let (peer, range) = self.plane.at(target)?;
        let child = |h: usize| self.plane.occupant(h);
        let (left, right) = (child(2 * target), child(2 * target + 1));
        Some(RoutingEntry::with_children(peer, range, left, right))
    }

    /// `true` if every *valid* slot holds an entry (the fullness condition
    /// of Theorem 1 and Algorithm 1).
    pub fn is_full(&self) -> bool {
        let occupied = |i| {
            self.target_position(i)
                .is_none_or(|p| self.plane.contains(p))
        };
        (0..self.slot_count()).all(occupied)
    }

    /// Iterates over `(index, entry)` for every occupied slot, nearest
    /// neighbour first (reversible: `.rev()` walks farthest first, which is
    /// how the search builds its greedy candidate order).
    pub fn iter(self) -> impl DoubleEndedIterator<Item = (usize, RoutingEntry)> + 'a {
        (0..self.slot_count()).filter_map(move |i| Some((i, self.entry(i)?)))
    }

    /// The target of every occupied slot, nearest neighbour first.
    pub fn peers(self) -> impl DoubleEndedIterator<Item = PeerId> + 'a {
        (0..self.slot_count()).filter_map(move |i| {
            self.plane
                .occupant(self.target_position(i)?.heap_index() as usize)
        })
    }

    /// First occupied entry whose target lacks at least one child (used by
    /// Algorithm 1 to redirect a join towards a node that can still accept
    /// children).
    pub fn first_without_both_children(&self) -> Option<(usize, RoutingEntry)> {
        self.iter().find(|(_, e)| !e.has_both_children())
    }

    /// `true` if any occupied entry's target has a child (the condition
    /// deciding whether a leaf may depart directly, paper §III-B).
    pub fn any_neighbor_has_child(&self) -> bool {
        self.iter().any(|(_, e)| e.has_any_child())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A plane occupying `(level, number)` positions, listed parents first,
    /// each by the peer numbered like its heap index `h`, managing
    /// `[h, h + 1)`.
    pub(crate) fn plane_of(positions: &[(u32, u64)]) -> PositionMap {
        let mut plane = PositionMap::default();
        for &(level, number) in positions {
            let position = Position::new(level, number);
            let h = position.heap_index();
            plane.insert(position, PeerId(h as u32), KeyRange::new(h, h + 1));
        }
        plane
    }

    /// The links of the occupant of `(level, number)` in `plane`.
    pub(crate) fn links(plane: &PositionMap, level: u32, number: u64) -> Links<'_> {
        let position = Position::new(level, number);
        Links::new(plane, plane.get(position).unwrap(), position)
    }

    /// The peer [`plane_of`] places at `(level, number)`.
    pub(crate) fn at(level: u32, number: u64) -> PeerId {
        PeerId(Position::new(level, number).heap_index() as u32)
    }

    /// Root, both level-1 positions and the two children of `(1, 1)`.
    pub(crate) fn five() -> PositionMap {
        plane_of(&[(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
    }

    fn table(plane: &PositionMap, side: Side, level: u32, number: u64) -> RoutingTable<'_> {
        let owner = Position::new(level, number);
        Links::new(plane, PeerId(0), owner).table(side)
    }

    /// Every position of levels `0 ..= level`.
    fn full(level: u32) -> Vec<(u32, u64)> {
        (0..=level)
            .flat_map(|l| (1..=1u64 << l).map(move |n| (l, n)))
            .collect()
    }

    #[test]
    fn table_slot_geometry_matches_position_math() {
        // Owner: level 3, number 1 (the paper's node h).
        let plane = PositionMap::default();
        let left = table(&plane, Side::Left, 3, 1);
        let right = table(&plane, Side::Right, 3, 1);
        assert_eq!(left.slot_count(), 3);
        assert_eq!(right.slot_count(), 3);
        let valid =
            |t: RoutingTable<'_>| (0..3).filter(|&i| t.target_position(i).is_some()).count();
        assert_eq!((valid(left), valid(right)), (0, 3));
        assert_eq!(right.target_position(0), Some(Position::new(3, 2)));
        assert_eq!(right.target_position(2), Some(Position::new(3, 5)));
        // A table with no valid slots is trivially full.
        assert!(left.is_full());
        assert!(!right.is_full());
    }

    #[test]
    fn set_and_get_entries() {
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 3)]);
        let table = table(&plane, Side::Right, 2, 2);
        assert_eq!(table.iter().count(), 1);
        assert_eq!(table.entry(0).unwrap().peer, PeerId(6));
        assert_eq!(table.entry(0).unwrap().range, KeyRange::new(6, 7));
        assert_eq!(table.entry(1), None);
        // The slot supplies the position the entry does not hold.
        assert_eq!(table.target_position(0), Some(Position::new(2, 3)));
    }

    #[test]
    fn fullness_counts_only_valid_slots() {
        // Owner level 2 number 4 (rightmost): the right table has no valid
        // slot, the left one has slots for numbers 3 and 2.
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 4)]);
        assert!(table(&plane, Side::Right, 2, 4).is_full());
        assert!(!table(&plane, Side::Left, 2, 4).is_full());
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 4), (2, 3)]);
        assert!(!table(&plane, Side::Left, 2, 4).is_full());
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 4), (2, 3), (2, 2)]);
        assert!(table(&plane, Side::Left, 2, 4).is_full());
    }

    #[test]
    fn farthest_and_matching_selectors() {
        // Owner (3,1): its right slots target (3,2), (3,3) and (3,5), heap
        // indices 9, 10 and 12, managing [h, h + 1).
        let plane = plane_of(&full(3));
        let table = table(&plane, Side::Right, 3, 1);
        // The search walks `iter().rev()`: farthest first.
        let (idx, e) = table.iter().next_back().unwrap();
        assert_eq!((idx, e.peer), (2, PeerId(12)));
        let (idx, e) = table.iter().find(|(_, e)| e.range.low() >= 10).unwrap();
        assert_eq!((idx, e.peer), (1, PeerId(10)));
        assert!(table.iter().all(|(_, e)| e.range.low() < 50));
        assert_eq!(table.peers().collect::<Vec<_>>(), [9, 10, 12].map(PeerId));
    }

    #[test]
    fn child_knowledge_helpers() {
        // Owner (2,1): (2,2) has its left child (3,3), (2,3) none.
        let base = [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3)];
        let plane = plane_of(&base);
        let right = table(&plane, Side::Right, 2, 1);
        assert!(right.entry(0).unwrap().has_any_child());
        assert!(!right.entry(0).unwrap().has_both_children());
        assert!(!right.entry(1).unwrap().has_any_child());
        assert!(right.any_neighbor_has_child());
        assert_eq!(
            right.first_without_both_children().unwrap().1.peer,
            PeerId(5)
        );
        // (2,2) gains its right child: now the first without both is (2,3).
        let plane = plane_of(&[&base[..], &[(3, 4)]].concat());
        let right = table(&plane, Side::Right, 2, 1);
        assert!(right.entry(0).unwrap().has_both_children());
        assert_eq!(
            right.first_without_both_children().unwrap().1.peer,
            PeerId(6)
        );
    }

    #[test]
    fn iter_orders_slots_nearest_first() {
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 2), (2, 4), (3, 4), (3, 7)]);
        let indices: Vec<usize> = table(&plane, Side::Left, 3, 8)
            .iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(indices, vec![0, 2]);
    }

    #[test]
    fn entry_children_round_trip_and_compare_by_value() {
        let range = KeyRange::new(0, 1);
        let e = RoutingEntry::with_children(PeerId(1), range, None, Some(PeerId(9)));
        assert_eq!(e.child(Side::Left), None);
        assert_eq!(e.child(Side::Right), Some(PeerId(9)));
        assert_eq!(e.children().collect::<Vec<_>>(), vec![PeerId(9)]);
        // An absent child leaves no id behind: equal knowledge, equal entries.
        let none = RoutingEntry::with_children(PeerId(1), range, None, None);
        assert_ne!(e, none);
        assert_eq!(
            none,
            RoutingEntry::with_children(PeerId(1), range, None, None)
        );
        assert!(!none.has_any_child());
    }

    #[test]
    fn a_new_occupant_is_every_link_to_its_position() {
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
    fn a_table_entry_names_its_target_s_current_children() {
        // (1,2) records (1,1)'s children; (2,1) changes occupant.
        let mut plane = five();
        plane.insert(Position::new(2, 1), PeerId(98), KeyRange::new(0, 10));
        let entry = links(&plane, 1, 2).table(Side::Left).entry(0).unwrap();
        assert_eq!(entry.children().collect::<Vec<_>>(), [PeerId(98), at(2, 2)]);
        assert_eq!(entry.peer, at(1, 1));
    }

    #[test]
    fn a_table_entry_lists_a_child_once_its_position_is_occupied() {
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2)]);
        let entry = links(&plane, 1, 1).table(Side::Right).entry(0).unwrap();
        assert!(!entry.has_any_child());
        let plane = plane_of(&[(0, 1), (1, 1), (1, 2), (2, 3)]);
        let entry = links(&plane, 1, 1).table(Side::Right).entry(0).unwrap();
        assert_eq!(entry.children().collect::<Vec<_>>(), [at(2, 3)]);
    }

    #[test]
    fn a_range_write_shows_in_the_table_entries_to_its_position() {
        let mut plane = five();
        let moved = KeyRange::new(40, 60);
        plane.set_range(at(1, 1), 2, moved);
        assert_eq!(plane.at(2).unwrap().1, moved);
        assert_eq!(plane.range_of(at(1, 1), 2), Some(moved));
        let entry = links(&plane, 1, 2).table(Side::Left).entry(0).unwrap();
        assert_eq!(entry.range, moved);
    }

    #[test]
    fn vacating_a_position_empties_only_its_table_slot() {
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
    fn root_table_is_empty_and_full() {
        let plane = plane_of(&[(0, 1)]);
        let table = table(&plane, Side::Left, 0, 1);
        assert_eq!(table.slot_count(), 0);
        assert!(table.is_full());
        assert_eq!(table.iter().count(), 0);
    }

    /// The chain after every occupy and vacate is the in-order sort of the
    /// occupied positions, a change of occupant keeps it, and a splice
    /// shows in the adjacent links only; the spliced peer's range lives in
    /// the splice record until it occupies a position.
    #[test]
    fn the_in_order_chain_follows_occupy_vacate_and_splices() {
        let in_order = |plane: &PositionMap| {
            let mut occupied: Vec<Position> = plane
                .iter()
                .map(|(h, _, _)| Position::from_heap_index(h as u64))
                .collect();
            occupied.sort_by(|a, b| a.inorder_cmp(*b));
            occupied
                .iter()
                .map(|p| p.heap_index() as usize)
                .collect::<Vec<_>>()
        };
        let mut plane = plane_of(&full(3));
        assert_eq!(plane.chain().collect::<Vec<_>>(), in_order(&plane));
        for (level, number) in [(3, 1), (3, 8), (3, 4), (2, 2)] {
            plane.remove(Position::new(level, number));
            assert_eq!(plane.chain().collect::<Vec<_>>(), in_order(&plane));
        }
        plane.insert(Position::new(1, 1), PeerId(50), KeyRange::new(0, 1));
        plane.insert(Position::new(3, 8), PeerId(51), KeyRange::new(0, 1));
        assert_eq!(plane.chain().collect::<Vec<_>>(), in_order(&plane));

        // Splice a peer ahead of the root (heap index 1).
        let root_left = plane.adjacent(PeerId(1), 1, Side::Left).unwrap().peer;
        plane.splice(PeerId(60), 1, KeyRange::new(7, 8));
        plane.set_range(PeerId(60), 1, KeyRange::new(6, 8));
        assert_eq!(plane.range_of(PeerId(60), 1), Some(KeyRange::new(6, 8)));
        assert_eq!(plane.range_of(PeerId(1), 1), Some(KeyRange::new(1, 2)));
        let peer_of = |link: Option<NodeLink>| link.map(|l| l.peer);
        assert_eq!(
            peer_of(plane.adjacent(PeerId(1), 1, Side::Left)),
            Some(PeerId(60))
        );
        let h = plane.iter().find(|&(_, p, _)| p == root_left).unwrap().0;
        assert_eq!(
            peer_of(plane.adjacent(root_left, h, Side::Right)),
            Some(PeerId(60))
        );
        assert_eq!(
            peer_of(plane.adjacent(PeerId(60), 1, Side::Left)),
            Some(root_left)
        );
        assert_eq!(
            peer_of(plane.adjacent(PeerId(60), 1, Side::Right)),
            Some(PeerId(1))
        );
        // Occupying a position ends the splice.
        plane.insert(Position::ROOT, PeerId(60), KeyRange::new(0, 1));
        assert_eq!(
            peer_of(plane.adjacent(PeerId(60), 1, Side::Left)),
            Some(root_left)
        );
        assert_eq!(plane.chain().collect::<Vec<_>>(), in_order(&plane));
    }
}
