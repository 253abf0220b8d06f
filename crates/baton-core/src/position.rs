//! Logical tree positions.
//!
//! A BATON node is identified by a *level* and a *number* (paper §III): the
//! root is at level 0, the level of any node is one greater than its
//! parent's, and at each level `L` positions are numbered `1 ..= 2^L`
//! whether or not a peer currently occupies them.
//!
//! This module is pure arithmetic on those `(level, number)` pairs: parent /
//! child positions, sideways neighbour positions at distance `2^i` (the
//! targets of the left and right routing tables), and a total order
//! corresponding to the in-order traversal of the infinite binary tree
//! (used to reason about adjacency and range ordering).

use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroU64;

/// Which side of a node: used for children, adjacent links and routing
/// tables throughout the crate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// Towards smaller keys / smaller in-order positions.
    Left,
    /// Towards larger keys / larger in-order positions.
    Right,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Both sides, left first.
    pub const BOTH: [Side; 2] = [Side::Left, Side::Right];
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "left"),
            Side::Right => write!(f, "right"),
        }
    }
}

/// A logical position in the BATON tree: `(level, number)` with
/// `1 <= number <= 2^level`.
///
/// Stored as the position's non-zero heap index `2^level + number − 1`
/// (root 1, its children 2 and 3, …), so a position is 8 bytes and an
/// `Option<Position>` — or any `Option` of a struct holding one — costs
/// nothing extra.  Parent and children are a shift away; level and number
/// are recovered from the index's leading bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Position(NonZeroU64);

impl fmt::Debug for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(L{},#{})", self.level(), self.number())
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "level {} number {}", self.level(), self.number())
    }
}

impl Position {
    /// Maximum supported level.  `2^MAX_LEVEL` positions per level must fit
    /// comfortably in a `u64` and in-order comparison must fit in a `u128`;
    /// 60 levels is far beyond any realistic overlay (a balanced tree with
    /// 10^12 peers has height ≈ 58).
    pub const MAX_LEVEL: u32 = 60;

    /// The root position: level 0, number 1.
    pub const ROOT: Position = Position(NonZeroU64::MIN);

    /// Creates a position, validating that `number` is within `1 ..= 2^level`.
    ///
    /// # Panics
    /// Panics if the position is out of range or the level exceeds
    /// [`Position::MAX_LEVEL`].
    pub fn new(level: u32, number: u64) -> Self {
        assert!(
            level <= Self::MAX_LEVEL,
            "level {level} exceeds MAX_LEVEL {}",
            Self::MAX_LEVEL
        );
        assert!(
            number >= 1 && number <= (1u64 << level),
            "number {number} out of range for level {level}"
        );
        Self::from_heap_index((1u64 << level) + number - 1)
    }

    /// Creates a position without validation; `None` if out of range.
    pub fn checked_new(level: u32, number: u64) -> Option<Self> {
        if level <= Self::MAX_LEVEL && number >= 1 && number <= (1u64 << level) {
            Some(Self::from_heap_index((1u64 << level) + number - 1))
        } else {
            None
        }
    }

    /// The position with heap index `index` (`2^level + number − 1`).
    ///
    /// # Panics
    /// Panics if `index` is 0 or its level exceeds [`Position::MAX_LEVEL`].
    #[inline]
    pub(crate) fn from_heap_index(index: u64) -> Self {
        assert!(
            index != 0 && index.ilog2() <= Self::MAX_LEVEL,
            "heap index {index} out of range"
        );
        Self(NonZeroU64::new(index).expect("checked non-zero"))
    }

    /// Heap index of the position: `2^level + number − 1`, so the root is
    /// 1 and the positions of a complete tree are numbered `1 ..= n` in
    /// level order.
    #[inline]
    pub(crate) fn heap_index(self) -> u64 {
        self.0.get()
    }

    /// Level of the position (root = 0).
    #[inline]
    pub fn level(self) -> u32 {
        self.0.ilog2()
    }

    /// Number of the position within its level (1-based).
    #[inline]
    pub fn number(self) -> u64 {
        self.heap_index() - self.level_width() + 1
    }

    /// `true` for the root position.
    #[inline]
    pub fn is_root(self) -> bool {
        self == Self::ROOT
    }

    /// `true` if this position is the left child of its parent
    /// (left children have odd numbers, hence even heap indices).
    #[inline]
    pub fn is_left_child(self) -> bool {
        !self.is_root() && self.heap_index().is_multiple_of(2)
    }

    /// Which child of its parent this position is, or `None` for the root.
    pub fn child_side(self) -> Option<Side> {
        if self.is_root() {
            None
        } else if self.is_left_child() {
            Some(Side::Left)
        } else {
            Some(Side::Right)
        }
    }

    /// Position of the parent, or `None` for the root.
    pub fn parent(self) -> Option<Position> {
        NonZeroU64::new(self.heap_index() / 2).map(Position)
    }

    /// Position of the left child.
    ///
    /// # Panics
    /// Panics if the child level would exceed [`Position::MAX_LEVEL`].
    pub fn left_child(self) -> Position {
        self.child(Side::Left)
    }

    /// Position of the right child.
    ///
    /// # Panics
    /// Panics if the child level would exceed [`Position::MAX_LEVEL`].
    pub fn right_child(self) -> Position {
        self.child(Side::Right)
    }

    /// Position of the child on `side`.
    pub fn child(self, side: Side) -> Position {
        assert!(
            self.level() < Self::MAX_LEVEL,
            "level {} exceeds MAX_LEVEL {}",
            self.level() + 1,
            Self::MAX_LEVEL
        );
        Position::from_heap_index(2 * self.heap_index() + u64::from(side == Side::Right))
    }

    /// Number of the last position at this level (`2^level`).
    #[inline]
    pub fn level_width(self) -> u64 {
        1u64 << self.level()
    }

    /// Number of routing-table slots at this level.
    ///
    /// Entry `i` of the left (right) table points to the position at the
    /// same level with number smaller (greater) by `2^i`; indices `0 ..
    /// level` can be in range, so a table at level `L` has at most `L`
    /// entries (paper §III).
    #[inline]
    pub fn routing_table_size(self) -> usize {
        self.level() as usize
    }

    /// Neighbour position targeted by routing-table entry `index` on `side`,
    /// or `None` if `number ± 2^index` falls outside `1 ..= 2^level`.
    pub fn routing_neighbor(self, side: Side, index: usize) -> Option<Position> {
        if index >= self.routing_table_size() {
            return None;
        }
        let distance = 1u64 << index;
        // A level's heap indices are `2^level ..= 2^(level+1) − 1`.
        let first = self.level_width();
        let target = match side {
            Side::Left => self
                .heap_index()
                .checked_sub(distance)
                .filter(|&t| t >= first)?,
            Side::Right => self
                .heap_index()
                .checked_add(distance)
                .filter(|&t| t < 2 * first)?,
        };
        Some(Position::from_heap_index(target))
    }

    /// In-order rank of the position in the *infinite* binary tree, as the
    /// dyadic fraction `(2·number − 1) / 2^(level+1)` of the whole key
    /// space.  Returned as `(numerator, log2_denominator)`.
    ///
    /// Two positions compare in the in-order traversal order exactly as
    /// their fractions compare; see [`Position::inorder_cmp`].
    pub fn inorder_fraction(self) -> (u64, u32) {
        (2 * self.number() - 1, self.level() + 1)
    }

    /// Compares two positions by their order in an in-order traversal of
    /// the (infinite, complete) binary tree.
    ///
    /// A node's left descendants order before it, its right descendants
    /// after it; this is the order in which key ranges are assigned
    /// (paper §IV).
    pub fn inorder_cmp(self, other: Position) -> Ordering {
        let (an, ad) = self.inorder_fraction();
        let (bn, bd) = other.inorder_fraction();
        // Compare an / 2^ad with bn / 2^bd by cross-multiplying in u128.
        let lhs = (an as u128) << bd;
        let rhs = (bn as u128) << ad;
        lhs.cmp(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let root = Position::ROOT;
        assert_eq!(root.level(), 0);
        assert_eq!(root.number(), 1);
        assert!(root.is_root());
        assert!(!root.is_left_child());
        assert_eq!(root.parent(), None);
        assert_eq!(root.child_side(), None);
        assert_eq!(root.routing_table_size(), 0);
    }

    #[test]
    fn children_and_parent_roundtrip() {
        let root = Position::ROOT;
        let l = root.left_child();
        let r = root.right_child();
        assert_eq!(l, Position::new(1, 1));
        assert_eq!(r, Position::new(1, 2));
        assert!(l.is_left_child());
        assert!(!r.is_left_child());
        assert_eq!(l.parent(), Some(root));
        assert_eq!(r.parent(), Some(root));
        assert_eq!(l.child_side(), Some(Side::Left));
        assert_eq!(r.child_side(), Some(Side::Right));
        assert_eq!(root.child(Side::Left), l);
        assert_eq!(root.child(Side::Right), r);
    }

    #[test]
    fn deep_parent_child_examples() {
        // Level 3 numbering from the paper's Figure 1: positions 1..8.
        let p = Position::new(3, 5);
        assert_eq!(p.parent(), Some(Position::new(2, 3)));
        assert_eq!(Position::new(2, 3).left_child(), Position::new(3, 5));
        assert_eq!(Position::new(2, 3).right_child(), Position::new(3, 6));
        assert!(Position::new(3, 5).is_left_child());
        assert!(!Position::new(3, 6).is_left_child());
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Position::checked_new(2, 0).is_none());
        assert!(Position::checked_new(2, 5).is_none());
        assert!(Position::checked_new(2, 4).is_some());
        assert!(Position::checked_new(Position::MAX_LEVEL + 1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_panics_out_of_range() {
        Position::new(3, 9);
    }

    #[test]
    fn heap_index_numbers_positions_in_level_order() {
        assert_eq!(Position::ROOT.heap_index(), 1);
        assert_eq!(Position::new(1, 1).heap_index(), 2);
        assert_eq!(Position::new(1, 2).heap_index(), 3);
        assert_eq!(Position::new(3, 5).heap_index(), 12);
        for index in 1..64 {
            let p = Position::from_heap_index(index);
            assert_eq!(Position::new(p.level(), p.number()), p);
        }
        // The deepest level keeps its full number range.
        let last = Position::new(Position::MAX_LEVEL, 1u64 << Position::MAX_LEVEL);
        assert_eq!(
            (last.level(), last.number()),
            (Position::MAX_LEVEL, 1u64 << Position::MAX_LEVEL)
        );
        assert_eq!(last.routing_neighbor(Side::Right, 0), None);
        assert_eq!(
            last.routing_neighbor(Side::Left, 59),
            Some(Position::new(Position::MAX_LEVEL, 1u64 << 59))
        );
        assert_eq!(last.parent(), Some(Position::new(59, 1u64 << 59)));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LEVEL")]
    fn children_stop_at_max_level() {
        Position::new(Position::MAX_LEVEL, 1).left_child();
    }

    #[test]
    fn level_extremes() {
        assert_eq!(Position::new(3, 1).level_width(), 8);
        assert_eq!(Position::ROOT.level_width(), 1);
    }

    #[test]
    fn routing_neighbors_match_paper_example() {
        // Node h in Figure 1 is the leftmost node of level 3 (number 1):
        // its left routing table has no valid links and its right routing
        // table points to numbers 2, 3 and 5 (nodes i, j, l).
        let h = Position::new(3, 1);
        assert_eq!(h.routing_table_size(), 3);
        for i in 0..3 {
            assert_eq!(h.routing_neighbor(Side::Left, i), None);
        }
        assert_eq!(
            h.routing_neighbor(Side::Right, 0),
            Some(Position::new(3, 2))
        );
        assert_eq!(
            h.routing_neighbor(Side::Right, 1),
            Some(Position::new(3, 3))
        );
        assert_eq!(
            h.routing_neighbor(Side::Right, 2),
            Some(Position::new(3, 5))
        );
        assert_eq!(h.routing_neighbor(Side::Right, 3), None);
    }

    #[test]
    fn routing_neighbors_interior_node() {
        let p = Position::new(3, 4);
        let on = |side| {
            (0..3)
                .map(|i| p.routing_neighbor(side, i))
                .collect::<Vec<_>>()
        };
        // Left neighbours of number 4 are 3 (distance 1) and 2 (distance 2);
        // distance 4 would be number 0, which is out of range.
        assert_eq!(
            on(Side::Left),
            [Some(Position::new(3, 3)), Some(Position::new(3, 2)), None]
        );
        assert_eq!(
            on(Side::Right),
            [5, 6, 8].map(|number| Some(Position::new(3, number)))
        );
    }

    #[test]
    fn routing_neighbor_out_of_index_is_none() {
        let p = Position::new(2, 2);
        assert_eq!(p.routing_neighbor(Side::Right, 10), None);
    }

    #[test]
    fn inorder_order_small_tree() {
        // Complete tree of height 2; in-order traversal of positions:
        // (2,1) (1,1) (2,2) (0,1) (2,3) (1,2) (2,4)
        let expected = vec![
            Position::new(2, 1),
            Position::new(1, 1),
            Position::new(2, 2),
            Position::new(0, 1),
            Position::new(2, 3),
            Position::new(1, 2),
            Position::new(2, 4),
        ];
        for w in expected.windows(2) {
            assert_eq!(
                w[0].inorder_cmp(w[1]),
                Ordering::Less,
                "{:?} should be before {:?}",
                w[0],
                w[1]
            );
        }
        let mut sorted = expected.clone();
        sorted.sort_by(|a, b| a.inorder_cmp(*b));
        assert_eq!(sorted, expected);
    }

    #[test]
    fn inorder_cmp_equal_only_for_same_position() {
        let a = Position::new(4, 7);
        assert_eq!(a.inorder_cmp(a), Ordering::Equal);
        assert_ne!(a.inorder_cmp(Position::new(4, 8)), Ordering::Equal);
    }

    #[test]
    fn side_opposite_and_display() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
        assert_eq!(Side::Left.to_string(), "left");
        assert_eq!(Side::Right.to_string(), "right");
        assert_eq!(Side::BOTH, [Side::Left, Side::Right]);
    }

    #[test]
    fn display_and_debug_formatting() {
        let p = Position::new(2, 3);
        assert_eq!(format!("{p:?}"), "(L2,#3)");
        assert_eq!(format!("{p}"), "level 2 number 3");
    }

    fn random_position(rng: &mut baton_net::SimRng) -> Position {
        let level = rng.uniform_u64(0, 20) as u32;
        let number = rng.uniform_u64(1, (1u64 << level) + 1);
        Position::new(level, number)
    }

    // Seeded stand-ins for the old proptest properties.
    #[test]
    fn prop_parent_child_roundtrip() {
        let mut rng = baton_net::SimRng::seeded(0x9A97);
        for _ in 0..500 {
            let p = random_position(&mut rng);
            assert_eq!(p.left_child().parent(), Some(p));
            assert_eq!(p.right_child().parent(), Some(p));
            assert!(p.left_child().is_left_child());
            assert!(!p.right_child().is_left_child());
        }
    }

    #[test]
    fn prop_inorder_children_bracket_parent() {
        let mut rng = baton_net::SimRng::seeded(0x1109);
        for _ in 0..500 {
            let p = random_position(&mut rng);
            assert_eq!(p.left_child().inorder_cmp(p), Ordering::Less);
            assert_eq!(p.inorder_cmp(p.right_child()), Ordering::Less);
        }
    }

    #[test]
    fn prop_inorder_total_order_consistent() {
        let mut rng = baton_net::SimRng::seeded(0x7074);
        for _ in 0..500 {
            let a = random_position(&mut rng);
            let b = random_position(&mut rng);
            let ab = a.inorder_cmp(b);
            let ba = b.inorder_cmp(a);
            assert_eq!(ab, ba.reverse());
            if a == b {
                assert_eq!(ab, Ordering::Equal);
            } else {
                assert_ne!(ab, Ordering::Equal);
            }
        }
    }

    #[test]
    fn prop_routing_neighbors_symmetric() {
        let mut rng = baton_net::SimRng::seeded(0x20B5);
        for _ in 0..500 {
            let p = random_position(&mut rng);
            let i = rng.index(20);
            // If q is p's right neighbour at index i then p is q's left
            // neighbour at index i, and vice versa.
            if let Some(q) = p.routing_neighbor(Side::Right, i) {
                assert_eq!(q.routing_neighbor(Side::Left, i), Some(p));
            }
            if let Some(q) = p.routing_neighbor(Side::Left, i) {
                assert_eq!(q.routing_neighbor(Side::Right, i), Some(p));
            }
        }
    }

    #[test]
    fn prop_theorem2_parent_of_neighbor() {
        let mut rng = baton_net::SimRng::seeded(0x7432);
        for _ in 0..500 {
            let p = random_position(&mut rng);
            let i = rng.index(20);
            // Theorem 2: if x links to y (same-level neighbour at distance
            // 2^i), then parent(x) links to parent(y) (distance 2^(i-1)) or
            // they share a parent (i == 0 and siblings).
            if p.is_root() {
                continue;
            }
            for side in Side::BOTH {
                if let Some(q) = p.routing_neighbor(side, i) {
                    let pp = p.parent().unwrap();
                    let qp = q.parent().unwrap();
                    if pp == qp {
                        assert_eq!(i, 0);
                    } else if i == 0 {
                        // Adjacent but not siblings: parents are neighbours
                        // at distance 1 (distance 0 handled above).
                        let d = pp.number().abs_diff(qp.number());
                        assert_eq!(d, 1);
                    } else {
                        let d = pp.number().abs_diff(qp.number());
                        assert_eq!(d, 1u64 << (i - 1));
                    }
                }
            }
        }
    }
}
