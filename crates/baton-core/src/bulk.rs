//! Deterministic bulk construction of an `N`-peer BATON overlay.
//!
//! [`BatonSystem::build`] grows the tree by `n - 1` sequential joins — the
//! construction the paper evaluates, and the right default because it
//! exercises the protocol.  But a harness that only needs *an* N-peer
//! overlay (scale rows, capacity planning, scenario warm-up) pays
//! `O(N log N)` protocol work plus allocator churn for state that is fully
//! determined up front.  This module builds the same *kind* of overlay
//! directly:
//!
//! * **Shape** — the complete binary tree on `n` nodes: every level full
//!   except the deepest, which fills left to right.  Complete trees satisfy
//!   the paper's Definition 1 balance criterion, and every non-leaf sits on
//!   a full level, so Theorem 1 (children ⇒ full routing tables) holds by
//!   construction.
//! * **Links** — every link follows from the positions (see
//!   [`crate::routing`]), so occupying the positions in level order, parents
//!   first, is all it takes.
//! * **Ranges** — one in-order traversal assigns each node an equal-width
//!   contiguous slice of the key domain, so the ranges partition the domain
//!   exactly as the adjacency chain requires.
//!
//! The result passes [`crate::validate()`] in full and behaves identically to
//! a join-built overlay under every subsequent operation (see
//! `tests/tests/bulk_equivalence.rs`).  It is *not* byte-identical to a
//! join-built overlay — peers sit at different positions and ranges are
//! even rather than join-order-dependent — which is why the bulk path is
//! opt-in and never used where committed fixtures pin join-built output.
//!
//! No messages are charged: bulk construction models an out-of-band load,
//! not a protocol exchange.

use baton_net::PeerId;

use crate::config::BatonConfig;
use crate::error::Result;
use crate::node::BatonNode;
use crate::position::Position;
use crate::range::KeyRange;
use crate::system::BatonSystem;

/// The level-order shape of the complete binary tree on `n` nodes: levels
/// `0 .. full_levels` are completely occupied and level `full_levels`
/// holds its leftmost `remainder` positions.
#[derive(Clone, Copy, Debug)]
struct Shape {
    full_levels: u32,
    remainder: u64,
}

impl Shape {
    fn of(n: usize) -> Self {
        let mut full_levels = 0u32;
        let mut placed = 0usize;
        while placed + (1usize << full_levels) <= n {
            placed += 1usize << full_levels;
            full_levels += 1;
        }
        Self {
            full_levels,
            remainder: (n - placed) as u64,
        }
    }

    #[inline]
    fn occupied(&self, position: Position) -> bool {
        position.level() < self.full_levels
            || (position.level() == self.full_levels && position.number() <= self.remainder)
    }
}

/// Level-order index of a position: positions are numbered 0, 1, 2, …
/// across levels top to bottom, left to right — the order peers are created
/// in, so the index doubles as the peer-vector index.
#[inline]
fn level_order_index(position: Position) -> usize {
    (position.heap_index() - 1) as usize
}

/// Inverse of [`level_order_index`].
#[inline]
fn position_of_index(index: usize) -> Position {
    Position::from_heap_index(index as u64 + 1)
}

impl BatonSystem {
    /// Builds an `n`-node overlay directly, without running the join
    /// protocol: the complete-binary-tree shape and an equal-width
    /// partition of the key domain are computed in one pass.  The overlay
    /// satisfies every [`crate::validate()`] invariant and supports all
    /// subsequent operations exactly like a join-built one.
    ///
    /// No messages are charged to the network statistics; stores start
    /// empty (load data through the normal insert path).
    pub fn bulk_build(config: BatonConfig, seed: u64, n: usize) -> Result<Self> {
        let mut system = Self::new(config, seed);
        if n == 0 {
            return Ok(system);
        }
        let shape = Shape::of(n);
        let domain = system.domain;
        let peers: Vec<PeerId> = (0..n).map(|_| system.net.add_peer()).collect();

        // Pass A: one explicit-stack in-order traversal of the occupied
        // positions yields each node's in-order rank, its slice of the key
        // domain.
        let mut ranks = 0u32;
        let mut rank_of: Vec<u32> = vec![0; n];
        let mut stack: Vec<Position> = Vec::new();
        let mut cursor = Some(Position::ROOT);
        while cursor.is_some() || !stack.is_empty() {
            while let Some(position) = cursor {
                stack.push(position);
                let left = position.left_child();
                cursor = shape.occupied(left).then_some(left);
            }
            let position = stack.pop().expect("cursor exhausted with non-empty stack");
            rank_of[level_order_index(position)] = ranks;
            ranks += 1;
            let right = position.right_child();
            cursor = shape.occupied(right).then_some(right);
        }

        // Equal-width range partition: in-order rank r manages
        // [bound(r), bound(r+1)), with bound(n) landing exactly on the
        // domain high so the slices tile the domain.
        let low = domain.low();
        let width = (domain.high() - domain.low()) as u128;
        let bound = |i: usize| low + ((width * i as u128) / n as u128) as u64;
        let range_of_index = |index: usize| {
            let r = rank_of[index] as usize;
            KeyRange::new(bound(r), bound(r + 1))
        };

        // Pass B: materialise every node in level order — which is
        // ascending peer-id order, so the directory is collected by O(1)
        // appends — and occupy the positions, parents first.
        system.nodes = (0..n)
            .map(|index| (peers[index], BatonNode::new(position_of_index(index))))
            .collect();
        for (index, &peer) in peers.iter().enumerate() {
            system.occupy(position_of_index(index), peer, range_of_index(index));
        }
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use baton_net::Overlay;

    use super::*;
    use crate::range::Key;
    use crate::validate::validate;

    #[test]
    fn shape_covers_all_sizes() {
        for n in 1usize..200 {
            let shape = Shape::of(n);
            let full: usize = (0..shape.full_levels).map(|l| 1usize << l).sum();
            assert_eq!(full + shape.remainder as usize, n, "n={n}");
            assert!((shape.remainder as usize) < (1usize << shape.full_levels));
        }
    }

    #[test]
    fn level_order_index_round_trips() {
        for index in 0..1000usize {
            let position = position_of_index(index);
            assert_eq!(level_order_index(position), index);
        }
    }

    #[test]
    fn bulk_built_overlays_satisfy_every_invariant() {
        for n in [0usize, 1, 2, 3, 4, 7, 8, 15, 16, 100, 1000] {
            let system = BatonSystem::bulk_build(BatonConfig::default(), 42, n).unwrap();
            assert_eq!(system.node_count(), n);
            validate(&system).unwrap_or_else(|e| panic!("bulk n={n} invalid: {e}"));
            assert_eq!(
                system.net.stats().total_sent(),
                0,
                "bulk build charged messages"
            );
        }
    }

    #[test]
    fn bulk_built_overlay_has_complete_tree_height() {
        for (n, height) in [(1usize, 1u32), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)] {
            let system = BatonSystem::bulk_build(BatonConfig::default(), 7, n).unwrap();
            assert_eq!(system.height(), height, "n={n}");
        }
    }

    #[test]
    fn direct_load_places_keys_at_the_routed_owner() {
        let mut direct = BatonSystem::bulk_build(BatonConfig::default(), 9, 100).unwrap();
        let mut routed = BatonSystem::bulk_build(BatonConfig::default(), 9, 100).unwrap();
        let data: Vec<(Key, u64)> = (0..500u64).map(|i| (1 + i * 1_999_993, i)).collect();
        direct.load_direct(&data);
        for &(k, v) in &data {
            routed.insert(k, v).unwrap();
        }
        assert_eq!(direct.total_items(), data.len());
        assert_eq!(
            direct.net.stats().total_sent(),
            0,
            "direct load charged messages"
        );
        validate(&direct).unwrap();
        for &(k, v) in &data {
            assert_eq!(
                direct.search_exact(k).unwrap().matches,
                routed.search_exact(k).unwrap().matches,
                "key {k} (value {v}) diverged between direct and routed load"
            );
        }
    }

    #[test]
    fn direct_load_expands_the_domain_like_a_routed_insert() {
        let config = BatonConfig::default().with_domain(KeyRange::new(1000, 2000));
        let mut system = BatonSystem::bulk_build(config, 4, 20).unwrap();
        // `Key::MAX` is refused by a routed insert, so a direct load skips it.
        system.load_direct(&[(5, 99), (5000, 1), (Key::MAX, 2)]);
        assert_eq!(system.domain().low(), 5);
        assert_eq!(system.domain().high(), 5001);
        assert_eq!(system.total_items(), 2);
        validate(&system).unwrap();
        assert_eq!(system.search_exact(5).unwrap().matches, vec![99]);
        assert_eq!(system.search_exact(5000).unwrap().matches, vec![1]);
    }

    #[test]
    fn bulk_built_overlay_supports_subsequent_operations() {
        let mut system = BatonSystem::bulk_build(BatonConfig::default(), 11, 64).unwrap();
        system.insert(123_456_789, 1).unwrap();
        let hit = system.search_exact(123_456_789).unwrap();
        assert_eq!(hit.matches, vec![1]);
        system.join_random().unwrap();
        let departing = system.peers()[10];
        system.leave(departing).unwrap();
        validate(&system).unwrap();
        assert_eq!(system.node_count(), 64);
    }
}
