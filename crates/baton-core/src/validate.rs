//! Whole-overlay invariant checking.
//!
//! [`validate`] checks every structural property the paper relies on:
//!
//! 1. position bookkeeping is consistent (every node's position maps back to
//!    it, the root pointer is right);
//! 2. the occupied positions form a tree (every non-root position's parent
//!    is occupied);
//! 3. the tree is height-balanced (Definition 1);
//! 4. Theorem 1 holds: every occupied position with an occupied child has
//!    every position its routing tables target occupied;
//! 5. the nodes' ranges, read in in-order, partition the key domain;
//! 6. every stored key lies inside its node's range;
//! 7. the routing plane mirrors the nodes and the tree: every occupied
//!    position's entry names its occupant with that occupant's current
//!    range, no unoccupied position has an entry, and its in-order chain
//!    links exactly the occupied positions, in in-order.
//!
//! Every link a peer holds is read from the routing plane
//! ([`crate::routing`]), so no check compares a link against its target:
//! checks 1, 2 and 7 are what makes every parent, child, adjacent and
//! routing-table link name the right peer with its current range.  The
//! test suites call `validate` after every mutating operation, making it
//! the central correctness oracle for the whole protocol implementation.

use baton_net::Overlay;

use crate::error::{BatonError, Result};
use crate::position::Position;
use crate::system::BatonSystem;

/// Checks every structural invariant of the overlay.  Returns the first
/// violation found as an [`BatonError::InvariantViolation`].
pub fn validate(system: &BatonSystem) -> Result<()> {
    if system.is_empty() {
        return Ok(());
    }
    check_peer_list(system)?;
    check_position_bookkeeping(system)?;
    check_routing_plane(system)?;
    check_tree(system)?;
    check_balance(system)?;
    check_theorem1(system)?;
    check_ranges(system)?;
    check_data_placement(system)?;
    check_replication(system)?;
    Ok(())
}

fn violation(msg: String) -> BatonError {
    BatonError::InvariantViolation(msg)
}

/// The O(1)-sampling peer list must mirror the node slab exactly and stay
/// sorted (the sampling order the seed figures were produced with).
fn check_peer_list(system: &BatonSystem) -> Result<()> {
    let live_slots = system.nodes.values().count();
    if system.peers().len() != live_slots {
        return Err(violation(format!(
            "peer list has {} entries but the node slab holds {} live nodes",
            system.peers().len(),
            live_slots
        )));
    }
    if !system.peers().is_sorted() {
        return Err(violation("peer list is not sorted".into()));
    }
    for peer in system.peers() {
        if system.node(*peer).is_none() {
            return Err(violation(format!("peer list entry {peer} has no node")));
        }
    }
    Ok(())
}

fn check_position_bookkeeping(system: &BatonSystem) -> Result<()> {
    for &peer in system.peers() {
        let node = system.node(peer).unwrap();
        if node.peer != peer {
            return Err(violation(format!(
                "node stored under {peer} believes it is {}",
                node.peer
            )));
        }
        match system.peer_at(node.position) {
            Some(p) if p == peer => {}
            other => {
                return Err(violation(format!(
                    "position map for {:?} holds {other:?}, expected {peer}",
                    node.position
                )))
            }
        }
    }
    // Root pointer.
    match system.peer_at(Position::ROOT) {
        Some(root_peer) => {
            if system.root() != Some(root_peer) {
                return Err(violation(format!(
                    "root pointer {:?} disagrees with occupant of the root position {root_peer}",
                    system.root()
                )));
            }
        }
        None => {
            return Err(violation(
                "non-empty overlay with no node at the root position".into(),
            ))
        }
    }
    Ok(())
}

/// Check 7.  Runs before the tree and range checks: a range written past
/// `BatonSystem::set_range` is reported as the stale plane entry it leaves,
/// whatever else it breaks.
fn check_routing_plane(system: &BatonSystem) -> Result<()> {
    let plane = &system.by_position;
    let mut per_level = vec![0usize; plane.level_counts().len()];
    for (h, peer, range) in plane.iter() {
        let Some(node) = system.node(peer) else {
            return Err(violation(format!(
                "routing plane entry {h} names {peer}, which is not a member"
            )));
        };
        if node.position.heap_index() as usize != h {
            return Err(violation(format!(
                "routing plane entry {h} names {peer}, which is at {:?}",
                node.position
            )));
        }
        if range != node.range {
            return Err(violation(format!(
                "routing plane entry {h} records range {range} but {peer} manages {}",
                node.range
            )));
        }
        per_level[node.position.level() as usize] += 1;
    }
    // The per-level counters the tree height is read from count exactly
    // these entries.
    if per_level != plane.level_counts() {
        return Err(violation(format!(
            "routing plane counts {:?} occupied positions per level but holds {per_level:?}",
            plane.level_counts()
        )));
    }
    // The in-order chain is the in-order sort of the occupied positions.
    let position = |h: usize| Position::from_heap_index(h as u64);
    let mut in_order: Vec<Position> = plane.iter().map(|(h, _, _)| position(h)).collect();
    in_order.sort_by(|a, b| a.inorder_cmp(*b));
    let chain: Vec<Position> = plane
        .chain()
        .take(in_order.len() + 1)
        .map(position)
        .collect();
    if chain != in_order {
        return Err(violation(format!(
            "routing plane chains {} positions out of in-order, {} occupied",
            chain.len(),
            in_order.len()
        )));
    }
    Ok(())
}

fn check_tree(system: &BatonSystem) -> Result<()> {
    for &peer in system.peers() {
        let position = system.node(peer).unwrap().position;
        if let Some(parent) = position.parent() {
            if system.peer_at(parent).is_none() {
                return Err(violation(format!(
                    "{peer} at {position:?} has no occupied parent position {parent:?}"
                )));
            }
        }
    }
    Ok(())
}

fn check_balance(system: &BatonSystem) -> Result<()> {
    // Height of the subtree rooted at each occupied position, computed
    // bottom-up over the occupied position set.
    fn height(system: &BatonSystem, position: Position) -> u32 {
        if system.peer_at(position).is_none() {
            return 0;
        }
        1 + height(system, position.left_child()).max(height(system, position.right_child()))
    }
    for &peer in system.peers() {
        let position = system.node(peer).unwrap().position;
        let left = height(system, position.left_child());
        let right = height(system, position.right_child());
        if left.abs_diff(right) > 1 {
            return Err(violation(format!(
                "tree unbalanced at {position:?}: left subtree height {left}, right {right}"
            )));
        }
    }
    Ok(())
}

fn check_theorem1(system: &BatonSystem) -> Result<()> {
    for &peer in system.peers() {
        let links = system.links(peer).unwrap();
        if !links.is_leaf() && !links.tables_full() {
            return Err(violation(format!(
                "Theorem 1 violated: {peer} at {:?} has children but incomplete routing tables",
                system.node(peer).unwrap().position
            )));
        }
    }
    Ok(())
}

/// Check 5, read along the plane's in-order chain (check 7 ran first).
fn check_ranges(system: &BatonSystem) -> Result<()> {
    let plane = &system.by_position;
    let ranges: Vec<_> = plane.chain().map(|h| plane.at(h).unwrap()).collect();
    let domain = system.domain();
    let (first, last) = (ranges[0].1, ranges[ranges.len() - 1].1);
    if first.low() != domain.low() || last.high() != domain.high() {
        return Err(violation(format!(
            "ranges from {first} to {last} do not span the domain {domain}"
        )));
    }
    for pair in ranges.windows(2) {
        let ((a, a_range), (b, b_range)) = (pair[0], pair[1]);
        if a_range.high() != b_range.low() {
            return Err(violation(format!(
                "ranges not contiguous between {a} ({a_range}) and {b} ({b_range})"
            )));
        }
    }
    Ok(())
}

fn check_data_placement(system: &BatonSystem) -> Result<()> {
    for &peer in system.peers() {
        let node = system.node(peer).unwrap();
        if let Some(min) = node.store.min_key() {
            if !node.range.contains(min) {
                return Err(violation(format!(
                    "{peer} stores key {min} outside its range {}",
                    node.range
                )));
            }
        }
        if let Some(max) = node.store.max_key() {
            if !node.range.contains(max) {
                return Err(violation(format!(
                    "{peer} stores key {max} outside its range {}",
                    node.range
                )));
            }
        }
    }
    Ok(())
}

/// The k-replica placement invariant (no-op at k = 1): with more than one
/// node in the overlay, every node must resolve at least one replica target,
/// all targets must be distinct live members different from the owner, and
/// there are at most k−1 of them.
fn check_replication(system: &BatonSystem) -> Result<()> {
    let k = system.replication();
    if k <= 1 || system.node_count() <= 1 {
        return Ok(());
    }
    for &peer in system.peers() {
        let targets = system.replica_targets(peer);
        if targets.is_empty() {
            return Err(violation(format!(
                "replication k={k}: {peer} resolves no replica target although \
                 the overlay has {} nodes",
                system.node_count()
            )));
        }
        if targets.len() > k - 1 {
            return Err(violation(format!(
                "replication k={k}: {peer} resolves {} replica targets (max {})",
                targets.len(),
                k - 1
            )));
        }
        for (i, target) in targets.iter().enumerate() {
            if *target == peer {
                return Err(violation(format!(
                    "replication k={k}: {peer} lists itself as a replica target"
                )));
            }
            if system.node(*target).is_none() {
                return Err(violation(format!(
                    "replication k={k}: {peer} replica target {target} is not a member"
                )));
            }
            if targets[..i].contains(target) {
                return Err(violation(format!(
                    "replication k={k}: {peer} lists replica target {target} twice"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatonConfig;
    use crate::position::Side;
    use crate::range::KeyRange;

    #[test]
    fn empty_overlay_is_valid() {
        let system = BatonSystem::new(BatonConfig::default(), 1);
        assert!(validate(&system).is_ok());
    }

    #[test]
    fn freshly_built_overlays_are_valid() {
        for n in [1usize, 2, 3, 5, 10, 50, 128] {
            let system = BatonSystem::build(BatonConfig::default(), 42, n).unwrap();
            validate(&system).unwrap_or_else(|e| panic!("{n}-node overlay invalid: {e}"));
        }
    }

    #[test]
    fn replica_invariant_holds_at_every_supported_k() {
        for k in [2usize, 3] {
            let mut system = BatonSystem::build(BatonConfig::default(), 9, 40).unwrap();
            system.set_replication(k).unwrap();
            validate(&system).unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
    }

    #[test]
    fn detects_corrupted_range() {
        let mut system = BatonSystem::build(BatonConfig::default(), 1, 8).unwrap();
        let peer = system.peers()[0];
        {
            let node = system.node_opt_mut(peer).unwrap();
            node.range = KeyRange::new(0, 1);
        }
        assert!(validate(&system).is_err());
    }

    /// Moves the boundary between a node and its right adjacent node to the
    /// middle of the first one's range — through [`BatonSystem::set_range`],
    /// or by writing the nodes' ranges directly.
    fn shift_boundary(through_set_range: bool) -> BatonSystem {
        let mut system = BatonSystem::build(BatonConfig::default(), 5, 16).unwrap();
        let range = |system: &BatonSystem, peer| system.node(peer).unwrap().range;
        let low = system.domain().low();
        let left = *system
            .peers()
            .iter()
            .find(|&&p| range(&system, p).low() == low)
            .unwrap();
        let right = system
            .links(left)
            .unwrap()
            .adjacent(Side::Right)
            .unwrap()
            .peer;
        let (l, r) = (range(&system, left), range(&system, right));
        let middle = (l.low() + l.high()) / 2;
        let moved = [
            (left, KeyRange::new(l.low(), middle)),
            (right, KeyRange::new(middle, r.high())),
        ];
        for (peer, range) in moved {
            if through_set_range {
                system.set_range(peer, range).unwrap();
            } else {
                system.node_opt_mut(peer).unwrap().range = range;
            }
        }
        system
    }

    #[test]
    fn detects_stale_plane_range() {
        validate(&shift_boundary(true)).expect("a boundary shift through set_range is valid");
        match validate(&shift_boundary(false)) {
            Err(BatonError::InvariantViolation(message)) => {
                assert!(message.contains("routing plane"), "{message}")
            }
            other => panic!("a stale routing plane went unnoticed: {other:?}"),
        }
    }

    #[test]
    fn detects_corrupted_adjacency() {
        // The adjacent links are the plane's in-order chain: short-cut it.
        let mut system = BatonSystem::build(BatonConfig::default(), 2, 8).unwrap();
        let root = Position::ROOT.heap_index() as usize;
        system.by_position.corrupt_chain(root, 0, 0);
        assert!(validate(&system).is_err());
    }

    #[test]
    fn detects_corrupted_routing_entry() {
        // A routing-table entry is the plane's record of its target
        // position: make one name a peer that sits elsewhere.
        let mut system = BatonSystem::build(BatonConfig::default(), 3, 16).unwrap();
        let (a, b) = (system.peers()[0], system.peers()[1]);
        let position = system.node(a).unwrap().position;
        let range = system.node(a).unwrap().range;
        system.by_position.insert(position, b, range);
        assert!(validate(&system).is_err());
    }

    #[test]
    fn detects_stolen_child_link() {
        // A parent's child link is the plane's record of the child
        // position: clear it under a node that still holds it.
        let mut system = BatonSystem::build(BatonConfig::default(), 4, 12).unwrap();
        let parent_of_someone = system
            .peers()
            .iter()
            .copied()
            .find(|p| !system.links(*p).unwrap().is_leaf())
            .unwrap();
        let links = system.links(parent_of_someone).unwrap();
        let child = links
            .child(Side::Left)
            .or(links.child(Side::Right))
            .unwrap();
        system.by_position.remove(child.position);
        assert!(validate(&system).is_err());
    }
}
