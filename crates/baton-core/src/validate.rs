//! Whole-overlay invariant checking.
//!
//! [`validate`] checks every structural property the paper relies on:
//!
//! 1. position bookkeeping is consistent (every node's position maps back to
//!    it, the root pointer is right);
//! 2. the occupied positions form a tree (every non-root position's parent
//!    is occupied) and parent/child links agree with the position map;
//! 3. the tree is height-balanced (Definition 1);
//! 4. Theorem 1 holds: every node with a child has both routing tables full;
//! 5. routing tables are accurate: every entry points at the real occupant
//!    of its slot's position with its current range and children, and every
//!    occupied slot position has an entry;
//! 6. adjacent links form exactly the in-order traversal of the occupied
//!    positions;
//! 7. the nodes' ranges, read in in-order, partition the key domain;
//! 8. every link's recorded range matches the target's actual range;
//! 9. every stored key lies inside its node's range;
//! 10. the routing plane mirrors the nodes: every occupied position's entry
//!     names its occupant with that occupant's current range, and no
//!     unoccupied position has an entry.
//!
//! The test suites call `validate` after every mutating operation, making it
//! the central correctness oracle for the whole protocol implementation.

use baton_net::Overlay;

use crate::error::{BatonError, Result};
use crate::position::{Position, Side};
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
    check_tree_links(system)?;
    check_balance(system)?;
    check_theorem1(system)?;
    check_routing_tables(system)?;
    check_adjacency_and_ranges(system)?;
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
        if node.left_table.owner() != node.position || node.right_table.owner() != node.position {
            return Err(violation(format!(
                "{peer} routing tables built for a different position than {:?}",
                node.position
            )));
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

/// Check 10.  Runs before the link and range checks: a range written past
/// [`BatonSystem::set_range`] is reported as the stale plane entry it
/// leaves, whatever else it breaks.
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
    Ok(())
}

fn check_tree_links(system: &BatonSystem) -> Result<()> {
    for &peer in system.peers() {
        let node = system.node(peer).unwrap();
        let position = node.position;
        // Parent.
        match position.parent() {
            None => {
                if node.parent.is_some() {
                    return Err(violation(format!("root node {peer} has a parent link")));
                }
            }
            Some(parent_pos) => {
                let Some(parent_peer) = system.peer_at(parent_pos) else {
                    return Err(violation(format!(
                        "{peer} at {position:?} has no occupied parent position {parent_pos:?}"
                    )));
                };
                let Some(parent_link) = &node.parent else {
                    return Err(violation(format!(
                        "{peer} at {position:?} lacks a parent link"
                    )));
                };
                if parent_link.peer != parent_peer || parent_link.position != parent_pos {
                    return Err(violation(format!(
                        "{peer} parent link {:?}/{:?} disagrees with occupant {parent_peer}",
                        parent_link.peer, parent_link.position
                    )));
                }
                // The parent must link back.
                let parent = system.node(parent_peer).unwrap();
                let side = position.child_side().expect("non-root");
                match parent.child(side) {
                    Some(l) if l.peer == peer => {}
                    other => {
                        return Err(violation(format!(
                        "parent {parent_peer} child link on {side} is {other:?}, expected {peer}"
                    )))
                    }
                }
            }
        }
        // Children.
        for side in Side::BOTH {
            if let Some(child_link) = node.child(side) {
                let expected_pos = position.child(side);
                if child_link.position != expected_pos {
                    return Err(violation(format!(
                        "{peer} child link on {side} has position {:?}, expected {expected_pos:?}",
                        child_link.position
                    )));
                }
                match system.peer_at(expected_pos) {
                    Some(occupant) if occupant == child_link.peer => {}
                    other => {
                        return Err(violation(format!(
                            "{peer} child link on {side} points at {}, position map says {other:?}",
                            child_link.peer
                        )))
                    }
                }
            } else if system.peer_at(position.child(side)).is_some() {
                return Err(violation(format!(
                    "{peer} is missing its child link on {side} although the position is occupied"
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
        let node = system.node(peer).unwrap();
        if !node.is_leaf() && !node.tables_full() {
            return Err(violation(format!(
                "Theorem 1 violated: {peer} at {:?} has children but incomplete routing tables",
                node.position
            )));
        }
    }
    Ok(())
}

fn check_routing_tables(system: &BatonSystem) -> Result<()> {
    for &peer in system.peers() {
        let node = system.node(peer).unwrap();
        let position = node.position;
        for side in Side::BOTH {
            let table = node.table(side);
            for index in 0..table.slot_count() {
                let Some(target_pos) = position.routing_neighbor(side, index) else {
                    if table.entry(index).is_some() {
                        return Err(violation(format!(
                            "{peer} has an entry in an invalid slot {index} of its {side} table"
                        )));
                    }
                    continue;
                };
                let occupant = system.peer_at(target_pos);
                match (occupant, table.entry(index)) {
                    (None, None) => {}
                    (None, Some(_)) => {
                        return Err(violation(format!(
                            "{peer} {side} table slot {index} points at unoccupied {target_pos:?}"
                        )))
                    }
                    (Some(_), None) => {
                        return Err(violation(format!(
                            "{peer} {side} table slot {index} empty although {target_pos:?} is occupied"
                        )))
                    }
                    (Some(occupant), Some(entry)) => {
                        if entry.peer != occupant {
                            return Err(violation(format!(
                                "{peer} {side} table slot {index} points at {} but {target_pos:?} is held by {occupant}",
                                entry.peer
                            )));
                        }
                        let target = system.node(occupant).unwrap();
                        if entry.range != target.range {
                            return Err(violation(format!(
                                "{peer} {side} table slot {index} records range {} but {occupant} manages {}",
                                entry.range, target.range
                            )));
                        }
                        let actual_left = target.left_child.map(|l| l.peer);
                        let actual_right = target.right_child.map(|l| l.peer);
                        let recorded = (entry.left_child(), entry.right_child());
                        if recorded != (actual_left, actual_right) {
                            return Err(violation(format!(
                                "{peer} {side} table slot {index} child knowledge {:?}/{:?} disagrees with {occupant}'s children {:?}/{:?}",
                                recorded.0, recorded.1, actual_left, actual_right
                            )));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn check_adjacency_and_ranges(system: &BatonSystem) -> Result<()> {
    // Sort all nodes by in-order position: this is the expected adjacency
    // chain and also the expected range order.
    let mut peers = system.peers().to_vec();
    peers.sort_by(|a, b| {
        system
            .node(*a)
            .unwrap()
            .position
            .inorder_cmp(system.node(*b).unwrap().position)
    });
    let domain = system.domain();

    // Ranges partition the domain.
    let first = system.node(peers[0]).unwrap();
    if first.range.low() != domain.low() {
        return Err(violation(format!(
            "first node's range {} does not start at the domain low {}",
            first.range,
            domain.low()
        )));
    }
    let last = system.node(*peers.last().unwrap()).unwrap();
    if last.range.high() != domain.high() {
        return Err(violation(format!(
            "last node's range {} does not end at the domain high {}",
            last.range,
            domain.high()
        )));
    }
    for pair in peers.windows(2) {
        let a = system.node(pair[0]).unwrap();
        let b = system.node(pair[1]).unwrap();
        if a.range.high() != b.range.low() {
            return Err(violation(format!(
                "ranges not contiguous between {:?} ({}) and {:?} ({})",
                a.position, a.range, b.position, b.range
            )));
        }
    }

    // Adjacent links mirror the in-order chain.
    for (i, peer) in peers.iter().enumerate() {
        let node = system.node(*peer).unwrap();
        let expected_left = if i == 0 { None } else { Some(peers[i - 1]) };
        let expected_right = peers.get(i + 1).copied();
        if node.left_adjacent.map(|l| l.peer) != expected_left {
            return Err(violation(format!(
                "{peer} left adjacent {:?} expected {expected_left:?}",
                node.left_adjacent.map(|l| l.peer)
            )));
        }
        if node.right_adjacent.map(|l| l.peer) != expected_right {
            return Err(violation(format!(
                "{peer} right adjacent {:?} expected {expected_right:?}",
                node.right_adjacent.map(|l| l.peer)
            )));
        }
    }

    // Every link records the target's actual range and position.
    for &peer in system.peers() {
        let node = system.node(peer).unwrap();
        let links = [
            ("parent", node.parent),
            ("left child", node.left_child),
            ("right child", node.right_child),
            ("left adjacent", node.left_adjacent),
            ("right adjacent", node.right_adjacent),
        ];
        for (label, link) in links {
            if let Some(link) = link {
                let Some(target) = system.node(link.peer) else {
                    return Err(violation(format!(
                        "{peer} {label} link points at unknown peer {}",
                        link.peer
                    )));
                };
                if link.range != target.range {
                    return Err(violation(format!(
                        "{peer} {label} link records range {} but {} manages {}",
                        link.range, link.peer, target.range
                    )));
                }
                if link.position != target.position {
                    return Err(violation(format!(
                        "{peer} {label} link records position {:?} but {} is at {:?}",
                        link.position, link.peer, target.position
                    )));
                }
            }
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
    use crate::range::KeyRange;
    use crate::routing::NodeLink;

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
    /// middle of the first one's range and refreshes every link recording
    /// either range — through [`BatonSystem::set_range`], or by writing the
    /// nodes' ranges directly.
    fn shift_boundary(through_set_range: bool) -> BatonSystem {
        let mut system = BatonSystem::build(BatonConfig::default(), 5, 16).unwrap();
        let left = system.peers()[0];
        let (left_range, right) = {
            let node = system.node(left).unwrap();
            let right = node.right_adjacent.or(node.left_adjacent).unwrap().peer;
            (node.range, right)
        };
        let (left, right, left_range, right_range) = {
            let other = system.node(right).unwrap().range;
            if other.low() == left_range.high() {
                (left, right, left_range, other)
            } else {
                (right, left, other, left_range)
            }
        };
        let middle = (left_range.low() + left_range.high()) / 2;
        let moved = [
            (left, KeyRange::new(left_range.low(), middle)),
            (right, KeyRange::new(middle, right_range.high())),
        ];
        for (peer, range) in moved {
            if through_set_range {
                system.set_range(peer, range).unwrap();
            } else {
                system.node_opt_mut(peer).unwrap().range = range;
            }
            let node = system.node(peer).unwrap();
            let (position, linked) = (node.position, node.linked_peers());
            for other in linked {
                let other = system.node_opt_mut(other).unwrap();
                other.update_link_range(peer, position, range);
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
        let mut system = BatonSystem::build(BatonConfig::default(), 2, 8).unwrap();
        let peers = system.peers().to_vec();
        let a = peers[0];
        {
            let node = system.node_opt_mut(a).unwrap();
            node.left_adjacent = None;
            node.right_adjacent = None;
        }
        assert!(validate(&system).is_err());
    }

    #[test]
    fn detects_corrupted_routing_entry() {
        let mut system = BatonSystem::build(BatonConfig::default(), 3, 16).unwrap();
        // Find a node with at least one routing entry and corrupt its range.
        let victim = system
            .peers()
            .iter()
            .copied()
            .find(|p| {
                let n = system.node(*p).unwrap();
                n.left_table.iter().count() + n.right_table.iter().count() > 0
            })
            .unwrap();
        {
            let node = system.node_opt_mut(victim).unwrap();
            'outer: for side in Side::BOTH {
                let table = node.table_mut(side);
                for i in 0..table.slot_count() {
                    if let Some(e) = table.entry_mut(i) {
                        e.range = KeyRange::new(0, 1);
                        break 'outer;
                    }
                }
            }
        }
        assert!(validate(&system).is_err());
    }

    #[test]
    fn detects_stolen_child_link() {
        let mut system = BatonSystem::build(BatonConfig::default(), 4, 12).unwrap();
        let parent_of_someone = system
            .peers()
            .iter()
            .copied()
            .find(|p| !system.node(*p).unwrap().is_leaf())
            .unwrap();
        {
            let fake = NodeLink::new(
                baton_net::PeerId(9999),
                Position::new(5, 1),
                KeyRange::new(0, 1),
            );
            let node = system.node_opt_mut(parent_of_someone).unwrap();
            if node.left_child.is_some() {
                node.left_child = Some(fake);
            } else {
                node.right_child = Some(fake);
            }
        }
        assert!(validate(&system).is_err());
    }
}
