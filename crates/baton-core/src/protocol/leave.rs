//! Node departure (paper §III-B, Algorithm 2).
//!
//! A leaf whose routing-table neighbours have no children may depart
//! directly: it transfers its content and range to its parent, tells its
//! neighbours to drop their links, and the parent refreshes its own
//! neighbours — at most `4 log N` messages.
//!
//! Any other node must find a *replacement*: a FINDREPLACEMENT request walks
//! down the tree (Algorithm 2) to a leaf whose own departure is safe; that
//! leaf detaches from its position and takes over the departing node's
//! position, links, range and content, and every node holding a link to the
//! departed node is told of its new address — at most `8 log N` messages.

use baton_net::{OpScope, Overlay, PeerId};

use crate::error::{BatonError, Result};
use crate::position::Side;
use crate::reports::LeaveReport;
use crate::routing::{Links, RoutingEntry};
use crate::system::{BatonSystem, LinkUpdate};

/// The children of a node's routing-table neighbours, in table order — the
/// FINDREPLACEMENT candidates of a leaf.
fn neighbor_children<'a>(links: &Links<'a>) -> impl Iterator<Item = PeerId> + 'a {
    links
        .table_entries()
        .flat_map(|e: RoutingEntry| e.children())
}

impl BatonSystem {
    /// Gracefully removes `peer` from the overlay.
    ///
    /// Fails with [`BatonError::LastNode`] if it is the only node left.
    pub fn leave(&mut self, peer: PeerId) -> Result<LeaveReport> {
        self.check_alive(peer)?;
        if self.node_count() == 1 {
            return Err(BatonError::LastNode);
        }
        self.in_op("leave", |system, op| system.leave_in_op(op, peer))
    }

    fn leave_in_op(&mut self, op: OpScope, peer: PeerId) -> Result<LeaveReport> {
        let report = if self.links_of(peer)?.can_leave_without_replacement() {
            // At k > 1 the departing slice moves replica boundaries for the
            // neighbours holding its copies; charge the handoff while the
            // links still exist.
            let mut update_messages = self.charge_replica_handoffs(op, peer);
            update_messages += self.detach_leaf(op, peer, peer)?;
            LeaveReport {
                departed: peer,
                replacement: None,
                locate_messages: 0,
                update_messages,
                restructure: None,
            }
        } else {
            let (replacement, locate_messages) = self.find_replacement(op, peer, peer)?;
            if !self.net.is_alive(replacement) {
                // Possible only while unrepaired failures linger: the
                // replacement walk landed on a dead leaf.  `detach_leaf`
                // takes the replacement's store before hopping *from* it,
                // so bail out cleanly before any mutation; the caller
                // retries once the dead leaf's repair has run.
                return Err(BatonError::PeerNotAlive(replacement));
            }
            // The replacement leaf first departs from its own position …
            let mut update_messages = self.detach_leaf(op, replacement, replacement)?;
            // … and then takes over the departing node's position.
            update_messages += self.take_over_position(op, peer, replacement, peer)?;
            update_messages += self.charge_replica_handoffs(op, replacement);
            LeaveReport {
                departed: peer,
                replacement: Some(replacement),
                locate_messages,
                update_messages,
                restructure: None,
            }
        };
        self.net.depart_peer(peer);
        Ok(report)
    }

    /// A uniformly random live node leaves the overlay.
    pub fn leave_random(&mut self) -> Result<LeaveReport> {
        let peer = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        self.leave(peer)
    }

    /// Algorithm 2 (FINDREPLACEMENT): walk down from the departing node to a
    /// leaf that can safely vacate its position.  `sender` issues the first
    /// request — the departing node itself on a voluntary departure, the
    /// recovery coordinator on a dead node's behalf.  Returns the replacement
    /// and the number of messages used.
    ///
    /// Every hop prefers an *alive* candidate over the first one: a dead
    /// node cannot forward the request, and descending into a dead subtree
    /// can only land on a dead replacement — the §III-D detour rule, applied
    /// to the departure walk.  Overlapping failures are the only runs with
    /// dead peers in reach, so with every peer alive the first candidate
    /// wins.
    pub(crate) fn find_replacement(
        &mut self,
        op: OpScope,
        departing: PeerId,
        sender: PeerId,
    ) -> Result<(PeerId, u64)> {
        let links = self.links_of(departing)?;
        let start = if links.is_leaf() {
            // A leaf that cannot depart directly has a neighbour with a
            // child; start the walk at such a child.
            self.prefer_alive(neighbor_children(&links))
                .ok_or_else(|| {
                    BatonError::InvariantViolation(
                        "find_replacement called on a directly removable leaf".into(),
                    )
                })?
        } else {
            // A non-leaf starts at its deeper adjacent node, which lies in
            // one of its subtrees.
            let adjacent = match (links.adjacent(Side::Left), links.adjacent(Side::Right)) {
                (Some(l), Some(r)) if r.position.level() >= l.position.level() => {
                    [Some(r.peer), Some(l.peer)]
                }
                (l, r) => [l.map(|l| l.peer), r.map(|r| r.peer)],
            };
            self.prefer_alive(adjacent.into_iter().flatten())
                .ok_or_else(|| {
                    BatonError::InvariantViolation("non-leaf node without adjacent links".into())
                })?
        };
        let limit = self.walk_limit();
        let mut messages = 1u64;
        let mut hops = 1u32;
        self.hop(op, sender, start, hops, "leave.find_replacement")?;
        let mut current = start;
        loop {
            let links = self.links_of(current)?;
            let next = if links.is_leaf() {
                self.prefer_alive(neighbor_children(&links))
            } else {
                let children = Side::BOTH.map(|side| links.child(side));
                self.prefer_alive(children.into_iter().flatten().map(|l| l.peer))
            };
            let Some(next) = next else {
                return Ok((current, messages));
            };
            hops += 1;
            if hops > limit {
                return Err(BatonError::RoutingLoop {
                    operation: "find_replacement",
                    hops,
                });
            }
            self.hop(op, current, next, hops, "leave.find_replacement")?;
            messages += 1;
            current = next;
        }
    }

    /// The first alive candidate, or the first one when none is alive.
    fn prefer_alive(&self, candidates: impl Iterator<Item = PeerId>) -> Option<PeerId> {
        let mut first = None;
        for peer in candidates {
            if self.net.is_alive(peer) {
                return Some(peer);
            }
            first = first.or(Some(peer));
        }
        first
    }

    /// Structurally removes a leaf that satisfies the direct-departure
    /// condition: its content and range are merged into its parent, its
    /// neighbours are told to drop their table entries, the node beyond it
    /// in in-order learns its new adjacent node, and the parent refreshes
    /// its own neighbourhood.
    ///
    /// `actor` is the peer doing the talking (the leaf itself for a
    /// voluntary departure, the recovery coordinator when cleaning up after
    /// a failure).  Returns the number of messages used.
    pub(crate) fn detach_leaf(&mut self, op: OpScope, leaf: PeerId, actor: PeerId) -> Result<u64> {
        let mut messages = 0u64;
        let links = self.links_of(leaf)?;
        if !links.is_leaf() {
            return Err(BatonError::InvariantViolation(
                "detach_leaf called on a non-leaf node".into(),
            ));
        }
        let parent = links.parent().ok_or_else(|| {
            BatonError::InvariantViolation("detach_leaf called on the root".into())
        })?;
        let neighbor_peers: Vec<PeerId> = links.table_peers().collect();
        let range = self.range_ref(leaf)?;
        let (position, store) = {
            let node = self.node_mut(leaf)?;
            (node.position, std::mem::take(&mut node.store))
        };
        let side = position
            .child_side()
            .expect("a node with a parent is not the root");
        let outer_adjacent = self.links_of(leaf)?.adjacent(side);

        // 1. Tell routing-table neighbours to drop their entries.
        messages += self.fan_out(op, "leave.notify", actor, &neighbor_peers);

        // 2. Transfer content and range to the parent.
        self.hop(op, actor, parent.peer, 1, "leave.transfer")?;
        messages += 1;
        self.node_mut(parent.peer)?.store.absorb(store);
        let parent_range = self.range_ref(parent.peer)?;
        let merged = parent_range.merge(range).ok_or_else(|| {
            BatonError::InvariantViolation(format!(
                "leaf range {range} not contiguous with parent range {parent_range}"
            ))
        })?;
        self.set_range(parent.peer, merged)?;

        // 3. The node beyond the leaf in in-order now neighbours the parent.
        if let Some(outer) = outer_adjacent {
            self.notify(op, "table.adjacent_update", actor, outer.peer);
            messages += 1;
        }

        // 4. Remove the leaf from the overlay.
        self.vacate(position, leaf);
        self.remove_node(leaf);

        // 5. The parent's range (and child set) changed: refresh everyone
        //    holding a link to it with one combined notification each.
        messages += self.broadcast_link_update(op, parent.peer, LinkUpdate::RangeAndChildren)?;

        Ok(messages)
    }

    /// Makes `new_peer` (already detached from any previous position) take
    /// over `old_peer`'s position, range and content, and tells every node
    /// that linked to `old_peer` its new address.  The position changes
    /// occupant in place, so the range stays in its slot of the plane.
    ///
    /// `via` is the peer that transfers the state (the departing node for a
    /// voluntary departure, the recovery coordinator after a failure).
    pub(crate) fn take_over_position(
        &mut self,
        op: OpScope,
        old_peer: PeerId,
        new_peer: PeerId,
        via: PeerId,
    ) -> Result<u64> {
        let mut messages = 0u64;
        let range = self.range_ref(old_peer)?;
        let node = self
            .remove_node(old_peer)
            .ok_or(BatonError::UnknownPeer(old_peer))?;

        // One message: the state / content handoff to the replacement.
        self.hop(op, via, new_peer, 1, "leave.replacement_announce")?;
        messages += 1;

        self.occupy(node.position, new_peer, range);
        self.insert_node(new_peer, node);

        // Every node that held a link to the departed peer learns the new
        // address.
        let links = self.links_of(new_peer)?;
        let (linked, parent) = (links.linked_peers(), links.parent());
        messages += self.fan_out(op, "leave.replacement_announce", new_peer, &linked);
        // The parent's neighbours track the parent's children by address;
        // refresh that knowledge too (the paper's `2·L1` term).
        if let Some(parent) = parent {
            messages += self.broadcast_link_update(op, parent.peer, LinkUpdate::Children)?;
        }
        Ok(messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatonConfig;
    use crate::validate::validate;

    fn build(n: usize, seed: u64) -> BatonSystem {
        BatonSystem::build(BatonConfig::default(), seed, n).expect("build network")
    }

    #[test]
    fn last_node_cannot_leave() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        let root = system.bootstrap().unwrap();
        assert_eq!(system.leave(root).unwrap_err(), BatonError::LastNode);
    }

    #[test]
    fn leaf_departure_returns_range_to_parent() {
        let mut system = BatonSystem::new(BatonConfig::default(), 2);
        let root = system.bootstrap().unwrap();
        let join = system.join_via(root).unwrap();
        system.insert(5, 55).unwrap();
        system.insert(999_000_000, 66).unwrap();
        let before_items = system.total_items();
        let report = system.leave(join.new_peer).unwrap();
        assert_eq!(report.departed, join.new_peer);
        assert!(report.replacement.is_none());
        assert_eq!(report.locate_messages, 0);
        assert_eq!(system.node_count(), 1);
        // The root manages the whole domain again and kept all the data.
        assert_eq!(system.range_of(root), Some(system.domain()));
        assert_eq!(system.total_items(), before_items);
        validate(&system).unwrap();
    }

    #[test]
    fn root_departure_promotes_a_replacement() {
        let mut system = build(20, 3);
        let root = system.root().unwrap();
        let report = system.leave(root).unwrap();
        assert_eq!(report.departed, root);
        let replacement = report.replacement.expect("non-leaf needs a replacement");
        assert_ne!(replacement, root);
        assert_eq!(system.root(), Some(replacement));
        assert_eq!(system.node_count(), 19);
        validate(&system).unwrap();
    }

    #[test]
    fn departures_preserve_invariants_and_data() {
        let mut system = build(60, 4);
        for i in 0..300u64 {
            system.insert(1 + i * 3_333_333, i).unwrap();
        }
        let total = system.total_items();
        for round in 0..40 {
            let peer = system.random_peer().unwrap();
            if system.node_count() == 1 {
                break;
            }
            system.leave(peer).unwrap();
            validate(&system)
                .unwrap_or_else(|e| panic!("invariant broken after departure {round}: {e}"));
            assert_eq!(system.total_items(), total, "data lost at round {round}");
        }
        assert_eq!(system.node_count(), 20);
        // Every key must still be findable.
        for i in 0..300u64 {
            let found = system.search_exact(1 + i * 3_333_333).unwrap();
            assert_eq!(found.matches, vec![i]);
        }
    }

    #[test]
    fn leave_costs_are_logarithmic() {
        let mut system = build(300, 5);
        let log_n = (system.node_count() as f64).log2();
        for _ in 0..30 {
            let report = system.leave_random().unwrap();
            assert!(
                (report.locate_messages as f64) <= 2.0 * log_n + 4.0,
                "locate cost {} too high",
                report.locate_messages
            );
            assert!(
                (report.update_messages as f64) <= 10.0 * log_n + 20.0,
                "update cost {} too high",
                report.update_messages
            );
        }
        validate(&system).unwrap();
    }

    #[test]
    fn interleaved_joins_and_leaves_keep_invariants() {
        let mut system = build(40, 6);
        for i in 0..120u64 {
            system.insert(1 + i * 8_000_000, i).unwrap();
        }
        for round in 0..60 {
            if round % 3 == 0 && system.node_count() > 2 {
                system.leave_random().unwrap();
            } else {
                system.join_random().unwrap();
            }
            validate(&system)
                .unwrap_or_else(|e| panic!("invariant broken after churn round {round}: {e}"));
        }
        assert_eq!(system.total_items(), 120);
    }

    #[test]
    fn leaving_twice_is_rejected() {
        let mut system = build(10, 7);
        let peer = system.peers()[0];
        if system.node_count() > 1 {
            system.leave(peer).unwrap();
            let err = system.leave(peer).unwrap_err();
            assert!(matches!(
                err,
                BatonError::UnknownPeer(_) | BatonError::PeerNotAlive(_)
            ));
        }
    }

    #[test]
    fn shrink_network_down_to_single_node() {
        let mut system = build(33, 8);
        while system.node_count() > 1 {
            system.leave_random().unwrap();
            validate(&system).unwrap();
        }
        let last = system.peers()[0];
        assert!(system.node(last).unwrap().is_root());
        assert!(system.links(last).unwrap().is_leaf());
        assert_eq!(system.range_of(last), Some(system.domain()));
    }
}
