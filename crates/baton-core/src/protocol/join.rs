//! Node join (paper §III-A, Algorithm 1).
//!
//! Joining happens in two phases:
//!
//! 1. **Locate** — the JOIN request is forwarded through the overlay until
//!    it reaches a node with full routing tables and a free child slot
//!    (Algorithm 1).  Each forward is one message; the paper's Figure 8(a)
//!    plots the average number of these messages.
//! 2. **Attach** — the accepting node splits its key range (and data) with
//!    the new child, the new node takes its position (which splices it into
//!    the adjacency chain), the accepting node informs its neighbours of its
//!    new child and shrunken range, and the new node's routing tables are
//!    filled through the neighbours' children (Theorem 2 guarantees they are
//!    reachable that way).  Figure 8(b) plots these update messages.

use baton_net::{OpScope, PeerId};

use crate::error::{BatonError, Result};
use crate::node::BatonNode;
use crate::position::{Position, Side};
use crate::range::KeyRange;
use crate::reports::JoinReport;
use crate::system::{BatonSystem, LinkUpdate};

impl BatonSystem {
    /// A new peer joins the overlay, contacting a uniformly random existing
    /// node (how the paper builds its experimental networks).
    pub fn join_random(&mut self) -> Result<JoinReport> {
        let contact = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        self.join_via(contact)
    }

    /// A new peer joins the overlay by sending a JOIN request to `contact`.
    pub fn join_via(&mut self, contact: PeerId) -> Result<JoinReport> {
        self.check_alive(contact)?;
        let joiner = self.net.add_peer();
        self.in_op("join", |system, op| system.join_in_op(op, joiner, contact))
    }

    fn join_in_op(&mut self, op: OpScope, joiner: PeerId, contact: PeerId) -> Result<JoinReport> {
        let (acceptor, locate_messages) = self.locate_join_node(op, joiner, contact)?;
        let (position, range, update_messages) = self.attach_child(op, acceptor, joiner)?;
        // At k > 1 the range split moved replica boundaries: the new node
        // seeds its replica targets with its slice (k−1 handoff messages).
        let handoff_messages = self.charge_replica_handoffs(op, joiner);
        Ok(JoinReport {
            new_peer: joiner,
            parent: acceptor,
            position,
            range,
            locate_messages,
            update_messages: update_messages + handoff_messages,
            restructure: None,
        })
    }

    /// Phase 1 of the join: forward the JOIN request per Algorithm 1 until a
    /// node that can accept a child is found.  Returns that node and the
    /// number of messages used.
    pub(crate) fn locate_join_node(
        &mut self,
        op: OpScope,
        joiner: PeerId,
        contact: PeerId,
    ) -> Result<(PeerId, u64)> {
        let limit = self.walk_limit();
        let mut messages = 0u64;
        let mut hop_no = 1u32;
        self.hop(op, joiner, contact, hop_no, "join.request")?;
        messages += 1;
        let mut current = contact;
        loop {
            let links = self.links_of(current)?;
            // A dead (unrepaired) node must not accept: `attach_child`
            // splits the acceptor's store and range *before* its first hop,
            // so accepting at a dead node would corrupt both.  Legacy runs
            // never route past dead nodes, so the extra check is free.
            if links.can_accept_child() && self.net.is_alive(current) {
                return Ok((current, messages));
            }
            let next = if !links.tables_full() {
                // Algorithm 1: incomplete routing tables → forward to parent.
                // The root's tables are trivially full, so a missing parent
                // indicates corrupted state.
                links.parent().map(|p| p.peer).ok_or_else(|| {
                    BatonError::InvariantViolation(
                        "root reached with non-full routing tables".into(),
                    )
                })?
            } else {
                // Tables full but both children occupied: pick a neighbour
                // that is still missing a child, otherwise fall through to
                // the deeper adjacent node.
                let candidate = Side::BOTH
                    .into_iter()
                    .find_map(|side| links.table(side).first_without_both_children())
                    .map(|(_, e)| e.peer);
                let deeper = match (links.adjacent(Side::Left), links.adjacent(Side::Right)) {
                    (Some(l), Some(r)) if l.position.level() > r.position.level() => Some(l),
                    (l, r) => r.or(l),
                };
                candidate.or(deeper.map(|l| l.peer)).ok_or_else(|| {
                    BatonError::InvariantViolation("saturated node with no adjacent links".into())
                })?
            };
            hop_no += 1;
            if hop_no > limit {
                return Err(BatonError::RoutingLoop {
                    operation: "join",
                    hops: hop_no,
                });
            }
            self.hop(op, current, next, hop_no, "join.request")?;
            messages += 1;
            current = next;
        }
    }

    /// Phase 2 of the join: attach `joiner` as a child of `parent_peer`,
    /// splitting the parent's range and data, fixing adjacency, and building
    /// the new node's routing tables.  Returns the new node's position and
    /// range plus the number of update messages.
    ///
    /// The caller is responsible for having verified (Algorithm 1) that the
    /// parent can accept a child; this method also backs the *forced* joins
    /// of the load balancer (§IV-D), in which case the caller follows up
    /// with a restructuring pass.
    pub(crate) fn attach_child(
        &mut self,
        op: OpScope,
        parent_peer: PeerId,
        joiner: PeerId,
    ) -> Result<(Position, KeyRange, u64)> {
        let mut messages = 0u64;

        // Decide side, position and range split.
        let (side, child_pos, parent_new_range, child_range) = {
            let side = self
                .links_of(parent_peer)?
                .free_child_side()
                .ok_or_else(|| {
                    BatonError::InvariantViolation("attach_child called on a full parent".into())
                })?;
            let child_pos = self.node_ref(parent_peer)?.position.child(side);
            let (low_half, high_half) = self.range_ref(parent_peer)?.split_half();
            let (p_range, c_range) = match side {
                Side::Left => (high_half, low_half),
                Side::Right => (low_half, high_half),
            };
            (side, child_pos, p_range, c_range)
        };

        // Create the child node and move the data that now belongs to it.
        let mut child = BatonNode::new(child_pos);
        {
            let parent = self.node_mut(parent_peer)?;
            child.store = parent.store.split_off_range(child_range);
        }
        self.set_range(parent_peer, parent_new_range)?;

        // One message: the parent accepts the joiner and hands over its half
        // of the range (the data handoff rides on this acceptance).
        self.hop(op, parent_peer, joiner, 1, "join.accept")?;
        messages += 1;

        // The child slots in between the parent and the parent's adjacent
        // node on `side`, which it tells of its new neighbour.
        let outer_adjacent = self.links_of(parent_peer)?.adjacent(side);
        self.occupy(child_pos, joiner, child_range);
        self.insert_node(joiner, child);
        // One message, per the paper's cost analysis.
        if let Some(outer) = outer_adjacent {
            self.notify(op, "table.adjacent_update", joiner, outer.peer);
            messages += 1;
        }

        // The parent's range shrank and it gained a child: one combined
        // notification per node holding a link to it (its routing-table
        // neighbours in turn let their children know about the new node,
        // which is how its tables fill) — the paper's `2·L1` term.
        messages += self.broadcast_link_update(op, parent_peer, LinkUpdate::RangeAndChildren)?;
        // Fill the new node's routing tables through the parent's
        // neighbours' children (Theorem 2).
        messages += self.build_child_tables(op, parent_peer, joiner)?;

        Ok((child_pos, child_range, messages))
    }

    /// Charges the filling of a freshly attached child's routing tables and
    /// of the reverse entries at its neighbours.
    ///
    /// The occupant of every slot of the child's tables is found through the
    /// parent's knowledge: the target's parent is either the child's own
    /// parent (sibling slot) or a routing-table neighbour of the parent
    /// (Theorem 2), whose children the parent's entry names.  Each occupied
    /// slot costs two messages (query the occupant, occupant responds to /
    /// records the new node), matching the `2·L2 + 2·L2` term of the
    /// paper's cost analysis.
    pub(crate) fn build_child_tables(
        &mut self,
        op: OpScope,
        parent_peer: PeerId,
        child_peer: PeerId,
    ) -> Result<u64> {
        let links = self.links_of(child_peer)?;
        let neighbors: Vec<PeerId> = links.table_peers().collect();
        for &occupant in &neighbors {
            // Query + response pair.
            self.notify(op, "table.fill", parent_peer, occupant);
            self.notify(op, "table.fill", occupant, child_peer);
        }
        Ok(2 * neighbors.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use baton_net::Overlay;

    use super::*;
    use crate::config::BatonConfig;
    use crate::validate::validate;

    fn build(n: usize, seed: u64) -> BatonSystem {
        BatonSystem::build(BatonConfig::default(), seed, n).expect("build network")
    }

    #[test]
    fn second_node_becomes_child_of_root() {
        let mut system = BatonSystem::new(BatonConfig::default(), 7);
        let root = system.bootstrap().unwrap();
        let report = system.join_via(root).unwrap();
        assert_eq!(report.parent, root);
        assert_eq!(report.position, Position::new(1, 1));
        assert_eq!(system.node_count(), 2);
        // Root kept the upper half of the domain, the child got the lower.
        let root_range = system.range_of(root).unwrap();
        let child_range = system.range_of(report.new_peer).unwrap();
        assert_eq!(child_range.high(), root_range.low());
        let (root_links, child_links) = (
            system.links(root).unwrap(),
            system.links(report.new_peer).unwrap(),
        );
        assert_eq!(child_links.parent().unwrap().peer, root);
        assert_eq!(root_links.child(Side::Left).unwrap().peer, report.new_peer);
        // Adjacency: child <-> root.
        assert_eq!(
            root_links.adjacent(Side::Left).unwrap().peer,
            report.new_peer
        );
        assert_eq!(child_links.adjacent(Side::Right).unwrap().peer, root);
        assert!(child_links.adjacent(Side::Left).is_none());
        validate(&system).unwrap();
    }

    #[test]
    fn locate_messages_are_positive_and_bounded() {
        let mut system = build(64, 3);
        for _ in 0..20 {
            let report = system.join_random().unwrap();
            assert!(report.locate_messages >= 1);
            // The paper bounds the locate walk by O(log N); allow slack for
            // the constant factors (adjacent hops, sideways hops).
            let bound = 6 * (system.node_count() as f64).log2().ceil() as u64 + 8;
            assert!(
                report.locate_messages <= bound,
                "locate took {} messages for {} nodes",
                report.locate_messages,
                system.node_count()
            );
        }
        validate(&system).unwrap();
    }

    #[test]
    fn update_messages_are_logarithmic() {
        let mut system = build(128, 5);
        let report = system.join_random().unwrap();
        let log_n = (system.node_count() as f64).log2();
        assert!(
            (report.update_messages as f64) <= 8.0 * log_n + 16.0,
            "update messages {} exceed 8 log N {}",
            report.update_messages,
            8.0 * log_n
        );
        validate(&system).unwrap();
    }

    #[test]
    fn joins_preserve_invariants_at_every_step() {
        let mut system = BatonSystem::new(BatonConfig::default(), 11);
        system.bootstrap().unwrap();
        for i in 0..80 {
            system.join_random().unwrap();
            validate(&system).unwrap_or_else(|e| panic!("invariant broken after join {i}: {e}"));
        }
        assert_eq!(system.node_count(), 81);
    }

    #[test]
    fn tree_height_stays_balanced() {
        let system = build(200, 13);
        let n = system.node_count() as f64;
        let height = system.height() as f64;
        // Balanced binary tree: height <= 1.44 log2 N (paper §III) + 1 slack.
        assert!(
            height <= 1.45 * n.log2() + 1.0,
            "height {height} too large for {n} nodes"
        );
        // And at least log2(N).
        assert!(height >= n.log2().floor());
        validate(&system).unwrap();
    }

    #[test]
    fn join_via_unknown_contact_fails() {
        let mut system = build(4, 1);
        let err = system.join_via(PeerId(999)).unwrap_err();
        assert_eq!(err, BatonError::UnknownPeer(PeerId(999)));
    }

    #[test]
    fn join_on_empty_network_fails() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        assert_eq!(system.join_random().unwrap_err(), BatonError::EmptyNetwork);
    }

    #[test]
    fn ranges_partition_domain_after_many_joins() {
        let system = build(100, 17);
        let mut ranges: Vec<KeyRange> = system
            .peers()
            .iter()
            .copied()
            .map(|p| system.range_of(p).unwrap())
            .collect();
        ranges.sort_by_key(|r| r.low());
        assert_eq!(ranges.first().unwrap().low(), system.domain().low());
        assert_eq!(ranges.last().unwrap().high(), system.domain().high());
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].high(), pair[1].low(), "ranges must be contiguous");
        }
    }

    #[test]
    fn every_join_acceptor_had_full_tables() {
        // Indirectly verified by Theorem 1 holding after each join; also
        // check explicitly that all internal nodes have full tables.
        let system = build(150, 19);
        for &peer in system.peers() {
            let links = system.links(peer).unwrap();
            if !links.is_leaf() {
                assert!(
                    links.tables_full(),
                    "internal node {peer} at {:?} lacks full tables",
                    system.node(peer).unwrap().position
                );
            }
        }
    }
}
