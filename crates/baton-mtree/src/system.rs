//! The multiway-tree overlay simulation (the paper's baseline "[10]",
//! Liau et al. 2004).
//!
//! Structure, as summarised in §II of the BATON paper: each peer owns a tree
//! node linked to its parent, its children (with **no constraint on
//! fan-out**), its siblings and its neighbours; there are no sideways
//! routing tables and no balancing.  Consequences the paper's evaluation
//! highlights and that this implementation reproduces:
//!
//! * joins are cheap (the responsible node accepts the newcomer directly),
//! * departures are expensive (the departing node must gather information
//!   from *all* of its children to pick and install a replacement),
//! * searches hop link by link — down through children coverage, up through
//!   parents — with no logarithmic sideways shortcuts, so they cost more
//!   than BATON's and degrade further when the tree grows unbalanced under
//!   skewed splits,
//! * the tree is not height-balanced; with skewed join points it degenerates.

use baton_net::{
    ChurnCost, LinkKind, OpCost, OpScope, Overlay, OverlayCapabilities, OverlayError,
    OverlayResult, PeerDirectory, PeerId, SimNetwork, SimRng,
};

use crate::node::{MLink, MNode};
use crate::range::MRange;

/// The error of an operation naming a peer that is not in the tree.
fn unknown_peer(peer: PeerId) -> OverlayError {
    OverlayError::Op(format!("unknown peer {peer}"))
}

/// The error of an operation that needs a peer of an empty tree.
fn empty() -> OverlayError {
    OverlayError::Op("the overlay is empty".into())
}

/// The multiway-tree overlay.
#[derive(Debug)]
pub struct MTreeSystem {
    net: SimNetwork,
    /// Node state of every live peer and the sorted list sampling draws
    /// from.
    nodes: PeerDirectory<MNode>,
    /// Live nodes per [`MNode::depth`] value, so [`height`](Self::height) —
    /// consulted by every routed operation for its loop guard — is an
    /// O(levels) scan instead of a sweep over the nodes.  Kept by
    /// [`register_node`](Self::register_node),
    /// [`unregister_node`](Self::unregister_node) and
    /// [`set_depth`](Self::set_depth), the only places a live node's depth
    /// appears, disappears or changes.
    live_at_depth: Vec<usize>,
    root: Option<PeerId>,
    domain: MRange,
    rng: SimRng,
    /// Replication degree k: each key lives at its routed owner plus its
    /// k−1 in-order neighbours.  1 = no replication (the default and the
    /// byte-identical legacy configuration).
    replication: usize,
}

impl MTreeSystem {
    /// Creates an empty overlay over the paper's `[1, 10^9)` domain.
    pub fn new(seed: u64) -> Self {
        Self::with_domain(seed, MRange::new(1, 1_000_000_000))
    }

    /// Creates an empty overlay over an explicit domain.
    pub fn with_domain(seed: u64, domain: MRange) -> Self {
        Self {
            net: SimNetwork::new(),
            nodes: PeerDirectory::new(),
            live_at_depth: Vec::new(),
            root: None,
            domain,
            rng: SimRng::seeded(seed),
            replication: 1,
        }
    }

    /// Builds an overlay of `n` nodes.
    pub fn build(seed: u64, n: usize) -> OverlayResult<Self> {
        let mut system = Self::new(seed);
        for _ in 0..n {
            system.join_random()?;
        }
        Ok(system)
    }

    /// Iterates over `(peer, node)` pairs in peer-id order.
    pub fn nodes(&self) -> impl Iterator<Item = (PeerId, &MNode)> + '_ {
        self.nodes.iter()
    }

    /// Height of the tree (max depth + 1); 0 when empty.  O(levels), from
    /// the per-depth live counts.
    pub fn height(&self) -> u32 {
        self.live_at_depth
            .iter()
            .rposition(|&live| live > 0)
            .map_or(0, |depth| depth as u32 + 1)
    }

    fn node(&self, peer: PeerId) -> OverlayResult<&MNode> {
        self.nodes.get(peer).ok_or_else(|| unknown_peer(peer))
    }

    fn node_mut(&mut self, peer: PeerId) -> OverlayResult<&mut MNode> {
        self.nodes.get_mut(peer).ok_or_else(|| unknown_peer(peer))
    }

    fn random_peer(&mut self) -> Option<PeerId> {
        self.nodes.sample(&mut self.rng)
    }

    /// Adds a new peer's node to the directory and the depth counts.
    fn register_node(&mut self, peer: PeerId, node: MNode) {
        let depth = node.depth as usize;
        if self.live_at_depth.len() <= depth {
            self.live_at_depth.resize(depth + 1, 0);
        }
        self.live_at_depth[depth] += 1;
        let previous = self.nodes.insert(peer, node);
        debug_assert!(previous.is_none(), "{peer} registered twice");
    }

    /// Removes `peer`'s node from the directory and the depth counts.
    fn unregister_node(&mut self, peer: PeerId) -> Option<MNode> {
        let node = self.nodes.remove(peer)?;
        self.live_at_depth[node.depth as usize] -= 1;
        Some(node)
    }

    /// Moves the live node `peer` to `depth` (no deeper than a registered
    /// node has been).
    fn set_depth(&mut self, peer: PeerId, depth: u32) -> OverlayResult<()> {
        let node = self.nodes.get_mut(peer).ok_or_else(|| unknown_peer(peer))?;
        self.live_at_depth[node.depth as usize] -= 1;
        self.live_at_depth[depth as usize] += 1;
        node.depth = depth;
        Ok(())
    }

    /// Routes from `issuer` to the node whose direct range contains `key`:
    /// up through parents until the coverage contains the key, then down
    /// through the covering children — one message per hop, no sideways
    /// shortcuts.
    fn route_to_owner(
        &mut self,
        op: OpScope,
        issuer: PeerId,
        key: u64,
    ) -> OverlayResult<(PeerId, u64)> {
        let mut current = issuer;
        let mut messages = 0u64;
        let limit = 4 * self.height() as u64 + self.node_count() as u64 + 8;
        loop {
            let node = self.node(current)?;
            if node.range.contains(key) {
                return Ok((current, messages));
            }
            let (next, kind) = if node.coverage.contains(key) {
                match node.child_covering(key) {
                    Some(child) => (child.peer, LinkKind::Child),
                    None => return Ok((current, messages)),
                }
            } else {
                match &node.parent {
                    Some(p) => (p.peer, LinkKind::Parent),
                    None => return Ok((current, messages)),
                }
            };
            self.net
                .transmit(op, current, next, messages as u32 + 1, kind, "mtree.search")
                .ok();
            messages += 1;
            current = next;
            if messages > limit {
                return Ok((current, messages));
            }
        }
    }

    fn splice_neighbors(&mut self, op: OpScope, departing: &MNode) -> OverlayResult<u64> {
        let mut messages = 0u64;
        if let (Some(l), Some(r)) = (departing.left_neighbor, departing.right_neighbor) {
            if let Some(ln) = self.nodes.get_mut(l.peer) {
                ln.right_neighbor = Some(r);
            }
            if let Some(rn) = self.nodes.get_mut(r.peer) {
                rn.left_neighbor = Some(l);
            }
            self.net
                .count_message(op, "mtree.maintenance", departing.peer, l.peer);
            self.net
                .count_message(op, "mtree.maintenance", departing.peer, r.peer);
            messages += 2;
        } else if let Some(l) = departing.left_neighbor {
            if let Some(ln) = self.nodes.get_mut(l.peer) {
                ln.right_neighbor = None;
            }
            self.net
                .count_message(op, "mtree.maintenance", departing.peer, l.peer);
            messages += 1;
        } else if let Some(r) = departing.right_neighbor {
            if let Some(rn) = self.nodes.get_mut(r.peer) {
                rn.left_neighbor = None;
            }
            self.net
                .count_message(op, "mtree.maintenance", departing.peer, r.peer);
            messages += 1;
        }
        Ok(messages)
    }

    /// Highest replication degree the neighbour-link placement supports:
    /// the owner plus its two in-order neighbours.
    pub const MAX_REPLICATION: usize = 3;

    /// The in-order neighbours holding the k−1 replica copies of `peer`'s
    /// keys: the right neighbour first, then the left.  Empty at k = 1.
    pub fn replica_targets(&self, peer: PeerId) -> Vec<PeerId> {
        if self.replication <= 1 {
            return Vec::new();
        }
        let Some(node) = self.nodes.get(peer) else {
            return Vec::new();
        };
        let mut targets = Vec::new();
        for link in [node.right_neighbor, node.left_neighbor]
            .into_iter()
            .flatten()
        {
            if link.peer != peer && !targets.contains(&link.peer) {
                targets.push(link.peer);
            }
        }
        targets.truncate(self.replication - 1);
        targets
    }

    /// Charges the replica-copy messages a write at `owner` costs at k > 1.
    fn charge_replica_copies(&mut self, op: OpScope, owner: PeerId) -> u64 {
        let mut copies = 0u64;
        for target in self.replica_targets(owner) {
            self.net.count_message(op, "mtree.replica", owner, target);
            copies += 1;
        }
        copies
    }

    /// Builds a [`baton_net::serve::RoutingSnapshot`] of the tree's current
    /// state for the concurrent serve front-end: slots are the nodes in key
    /// order (their direct ranges partition the domain), items are the
    /// sorted key multisets run-length-encoded, links carry the
    /// parent/child tree edges and the in-order neighbour chain range
    /// sweeps walk, and replicas are the in-order replica targets of the
    /// k-replica capability.  Extraction is read-only.
    pub fn build_routing_snapshot(&self) -> baton_net::serve::RoutingSnapshot {
        use baton_net::serve::{ExactPlacement, SnapshotBuilder};

        let mut builder = SnapshotBuilder::new(
            ExactPlacement::DomainPartition,
            (self.domain.low, self.domain.high),
        );
        builder.reserve(self.node_count(), self.total_items());
        let mut order: Vec<&MNode> = self.nodes.values().collect();
        order.sort_by_key(|node| node.range.low);
        for node in &order {
            builder.push_slot(node.peer.0, node.range.high, true);
            builder.push_keys(&node.keys);
            builder.seal_slot();
        }
        for (slot, node) in order.iter().enumerate() {
            if let Some(parent) = &node.parent {
                builder.link_peer(slot, parent.peer.0, LinkKind::Parent);
            }
            for child in &node.children {
                builder.link_peer(slot, child.peer.0, LinkKind::Child);
            }
            for neighbor in [&node.left_neighbor, &node.right_neighbor]
                .into_iter()
                .flatten()
            {
                builder.link_peer(slot, neighbor.peer.0, LinkKind::Neighbor);
            }
            for target in self.replica_targets(node.peer) {
                builder.replica_peer(slot, target.0);
            }
        }
        builder.finish()
    }
}

impl Overlay for MTreeSystem {
    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities {
            range_queries: true,
        }
    }

    /// Number of nodes.
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total stored items.
    fn total_items(&self) -> usize {
        self.nodes.values().map(|n| n.items()).sum()
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// Approximate resident bytes of per-peer protocol state: the node
    /// slab, every node's child-link and key vectors, and the sampling
    /// list.  The shared network substrate is excluded.  The slab is
    /// counted by [`PeerDirectory::slot_count`] — every slot ever opened,
    /// the holes departures leave included — not by its allocated
    /// capacity: amortised doubling overshoots the slots in use by up to
    /// 2×, which would make the figure jump with the growth schedule
    /// rather than with the state the protocol keeps.
    fn estimated_state_bytes(&self) -> u64 {
        let slab = (self.nodes.slot_count() * std::mem::size_of::<Option<MNode>>()) as u64;
        let heap: u64 = self
            .nodes
            .values()
            .map(|node| {
                (node.children.capacity() * std::mem::size_of::<MLink>()
                    + node.keys.capacity() * std::mem::size_of::<u64>()) as u64
            })
            .sum();
        let peers = (self.nodes.list_capacity() * std::mem::size_of::<PeerId>()) as u64;
        slab + heap + peers
    }

    fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    /// All peers, sorted by id — a borrowed view of the sampling list.
    fn peers(&self) -> &[PeerId] {
        self.nodes.peers()
    }

    /// A new node joins: the request is routed to the node owning a random
    /// point of the key space, which accepts the newcomer as a child
    /// directly (fan-out is unconstrained) and hands it half of its range.
    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        let peer = self.net.add_peer();
        let op = self.net.begin_op("mtree.join");
        if self.nodes.is_empty() {
            let node = MNode::new(peer, self.domain);
            self.root = Some(peer);
            self.register_node(peer, node);
            self.net.finish_op(op);
            return Ok(ChurnCost::default());
        }
        let contact = self.random_peer().expect("non-empty");
        let split_point = self.rng.uniform_u64(self.domain.low, self.domain.high);
        let (acceptor, locate_messages) = self.route_to_owner(op, contact, split_point)?;

        // The acceptor hands the upper half of its direct range to the new
        // child; the child's coverage is exactly that half.  Stored keys in
        // the handed-over half move with it (no extra messages: the paper's
        // model piggybacks the data on the accept message).
        let mut update_messages = 0u64;
        let (child_range, child_keys, acceptor_link, child_depth, sibling_count) = {
            let acceptor_node = self.node_mut(acceptor)?;
            let (keep, give) = acceptor_node.range.split_half();
            if give.width() == 0 {
                // Cannot split further; attach with an empty range.
                let link = acceptor_node.link();
                (
                    give,
                    Vec::new(),
                    link,
                    acceptor_node.depth + 1,
                    acceptor_node.children.len(),
                )
            } else {
                acceptor_node.range = keep;
                let moved = acceptor_node.split_keys_at(give.low);
                let link = acceptor_node.link();
                (
                    give,
                    moved,
                    link,
                    acceptor_node.depth + 1,
                    acceptor_node.children.len(),
                )
            }
        };
        let mut child = MNode::new(peer, child_range);
        child.keys = child_keys;
        child.parent = Some(acceptor_link);
        child.depth = child_depth;
        // In-order neighbours: the child slots immediately after the
        // acceptor's (shrunken) direct range.
        let old_right = self.node(acceptor)?.right_neighbor;
        child.left_neighbor = Some(acceptor_link);
        child.right_neighbor = old_right;
        let child_link = child.link();
        self.register_node(peer, child);
        {
            let acceptor_node = self.node_mut(acceptor)?;
            acceptor_node.children.push(child_link);
            acceptor_node.right_neighbor = Some(child_link);
        }
        if let Some(old_right) = old_right {
            if let Some(n) = self.nodes.get_mut(old_right.peer) {
                n.left_neighbor = Some(child_link);
            }
            self.net
                .count_message(op, "mtree.maintenance", peer, old_right.peer);
            update_messages += 1;
        }
        // Accept message + notify the existing siblings about the newcomer.
        self.net
            .count_message(op, "mtree.maintenance", acceptor, peer);
        update_messages += 1;
        let siblings: Vec<PeerId> = self
            .node(acceptor)?
            .children
            .iter()
            .map(|c| c.peer)
            .filter(|p| *p != peer)
            .collect();
        for sibling in siblings {
            self.net
                .count_message(op, "mtree.maintenance", acceptor, sibling);
            update_messages += 1;
        }
        debug_assert_eq!(sibling_count, self.node(acceptor)?.children.len() - 1);
        // The acceptor's direct range changed: tell its parent and neighbours.
        let to_refresh: Vec<PeerId> = {
            let a = self.node(acceptor)?;
            a.parent
                .iter()
                .map(|l| l.peer)
                .chain(a.left_neighbor.iter().map(|l| l.peer))
                .collect()
        };
        let acceptor_link_now = self.node(acceptor)?.link();
        for other in to_refresh {
            self.net
                .count_message(op, "mtree.maintenance", acceptor, other);
            update_messages += 1;
            if let Some(n) = self.nodes.get_mut(other) {
                for c in &mut n.children {
                    if c.peer == acceptor {
                        *c = acceptor_link_now;
                    }
                }
                if n.right_neighbor.map(|l| l.peer) == Some(acceptor) {
                    n.right_neighbor = Some(acceptor_link_now);
                }
                if n.left_neighbor.map(|l| l.peer) == Some(acceptor) {
                    n.left_neighbor = Some(acceptor_link_now);
                }
            }
        }

        self.net.finish_op(op);
        Ok(ChurnCost {
            locate_messages: locate_messages.max(1),
            update_messages,
            lost_items: 0,
        })
    }

    /// A random node leaves.
    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        let peer = self.random_peer().ok_or_else(empty)?;
        self.leave_peer(peer)
    }

    /// A node leaves: it must query **all** of its children to pick a
    /// replacement (this is what makes multiway-tree departures expensive),
    /// the replacement absorbs its range and items, and every link to the
    /// departed node is repointed.
    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        if self.nodes.len() <= 1 {
            return Err(OverlayError::Op("the last node cannot leave".into()));
        }
        let mut departing = self
            .unregister_node(peer)
            .ok_or_else(|| unknown_peer(peer))?;
        let departing_keys = std::mem::take(&mut departing.keys);
        let op = self.net.begin_op("mtree.leave");

        // Gather information from every child (one query + one response per
        // child) to select the replacement.
        let mut locate_messages = 0u64;
        for child in &departing.children {
            self.net.count_message(op, "mtree.leave", peer, child.peer);
            self.net.count_message(op, "mtree.leave", child.peer, peer);
            locate_messages += 2;
        }

        let mut update_messages = 0u64;
        self.net.depart_peer(peer);

        if departing.children.is_empty() {
            // Leaf: its direct range and items return to its in-order
            // predecessor (or successor), which keeps the range partition
            // contiguous.
            let heir = departing
                .left_neighbor
                .map(|l| l.peer)
                .or_else(|| departing.right_neighbor.map(|l| l.peer))
                .expect("multi-node tree has a neighbour");
            {
                let h = self.node_mut(heir)?;
                h.merge_keys(departing_keys);
                if h.range.high == departing.range.low {
                    h.range = MRange::new(h.range.low, departing.range.high);
                    if h.coverage.high == departing.range.low {
                        h.coverage = MRange::new(h.coverage.low, departing.range.high);
                    }
                } else if h.range.low == departing.range.high {
                    h.range = MRange::new(departing.range.low, h.range.high);
                    if h.coverage.low == departing.range.high {
                        h.coverage = MRange::new(departing.range.low, h.coverage.high);
                    }
                }
            }
            self.net.count_message(op, "mtree.leave", peer, heir);
            update_messages += 1;
            // Unlink from the parent's child list and from the neighbours.
            if let Some(parent) = departing.parent {
                if let Some(p) = self.nodes.get_mut(parent.peer) {
                    p.children.retain(|c| c.peer != peer);
                }
                self.net
                    .count_message(op, "mtree.maintenance", peer, parent.peer);
                update_messages += 1;
            }
            update_messages += self.splice_neighbors(op, &departing)?;
        } else {
            // Internal node: promote the child that is the departing node's
            // in-order successor (the one whose coverage starts where the
            // departing node's direct range ends), so absorbing the
            // departing node's direct range keeps the partition contiguous.
            let replacement = departing
                .children
                .iter()
                .find(|c| c.coverage.low == departing.range.high)
                .or_else(|| departing.children.last())
                .expect("non-empty")
                .peer;
            let mut absorber: Option<PeerId> = None;
            {
                let r = self.node_mut(replacement)?;
                r.coverage = departing.coverage;
                if r.range.low == departing.range.high {
                    // The replacement is the departing node's in-order
                    // successor: absorb its direct range contiguously.
                    r.range = MRange::new(departing.range.low, r.range.high);
                    absorber = Some(replacement);
                }
                r.parent = departing.parent;
            }
            self.set_depth(replacement, departing.depth)?;
            if absorber.is_none() {
                // Hand the departing node's direct range to its in-order
                // predecessor (or successor) instead, keeping the partition
                // contiguous.
                if let Some(l) = departing.left_neighbor {
                    if let Some(ln) = self.nodes.get_mut(l.peer) {
                        if ln.range.high == departing.range.low {
                            ln.range = MRange::new(ln.range.low, departing.range.high);
                            absorber = Some(l.peer);
                        }
                    }
                }
                if absorber.is_none() {
                    if let Some(r) = departing.right_neighbor {
                        if let Some(rn) = self.nodes.get_mut(r.peer) {
                            if rn.range.low == departing.range.high {
                                rn.range = MRange::new(departing.range.low, rn.range.high);
                                absorber = Some(r.peer);
                            }
                        }
                    }
                }
            }
            // The stored keys follow the direct range to whichever node
            // absorbed it (the replacement, degenerately, if none did).
            let keys_heir = absorber.unwrap_or(replacement);
            self.node_mut(keys_heir)?.merge_keys(departing_keys);
            self.net.count_message(op, "mtree.leave", peer, replacement);
            update_messages += 1;
            // The departing node's other children become the replacement's
            // children; each must be told about its new parent.
            let replacement_link = self.node(replacement)?.link();
            let others: Vec<MLink> = departing
                .children
                .iter()
                .copied()
                .filter(|c| c.peer != replacement)
                .collect();
            for child in &others {
                if let Some(c) = self.nodes.get_mut(child.peer) {
                    c.parent = Some(replacement_link);
                }
                self.net
                    .count_message(op, "mtree.maintenance", replacement, child.peer);
                update_messages += 1;
            }
            {
                let r = self.node_mut(replacement)?;
                r.children.extend(others);
            }
            // The replacement's own children must also learn its new link.
            let grandchildren: Vec<PeerId> = self
                .node(replacement)?
                .children
                .iter()
                .map(|c| c.peer)
                .collect();
            for gc in grandchildren {
                if let Some(c) = self.nodes.get_mut(gc) {
                    if let Some(p) = &mut c.parent {
                        if p.peer == replacement {
                            *p = replacement_link;
                        }
                    }
                }
                self.net
                    .count_message(op, "mtree.maintenance", replacement, gc);
                update_messages += 1;
            }
            // Repoint the departed node's parent and neighbours.
            if let Some(parent) = departing.parent {
                if let Some(p) = self.nodes.get_mut(parent.peer) {
                    p.children.retain(|c| c.peer != peer);
                    p.children.push(replacement_link);
                }
                self.net
                    .count_message(op, "mtree.maintenance", replacement, parent.peer);
                update_messages += 1;
            } else {
                self.root = Some(replacement);
            }
            update_messages += self.splice_neighbors(op, &departing)?;
        }

        self.net.finish_op(op);
        Ok(ChurnCost {
            locate_messages,
            update_messages,
            lost_items: 0,
        })
    }

    /// Sets the replication degree: each key's k−1 extra copies live on the
    /// owner's in-order neighbours.
    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        if k == 0 || k > Self::MAX_REPLICATION {
            return Err(OverlayError::Op(format!(
                "replication degree {k} outside 1..={}",
                Self::MAX_REPLICATION
            )));
        }
        self.replication = k;
        Ok(())
    }

    /// Inserts a value under `key`.
    fn insert(&mut self, key: u64, _value: u64) -> OverlayResult<OpCost> {
        // The baseline tracks key multisets; values are not materialised.
        if !self.domain.contains(key) {
            return Err(OverlayError::Op(format!("key {key} outside the domain")));
        }
        let issuer = self.random_peer().ok_or_else(empty)?;
        let op = self.net.begin_op("mtree.insert");
        let (owner, mut messages) = self.route_to_owner(op, issuer, key)?;
        self.node_mut(owner)?.insert_key(key);
        messages += self.charge_replica_copies(op, owner);
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches: 0,
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    /// Deletes one stored occurrence of `key`, if any.
    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        if !self.domain.contains(key) {
            return Err(OverlayError::Op(format!("key {key} outside the domain")));
        }
        let issuer = self.random_peer().ok_or_else(empty)?;
        let op = self.net.begin_op("mtree.delete");
        let (owner, mut messages) = self.route_to_owner(op, issuer, key)?;
        let removed = usize::from(self.node_mut(owner)?.remove_key(key));
        if removed > 0 {
            messages += self.charge_replica_copies(op, owner);
        }
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches: removed,
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    /// Exact-match query for `key`.
    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        if !self.domain.contains(key) {
            return Err(OverlayError::Op(format!("key {key} outside the domain")));
        }
        let issuer = self.random_peer().ok_or_else(empty)?;
        let op = self.net.begin_op("mtree.search");
        let (owner, messages) = self.route_to_owner(op, issuer, key)?;
        let matches = self.node(owner)?.count_key(key);
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches,
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    /// Range query: find the first intersecting node, then walk right
    /// neighbours one by one.
    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost> {
        let issuer = self.random_peer().ok_or_else(empty)?;
        // Clamped to the domain; an empty clamp (an inverted range included)
        // matches nothing and costs nothing.
        let (low, high) = (low.max(self.domain.low), high.min(self.domain.high));
        if low >= high {
            return Ok(OpCost::default());
        }
        let op = self.net.begin_op("mtree.range");
        let (mut current, mut messages) = self.route_to_owner(op, issuer, low)?;
        let range = MRange::new(low, high);
        let mut nodes_visited = 0usize;
        let mut matches = 0usize;
        let limit = self.node_count() + 2;
        loop {
            let node = self.node(current)?;
            nodes_visited += 1;
            if node.range.intersects(range) {
                matches += node.count_in(range.low, range.high);
            }
            if node.range.high >= range.high {
                break;
            }
            let Some(next) = node.right_neighbor.map(|l| l.peer) else {
                break;
            };
            self.net
                .transmit(
                    op,
                    current,
                    next,
                    nodes_visited as u32,
                    LinkKind::Neighbor,
                    "mtree.search",
                )
                .ok();
            messages += 1;
            current = next;
            if nodes_visited > limit {
                break;
            }
        }
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches,
            nodes_visited,
            balance_messages: 0,
        })
    }

    /// Basic structural validation: children are reachable, parents point
    /// back, coverage nests, and every key of the domain is owned by exactly
    /// one node's direct range.
    fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Ok(());
        }
        for (peer, node) in self.nodes.iter() {
            for child in &node.children {
                let c = self
                    .nodes
                    .get(child.peer)
                    .ok_or_else(|| format!("{peer} lists missing child {}", child.peer))?;
                if c.parent.map(|l| l.peer) != Some(peer) {
                    return Err(format!(
                        "child {} does not point back at {peer}",
                        child.peer
                    ));
                }
            }
            if let Some(parent) = &node.parent {
                let p = self
                    .nodes
                    .get(parent.peer)
                    .ok_or_else(|| format!("{peer} has missing parent {}", parent.peer))?;
                if !p.children.iter().any(|c| c.peer == peer) {
                    return Err(format!("parent {} does not list {peer}", parent.peer));
                }
            }
        }
        // Direct ranges partition the domain.
        let mut ranges: Vec<MRange> = self.nodes.values().map(|n| n.range).collect();
        ranges.sort_by_key(|r| r.low);
        if ranges.first().unwrap().low != self.domain.low
            || ranges.last().unwrap().high != self.domain.high
        {
            return Err("direct ranges do not span the domain".into());
        }
        for pair in ranges.windows(2) {
            if pair[0].high != pair[1].low {
                return Err(format!("gap between {} and {}", pair[0], pair[1]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_a_consistent_tree() {
        for n in [1usize, 2, 10, 64, 200] {
            let system = MTreeSystem::build(5, n).unwrap();
            assert_eq!(system.node_count(), n);
            system
                .validate()
                .unwrap_or_else(|e| panic!("{n}-node tree invalid: {e}"));
        }
    }

    #[test]
    fn join_is_cheap_but_tree_may_be_unbalanced() {
        let mut system = MTreeSystem::build(7, 200).unwrap();
        let report = system.join_random().unwrap();
        assert!(report.locate_messages >= 1);
        // No balance guarantee: the height may exceed the balanced bound.
        assert!(system.height() >= (system.node_count() as f64).log2() as u32);
    }

    #[test]
    fn search_reaches_the_owner() {
        let mut system = MTreeSystem::build(9, 100).unwrap();
        system.insert(123_456, 0).unwrap();
        let report = system.search_exact(123_456).unwrap();
        assert_eq!(report.matches, 1);
        assert!(report.messages > 0);
    }

    #[test]
    fn leave_cost_grows_with_children() {
        let mut system = MTreeSystem::build(11, 150).unwrap();
        // Find the node with the most children and make it leave.
        let busiest = system
            .peers()
            .iter()
            .copied()
            .max_by_key(|p| system.node(*p).unwrap().children.len())
            .unwrap();
        let child_count = system.node(busiest).unwrap().children.len() as u64;
        let report = system.leave_peer(busiest).unwrap();
        assert!(report.locate_messages >= 2 * child_count);
        system.validate().unwrap();
    }

    #[test]
    fn churn_keeps_structure_valid() {
        let mut system = MTreeSystem::build(13, 60).unwrap();
        for round in 0..60 {
            if round % 3 == 0 && system.node_count() > 2 {
                system.leave_random().unwrap();
            } else {
                system.join_random().unwrap();
            }
            system
                .validate()
                .unwrap_or_else(|e| panic!("invalid after round {round}: {e}"));
        }
    }

    #[test]
    fn range_query_visits_consecutive_nodes() {
        let mut system = MTreeSystem::build(15, 50).unwrap();
        let report = system.search_range(1, 1_000_000_000).unwrap();
        assert!(report.nodes_visited >= system.node_count() / 2);
    }

    #[test]
    fn errors_for_bad_inputs() {
        let op = |message: &str| OverlayError::Op(message.into());
        let mut system = MTreeSystem::build(17, 3).unwrap();
        let error = system.search_exact(0).unwrap_err();
        assert_eq!(error, op("key 0 outside the domain"));
        let mut empty = MTreeSystem::new(1);
        let error = empty.search_range(1, 2).unwrap_err();
        assert_eq!(error, op("the overlay is empty"));
        let only = MTreeSystem::build(19, 1).unwrap().peers()[0];
        let mut single = MTreeSystem::build(19, 1).unwrap();
        let error = single.leave_peer(only).unwrap_err();
        assert_eq!(error, op("the last node cannot leave"));
    }
}
