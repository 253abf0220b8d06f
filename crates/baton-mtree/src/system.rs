//! The multiway-tree overlay simulation (the paper's baseline "\[10\]",
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

use crate::node::MNode;
use crate::range::MRange;

/// The error of an operation naming a peer that is not in the tree.
fn unknown_peer(peer: PeerId) -> OverlayError {
    OverlayError::Op(format!("unknown peer {peer}"))
}

/// The error of an operation that needs a peer of an empty tree.
fn empty() -> OverlayError {
    OverlayError::Op("the overlay is empty".into())
}

/// Bytes a real peer keeps besides the contents of its key and child-link
/// lists: its own address, range and coverage, its parent and neighbour
/// links with each target's range and coverage (which a simulated node reads
/// from the target instead of storing), and the two lists' headers.
pub const PEER_STATE_BYTES: u64 = 232;

/// Bytes of one child link as a real peer keeps it: the child's address,
/// range and coverage — the coverage is what the descent reads.
pub const CHILD_LINK_BYTES: u64 = 40;

/// The multiway-tree overlay.
#[derive(Debug)]
pub struct MTreeSystem {
    net: SimNetwork,
    /// Node state of every live peer and the sorted list sampling draws
    /// from.
    nodes: PeerDirectory<MNode>,
    /// The node without a parent, where [`height`](Self::height) starts.
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

    /// Height of the tree (the number of levels); 0 when empty.  O(N): a
    /// level-by-level walk down the child links from the root, for tests
    /// and inspection — no operation reads it.
    pub fn height(&self) -> u32 {
        let mut height = 0;
        let mut level: Vec<PeerId> = self.root.into_iter().collect();
        while !level.is_empty() {
            height += 1;
            level = (level.iter())
                .filter_map(|&peer| self.nodes.get(peer))
                .flat_map(|node| node.children.iter().copied())
                .collect();
        }
        height
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

    /// The child of `node` whose coverage contains `key`, if any.
    fn child_covering(&self, node: &MNode, key: u64) -> Option<PeerId> {
        (node.children.iter().copied()).find(|&child| {
            self.nodes
                .get(child)
                .is_some_and(|c| c.coverage.contains(key))
        })
    }

    /// Widens the coverage of `heir` and of each of its ancestors to
    /// include `range`, which `heir`'s direct range has just absorbed, up to
    /// the first ancestor that already covers it.
    fn widen_coverage(&mut self, heir: PeerId, range: MRange) {
        let mut current = Some(heir);
        while let Some(node) = current.and_then(|peer| self.nodes.get_mut(peer)) {
            let coverage = node.coverage;
            if coverage.low <= range.low && range.high <= coverage.high {
                break;
            }
            node.coverage = MRange::new(coverage.low.min(range.low), coverage.high.max(range.high));
            current = node.parent;
        }
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
        // Up, then down a simple path of the tree: fewer hops than nodes.
        let limit = self.node_count() as u64;
        loop {
            let node = self.node(current)?;
            if node.range.contains(key) {
                return Ok((current, messages));
            }
            let (next, kind) = if node.coverage.contains(key) {
                match self.child_covering(node, key) {
                    Some(child) => (child, LinkKind::Child),
                    None => return Ok((current, messages)),
                }
            } else {
                match node.parent {
                    Some(parent) => (parent, LinkKind::Parent),
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

    /// Links the departed `peer`'s in-order neighbours to each other, one
    /// message to each.
    fn splice_neighbors(&mut self, op: OpScope, peer: PeerId, departing: &MNode) -> u64 {
        let (left, right) = (departing.left_neighbor, departing.right_neighbor);
        if let Some(l) = left.and_then(|l| self.nodes.get_mut(l)) {
            l.right_neighbor = right;
        }
        if let Some(r) = right.and_then(|r| self.nodes.get_mut(r)) {
            r.left_neighbor = left;
        }
        for neighbor in [left, right].into_iter().flatten() {
            self.net
                .count_message(op, "mtree.maintenance", peer, neighbor);
        }
        u64::from(left.is_some()) + u64::from(right.is_some())
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
        let mut targets: Vec<PeerId> = (node.right_neighbor.into_iter())
            .chain(node.left_neighbor)
            .collect();
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
        builder.reserve(self.node_count(), self.total_items(), 0);
        let mut order: Vec<(PeerId, &MNode)> = self.nodes.iter().collect();
        order.sort_by_key(|(_, node)| node.range.low);
        for (peer, node) in &order {
            builder.push_slot(peer.0, node.range.high, true);
            builder.push_keys(&node.keys);
            builder.seal_slot();
        }
        for (slot, (peer, node)) in order.iter().enumerate() {
            if let Some(parent) = node.parent {
                builder.link_peer(slot, parent.0, LinkKind::Parent);
            }
            for child in &node.children {
                builder.link_peer(slot, child.0, LinkKind::Child);
            }
            for neighbor in [node.left_neighbor, node.right_neighbor]
                .into_iter()
                .flatten()
            {
                builder.link_peer(slot, neighbor.0, LinkKind::Neighbor);
            }
            for target in self.replica_targets(*peer) {
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

    /// Approximate resident bytes of per-peer protocol state, as a real
    /// peer holds it: [`PEER_STATE_BYTES`] per slab slot, [`CHILD_LINK_BYTES`]
    /// per child-link slot, the key vectors, and the sampling list.  The
    /// shared network substrate is excluded.  The slab is counted by
    /// [`PeerDirectory::slot_count`] — every slot ever opened, the holes
    /// departures leave included — not by its allocated capacity: amortised
    /// doubling overshoots the slots in use by up to 2×, which would make
    /// the figure jump with the growth schedule rather than with the state
    /// the protocol keeps.
    fn estimated_state_bytes(&self) -> u64 {
        let slab = self.nodes.slot_count() as u64 * PEER_STATE_BYTES;
        let heap: u64 = self
            .nodes
            .values()
            .map(|node| {
                node.children.capacity() as u64 * CHILD_LINK_BYTES
                    + (node.keys.capacity() * std::mem::size_of::<u64>()) as u64
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
            self.root = Some(peer);
            self.nodes.insert(peer, MNode::new(self.domain));
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
        let acceptor_node = self.node_mut(acceptor)?;
        let (keep, give) = acceptor_node.range.split_half();
        let mut child = MNode::new(give);
        // A range too narrow to split hands over an empty one.
        if give.width() > 0 {
            acceptor_node.range = keep;
            child.keys = acceptor_node.split_keys_at(give.low);
        }
        // In-order neighbours: the child slots immediately after the
        // acceptor's (shrunken) direct range.
        let old_right = acceptor_node.right_neighbor;
        acceptor_node.children.push(peer);
        acceptor_node.right_neighbor = Some(peer);
        child.parent = Some(acceptor);
        child.left_neighbor = Some(acceptor);
        child.right_neighbor = old_right;
        let previous = self.nodes.insert(peer, child);
        debug_assert!(previous.is_none(), "{peer} joined twice");
        if let Some(old_right) = old_right {
            self.node_mut(old_right)?.left_neighbor = Some(peer);
            self.net
                .count_message(op, "mtree.maintenance", peer, old_right);
            update_messages += 1;
        }
        // Accept message + notify the existing siblings about the newcomer.
        self.net
            .count_message(op, "mtree.maintenance", acceptor, peer);
        update_messages += 1;
        let acceptor_node = self.node(acceptor)?;
        let siblings: Vec<PeerId> = (acceptor_node.children.iter().copied())
            .filter(|p| *p != peer)
            .collect();
        // The acceptor's direct range changed: tell its parent and neighbours.
        let to_refresh: Vec<PeerId> = (acceptor_node.parent.into_iter())
            .chain(acceptor_node.left_neighbor)
            .collect();
        for other in siblings.into_iter().chain(to_refresh) {
            self.net
                .count_message(op, "mtree.maintenance", acceptor, other);
            update_messages += 1;
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
        let mut departing = self.nodes.remove(peer).ok_or_else(|| unknown_peer(peer))?;
        let departing_keys = std::mem::take(&mut departing.keys);
        let op = self.net.begin_op("mtree.leave");

        // Gather information from every child (one query + one response per
        // child) to select the replacement.
        let mut locate_messages = 0u64;
        for &child in &departing.children {
            self.net.count_message(op, "mtree.leave", peer, child);
            self.net.count_message(op, "mtree.leave", child, peer);
            locate_messages += 2;
        }

        let mut update_messages = 0u64;
        self.net.depart_peer(peer);

        if departing.is_leaf() {
            // Leaf: its direct range and items return to its in-order
            // predecessor (or successor), which keeps the range partition
            // contiguous.
            let heir = (departing.left_neighbor)
                .or(departing.right_neighbor)
                .expect("multi-node tree has a neighbour");
            let h = self.node_mut(heir)?;
            h.merge_keys(departing_keys);
            if h.range.high == departing.range.low {
                h.range = MRange::new(h.range.low, departing.range.high);
            } else if h.range.low == departing.range.high {
                h.range = MRange::new(departing.range.low, h.range.high);
            }
            self.widen_coverage(heir, departing.range);
            self.net.count_message(op, "mtree.leave", peer, heir);
            update_messages += 1;
            // Unlink from the parent's child list and from the neighbours.
            if let Some(parent) = departing.parent {
                self.node_mut(parent)?.children.retain(|c| *c != peer);
                self.net
                    .count_message(op, "mtree.maintenance", peer, parent);
                update_messages += 1;
            }
        } else {
            // Internal node: promote the child that is the departing node's
            // in-order successor — the one whose coverage, and so its direct
            // range, starts where the departing node's direct range ends — so
            // absorbing that range and the departing coverage keeps both the
            // partition and every coverage contiguous.
            let replacement = (departing.children.iter().copied())
                .find(|&c| {
                    self.node(c)
                        .is_ok_and(|c| c.coverage.low == departing.range.high)
                })
                .expect("a node's coverage is its range followed by its children's");
            let r = self.node_mut(replacement)?;
            r.coverage = departing.coverage;
            r.range = MRange::new(departing.range.low, r.range.high);
            r.parent = departing.parent;
            r.merge_keys(departing_keys);
            self.net.count_message(op, "mtree.leave", peer, replacement);
            update_messages += 1;
            // The departing node's other children become the replacement's
            // children; each must be told about its new parent.
            let others: Vec<PeerId> = (departing.children.iter().copied())
                .filter(|c| *c != replacement)
                .collect();
            for &child in &others {
                self.node_mut(child)?.parent = Some(replacement);
                self.net
                    .count_message(op, "mtree.maintenance", replacement, child);
                update_messages += 1;
            }
            self.node_mut(replacement)?.children.extend(others);
            // The replacement's children all learn its new range and coverage.
            for gc in self.node(replacement)?.children.clone() {
                self.net
                    .count_message(op, "mtree.maintenance", replacement, gc);
                update_messages += 1;
            }
            // Repoint the departed node's parent.
            if let Some(parent) = departing.parent {
                let p = self.node_mut(parent)?;
                p.children.retain(|c| *c != peer);
                p.children.push(replacement);
                self.net
                    .count_message(op, "mtree.maintenance", replacement, parent);
                update_messages += 1;
            } else {
                self.root = Some(replacement);
            }
        }
        update_messages += self.splice_neighbors(op, peer, &departing);

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
            let Some(next) = node.right_neighbor else {
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

    /// Structural validation: the root has no parent and covers the
    /// domain, children and parents point at each other, a node's coverage
    /// is its direct range followed by its children's coverages (contiguous,
    /// in key order), every stored key lies in its node's direct range, and
    /// the direct ranges partition the domain.
    fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Ok(());
        }
        let root = self.root.and_then(|root| self.nodes.get(root));
        if !root.is_some_and(|r| r.parent.is_none() && r.coverage == self.domain) {
            return Err(format!("root {:?} does not cover the domain", self.root));
        }
        for (peer, node) in self.nodes.iter() {
            let mut covered = vec![node.range];
            for &child in &node.children {
                let c = (self.nodes.get(child))
                    .ok_or_else(|| format!("{peer} lists missing child {child}"))?;
                if c.parent != Some(peer) {
                    return Err(format!("child {child} does not point back at {peer}"));
                }
                covered.push(c.coverage);
            }
            if let Some(parent) = node.parent {
                let p = (self.nodes.get(parent))
                    .ok_or_else(|| format!("{peer} has missing parent {parent}"))?;
                if !p.children.contains(&peer) {
                    return Err(format!("parent {parent} does not list {peer}"));
                }
            }
            covered[1..].sort_by_key(|c| (c.low, c.high));
            let end = (covered.iter()).try_fold(node.coverage.low, |high, c| {
                (c.low == high).then_some(c.high)
            });
            if end != Some(node.coverage.high) {
                return Err(format!(
                    "{peer} covers {} but its range and children cover {covered:?}",
                    node.coverage
                ));
            }
            if let Some(key) = node.keys.iter().find(|&&key| !node.range.contains(key)) {
                return Err(format!(
                    "{peer} stores {key} outside its range {}",
                    node.range
                ));
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
    fn child_covering_finds_the_right_child() {
        let system = MTreeSystem::build(5, 64).unwrap();
        let root = system.node(system.root.unwrap()).unwrap();
        assert!(root.children.len() > 1);
        for &child in &root.children {
            let coverage = system.node(child).unwrap().coverage;
            for key in [coverage.low, coverage.high - 1] {
                assert_eq!(system.child_covering(root, key), Some(child));
            }
        }
        assert_eq!(system.child_covering(root, root.range.low), None);
    }

    /// Leaves used to widen an heir's range without its ancestors'
    /// coverage, so the descent stopped above the owner and inserts landed
    /// at a node whose range does not hold the key.
    #[test]
    fn inserts_after_leaves_land_at_the_key_s_owner() {
        let mut system = MTreeSystem::build(0, 40).unwrap();
        for _ in 0..10 {
            system.leave_random().unwrap();
        }
        for i in 0..200u64 {
            system.insert(1 + i * 4_999_999 % 999_999_998, i).unwrap();
        }
        let misplaced: usize = (system.nodes())
            .map(|(_, node)| {
                node.keys
                    .iter()
                    .filter(|&&k| !node.range.contains(k))
                    .count()
            })
            .sum();
        let key = 844_999_832;
        let found = system.search_range(key, key + 1).unwrap().matches;
        assert_eq!((misplaced, found), (0, 1));
        system.validate().unwrap();
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
