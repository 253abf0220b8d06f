//! The Chord overlay simulation used as the paper's comparison baseline.
//!
//! This is a from-scratch Chord (Stoica et al., SIGCOMM 2001) sized for the
//! message-count comparisons in Figure 8 of the BATON paper:
//!
//! * lookups route iteratively through finger tables in `O(log N)` messages;
//! * a join finds its successor with one lookup and then builds its finger
//!   table with further lookups — `O(log² N)` maintenance messages, the cost
//!   the BATON paper contrasts with its own `O(log N)` table updates;
//! * a departure hands its keys to its successor and the nodes whose fingers
//!   pointed at it repair them with fresh lookups;
//! * exact-match queries hash the key and look up its successor; range
//!   queries are *not* supported (hashing destroys key order), which is the
//!   motivation for BATON.

use std::collections::btree_map::Entry;
use std::collections::HashSet;

use baton_net::{
    ChurnCost, LinkKind, OpCost, OpScope, Overlay, OverlayCapabilities, OverlayError,
    OverlayResult, PeerDirectory, PeerId, SimNetwork, SimRng,
};

use crate::id::{ChordId, M};
use crate::node::{ChordNode, Finger};

/// The position in `ring` (members in ascending identifier order) of
/// successor(`id`): the first member at or after `id`, wrapping past the
/// top of the circle.
fn successor_position(ring: &[(PeerId, ChordId)], id: ChordId) -> usize {
    ring.partition_point(|&(_, x)| x < id) % ring.len()
}

/// The member of `ring` with identifier `id`, with exact links: its ring
/// neighbours, and finger `k` on successor(`id + 2^k`).
fn exact_node(ring: &[(PeerId, ChordId)], id: ChordId) -> ChordNode {
    let (n, at) = (ring.len(), successor_position(ring, id));
    let mut exact = ChordNode::solo(ring[at].0, id);
    exact.successor = ring[(at + 1) % n];
    exact.predecessor = ring[(at + n - 1) % n];
    for (k, finger) in (0..M).zip(&mut exact.fingers) {
        let (node, node_id) = ring[successor_position(ring, id.finger_start(k))];
        *finger = Finger { node, node_id };
    }
    exact
}

/// The error of an operation naming a peer that is not in the ring.
fn unknown_peer(peer: PeerId) -> OverlayError {
    OverlayError::Op(format!("unknown peer {peer}"))
}

/// The error of an operation that needs a peer of an empty ring.
fn empty_ring() -> OverlayError {
    OverlayError::Op("the ring is empty".into())
}

/// A Chord ring over the shared simulator substrate.
#[derive(Debug)]
pub struct ChordSystem {
    net: SimNetwork,
    /// Node state of every live peer and the sorted list sampling draws
    /// from.
    nodes: PeerDirectory<ChordNode>,
    /// Ring identifiers of the *live* nodes: the collision set of
    /// [`fresh_id`](Self::fresh_id).  Kept in lockstep with `nodes` (ids of
    /// departed peers are released) so the seeded draw sequence is
    /// bit-identical to the old scan over live nodes.  Stored in the id's
    /// compact `u32` width — the full `2^32` circle fits — which halves
    /// the set's key footprint at million-node scale.
    used_ids: HashSet<u32>,
    rng: SimRng,
    /// Replication degree k: each key lives at its successor owner plus the
    /// k−1 following ring successors.  1 = no replication (the default and
    /// the byte-identical legacy configuration).
    replication: usize,
}

impl ChordSystem {
    /// Creates an empty ring.
    pub fn new(seed: u64) -> Self {
        Self {
            net: SimNetwork::new(),
            nodes: PeerDirectory::new(),
            used_ids: HashSet::new(),
            rng: SimRng::seeded(seed),
            replication: 1,
        }
    }

    /// Builds a ring of `n` nodes.
    pub fn build(seed: u64, n: usize) -> OverlayResult<Self> {
        let mut system = Self::new(seed);
        for _ in 0..n {
            system.join_random()?;
        }
        Ok(system)
    }

    /// Builds a ring of `n` nodes directly, without running the join
    /// protocol: identifiers are drawn up front, the ring order is one
    /// sort, and every finger is resolved by binary search over the sorted
    /// identifiers.  `O(N (log N + M))` arithmetic instead of the join
    /// path's `O(N log² N)` simulated lookups; no messages are charged.
    ///
    /// The result passes [`validate`](Self::validate), whose finger check
    /// holds a join-built ring to the same tables, but is not
    /// byte-identical to one (identifier draw order differs), so the bulk
    /// path is opt-in — committed fixtures always use [`build`](Self::build).
    pub fn bulk_build(seed: u64, n: usize) -> OverlayResult<Self> {
        let mut system = Self::new(seed);
        let members: Vec<(PeerId, ChordId)> = (0..n)
            .map(|_| {
                let (peer, id) = (system.net.add_peer(), system.fresh_id());
                // Reserve immediately so later draws cannot collide.
                system.used_ids.insert(id.compact());
                (peer, id)
            })
            .collect();
        let mut ring = members.clone();
        ring.sort_unstable_by_key(|&(_, id)| id);
        system.nodes = members
            .into_iter()
            .map(|(peer, id)| (peer, exact_node(&ring, id)))
            .collect();
        Ok(system)
    }

    /// Iterates over the ring's nodes in peer-id order.
    pub fn nodes(&self) -> impl Iterator<Item = &ChordNode> + '_ {
        self.nodes.values()
    }

    /// The live members in ascending identifier order.
    fn ring(&self) -> Vec<(PeerId, ChordId)> {
        let mut ring: Vec<_> = self.nodes.values().map(|n| (n.peer, n.id)).collect();
        ring.sort_unstable_by_key(|&(_, id)| id);
        ring
    }

    fn random_peer(&mut self) -> Option<PeerId> {
        self.nodes.sample(&mut self.rng)
    }

    /// Adds `peer` to the directory, reserving its ring identifier.
    /// `used_ids` is only updated here, in
    /// [`unregister_node`](Self::unregister_node) and by
    /// [`bulk_build`](Self::bulk_build)'s up-front draw, so it stays in
    /// lockstep with the live nodes even when a join fails after drawing
    /// an id.
    fn register_node(&mut self, peer: PeerId, node: ChordNode) {
        self.used_ids.insert(node.id.compact());
        self.nodes.insert(peer, node);
    }

    /// Removes `peer` from the directory, releasing its ring identifier.
    fn unregister_node(&mut self, peer: PeerId) -> Option<ChordNode> {
        let node = self.nodes.remove(peer)?;
        self.used_ids.remove(&node.id.compact());
        Some(node)
    }

    /// Draws an unused ring identifier.
    ///
    /// Expected O(1): a draw collides with probability `n / 2^32`, so even
    /// a million-node ring rejects ~0.02% of draws.  The saturation guard
    /// turns the (astronomically remote) full-circle case into a clean
    /// panic instead of an unbounded spin, and the draw itself —
    /// `uniform_u64(0, RING)` — is unchanged from the wide-id substrate so
    /// every seeded experiment keeps its exact id sequence.
    fn fresh_id(&mut self) -> ChordId {
        assert!(
            (self.used_ids.len() as u64) < crate::id::RING,
            "chord identifier circle exhausted"
        );
        loop {
            let raw = self.rng.uniform_u64(0, crate::id::RING);
            if !self.used_ids.contains(&(raw as u32)) {
                return ChordId::new(raw);
            }
        }
    }

    fn node(&self, peer: PeerId) -> OverlayResult<&ChordNode> {
        self.nodes.get(peer).ok_or_else(|| unknown_peer(peer))
    }

    fn node_mut(&mut self, peer: PeerId) -> OverlayResult<&mut ChordNode> {
        self.nodes.get_mut(peer).ok_or_else(|| unknown_peer(peer))
    }

    /// Iterative lookup of the successor of `target`, starting at `issuer`.
    /// Returns `(owner, messages)` — one message per overlay hop.
    fn lookup(
        &mut self,
        op: OpScope,
        issuer: PeerId,
        target: ChordId,
    ) -> OverlayResult<(PeerId, u64)> {
        let mut current = issuer;
        let mut hops = 0u32;
        let limit = 4 * M + 32;
        loop {
            let node = self.node(current)?;
            if node.owns(target) {
                return Ok((current, u64::from(hops)));
            }
            if target.in_half_open_interval(node.id, node.successor.1) {
                let successor = node.successor.0;
                self.net
                    .transmit(
                        op,
                        current,
                        successor,
                        hops + 1,
                        LinkKind::Successor,
                        "chord.lookup",
                    )
                    .ok();
                return Ok((successor, u64::from(hops + 1)));
            }
            let (next, kind) = match node.closest_preceding(target) {
                Some((p, _)) => (p, LinkKind::Finger),
                None => (node.successor.0, LinkKind::Successor),
            };
            self.net
                .transmit(op, current, next, hops + 1, kind, "chord.lookup")
                .ok();
            hops += 1;
            current = next;
            if hops > limit {
                // Routing state corrupted; fall back to the successor chain.
                return Ok((current, u64::from(hops)));
            }
        }
    }

    /// A new node joins the ring through `contact` (`None` bootstraps the
    /// first node).
    pub fn join(&mut self, contact: Option<PeerId>) -> OverlayResult<ChurnCost> {
        let peer = self.net.add_peer();
        let id = self.fresh_id();
        let op = self.net.begin_op("chord.join");

        let Some(contact) = contact else {
            self.register_node(peer, ChordNode::solo(peer, id));
            self.net.finish_op(op);
            return Ok(ChurnCost::default());
        };

        // Locate the successor of the new identifier.
        let (successor_peer, locate_messages) = self.lookup(op, contact, id)?;
        let (successor_id, predecessor_peer, predecessor_id) = {
            let s = self.node(successor_peer)?;
            (s.id, s.predecessor.0, s.predecessor.1)
        };

        // Splice into the ring.
        let mut update_messages = 0u64;
        let mut new_node = ChordNode::solo(peer, id);
        new_node.successor = (successor_peer, successor_id);
        new_node.predecessor = (predecessor_peer, predecessor_id);
        // Transfer the keys in (predecessor, id] from the successor.
        let moved: Vec<(u64, Vec<u64>)> = {
            let successor = self.node_mut(successor_peer)?;
            let keys: Vec<u64> = successor
                .store
                .keys()
                .copied()
                .filter(|k| ChordId::new(*k).in_half_open_interval(predecessor_id, id))
                .collect();
            keys.into_iter()
                .map(|k| (k, successor.store.remove(&k).unwrap_or_default()))
                .collect()
        };
        for (k, vs) in moved {
            new_node.store.insert(k, vs);
        }
        self.register_node(peer, new_node);
        // Notify successor and predecessor (plus the key transfer message).
        self.net
            .count_message(op, "chord.maintenance", peer, successor_peer);
        self.net
            .count_message(op, "chord.maintenance", peer, predecessor_peer);
        self.net
            .count_message(op, "chord.maintenance", successor_peer, peer);
        update_messages += 3;
        self.node_mut(successor_peer)?.predecessor = (peer, id);
        self.node_mut(predecessor_peer)?.successor = (peer, id);

        // Build the finger table: one lookup per distinct finger interval
        // (reusing the previous finger when it already covers the next
        // interval, the standard optimisation) — O(log² N) messages.  The
        // entries not yet built still point at the new node itself, which
        // `closest_preceding` never picks.
        for k in 0..M as usize {
            let start = id.finger_start(k as u32);
            let previous = self.node(peer)?.fingers[k.saturating_sub(1)];
            let finger = if k > 0 && start.in_half_open_interval(id, previous.node_id) {
                previous
            } else {
                let (owner, msgs) = self.lookup(op, peer, start)?;
                update_messages += msgs;
                Finger {
                    node: owner,
                    node_id: self.node(owner)?.id,
                }
            };
            self.node_mut(peer)?.fingers[k] = finger;
        }

        // `update_others`: existing nodes whose `i`-th finger interval now
        // starts at or before the new identifier must repoint that finger at
        // the new node.  For each finger index this is one lookup (to find
        // the last node at or before `id − 2^i`) plus a walk back through
        // predecessors — the O(log² N) maintenance term of the Chord join
        // that the BATON paper contrasts with its own O(log N) updates.
        for i in 0..M {
            let target = ChordId::new(id.value() + crate::id::RING - (1u64 << i));
            let (succ, msgs) = self.lookup(op, peer, target)?;
            update_messages += msgs;
            // The lookup answers the first node at or after `target`; one
            // sitting exactly on it is the walk's first node.
            let succ = self.node(succ)?;
            let mut current = if succ.id == target {
                succ.peer
            } else {
                succ.predecessor.0
            };
            while current != peer {
                let node = self.node(current)?;
                let (start, predecessor) = (node.id.finger_start(i), node.predecessor.0);
                // The new node becomes this node's i-th finger if it lies in
                // [start, current finger): a finger on its start stays.
                if start.distance_to(id) >= start.distance_to(node.fingers[i as usize].node_id) {
                    break;
                }
                self.net
                    .count_message(op, "chord.maintenance", peer, current);
                update_messages += 1;
                self.node_mut(current)?.fingers[i as usize] = Finger {
                    node: peer,
                    node_id: id,
                };
                current = predecessor;
            }
        }

        self.net.finish_op(op);
        Ok(ChurnCost {
            locate_messages,
            update_messages,
            lost_items: 0,
        })
    }

    /// Highest replication degree the successor-list placement supports.
    pub const MAX_REPLICATION: usize = 8;

    /// The k−1 ring successors holding the replica copies of `peer`'s keys.
    /// Empty at k = 1.
    pub fn replica_targets(&self, peer: PeerId) -> Vec<PeerId> {
        if self.replication <= 1 {
            return Vec::new();
        }
        let mut targets = Vec::new();
        let mut current = peer;
        for _ in 0..self.replication - 1 {
            let Some(node) = self.nodes.get(current) else {
                break;
            };
            let successor = node.successor.0;
            if successor == peer || targets.contains(&successor) {
                break;
            }
            targets.push(successor);
            current = successor;
        }
        targets
    }

    /// Charges the replica-copy messages a write at `owner` costs at k > 1.
    fn charge_replica_copies(&mut self, op: OpScope, owner: PeerId) -> u64 {
        let mut copies = 0u64;
        for target in self.replica_targets(owner) {
            self.net.count_message(op, "chord.replica", owner, target);
            copies += 1;
        }
        copies
    }

    /// Builds a [`baton_net::serve::RoutingSnapshot`] of the ring's current
    /// state for the concurrent serve front-end: slots are the live nodes
    /// in ascending identifier order (successor placement resolves a hashed
    /// key to the first slot with `id >= hash`, wrapping), items are each
    /// node's store keyed by identifier, links carry the successor and
    /// finger tables, and replicas are the `k−1` following ring successors.
    /// Extraction is read-only: statistics and RNG streams are untouched.
    pub fn build_routing_snapshot(&self) -> baton_net::serve::RoutingSnapshot {
        use baton_net::serve::{ExactPlacement, SnapshotBuilder};

        let mut builder = SnapshotBuilder::new(ExactPlacement::HashedRing, (0, crate::id::RING));
        builder.reserve(self.node_count(), self.total_items(), 0);
        let mut order: Vec<&ChordNode> = self.nodes.values().collect();
        order.sort_by_key(|node| node.id);
        for node in &order {
            builder.push_slot(node.peer.0, node.id.value(), true);
            for (id_value, values) in &node.store {
                builder.push_item(*id_value, values.len() as u64);
            }
            builder.seal_slot();
        }
        for (slot, node) in order.iter().enumerate() {
            builder.link_peer(slot, node.successor.0 .0, LinkKind::Successor);
            for finger in &node.fingers {
                builder.link_peer(slot, finger.node.0, LinkKind::Finger);
            }
            for target in self.replica_targets(node.peer) {
                builder.replica_peer(slot, target.0);
            }
        }
        builder.finish()
    }
}

impl Overlay for ChordSystem {
    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities {
            range_queries: false,
        }
    }

    /// Number of nodes in the ring.
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of stored values.
    fn total_items(&self) -> usize {
        self.nodes.values().map(ChordNode::load).sum()
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// Approximate resident bytes of per-peer protocol state: the node
    /// slab, every node's finger table and key store, the sampling list
    /// and the live-id set.  The shared network substrate is excluded.
    ///
    /// The slab is counted by [`PeerDirectory::slot_count`] — every slot
    /// ever opened, the holes departures leave included — not by its
    /// allocated capacity: amortised doubling overshoots the slots in use
    /// by up to 2×, which would make the figure jump with the growth
    /// schedule rather than with the state the protocol keeps.  The
    /// live-id hash set is modelled from `len()` (slots at the ~8/7
    /// load-factor reciprocal), not `capacity()`: after delete/insert churn
    /// the table's allocated capacity depends on the per-process
    /// `RandomState` seed (rehash in place vs. grow is decided by where
    /// hashes land), and this estimate is sampled into deterministic
    /// scenario time series.
    fn estimated_state_bytes(&self) -> u64 {
        let slab = (self.nodes.slot_count() * std::mem::size_of::<Option<ChordNode>>()) as u64;
        let heap: u64 = self
            .nodes
            .values()
            .map(|node| node.estimated_state_bytes() - std::mem::size_of::<ChordNode>() as u64)
            .sum();
        let peers = (self.nodes.list_capacity() * std::mem::size_of::<PeerId>()) as u64;
        let ids = self.used_ids.len() as u64 * (std::mem::size_of::<u32>() as u64 + 1) * 8 / 7;
        slab + heap + peers + ids
    }

    fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    /// All peers in the ring, sorted by id — a borrowed view of the
    /// sampling list.
    fn peers(&self) -> &[PeerId] {
        self.nodes.peers()
    }

    /// A new node joins the ring through a random existing node.
    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        let contact = self.random_peer();
        self.join(contact)
    }

    /// A random node leaves the ring.
    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        let peer = self.random_peer().ok_or_else(empty_ring)?;
        self.leave_peer(peer)
    }

    /// A node leaves the ring gracefully: keys go to its successor,
    /// neighbours re-link, and every stale finger pointing at it is repaired
    /// with a fresh lookup — one per stale finger, holders in peer-id order
    /// and each holder's fingers in table order, so the sequence of repair
    /// lookups (and with it every per-peer counter and latency draw) is a
    /// function of the seed alone.
    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        if self.nodes.len() <= 1 {
            return Err(OverlayError::Op("the last node cannot leave".into()));
        }
        let departing = self
            .unregister_node(peer)
            .ok_or_else(|| unknown_peer(peer))?;
        let op = self.net.begin_op("chord.leave");
        let mut update_messages = 0u64;

        // Hand keys to the successor, re-link predecessor and successor.
        let (succ_peer, succ_id) = departing.successor;
        let (pred_peer, pred_id) = departing.predecessor;
        {
            let successor = self.node_mut(succ_peer)?;
            for (k, mut vs) in departing.store {
                match successor.store.entry(k) {
                    Entry::Vacant(slot) => {
                        slot.insert(vs);
                    }
                    Entry::Occupied(mut slot) => slot.get_mut().append(&mut vs),
                }
            }
            successor.predecessor = (pred_peer, pred_id);
        }
        self.node_mut(pred_peer)?.successor = (succ_peer, succ_id);
        self.net
            .count_message(op, "chord.maintenance", peer, succ_peer);
        self.net
            .count_message(op, "chord.maintenance", peer, pred_peer);
        update_messages += 2;
        self.net.depart_peer(peer);

        // Repair stale fingers: every node that pointed at the departed peer
        // re-runs a lookup for that finger interval.
        let stale: Vec<(PeerId, u32)> = self
            .nodes
            .iter()
            .flat_map(|(p, n)| {
                (0..M)
                    .zip(&n.fingers)
                    .filter(|(_, f)| f.node == peer)
                    .map(move |(k, _)| (p, k))
            })
            .collect();
        for (holder, k) in stale {
            let start = self.node(holder)?.id.finger_start(k);
            let (owner, msgs) = self.lookup(op, holder, start)?;
            update_messages += msgs;
            self.node_mut(holder)?.fingers[k as usize] = Finger {
                node: owner,
                node_id: self.node(owner)?.id,
            };
        }
        // Successor pointers referencing the departed node are repaired for
        // free by the predecessor update above; predecessor pointers at
        // other nodes cannot reference it.

        self.net.finish_op(op);
        Ok(ChurnCost {
            locate_messages: 0,
            update_messages,
            lost_items: 0,
        })
    }

    /// Places `data` directly into the owning nodes' stores without running
    /// lookups — the data-load analogue of [`bulk_build`](Self::bulk_build).
    /// Each key hashes to its ring identifier and lands at that
    /// identifier's successor, the same node a routed insert reaches; no
    /// messages are charged.
    fn load_direct(&mut self, data: &[(u64, u64)]) -> bool {
        let ring = self.ring();
        if ring.is_empty() {
            return true;
        }
        // In dataset order, so identifier collisions keep a routed load's
        // per-key value order.
        for &(key, value) in data {
            let id = ChordId::hash(key);
            let owner = ring[successor_position(&ring, id)].0;
            if let Some(node) = self.nodes.get_mut(owner) {
                node.store.entry(id.value()).or_default().push(value);
            }
        }
        true
    }

    /// Sets the replication degree: each key's k−1 extra copies live on the
    /// owner's ring successors.
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

    /// Inserts `value` under `key` (hashed onto the ring).
    fn insert(&mut self, key: u64, value: u64) -> OverlayResult<OpCost> {
        let issuer = self.random_peer().ok_or_else(empty_ring)?;
        let op = self.net.begin_op("chord.insert");
        let id = ChordId::hash(key);
        let (owner, mut messages) = self.lookup(op, issuer, id)?;
        self.net.count_message(op, "chord.data", issuer, owner);
        messages += 1;
        self.node_mut(owner)?
            .store
            .entry(id.value())
            .or_default()
            .push(value);
        messages += self.charge_replica_copies(op, owner);
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches: 0,
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    /// Deletes one value stored under `key`.
    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        let issuer = self.random_peer().ok_or_else(empty_ring)?;
        let op = self.net.begin_op("chord.delete");
        let id = ChordId::hash(key);
        let (owner, mut messages) = self.lookup(op, issuer, id)?;
        self.net.count_message(op, "chord.data", issuer, owner);
        messages += 1;
        let removed = {
            let node = self.node_mut(owner)?;
            match node.store.get_mut(&id.value()) {
                Some(vs) => {
                    let removed = vs.pop().is_some();
                    if vs.is_empty() {
                        node.store.remove(&id.value());
                    }
                    removed
                }
                None => false,
            }
        };
        if removed {
            messages += self.charge_replica_copies(op, owner);
        }
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches: usize::from(removed),
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    /// Exact-match query for `key`.
    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        let issuer = self.random_peer().ok_or_else(empty_ring)?;
        let op = self.net.begin_op("chord.search");
        let id = ChordId::hash(key);
        let (owner, messages) = self.lookup(op, issuer, id)?;
        let matches = self
            .node(owner)?
            .store
            .get(&id.value())
            .map(Vec::len)
            .unwrap_or(0);
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches,
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    fn search_range(&mut self, _low: u64, _high: u64) -> OverlayResult<OpCost> {
        // Consistent hashing destroys key order: there is no range query
        // to route.
        Err(OverlayError::Unsupported("range queries on a DHT"))
    }

    /// Verifies that every node's links are exact for the live ring:
    /// successor and predecessor are its neighbours in identifier order
    /// (so the successor walk visits every node once, in ascending
    /// identifier order), and every finger `k` is successor(`id + 2^k`).
    /// Nodes are checked in peer-id order, so a broken ring reports the
    /// same violation on every run.
    fn validate(&self) -> Result<(), String> {
        let ring = self.ring();
        for node in self.nodes.values() {
            let (peer, exact) = (node.peer, exact_node(&ring, node.id));
            if (node.successor, node.predecessor) != (exact.successor, exact.predecessor) {
                return Err(format!(
                    "{peer} links to {:?} / {:?}, not its ring neighbours {:?} / {:?}",
                    node.successor, node.predecessor, exact.successor, exact.predecessor
                ));
            }
            let wrong = (0..M as usize).find(|&k| node.fingers.get(k) != exact.fingers.get(k));
            if let Some(k) = wrong {
                return Err(format!(
                    "{peer} finger {k} is {:?}, not {:?}",
                    node.fingers.get(k),
                    exact.fingers[k]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_a_consistent_ring() {
        for n in [1usize, 2, 5, 32, 100] {
            let system = ChordSystem::build(7, n).unwrap();
            assert_eq!(system.node_count(), n);
            system
                .validate()
                .unwrap_or_else(|e| panic!("{n}-node ring invalid: {e}"));
        }
    }

    #[test]
    fn bulk_build_produces_a_consistent_ring() {
        for n in [0usize, 1, 2, 5, 32, 100] {
            let system = ChordSystem::bulk_build(7, n).unwrap();
            assert_eq!(system.node_count(), n);
            system
                .validate()
                .unwrap_or_else(|e| panic!("bulk {n}-node ring invalid: {e}"));
            assert_eq!(
                system.net.stats().total_sent(),
                0,
                "bulk build charged messages"
            );
        }
    }

    #[test]
    fn bulk_built_ring_answers_lookups_and_survives_churn() {
        let mut system = ChordSystem::bulk_build(11, 64).unwrap();
        let log_n = (system.node_count() as f64).log2();
        for key in [1u64, 500, 999_999] {
            system.insert(key, key * 2).unwrap();
            let found = system.search_exact(key).unwrap();
            assert_eq!(found.matches, 1, "key {key} not found");
            assert!((found.messages as f64) <= 3.0 * log_n + 8.0);
        }
        system.join_random().unwrap();
        system.leave_random().unwrap();
        system.validate().unwrap();
        assert_eq!(system.total_items(), 3);
    }

    #[test]
    fn direct_load_places_keys_at_the_lookup_owner() {
        let mut direct = ChordSystem::bulk_build(5, 64).unwrap();
        let mut routed = ChordSystem::bulk_build(5, 64).unwrap();
        let data: Vec<(u64, u64)> = (0..200u64).map(|i| (1 + i * 4_999_999, i)).collect();
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
        for &(k, _) in &data {
            assert_eq!(
                direct.search_exact(k).unwrap().matches,
                routed.search_exact(k).unwrap().matches,
                "key {k} diverged between direct and routed load"
            );
        }
    }

    #[test]
    fn lookups_are_logarithmic() {
        let mut system = ChordSystem::build(11, 256).unwrap();
        let log_n = (system.node_count() as f64).log2();
        let mut total = 0u64;
        for key in 0..200u64 {
            let report = system.search_exact(key * 977).unwrap();
            total += report.messages;
            assert!(
                (report.messages as f64) <= 3.0 * log_n + 8.0,
                "lookup took {} messages",
                report.messages
            );
        }
        let avg = total as f64 / 200.0;
        assert!(
            avg <= 1.5 * log_n + 2.0,
            "average lookup cost {avg} too high"
        );
    }

    #[test]
    fn insert_then_search_finds_the_value() {
        let mut system = ChordSystem::build(3, 40).unwrap();
        for key in [1u64, 500, 999_999] {
            system.insert(key, key * 2).unwrap();
            let found = system.search_exact(key).unwrap();
            assert_eq!(found.matches, 1, "key {key} not found");
        }
        let miss = system.search_exact(123_456_789).unwrap();
        assert_eq!(miss.matches, 0);
        assert_eq!(system.total_items(), 3);
    }

    #[test]
    fn delete_removes_a_value() {
        let mut system = ChordSystem::build(5, 30).unwrap();
        system.insert(42, 1).unwrap();
        assert_eq!(system.delete(42).unwrap().matches, 1);
        assert_eq!(system.search_exact(42).unwrap().matches, 0);
        assert_eq!(system.delete(42).unwrap().matches, 0);
    }

    #[test]
    fn join_update_cost_is_superlogarithmic_but_bounded() {
        let mut system = ChordSystem::build(13, 300).unwrap();
        let log_n = (system.node_count() as f64).log2();
        let report = system.join_random().unwrap();
        assert!(report.locate_messages >= 1);
        assert!(
            (report.update_messages as f64) <= 3.0 * log_n * log_n + 40.0,
            "update cost {} too high",
            report.update_messages
        );
        system.validate().unwrap();
    }

    #[test]
    fn leaves_keep_ring_consistent_and_data_safe() {
        let mut system = ChordSystem::build(17, 60).unwrap();
        for key in 0..100u64 {
            system.insert(key, key).unwrap();
        }
        for _ in 0..30 {
            system.leave_random().unwrap();
            system.validate().unwrap();
        }
        assert_eq!(system.node_count(), 30);
        assert_eq!(system.total_items(), 100);
        for key in 0..100u64 {
            assert_eq!(system.search_exact(key).unwrap().matches, 1);
        }
    }

    /// Finger `k` of the node at identifier `id`, as the identifier it
    /// points at.
    fn finger_of(ring: &ChordSystem, id: u64, k: usize) -> u64 {
        let node = ring.nodes().find(|n| n.id == ChordId::new(id)).unwrap();
        node.fingers[k].node_id.value()
    }

    /// Fault (i): the bootstrap node's fingers are exact before the second
    /// join (they point at itself), so the join repoints only those whose
    /// start the joiner now succeeds.  Fingers 30 and 31 start past the
    /// joiner and stay at the bootstrap node.
    #[test]
    fn bootstrap_fingers_past_the_second_node_stay_at_the_bootstrap() {
        let ring = ChordSystem::build(1, 2).unwrap();
        assert_eq!(finger_of(&ring, 1_194_740_970, 29), 1_878_894_370);
        assert_eq!(finger_of(&ring, 1_194_740_970, 30), 1_194_740_970);
        assert_eq!(finger_of(&ring, 1_194_740_970, 31), 1_194_740_970);
        ring.validate().unwrap();
    }

    /// Fault (ii): finger 28 of node 1,592,092,048 sits exactly on its start
    /// 1,860,527,504, so it is already exact; the joiner 1,865,198,556 (the
    /// 659th join of seed 8) lies past it and must not take it over.
    #[test]
    fn a_finger_on_its_start_survives_a_later_joiner() {
        let ring = ChordSystem::build(8, 659).unwrap();
        assert_eq!(finger_of(&ring, 1_592_092_048, 28), 1_860_527_504);
        ring.validate().unwrap();
    }

    /// Fault (iii): the 831st joiner of seed 263, 188,161,028, lies exactly
    /// `2^3` past node 188,161,020.  The lookup for `id − 2^3` answers that
    /// node itself, and the walk must start there, not at its predecessor.
    #[test]
    fn a_node_exactly_2_to_the_i_before_a_joiner_takes_it_as_finger_i() {
        let ring = ChordSystem::build(263, 831).unwrap();
        assert_eq!(finger_of(&ring, 188_161_020, 3), 188_161_028);
        ring.validate().unwrap();
    }

    /// Every finger of a join-built ring is successor(`id + 2^k`) after the
    /// build and again after 500 leave+join pairs, over 300 seeds at
    /// N = 2,000.  About 11 s in release on a 2-core host; CI runs it with
    /// `--ignored`.
    #[test]
    #[ignore]
    fn join_built_fingers_are_exact_over_300_seeds() {
        for seed in 1..=300 {
            let mut ring = ChordSystem::build(seed, 2_000).unwrap();
            assert_eq!(ring.validate(), Ok(()), "seed {seed}, after the build");
            for _ in 0..500 {
                ring.leave_random().unwrap();
                ring.join_random().unwrap();
            }
            assert_eq!(ring.validate(), Ok(()), "seed {seed}, after churn");
        }
    }

    #[test]
    fn last_node_cannot_leave_and_empty_ring_errors() {
        let mut system = ChordSystem::build(1, 1).unwrap();
        let peer = system.peers()[0];
        let op = |message: &str| OverlayError::Op(message.into());
        assert_eq!(
            system.leave_peer(peer).unwrap_err(),
            op("the last node cannot leave")
        );
        let mut empty = ChordSystem::new(1);
        assert_eq!(empty.search_exact(1).unwrap_err(), op("the ring is empty"));

        // A refused leave opens no operation, so the retire queue keeps
        // draining afterwards.
        let mut ring = ChordSystem::build(1, 8).unwrap();
        let stranger = PeerId(u32::MAX);
        assert_eq!(
            ring.leave_peer(stranger).unwrap_err(),
            op(&format!("unknown peer {stranger}"))
        );
        ring.net.stats_mut().retire_finished();
        assert_eq!(ring.net.stats().live_op_count(), 0);
    }
}
