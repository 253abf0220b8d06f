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
    /// The result passes [`validate`](Self::validate) and behaves like a
    /// join-built ring under all subsequent operations, but is not
    /// byte-identical to one (identifier draw order differs), so the bulk
    /// path is opt-in — committed fixtures always use [`build`](Self::build).
    pub fn bulk_build(seed: u64, n: usize) -> OverlayResult<Self> {
        let mut system = Self::new(seed);
        if n == 0 {
            return Ok(system);
        }
        let peers: Vec<PeerId> = (0..n).map(|_| system.net.add_peer()).collect();
        let ids: Vec<ChordId> = (0..n)
            .map(|_| {
                let id = system.fresh_id();
                // Reserve immediately so later draws cannot collide.
                system.used_ids.insert(id.compact());
                id
            })
            .collect();

        // Ring order and each node's ring position.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| ids[i]);
        let mut rank = vec![0usize; n];
        for (position, &i) in order.iter().enumerate() {
            rank[i] = position;
        }
        let sorted_ids: Vec<ChordId> = order.iter().map(|&i| ids[i]).collect();
        // The ring position owning `id`: the first node at or after it,
        // wrapping past the top of the circle.
        let successor_position = |id: ChordId| match sorted_ids.binary_search(&id) {
            Ok(k) => k,
            Err(k) if k == n => 0,
            Err(k) => k,
        };

        system.nodes = (0..n)
            .map(|i| {
                let position = rank[i];
                let prev = order[(position + n - 1) % n];
                let next = order[(position + 1) % n];
                let mut node = ChordNode::solo(peers[i], ids[i]);
                node.successor = (peers[next], ids[next]);
                node.predecessor = (peers[prev], ids[prev]);
                for k in 0..M {
                    let start = ids[i].finger_start(k);
                    let owner = order[successor_position(start)];
                    node.fingers[k as usize] = Some(Finger {
                        start,
                        node: peers[owner],
                        node_id: ids[owner],
                    });
                }
                (peers[i], node)
            })
            .collect();
        Ok(system)
    }

    /// Iterates over the ring's nodes in peer-id order.
    pub fn nodes(&self) -> impl Iterator<Item = &ChordNode> + '_ {
        self.nodes.values()
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
        // interval, the standard optimisation) — O(log² N) messages.
        let mut previous: Option<Finger> = None;
        for k in 0..M {
            let start = id.finger_start(k);
            if let Some(prev) = previous {
                if start.in_half_open_interval(id, prev.node_id) {
                    let finger = Finger {
                        start,
                        node: prev.node,
                        node_id: prev.node_id,
                    };
                    self.node_mut(peer)?.fingers[k as usize] = Some(finger);
                    previous = Some(finger);
                    continue;
                }
            }
            let (owner, msgs) = self.lookup(op, peer, start)?;
            update_messages += msgs;
            let owner_id = self.node(owner)?.id;
            let finger = Finger {
                start,
                node: owner,
                node_id: owner_id,
            };
            self.node_mut(peer)?.fingers[k as usize] = Some(finger);
            previous = Some(finger);
        }

        // `update_others`: existing nodes whose `i`-th finger interval now
        // starts at or before the new identifier must repoint that finger at
        // the new node.  For each finger index this is one lookup (to find
        // the last node preceding `id − 2^i`) plus a walk back through
        // predecessors — the O(log² N) maintenance term of the Chord join
        // that the BATON paper contrasts with its own O(log N) updates.
        for i in 0..M {
            let target =
                ChordId::new((id.value() + crate::id::RING - (1u64 << i)) % crate::id::RING);
            let (succ, msgs) = self.lookup(op, peer, target)?;
            update_messages += msgs;
            let mut current = self.node(succ)?.predecessor.0;
            let mut walked = 0u32;
            loop {
                if current == peer {
                    break;
                }
                let (start, finger_node_id, predecessor) = {
                    let node = self.node(current)?;
                    let start = node.id.finger_start(i);
                    let finger_node_id = node.fingers[i as usize]
                        .map(|f| f.node_id)
                        .unwrap_or(node.successor.1);
                    (start, finger_node_id, node.predecessor.0)
                };
                // The new node becomes this node's i-th finger if it lies in
                // [start, current finger target).
                let improves = id == start || id.in_open_interval(start, finger_node_id);
                if !improves {
                    break;
                }
                self.net
                    .count_message(op, "chord.maintenance", peer, current);
                update_messages += 1;
                self.node_mut(current)?.fingers[i as usize] = Some(Finger {
                    start,
                    node: peer,
                    node_id: id,
                });
                current = predecessor;
                walked += 1;
                if walked > M * 4 {
                    break;
                }
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
        builder.reserve(self.node_count(), self.total_items());
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
            for finger in node.fingers.iter().flatten() {
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
        let stale: Vec<(PeerId, usize, ChordId)> = self
            .nodes
            .iter()
            .flat_map(|(p, n)| {
                n.fingers.iter().enumerate().filter_map(move |(k, f)| {
                    f.as_ref()
                        .filter(|f| f.node == peer)
                        .map(|f| (p, k, f.start))
                })
            })
            .collect();
        for (holder, k, start) in stale {
            let (owner, msgs) = self.lookup(op, holder, start)?;
            update_messages += msgs;
            let owner_id = self.node(owner)?.id;
            self.node_mut(holder)?.fingers[k] = Some(Finger {
                start,
                node: owner,
                node_id: owner_id,
            });
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
        if self.nodes.is_empty() {
            return true;
        }
        let mut ring: Vec<(ChordId, PeerId)> = self
            .nodes
            .iter()
            .map(|(peer, node)| (node.id, peer))
            .collect();
        ring.sort_unstable();
        // One stable sort by ring identifier, then a merge-style pass with
        // a monotonic cursor (wrapping the top of the circle back to the
        // first node) — every node's items arrive while it is cache-hot.
        // The stable sort keeps identifier collisions in dataset order, so
        // per-key value order matches a routed load exactly.
        let mut items: Vec<(ChordId, u64)> = data
            .iter()
            .map(|&(key, value)| (ChordId::hash(key), value))
            .collect();
        items.sort_by_key(|&(id, _)| id);
        let mut cursor = 0usize;
        for &(id, value) in &items {
            while cursor < ring.len() && ring[cursor].0 < id {
                cursor += 1;
            }
            let slot = if cursor == ring.len() { 0 } else { cursor };
            if let Some(node) = self.nodes.get_mut(ring[slot].1) {
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

    /// Verifies ring invariants: successor/predecessor pointers are mutually
    /// consistent and the identifiers strictly increase around the ring.
    /// Nodes are checked in peer-id order and the successor walk starts at
    /// the lowest live id, so a broken ring reports the same violation on
    /// every run.
    fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Ok(());
        }
        for (peer, node) in self.nodes.iter() {
            let succ = self
                .nodes
                .get(node.successor.0)
                .ok_or_else(|| format!("{peer} successor {} missing", node.successor.0))?;
            if succ.predecessor.0 != peer {
                return Err(format!(
                    "{peer} successor {} does not point back",
                    node.successor.0
                ));
            }
            let pred = self
                .nodes
                .get(node.predecessor.0)
                .ok_or_else(|| format!("{peer} predecessor {} missing", node.predecessor.0))?;
            if pred.successor.0 != peer {
                return Err(format!(
                    "{peer} predecessor {} does not point forward",
                    node.predecessor.0
                ));
            }
        }
        // Walking successors from any node must visit every node exactly once.
        let start = self.peers()[0];
        let mut seen = HashSet::new();
        let mut current = start;
        for _ in 0..self.nodes.len() {
            if !seen.insert(current) {
                return Err("successor cycle shorter than the ring".into());
            }
            current = self.nodes.get(current).expect("checked above").successor.0;
        }
        if current != start {
            return Err("successor walk does not return to the start".into());
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
