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
//!
//! One sorted ring — every live member's peer and identifier, ascending by
//! identifier — records who sits where.  Only a join, a leave and
//! [`ChordSystem::bulk_build`] write it.  A node's successor, predecessor
//! and finger `k`, successor(`id + 2^k`), are reads of it
//! ([`ChordSystem::finger`]), so every peer's links are exact, as a real
//! peer's tables are once its join and repairs have run.  The protocol
//! still sends and counts every message that keeps those tables: the
//! finger build's and `update_others`' lookups and notifications on a
//! join, and one repair lookup per stale finger on a departure.  The stale
//! fingers are found by arithmetic: finger `k` of `h` was the departed peer
//! `d` exactly when `h + 2^k` lay in (predecessor(`d`), `d`], that is, when
//! `h` lies in the arc (predecessor(`d`) − 2^k, `d` − 2^k].  That is [`M`]
//! binary-searched arcs, where a simulation that stores the tables scans
//! every node's fingers.  Every other read finds successor(`x`) through the
//! ring's bucket index, in expected O(1).

use std::collections::btree_map::Entry;
use std::collections::HashSet;

use baton_net::serve::{ExactPlacement, RoutingSnapshot, SnapshotBuilder};
use baton_net::{
    ChurnCost, LinkKind, OpCost, OpScope, Overlay, OverlayCapabilities, OverlayError,
    OverlayResult, PeerDirectory, PeerId, SimNetwork, SimRng,
};

use crate::id::{ChordId, M, RING};
use crate::node::{ChordNode, PEER_STATE_BYTES};
use crate::ring::{Member, Ring};

/// Draws identifiers from `rng` until `free` accepts one.
///
/// Expected O(1): a draw collides with probability `n / 2^32`, so even a
/// million-node ring rejects ~0.02% of draws.  The draw itself —
/// `uniform_u64(0, RING)` — is unchanged from the wide-id substrate so every
/// seeded experiment keeps its exact id sequence.
fn fresh_id(rng: &mut SimRng, mut free: impl FnMut(ChordId) -> bool) -> ChordId {
    loop {
        let id = ChordId::new(rng.uniform_u64(0, RING));
        if free(id) {
            return id;
        }
    }
}

/// The members of `ring` whose identifier lies in the clockwise arc
/// `(from, to]`, `from != to`, in clockwise order.
fn arc(ring: &[Member], from: ChordId, to: ChordId) -> impl Iterator<Item = &Member> {
    let after = |id: ChordId| ring.partition_point(|&(_, x)| x <= id);
    let (start, end) = (after(from), after(to));
    let (head, tail) = if from < to {
        (&ring[start..end], &ring[..0])
    } else {
        (&ring[start..], &ring[..end])
    };
    head.iter().chain(tail)
}

/// `id − 2^k` on the circle.
fn back(id: ChordId, k: u32) -> ChordId {
    ChordId::new(id.value() + RING - (1u64 << k))
}

/// The (holder, `k`) pairs of `ring`, which no longer holds the departed
/// member at `departed`, whose finger `k` was that member while
/// `predecessor` preceded it: the holders in the arc
/// (`predecessor` − 2^k, `departed` − 2^k], ascending by (peer, `k`).
fn stale_fingers(ring: &[Member], predecessor: ChordId, departed: ChordId) -> Vec<(PeerId, u32)> {
    let mut stale: Vec<(PeerId, u32)> = (0..M)
        .flat_map(|k| {
            arc(ring, back(predecessor, k), back(departed, k)).map(move |&(peer, _)| (peer, k))
        })
        .collect();
    stale.sort_unstable();
    stale
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
    /// The live members in ascending identifier order: every link is read
    /// from here, and a drawn identifier is new when it is not here.
    ring: Ring,
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
            ring: Ring::from_sorted(Vec::new()),
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
    /// protocol: identifiers are drawn up front and the ring is one sort.
    /// `O(N log N)` arithmetic instead of the join path's `O(N log² N)`
    /// simulated lookups; no messages are charged.
    ///
    /// The result passes [`validate`](Self::validate) and has the links a
    /// join-built ring of the same identifiers has, but is not
    /// byte-identical to one (identifier draw order differs), so the bulk
    /// path is opt-in — committed fixtures always use [`build`](Self::build).
    pub fn bulk_build(seed: u64, n: usize) -> OverlayResult<Self> {
        let mut system = Self::new(seed);
        let mut used = HashSet::with_capacity(n);
        let members: Vec<Member> = (0..n)
            .map(|_| {
                let peer = system.net.add_peer();
                (peer, fresh_id(&mut system.rng, |id| used.insert(id)))
            })
            .collect();
        let mut ring = members.clone();
        ring.sort_unstable_by_key(|&(_, id)| id);
        system.ring = Ring::from_sorted(ring);
        system.nodes = members
            .into_iter()
            .map(|(peer, id)| (peer, ChordNode::new(id)))
            .collect();
        Ok(system)
    }

    /// Iterates over the ring's nodes in peer-id order.
    pub fn nodes(&self) -> impl Iterator<Item = (PeerId, &ChordNode)> + '_ {
        self.nodes.iter()
    }

    /// Finger `k` of `peer`: the member that succeeds
    /// [`ChordId::finger_start`], finger 0 being the successor, or `None`
    /// for a peer not in the ring.
    pub fn finger(&self, peer: PeerId, k: u32) -> Option<(PeerId, ChordId)> {
        let id = self.nodes.get(peer)?.id;
        Some(self.ring[self.finger_position(id, k)])
    }

    /// The ring position of `peer`.
    fn position(&self, peer: PeerId) -> OverlayResult<usize> {
        Ok(self.ring.rank(self.node(peer)?.id))
    }

    /// The ring position before `at`, wrapping.
    fn before(&self, at: usize) -> usize {
        at.checked_sub(1).unwrap_or(self.ring.len() - 1)
    }

    /// The ring position of finger `k` of the member at `id`.
    fn finger_position(&self, id: ChordId, k: u32) -> usize {
        self.ring.successor(id.finger_start(k))
    }

    fn random_peer(&mut self) -> Option<PeerId> {
        self.nodes.sample(&mut self.rng)
    }

    /// Adds `peer` to the directory and the ring.  The ring is only written
    /// here, in [`unregister_node`](Self::unregister_node) and by
    /// [`bulk_build`](Self::bulk_build), so it holds exactly the live nodes
    /// even when a join fails after drawing an id.
    fn register_node(&mut self, peer: PeerId, node: ChordNode) {
        self.ring.insert((peer, node.id));
        self.nodes.insert(peer, node);
    }

    /// Removes `peer` from the directory and the ring.
    fn unregister_node(&mut self, peer: PeerId) -> Option<ChordNode> {
        let node = self.nodes.remove(peer)?;
        self.ring.remove(node.id);
        Some(node)
    }

    fn node(&self, peer: PeerId) -> OverlayResult<&ChordNode> {
        self.nodes.get(peer).ok_or_else(|| unknown_peer(peer))
    }

    fn node_mut(&mut self, peer: PeerId) -> OverlayResult<&mut ChordNode> {
        self.nodes.get_mut(peer).ok_or_else(|| unknown_peer(peer))
    }

    /// Iterative lookup of the successor of `target`, starting at ring
    /// position `from`.  Returns the owner's ring position and the
    /// messages sent, one per overlay hop.
    ///
    /// A node whose successor owns `target` hands the lookup there; any
    /// other hops to its closest preceding finger
    /// ([`ChordId::closest_preceding_finger`]).
    fn lookup(&mut self, op: OpScope, from: usize, target: ChordId) -> (usize, u64) {
        let owner = self.ring.successor(target);
        let last_before = self.ring[self.before(owner)].1;
        let (mut at, mut hops) = (from, 0u32);
        while at != owner {
            let id = self.ring[at].1;
            let (next, kind) = match id.closest_preceding_finger(last_before) {
                Some(k) => (self.finger_position(id, k), LinkKind::Finger),
                None => (owner, LinkKind::Successor),
            };
            hops += 1;
            let (sender, receiver) = (self.ring[at].0, self.ring[next].0);
            self.net
                .transmit(op, sender, receiver, hops, kind, "chord.lookup")
                .ok();
            at = next;
        }
        (owner, u64::from(hops))
    }

    /// A new node joins the ring through `contact` (`None` bootstraps the
    /// first node).
    pub fn join(&mut self, contact: Option<PeerId>) -> OverlayResult<ChurnCost> {
        let peer = self.net.add_peer();
        let ring = &self.ring;
        let id = fresh_id(&mut self.rng, |id| {
            ring.get(ring.rank(id)).is_none_or(|&(_, x)| x != id)
        });
        let op = self.net.begin_op("chord.join");

        let Some(contact) = contact else {
            self.register_node(peer, ChordNode::new(id));
            self.net.finish_op(op);
            return Ok(ChurnCost::default());
        };

        // Locate the successor of the new identifier.
        let (at, locate_messages) = self.lookup(op, self.position(contact)?, id);
        let ((successor, _), (predecessor, predecessor_id)) =
            (self.ring[at], self.ring[self.before(at)]);

        // Splice into the ring, taking over the keys in (predecessor, id]
        // from the successor.
        let mut node = ChordNode::new(id);
        let store = &mut self.node_mut(successor)?.store;
        let moved: Vec<u64> = store
            .keys()
            .copied()
            .filter(|k| ChordId::new(*k).in_half_open_interval(predecessor_id, id))
            .collect();
        for k in moved {
            node.store.insert(k, store.remove(&k).unwrap_or_default());
        }
        self.register_node(peer, node);
        // Notify successor and predecessor (plus the key transfer message).
        self.net
            .count_message(op, "chord.maintenance", peer, successor);
        self.net
            .count_message(op, "chord.maintenance", peer, predecessor);
        self.net
            .count_message(op, "chord.maintenance", successor, peer);
        let mut update_messages = 3u64;

        // Build the finger table: one lookup per distinct finger interval
        // (reusing the previous finger when it already covers the next
        // interval, the standard optimisation) — O(log² N) messages.  The
        // ring holds the joiner already, but a lookup the joiner issues
        // never hops back to it, so each runs as it would while the
        // unbuilt entries still pointed at the joiner itself.
        let me = self.position(peer)?;
        let mut finger = me;
        for k in 0..M {
            let start = id.finger_start(k);
            if k == 0 || !start.in_half_open_interval(id, self.ring[finger].1) {
                let (owner, msgs) = self.lookup(op, me, start);
                update_messages += msgs;
                finger = owner;
            }
        }

        // `update_others`: existing nodes whose `i`-th finger interval now
        // starts at or before the new identifier repoint that finger at the
        // new node.  For each finger index this is one lookup (to find the
        // last node at or before `id − 2^i`) plus a walk back through
        // predecessors, one notification each, while the walked node's
        // finger `i` is the joiner — the O(log² N) maintenance term of the
        // Chord join that the BATON paper contrasts with its own O(log N)
        // updates.
        for i in 0..M {
            let target = back(id, i);
            let (mut at, msgs) = self.lookup(op, me, target);
            update_messages += msgs;
            // The lookup answers the first node at or after `target`; one
            // sitting exactly on it is the walk's first node.
            if self.ring[at].1 != target {
                at = self.before(at);
            }
            // Finger `i` of the walked node is the joiner exactly when its
            // start lies in (predecessor, id].
            loop {
                let (current, current_id) = self.ring[at];
                let start = current_id.finger_start(i);
                if current == peer || !start.in_half_open_interval(predecessor_id, id) {
                    break;
                }
                self.net
                    .count_message(op, "chord.maintenance", peer, current);
                update_messages += 1;
                at = self.before(at);
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
        match self.position(peer) {
            Ok(at) => self.replica_positions(at).map(|s| self.ring[s].0).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// The ring positions of the k−1 successors of the member at `at`.
    fn replica_positions(&self, at: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.ring.len();
        (1..self.replication.min(n)).map(move |j| (at + j) % n)
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

    /// Builds a [`RoutingSnapshot`] of the ring's current state for the
    /// concurrent serve front-end: slots are the ring's members in
    /// ascending identifier order (successor placement resolves a hashed
    /// key to the first slot with `id >= hash`, wrapping), items are each
    /// node's store keyed by identifier, links are the successor and the
    /// [`M`] fingers, and replicas are the `k−1` following ring successors.
    /// Extraction is read-only: statistics and RNG streams are untouched.
    pub fn build_routing_snapshot(&self) -> RoutingSnapshot {
        let mut builder = SnapshotBuilder::new(ExactPlacement::HashedRing, (0, RING));
        builder.reserve(self.node_count(), self.total_items(), 0);
        for (slot, &(peer, id)) in self.ring.iter().enumerate() {
            builder.push_slot(peer.0, id.value(), true);
            for (id_value, values) in &self.nodes.get(peer).expect("members have nodes").store {
                builder.push_item(*id_value, values.len() as u64);
            }
            builder.seal_slot();
            builder.link(slot, (slot + 1) % self.ring.len(), LinkKind::Successor);
            for k in 0..M {
                builder.link(slot, self.finger_position(id, k), LinkKind::Finger);
            }
            for target in self.replica_positions(slot) {
                builder.replica(slot, target);
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

    /// Approximate resident bytes of per-peer protocol state, modelling
    /// what a real peer holds: [`PEER_STATE_BYTES`] per slot of the node
    /// slab, every node's finger table and key store, the sampling list
    /// and a hash set of the live identifiers (an identifier draw's
    /// collision set).  The shared network substrate is excluded.
    ///
    /// The slab is counted by [`PeerDirectory::slot_count`] — every slot
    /// ever opened, the holes departures leave included — not by its
    /// allocated capacity: amortised doubling overshoots the slots in use
    /// by up to 2×, which would make the figure jump with the growth
    /// schedule rather than with the state the protocol keeps.  The
    /// live-id set is modelled as one 4-byte identifier and a control byte
    /// per member at the ~8/7 load-factor reciprocal.
    fn estimated_state_bytes(&self) -> u64 {
        let slab = self.nodes.slot_count() as u64 * PEER_STATE_BYTES;
        let heap: u64 = self
            .nodes
            .values()
            .map(|node| node.estimated_state_bytes() - PEER_STATE_BYTES)
            .sum();
        let peers = (self.nodes.list_capacity() * std::mem::size_of::<PeerId>()) as u64;
        let ids = self.ring.len() as u64 * (std::mem::size_of::<u32>() as u64 + 1) * 8 / 7;
        slab + heap + peers + ids
    }

    fn routing_snapshot(&self) -> Option<RoutingSnapshot> {
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
        let at = self.position(peer)?;
        let ((successor, _), (predecessor, predecessor_id)) = (
            self.ring[(at + 1) % self.ring.len()],
            self.ring[self.before(at)],
        );
        let departing = self
            .unregister_node(peer)
            .ok_or_else(|| unknown_peer(peer))?;
        let op = self.net.begin_op("chord.leave");

        // Hand keys to the successor; predecessor and successor now link to
        // each other.
        let store = &mut self.node_mut(successor)?.store;
        for (k, mut vs) in departing.store {
            match store.entry(k) {
                Entry::Vacant(slot) => {
                    slot.insert(vs);
                }
                Entry::Occupied(mut slot) => slot.get_mut().append(&mut vs),
            }
        }
        self.net
            .count_message(op, "chord.maintenance", peer, successor);
        self.net
            .count_message(op, "chord.maintenance", peer, predecessor);
        let mut update_messages = 2u64;
        self.net.depart_peer(peer);

        // Repair stale fingers: every node that pointed at the departed peer
        // re-runs a lookup for that finger interval.  Every such lookup
        // targets (predecessor, departed], which no live member but the
        // successor succeeds, so it routes as it would once every stale
        // finger were repaired.
        for (holder, k) in stale_fingers(&self.ring, predecessor_id, departing.id) {
            let start = self.node(holder)?.id.finger_start(k);
            update_messages += self.lookup(op, self.position(holder)?, start).1;
        }

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
        if self.ring.is_empty() {
            return true;
        }
        // In dataset order, so identifier collisions keep a routed load's
        // per-key value order.
        for &(key, value) in data {
            let id = ChordId::hash(key);
            let owner = self.ring[self.ring.successor(id)].0;
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
        let (at, mut messages) = self.lookup(op, self.position(issuer)?, id);
        let owner = self.ring[at].0;
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
        let (at, mut messages) = self.lookup(op, self.position(issuer)?, id);
        let owner = self.ring[at].0;
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
        let (at, messages) = self.lookup(op, self.position(issuer)?, id);
        let matches = self
            .node(self.ring[at].0)?
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

    /// Verifies the ring and the stores: the ring ascends strictly by
    /// identifier and holds exactly the directory's nodes at their
    /// identifiers, and every stored key
    /// lies in its node's arc (predecessor, node].  Links are reads of the
    /// ring, so they need no check of their own.  Nodes are checked in
    /// peer-id order, so a broken ring reports the same violation on every
    /// run.
    fn validate(&self) -> Result<(), String> {
        if let Some(pair) = self.ring.windows(2).find(|pair| pair[0].1 >= pair[1].1) {
            return Err(format!("the ring puts {} before {}", pair[0].1, pair[1].1));
        }
        let at_home = |&(peer, id): &Member| self.nodes.get(peer).map(|node| node.id) == Some(id);
        let n = self.nodes.len();
        if self.ring.len() != n || !self.ring.iter().all(at_home) {
            return Err(format!("the ring differs from the {n} nodes"));
        }
        for (peer, node) in self.nodes.iter() {
            let predecessor = self.ring[self.before(self.ring.rank(node.id))].1;
            let outside =
                |key: &&u64| !ChordId::new(**key).in_half_open_interval(predecessor, node.id);
            if let Some(key) = node.store.keys().find(outside) {
                return Err(format!(
                    "{peer} stores key {key} outside ({predecessor}, {}]",
                    node.id
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use baton_net::TraceConfig;

    use super::*;

    /// The position in `ring` of successor(`id`), by binary search: the
    /// reference the ring's bucket index is checked against.
    fn successor(ring: &[Member], id: ChordId) -> usize {
        ring.partition_point(|&(_, x)| x < id) % ring.len()
    }

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

    /// The hops of a lookup of `target` from the member at `from` by the
    /// textbook rule, each finger read alone: hand over to the successor
    /// when it owns `target`, else go to the highest finger strictly
    /// between the node and `target`.
    fn textbook_hops(ring: &[Member], from: ChordId, target: ChordId) -> u64 {
        let succ = |id: ChordId| ring[successor(ring, id)].1;
        let (mut at, mut hops) = (from, 0);
        while at != succ(target) {
            let next = succ(at.finger_start(0));
            at = if target.in_half_open_interval(at, next) {
                next
            } else {
                let mut fingers = (0..M).rev().map(|k| succ(at.finger_start(k)));
                fingers.find(|f| f.in_open_interval(at, target)).unwrap()
            };
            hops += 1;
        }
        hops
    }

    /// The (holder, k) pairs of `system` whose finger k is `peer` in `ring`,
    /// found by reading every finger of every other node, holders in
    /// peer-id order and fingers in table order.
    fn fingers_at(system: &ChordSystem, ring: &[Member], peer: PeerId) -> Vec<(PeerId, u32)> {
        let holders = system.nodes().filter(|&(holder, _)| holder != peer);
        let pairs = holders.flat_map(|(holder, node)| (0..M).map(move |k| (holder, node.id, k)));
        pairs
            .filter(|&(_, id, k)| ring[successor(ring, id.finger_start(k))].0 == peer)
            .map(|(holder, _, k)| (holder, k))
            .collect()
    }

    #[test]
    fn the_arcs_find_every_stale_finger_in_scan_order() {
        for n in [2usize, 3, 64, 2_000] {
            let system = ChordSystem::bulk_build(n as u64, n).unwrap();
            // Every departure of the small rings, the wrap-around one of the
            // lowest identifier among them; a spread of them at N = 2,000.
            for at in (0..n).filter(|at| n < 100 || at % 97 == 0) {
                let (peer, id) = system.ring[at];
                let mut after = system.ring.clone();
                after.remove(id);
                let predecessor = system.ring[system.before(at)].1;
                let stale = stale_fingers(&after, predecessor, id);
                assert_eq!(
                    stale,
                    fingers_at(&system, &system.ring, peer),
                    "n {n}, {peer}"
                );
                assert!(n < 100 || !stale.is_empty());
            }
        }
    }

    /// A random leave, checked against a Chord whose peers store their
    /// tables: it repairs the (holder, k) pairs whose finger k was the
    /// departed peer, one textbook lookup each.
    fn checked_leave(ring: &mut ChordSystem) {
        let before = ring.ring.clone();
        let departed = ring.random_peer().unwrap();
        let stale = fingers_at(ring, &before, departed);
        let cost = ring.leave_peer(departed).unwrap();
        let id = |holder| ring.nodes.get(holder).unwrap().id;
        let hops = stale
            .iter()
            .map(|&(holder, k)| textbook_hops(&ring.ring, id(holder), id(holder).finger_start(k)));
        assert_eq!(
            cost.update_messages,
            2 + hops.sum::<u64>(),
            "{departed} leaves"
        );
    }

    /// A random join, checked likewise: `update_others` notifies one holder
    /// per (holder, i) pair whose finger i became the joiner.
    fn checked_join(ring: &mut ChordSystem) {
        ring.net.set_trace(TraceConfig::new(1));
        ring.join_random().unwrap();
        let trace = ring.net.take_trace().unwrap();
        let hops = trace.spans().flat_map(|span| &span.hops);
        let notified = hops
            .filter(|hop| hop.message == "chord.maintenance")
            .count()
            - 3;
        let joiner = *ring.peers().last().unwrap();
        assert_eq!(
            notified,
            fingers_at(ring, &ring.ring, joiner).len(),
            "{joiner} joins"
        );
    }

    /// `pairs` leave+join pairs on a join-built ring of `n` peers per seed,
    /// every `every`-th checked against stored tables; the ring validates
    /// after the build and after the churn.
    fn churn_with_checks(
        seeds: std::ops::RangeInclusive<u64>,
        n: usize,
        pairs: usize,
        every: usize,
    ) {
        for seed in seeds {
            let mut ring = ChordSystem::build(seed, n).unwrap();
            assert_eq!(ring.validate(), Ok(()), "seed {seed}, after the build");
            for pair in 0..pairs {
                if pair % every == 0 {
                    checked_leave(&mut ring);
                    checked_join(&mut ring);
                } else {
                    ring.leave_random().unwrap();
                    ring.join_random().unwrap();
                }
            }
            assert_eq!(ring.validate(), Ok(()), "seed {seed}, after churn");
        }
    }

    #[test]
    fn churn_charges_the_messages_of_stored_tables() {
        churn_with_checks(1..=6, 64, 40, 1);
    }

    /// 300 seeds at N = 2,000, every 20th of 500 pairs checked.  About 25 s
    /// in release on a 2-core host; CI runs it with `--ignored`.
    #[test]
    #[ignore]
    fn churn_charges_the_messages_of_stored_tables_over_300_seeds() {
        churn_with_checks(1..=300, 2_000, 500, 20);
    }

    /// The ring of seed `seed` after `n` joins, the last one checked by
    /// [`checked_join`], with the finger `k` of the node at `id` as the
    /// identifier it points at.
    fn finger_after_checked_join(seed: u64, n: usize, id: u64, k: u32) -> u64 {
        let mut ring = ChordSystem::build(seed, n - 1).unwrap();
        checked_join(&mut ring);
        ring.validate().unwrap();
        let (peer, _) = ring.nodes().find(|(_, n)| n.id.value() == id).unwrap();
        ring.finger(peer, k).unwrap().1.value()
    }

    /// Fault (i): the bootstrap node's fingers are exact before the second
    /// join (they point at itself), so the join repoints only those whose
    /// start the joiner now succeeds.  Fingers 30 and 31 start past the
    /// joiner and stay at the bootstrap node.
    #[test]
    fn bootstrap_fingers_past_the_second_node_stay_at_the_bootstrap() {
        let finger = |k| finger_after_checked_join(1, 2, 1_194_740_970, k);
        assert_eq!(finger(29), 1_878_894_370);
        assert_eq!([finger(30), finger(31)], [1_194_740_970; 2]);
    }

    /// Fault (ii): finger 28 of node 1,592,092,048 sits exactly on its start
    /// 1,860,527,504, so it is already exact; the joiner 1,865,198,556 (the
    /// 659th join of seed 8) lies past it and must not take it over.
    #[test]
    fn a_finger_on_its_start_survives_a_later_joiner() {
        let finger = finger_after_checked_join(8, 659, 1_592_092_048, 28);
        assert_eq!(finger, 1_860_527_504);
    }

    /// Fault (iii): the 831st joiner of seed 263, 188,161,028, lies exactly
    /// `2^3` past node 188,161,020.  The lookup for `id − 2^3` answers that
    /// node itself, and the walk must start there, not at its predecessor,
    /// or the join sends one notification fewer than the check counts.
    #[test]
    fn a_node_exactly_2_to_the_i_before_a_joiner_takes_it_as_finger_i() {
        let finger = finger_after_checked_join(263, 831, 188_161_020, 3);
        assert_eq!(finger, 188_161_028);
    }

    #[test]
    fn validate_catches_a_misordered_ring_a_stray_id_and_a_misplaced_key() {
        let broken = |corrupt: fn(&mut ChordSystem)| {
            let mut ring = ChordSystem::bulk_build(9, 8).unwrap();
            ring.load_direct(&(0..100u64).map(|k| (k, k)).collect::<Vec<_>>());
            assert_eq!(ring.validate(), Ok(()));
            corrupt(&mut ring);
            ring.validate().unwrap_err()
        };
        let misordered = broken(|ring| {
            let mut members = ring.ring.to_vec();
            members.swap(2, 3);
            ring.ring = Ring::from_sorted(members);
        });
        assert!(misordered.contains("before"));
        // A member at identifier 7 whose peer is in no node.
        let stray = broken(|ring| ring.ring.insert((PeerId(99), ChordId::new(7))));
        assert!(stray.contains("differs"));
        let misplaced = broken(|ring| {
            let [(from, _), (to, _), ..] = ring.ring[..] else {
                return;
            };
            let store = &mut ring.nodes.get_mut(from).unwrap().store;
            let moved = store.pop_first().unwrap();
            ring.nodes.get_mut(to).unwrap().store.extend([moved]);
        });
        assert!(misplaced.contains("outside"));
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
