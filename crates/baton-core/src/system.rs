//! The [`BatonSystem`]: the set of peers forming one BATON overlay plus the
//! simulated network they communicate over.
//!
//! The system owns a [`SimNetwork`] (message counting, failure injection)
//! and one [`BatonNode`] per participating peer.  All protocol logic —
//! joins, departures, failures, restructuring, search, data maintenance and
//! load balancing — is implemented in the [`crate::protocol`] modules as
//! further `impl BatonSystem` blocks; this module holds the state, the
//! public read API and the small helpers those protocols share.
//!
//! ### Simulation honesty
//!
//! Protocol code only navigates the overlay through links a real node would
//! hold (parent, children, adjacent nodes, routing tables), and every hop or
//! notification is charged to the operation through the network's
//! statistics.  The simulator stores those links once: they are functions
//! of the positions, read from the routing plane ([`BatonSystem::links`],
//! [`crate::routing`]), which records each position's occupant, its
//! current range and its in-order neighbours.  It is the only record of
//! those too: a [`BatonNode`] holds its position and store, and the root
//! ([`BatonSystem::root`]) and every range ([`BatonSystem::range_of`]) are
//! read from the plane, so no second copy can go stale.  A peer's view of
//! its links is therefore always the current one — what the notifications
//! of the paper's protocols keep a real peer's copy at.  The one documented
//! exception is [`crate::protocol::restructure`], which charges a shift's
//! link repairs per the paper's cost model instead of as a handshake per
//! link.
//!
//! ### Membership fan-out
//!
//! Every notify loop of the membership protocols goes through
//! `BatonSystem::fan_out`: one notification per target, charged in
//! target order, so the latency stream, the op's completion time, the
//! per-peer receive counters and the route recorder see the sequence the
//! paper's protocol sends.  A receiver writes nothing: what it would record
//! (the sender's range, children or address) is already what its links
//! read from the plane.

use std::sync::{Mutex, PoisonError};

use baton_net::serve::RoutingSnapshot;
use baton_net::{
    ChurnCost, Histogram, LinkKind, OpCost, OpScope, Overlay, OverlayCapabilities, OverlayError,
    OverlayResult, PeerDirectory, PeerId, RepairPolicy, SimNetwork, SimRng, SimTime,
};

use crate::config::BatonConfig;
use crate::error::{BatonError, Result};
use crate::node::{BatonNode, PEER_STATE_BYTES};
use crate::position::{Position, Side};
use crate::range::{Key, KeyRange};
use crate::routing::{Links, NodeLink, PositionMap};
use crate::snapshot::{Change, ChangeLog, Exporter};

/// Safety bound on forwarding walks, as a multiple of the tree height.
/// Protocol walks that exceed it abort with [`BatonError::RoutingLoop`];
/// this never triggers on a consistent tree and exists to turn protocol bugs
/// into loud errors instead of infinite loops.
const WALK_LIMIT_FACTOR: u32 = 8;

/// What a [`BatonSystem::broadcast_link_update`] announces to its receivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkUpdate {
    /// The sender's range, at every node linked to it (`table.range_update`).
    Range,
    /// The sender's children, at its routing-table neighbours
    /// (`table.child_update`).
    Children,
    /// Both, in one `table.child_update` per linked node — what a parent
    /// sends after gaining or losing a child (paper §III-A/B, the `2·L1`
    /// term).
    RangeAndChildren,
}

/// One BATON overlay: peers, their tree state, and the simulated network.
#[derive(Debug)]
pub struct BatonSystem {
    pub(crate) net: SimNetwork,
    /// Node state of every live peer and the sorted list sampling draws
    /// from.  All membership changes are its `insert` / `remove`, through
    /// [`insert_node`](Self::insert_node) / [`remove_node`](Self::remove_node).
    pub(crate) nodes: PeerDirectory<BatonNode>,
    pub(crate) by_position: PositionMap,
    pub(crate) config: BatonConfig,
    pub(crate) domain: KeyRange,
    pub(crate) rng: SimRng,
    pub(crate) balance_shift_sizes: Histogram,
    /// Replication degree k: every key lives at its routed owner plus k−1
    /// adjacent-link replica peers.  1 (the default) means no replication
    /// and leaves every legacy code path untouched.
    pub(crate) replication: usize,
    /// Peers currently dead but still registered — failures awaiting their
    /// deferred repair ([`fail_silently`](Self::fail_silently) /
    /// `fail_peer_deferred`).  Empty in every legacy run, which is what
    /// keeps the extra liveness checks byte-invisible.
    pub(crate) dead_peers: Vec<PeerId>,
    /// Reusable buffers for the fault-tolerant search walk (see
    /// [`crate::protocol::search`]); carried here so a walk allocates
    /// nothing in steady state.
    pub(crate) walk_scratch: crate::protocol::search::WalkScratch,
    /// The snapshot exporter's previous export and the log of what changed
    /// since ([`crate::snapshot`]).  Exports take `&self`, hence the lock;
    /// writers reach the log through `&mut self` without locking.
    pub(crate) exporter: Mutex<Exporter>,
}

impl BatonSystem {
    /// Creates an empty overlay with the given configuration and RNG seed.
    pub fn new(config: BatonConfig, seed: u64) -> Self {
        Self {
            net: SimNetwork::new(),
            nodes: PeerDirectory::new(),
            by_position: PositionMap::default(),
            domain: config.domain,
            config,
            rng: SimRng::seeded(seed),
            balance_shift_sizes: Histogram::new(),
            replication: 1,
            dead_peers: Vec::new(),
            walk_scratch: Default::default(),
            exporter: Default::default(),
        }
    }

    /// Creates the first node of the overlay, managing the whole key domain.
    ///
    /// Returns an error if the overlay already has nodes.
    pub fn bootstrap(&mut self) -> Result<PeerId> {
        if !self.is_empty() {
            return Err(BatonError::InvariantViolation(
                "bootstrap called on a non-empty overlay".into(),
            ));
        }
        let peer = self.net.add_peer();
        self.occupy(Position::ROOT, peer, self.domain);
        self.insert_node(peer, BatonNode::new(Position::ROOT));
        Ok(peer)
    }

    /// Builds an overlay of `n` nodes by bootstrapping one node and having
    /// the remaining `n - 1` join through random existing contacts.
    ///
    /// This is the construction the paper uses for every experiment.
    pub fn build(config: BatonConfig, seed: u64, n: usize) -> Result<Self> {
        let mut system = Self::new(config, seed);
        if n == 0 {
            return Ok(system);
        }
        system.bootstrap()?;
        for _ in 1..n {
            system.join_random()?;
        }
        Ok(system)
    }

    // ------------------------------------------------------------------
    // Read API
    // ------------------------------------------------------------------

    /// `true` if the overlay has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The peer currently occupying the root position, if any.
    pub fn root(&self) -> Option<PeerId> {
        self.by_position.get(Position::ROOT)
    }

    /// The key domain currently covered by the overlay (may have grown
    /// through leftmost/rightmost expansion, paper §IV-C).
    pub fn domain(&self) -> KeyRange {
        self.domain
    }

    /// Read access to a node's state.
    #[inline]
    pub fn node(&self, peer: PeerId) -> Option<&BatonNode> {
        self.nodes.get(peer)
    }

    /// The key range `peer` manages, read from the routing plane.
    #[inline]
    pub fn range_of(&self, peer: PeerId) -> Option<KeyRange> {
        let h = self.node(peer)?.position.heap_index() as usize;
        self.by_position.range_of(peer, h)
    }

    /// The links `peer` holds — parent, children, adjacent nodes and both
    /// routing tables — read from the routing plane.
    #[inline]
    pub fn links(&self, peer: PeerId) -> Option<Links<'_>> {
        let position = self.node(peer)?.position;
        Some(Links::new(&self.by_position, peer, position))
    }

    /// The peer occupying a logical position, if any.
    pub fn peer_at(&self, position: Position) -> Option<PeerId> {
        self.by_position.get(position)
    }

    /// Iterates over every live node, in peer-id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (PeerId, &BatonNode)> + '_ {
        self.nodes.iter()
    }

    /// Height of the tree: `1 + max level` of any occupied position
    /// (an empty overlay has height 0).  O(levels), from the per-level
    /// occupancy counters of the position map.
    pub fn height(&self) -> u32 {
        self.by_position.height()
    }

    /// Histogram of the number of nodes involved in each load-balancing
    /// restructuring shift (Figure 8(h)).
    pub fn balance_shift_histogram(&self) -> &Histogram {
        &self.balance_shift_sizes
    }

    /// A uniformly random live peer, or `None` if the overlay is empty.
    ///
    /// O(1): one index draw into the directory's sorted live-peer list
    /// ([`PeerDirectory::sample`]).
    pub fn random_peer(&mut self) -> Option<PeerId> {
        let peer = self.nodes.sample(&mut self.rng)?;
        // Unrepaired failures keep their peer-list slot (their slice is
        // still owned, just dark), but a dead peer cannot issue operations:
        // redraw until a live one comes up.  The extra draws only happen
        // while `dead_peers` is non-empty, so legacy (immediately repaired)
        // runs consume exactly one draw per call, as before.
        if self.dead_peers.is_empty() || self.net.is_alive(peer) {
            return Some(peer);
        }
        for _ in 0..4 * self.nodes.len() {
            let peer = self.nodes.sample(&mut self.rng)?;
            if self.net.is_alive(peer) {
                return Some(peer);
            }
        }
        self.peers()
            .iter()
            .find(|p| self.net.is_alive(**p))
            .copied()
    }

    /// The replication degree k in effect (1 = no replication).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Highest replication degree the adjacent-link placement rule supports:
    /// the owner plus its two in-order adjacent neighbours.
    pub const MAX_REPLICATION: usize = 3;

    /// The peers holding the k−1 replica copies of `peer`'s slice, per the
    /// adjacent-link placement rule: the right adjacent first, then the
    /// left.  Empty at k = 1.  Dead targets are included — callers decide
    /// whether a dead replica still counts (it does not for failover).
    pub fn replica_targets(&self, peer: PeerId) -> Vec<PeerId> {
        self.replica_pair(peer).into_iter().flatten().collect()
    }

    /// [`replica_targets`](Self::replica_targets) without the allocation:
    /// the at most `MAX_REPLICATION − 1` targets in preference order,
    /// `Some`s first.
    pub(crate) fn replica_pair(&self, peer: PeerId) -> [Option<PeerId>; 2] {
        if self.replication <= 1 {
            return [None; 2];
        }
        let Some(links) = self.links(peer) else {
            return [None; 2];
        };
        let other = |side| links.adjacent(side).map(|l| l.peer).filter(|p| *p != peer);
        let right = other(Side::Right);
        let left = other(Side::Left).filter(|p| Some(*p) != right);
        match right {
            Some(_) if self.replication > 2 => [right, left],
            Some(_) => [right, None],
            None => [left, None],
        }
    }

    /// `true` if at least one replica target of `peer` is currently alive —
    /// the condition for a fast (replica-streamed) repair and for zero data
    /// loss when the peer fails.
    pub fn replica_survives(&self, peer: PeerId) -> bool {
        self.replica_pair(peer)
            .into_iter()
            .flatten()
            .any(|t| self.net.is_alive(t))
    }

    /// Charges the k−1 replica-copy notifications a write to `source`'s
    /// slice costs, sent by `sender` (the alive node that terminated the
    /// walk) to every alive replica target of `source`.  Returns the number
    /// of messages charged — always 0 at k = 1.
    pub(crate) fn charge_replica_copies(
        &mut self,
        op: OpScope,
        sender: PeerId,
        source: PeerId,
    ) -> u64 {
        if self.replication <= 1 {
            return 0;
        }
        let mut copies = 0u64;
        for target in self.replica_pair(source).into_iter().flatten() {
            if target != sender && self.net.is_alive(target) {
                self.notify(op, "replicate.copy", sender, target);
                copies += 1;
            }
        }
        copies
    }

    /// Charges the replica-handoff notifications a membership change costs
    /// at k > 1: the node whose slice boundaries moved re-seeds its replica
    /// targets with the slice content.  Returns the number of messages
    /// charged — always 0 at k = 1.
    pub(crate) fn charge_replica_handoffs(&mut self, op: OpScope, peer: PeerId) -> u64 {
        if self.replication <= 1 {
            return 0;
        }
        let mut handoffs = 0u64;
        for target in self.replica_pair(peer).into_iter().flatten() {
            if self.net.is_alive(target) {
                self.notify(op, "replication.handoff", peer, target);
                handoffs += 1;
            }
        }
        handoffs
    }

    /// Number of messages received by each peer, grouped by tree level —
    /// the per-level access load of Figure 8(f).
    pub fn access_load_by_level(&self) -> Vec<(u32, f64)> {
        let mut per_level: Vec<(u64, u64)> = Vec::new();
        for (peer, node) in self.iter_nodes() {
            let received = self.net.stats().received_count(peer);
            let level = node.position.level() as usize;
            if per_level.len() <= level {
                per_level.resize(level + 1, (0, 0));
            }
            per_level[level].0 += received;
            per_level[level].1 += 1;
        }
        per_level
            .into_iter()
            .enumerate()
            .filter(|(_, (_, count))| *count > 0)
            .map(|(level, (msgs, count))| (level as u32, msgs as f64 / count as f64))
            .collect()
    }

    // ------------------------------------------------------------------
    // Shared internal helpers (used by the protocol modules)
    // ------------------------------------------------------------------

    /// Read access to a node, as a [`Result`].
    #[inline]
    pub(crate) fn node_ref(&self, peer: PeerId) -> Result<&BatonNode> {
        self.node(peer).ok_or(BatonError::UnknownPeer(peer))
    }

    /// Mutable access to a node, as a [`Result`].
    #[inline]
    pub(crate) fn node_mut(&mut self, peer: PeerId) -> Result<&mut BatonNode> {
        self.node_opt_mut(peer).ok_or(BatonError::UnknownPeer(peer))
    }

    /// Mutable access to a node, or `None`.  Every write to a node goes
    /// through here or [`node_mut`](Self::node_mut), which logs the peer
    /// for the snapshot exporter.
    #[inline]
    pub(crate) fn node_opt_mut(&mut self, peer: PeerId) -> Option<&mut BatonNode> {
        self.changes().note(Change::Peer(peer));
        self.nodes.get_mut(peer)
    }

    /// Adds `peer`'s node to the overlay.
    pub(crate) fn insert_node(&mut self, peer: PeerId, node: BatonNode) {
        self.changes().note(Change::Peer(peer));
        self.nodes.insert(peer, node);
    }

    /// Removes `peer`'s node from the overlay.
    pub(crate) fn remove_node(&mut self, peer: PeerId) -> Option<BatonNode> {
        self.changes().note(Change::Peer(peer));
        self.nodes.remove(peer)
    }

    /// The snapshot exporter's change log.
    #[inline]
    pub(crate) fn changes(&mut self) -> &mut ChangeLog {
        let exporter = self.exporter.get_mut();
        &mut exporter.unwrap_or_else(PoisonError::into_inner).log
    }

    /// The range `peer` manages, as a [`Result`].
    #[inline]
    pub(crate) fn range_ref(&self, peer: PeerId) -> Result<KeyRange> {
        self.range_of(peer).ok_or(BatonError::UnknownPeer(peer))
    }

    /// The links of `peer`, as a [`Result`].
    #[inline]
    pub(crate) fn links_of(&self, peer: PeerId) -> Result<Links<'_>> {
        self.links(peer).ok_or(BatonError::UnknownPeer(peer))
    }

    /// Maximum number of hops a forwarding walk may take before it is
    /// declared a routing loop: [`WALK_LIMIT_FACTOR`] times the tree height,
    /// at least 32.
    pub(crate) fn walk_limit(&self) -> u32 {
        let height = self.height().max(1);
        (height * WALK_LIMIT_FACTOR).max(32)
    }

    /// Transmits one protocol message of the given kind from `from` to `to`,
    /// charging it to `op`.  Returns `Ok(true)` if the destination was
    /// alive, `Ok(false)` if the delivery failed (dead destination).
    pub(crate) fn hop(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        hop_no: u32,
        message_kind: &'static str,
    ) -> Result<bool> {
        // Link classification is trace-only work: skip the sender lookup
        // entirely on untraced runs so the hot path stays unchanged.
        let kind = if self.net.trace_enabled() {
            self.classify_link(from, to)
        } else {
            LinkKind::Other
        };
        self.net
            .transmit(op, from, to, hop_no, kind, message_kind)
            .map_err(|_| BatonError::PeerNotAlive(from))
    }

    /// The class of the link a `from → to` hop travels, from the sender's
    /// view: parent, child, adjacent, or a left/right routing-table entry
    /// (paper §II).  `Other` when the sender is unknown or holds no link to
    /// `to` (e.g. a §III-D detour to a neighbour's child).
    fn classify_link(&self, from: PeerId, to: PeerId) -> LinkKind {
        let Some(node) = self.node(from) else {
            return LinkKind::Other;
        };
        let links = Links::new(&self.by_position, from, node.position);
        let links_to = |link: Option<NodeLink>| link.is_some_and(|l| l.peer == to);
        let in_table = |target: &BatonNode| {
            self.peer_at(target.position) == Some(to)
                && node.table_slot_of(target.position).is_some()
        };
        if links_to(links.parent()) {
            LinkKind::Parent
        } else if Side::BOTH.into_iter().any(|s| links_to(links.child(s))) {
            LinkKind::Child
        } else if Side::BOTH.into_iter().any(|s| links_to(links.adjacent(s))) {
            LinkKind::Adjacent
        } else if self.node(to).is_some_and(in_table) {
            LinkKind::RoutingTable
        } else {
            LinkKind::Other
        }
    }

    /// Runs `body` inside a fresh accounting scope, finished on every exit:
    /// an `Err` (an unreachable key, a repair colliding with another failure)
    /// that left its op open at the front of the live window would block
    /// [`baton_net::MessageStats::retire_finished`] for the rest of the run.
    pub(crate) fn in_op<T>(
        &mut self,
        label: &str,
        body: impl FnOnce(&mut Self, OpScope) -> Result<T>,
    ) -> Result<T> {
        let op = self.net.begin_op(label);
        let result = body(self, op);
        self.net.finish_op(op);
        result
    }

    /// Charges a notification message (no reply modelled) to `op`.
    pub(crate) fn notify(&mut self, op: OpScope, kind: &'static str, from: PeerId, to: PeerId) {
        self.net.count_message(op, kind, from, to);
    }

    /// Registers that `peer`, managing `range`, now occupies `position`.
    pub(crate) fn occupy(&mut self, position: Position, peer: PeerId, range: KeyRange) {
        self.changes().note(Change::Position(position.heap_index()));
        self.by_position.insert(position, peer, range);
    }

    /// Removes the occupancy record for `position` if it is held by `peer`.
    pub(crate) fn vacate(&mut self, position: Position, peer: PeerId) {
        if self.by_position.get(position) == Some(peer) {
            self.changes().note(Change::Position(position.heap_index()));
            self.by_position.remove(position);
        }
    }

    /// Sets `peer`'s key range in the routing plane ([`PositionMap`]), its
    /// one record, and logs the peer for the snapshot exporter.
    pub(crate) fn set_range(&mut self, peer: PeerId, range: KeyRange) -> Result<()> {
        let h = self.node_ref(peer)?.position.heap_index() as usize;
        self.changes().note(Change::Peer(peer));
        self.by_position.set_range(peer, h, range);
        Ok(())
    }

    /// Sends one `kind` notification from `from` to every target, in target
    /// order.  Returns the number of messages charged.
    pub(crate) fn fan_out(
        &mut self,
        op: OpScope,
        kind: &'static str,
        from: PeerId,
        targets: &[PeerId],
    ) -> u64 {
        for &target in targets {
            self.notify(op, kind, from, target);
        }
        targets.len() as u64
    }

    /// Informs the nodes holding a link to `peer` of its current state, one
    /// notification each.  Returns the number of messages sent.
    pub(crate) fn broadcast_link_update(
        &mut self,
        op: OpScope,
        peer: PeerId,
        what: LinkUpdate,
    ) -> Result<u64> {
        let links = self.links_of(peer)?;
        let (kind, targets) = match what {
            LinkUpdate::Range => ("table.range_update", links.linked_peers()),
            LinkUpdate::Children => ("table.child_update", links.table_peers().collect()),
            LinkUpdate::RangeAndChildren => ("table.child_update", links.linked_peers()),
        };
        Ok(self.fan_out(op, kind, peer, &targets))
    }

    /// Ensures `key` lies inside the overlay's current key domain (the
    /// configured domain, possibly grown by leftmost/rightmost expansion).
    pub(crate) fn check_key(&self, key: Key) -> Result<()> {
        if self.domain.contains(key) {
            Ok(())
        } else {
            Err(BatonError::KeyOutOfDomain(key))
        }
    }

    /// Records `peer` as dead-but-unrepaired (it keeps its peer-list slot).
    pub(crate) fn mark_dead(&mut self, peer: PeerId) {
        if !self.dead_peers.contains(&peer) {
            self.dead_peers.push(peer);
        }
    }

    /// Clears the dead-but-unrepaired record of `peer` after its repair.
    pub(crate) fn mark_repaired(&mut self, peer: PeerId) {
        self.dead_peers.retain(|p| *p != peer);
    }

    /// Ensures `peer` is a live member of the overlay.
    pub(crate) fn check_alive(&self, peer: PeerId) -> Result<()> {
        if self.node(peer).is_none() {
            return Err(BatonError::UnknownPeer(peer));
        }
        if !self.net.is_alive(peer) {
            return Err(BatonError::PeerNotAlive(peer));
        }
        Ok(())
    }
}

impl Overlay for BatonSystem {
    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities {
            range_queries: true,
        }
    }

    /// Number of live nodes in the overlay.
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of data items stored across all nodes.
    fn total_items(&self) -> usize {
        self.iter_nodes().map(|(_, n)| n.store.len()).sum()
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// Approximate resident bytes of per-peer protocol state, modelled on
    /// what a real peer holds: [`PEER_STATE_BYTES`] per slot of the node
    /// slab at its allocated capacity ([`PeerDirectory::slot_capacity`],
    /// departures' slots included — the rule every committed BATON
    /// bytes-per-peer row was produced with), plus every live node's routing
    /// tables and local store ([`BatonNode::estimated_state_bytes`]).  The
    /// shared network substrate and the routing plane are excluded; this is
    /// the figure the perf harness divides by
    /// [`node_count`](Self::node_count) for its bytes-per-peer rows.
    fn estimated_state_bytes(&self) -> u64 {
        let slab = self.nodes.slot_capacity() as u64 * PEER_STATE_BYTES;
        let heap: u64 = self
            .nodes
            .values()
            .map(|node| node.estimated_state_bytes() - PEER_STATE_BYTES)
            .sum();
        let peers = (self.nodes.list_capacity() * std::mem::size_of::<PeerId>()) as u64;
        slab + heap + peers
    }

    fn routing_snapshot(&self) -> Option<RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    /// All live peers, sorted by id — a borrowed view of the sampling list,
    /// cloned by callers that mutate the overlay while iterating.
    fn peers(&self) -> &[PeerId] {
        self.nodes.peers()
    }

    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        Ok((&BatonSystem::join_random(self)?).into())
    }

    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        Ok((&BatonSystem::leave_random(self)?).into())
    }

    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        Ok((&self.leave(peer)?).into())
    }

    fn fail_random(&mut self) -> OverlayResult<ChurnCost> {
        let victim = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        self.fail_peer(victim)
    }

    fn fail_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        Ok((&self.fail(peer)?).into())
    }

    /// Sets the replication degree.  BATON's placement rule puts each key's
    /// k−1 extra copies on the owner's adjacent-link neighbours, so at most
    /// [`MAX_REPLICATION`](Self::MAX_REPLICATION) copies exist.
    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        if k == 0 || k > Self::MAX_REPLICATION {
            return Err(OverlayError::Op(format!(
                "replication degree {k} outside 1..={}",
                Self::MAX_REPLICATION
            )));
        }
        self.replication = k;
        self.changes().note_all();
        Ok(())
    }

    fn fail_peer_deferred(
        &mut self,
        peer: PeerId,
        policy: &RepairPolicy,
    ) -> OverlayResult<SimTime> {
        Ok(self.fail_deferred(peer, policy)?)
    }

    fn repair_fast_eligible(&self, peer: PeerId) -> bool {
        self.replication > 1
            && self.node(peer).is_some()
            && !self.net.is_alive(peer)
            && self.replica_survives(peer)
    }

    fn repair_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        match self.recover_failed(peer) {
            Ok(report) => Ok((&report).into()),
            // A victim chosen as replacement for an earlier repair was
            // already absorbed into the tree: nothing left to repair.
            Err(BatonError::UnknownPeer(_)) => Ok(ChurnCost::default()),
            Err(e) => Err(e.into()),
        }
    }

    /// Places `data` directly into the owning nodes' stores, charging no
    /// messages — the data-load analogue of
    /// [`bulk_build`](Self::bulk_build).  Each key lands at the node whose
    /// range contains it, the same node a routed insert reaches, so
    /// subsequent queries see exactly the dataset a routed load produces.
    /// Keys outside the domain are absorbed by the boundary nodes via the
    /// leftmost/rightmost expansion a routed insert performs; `Key::MAX`,
    /// which a routed insert refuses, is skipped.
    ///
    /// Load balancing is not triggered: like bulk construction, a direct
    /// load models an out-of-band transfer, not a protocol exchange.
    fn load_direct(&mut self, data: &[(u64, u64)]) -> bool {
        self.changes().note_all();
        // The plane's in-order chain lists the owners in key order.
        let plane = &self.by_position;
        let owners: Vec<(Key, PeerId)> = (plane.chain())
            .map(|h| plane.at(h).expect("the chain links occupied positions"))
            .map(|(peer, range)| (range.low(), peer))
            .collect();
        if owners.is_empty() {
            return true;
        }
        // One stable sort, then a merge-style pass with a monotonic cursor:
        // every item of a node arrives while that node is cache-hot, instead
        // of a random binary search per item.  The stable sort keeps
        // duplicate keys in dataset order, so per-key value order matches a
        // routed load exactly.
        let mut sorted = data.to_vec();
        sorted.sort_by_key(|&(key, _)| key);
        let mut cursor = 0usize;
        for &(key, value) in &sorted {
            if key == Key::MAX {
                continue;
            }
            while cursor + 1 < owners.len() && owners[cursor + 1].0 <= key {
                cursor += 1;
            }
            let (_, peer) = owners[cursor];
            if key < self.domain.low() {
                self.domain = self.domain.extend_low(key);
            } else if key >= self.domain.high() {
                self.domain = self.domain.extend_high(key + 1);
            }
            let Some(node) = self.node_opt_mut(peer) else {
                continue;
            };
            node.store.insert(key, value);
            let h = node.position.heap_index() as usize;
            let range = self.by_position.range_of(peer, h).expect("on the chain");
            if range.contains(key) {
                continue;
            }
            let range = if key < range.low() {
                range.extend_low(key)
            } else {
                range.extend_high(key + 1)
            };
            self.set_range(peer, range).expect("resolved above");
        }
        true
    }

    fn insert(&mut self, key: u64, value: u64) -> OverlayResult<OpCost> {
        Ok((&BatonSystem::insert(self, key, value)?).into())
    }

    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        Ok((&BatonSystem::delete(self, key)?).into())
    }

    /// Exact-match query from a uniformly random node, reporting costs and
    /// the match count only: the matched values are never materialised.
    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        let issuer = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        let walk = self.search_exact_walk(issuer, key)?;
        let matches = self.node_ref(walk.data)?.store.get(key).len();
        Ok(OpCost {
            messages: walk.messages,
            matches,
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    /// Range query from a uniformly random node, reporting costs and the
    /// match count only: the sweep counts keys in place.  An inverted range
    /// is empty, like one outside the domain: the walk clamps it away and
    /// answers without a message.
    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost> {
        let range = KeyRange::new(low, high.max(low));
        let issuer = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        let mut matches = 0usize;
        let (messages, nodes_visited) = self.range_walk(issuer, range, |node, clamped| {
            matches += node.store.count_in(clamped)
        })?;
        Ok(OpCost {
            messages,
            matches,
            nodes_visited,
            balance_messages: 0,
        })
    }

    fn validate(&self) -> std::result::Result<(), String> {
        crate::validate(self).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_system_properties() {
        let system = BatonSystem::new(BatonConfig::default(), 1);
        assert!(system.is_empty());
        assert_eq!(system.node_count(), 0);
        assert_eq!(system.height(), 0);
        assert_eq!(system.root(), None);
        assert_eq!(system.total_items(), 0);
        assert!(system.peers().is_empty());
        assert_eq!(system.domain(), KeyRange::paper_domain());
    }

    #[test]
    fn bootstrap_creates_root_over_whole_domain() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        let root = system.bootstrap().unwrap();
        assert_eq!(system.node_count(), 1);
        assert_eq!(system.root(), Some(root));
        assert_eq!(system.height(), 1);
        assert_eq!(system.node(root).unwrap().position, Position::ROOT);
        assert_eq!(system.range_of(root), Some(KeyRange::paper_domain()));
        assert!(system.links(root).unwrap().is_leaf());
        assert_eq!(system.peer_at(Position::ROOT), Some(root));
    }

    #[test]
    fn bootstrap_twice_is_rejected() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        system.bootstrap().unwrap();
        assert!(matches!(
            system.bootstrap(),
            Err(BatonError::InvariantViolation(_))
        ));
    }

    #[test]
    fn random_peer_on_empty_system_is_none() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        assert_eq!(system.random_peer(), None);
        system.bootstrap().unwrap();
        assert!(system.random_peer().is_some());
    }

    #[test]
    fn check_key_respects_domain() {
        let config = BatonConfig::default().with_domain(KeyRange::new(10, 20));
        let system = BatonSystem::new(config, 1);
        assert!(system.check_key(15).is_ok());
        assert_eq!(system.check_key(5), Err(BatonError::KeyOutOfDomain(5)));
        assert_eq!(system.check_key(20), Err(BatonError::KeyOutOfDomain(20)));
    }

    #[test]
    fn check_alive_distinguishes_unknown_and_dead() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        let root = system.bootstrap().unwrap();
        assert!(system.check_alive(root).is_ok());
        assert_eq!(
            system.check_alive(PeerId(999)),
            Err(BatonError::UnknownPeer(PeerId(999)))
        );
        system.net.fail_peer(root);
        assert_eq!(
            system.check_alive(root),
            Err(BatonError::PeerNotAlive(root))
        );
    }

    #[test]
    fn walk_limit_scales_with_height() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        assert!(system.walk_limit() >= 32);
        system.bootstrap().unwrap();
        let limit1 = system.walk_limit();
        assert!(limit1 >= WALK_LIMIT_FACTOR);
    }

    #[test]
    fn baton_is_fully_capable_through_the_trait() {
        let mut overlay: Box<dyn Overlay> =
            Box::new(BatonSystem::build(BatonConfig::default(), 1, 30).unwrap());
        assert!(overlay.capabilities().range_queries);
        assert_eq!(overlay.node_count(), 30);

        let insert = overlay.insert(123_456, 7).unwrap();
        assert!(insert.messages > 0);
        assert_eq!(overlay.total_items(), 1);
        let hit = overlay.search_exact(123_456).unwrap();
        assert_eq!(hit.matches, 1);
        let range = overlay.search_range(1, 1_000_000_000).unwrap();
        assert_eq!(range.matches, 1);
        assert!(range.nodes_visited >= 1);
        let gone = overlay.delete(123_456).unwrap();
        assert_eq!(gone.matches, 1);

        let join = overlay.join_random().unwrap();
        assert!(join.locate_messages + join.update_messages > 0);
        overlay.leave_random().unwrap();
        assert_eq!(overlay.node_count(), 30);
        overlay.validate().unwrap();
    }

    /// Every link target is classified by the first link naming it, in
    /// the paper's order; a peer named by no link is `Other`.
    #[test]
    fn hops_are_classified_by_the_link_the_sender_holds() {
        let system = BatonSystem::build(BatonConfig::default(), 3, 40).unwrap();
        let mut seen = Vec::new();
        for &peer in system.peers() {
            let links = system.links(peer).unwrap();
            let names = |link: Option<NodeLink>, target| link.is_some_and(|l| l.peer == target);
            for target in links.link_targets() {
                let expected = if names(links.parent(), target) {
                    LinkKind::Parent
                } else if Side::BOTH
                    .into_iter()
                    .any(|s| names(links.child(s), target))
                {
                    LinkKind::Child
                } else if Side::BOTH
                    .into_iter()
                    .any(|s| names(links.adjacent(s), target))
                {
                    LinkKind::Adjacent
                } else {
                    LinkKind::RoutingTable
                };
                assert_eq!(system.classify_link(peer, target), expected);
                seen.push(expected);
            }
            let linked = links.linked_peers();
            let other = system
                .peers()
                .iter()
                .find(|p| **p != peer && !linked.contains(p));
            if let Some(&other) = other {
                assert_eq!(system.classify_link(peer, other), LinkKind::Other);
            }
        }
        use LinkKind::{Adjacent, Child, Parent, RoutingTable};
        for kind in [Parent, Child, Adjacent, RoutingTable] {
            assert!(seen.contains(&kind), "{kind:?}");
        }
    }

    #[test]
    fn baton_failures_report_lost_items_through_the_trait() {
        let mut overlay: Box<dyn Overlay> =
            Box::new(BatonSystem::build(BatonConfig::default(), 2, 20).unwrap());
        for i in 0..100u64 {
            overlay.insert(1 + i * 9_999_991, i).unwrap();
        }
        let before = overlay.total_items();
        let cost = overlay.fail_random().unwrap();
        assert_eq!(overlay.node_count(), 19);
        assert_eq!(overlay.total_items() + cost.lost_items, before);
        overlay.validate().unwrap();
    }
}
