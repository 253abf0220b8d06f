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
//! statistics.  There are two documented exceptions:
//!
//! 1. [`crate::protocol::restructure`]: after a restructuring shift the
//!    affected links are rebuilt from the global position map, with messages
//!    charged per the paper's cost model, because simulating the link-repair
//!    handshakes peer by peer adds no fidelity to the message counts the
//!    paper reports.
//! 2. [`crate::protocol::search`]: the §IV-A walk reads a hop's first
//!    candidate and its termination test from the routing plane (the
//!    position map, which records every occupant's current range) instead of
//!    from the forwarding node's routing table.  The answer is the same
//!    peer: `validate` checks 5 and 8 say every table slot names the real
//!    occupant of its position with that occupant's current range, so the
//!    farthest matching slot is the farthest matching occupied position,
//!    and check 10 says the plane records exactly those occupants and
//!    ranges.  Messages, hops and every statistic are unchanged; only the
//!    host's memory loads differ.  Debug builds assert the equality on
//!    every hop, and a release differential checks it under random churn.
//!
//! ### Membership fan-out
//!
//! Every notify-and-update loop of the membership protocols goes through
//! [`BatonSystem::fan_out`].  Its contract: first the update is applied to
//! every target, then the notifications are charged in target order;
//! the update pass reads and writes only node state, the notification pass
//! only the network, so neither sees the other's effects and the result is
//! that of an interleaved loop.  A receiver does O(1) work: the
//! notification carries the sender's position, which names the one
//! routing-table slot to touch ([`BatonNode::table_slot_of`]).

use std::sync::{Mutex, PoisonError};

use baton_net::serve::RoutingSnapshot;
use baton_net::{
    ChurnCost, Histogram, LinkKind, OpCost, OpScope, Overlay, OverlayCapabilities, OverlayError,
    OverlayResult, PeerDirectory, PeerId, RepairPolicy, SimNetwork, SimRng, SimTime,
};

use crate::config::BatonConfig;
use crate::error::{BatonError, Result};
use crate::node::BatonNode;
use crate::position::Position;
use crate::range::{Key, KeyRange};
use crate::routing::NodeLink;
use crate::snapshot::{Change, ChangeLog, Exporter};

/// Safety bound on forwarding walks, as a multiple of the tree height.
/// Protocol walks that exceed it abort with [`BatonError::RoutingLoop`];
/// this never triggers on a consistent tree and exists to turn protocol bugs
/// into loud errors instead of infinite loops.
const WALK_LIMIT_FACTOR: u32 = 8;

/// One position of the [`PositionMap`]: its occupant, if any, and the key
/// range that occupant manages now (meaningless while unoccupied).  24 bytes.
#[derive(Clone, Copy, Debug)]
struct PlaneSlot {
    range: KeyRange,
    peer: Option<PeerId>,
}

const _: () = assert!(std::mem::size_of::<PlaneSlot>() == 24);

impl PlaneSlot {
    fn empty() -> Self {
        Self {
            range: KeyRange::new(0, 0),
            peer: None,
        }
    }
}

/// The routing plane: one flat array indexed by [`Position::heap_index`]
/// whose entries hold each occupied position's peer and that peer's current
/// key range.
///
/// It is the simulator's position index — restructuring probes occupancy
/// through it, the snapshot exporter reads slots from it — and the §IV-A
/// walk reads a hop's first candidate and termination test from it instead
/// of loading the node and its routing table (see
/// [`crate::protocol::search`]).  It changes only through
/// [`BatonSystem::occupy`] / [`BatonSystem::vacate`], which log the position
/// for the exporter, and [`BatonSystem::set_range`], which logs the peer;
/// `validate` check 10 holds it to the nodes' own state.
///
/// BATON keeps the tree balanced, so the occupied positions of an `N`-node
/// overlay span `O(N)` heap indices.  The array grows lazily to the highest
/// index occupied; index 0 is never a position and stays empty.
#[derive(Clone, Debug, Default)]
pub(crate) struct PositionMap {
    slots: Vec<PlaneSlot>,
    /// Occupied positions per level, so the tree height — consulted by
    /// every search walk for its loop budget — is an O(levels) scan
    /// instead of an O(N) sweep over the nodes.
    occupied: Vec<usize>,
}

impl PositionMap {
    /// Occupant and range at heap index `h`, if occupied.
    #[inline]
    pub(crate) fn at(&self, h: usize) -> Option<(PeerId, KeyRange)> {
        let slot = self.slots.get(h)?;
        Some((slot.peer?, slot.range))
    }

    /// The peer occupying `position`, if any.
    #[inline]
    pub(crate) fn get(&self, position: Position) -> Option<PeerId> {
        self.slots.get(position.heap_index() as usize)?.peer
    }

    /// `true` if `position` is occupied.
    #[inline]
    pub(crate) fn contains(&self, position: Position) -> bool {
        self.get(position).is_some()
    }

    /// Records that `peer`, managing `range`, occupies `position`.
    pub(crate) fn insert(&mut self, position: Position, peer: PeerId, range: KeyRange) {
        let level = position.level() as usize;
        if self.occupied.len() <= level {
            self.occupied.resize(level + 1, 0);
        }
        let h = position.heap_index() as usize;
        if self.slots.len() <= h {
            self.slots.resize(h + 1, PlaneSlot::empty());
        }
        let slot = &mut self.slots[h];
        if slot.peer.is_none() {
            self.occupied[level] += 1;
        }
        *slot = PlaneSlot {
            range,
            peer: Some(peer),
        };
    }

    /// Clears the occupancy record of `position`.
    pub(crate) fn remove(&mut self, position: Position) {
        if let Some(slot) = self.slots.get_mut(position.heap_index() as usize) {
            if slot.peer.is_some() {
                *slot = PlaneSlot::empty();
                self.occupied[position.level() as usize] -= 1;
            }
        }
    }

    /// Records `peer`'s new range, if `peer` occupies `position` (a node
    /// spliced in ahead of its restructuring has no position yet).
    pub(crate) fn set_range(&mut self, position: Position, peer: PeerId, range: KeyRange) {
        if let Some(slot) = self.slots.get_mut(position.heap_index() as usize) {
            if slot.peer == Some(peer) {
                slot.range = range;
            }
        }
    }

    /// `1 + deepest occupied level` (0 when nothing is occupied).
    pub(crate) fn height(&self) -> u32 {
        self.occupied
            .iter()
            .rposition(|&count| count > 0)
            .map(|level| level as u32 + 1)
            .unwrap_or(0)
    }

    /// Occupied positions per level, shallowest first.
    pub(crate) fn level_counts(&self) -> &[usize] {
        &self.occupied
    }

    /// One past the highest heap index the array covers: every occupied
    /// heap index is below it.
    pub(crate) fn heap_len(&self) -> usize {
        self.slots.len()
    }

    /// Every occupied heap index with its occupant and range, in heap order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, PeerId, KeyRange)> + '_ {
        let occupied = |(h, slot): (usize, &PlaneSlot)| Some((h, slot.peer?, slot.range));
        self.slots.iter().enumerate().filter_map(occupied)
    }
}

/// What a [`BatonSystem::broadcast_link_update`] refreshes at its receivers.
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
    pub(crate) root: Option<PeerId>,
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
            root: None,
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
        let node = BatonNode::new(peer, Position::ROOT, self.domain);
        self.occupy(Position::ROOT, peer, self.domain);
        self.insert_node(peer, node);
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
        self.root
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
        let Some(node) = self.node(peer) else {
            return [None; 2];
        };
        let other = |link: &Option<NodeLink>| link.as_ref().map(|l| l.peer).filter(|p| *p != peer);
        let right = other(&node.right_adjacent);
        let left = other(&node.left_adjacent).filter(|p| Some(*p) != right);
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

    /// The current link (address, position, range) of `peer`.
    pub(crate) fn link_of(&self, peer: PeerId) -> Result<NodeLink> {
        Ok(self.node_ref(peer)?.link())
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
    /// `to` (e.g. a §III-D fallback jump assembled from stale state).
    fn classify_link(&self, from: PeerId, to: PeerId) -> LinkKind {
        let Some(node) = self.node(from) else {
            return LinkKind::Other;
        };
        let links_to = |link: &Option<NodeLink>| link.as_ref().is_some_and(|l| l.peer == to);
        if links_to(&node.parent) {
            LinkKind::Parent
        } else if links_to(&node.left_child) || links_to(&node.right_child) {
            LinkKind::Child
        } else if links_to(&node.left_adjacent) || links_to(&node.right_adjacent) {
            LinkKind::Adjacent
        } else if node.table_peers().any(|peer| peer == to) {
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
        if position.is_root() {
            self.root = Some(peer);
        }
    }

    /// Removes the occupancy record for `position` if it is held by `peer`.
    pub(crate) fn vacate(&mut self, position: Position, peer: PeerId) {
        if self.by_position.get(position) == Some(peer) {
            self.changes().note(Change::Position(position.heap_index()));
            self.by_position.remove(position);
            if position.is_root() && self.root == Some(peer) {
                self.root = None;
            }
        }
    }

    /// Sets `peer`'s key range.  Every range write goes through here, so the
    /// routing plane ([`PositionMap`]) always records the range the node
    /// manages.
    pub(crate) fn set_range(&mut self, peer: PeerId, range: KeyRange) -> Result<()> {
        let node = self.node_mut(peer)?;
        node.range = range;
        let position = node.position;
        self.by_position.set_range(position, peer, range);
        Ok(())
    }

    /// Sends one `kind` notification from `from` to every target, each of
    /// which applies `update` to its own state.  Returns the number of
    /// messages charged.
    ///
    /// Two passes, in this order: the update pass touches one cold node per
    /// target and nothing else, so the targets' cache misses overlap; the
    /// notifications are then charged in target order, so the latency
    /// stream, the op's completion time, the per-peer receive counters and
    /// the route recorder see the sequence an interleaved loop would
    /// produce.  The split is exact because neither pass reads what the
    /// other writes: `update` sees only `nodes`, `notify` only `net`.
    pub(crate) fn fan_out(
        &mut self,
        op: OpScope,
        kind: &'static str,
        from: PeerId,
        targets: &[PeerId],
        mut update: impl FnMut(&mut BatonNode),
    ) -> u64 {
        for &target in targets {
            if let Some(node) = self.node_opt_mut(target) {
                update(node);
            }
        }
        for &target in targets {
            self.notify(op, kind, from, target);
        }
        targets.len() as u64
    }

    /// Informs the nodes holding a link to `peer` of its current state, one
    /// notification each, and updates what they record about it.  Returns
    /// the number of messages sent.
    pub(crate) fn broadcast_link_update(
        &mut self,
        op: OpScope,
        peer: PeerId,
        what: LinkUpdate,
    ) -> Result<u64> {
        let node = self.node_ref(peer)?;
        let (position, range) = (node.position, node.range);
        let (left_child, right_child) = (
            node.left_child.map(|l| l.peer),
            node.right_child.map(|l| l.peer),
        );
        let (kind, targets) = match what {
            LinkUpdate::Range => ("table.range_update", node.linked_peers()),
            LinkUpdate::Children => ("table.child_update", node.table_peers().collect()),
            LinkUpdate::RangeAndChildren => ("table.child_update", node.linked_peers()),
        };
        Ok(self.fan_out(op, kind, peer, &targets, |other| {
            if what != LinkUpdate::Children {
                other.update_link_range(peer, position, range);
            }
            if what != LinkUpdate::Range {
                other.update_neighbor_children(peer, position, left_child, right_child);
            }
        }))
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

    /// Approximate resident bytes of per-peer protocol state: the node slab
    /// (including `None` slots left by departures — they stay resident) plus
    /// every live node's routing tables and local store.  The shared network
    /// substrate is excluded; this is the figure the perf harness divides by
    /// [`node_count`](Self::node_count) for its bytes-per-peer rows.
    ///
    /// The slab is counted at its allocated capacity
    /// ([`PeerDirectory::slot_capacity`]): that is what is resident, and it
    /// is the rule every committed BATON bytes-per-peer row was produced
    /// with.
    fn estimated_state_bytes(&self) -> u64 {
        let slab = (self.nodes.slot_capacity() * std::mem::size_of::<Option<BatonNode>>()) as u64;
        let heap: u64 = self
            .nodes
            .values()
            .map(|node| node.estimated_state_bytes() - std::mem::size_of::<BatonNode>() as u64)
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
    /// leftmost/rightmost expansion a routed insert performs (linked peers'
    /// recorded ranges are refreshed in place); `Key::MAX`, which a routed
    /// insert refuses, is skipped.
    ///
    /// Load balancing is not triggered: like bulk construction, a direct
    /// load models an out-of-band transfer, not a protocol exchange.
    fn load_direct(&mut self, data: &[(u64, u64)]) -> bool {
        self.changes().note_all();
        let mut owners: Vec<(Key, PeerId)> = self
            .iter_nodes()
            .map(|(peer, node)| (node.range.low(), peer))
            .collect();
        owners.sort_unstable();
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
            if node.range.contains(key) {
                continue;
            }
            let range = if key < node.range.low() {
                node.range.extend_low(key)
            } else {
                node.range.extend_high(key + 1)
            };
            let (position, linked) = (node.position, node.linked_peers());
            self.set_range(peer, range).expect("resolved above");
            for other in linked {
                if let Some(other_node) = self.node_opt_mut(other) {
                    other_node.update_link_range(peer, position, range);
                }
            }
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
        let node = system.node(root).unwrap();
        assert_eq!(node.position, Position::ROOT);
        assert_eq!(node.range, KeyRange::paper_domain());
        assert!(node.is_leaf());
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
