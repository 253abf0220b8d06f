//! The [`SimNetwork`]: discrete-event message delivery, virtual time,
//! failure injection and accounting glue.
//!
//! Messages are no longer a synchronous FIFO: every send draws a link
//! latency from the network's [`LatencyModel`] and is scheduled on a
//! binary-heap event queue keyed by virtual delivery time.  Two clocks
//! cooperate:
//!
//! * the **arrival clock** (moved by [`SimNetwork::advance_to`]) is where
//!   newly issued operations begin — an open-loop workload advances it to
//!   each operation's arrival time, so operations *interleave* in virtual
//!   time instead of executing back-to-back;
//! * each operation's **frontier** (tracked in [`OpStats`]) is the delivery
//!   time of the latest hop in its request chain — the next hop departs from
//!   there, so an operation's latency is the sum of its own hop chain while
//!   independent operations overlap freely.
//!
//! [`SimNetwork::now`] reports the high-water mark over both, i.e. the
//! virtual instant the simulation has reached.  With the default
//! constant-zero latency model every delivery happens "instantly": the queue
//! degenerates to FIFO order (ties break by send sequence) and message
//! counts are bit-identical to the old count-only substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::message::{Envelope, NetMessage};
use crate::peer::{PeerId, PeerRegistry, PeerStatus};
use crate::stats::{MessageStats, OpScope};
use crate::time::{LatencyModel, SimTime};
use crate::trace::{HopRecord, LinkKind, TraceBuffer, TraceConfig};

/// Error returned by [`SimNetwork::send`] when the *sender* is not a live
/// peer (sending from a dead peer indicates a protocol bug, not a simulated
/// fault, so it is an error rather than a counted failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The sending peer is unknown to the registry.
    UnknownSender(PeerId),
    /// The sending peer exists but is not alive.
    DeadSender(PeerId),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownSender(p) => write!(f, "unknown sender {p}"),
            SendError::DeadSender(p) => write!(f, "sender {p} is not alive"),
        }
    }
}

impl std::error::Error for SendError {}

/// Delivery failure surfaced by [`SimNetwork::deliver_next`]: the destination
/// peer was dead when the message arrived.  Protocols use this to trigger
/// their fault-tolerance paths (paper §III-C/D).
#[derive(Clone, Debug)]
pub struct DeliveryError<M> {
    /// The message that could not be delivered.
    pub envelope: Envelope<M>,
    /// Status of the destination at delivery time.
    pub destination_status: Option<PeerStatus>,
}

/// One scheduled delivery in the event queue.
///
/// Ordered by `(deliver_at, seq)`: earliest delivery first, and equal
/// timestamps (the whole simulation, under the zero-latency model) fall back
/// to send order, preserving the legacy FIFO semantics exactly.
#[derive(Clone, Debug)]
struct Scheduled<M> {
    seq: u64,
    envelope: Envelope<M>,
}

impl<M> Scheduled<M> {
    fn deliver_at(&self) -> SimTime {
        self.envelope.deliver_at
    }
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at() == other.deliver_at() && self.seq == other.seq
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at(), self.seq).cmp(&(other.deliver_at(), other.seq))
    }
}

/// A deterministic discrete-event message-passing network simulator.
///
/// Every send is counted in [`MessageStats`] and scheduled for delivery at
/// `frontier(op) + latency(src, dst)`; failed deliveries (dead destination)
/// are counted separately and returned to the caller.
#[derive(Clone, Debug, Default)]
pub struct SimNetwork<M> {
    peers: PeerRegistry,
    /// Pending deliveries, earliest `(deliver_at, seq)` first.
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    next_seq: u64,
    /// Where newly issued operations begin (moved by `advance_to`).
    arrival_clock: SimTime,
    /// High-water mark of every delivery scheduled or performed.
    horizon: SimTime,
    latency: LatencyModel,
    stats: MessageStats,
    /// Opt-in route recorder; `None` (the default) is a pure `is_some`
    /// check on every hot path, so disabled tracing costs nothing.
    trace: Option<Box<TraceBuffer>>,
}

impl<M: NetMessage> SimNetwork<M> {
    /// Creates an empty network with no peers and the count-only
    /// (zero-latency) model.
    pub fn new() -> Self {
        Self::with_latency(LatencyModel::zero())
    }

    /// Creates an empty network with an explicit latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self {
            peers: PeerRegistry::new(),
            queue: BinaryHeap::new(),
            next_seq: 0,
            arrival_clock: SimTime::ZERO,
            horizon: SimTime::ZERO,
            latency,
            stats: MessageStats::new(),
            trace: None,
        }
    }

    /// Replaces the latency model.
    ///
    /// Typically called right after construction; swapping models mid-run is
    /// allowed (pending messages keep their already-drawn delivery times).
    pub fn set_latency_model(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Draws one link-latency sample for the `from → to` link at the current
    /// virtual instant, advancing the model's latency stream.
    ///
    /// Protocols use this for delays that ride on the topology but are not
    /// messages — e.g. the failure-detection round-trip that offsets a
    /// deferred repair.  The draw comes from the same seeded streams as
    /// message deliveries, so runs stay deterministic.
    pub fn sample_latency(&mut self, from: PeerId, to: PeerId) -> SimTime {
        let at = self.now();
        self.latency.sample(from, to, at)
    }

    /// The virtual instant the simulation has reached: the latest of the
    /// arrival clock and every delivery performed or scheduled.
    pub fn now(&self) -> SimTime {
        self.horizon.max(self.arrival_clock)
    }

    /// Advances the arrival clock to `at` (no-op if it is already past it).
    ///
    /// Operations begun after this call are stamped as issued at `at`; the
    /// open-loop workload runner calls this with each operation's scheduled
    /// arrival time so that independent operations overlap in virtual time.
    pub fn advance_to(&mut self, at: SimTime) {
        self.arrival_clock = self.arrival_clock.max(at);
    }

    /// Registers a new live peer.
    pub fn add_peer(&mut self) -> PeerId {
        self.peers.register()
    }

    /// Read-only access to the peer registry.
    pub fn peers(&self) -> &PeerRegistry {
        &self.peers
    }

    /// Marks a peer as failed (abrupt departure).
    pub fn fail_peer(&mut self, peer: PeerId) -> bool {
        self.peers.mark_failed(peer)
    }

    /// Marks a peer as gracefully departed.
    pub fn depart_peer(&mut self, peer: PeerId) -> bool {
        self.peers.mark_departed(peer)
    }

    /// Brings a departed/failed peer back (e.g. a leaf re-joining during
    /// load balancing).
    pub fn revive_peer(&mut self, peer: PeerId) -> bool {
        self.peers.mark_alive(peer)
    }

    /// `true` if the peer is currently alive.
    pub fn is_alive(&self, peer: PeerId) -> bool {
        self.peers.is_alive(peer)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Mutable access to statistics (used by harnesses to reset per-peer
    /// counters between experiment phases).
    pub fn stats_mut(&mut self) -> &mut MessageStats {
        &mut self.stats
    }

    /// Opens a new operation accounting scope with the given label, issued
    /// at the current arrival clock.
    pub fn begin_op(&mut self, label: &str) -> OpScope {
        let scope = self.stats.begin_op_at(label, self.arrival_clock);
        if let Some(trace) = &mut self.trace {
            trace.begin(scope.id, label, self.arrival_clock);
        }
        scope
    }

    /// Closes an operation scope, stamping the operation's completion time
    /// (the latest of its request-chain frontier and every notification it
    /// broadcast).  The operation's virtual latency becomes readable through
    /// [`OpStats::latency`](crate::stats::OpStats::latency).
    pub fn finish_op(&mut self, scope: OpScope) {
        self.stats.finish_op(scope.id);
        if let Some(trace) = &mut self.trace {
            let at = self
                .stats
                .op(scope.id)
                .and_then(|s| s.finished_at)
                .unwrap_or(self.arrival_clock);
            trace.finish(scope.id, at);
        }
    }

    /// Installs a route recorder: every sampled operation begun from now on
    /// records a [`Span`](crate::trace::Span) of its hops, bounded by the
    /// config's ring-buffer capacity.  Tracing is pure observation — it
    /// never perturbs statistics, latency draws or the event queue.
    pub fn set_trace(&mut self, config: TraceConfig) {
        self.trace = Some(Box::new(TraceBuffer::new(config)));
    }

    /// Removes and returns the route recorder, disabling tracing.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take().map(|boxed| *boxed)
    }

    /// `true` while a route recorder is installed.  Overlays check this
    /// before doing any per-hop link classification work, keeping the
    /// disabled path zero-cost.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Read-only access to the installed route recorder, if any.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_deref()
    }

    /// Sends a message from `from` to `to`, attributed to operation `op`,
    /// with an explicit hop count.
    ///
    /// The message is counted immediately (the paper counts *passing
    /// messages*, i.e. transmissions, regardless of whether the destination
    /// turns out to be dead) and scheduled for delivery at the operation's
    /// frontier plus one link-latency draw.
    pub fn send_with_hop(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        hop: u32,
        payload: M,
    ) -> Result<(), SendError> {
        self.send_with_kind(op, from, to, hop, LinkKind::Other, payload)
    }

    /// [`send_with_hop`](Self::send_with_hop) with an explicit link-kind tag
    /// for the route recorder.
    ///
    /// Overlays call this from their send sites with the class of the link
    /// the hop travels (BATON parent/child/adjacent/routing-table, Chord
    /// successor/finger, …); the tag is only consumed when tracing is
    /// enabled and never affects accounting or scheduling.
    pub fn send_with_kind(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        hop: u32,
        kind: LinkKind,
        payload: M,
    ) -> Result<(), SendError> {
        match self.peers.status(from) {
            None => return Err(SendError::UnknownSender(from)),
            Some(status) if !status.is_alive() => return Err(SendError::DeadSender(from)),
            Some(_) => {}
        }
        let bytes = payload.approximate_size();
        let message = payload.kind();
        self.stats.record_send(op.id, message, bytes, hop);
        let sent_at = self.stats.op_frontier(op.id).unwrap_or(self.arrival_clock);
        let deliver_at = sent_at + self.latency.sample(from, to, sent_at);
        self.horizon = self.horizon.max(deliver_at);
        if let Some(trace) = &mut self.trace {
            // Recorded optimistically as delivered; `deliver_next` flips
            // the flag if the destination turns out to be dead.
            let detour = self.stats.op(op.id).is_some_and(|s| s.in_detour());
            trace.record_hop(
                op.id,
                HopRecord {
                    from,
                    to,
                    hop,
                    kind,
                    message,
                    sent_at,
                    arrive_at: deliver_at,
                    delivered: true,
                    detour,
                },
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled {
            seq,
            envelope: Envelope {
                from,
                to,
                hop,
                op: op.id,
                deliver_at,
                payload,
            },
        }));
        Ok(())
    }

    /// Sends a message with hop count 1 (first hop of an operation).
    pub fn send(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        payload: M,
    ) -> Result<(), SendError> {
        self.send_with_hop(op, from, to, 1, payload)
    }

    /// Counts a message without enqueuing it for delivery.
    ///
    /// Several BATON maintenance steps are pure notifications whose replies
    /// carry no protocol state the simulation needs to model (e.g. "inform
    /// your children about the new node", paper §III-A). `count_message`
    /// charges such traffic to the operation without forcing the caller to
    /// round-trip a payload through the queue.
    ///
    /// Notifications still take time on the wire: each draws a latency and
    /// lands at `frontier(op) + latency`, extending the operation's
    /// *completion* time — but, being fire-and-forget, they run in parallel
    /// with the request chain and never push its frontier.
    pub fn count_message(&mut self, op: OpScope, kind: &'static str, from: PeerId, to: PeerId) {
        self.stats.record_send(op.id, kind, 64, 1);
        let sent_at = self.stats.op_frontier(op.id).unwrap_or(self.arrival_clock);
        let lands_at = sent_at + self.latency.sample(from, to, sent_at);
        self.horizon = self.horizon.max(lands_at);
        self.stats.extend_op_completion(op.id, lands_at);
        let delivered = self.peers.is_alive(to);
        if delivered {
            self.stats.record_delivery(to);
        } else {
            self.stats.record_failure(op.id);
        }
        if let Some(trace) = &mut self.trace {
            let detour = self.stats.op(op.id).is_some_and(|s| s.in_detour());
            trace.record_hop(
                op.id,
                HopRecord {
                    from,
                    to,
                    hop: 1,
                    kind: LinkKind::Notify,
                    message: kind,
                    sent_at,
                    arrive_at: lands_at,
                    delivered,
                    detour,
                },
            );
        }
    }

    /// Number of messages waiting for delivery.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Virtual delivery time of the next queued message, if any.
    pub fn next_delivery_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(s)| s.deliver_at())
    }

    /// Delivers the earliest queued message, advancing virtual time.
    ///
    /// * `None` — the queue is empty.
    /// * `Some(Ok(envelope))` — the destination is alive; the caller should
    ///   invoke the destination's handler.
    /// * `Some(Err(DeliveryError))` — the destination is dead; the caller
    ///   owns fault handling.  A bounce takes wire time like any delivery,
    ///   so the operation's frontier advances either way.
    #[allow(clippy::type_complexity)]
    pub fn deliver_next(&mut self) -> Option<Result<Envelope<M>, DeliveryError<M>>> {
        let Reverse(Scheduled { envelope, .. }) = self.queue.pop()?;
        self.horizon = self.horizon.max(envelope.deliver_at);
        self.stats
            .advance_op_frontier(envelope.op, envelope.deliver_at);
        let status = self.peers.status(envelope.to);
        if status.is_some_and(PeerStatus::is_alive) {
            self.stats.record_delivery(envelope.to);
            Some(Ok(envelope))
        } else {
            self.stats.record_failure(envelope.op);
            if let Some(trace) = &mut self.trace {
                trace.mark_bounce(envelope.op, envelope.to, envelope.deliver_at);
            }
            Some(Err(DeliveryError {
                envelope,
                destination_status: status,
            }))
        }
    }

    /// Discards all queued messages (used between experiment phases).
    pub fn drain_queue(&mut self) {
        self.queue.clear();
    }

    /// Messages attributed to operation `op` so far.
    pub fn op_messages(&self, op: OpScope) -> u64 {
        self.stats.op(op.id).map(|s| s.messages).unwrap_or(0)
    }
}

/// What the harness does with an overlay's network, whatever the overlay's
/// message type: read and reset statistics, move the arrival clock, swap
/// the latency model, install and collect the route recorder.
///
/// Implemented once, for every [`SimNetwork<M>`]; it exists so that
/// [`Overlay::net`](crate::Overlay::net) can hand the network out through
/// `dyn Overlay` without naming `M`.
pub trait NetView {
    /// See [`SimNetwork::stats`].
    fn stats(&self) -> &MessageStats;
    /// See [`SimNetwork::stats_mut`].
    fn stats_mut(&mut self) -> &mut MessageStats;
    /// See [`SimNetwork::now`].
    fn now(&self) -> SimTime;
    /// See [`SimNetwork::advance_to`].
    fn advance_to(&mut self, at: SimTime);
    /// See [`SimNetwork::set_latency_model`].
    fn set_latency_model(&mut self, latency: LatencyModel);
    /// See [`SimNetwork::set_trace`].
    fn set_trace(&mut self, config: TraceConfig);
    /// See [`SimNetwork::take_trace`].
    fn take_trace(&mut self) -> Option<TraceBuffer>;
}

impl<M: NetMessage> NetView for SimNetwork<M> {
    fn stats(&self) -> &MessageStats {
        SimNetwork::stats(self)
    }
    fn stats_mut(&mut self) -> &mut MessageStats {
        SimNetwork::stats_mut(self)
    }
    fn now(&self) -> SimTime {
        SimNetwork::now(self)
    }
    fn advance_to(&mut self, at: SimTime) {
        SimNetwork::advance_to(self, at);
    }
    fn set_latency_model(&mut self, latency: LatencyModel) {
        SimNetwork::set_latency_model(self, latency);
    }
    fn set_trace(&mut self, config: TraceConfig) {
        SimNetwork::set_trace(self, config);
    }
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        SimNetwork::take_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Hello,
        World,
    }

    impl NetMessage for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Hello => "hello",
                Msg::World => "world",
            }
        }
    }

    fn two_peer_net() -> (SimNetwork<Msg>, PeerId, PeerId) {
        let mut net = SimNetwork::new();
        let a = net.add_peer();
        let b = net.add_peer();
        (net, a, b)
    }

    #[test]
    fn send_and_deliver_fifo_order() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.send(op, a, b, Msg::Hello).unwrap();
        net.send(op, b, a, Msg::World).unwrap();
        assert_eq!(net.pending(), 2);
        let first = net.deliver_next().unwrap().unwrap();
        assert_eq!(first.payload, Msg::Hello);
        assert_eq!(first.to, b);
        let second = net.deliver_next().unwrap().unwrap();
        assert_eq!(second.payload, Msg::World);
        assert!(net.deliver_next().is_none());
        assert_eq!(net.stats().total_sent(), 2);
        assert_eq!(net.stats().total_delivered(), 2);
        // Zero-latency model: no virtual time passes.
        assert_eq!(net.now(), SimTime::ZERO);
    }

    #[test]
    fn sending_from_dead_peer_is_an_error() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.fail_peer(a);
        let err = net.send(op, a, b, Msg::Hello).unwrap_err();
        assert_eq!(err, SendError::DeadSender(a));
        assert_eq!(net.stats().total_sent(), 0);
    }

    #[test]
    fn sending_from_unknown_peer_is_an_error() {
        let (mut net, _a, b) = two_peer_net();
        let op = net.begin_op("test");
        let ghost = PeerId(999);
        let err = net.send(op, ghost, b, Msg::Hello).unwrap_err();
        assert_eq!(err, SendError::UnknownSender(ghost));
    }

    #[test]
    fn delivery_to_dead_peer_is_counted_and_surfaced() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.send(op, a, b, Msg::Hello).unwrap();
        net.fail_peer(b);
        let result = net.deliver_next().unwrap();
        let err = result.unwrap_err();
        assert_eq!(err.envelope.to, b);
        assert_eq!(err.destination_status, Some(PeerStatus::Failed));
        assert_eq!(net.stats().total_failed(), 1);
        assert_eq!(net.stats().total_delivered(), 0);
        // The send itself is still counted: the paper counts transmissions.
        assert_eq!(net.stats().total_sent(), 1);
        assert_eq!(net.op_messages(op), 1);
        assert_eq!(net.stats().op(op.id).unwrap().failed_deliveries, 1);
    }

    #[test]
    fn count_message_charges_op_without_queueing() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("notify");
        net.count_message(op, "notify.children", a, b);
        assert_eq!(net.pending(), 0);
        assert_eq!(net.op_messages(op), 1);
        assert_eq!(net.stats().total_delivered(), 1);
        net.fail_peer(b);
        net.count_message(op, "notify.children", a, b);
        assert_eq!(net.stats().total_failed(), 1);
    }

    #[test]
    fn revive_peer_restores_delivery() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.depart_peer(b);
        net.send(op, a, b, Msg::Hello).unwrap();
        assert!(net.deliver_next().unwrap().is_err());
        net.revive_peer(b);
        net.send(op, a, b, Msg::Hello).unwrap();
        assert!(net.deliver_next().unwrap().is_ok());
    }

    #[test]
    fn hop_counts_are_preserved_and_tracked() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("walk");
        net.send_with_hop(op, a, b, 7, Msg::Hello).unwrap();
        let env = net.deliver_next().unwrap().unwrap();
        assert_eq!(env.hop, 7);
        assert_eq!(net.stats().op(op.id).unwrap().max_hops, 7);
    }

    #[test]
    fn drain_queue_discards_pending_messages() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.send(op, a, b, Msg::Hello).unwrap();
        net.send(op, a, b, Msg::Hello).unwrap();
        net.drain_queue();
        assert_eq!(net.pending(), 0);
        assert!(net.deliver_next().is_none());
    }

    #[test]
    fn per_kind_counters() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.send(op, a, b, Msg::Hello).unwrap();
        net.send(op, a, b, Msg::Hello).unwrap();
        net.send(op, a, b, Msg::World).unwrap();
        assert_eq!(net.stats().kind_count("hello"), 2);
        assert_eq!(net.stats().kind_count("world"), 1);
    }

    #[test]
    fn constant_latency_accumulates_along_a_hop_chain() {
        let mut net: SimNetwork<Msg> =
            SimNetwork::with_latency(LatencyModel::constant(SimTime::from_millis(10)));
        let a = net.add_peer();
        let b = net.add_peer();
        let c = net.add_peer();
        let op = net.begin_op("chain");
        net.send_with_hop(op, a, b, 1, Msg::Hello).unwrap();
        let env = net.deliver_next().unwrap().unwrap();
        assert_eq!(env.deliver_at, SimTime::from_millis(10));
        net.send_with_hop(op, b, c, 2, Msg::Hello).unwrap();
        let env = net.deliver_next().unwrap().unwrap();
        assert_eq!(env.deliver_at, SimTime::from_millis(20));
        net.finish_op(op);
        assert_eq!(
            net.stats().op(op.id).unwrap().latency(),
            Some(SimTime::from_millis(20))
        );
        assert_eq!(net.now(), SimTime::from_millis(20));
    }

    #[test]
    fn operations_started_at_different_arrivals_overlap() {
        let mut net: SimNetwork<Msg> =
            SimNetwork::with_latency(LatencyModel::constant(SimTime::from_millis(10)));
        let a = net.add_peer();
        let b = net.add_peer();
        // Op 1 arrives at t=0 and takes two 10ms hops -> finishes at 20ms.
        let op1 = net.begin_op("op1");
        // Op 2 arrives at t=5ms and takes one hop -> finishes at 15ms,
        // *before* op 1, even though it is processed afterwards.
        net.advance_to(SimTime::from_millis(5));
        let op2 = net.begin_op("op2");

        net.send(op1, a, b, Msg::Hello).unwrap();
        net.deliver_next().unwrap().unwrap();
        net.send_with_hop(op1, b, a, 2, Msg::Hello).unwrap();
        net.deliver_next().unwrap().unwrap();
        net.finish_op(op1);

        net.send(op2, a, b, Msg::World).unwrap();
        net.deliver_next().unwrap().unwrap();
        net.finish_op(op2);

        let s1 = net.stats().op(op1.id).unwrap();
        let s2 = net.stats().op(op2.id).unwrap();
        assert_eq!(s1.latency(), Some(SimTime::from_millis(20)));
        assert_eq!(s2.latency(), Some(SimTime::from_millis(10)));
        assert_eq!(s2.started_at, SimTime::from_millis(5));
        assert_eq!(s2.finished_at, Some(SimTime::from_millis(15)));
        assert_eq!(net.now(), SimTime::from_millis(20));
    }

    #[test]
    fn queued_deliveries_pop_in_timestamp_order() {
        let mut net: SimNetwork<Msg> = SimNetwork::with_latency(LatencyModel::uniform(
            SimTime::from_micros(100),
            SimTime::from_millis(50),
            1234,
        ));
        let a = net.add_peer();
        let b = net.add_peer();
        // Independent ops: each message departs its own op's frontier (t=0)
        // with a random latency, so queue order != send order.
        let ops: Vec<_> = (0..32).map(|i| net.begin_op(&format!("op{i}"))).collect();
        for op in &ops {
            net.send(*op, a, b, Msg::Hello).unwrap();
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some(result) = net.deliver_next() {
            let env = result.unwrap();
            assert!(
                env.deliver_at >= last,
                "event queue went backwards: {} after {}",
                env.deliver_at,
                last
            );
            last = env.deliver_at;
            seen += 1;
        }
        assert_eq!(seen, 32);
        assert_eq!(net.now(), last.max(SimTime::ZERO));
    }

    #[test]
    fn notifications_extend_completion_but_not_the_frontier() {
        let mut net: SimNetwork<Msg> =
            SimNetwork::with_latency(LatencyModel::constant(SimTime::from_millis(10)));
        let a = net.add_peer();
        let b = net.add_peer();
        let c = net.add_peer();
        let op = net.begin_op("broadcast");
        net.send(op, a, b, Msg::Hello).unwrap();
        net.deliver_next().unwrap().unwrap();
        // Three parallel notifications from the frontier (10ms): each lands
        // at 20ms without pushing the frontier.
        for target in [a, b, c] {
            net.count_message(op, "notify", b, target);
        }
        assert_eq!(
            net.stats().op_frontier(op.id),
            Some(SimTime::from_millis(10))
        );
        net.finish_op(op);
        assert_eq!(
            net.stats().op(op.id).unwrap().latency(),
            Some(SimTime::from_millis(20))
        );
    }

    #[test]
    fn next_delivery_at_peeks_the_earliest_event() {
        let (mut net, a, b) = two_peer_net();
        assert_eq!(net.next_delivery_at(), None);
        let op = net.begin_op("peek");
        net.send(op, a, b, Msg::Hello).unwrap();
        assert_eq!(net.next_delivery_at(), Some(SimTime::ZERO));
    }

    #[test]
    fn swapping_models_keeps_pending_events() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("swap");
        net.send(op, a, b, Msg::Hello).unwrap();
        net.send(op, b, a, Msg::World).unwrap();
        net.set_latency_model(LatencyModel::regional(
            crate::time::RegionMap::new(4, 0xBA70),
            LatencyModel::constant(SimTime::from_millis(5)),
            LatencyModel::constant(SimTime::from_millis(60)),
            Vec::new(),
        ));
        assert_eq!(net.pending(), 2, "pending events survive a model swap");
        // Already-drawn delivery times are kept: both still land at t = 0.
        let first = net.deliver_next().unwrap().unwrap();
        assert_eq!(
            (first.payload, first.deliver_at),
            (Msg::Hello, SimTime::ZERO)
        );
        net.set_latency_model(LatencyModel::zero());
        let second = net.deliver_next().unwrap().unwrap();
        assert_eq!(second.payload, Msg::World);
        // Sends after the swap draw from the new model.
        net.send(op, a, b, Msg::Hello).unwrap();
        assert_eq!(net.next_delivery_at(), Some(SimTime::ZERO));
    }
}
