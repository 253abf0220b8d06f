//! The [`SimNetwork`]: per-message accounting, virtual time and failure
//! injection.
//!
//! An operation executes **atomically against overlay state at its dispatch
//! instant**: the overlay walks its own data structures to completion and
//! calls [`SimNetwork::transmit`] once per message on the way.  A
//! transmission is counted, draws one link latency from the network's
//! [`LatencyModel`] and lands (or bounces off a dead destination) before the
//! call returns; nothing is ever queued.  Virtual time is therefore
//! accounting, kept on two clocks:
//!
//! * the **arrival clock** (moved by [`SimNetwork::advance_to`]) is where
//!   newly issued operations begin — an open-loop workload advances it to
//!   each operation's arrival time, so operations overlap in virtual time
//!   (never in state) instead of running back-to-back;
//! * each operation's **frontier** (tracked in
//!   [`OpStats`](crate::stats::OpStats)) is the landing time of the latest
//!   hop in its request chain — the next hop departs from there, so an
//!   operation's latency is the sum of its own chain.  Fire-and-forget
//!   notifications ([`SimNetwork::count_message`]) depart from the frontier
//!   too but extend only the operation's completion time.
//!
//! [`SimNetwork::now`] reports the high-water mark over both.  With the
//! default constant-zero latency model no virtual time passes at all and the
//! substrate is the paper's count-only evaluation.

use std::marker::PhantomData;

use crate::peer::{PeerId, PeerRegistry};
use crate::stats::{MessageStats, OpScope};
use crate::time::{LatencyModel, SimTime};
use crate::trace::{HopRecord, LinkKind, TraceBuffer, TraceConfig};

/// Error returned by [`SimNetwork::transmit`] when the *sender* is not a
/// live peer (sending from a dead peer indicates a protocol bug, not a
/// simulated fault, so it is an error rather than a counted failure).
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

/// A deterministic message-passing network simulator.
///
/// Every transmission is counted in [`MessageStats`] and lands at
/// `frontier(op) + latency(src, dst)`; a dead destination is counted
/// separately as a failed delivery and reported to the caller.
///
/// Overlays write plain `SimNetwork`; the `M` parameter is carried only for
/// the compatibility block at the bottom of this file.
#[derive(Clone, Debug, Default)]
pub struct SimNetwork<M = ()> {
    peers: PeerRegistry,
    /// Where newly issued operations begin (moved by `advance_to`).
    arrival_clock: SimTime,
    /// High-water mark of every landing time drawn so far.
    horizon: SimTime,
    latency: LatencyModel,
    stats: MessageStats,
    /// Opt-in route recorder; `None` (the default) is a pure `is_some`
    /// check on every hot path, so disabled tracing costs nothing.
    trace: Option<Box<TraceBuffer>>,
    payload: PhantomData<fn() -> M>,
}

impl<M> SimNetwork<M> {
    /// Creates an empty network with no peers and the count-only
    /// (zero-latency) model.
    pub fn new() -> Self {
        Self::with_latency(LatencyModel::zero())
    }

    /// Creates an empty network with an explicit latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self {
            peers: PeerRegistry::new(),
            arrival_clock: SimTime::ZERO,
            horizon: SimTime::ZERO,
            latency,
            stats: MessageStats::new(),
            trace: None,
            payload: PhantomData,
        }
    }

    /// Replaces the latency model; later transmissions draw from the new
    /// one.
    pub fn set_latency_model(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// Draws one link-latency sample for the `from → to` link at the current
    /// virtual instant, advancing the model's latency stream.
    ///
    /// Protocols use this for delays that ride on the topology but are not
    /// messages — e.g. the failure-detection round-trip that offsets a
    /// deferred repair.  The draw comes from the same seeded streams as
    /// message latencies, so runs stay deterministic.
    pub fn sample_latency(&mut self, from: PeerId, to: PeerId) -> SimTime {
        let at = self.now();
        self.latency.sample(from, to, at)
    }

    /// The virtual instant the simulation has reached: the latest of the
    /// arrival clock and every landing time drawn so far.
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
    /// never perturbs statistics or latency draws.
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

    /// Transmits one message of operation `op` from `from` to `to`: hop
    /// number `hop` of its request chain, of kind `message_kind` (e.g.
    /// `"search.exact"`).
    ///
    /// The message is counted whether or not the destination turns out to
    /// be dead (the paper counts *passing messages*, i.e. transmissions),
    /// departs at the operation's frontier and lands one link-latency draw
    /// later, which becomes the new frontier — a bounce takes wire time like
    /// any delivery.  Returns `Ok(true)` if the destination was alive and
    /// `Ok(false)` if the delivery failed; the caller owns fault handling
    /// (paper §III-C/D).
    ///
    /// `hop`, `link_kind` (the class of the link the hop travels: BATON
    /// parent/child/adjacent/routing-table, Chord successor/finger, …) and
    /// `message_kind` are consumed only by the route recorder and never
    /// affect accounting.
    pub fn transmit(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        hop: u32,
        link_kind: LinkKind,
        message_kind: &'static str,
    ) -> Result<bool, SendError> {
        match self.peers.status(from) {
            None => return Err(SendError::UnknownSender(from)),
            Some(status) if !status.is_alive() => return Err(SendError::DeadSender(from)),
            Some(_) => {}
        }
        Ok(self.carry(op, from, to, hop, link_kind, message_kind, false))
    }

    /// Charges a fire-and-forget notification to `op`.
    ///
    /// Several BATON maintenance steps are pure notifications whose replies
    /// carry no protocol state the simulation needs to model (e.g. "inform
    /// your children about the new node", paper §III-A).  They still take
    /// time on the wire: each draws a latency and lands at
    /// `frontier(op) + latency`, extending the operation's *completion*
    /// time — but they run in parallel with the request chain and never
    /// push its frontier.
    pub fn count_message(&mut self, op: OpScope, kind: &'static str, from: PeerId, to: PeerId) {
        self.carry(op, from, to, 1, LinkKind::Notify, kind, true);
    }

    /// The one place a message is counted, its latency drawn and its
    /// destination's liveness tested.  A notification differs from a request
    /// hop in two ways only: it extends the operation's completion instead
    /// of its frontier, and its recorded `detour` flag is read after its own
    /// bounce is charged, where a request hop carries the state it was sent
    /// in.
    #[allow(clippy::too_many_arguments)]
    fn carry(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        hop: u32,
        link_kind: LinkKind,
        message_kind: &'static str,
        notification: bool,
    ) -> bool {
        let in_detour = |stats: &MessageStats| stats.op(op.id).is_some_and(|s| s.in_detour());
        self.stats.record_send(op.id);
        let sent_at = self.stats.op_frontier(op.id).unwrap_or(self.arrival_clock);
        let arrive_at = sent_at + self.latency.sample(from, to, sent_at);
        self.horizon = self.horizon.max(arrive_at);
        if notification {
            self.stats.extend_op_completion(op.id, arrive_at);
        } else {
            self.stats.advance_op_frontier(op.id, arrive_at);
        }
        let detour_when_sent = self.trace.is_some() && in_detour(&self.stats);
        let delivered = self.peers.is_alive(to);
        if delivered {
            self.stats.record_delivery(to);
        } else {
            self.stats.record_failure(op.id);
        }
        if let Some(trace) = &mut self.trace {
            let detour = if notification {
                in_detour(&self.stats)
            } else {
                detour_when_sent
            };
            trace.record_hop(
                op.id,
                HopRecord {
                    from,
                    to,
                    hop,
                    kind: link_kind,
                    message: message_kind,
                    sent_at,
                    arrive_at,
                    delivered,
                    detour,
                },
            );
        }
        delivered
    }
}

// ---------------------------------------------------------------------------
// Compatibility block — the two-step `send` + `deliver_next` surface, kept
// for exactly one caller: `benchmarks/src/sut.rs::NetProbe::send_deliver`
// (`benchmarks/` is frozen outside `benchmark` PRs).  The next `benchmark` PR
// moves that probe onto `transmit` and deletes this block together with the
// `M` parameter of `SimNetwork`.  Nothing under `crates/`, `tests/` or
// `examples/` may call it (CI greps for `deliver_next`).
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub trait NetMessage {
    fn kind(&self) -> &'static str;
}

#[doc(hidden)]
impl<M: NetMessage> SimNetwork<M> {
    pub fn send(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        payload: M,
    ) -> Result<bool, SendError> {
        self.transmit(op, from, to, 1, LinkKind::Other, payload.kind())
    }

    pub fn deliver_next(&mut self) -> Option<()> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_with_latency_ms(millis: u64) -> (SimNetwork, [PeerId; 3]) {
        let mut net =
            SimNetwork::with_latency(LatencyModel::constant(SimTime::from_millis(millis)));
        let peers = [net.add_peer(), net.add_peer(), net.add_peer()];
        (net, peers)
    }

    fn send(net: &mut SimNetwork, op: OpScope, from: PeerId, to: PeerId, hop: u32) -> bool {
        net.transmit(op, from, to, hop, LinkKind::Other, "hello")
            .expect("live sender")
    }

    #[test]
    fn sending_from_dead_peer_is_an_error() {
        let (mut net, [a, b, _]) = net_with_latency_ms(10);
        let op = net.begin_op("test");
        net.fail_peer(a);
        let err = net.transmit(op, a, b, 1, LinkKind::Other, "hello");
        assert_eq!(err, Err(SendError::DeadSender(a)));
        // Nothing counted, no latency drawn.
        assert_eq!(net.stats().total_sent(), 0);
        assert_eq!(net.now(), SimTime::ZERO);
    }

    #[test]
    fn sending_from_unknown_peer_is_an_error() {
        let (mut net, [_, b, _]) = net_with_latency_ms(10);
        let op = net.begin_op("test");
        let ghost = PeerId(999);
        let err = net.transmit(op, ghost, b, 1, LinkKind::Other, "hello");
        assert_eq!(err, Err(SendError::UnknownSender(ghost)));
        assert_eq!(net.stats().total_sent(), 0);
        assert_eq!(net.now(), SimTime::ZERO);
    }

    #[test]
    fn delivery_to_dead_peer_is_counted_and_surfaced() {
        let (mut net, [a, b, _]) = net_with_latency_ms(10);
        let op = net.begin_op("test");
        net.fail_peer(b);
        assert!(!send(&mut net, op, a, b, 1));
        assert_eq!(net.stats().total_failed(), 1);
        assert_eq!(net.stats().received_count(b), 0);
        // The send itself is still counted: the paper counts transmissions.
        assert_eq!(net.stats().total_sent(), 1);
        let stats = net.stats().op(op.id).unwrap();
        assert_eq!((stats.messages, stats.failed_deliveries), (1, 1));
        // A bounce takes wire time like any delivery.
        assert_eq!(
            net.stats().op_frontier(op.id),
            Some(SimTime::from_millis(10))
        );
    }

    #[test]
    fn count_message_charges_op_without_queueing() {
        let (mut net, [a, b, _]) = net_with_latency_ms(0);
        let op = net.begin_op("notify");
        net.count_message(op, "notify.children", a, b);
        assert_eq!(net.stats().op(op.id).unwrap().messages, 1);
        assert_eq!(net.stats().received_count(b), 1);
        net.fail_peer(b);
        net.count_message(op, "notify.children", a, b);
        assert_eq!(net.stats().total_failed(), 1);
    }

    #[test]
    fn constant_latency_accumulates_along_a_hop_chain() {
        let (mut net, [a, b, c]) = net_with_latency_ms(10);
        let op = net.begin_op("chain");
        send(&mut net, op, a, b, 1);
        assert_eq!(
            net.stats().op_frontier(op.id),
            Some(SimTime::from_millis(10))
        );
        send(&mut net, op, b, c, 2);
        assert_eq!(
            net.stats().op_frontier(op.id),
            Some(SimTime::from_millis(20))
        );
        net.finish_op(op);
        assert_eq!(
            net.stats().op(op.id).unwrap().latency(),
            Some(SimTime::from_millis(20))
        );
        assert_eq!(net.now(), SimTime::from_millis(20));
    }

    #[test]
    fn operations_started_at_different_arrivals_overlap() {
        let (mut net, [a, b, _]) = net_with_latency_ms(10);
        // Op 1 arrives at t=0 and takes two 10ms hops -> finishes at 20ms.
        let op1 = net.begin_op("op1");
        // Op 2 arrives at t=5ms and takes one hop -> finishes at 15ms,
        // *before* op 1, even though it is processed afterwards.
        net.advance_to(SimTime::from_millis(5));
        let op2 = net.begin_op("op2");

        send(&mut net, op1, a, b, 1);
        send(&mut net, op1, b, a, 2);
        net.finish_op(op1);

        send(&mut net, op2, a, b, 1);
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
    fn notifications_extend_completion_but_not_the_frontier() {
        let (mut net, [a, b, c]) = net_with_latency_ms(10);
        let op = net.begin_op("broadcast");
        send(&mut net, op, a, b, 1);
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
}
