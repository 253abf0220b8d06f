//! Opt-in route recorder: a bounded flight recorder of per-operation span
//! trees.
//!
//! The paper's headline claims are *per-hop* claims — Theorems 2/3 bound
//! exact-match and range routing at O(log N) hops — yet [`MessageStats`]
//! only aggregates.  When tracing is enabled
//! ([`SimNetwork::set_trace`](crate::network::SimNetwork::set_trace)), every
//! sampled operation records a [`Span`]: its class label, issue/finish
//! times, and one [`HopRecord`] per message with the link class that carried
//! it ([`LinkKind`], tagged by each overlay at its send sites), the virtual
//! send/arrive instants, whether the destination was alive, and whether the
//! hop was part of a failover detour.
//!
//! The recorder is a **ring buffer**: finished spans beyond
//! [`TraceConfig::capacity`] evict the oldest, so a full-profile run holds
//! O(capacity) trace state no matter how many operations it dispatches.
//! When tracing is disabled (the default) no span is allocated and every
//! probe is a `None` check — all committed fixtures are byte-identical
//! either way, since tracing never touches the statistics or the latency
//! draws.
//!
//! [`MessageStats`]: crate::stats::MessageStats

use std::collections::VecDeque;

use crate::peer::PeerId;
use crate::stats::OpId;
use crate::time::SimTime;

/// Upper bound on simultaneously open (begun but unfinished) sampled spans.
///
/// Protocols finish every operation they begin, even on error paths, so this
/// exists purely as a leak guard: if an op somehow never finishes, its span
/// is force-retired once this many newer spans are open.
const MAX_OPEN_SPANS: usize = 1024;

/// The closed taxonomy of overlay link classes a routed hop can travel.
///
/// Each overlay tags its send sites with the kinds it maintains: BATON
/// `Parent`/`Child`/`Adjacent`/`RoutingTable` (paper §II links), Chord
/// `Successor`/`Finger`, the multiway tree `Parent`/`Child` on its
/// up-then-down walk plus `Neighbor` on range sweeps, and the D3-Tree
/// `Backbone` (LCA climb/descent) and `Bucket` (in-bucket walk).  `Notify`
/// marks fire-and-forget maintenance traffic
/// ([`count_message`](crate::network::SimNetwork::count_message)); `Other`
/// is the untagged default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkKind {
    /// BATON/multiway-tree parent link.
    Parent,
    /// BATON/multiway-tree child link.
    Child,
    /// BATON in-order adjacent link.
    Adjacent,
    /// BATON left/right routing-table entry (the O(log N) side links).
    RoutingTable,
    /// Chord ring successor link.
    Successor,
    /// Chord finger-table entry.
    Finger,
    /// Multiway-tree in-order neighbour link (range sweeps).
    Neighbor,
    /// D3-Tree backbone hop (LCA climb or descent).
    Backbone,
    /// D3-Tree in-bucket walk hop.
    Bucket,
    /// Fire-and-forget maintenance notification.
    Notify,
    /// A hop whose send site carries no tag.
    Other,
}

impl LinkKind {
    /// Every kind, in canonical rendering order.
    pub const ALL: [LinkKind; 11] = [
        LinkKind::Parent,
        LinkKind::Child,
        LinkKind::Adjacent,
        LinkKind::RoutingTable,
        LinkKind::Successor,
        LinkKind::Finger,
        LinkKind::Neighbor,
        LinkKind::Backbone,
        LinkKind::Bucket,
        LinkKind::Notify,
        LinkKind::Other,
    ];

    /// Stable lower-case name used in JSONL exports and perf rows.
    pub fn name(self) -> &'static str {
        match self {
            LinkKind::Parent => "parent",
            LinkKind::Child => "child",
            LinkKind::Adjacent => "adjacent",
            LinkKind::RoutingTable => "routing_table",
            LinkKind::Successor => "successor",
            LinkKind::Finger => "finger",
            LinkKind::Neighbor => "neighbor",
            LinkKind::Backbone => "backbone",
            LinkKind::Bucket => "bucket",
            LinkKind::Notify => "notify",
            LinkKind::Other => "other",
        }
    }

    /// Inverse of [`name`](Self::name); `None` for a string outside the
    /// closed set (which is what the JSONL schema validator rejects).
    pub fn parse(name: &str) -> Option<LinkKind> {
        LinkKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Index of this kind within [`ALL`](Self::ALL).
    pub fn index(self) -> usize {
        LinkKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("ALL is exhaustive")
    }
}

/// Configuration of the route recorder.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum finished spans retained; older spans are evicted (counted by
    /// [`TraceBuffer::evicted`]).
    pub capacity: usize,
    /// Record every `sample`-th operation (1 = every operation).  Sampling
    /// is a deterministic modulus over the op counter, not a random draw,
    /// so traced runs stay reproducible.
    pub sample: u64,
}

impl TraceConfig {
    /// A recorder keeping up to `capacity` spans, sampling every op.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            sample: 1,
        }
    }

    /// Sets the sampling modulus (clamped to ≥ 1).
    pub fn with_sample(mut self, sample: u64) -> Self {
        self.sample = sample.max(1);
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::new(4096)
    }
}

/// One recorded message of a traced operation.
#[derive(Clone, Debug)]
pub struct HopRecord {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Hop number the protocol assigned to the message (1 for
    /// notifications).
    pub hop: u32,
    /// Link class the hop travelled.
    pub kind: LinkKind,
    /// Protocol message kind (e.g. `"SEARCHEXACT"`).
    pub message: &'static str,
    /// Virtual instant the message left the sender (the op's frontier).
    pub sent_at: SimTime,
    /// Virtual instant the message lands at the destination.
    pub arrive_at: SimTime,
    /// `false` if the destination was dead when the message arrived.
    pub delivered: bool,
    /// `true` if the operation was already in failover-detour mode (it had
    /// bounced off at least one dead peer) when this hop was sent.
    pub detour: bool,
}

/// The full recorded trace of one operation.
#[derive(Clone, Debug)]
pub struct Span {
    /// Raw [`OpId`] value of the operation.
    pub op: u64,
    /// Operation class label (e.g. `"search.exact"`).
    pub class: String,
    /// Virtual time the operation was issued.
    pub started_at: SimTime,
    /// Virtual time the operation finished (`None` if force-retired while
    /// still open — see [`MAX_OPEN_SPANS`]).
    pub finished_at: Option<SimTime>,
    /// Every message of the operation, in send order.
    pub hops: Vec<HopRecord>,
}

impl Span {
    /// Messages recorded for this operation.
    pub fn message_count(&self) -> u64 {
        self.hops.len() as u64
    }

    /// Hops charged to the operation's failover detour: hops sent while in
    /// detour mode plus the bounce that opened it (mirrors
    /// [`OpStats::detour_messages`](crate::stats::OpStats::detour_messages)).
    pub fn detour_count(&self) -> u64 {
        let mut bounced = false;
        self.hops
            .iter()
            .filter(|h| {
                let charged = h.detour || bounced || !h.delivered;
                bounced |= !h.delivered;
                charged
            })
            .count() as u64
    }
}

/// Bounded ring buffer of finished [`Span`]s plus the open spans of
/// in-flight sampled operations.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    config: TraceConfig,
    /// Operations observed by `begin` (sampled or not).
    ops_seen: u64,
    /// Operations actually recorded.
    sampled: u64,
    /// Finished spans dropped to honour `capacity`.
    evicted: u64,
    open: Vec<(OpId, Span)>,
    done: VecDeque<Span>,
}

impl TraceBuffer {
    /// Creates an empty recorder.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            ops_seen: 0,
            sampled: 0,
            evicted: 0,
            open: Vec::new(),
            done: VecDeque::new(),
        }
    }

    /// Observes a newly begun operation, opening a span for it if the
    /// sampling modulus selects it.
    pub(crate) fn begin(&mut self, op: OpId, class: &str, at: SimTime) {
        let selected = self.ops_seen.is_multiple_of(self.config.sample);
        self.ops_seen += 1;
        if !selected {
            return;
        }
        self.sampled += 1;
        if self.open.len() >= MAX_OPEN_SPANS {
            // Leak guard: force-retire the oldest open span unfinished.
            let (_, span) = self.open.remove(0);
            self.push_done(span);
        }
        self.open.push((
            op,
            Span {
                op: op.0,
                class: class.to_owned(),
                started_at: at,
                finished_at: None,
                hops: Vec::new(),
            },
        ));
    }

    /// Appends a hop to the operation's open span (no-op for unsampled ops).
    pub(crate) fn record_hop(&mut self, op: OpId, hop: HopRecord) {
        if let Some((_, span)) = self.open.iter_mut().rev().find(|(id, _)| *id == op) {
            span.hops.push(hop);
        }
    }

    /// Closes the operation's span and files it into the ring.
    pub(crate) fn finish(&mut self, op: OpId, at: SimTime) {
        if let Some(index) = self.open.iter().position(|(id, _)| *id == op) {
            let (_, mut span) = self.open.remove(index);
            span.finished_at = Some(at);
            self.push_done(span);
        }
    }

    fn push_done(&mut self, span: Span) {
        if self.done.len() >= self.config.capacity {
            self.done.pop_front();
            self.evicted += 1;
        }
        self.done.push_back(span);
    }

    /// Finished spans currently retained, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> + '_ {
        self.done.iter()
    }

    /// Number of finished spans currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// `true` if no finished span is retained.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Operations observed (sampled or not).
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Operations recorded (selected by the sampling modulus).
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Finished spans evicted to honour the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total hop count per [`LinkKind`] across the retained spans, indexed
    /// by [`LinkKind::index`].
    pub fn hop_counts_by_kind(&self) -> [u64; LinkKind::ALL.len()] {
        let mut counts = [0u64; LinkKind::ALL.len()];
        for span in &self.done {
            for hop in &span.hops {
                counts[hop.kind.index()] += 1;
            }
        }
        counts
    }

    /// Absorbs another recorder's finished spans and counters (used when a
    /// harness aggregates per-phase buffers).
    pub fn merge(&mut self, other: TraceBuffer) {
        self.ops_seen += other.ops_seen;
        self.sampled += other.sampled;
        self.evicted += other.evicted;
        for span in other.done {
            self.push_done(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(to: u32, kind: LinkKind, at: u64, detour: bool) -> HopRecord {
        HopRecord {
            from: PeerId(0),
            to: PeerId(to),
            hop: 1,
            kind,
            message: "m",
            sent_at: SimTime::from_micros(at),
            arrive_at: SimTime::from_micros(at + 1),
            delivered: true,
            detour,
        }
    }

    #[test]
    fn ring_buffer_evicts_beyond_capacity() {
        let mut buffer = TraceBuffer::new(TraceConfig::new(3));
        for i in 0..10u64 {
            let op = OpId(i);
            buffer.begin(op, "op", SimTime::ZERO);
            buffer.record_hop(op, hop(1, LinkKind::Other, i, false));
            buffer.finish(op, SimTime::from_micros(i + 2));
        }
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.evicted(), 7);
        assert_eq!(buffer.sampled(), 10);
        let ops: Vec<u64> = buffer.spans().map(|s| s.op).collect();
        assert_eq!(ops, vec![7, 8, 9]);
    }

    #[test]
    fn sampling_modulus_selects_every_nth_op() {
        let mut buffer = TraceBuffer::new(TraceConfig::new(100).with_sample(3));
        for i in 0..9u64 {
            let op = OpId(i);
            buffer.begin(op, "op", SimTime::ZERO);
            buffer.record_hop(op, hop(1, LinkKind::Other, i, false));
            buffer.finish(op, SimTime::from_micros(i + 2));
        }
        assert_eq!(buffer.sampled(), 3);
        let ops: Vec<u64> = buffer.spans().map(|s| s.op).collect();
        assert_eq!(ops, vec![0, 3, 6]);
        // Unsampled ops record nothing.
        assert!(buffer.spans().all(|s| s.hops.len() == 1));
    }

    #[test]
    fn detour_count_charges_the_bounce_and_every_hop_after_it() {
        let mut buffer = TraceBuffer::new(TraceConfig::new(10));
        let op = OpId(0);
        buffer.begin(op, "op", SimTime::ZERO);
        buffer.record_hop(op, hop(1, LinkKind::Parent, 0, false));
        let bounce = HopRecord {
            delivered: false,
            ..hop(2, LinkKind::Child, 5, false)
        };
        buffer.record_hop(op, bounce);
        buffer.record_hop(op, hop(3, LinkKind::Adjacent, 10, true));
        buffer.finish(op, SimTime::from_micros(12));
        let span = buffer.spans().next().unwrap();
        // The bounce itself plus the detour hop after it are both charged.
        assert_eq!(span.detour_count(), 2);
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in LinkKind::ALL {
            assert_eq!(LinkKind::parse(kind.name()), Some(kind));
            assert_eq!(LinkKind::ALL[kind.index()], kind);
        }
        assert_eq!(LinkKind::parse("warp"), None);
    }

    #[test]
    fn hop_counts_aggregate_by_kind() {
        let mut buffer = TraceBuffer::new(TraceConfig::new(10));
        let op = OpId(0);
        buffer.begin(op, "op", SimTime::ZERO);
        buffer.record_hop(op, hop(1, LinkKind::Finger, 0, false));
        buffer.record_hop(op, hop(2, LinkKind::Finger, 1, false));
        buffer.record_hop(op, hop(3, LinkKind::Successor, 2, false));
        buffer.finish(op, SimTime::from_micros(3));
        let counts = buffer.hop_counts_by_kind();
        assert_eq!(counts[LinkKind::Finger.index()], 2);
        assert_eq!(counts[LinkKind::Successor.index()], 1);
        assert_eq!(counts[LinkKind::Parent.index()], 0);
    }
}
