//! Message accounting: per-kind, per-peer and per-operation counters.
//!
//! Every sub-figure of the paper's Figure 8 is an *average message count per
//! operation* (or a distribution of such counts), so accounting is a
//! first-class part of the substrate rather than an afterthought in the
//! benchmark harness.
//!
//! ### Slab-addressed hot paths, streaming aggregates
//!
//! [`OpId`]s are dense sequential integers and [`PeerId`]s are dense slab
//! indices, so the two structures every message send and delivery touches —
//! the live-operation table and the per-peer received counters — are flat
//! vectors, not hash maps.  Live operations occupy a sliding window
//! (`VecDeque` plus a base offset): [`MessageStats::retire_finished`] pops
//! finished operations off the front and folds them into per-class
//! [`ClassStats`] aggregates (fixed-bucket [`Histogram`]s plus exact sums),
//! so a long open-loop run holds O(in-flight) operation state instead of
//! O(operations-ever).  Class labels are interned once per distinct label;
//! beginning an operation allocates nothing in steady state.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::peer::PeerId;
use crate::time::SimTime;

/// Identifier of one logical operation (a join, a search, …) for accounting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u64);

/// Counters accumulated for a single operation.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Interned class of the operation (resolve the label through
    /// [`MessageStats::op_label`] or [`ClassStats::name`]).
    pub(crate) class: u32,
    /// Messages sent while this operation was the active accounting scope.
    pub messages: u64,
    /// Messages that could not be delivered because the destination was dead.
    pub failed_deliveries: u64,
    /// Messages charged to the operation's failover detour: the first
    /// message that bounced off a dead peer plus everything sent after it.
    /// A healthy operation keeps this at zero, so
    /// `messages == primary + detour` splits first-try routing cost from
    /// recovery cost.
    pub detour_messages: u64,
    /// `true` once the operation has bounced off at least one dead peer;
    /// subsequent sends are recovery work and count as detour messages.
    pub(crate) detour: bool,
    /// Largest hop count observed on any message of this operation.
    pub max_hops: u32,
    /// Virtual time at which the operation was issued.
    pub started_at: SimTime,
    /// Virtual time at which the operation completed (set by
    /// [`SimNetwork::finish_op`](crate::network::SimNetwork::finish_op)).
    pub finished_at: Option<SimTime>,
    /// The operation's critical path so far: the delivery time of the latest
    /// hop in its request chain.  The next hop of the operation departs from
    /// here, so a chain of hops accumulates latency while independent
    /// operations overlap freely in virtual time.
    pub(crate) frontier: SimTime,
    /// Completion candidate including fire-and-forget notifications, which
    /// run in parallel with (and may outlast) the request chain.
    pub(crate) completion: SimTime,
}

impl OpStats {
    /// Virtual latency of the operation: time from issue to completion.
    ///
    /// `None` until the operation is finished.
    pub fn latency(&self) -> Option<SimTime> {
        self.finished_at
            .map(|finished| finished.saturating_sub(self.started_at))
    }

    /// Messages sent before the operation's first bounce (first-try routing
    /// cost): `messages − detour_messages`.
    pub fn primary_messages(&self) -> u64 {
        self.messages - self.detour_messages
    }

    /// `true` once the operation has entered failover-detour mode.
    pub fn in_detour(&self) -> bool {
        self.detour
    }
}

/// A RAII-like handle for an operation accounting scope.
///
/// `OpScope` is deliberately **not** `Drop`-based: the simulator is purely
/// synchronous and protocols explicitly call
/// [`SimNetwork::finish_op`](crate::network::SimNetwork::finish_op) so that
/// nested scopes never accidentally swallow each other's messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpScope {
    /// Identifier of the scoped operation.
    pub id: OpId,
}

/// A compact histogram over non-negative integers, most of them small.
///
/// Used for Figure 8(h) (the distribution of load-balancing shift sizes) and
/// as the aggregate an operation retires into: messages-per-op and
/// whole-millisecond latency distributions per operation class.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Counts of the values below [`DENSE_LIMIT`](Self::DENSE_LIMIT),
    /// indexed by value.
    counts: Vec<u64>,
    /// Counts of the values at or above it.  A query that sweeps a whole
    /// failed region before giving up takes minutes of virtual time; indexed
    /// densely, one such latency would cost megabytes of zero buckets.
    outliers: BTreeMap<usize, u64>,
    total: u64,
}

impl Histogram {
    /// Values below this get a bucket of their own in a flat array.
    const DENSE_LIMIT: usize = 1 << 14;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        self.add(value, 1);
    }

    fn add(&mut self, value: usize, count: u64) {
        if value >= Self::DENSE_LIMIT {
            *self.outliers.entry(value).or_default() += count;
        } else {
            if self.counts.len() <= value {
                self.counts.resize(value + 1, 0);
            }
            self.counts[value] += count;
        }
        self.total += count;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations equal to `value`.
    pub fn count(&self, value: usize) -> u64 {
        let count = if value < Self::DENSE_LIMIT {
            self.counts.get(value)
        } else {
            self.outliers.get(&value)
        };
        count.copied().unwrap_or(0)
    }

    /// Largest value ever recorded, or `None` if empty.
    pub fn max_value(&self) -> Option<usize> {
        let largest_outlier = self.outliers.keys().next_back().copied();
        largest_outlier.or_else(|| self.counts.iter().rposition(|&c| c > 0))
    }

    /// Mean of the recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.iter().map(|(v, c)| v as u64 * c).sum();
        sum as f64 / self.total as f64
    }

    /// The `q`-quantile of the recorded values (`q` in `(0, 1]`): the
    /// smallest recorded value `v` such that at least `q · total`
    /// observations are `≤ v`.  Returns `None` for an empty histogram.
    ///
    /// # Panics
    /// Panics if `q` is not in `(0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<usize> {
        assert!(q > 0.0 && q <= 1.0, "percentile requires q in (0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (value, count) in self.iter() {
            cumulative += count;
            if cumulative >= rank {
                return Some(value);
            }
        }
        self.max_value()
    }

    /// Median (50th percentile); `None` if empty.
    pub fn p50(&self) -> Option<usize> {
        self.percentile(0.50)
    }

    /// 95th percentile; `None` if empty.
    pub fn p95(&self) -> Option<usize> {
        self.percentile(0.95)
    }

    /// 99th percentile; `None` if empty.
    pub fn p99(&self) -> Option<usize> {
        self.percentile(0.99)
    }

    /// Iterates over `(value, count)` pairs with non-zero counts, in value
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
            .chain(self.outliers.iter().map(|(&v, &c)| (v, c)))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        other.iter().for_each(|(v, c)| self.add(v, c));
    }
}

/// Streaming aggregate of every *retired* operation of one class (label).
///
/// Retirement ([`MessageStats::retire_finished`]) folds a finished
/// operation's counters into these fixed-size aggregates and drops the
/// per-operation record, bounding a run's memory by the number of in-flight
/// operations plus the number of distinct labels.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    name: String,
    retired: u64,
    messages_sum: u64,
    failed_deliveries: u64,
    detour_hops: u64,
    latency_us_sum: u64,
    messages: Histogram,
    latency_ms: Histogram,
}

impl ClassStats {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    fn retire(&mut self, op: &OpStats) {
        self.retired += 1;
        self.messages_sum += op.messages;
        self.failed_deliveries += op.failed_deliveries;
        self.detour_hops += op.detour_messages;
        self.messages.record(op.messages as usize);
        let latency = op.latency().unwrap_or(SimTime::ZERO);
        self.latency_us_sum += latency.as_micros();
        self.latency_ms
            .record((latency.as_micros() / 1000) as usize);
    }

    /// The operation label this aggregate covers.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations retired into this aggregate.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Total messages across retired operations.
    pub fn messages_sum(&self) -> u64 {
        self.messages_sum
    }

    /// Total failed deliveries across retired operations.
    pub fn failed_deliveries(&self) -> u64 {
        self.failed_deliveries
    }

    /// Total failover-detour hops across retired operations: messages sent
    /// at or after each operation's first bounce off a dead peer.  Splits
    /// the class's hop budget into first-try routing and recovery work —
    /// `messages_sum() == primary_hops() + detour_hops()` always holds.
    pub fn detour_hops(&self) -> u64 {
        self.detour_hops
    }

    /// Total first-try hops across retired operations (messages sent before
    /// any bounce).
    pub fn primary_hops(&self) -> u64 {
        self.messages_sum - self.detour_hops
    }

    /// Distribution of messages per retired operation.
    pub fn messages_histogram(&self) -> &Histogram {
        &self.messages
    }

    /// Distribution of virtual latency per retired operation, in whole
    /// milliseconds (sub-millisecond latencies land in bucket 0).
    pub fn latency_ms_histogram(&self) -> &Histogram {
        &self.latency_ms
    }

    /// Mean virtual latency of retired operations (exact, from the
    /// microsecond sum rather than the millisecond buckets).
    pub fn mean_latency(&self) -> Option<SimTime> {
        self.latency_us_sum
            .checked_div(self.retired)
            .map(SimTime::from_micros)
    }
}

/// Global message statistics for a [`SimNetwork`](crate::network::SimNetwork).
#[derive(Clone, Debug, Default)]
pub struct MessageStats {
    total_sent: u64,
    total_failed: u64,
    /// One `(kind, messages sent)` row per message kind, in first-seen
    /// order.  Kinds are a few dozen string literals, so a send finds its
    /// row by literal identity instead of hashing the string.
    by_kind: Vec<(&'static str, u64)>,
    /// Messages received per peer, slab-indexed by the dense peer id.
    received_by_peer: Vec<u64>,
    /// Sliding window of live operations: the op with [`OpId`] `base + i`
    /// lives at index `i`.  `retire_finished` pops the front.
    live: VecDeque<OpStats>,
    base: u64,
    next_op: u64,
    /// Per-class streaming aggregates, indexed by interned class id.
    classes: Vec<ClassStats>,
    class_ids: HashMap<String, u32>,
}

impl MessageStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total messages sent (delivered or not).
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Total messages successfully delivered to an alive peer: every
    /// message sent is either delivered or failed.
    pub fn total_delivered(&self) -> u64 {
        self.total_sent - self.total_failed
    }

    /// Total messages whose destination was dead at delivery time.
    pub fn total_failed(&self) -> u64 {
        self.total_failed
    }

    /// Messages sent per statistics bucket (message kind), in first-seen
    /// order.
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_kind.iter().copied()
    }

    /// Messages sent with a given kind label.
    pub fn kind_count(&self, kind: &str) -> u64 {
        let row = self.by_kind.iter().find(|(k, _)| *k == kind);
        row.map_or(0, |(_, count)| *count)
    }

    /// `(peer, received)` for every peer that received at least one message —
    /// the per-node access load of Figure 8(f).
    pub fn received_counts(&self) -> impl Iterator<Item = (PeerId, u64)> + '_ {
        self.received_by_peer
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (PeerId(i as u32), c))
    }

    /// Messages received by one peer.
    #[inline]
    pub fn received_count(&self, peer: PeerId) -> u64 {
        self.received_by_peer
            .get(peer.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Interns `label`, returning its class id.
    fn class_id(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.class_ids.get(label) {
            return id;
        }
        let id = self.classes.len() as u32;
        self.classes.push(ClassStats::new(label));
        self.class_ids.insert(label.to_owned(), id);
        id
    }

    /// Begins a new operation accounting scope starting at virtual time zero.
    pub fn begin_op(&mut self, label: &str) -> OpScope {
        self.begin_op_at(label, SimTime::ZERO)
    }

    /// Begins a new operation accounting scope issued at virtual time `at`.
    ///
    /// Allocation-free in steady state: the label is interned on its first
    /// occurrence and the live window reuses its buffer.
    pub fn begin_op_at(&mut self, label: &str, at: SimTime) -> OpScope {
        let class = self.class_id(label);
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.live.push_back(OpStats {
            class,
            started_at: at,
            frontier: at,
            completion: at,
            ..OpStats::default()
        });
        OpScope { id }
    }

    /// Identifier the *next* [`begin_op`](Self::begin_op) call will hand out.
    ///
    /// Harnesses snapshot this before dispatching an operation and then read
    /// the stats of every op in `[snapshot, next_op_id())` afterwards — that
    /// range covers the operation itself plus anything it triggered (e.g. a
    /// load-balancing pass).
    pub fn next_op_id(&self) -> u64 {
        self.next_op
    }

    #[inline]
    fn live_index(&self, id: OpId) -> Option<usize> {
        id.0.checked_sub(self.base).map(|i| i as usize)
    }

    #[inline]
    fn live_mut(&mut self, id: OpId) -> Option<&mut OpStats> {
        let index = self.live_index(id)?;
        self.live.get_mut(index)
    }

    /// The critical-path frontier of an in-flight operation: the virtual
    /// time its next hop would depart at.
    pub fn op_frontier(&self, id: OpId) -> Option<SimTime> {
        self.op(id).map(|s| s.frontier)
    }

    /// Advances an operation's critical path to `at` (a hop of its request
    /// chain was delivered at that time).  A no-op for retired operations.
    pub(crate) fn advance_op_frontier(&mut self, id: OpId, at: SimTime) {
        if let Some(stats) = self.live_mut(id) {
            stats.frontier = stats.frontier.max(at);
            stats.completion = stats.completion.max(at);
        }
    }

    /// Records that a fire-and-forget notification of the operation lands at
    /// `at`.  Notifications run in parallel with the request chain, so they
    /// extend the operation's completion time without moving its frontier.
    pub(crate) fn extend_op_completion(&mut self, id: OpId, at: SimTime) {
        if let Some(stats) = self.live_mut(id) {
            stats.completion = stats.completion.max(at);
        }
    }

    /// Marks an operation as complete, stamping its finish time.
    pub(crate) fn finish_op(&mut self, id: OpId) {
        if let Some(stats) = self.live_mut(id) {
            stats.finished_at = Some(stats.completion.max(stats.frontier));
        }
    }

    /// Retires every finished operation at the front of the live window into
    /// its class aggregate ([`ClassStats`]), dropping the per-operation
    /// records.  Called by the workload runners after each dispatch, this
    /// bounds a long run's operation state to O(in-flight operations).
    ///
    /// Retired operations are no longer visible through [`op`](Self::op) /
    /// [`ops`](Self::ops) / [`op_latencies`](Self::op_latencies); their
    /// contribution lives on in [`class_stats`](Self::class_stats).
    pub fn retire_finished(&mut self) {
        while let Some(front) = self.live.front() {
            if front.finished_at.is_none() {
                break;
            }
            let op = self.live.pop_front().expect("front exists");
            self.base += 1;
            self.classes[op.class as usize].retire(&op);
        }
    }

    /// Number of operations currently held in the live window (in-flight
    /// plus finished-but-not-yet-retired).
    pub fn live_op_count(&self) -> usize {
        self.live.len()
    }

    /// Number of operations retired into class aggregates.
    pub fn retired_op_count(&self) -> u64 {
        self.base
    }

    /// The streaming aggregate of one operation label, if any operation of
    /// that label was ever begun.
    pub fn class_stats(&self, label: &str) -> Option<&ClassStats> {
        let id = *self.class_ids.get(label)?;
        self.classes.get(id as usize)
    }

    /// Every class aggregate, in first-seen label order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassStats> + '_ {
        self.classes.iter()
    }

    /// The label an operation was begun with (`None` for retired ids).
    pub fn op_label(&self, id: OpId) -> Option<&str> {
        self.op(id)
            .map(|s| self.classes[s.class as usize].name.as_str())
    }

    /// `(label, latency)` of every finished *live* (not yet retired)
    /// operation, in issue order.
    pub fn op_latencies(&self) -> Vec<(String, SimTime)> {
        self.live
            .iter()
            .filter_map(|s| {
                s.latency()
                    .map(|l| (self.classes[s.class as usize].name.clone(), l))
            })
            .collect()
    }

    /// Statistics of a live (in-flight or not yet retired) operation.
    pub fn op(&self, id: OpId) -> Option<&OpStats> {
        let index = self.live_index(id)?;
        self.live.get(index)
    }

    /// All live operations, in issue order.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &OpStats)> + '_ {
        self.live
            .iter()
            .enumerate()
            .map(|(i, s)| (OpId(self.base + i as u64), s))
    }

    /// Number of operations begun over the lifetime of the run (retired or
    /// live).
    pub fn op_count(&self) -> usize {
        self.next_op as usize
    }

    /// Records a message send attributed to `op`.
    pub(crate) fn record_send(&mut self, op: OpId, kind: &'static str, hop: u32) {
        self.total_sent += 1;
        // Same literal (address and length) first; string equality before a
        // new row, so a kind spelled at two call sites still has one row.
        let rows = &mut self.by_kind;
        let index = rows
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, kind))
            .or_else(|| rows.iter().position(|(k, _)| *k == kind))
            .unwrap_or_else(|| {
                rows.push((kind, 0));
                rows.len() - 1
            });
        rows[index].1 += 1;
        if let Some(stats) = self.live_mut(op) {
            stats.messages += 1;
            stats.max_hops = stats.max_hops.max(hop);
            if stats.detour {
                stats.detour_messages += 1;
            }
        }
    }

    /// Records a successful delivery to `peer`.
    pub(crate) fn record_delivery(&mut self, peer: PeerId) {
        let index = peer.0 as usize;
        if self.received_by_peer.len() <= index {
            self.received_by_peer.resize(index + 1, 0);
        }
        self.received_by_peer[index] += 1;
    }

    /// Records a failed delivery attributed to `op`.
    pub(crate) fn record_failure(&mut self, op: OpId) {
        self.total_failed += 1;
        if let Some(stats) = self.live_mut(op) {
            stats.failed_deliveries += 1;
            // The bounced message opens the operation's failover detour:
            // it was counted as first-try at send time (the sender could
            // not know the destination was dead), so reclassify it, and
            // every later send of this op counts as detour at send time.
            if !stats.detour {
                stats.detour = true;
                stats.detour_messages += 1;
            }
        }
    }

    /// Clears per-peer received counters (used when an experiment wants to
    /// measure access load only over its query phase, as in Figure 8(f)).
    pub fn reset_received_counters(&mut self) {
        self.received_by_peer.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_scopes_accumulate_messages_independently() {
        let mut stats = MessageStats::new();
        let a = stats.begin_op("join");
        let b = stats.begin_op("leave");
        stats.record_send(a.id, "x", 1);
        stats.record_send(a.id, "x", 2);
        stats.record_send(b.id, "y", 1);
        assert_eq!(stats.op(a.id).unwrap().messages, 2);
        assert_eq!(stats.op(b.id).unwrap().messages, 1);
        assert_eq!(stats.total_sent(), 3);
        assert_eq!(stats.kind_count("x"), 2);
        assert_eq!(stats.kind_count("y"), 1);
        assert_eq!(stats.kind_count("z"), 0);
    }

    #[test]
    fn delivery_and_failure_counters() {
        let mut stats = MessageStats::new();
        let op = stats.begin_op("probe");
        stats.record_send(op.id, "p", 1);
        stats.record_delivery(PeerId(3));
        stats.record_send(op.id, "p", 2);
        stats.record_failure(op.id);
        assert_eq!(stats.total_delivered(), 1);
        assert_eq!(stats.total_failed(), 1);
        assert_eq!(stats.received_count(PeerId(3)), 1);
        assert_eq!(stats.received_count(PeerId(4)), 0);
        assert_eq!(stats.op(op.id).unwrap().failed_deliveries, 1);
        assert_eq!(
            stats.received_counts().collect::<Vec<_>>(),
            vec![(PeerId(3), 1)]
        );
    }

    #[test]
    fn max_hops_tracked_per_op() {
        let mut stats = MessageStats::new();
        let op = stats.begin_op("walk");
        for hop in [1, 5, 3] {
            stats.record_send(op.id, "w", hop);
        }
        assert_eq!(stats.op(op.id).unwrap().max_hops, 5);
    }

    #[test]
    fn reset_received_counters_only_clears_per_peer_data() {
        let mut stats = MessageStats::new();
        let op = stats.begin_op("x");
        stats.record_send(op.id, "x", 1);
        stats.record_delivery(PeerId(0));
        stats.reset_received_counters();
        assert_eq!(stats.received_count(PeerId(0)), 0);
        assert_eq!(stats.total_sent(), 1);
        assert_eq!(stats.total_delivered(), 1);
    }

    #[test]
    fn retirement_folds_finished_ops_into_class_aggregates() {
        let mut stats = MessageStats::new();
        let a = stats.begin_op("search");
        stats.record_send(a.id, "s", 1);
        stats.record_send(a.id, "s", 2);
        let b = stats.begin_op("search");
        stats.record_send(b.id, "s", 1);
        let c = stats.begin_op("join");
        stats.finish_op(a.id);
        // b unfinished: retirement stops at it even though a is done.
        stats.retire_finished();
        assert_eq!(stats.live_op_count(), 2);
        assert_eq!(stats.retired_op_count(), 1);
        assert!(stats.op(a.id).is_none(), "a was retired");
        assert!(stats.op(b.id).is_some());
        let class = stats.class_stats("search").unwrap();
        assert_eq!(class.retired(), 1);
        assert_eq!(class.messages_sum(), 2);
        assert_eq!(class.messages_histogram().count(2), 1);

        stats.finish_op(b.id);
        stats.finish_op(c.id);
        stats.retire_finished();
        assert_eq!(stats.live_op_count(), 0);
        assert_eq!(stats.retired_op_count(), 3);
        let class = stats.class_stats("search").unwrap();
        assert_eq!(class.retired(), 2);
        assert_eq!(class.messages_sum(), 3);
        assert_eq!(stats.op_count(), 3);
    }

    #[test]
    fn retired_ops_ignore_late_updates_and_keep_latency_aggregates() {
        let mut stats = MessageStats::new();
        let op = stats.begin_op_at("rpc", SimTime::from_millis(5));
        stats.advance_op_frontier(op.id, SimTime::from_millis(12));
        stats.finish_op(op.id);
        assert_eq!(
            stats.op(op.id).unwrap().latency(),
            Some(SimTime::from_millis(7))
        );
        stats.retire_finished();
        // Late traffic attributed to the retired id is dropped silently:
        // global counters still move, per-op state is gone.
        stats.record_send(op.id, "r", 3);
        stats.advance_op_frontier(op.id, SimTime::from_millis(99));
        stats.extend_op_completion(op.id, SimTime::from_millis(99));
        stats.finish_op(op.id);
        assert_eq!(stats.total_sent(), 1);
        let class = stats.class_stats("rpc").unwrap();
        assert_eq!(class.retired(), 1);
        assert_eq!(class.latency_ms_histogram().count(7), 1);
        assert_eq!(class.mean_latency(), Some(SimTime::from_millis(7)));
        assert_eq!(stats.op_label(op.id), None);
    }

    #[test]
    fn live_window_indexing_survives_retirement() {
        let mut stats = MessageStats::new();
        let ops: Vec<OpScope> = (0..10).map(|_| stats.begin_op("w")).collect();
        for op in &ops[..4] {
            stats.finish_op(op.id);
        }
        stats.retire_finished();
        // Ids keep resolving to the right records after the window slid.
        for (i, op) in ops.iter().enumerate().skip(4) {
            stats.record_send(op.id, "w", i as u32);
        }
        for (i, op) in ops.iter().enumerate().skip(4) {
            assert_eq!(stats.op(op.id).unwrap().max_hops, i as u32);
        }
        let ids: Vec<u64> = stats.ops().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (4..10).collect::<Vec<u64>>());
        assert_eq!(stats.op_label(ops[5].id), Some("w"));
    }

    #[test]
    fn histogram_basic_statistics() {
        let mut h = Histogram::new();
        for v in [1, 1, 2, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(10), 0);
        assert_eq!(h.max_value(), Some(3));
        assert!((h.mean() - 13.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(0);
        a.record(2);
        let mut b = Histogram::new();
        b.record(2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(5), 1);
        assert_eq!(a.max_value(), Some(5));
    }

    #[test]
    fn histogram_outliers_stay_exact_without_dense_buckets() {
        let mut h = Histogram::new();
        for v in [3, 3, 7, 1_245_834, 20_000, 1_245_834] {
            h.record(v);
        }
        assert!(h.counts.len() <= 8, "an outlier grew the dense array");
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(1_245_834), 2);
        assert_eq!(h.count(20_000), 1);
        assert_eq!(h.count(20_001), 0);
        assert_eq!(h.max_value(), Some(1_245_834));
        assert_eq!(h.p50(), Some(7));
        assert_eq!(h.percentile(4.0 / 6.0), Some(20_000));
        assert_eq!(h.p99(), Some(1_245_834));
        assert!((h.mean() - 2_511_681.0 / 6.0).abs() < 1e-6);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(3, 2), (7, 1), (20_000, 1), (1_245_834, 2)]);
        let mut merged = Histogram::new();
        merged.record(20_000);
        merged.merge(&h);
        assert_eq!(merged.total(), 7);
        assert_eq!(merged.count(20_000), 2);
        assert_eq!(merged.max_value(), Some(1_245_834));
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.iter().count(), 0);
    }
}
