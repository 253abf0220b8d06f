//! Open-loop execution: operations arrive on a virtual-time schedule and
//! *interleave*, instead of executing back-to-back.
//!
//! The closed-loop runners in [`crate::runner`] issue the next operation the
//! moment the previous one finishes — fine for counting messages, useless
//! for latency or throughput, because the system is never under load.  An
//! open-loop run takes the merged arrival schedule of a
//! [`PhasedWorkload`](crate::PhasedWorkload) and dispatches each operation
//! at its arrival time by advancing the overlay's arrival clock
//! ([`baton_net::Overlay::advance_to`]).  Two operations whose hop chains
//! overlap in virtual time then genuinely overlap: each accumulates only its
//! own chain's latency.
//!
//! On top of the schedule, a [`FaultPlan`](crate::FaultPlan) injects timed
//! targeted faults (correlated regional kills) between arrivals — the
//! substrate for stress questions the paper cannot ask, e.g. *what happens
//! to search latency when half of one region fails at t = 20s?*

use std::collections::BTreeMap;

use baton_net::{
    OpId, Overlay, OverlayError, OverlayResult, PeerId, RepairPolicy, SimRng, SimTime,
};

use crate::faults::{FaultEvent, FaultPlan};
use crate::keys::{DOMAIN_HIGH, DOMAIN_LOW};
use crate::phases::PhasedWorkload;

/// The class of an operation in an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// Exact-match query for a random key.
    Search,
    /// Range query for a random interval.
    Range,
    /// Insert of a random key/value pair.
    Insert,
    /// A new node joins through a random contact.
    Join,
    /// A random node departs gracefully.
    Leave,
    /// A random node fails abruptly (degrades to a graceful leave on
    /// overlays without failure support, like [`crate::runner::run_churn`]).
    Fail,
}

impl OpClass {
    /// Every class, in scheduling order.
    pub const ALL: [OpClass; 6] = [
        OpClass::Search,
        OpClass::Range,
        OpClass::Insert,
        OpClass::Join,
        OpClass::Leave,
        OpClass::Fail,
    ];

    /// Stable name used to group latency samples in reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Search => "search",
            OpClass::Range => "range",
            OpClass::Insert => "insert",
            OpClass::Join => "join",
            OpClass::Leave => "leave",
            OpClass::Fail => "fail",
        }
    }
}

/// One scheduled arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Virtual arrival time of the operation.
    pub at: SimTime,
    /// What arrives.
    pub class: OpClass,
}

/// Latency percentiles over one class of operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of completed operations the summary covers.
    pub count: usize,
    /// Mean virtual latency.
    pub mean: SimTime,
    /// Median (50th percentile).
    pub p50: SimTime,
    /// 95th percentile.
    pub p95: SimTime,
    /// 99th percentile.
    pub p99: SimTime,
    /// Slowest completed operation.
    pub max: SimTime,
}

impl LatencySummary {
    /// Summarises a set of latency samples; `None` if empty.
    ///
    /// Percentile convention matches
    /// [`Histogram::percentile`](baton_net::Histogram::percentile): the
    /// smallest sample such that at least `q · count` samples are ≤ it.
    pub fn from_samples(samples: &[SimTime]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let at = |q: f64| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let total: u64 = sorted.iter().map(|t| t.as_micros()).sum();
        Some(Self {
            count: n,
            mean: SimTime::from_micros(total / n as u64),
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: sorted[n - 1],
        })
    }
}

/// Configuration of the virtual-time metrics sampler: how often
/// [`run_phased_with_metrics`] snapshots the run into a
/// [`MetricsSample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Virtual time between samples (clamped to at least 1µs).
    pub interval: SimTime,
}

impl MetricsConfig {
    /// A sampler ticking every `interval` of virtual time.
    pub fn new(interval: SimTime) -> Self {
        Self {
            interval: interval.max(SimTime::from_micros(1)),
        }
    }
}

impl Default for MetricsConfig {
    /// One sample per virtual second.
    fn default() -> Self {
        Self::new(SimTime::from_secs(1))
    }
}

/// One snapshot of a running open-loop scenario, taken on the sampler's
/// virtual-time tick.  A sequence of these is the *time series* behind the
/// dip-and-recover plots: throughput and tail latency collapse when a fault
/// wave lands, the repair backlog spikes, then both mend.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSample {
    /// Virtual instant of the tick.
    pub at: SimTime,
    /// Operations completed inside this tick's window
    /// `(at − interval, at]`.
    pub executed: u64,
    /// Completed operations per virtual second over the window.
    pub ops_per_sec: f64,
    /// Window latency percentiles per class (classes idle in the window
    /// are omitted).
    pub classes: BTreeMap<&'static str, LatencySummary>,
    /// Overlay membership at the tick (dead-but-unrepaired peers under
    /// deferred repair still count as members).
    pub node_count: usize,
    /// Operations begun but not yet retired into class aggregates.
    pub in_flight: usize,
    /// Cumulative availability misses since the run began.
    pub unavailable: u64,
    /// Deferred repairs still queued at the tick.
    pub repair_backlog: usize,
    /// The overlay's estimated routing/replica state footprint, in bytes.
    pub state_bytes: u64,
}

/// The sampler state threaded through [`run_phased_with_metrics`]: marks
/// into the outcome's per-class latency vectors delimit each window, so the
/// samples borrow the latencies the run records anyway instead of keeping a
/// second copy.
struct Sampler {
    interval: SimTime,
    next: SimTime,
    marks: BTreeMap<&'static str, usize>,
    last_total: u64,
}

impl Sampler {
    fn new(config: &MetricsConfig) -> Self {
        Self {
            interval: config.interval.max(SimTime::from_micros(1)),
            next: config.interval.max(SimTime::from_micros(1)),
            marks: BTreeMap::new(),
            last_total: 0,
        }
    }

    /// Emits every tick due at or before `until`, snapshotting the overlay
    /// and outcome as they stand (ticks never touch the rng or the clock,
    /// so sampling cannot perturb the run).
    fn flush(
        &mut self,
        until: SimTime,
        overlay: &dyn Overlay,
        repair_backlog: usize,
        outcome: &mut OpenLoopOutcome,
    ) {
        while self.next <= until {
            let at = self.next;
            let mut classes = BTreeMap::new();
            for (class, samples) in &outcome.latencies {
                let mark = self.marks.entry(class).or_insert(0);
                if let Some(summary) = LatencySummary::from_samples(&samples[*mark..]) {
                    classes.insert(*class, summary);
                }
                *mark = samples.len();
            }
            let total = outcome.total_executed();
            let executed = total - self.last_total;
            self.last_total = total;
            outcome.samples.push(MetricsSample {
                at,
                executed,
                ops_per_sec: executed as f64 / self.interval.as_secs_f64(),
                classes,
                node_count: overlay.node_count(),
                in_flight: overlay.stats().live_op_count(),
                unavailable: outcome.total_unavailable(),
                repair_backlog,
                state_bytes: overlay.estimated_state_bytes(),
            });
            self.next += self.interval;
        }
    }
}

/// Fraction of `attempts` fault-window dispatches that succeeded when
/// `failed` of them surfaced unavailability, in `[0, 1]`; `None` when no
/// operation was dispatched during a window (nothing to measure — in
/// particular every faultless legacy run).
pub fn availability(attempts: u64, failed: u64) -> Option<f64> {
    (attempts > 0).then(|| (attempts - failed.min(attempts)) as f64 / attempts as f64)
}

/// Aggregate outcome of an open-loop run.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopOutcome {
    /// Operations executed, per class.
    pub executed: BTreeMap<&'static str, u64>,
    /// Operations skipped, per class (node floor reached, or a class the
    /// overlay does not support, e.g. range queries on a DHT) — kept per
    /// [`OpClass`] so "Chord skipped ranges" stays distinguishable from
    /// "node-floor skipped leaves" in reports.
    pub skipped: BTreeMap<&'static str, u64>,
    /// Virtual instant the overlay had reached when the run ended — the
    /// denominator of [`throughput`](Self::throughput).
    pub makespan: SimTime,
    /// Completed-operation latency samples, per class, in completion order.
    pub latencies: BTreeMap<&'static str, Vec<SimTime>>,
    /// Total messages across all executed operations.
    pub messages: u64,
    /// Peers killed by the fault plan (counted under the `fail` class in
    /// `executed`, tallied here as well so reports can attribute correlated
    /// failures separately from the Poisson `fail` arrivals).
    pub fault_kills: u64,
    /// Operations that reached a dead, not-yet-repaired peer with no
    /// replica able to answer, per class, over the whole run.  Distinct
    /// from `skipped` (the operation was never attempted) — an unavailable
    /// operation was attempted and failed.
    pub unavailable: BTreeMap<&'static str, u64>,
    /// Operations dispatched inside a fault-assessment window
    /// (`[fault.at, fault.at + policy.slow]` per fault event), per class —
    /// the denominator of [`availability`](Self::availability).
    pub window_attempts: BTreeMap<&'static str, u64>,
    /// The in-window subset of [`unavailable`](Self::unavailable), per
    /// class — the numerator of [`availability`](Self::availability).
    /// (A straggling repair can fail an operation *after* its window
    /// closed; that failure counts in `unavailable` but not here.)
    pub window_unavailable: BTreeMap<&'static str, u64>,
    /// Time from each deferred kill to its completed repair, in completion
    /// order (including retry delays when the first repair attempt itself
    /// hit an availability window).
    pub repair_times: Vec<SimTime>,
    /// Deferred repairs abandoned after exhausting their retry budget.
    /// Zero in any healthy run; non-zero flags unrecoverable state.
    pub repairs_abandoned: u64,
    /// Wall-clock time spent executing deferred repairs (the
    /// `repair_peer` calls plus their queue management).  Wall-clock, so
    /// it never appears in a deterministic report; the benchmark's
    /// `core.failure.repair_ns_per_peer` reads it so the slow-path repair
    /// cost at k = 1 is not misread as a query-throughput regression.
    pub repair_wall: std::time::Duration,
    /// Virtual-time metrics samples, in tick order — empty unless the run
    /// was started through [`run_phased_with_metrics`] with a
    /// [`MetricsConfig`].
    pub samples: Vec<MetricsSample>,
}

impl OpenLoopOutcome {
    /// Total operations executed across all classes.
    pub fn total_executed(&self) -> u64 {
        self.executed.values().sum()
    }

    /// Total operations skipped across all classes.
    pub fn total_skipped(&self) -> u64 {
        self.skipped.values().sum()
    }

    /// Operations of one class that were skipped.
    pub fn skipped_of(&self, class: OpClass) -> u64 {
        self.skipped.get(class.name()).copied().unwrap_or(0)
    }

    /// Completed operations per virtual second (0.0 for a zero makespan,
    /// i.e. under the count-only zero-latency model).
    pub fn throughput(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.total_executed() as f64 / self.makespan.as_secs_f64()
        }
    }

    /// Total operations that surfaced unavailability, across the run.
    pub fn total_unavailable(&self) -> u64 {
        self.unavailable.values().sum()
    }

    /// Fraction of this run's fault-window dispatches that succeeded (see
    /// [`availability`]).
    pub fn availability(&self) -> Option<f64> {
        availability(
            self.window_attempts.values().sum(),
            self.window_unavailable.values().sum(),
        )
    }

    /// Latency percentiles of the time-to-repair samples; `None` if no
    /// deferred repair completed.
    pub fn repair_summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_samples(&self.repair_times)
    }

    /// Records a completed dispatch: the executed count, its messages, and
    /// the client-visible latency of its first begun operation.
    fn record(&mut self, overlay: &mut dyn Overlay, class: OpClass, first_op: OpId, messages: u64) {
        *self.executed.entry(class.name()).or_insert(0) += 1;
        self.messages += messages;
        // The first op begun by the dispatch is the client-visible one;
        // anything after it (e.g. a triggered load-balancing pass) is
        // background maintenance and not part of the client's latency.
        if let Some(latency) = overlay.stats().op(first_op).and_then(|s| s.latency()) {
            self.latencies
                .entry(class.name())
                .or_default()
                .push(latency);
        }
        // Everything the dispatch begun has finished: retire it into the
        // per-class aggregates so a long open-loop run holds O(in-flight)
        // operation state, not O(operations-ever).
        overlay.stats_mut().retire_finished();
    }
}

/// Kills one specific peer: abruptly when the overlay supports targeted
/// failures, degrading to a targeted graceful departure otherwise.
/// Returns the messages spent.
fn kill_peer(overlay: &mut dyn Overlay, victim: PeerId) -> OverlayResult<u64> {
    let cost = match overlay.fail_peer(victim) {
        Err(OverlayError::Unsupported(_)) => overlay.leave_peer(victim),
        result => result,
    }?;
    Ok(cost.total_messages())
}

/// A deferred repair awaiting its scheduled instant.
#[derive(Clone, Copy, Debug)]
struct PendingRepair {
    /// Instant the repair runs.
    at: SimTime,
    /// The dead peer to mend.
    victim: PeerId,
    /// Instant the peer was killed — `at − killed_at` is the time-to-repair
    /// sample once the repair completes.
    killed_at: SimTime,
    /// Retry count: a repair can itself hit an availability window (its
    /// replacement peer is also dead) and be re-queued.
    retries: u32,
}

/// Retry budget of one deferred repair.  Retries converge because repairs
/// run in time order — whatever dead peer blocked this repair has its own
/// pending repair — so the cap only guards against unrecoverable state.
const REPAIR_RETRY_LIMIT: u32 = 32;

/// Runs every pending repair due at or before `until` (all of them when
/// `None`), earliest first.  A repair that hits an availability window is
/// re-queued one retry delay later, up to [`REPAIR_RETRY_LIMIT`].  Each
/// completed repair re-stages any pending victim that regained a live
/// replica holder onto the fast path (see
/// [`Overlay::repair_fast_eligible`]), so correlated kills recover as a
/// fast-path cascade instead of serialising on the slow path.
fn drain_repairs(
    overlay: &mut dyn Overlay,
    pending: &mut Vec<PendingRepair>,
    retry_delay: SimTime,
    until: Option<SimTime>,
    outcome: &mut OpenLoopOutcome,
) -> OverlayResult<()> {
    let started = std::time::Instant::now();
    let result = drain_repairs_inner(overlay, pending, retry_delay, until, outcome);
    outcome.repair_wall += started.elapsed();
    result
}

/// [`drain_repairs`] minus the wall-clock accounting wrapper.
fn drain_repairs_inner(
    overlay: &mut dyn Overlay,
    pending: &mut Vec<PendingRepair>,
    retry_delay: SimTime,
    until: Option<SimTime>,
    outcome: &mut OpenLoopOutcome,
) -> OverlayResult<()> {
    loop {
        let due = pending
            .iter()
            .enumerate()
            .filter(|(_, r)| until.is_none_or(|t| r.at <= t))
            .min_by_key(|(_, r)| (r.at, r.victim))
            .map(|(i, _)| i);
        let Some(index) = due else {
            return Ok(());
        };
        let repair = pending.remove(index);
        overlay.advance_to(repair.at);
        match overlay.repair_peer(repair.victim) {
            Ok(cost) => {
                outcome.messages += cost.total_messages();
                outcome
                    .repair_times
                    .push(repair.at.saturating_sub(repair.killed_at));
                // A completed repair can bring back the replica holder of
                // another still-pending victim.  That victim's slice can
                // stream from the restored replica *now*, so its remaining
                // wait collapses from the slow detect-and-rebuild path to
                // the fast path — re-staged, never postponed.  (At k = 1
                // nothing is ever fast-eligible and the queue is untouched.)
                let fast_at = repair.at + retry_delay;
                for other in pending.iter_mut() {
                    if other.at > fast_at && overlay.repair_fast_eligible(other.victim) {
                        other.at = fast_at;
                    }
                }
            }
            Err(OverlayError::Unavailable(_)) if repair.retries < REPAIR_RETRY_LIMIT => {
                // A blocked repair is waiting on some other victim's repair
                // (its replacement walk landed on a dead leaf).  Blind
                // fixed-delay retries can exhaust the budget while the dead
                // cluster blocking us drains, so follow the queue instead:
                // the next pending repair is the earliest event that can
                // unblock this one — retry one fast delay after it (after
                // ourselves when nothing later is pending).
                let step = retry_delay.max(SimTime::from_millis(1));
                let next_change = pending
                    .iter()
                    .map(|other| other.at)
                    .filter(|at| *at > repair.at)
                    .min()
                    .unwrap_or(repair.at);
                pending.push(PendingRepair {
                    at: next_change + step,
                    retries: repair.retries + 1,
                    ..repair
                });
            }
            Err(OverlayError::Unavailable(_)) => outcome.repairs_abandoned += 1,
            Err(other) => return Err(other),
        }
    }
}

/// Fires one fault event: advances the clock to the fault's instant,
/// selects the victims from the live peer list, and kills each one
/// (respecting the node floor).  Kills are accounted under the `fail`
/// class, exactly like Poisson `fail` arrivals.
///
/// With a repair policy the kills are *deferred*: each victim is marked
/// dead and a repair is queued after the policy's delay — the availability
/// window the outcome measures.  Without one (every legacy plan) the kill
/// runs the immediate fail-and-recover protocol as before.
///
/// `fault_rng` is a stream dedicated to victim selection, separate from the
/// key-draw stream: the number of draws a selection consumes depends on the
/// overlay's live peer set (which diverges across overlays once churn
/// runs), and sharing one stream would desynchronise the data keys that
/// keep every overlay on the same workload.
fn apply_fault(
    overlay: &mut dyn Overlay,
    fault: &FaultEvent,
    fault_rng: &mut SimRng,
    min_nodes: usize,
    repair: Option<&RepairPolicy>,
    pending: &mut Vec<PendingRepair>,
    outcome: &mut OpenLoopOutcome,
) -> OverlayResult<()> {
    overlay.advance_to(fault.at);
    // Select from the *alive* peers only.  Under deferred repair the
    // victims of an earlier wave are still members; selecting over raw
    // membership would let a wave re-kill an already-dead peer — failing
    // the kill and under-delivering the wave's intended severity.
    let pool: Vec<PeerId> = overlay
        .peers()
        .iter()
        .copied()
        .filter(|p| overlay.net().is_alive(*p))
        .collect();
    let victims = fault.select_victims(&pool, fault_rng);
    for victim in victims {
        if overlay.node_count() <= min_nodes {
            *outcome.skipped.entry(OpClass::Fail.name()).or_insert(0) += 1;
            continue;
        }
        // A victim can die or disappear between selection and execution (an
        // earlier kill's replacement protocol may have vacated it); a peer
        // that left the overlay is dead on the network too.
        if !overlay.net().is_alive(victim) {
            *outcome.skipped.entry(OpClass::Fail.name()).or_insert(0) += 1;
            continue;
        }
        if let Some(policy) = repair {
            match overlay.fail_peer_deferred(victim, policy) {
                Ok(delay) => {
                    pending.push(PendingRepair {
                        at: fault.at + delay,
                        victim,
                        killed_at: fault.at,
                        retries: 0,
                    });
                    outcome.fault_kills += 1;
                    continue;
                }
                // No deferred-repair protocol: fall through to the
                // immediate kill below.
                Err(OverlayError::Unsupported(_)) => {}
                Err(other) => return Err(other),
            }
        }
        let first_op = OpId(overlay.stats().next_op_id());
        let messages = kill_peer(overlay, victim)?;
        outcome.fault_kills += 1;
        outcome.record(overlay, OpClass::Fail, first_op, messages);
    }
    Ok(())
}

/// Executes a phased open-loop schedule — with its fault plan — against an
/// overlay.
///
/// Each arrival advances the overlay's arrival clock to its scheduled time
/// and dispatches the operation; the operation's virtual latency (read back
/// from the overlay's per-op statistics) is recorded under its class.
/// Fault events fire between arrivals, in time order (a fault scheduled at
/// the same instant as an arrival fires first).  Leaves, failures and fault
/// kills are skipped while the overlay has `min_nodes` nodes or fewer;
/// failures degrade to graceful departures on overlays without failure
/// support; range queries are skipped on overlays without range support —
/// one schedule drives every system, as with the closed-loop runners.
///
/// When the fault plan carries a [`RepairPolicy`], its kills open
/// *availability windows*: victims stay dead until their queued repair
/// runs, operations dispatched inside a window are tallied per class under
/// `window_attempts`, and any that surface [`OverlayError::Unavailable`]
/// (the dead peer's slice had no answering replica) land in `unavailable`
/// instead of aborting the run.  Each fault event opens a *fixed-length*
/// assessment window `[fault.at, fault.at + policy.slow]` — the worst-case
/// outage span.  The length is deliberately independent of how fast the
/// repairs actually finish: a replicated overlay that mends in half a
/// second is scored over the same denominator as the k = 1 overlay that
/// stays dark for the full slow path, so faster repair shows up as higher
/// availability rather than as a shorter (and therefore noisier) window.
/// Repairs still pending after the last arrival are drained before the
/// outcome is returned, so the overlay ends the run fully mended.
///
/// With a [`MetricsConfig`], a tick fires every `interval` of virtual time
/// (interleaved with arrivals and faults in time order) and snapshots the
/// run into [`OpenLoopOutcome::samples`]: window throughput and per-class
/// percentiles, membership, in-flight operations, cumulative availability
/// misses, the deferred-repair backlog and the overlay's estimated state
/// footprint.  Ticks read state only — they never draw from the rng or
/// advance the clock — so a sampled run's statistics are byte-identical to
/// an unsampled one.
#[allow(clippy::too_many_arguments)]
pub fn run_phased_with_metrics(
    overlay: &mut dyn Overlay,
    events: &[ArrivalEvent],
    workload: &PhasedWorkload,
    faults: &FaultPlan,
    rng: &mut SimRng,
    min_nodes: usize,
    metrics: Option<&MetricsConfig>,
) -> OverlayResult<OpenLoopOutcome> {
    let keys = workload.resolve_keys();
    let range_width =
        (((DOMAIN_HIGH - DOMAIN_LOW) as f64 * workload.range_selectivity) as u64).max(1);
    let mut outcome = OpenLoopOutcome::default();
    // Victim selection gets its own derived stream (see `apply_fault`);
    // `derive` reads the parent's seed without advancing it, so a faultless
    // run consumes `rng` exactly as the pre-fault engine did.
    let mut fault_rng = rng.derive(0xFA17);
    let mut fault_queue = faults.events().iter().peekable();
    let repair = faults.repair();
    let retry_delay = repair.map(|p| p.fast).unwrap_or_default();
    // The fixed assessment windows (see above): one per fault event, from
    // the kill to its worst-case (slow-path) repair.
    let windows: Vec<(SimTime, SimTime)> = repair
        .map(|policy| {
            faults
                .events()
                .iter()
                .map(|fault| (fault.at, fault.at + policy.slow))
                .collect()
        })
        .unwrap_or_default();
    let in_window = |at: SimTime| windows.iter().any(|(from, to)| at >= *from && at <= *to);
    let mut pending: Vec<PendingRepair> = Vec::new();
    let mut sampler = metrics.map(Sampler::new);
    for event in events {
        while let Some(fault) = fault_queue.next_if(|f| f.at <= event.at) {
            drain_repairs(
                overlay,
                &mut pending,
                retry_delay,
                Some(fault.at),
                &mut outcome,
            )?;
            // Ticks due before the fault fires snapshot the pre-fault
            // state; the wave's damage lands in the following tick.
            if let Some(s) = sampler.as_mut() {
                s.flush(fault.at, overlay, pending.len(), &mut outcome);
            }
            apply_fault(
                overlay,
                fault,
                &mut fault_rng,
                min_nodes,
                repair,
                &mut pending,
                &mut outcome,
            )?;
        }
        drain_repairs(
            overlay,
            &mut pending,
            retry_delay,
            Some(event.at),
            &mut outcome,
        )?;
        if let Some(s) = sampler.as_mut() {
            s.flush(event.at, overlay, pending.len(), &mut outcome);
        }
        overlay.advance_to(event.at);
        if in_window(event.at) {
            *outcome
                .window_attempts
                .entry(event.class.name())
                .or_insert(0) += 1;
        }
        let first_op = OpId(overlay.stats().next_op_id());
        let messages = match dispatch(
            overlay,
            event.class,
            event.at,
            &keys,
            range_width,
            rng,
            min_nodes,
        )? {
            Dispatch::Done(messages) => messages,
            Dispatch::Skipped => {
                *outcome.skipped.entry(event.class.name()).or_insert(0) += 1;
                continue;
            }
            Dispatch::Unavailable => {
                *outcome.unavailable.entry(event.class.name()).or_insert(0) += 1;
                if in_window(event.at) {
                    *outcome
                        .window_unavailable
                        .entry(event.class.name())
                        .or_insert(0) += 1;
                }
                continue;
            }
        };
        outcome.record(overlay, event.class, first_op, messages);
    }
    // Faults scheduled after the last arrival still fire.
    for fault in fault_queue {
        drain_repairs(
            overlay,
            &mut pending,
            retry_delay,
            Some(fault.at),
            &mut outcome,
        )?;
        if let Some(s) = sampler.as_mut() {
            s.flush(fault.at, overlay, pending.len(), &mut outcome);
        }
        apply_fault(
            overlay,
            fault,
            &mut fault_rng,
            min_nodes,
            repair,
            &mut pending,
            &mut outcome,
        )?;
    }
    // ... and so do repairs still queued past the last event.
    drain_repairs(overlay, &mut pending, retry_delay, None, &mut outcome)?;
    outcome.makespan = overlay.now();
    // Trailing ticks (the tail of the run after the last arrival) close
    // the series at the makespan, so the final sample shows the overlay
    // fully mended.
    if let Some(s) = sampler.as_mut() {
        s.flush(outcome.makespan, overlay, pending.len(), &mut outcome);
    }
    Ok(outcome)
}

/// Result of one arrival dispatch.
enum Dispatch {
    /// Executed, spending this many messages.
    Done(u64),
    /// Not attempted (unsupported class or node floor).
    Skipped,
    /// Attempted and lost to an availability window.
    Unavailable,
}

/// Dispatches one arrival, folding [`OverlayError::Unavailable`] into a
/// countable outcome instead of an abort.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    overlay: &mut dyn Overlay,
    class: OpClass,
    at: SimTime,
    keys: &crate::phases::ResolvedKeys,
    range_width: u64,
    rng: &mut SimRng,
    min_nodes: usize,
) -> OverlayResult<Dispatch> {
    let attempt = |result: OverlayResult<u64>| match result {
        Ok(messages) => Ok(Dispatch::Done(messages)),
        Err(OverlayError::Unavailable(_)) => Ok(Dispatch::Unavailable),
        Err(other) => Err(other),
    };
    match class {
        OpClass::Search => {
            let key = keys.draw(at, rng);
            attempt(overlay.search_exact(key).map(|c| c.messages))
        }
        OpClass::Range => {
            let low = keys.draw(at, rng);
            let high = (low + range_width).min(DOMAIN_HIGH);
            match overlay.search_range(low, high) {
                Ok(cost) => Ok(Dispatch::Done(cost.messages)),
                Err(OverlayError::Unsupported(_)) => Ok(Dispatch::Skipped),
                Err(OverlayError::Unavailable(_)) => Ok(Dispatch::Unavailable),
                Err(other) => Err(other),
            }
        }
        OpClass::Insert => {
            let key = keys.draw(at, rng);
            attempt(
                overlay
                    .insert(key, key)
                    .map(|c| c.messages + c.balance_messages),
            )
        }
        OpClass::Join => attempt(overlay.join_random().map(|c| c.total_messages())),
        OpClass::Leave | OpClass::Fail => {
            if overlay.node_count() <= min_nodes {
                Ok(Dispatch::Skipped)
            } else if class == OpClass::Fail {
                match overlay.fail_random() {
                    Ok(cost) => Ok(Dispatch::Done(cost.total_messages())),
                    // No failure protocol: degrade to a graceful leave.
                    Err(OverlayError::Unsupported(_)) => {
                        attempt(overlay.leave_random().map(|c| c.total_messages()))
                    }
                    Err(OverlayError::Unavailable(_)) => Ok(Dispatch::Unavailable),
                    Err(other) => Err(other),
                }
            } else {
                attempt(overlay.leave_random().map(|c| c.total_messages()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles_are_ordered() {
        let samples: Vec<SimTime> = (1..=100).map(SimTime::from_millis).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, SimTime::from_millis(50));
        assert_eq!(s.p95, SimTime::from_millis(95));
        assert_eq!(s.p99, SimTime::from_millis(99));
        assert_eq!(s.max, SimTime::from_millis(100));
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(LatencySummary::from_samples(&[]).is_none());
        let one = LatencySummary::from_samples(&[SimTime::from_millis(7)]).unwrap();
        assert_eq!(one.p50, SimTime::from_millis(7));
        assert_eq!(one.p99, SimTime::from_millis(7));
    }

    #[test]
    fn empty_outcome_reports_zero_throughput() {
        let outcome = OpenLoopOutcome::default();
        assert_eq!(outcome.total_executed(), 0);
        assert_eq!(outcome.total_skipped(), 0);
        assert_eq!(outcome.skipped_of(OpClass::Range), 0);
        assert_eq!(outcome.throughput(), 0.0);
        assert_eq!(outcome.fault_kills, 0);
    }
}
