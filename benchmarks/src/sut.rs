//! The system under test: the only file of the benchmark that calls into the
//! repository's crates.  It never implements `Overlay`; it only calls it, so
//! a change to the trait or to a constructor breaks at most this file.
//!
//! Functions relied on:
//!
//! * baton-core — `BatonSystem::bulk_build`, `BatonSystem::height`,
//!   `BatonConfig::with_load_balance`, `LoadBalanceConfig::for_average_load`,
//!   `LocalStore::{new, insert, get, scan}`, `KeyRange::new`.
//! * baton-net — the `Overlay` methods `load_direct`, `search_exact`,
//!   `search_range`, `insert`, `delete`, `join_random`, `leave_random`,
//!   `fail_random`, `set_replication`, `set_latency_model`, `set_trace`,
//!   `take_trace`, `routing_snapshot`, `stats`, `stats_mut`, `validate`,
//!   `node_count`, `total_items`, `estimated_state_bytes`, `capabilities`;
//!   `serve::ring_hash`;
//!   `MessageStats::{total_sent, total_failed, classes, ops, op_label,
//!   retire_finished}`, `OpStats::{messages, failed_deliveries, detour_messages,
//!   primary_messages}`,
//!   `ClassStats::{name, retired, messages_sum, failed_deliveries,
//!   primary_hops, detour_hops}`;
//!   `SimNetwork::{with_latency, add_peer, begin_op, finish_op, send,
//!   deliver_next, count_message, sample_latency, stats_mut}`;
//!   `LatencyPlan::build`, `RegionMap::new`; `TraceBuffer::{len,
//!   hop_counts_by_kind}`; `SnapshotCell::{new, publish}`,
//!   `SnapshotReader::{new, refresh, snapshot}`,
//!   `RoutingSnapshot::{exact, range, version, slots, estimated_bytes}`,
//!   `ServeCounters`; `with_threads`.
//! * baton-workload — `DatasetPlan::generate`, `PhasedWorkload::{single,
//!   schedule, resolve_keys}`, `ResolvedKeys::draw`,
//!   `run_phased_with_metrics`, `FaultPlan::none`, `MetricsConfig`,
//!   `run_serve`, `ServeConfig::exact`.
//! * baton-sim — `standard_overlays`, `OverlaySpec::build`, `load_overlay`,
//!   `Profile`, `scenario::specs::{regional_failure_plan,
//!   latency_under_churn_plan}`, `run_scenario_with_options`,
//!   `render_scenarios_json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use baton_core::{BatonConfig, KeyRange, LoadBalanceConfig, LocalStore};
use baton_net::{
    LatencyModel, LatencyPlan, LinkKind, NetMessage, OverlayError, OverlayResult, PeerId,
    RegionMap, SimNetwork, TraceConfig,
};
use baton_sim::scenario::specs;
use baton_sim::Profile;
use baton_workload::{DatasetPlan, KeyDistribution, KeyMix, OpRates, ServeConfig};

pub use baton_core::BatonSystem;
pub use baton_net::{
    ChurnCost, OpCost, Overlay, RoutingSnapshot, ServeCounters, SimRng, SimTime, SnapshotCell,
    SnapshotReader,
};
pub use baton_sim::OverlaySpec;
pub use baton_workload::{
    ArrivalEvent, FaultPlan, MetricsConfig, OpClass, OpenLoopOutcome, PhasedWorkload, DOMAIN_HIGH,
    DOMAIN_LOW,
};

/// Why a call into an overlay produced no answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Miss {
    /// The peers holding the data are dead and not yet repaired: a modelled
    /// outcome of the simulated system, counted but not an error.
    Unavailable,
    /// The overlay does not have the capability (range queries on Chord).
    Unsupported,
    /// Anything else: the simulator failed.
    Error(String),
}

fn classify<T>(result: OverlayResult<T>) -> Result<T, Miss> {
    result.map_err(|error| match error {
        OverlayError::Unavailable(_) => Miss::Unavailable,
        OverlayError::Unsupported(_) => Miss::Unsupported,
        OverlayError::Op(message) => Miss::Error(message),
    })
}

// ---------------------------------------------------------------------------
// Construction and loading
// ---------------------------------------------------------------------------

/// The uniform dataset every workload loads: `per_node` values per node.
pub fn dataset(n: usize, per_node: usize, seed: u64) -> Vec<(u64, u64)> {
    let plan = DatasetPlan {
        values_per_node: per_node,
        distribution: KeyDistribution::Uniform,
    };
    plan.generate(&mut SimRng::seeded(seed ^ 0xDA7A), n)
}

/// A bulk-built BATON overlay of `n` nodes, balanced for `per_node` values
/// per node.
pub fn bulk_baton(n: usize, per_node: usize, seed: u64) -> BatonSystem {
    let config = BatonConfig::default()
        .with_load_balance(LoadBalanceConfig::for_average_load(per_node.max(4)));
    BatonSystem::bulk_build(config, seed, n).expect("bulk-building BATON cannot fail")
}

/// Height of the BATON tree.
pub fn baton_height(overlay: &BatonSystem) -> u32 {
    overlay.height()
}

/// Places `data` directly into the owning nodes' stores.
pub fn load_direct(overlay: &mut dyn Overlay, data: &[(u64, u64)]) {
    assert!(
        overlay.load_direct(data),
        "a bulk-built overlay offers the direct load path"
    );
}

/// Sets the replication degree.
pub fn set_replication(overlay: &mut dyn Overlay, k: usize) {
    overlay
        .set_replication(k)
        .expect("BATON supports replication degrees up to 3");
}

/// The profile the comparison's registered constructors and plans take:
/// one network size, `per_node` values per node, `searches_per_minute`
/// exact queries per virtual minute.
fn profile(n: usize, per_node: usize, searches_per_minute: f64, seed: u64) -> Profile {
    Profile {
        network_sizes: vec![n],
        repetitions: 1,
        data_scale: per_node as f64 / 1000.0,
        query_scale: searches_per_minute / 1000.0,
        churn_ops: 0,
        seed,
    }
}

/// The four overlays of the comparison, in registry order.
pub fn comparison_overlays() -> Vec<OverlaySpec> {
    baton_sim::standard_overlays()
}

/// Builds one overlay of the comparison join by join.
pub fn join_build(spec: &OverlaySpec, n: usize, per_node: usize, seed: u64) -> Box<dyn Overlay> {
    spec.build(&profile(n, per_node, 0.0, seed), n, seed)
}

/// Loads the dataset through routed inserts and returns it.
pub fn load_routed(overlay: &mut dyn Overlay, per_node: usize, seed: u64) -> Vec<(u64, u64)> {
    let n = overlay.node_count();
    baton_sim::load_overlay(
        &profile(n, per_node, 0.0, seed),
        overlay,
        KeyDistribution::Uniform,
        seed,
    )
}

// ---------------------------------------------------------------------------
// Closed-loop calls
// ---------------------------------------------------------------------------

/// Exact-match query from a random issuer.
#[inline]
pub fn exact(overlay: &mut dyn Overlay, key: u64) -> Result<OpCost, Miss> {
    classify(overlay.search_exact(key))
}

/// Range query for `[low, high)` from a random issuer.
#[inline]
pub fn range(overlay: &mut dyn Overlay, low: u64, high: u64) -> Result<OpCost, Miss> {
    classify(overlay.search_range(low, high))
}

/// Insert from a random issuer.
pub fn insert(overlay: &mut dyn Overlay, key: u64, value: u64) -> Result<OpCost, Miss> {
    classify(overlay.insert(key, value))
}

/// Delete of one value under `key` from a random issuer.
pub fn delete(overlay: &mut dyn Overlay, key: u64) -> Result<OpCost, Miss> {
    classify(overlay.delete(key))
}

/// A new node joins through a random contact.
pub fn join(overlay: &mut dyn Overlay) -> Result<ChurnCost, Miss> {
    classify(overlay.join_random())
}

/// A random node leaves gracefully.
pub fn leave(overlay: &mut dyn Overlay) -> Result<ChurnCost, Miss> {
    classify(overlay.leave_random())
}

/// A random node fails and the overlay recovers at once.
pub fn fail(overlay: &mut dyn Overlay) -> Result<ChurnCost, Miss> {
    classify(overlay.fail_random())
}

/// Folds finished operations into the per-class aggregates, as the
/// repository's own runners do after each dispatch.
#[inline]
pub fn retire(overlay: &mut dyn Overlay) {
    overlay.stats_mut().retire_finished();
}

/// The identity `overlay` stores `key` under, which is what its exact-match
/// answers count: the key itself on the range-partitioned overlays, the
/// key's identifier on the 2^32 ring on a DHT (Chord), where two keys whose
/// identifiers collide are answered as one.
pub fn stored_key(overlay: &dyn Overlay, key: u64) -> u64 {
    if overlay.capabilities().range_queries {
        key
    } else {
        baton_net::serve::ring_hash(key, 1 << 32)
    }
}

/// The overlay's structural invariants.
pub fn validate(overlay: &dyn Overlay) -> Result<(), String> {
    overlay.validate()
}

// ---------------------------------------------------------------------------
// Simulated counters
// ---------------------------------------------------------------------------

/// Message counters of an overlay's simulated network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// Messages sent since the overlay was created.
    pub sent: u64,
    /// Deliveries that bounced off a dead peer.
    pub failed: u64,
    /// First-try messages of retired exact-match and range query
    /// operations: those sent before the operation's first bounce off a
    /// dead peer.
    pub query_hops: u64,
    /// Their failover-detour messages: the first bounce and all after it.
    pub query_detour_hops: u64,
    /// Retired exact-match and range query operations.
    pub queries: u64,
}

/// `true` for the labels of exact-match and range query operations across
/// the four overlays: "search.exact", "search.range", "chord.search",
/// "mtree.search", "mtree.range", "d3.search", "d3.range".
fn is_query_class(label: &str) -> bool {
    label.contains("search") || label.ends_with("range")
}

/// Reads the message counters: the per-class aggregates of retired
/// operations plus the operations still in the live window.  (Retirement
/// pops finished operations off the front of the window only, so one
/// operation left unfinished — a failure scenario leaves some — keeps every
/// later operation live until the overlay is dropped.)
pub fn net_totals(overlay: &dyn Overlay) -> NetTotals {
    let stats = overlay.stats();
    let mut totals = NetTotals {
        sent: stats.total_sent(),
        failed: stats.total_failed(),
        ..NetTotals::default()
    };
    for class in stats.classes().filter(|c| is_query_class(c.name())) {
        totals.query_hops += class.primary_hops();
        totals.query_detour_hops += class.detour_hops();
        totals.queries += class.retired();
    }
    for (id, op) in stats.ops() {
        if stats.op_label(id).is_some_and(is_query_class) {
            totals.query_hops += op.primary_messages();
            totals.query_detour_hops += op.detour_messages;
            totals.queries += 1;
        }
    }
    totals
}

/// The operation classes of an overlay's statistics, retired and live
/// operations alike: `(label, operations, messages, failed deliveries)` in
/// label order.
pub fn class_totals(overlay: &dyn Overlay) -> Vec<(String, u64, u64, u64)> {
    let stats = overlay.stats();
    let mut classes: BTreeMap<String, (u64, u64, u64)> = stats
        .classes()
        .map(|c| {
            let totals = (c.retired(), c.messages_sum(), c.failed_deliveries());
            (c.name().to_owned(), totals)
        })
        .collect();
    for (id, op) in stats.ops() {
        if let Some(class) = stats.op_label(id).and_then(|l| classes.get_mut(l)) {
            class.0 += 1;
            class.1 += op.messages;
            class.2 += op.failed_deliveries;
        }
    }
    classes
        .into_iter()
        .map(|(label, (ops, msgs, failed))| (label, ops, msgs, failed))
        .collect()
}

/// Simulated size of an overlay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Live nodes.
    pub peers: u64,
    /// Estimated protocol state in bytes.
    pub state_bytes: u64,
    /// Stored values.
    pub items: u64,
}

/// Reads the overlay's size counters.
pub fn footprint(overlay: &dyn Overlay) -> Footprint {
    Footprint {
        peers: overlay.node_count() as u64,
        state_bytes: overlay.estimated_state_bytes(),
        items: overlay.total_items() as u64,
    }
}

/// Installs the route recorder, sampling every operation.
pub fn start_route_recorder(overlay: &mut dyn Overlay, capacity: usize) {
    overlay.set_trace(TraceConfig::new(capacity));
}

/// Removes the route recorder and returns the operations it retained with
/// their hops by link kind, `(kind name, hops)`.
pub fn take_route_recorder(overlay: &mut dyn Overlay) -> (u64, Vec<(&'static str, u64)>) {
    let Some(buffer) = overlay.take_trace() else {
        return (0, Vec::new());
    };
    let by_kind = buffer.hop_counts_by_kind();
    let hops = LinkKind::ALL
        .iter()
        .zip(by_kind)
        .map(|(kind, count)| (kind.name(), count))
        .collect();
    (buffer.len() as u64, hops)
}

// ---------------------------------------------------------------------------
// Open-loop plans
// ---------------------------------------------------------------------------

/// An open-loop workload with its fault plan, link latencies and sampler.
#[derive(Clone, Debug)]
pub struct OpenLoopPlan {
    /// Phases, rates and key mix.
    pub workload: PhasedWorkload,
    /// Timed faults and the repair policy.
    pub faults: FaultPlan,
    /// Link-latency topology.
    pub latency: LatencyPlan,
    /// Virtual-time sampler, where the registered plan has one.
    pub metrics: Option<MetricsConfig>,
}

/// `routed_churn`: writes beside reads on one BATON overlay under
/// log-normal links (median 40 ms, sigma 0.5).  `scale` multiplies every
/// rate (1.0 is the full workload).
pub fn churn_plan(virtual_secs: u64, scale: f64) -> OpenLoopPlan {
    OpenLoopPlan {
        workload: PhasedWorkload::single(
            SimTime::from_secs(virtual_secs),
            OpRates {
                search: 200.0 * scale,
                range: 50.0 * scale,
                insert: 100.0 * scale,
                join: 200.0 * scale,
                leave: 150.0 * scale,
                fail: 50.0 * scale,
            },
            KeyMix::Uniform,
        ),
        faults: FaultPlan::none(),
        latency: LatencyPlan::LogNormal {
            median: SimTime::from_millis(40),
            sigma: 0.5,
        },
        metrics: None,
    }
}

/// `fault_k*`: the registered `regional_failure` plan at `searches_per_s`
/// exact queries per virtual second (ranges a quarter, inserts half of it).
pub fn regional_failure_plan(
    n: usize,
    per_node: usize,
    searches_per_s: f64,
    seed: u64,
) -> OpenLoopPlan {
    let plan = specs::regional_failure_plan(&profile(n, per_node, searches_per_s * 60.0, seed));
    OpenLoopPlan {
        workload: plan.workload,
        faults: plan.faults,
        latency: plan.latency,
        metrics: plan.metrics,
    }
}

/// `compare_overlays`: the registered `latency_under_churn` plan at
/// `searches_per_s`, stretched to `virtual_secs`.
pub fn latency_under_churn_plan(
    n: usize,
    per_node: usize,
    searches_per_s: f64,
    virtual_secs: u64,
    seed: u64,
) -> OpenLoopPlan {
    let mut plan =
        specs::latency_under_churn_plan(&profile(n, per_node, searches_per_s * 60.0, seed));
    plan.workload.phases[0].duration = SimTime::from_secs(virtual_secs);
    OpenLoopPlan {
        workload: plan.workload,
        faults: plan.faults,
        latency: plan.latency,
        metrics: plan.metrics,
    }
}

/// Installs the plan's link latencies, seeded as the scenario engine seeds
/// them.
pub fn set_latency(overlay: &mut dyn Overlay, plan: &OpenLoopPlan, seed: u64) {
    overlay.set_latency_model(plan.latency.build(seed ^ 0x1A7E));
}

/// Draws the plan's arrival schedule and returns it with the generator the
/// run consumes, seeded as the scenario engine seeds them.
pub fn schedule(plan: &OpenLoopPlan, seed: u64) -> (Vec<ArrivalEvent>, SimRng) {
    let rng = SimRng::seeded(seed ^ 0x0BE7);
    let events = plan.workload.schedule(&mut rng.derive(1));
    (events, rng)
}

/// Executes `events` against `overlay`; `faults` and `sampler` select
/// whether the plan's fault events and virtual-time sampler take part.
pub fn run_open_loop(
    overlay: &mut dyn Overlay,
    events: &[ArrivalEvent],
    plan: &OpenLoopPlan,
    rng: &mut SimRng,
    min_nodes: usize,
    faults: bool,
    sampler: bool,
) -> Result<OpenLoopOutcome, Miss> {
    let no_faults = FaultPlan::none();
    classify(baton_workload::run_phased_with_metrics(
        overlay,
        events,
        &plan.workload,
        if faults { &plan.faults } else { &no_faults },
        rng,
        min_nodes,
        plan.metrics.as_ref().filter(|_| sampler),
    ))
}

/// The keys `run_open_loop` will insert for `events`, replayed on a copy of
/// the generator it is about to consume: searches, ranges and inserts draw
/// one key each, in arrival order.
pub fn replay_insert_keys(plan: &OpenLoopPlan, events: &[ArrivalEvent], rng: &SimRng) -> Vec<u64> {
    let keys = plan.workload.resolve_keys();
    let mut rng = rng.clone();
    events
        .iter()
        .filter_map(|event| match event.class {
            OpClass::Search | OpClass::Range => {
                keys.draw(event.at, &mut rng);
                None
            }
            OpClass::Insert => Some(keys.draw(event.at, &mut rng)),
            OpClass::Join | OpClass::Leave | OpClass::Fail => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Serve tier
// ---------------------------------------------------------------------------

/// Exports the overlay's routing snapshot.
pub fn export_snapshot(overlay: &dyn Overlay) -> RoutingSnapshot {
    overlay
        .routing_snapshot()
        .expect("BATON exports routing snapshots")
}

/// Publishes `snapshot` as version 1 of a new cell.
pub fn snapshot_cell(snapshot: RoutingSnapshot) -> Arc<SnapshotCell> {
    Arc::new(SnapshotCell::new(snapshot))
}

/// `queries` uniform exact queries through the repository's batched
/// admission (`run_serve`, batches of 256) on `threads` threads.
pub fn run_serve_exact(
    cell: &Arc<SnapshotCell>,
    queries: u64,
    threads: usize,
    seed: u64,
) -> (Duration, ServeCounters) {
    let outcome = baton_workload::run_serve(cell, &ServeConfig::exact(queries, threads, seed));
    (outcome.elapsed, outcome.counters)
}

// ---------------------------------------------------------------------------
// Scenario engine
// ---------------------------------------------------------------------------

/// A finished scenario run.
pub struct ScenarioRun(baton_sim::ScenarioResult);

impl ScenarioRun {
    /// The run's JSON report.
    pub fn render_json(&self) -> String {
        baton_sim::render_scenarios_json(std::slice::from_ref(&self.0))
    }
}

/// Runs the registered `latency_under_churn` scenario (all four overlays,
/// one repetition, 60 virtual seconds) on one thread.
pub fn run_churn_scenario(
    n: usize,
    per_node: usize,
    searches_per_s: f64,
    seed: u64,
) -> ScenarioRun {
    let profile = profile(n, per_node, searches_per_s * 60.0, seed);
    let result = baton_net::with_threads(1, || {
        baton_sim::scenario::run_scenario_with_options("latency_under_churn", &profile, None, None)
    })
    .expect("latency_under_churn is registered");
    ScenarioRun(result)
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct ProbeMsg;

impl NetMessage for ProbeMsg {
    fn kind(&self) -> &'static str {
        "probe"
    }
}

/// Which link-latency model a [`NetProbe`] samples.
#[derive(Clone, Copy, Debug)]
pub enum ProbeLatency {
    /// Zero latency (`routed_read`).
    Zero,
    /// Log-normal, median 40 ms, sigma 0.5 (`routed_churn`,
    /// `compare_overlays`).
    LogNormal,
    /// Four regions, 10 ms within and 60 ms between (`fault_k*`).
    Regional,
}

/// A bare simulated network carrying a payload-free message between 64
/// peers: the substrate without any protocol on top.
pub struct NetProbe {
    net: SimNetwork<ProbeMsg>,
    peers: Vec<PeerId>,
    next: usize,
}

impl NetProbe {
    /// A network of 64 live peers under `latency`.
    pub fn new(latency: ProbeLatency, seed: u64) -> Self {
        let model = match latency {
            ProbeLatency::Zero => LatencyModel::zero(),
            ProbeLatency::LogNormal => churn_plan(1, 1.0).latency.build(seed),
            ProbeLatency::Regional => LatencyPlan::Regional {
                map: RegionMap::new(4, seed),
                intra: Box::new(LatencyPlan::LogNormal {
                    median: SimTime::from_millis(10),
                    sigma: 0.3,
                }),
                inter: Box::new(LatencyPlan::LogNormal {
                    median: SimTime::from_millis(60),
                    sigma: 0.5,
                }),
                degradations: Vec::new(),
            }
            .build(seed),
        };
        let mut net = SimNetwork::with_latency(model);
        let peers = (0..64).map(|_| net.add_peer()).collect();
        Self {
            net,
            peers,
            next: 0,
        }
    }

    fn pair(&mut self) -> (PeerId, PeerId) {
        self.next = (self.next + 1) % (self.peers.len() - 1);
        (self.peers[self.next], self.peers[self.next + 1])
    }

    /// `count` times `send` + `deliver_next` inside one operation scope.
    pub fn send_deliver(&mut self, count: u64) {
        let op = self.net.begin_op("probe");
        for _ in 0..count {
            let (from, to) = self.pair();
            self.net
                .send(op, from, to, ProbeMsg)
                .expect("probe peers are alive");
            std::hint::black_box(self.net.deliver_next());
        }
        self.net.finish_op(op);
        self.net.stats_mut().retire_finished();
    }

    /// `count` times `count_message` inside one operation scope.
    pub fn count_messages(&mut self, count: u64) {
        let op = self.net.begin_op("probe");
        for _ in 0..count {
            let (from, to) = self.pair();
            self.net.count_message(op, "probe", from, to);
        }
        self.net.finish_op(op);
        self.net.stats_mut().retire_finished();
    }

    /// `count` times `begin_op` + `finish_op` + `retire_finished`.
    pub fn op_scopes(&mut self, count: u64) {
        for _ in 0..count {
            let op = self.net.begin_op("probe");
            self.net.finish_op(op);
            self.net.stats_mut().retire_finished();
        }
    }

    /// `count` link-latency draws.
    pub fn sample_latencies(&mut self, count: u64) {
        for _ in 0..count {
            let (from, to) = self.pair();
            std::hint::black_box(self.net.sample_latency(from, to));
        }
    }
}

/// One node's `LocalStore` holding `items` evenly spaced keys.
pub struct StoreProbe {
    store: LocalStore,
    step: u64,
    items: u64,
}

impl StoreProbe {
    /// A store of `items` values under distinct keys.
    pub fn new(items: u64) -> Self {
        let step = 1_000;
        let mut store = LocalStore::new();
        for i in 0..items {
            store.insert(i * step, i);
        }
        Self { store, step, items }
    }

    /// `count` point lookups, every other one a hit.
    pub fn gets(&self, count: u64) {
        for i in 0..count {
            let key = (i % self.items) * self.step + (i & 1);
            std::hint::black_box(self.store.get(std::hint::black_box(key)));
        }
    }

    /// `count` inserts into a copy of the store.
    pub fn inserts(&self, count: u64) {
        let mut store = self.store.clone();
        for i in 0..count {
            store.insert((i % self.items) * self.step + 1 + i / self.items, i);
        }
        std::hint::black_box(store.len());
    }

    /// `count` scans of the whole store; returns the items visited.
    pub fn scans(&self, count: u64) -> u64 {
        let whole = KeyRange::new(0, self.items * self.step);
        let mut visited = 0;
        for _ in 0..count {
            visited += std::hint::black_box(self.store.scan(std::hint::black_box(whole))).len();
        }
        visited as u64
    }
}
