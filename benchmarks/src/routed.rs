//! `routed_read`, and the closed-loop query and churn blocks the routed
//! workloads share.

use std::time::Instant;

use crate::model::Model;
use crate::sut::{self, BatonSystem, Miss, Overlay, SimRng, DOMAIN_HIGH, DOMAIN_LOW};
use crate::trace::{Ledger, Tracer};
use crate::workload::{HostSamples, Scale, SimCounts, Verdict, Workload};

/// Queries per batch: finished operations are retired after each.
pub const BATCH: usize = 256;

/// Width of a range query: 0.1 % of the key domain.
pub const RANGE_WIDTH: u64 = (DOMAIN_HIGH - DOMAIN_LOW) / 1000;

/// One generated query.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    /// Exact match for the key.
    Exact(u64),
    /// Range `[low, high)`.
    Range(u64, u64),
}

/// A range query of the standard width starting at `low`.
pub fn range_from(low: u64) -> Query {
    Query::Range(low, (low + RANGE_WIDTH).min(DOMAIN_HIGH))
}

/// `exact` exact-match and `ranges` range queries, interleaved evenly.
/// Half of the exact keys are drawn from `data`, half uniformly from the
/// domain (nearly all of those miss).
pub fn generate_queries(
    data: &[(u64, u64)],
    exact: usize,
    ranges: usize,
    rng: &mut SimRng,
) -> Vec<Query> {
    let total = exact + ranges;
    let mut ranges_out = 0;
    (0..total)
        .map(|i| {
            // Range queries land where the running share falls behind.
            if ranges_out * total < ranges * (i + 1) && ranges_out < ranges {
                ranges_out += 1;
                range_from(rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH))
            } else if i % 2 == 0 {
                Query::Exact(data[rng.index(data.len())].0)
            } else {
                Query::Exact(rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH))
            }
        })
        .collect()
}

/// What a block of closed-loop queries cost, by the `OpCost` of each call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTally {
    /// Exact-match queries answered.
    pub exact_ops: u64,
    /// Their messages.
    pub exact_msgs: u64,
    /// Range queries answered.
    pub range_ops: u64,
    /// Their messages.
    pub range_msgs: u64,
    /// Nodes whose range intersected a range query.
    pub nodes_visited: u64,
    /// Queries that met dead peers.
    pub unavailable: u64,
    /// Queries that failed otherwise.
    pub errors: u64,
}

/// Marks a query without an answer in an answers vector.
pub const NO_ANSWER: u32 = u32::MAX;

/// Runs `queries` one after the other (one client, closed loop), retiring
/// finished operations after every batch, and appends each answer's
/// `matches` to `answers`.
pub fn run_queries(
    overlay: &mut dyn Overlay,
    queries: &[Query],
    answers: &mut Vec<u32>,
    tally: &mut QueryTally,
    tracer: &mut Tracer,
) {
    for batch in queries.chunks(BATCH) {
        for query in batch {
            let result = match *query {
                Query::Exact(key) => {
                    tracer.enter("core.search.exact");
                    let result = sut::exact(overlay, key);
                    tracer.exit();
                    if let Ok(cost) = &result {
                        tally.exact_ops += 1;
                        tally.exact_msgs += cost.messages;
                    }
                    result
                }
                Query::Range(low, high) => {
                    tracer.enter("core.range.range");
                    let result = sut::range(overlay, low, high);
                    tracer.exit();
                    if let Ok(cost) = &result {
                        tally.range_ops += 1;
                        tally.range_msgs += cost.messages;
                        tally.nodes_visited += cost.nodes_visited as u64;
                    }
                    result
                }
            };
            answers.push(match result {
                Ok(cost) => cost.matches as u32,
                Err(Miss::Unavailable) => {
                    tally.unavailable += 1;
                    NO_ANSWER
                }
                Err(_) => {
                    tally.errors += 1;
                    NO_ANSWER
                }
            });
        }
        tracer.enter("net.stats.retire");
        sut::retire(overlay);
        tracer.exit();
    }
}

/// Answers that differ from the model's (a query without an answer counts).
pub fn count_mismatches(model: &Model, queries: &[Query], answers: &[u32]) -> u64 {
    assert_eq!(queries.len(), answers.len(), "one answer per query");
    queries
        .iter()
        .zip(answers)
        .filter(|(query, answer)| {
            let expected = match **query {
                Query::Exact(key) => model.exact(key),
                Query::Range(low, high) => model.range(low, high),
            };
            u64::from(**answer) != expected
        })
        .count() as u64
}

fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Records a tally's simulated per-query costs under the `core.*` names.
pub fn tally_layers(tally: &QueryTally, sim: &mut SimCounts) {
    sim.layers.insert(
        "core.search.exact_msgs",
        per(tally.exact_msgs, tally.exact_ops),
    );
    sim.layers.insert(
        "core.range.range_msgs",
        per(tally.range_msgs, tally.range_ops),
    );
    sim.layers.insert(
        "core.range.nodes_visited",
        per(tally.nodes_visited, tally.range_ops),
    );
}

/// The set-up the bulk-built workloads share, each step under its span:
/// generate the dataset, bulk-build BATON, place the data directly.
pub fn bulk_setup(n: usize, per_node: usize, seed: u64, tracer: &mut Tracer) -> BatonSystem {
    tracer.enter("workload.dataset.generate");
    let data = sut::dataset(n, per_node, seed);
    tracer.exit();
    tracer.enter("core.bulk.build");
    let mut overlay = sut::bulk_baton(n, per_node, seed);
    tracer.exit();
    tracer.enter("core.bulk.load");
    sut::load_direct(&mut overlay, &data);
    tracer.exit();
    overlay
}

/// Records the spans of the bulk set-up under the `core.bulk.*` names.
pub fn bulk_layers(ledger: &mut Ledger, tracer: &Tracer, n: usize, items: usize) {
    ledger.set(
        "core.bulk.build_ns_per_node",
        tracer.mean_ns("core.bulk.build") / n as f64,
    );
    ledger.set(
        "core.bulk.load_ns_per_item",
        tracer.mean_ns("core.bulk.load") / items as f64,
    );
}

/// Runs `queries` with the route recorder off, then on: records the
/// recorder's cost, the hops per query by link kind, and the mean time per
/// query class.  (Issuers are drawn at random, so the passes route the same
/// keys from different peers and their message counts differ slightly.)
pub fn search_layers(
    overlay: &mut dyn Overlay,
    queries: &[Query],
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) {
    let mut answers = Vec::with_capacity(queries.len());
    let mut quiet = Tracer::disabled();
    let mut tally = QueryTally::default();
    let mut pass = |overlay: &mut dyn Overlay, tracer: &mut Tracer| {
        answers.clear();
        tally = QueryTally::default();
        let started = Instant::now();
        run_queries(overlay, queries, &mut answers, &mut tally, tracer);
        started.elapsed().as_secs_f64()
    };
    // Warm-up, then the two passes the overhead is taken from.
    pass(overlay, &mut quiet);
    let off_s = pass(overlay, &mut quiet);
    sut::start_route_recorder(overlay, queries.len());
    let on_s = pass(overlay, &mut quiet);
    let (recorded, hops) = sut::take_route_recorder(overlay);
    ledger.set("net.trace.overhead_pct", (on_s / off_s - 1.0) * 100.0);
    for (kind, count) in hops {
        let name = match kind {
            "routing_table" => "core.search.hops_routing_table",
            "parent" => "core.search.hops_parent",
            "child" => "core.search.hops_child",
            "adjacent" => "core.search.hops_adjacent",
            _ => continue,
        };
        ledger.set(name, per(count, recorded));
    }
    // One more pass under the benchmark's own spans for the per-class times.
    pass(overlay, tracer);
    ledger.set("core.search.exact_ns", tracer.mean_ns("core.search.exact"));
    ledger.set("core.range.range_ns", tracer.mean_ns("core.range.range"));
    let mut costs = SimCounts::default();
    tally_layers(&tally, &mut costs);
    for (name, value) in costs.layers {
        ledger.set(name, value);
    }
}

/// Closed-loop blocks of calls per data and membership class, each call
/// under a span: the per-call cost of the classes an open-loop run mixes.
pub fn churn_layers(
    overlay: &mut dyn Overlay,
    blocks: u64,
    seed: u64,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) {
    let mut rng = SimRng::seeded(seed ^ 0xB10C);
    let keys: Vec<u64> = (0..blocks)
        .map(|_| rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH))
        .collect();
    let mut balance_msgs = 0u64;
    for (i, key) in keys.iter().enumerate() {
        tracer.enter("core.data.insert");
        let result = sut::insert(overlay, *key, i as u64);
        tracer.exit();
        if let Ok(cost) = result {
            balance_msgs += cost.balance_messages;
        }
    }
    for key in &keys {
        tracer.enter("core.data.delete");
        let _ = sut::delete(overlay, *key);
        tracer.exit();
    }
    let mut churn =
        |span: &'static str, call: fn(&mut dyn Overlay) -> Result<sut::ChurnCost, Miss>| {
            let mut msgs = 0;
            let mut done = 0;
            for _ in 0..blocks {
                tracer.enter(span);
                let result = call(overlay);
                tracer.exit();
                if let Ok(cost) = result {
                    msgs += cost.total_messages();
                    done += 1;
                }
            }
            sut::retire(overlay);
            (tracer.mean_ns(span), per(msgs, done))
        };
    let (join_ns, join_msgs) = churn("core.join", sut::join);
    let (leave_ns, leave_msgs) = churn("core.leave", sut::leave);
    // Joins refill what the failures below remove.
    let (failure_ns, failure_msgs) = churn("core.failure", sut::fail);
    ledger.set("core.data.insert_ns", tracer.mean_ns("core.data.insert"));
    ledger.set("core.data.delete_ns", tracer.mean_ns("core.data.delete"));
    ledger.set(
        "core.data.balance_msgs_per_insert",
        per(balance_msgs, blocks),
    );
    ledger.set("core.join.ns", join_ns);
    ledger.set("core.join.msgs", join_msgs);
    ledger.set("core.leave.ns", leave_ns);
    ledger.set("core.leave.msgs", leave_msgs);
    ledger.set("core.failure.ns", failure_ns);
    ledger.set("core.failure.msgs", failure_msgs);
}

/// Calls per class a full-size traced run makes in [`churn_layers`].
pub fn class_block(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 2_000,
        Scale::Smoke => 50,
    }
}

struct State {
    overlay: BatonSystem,
    answers: Vec<Vec<u32>>,
    tally: QueryTally,
}

/// Spans the route recorder keeps while a whole cycle is replayed under it.
const RECORDER_CAPACITY: usize = 4096;

/// `routed_read`: closed-loop exact and range reads on a bulk-built,
/// direct-loaded BATON overlay under the zero-latency model.
pub struct RoutedRead {
    n: usize,
    per_node: usize,
    seed: u64,
    data: Vec<(u64, u64)>,
    queries: Vec<Vec<Query>>,
    state: Option<State>,
    /// The last cycle's counters, for the recorder-on replay to equal.
    last: Option<SimCounts>,
}

impl RoutedRead {
    /// The workload at `scale`, with every input generated from `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (n, reps, exact, ranges) = match scale {
            Scale::Full => (10_000, 5, 40_000, 10_000),
            Scale::Smoke => (500, 1, 4_000, 1_000),
        };
        let per_node = 20;
        let data = sut::dataset(n, per_node, seed);
        let queries = (0..reps)
            .map(|rep| {
                let mut rng = SimRng::seeded(seed ^ 0x51AD).derive(rep as u64);
                generate_queries(&data, exact, ranges, &mut rng)
            })
            .collect();
        Self {
            n,
            per_node,
            seed,
            data,
            queries,
            state: None,
            last: None,
        }
    }

    fn state(&mut self) -> &mut State {
        self.state.as_mut().expect("set-up ran")
    }
}

impl Workload for RoutedRead {
    fn setup(&mut self, tracer: &mut Tracer) {
        self.state = None;
        let overlay = bulk_setup(self.n, self.per_node, self.seed, tracer);
        self.state = Some(State {
            overlay,
            answers: self
                .queries
                .iter()
                .map(|q| Vec::with_capacity(q.len()))
                .collect(),
            tally: QueryTally::default(),
        });
    }

    fn reps(&self) -> usize {
        self.queries.len()
    }

    fn rep(&mut self, index: usize, _host: &mut HostSamples, tracer: &mut Tracer) -> u64 {
        let state = self.state.as_mut().expect("set-up ran");
        let queries = &self.queries[index];
        let answers = &mut state.answers[index];
        answers.clear();
        run_queries(
            &mut state.overlay,
            queries,
            answers,
            &mut state.tally,
            tracer,
        );
        queries.len() as u64
    }

    fn finish(&mut self) -> SimCounts {
        let state = self.state();
        let net = sut::net_totals(&state.overlay);
        let size = sut::footprint(&state.overlay);
        let tally = state.tally;
        let ops = tally.exact_ops + tally.range_ops + tally.unavailable + tally.errors;
        let mut sim = SimCounts {
            ops,
            msgs: net.sent,
            msg_ops: ops,
            query_hops: net.query_hops,
            queries: net.queries,
            asked: ops,
            answered: ops - tally.unavailable - tally.errors,
            unavailable: tally.unavailable,
            failed_deliveries: net.failed,
            errors: tally.errors,
            state_bytes: size.state_bytes,
            peers: size.peers,
            ..SimCounts::default()
        };
        for answer in state.answers.iter().flatten() {
            sim.digest(u64::from(*answer));
        }
        tally_layers(&tally, &mut sim);
        sim.layers.insert(
            "core.search.detour_hops",
            per(net.query_detour_hops, net.queries),
        );
        sim.layers.insert("net.network.msgs", net.sent as f64);
        sim.layers
            .insert("net.network.failed_deliveries", net.failed as f64);
        sim.layers
            .insert("core.height", f64::from(sut::baton_height(&state.overlay)));
        self.last = Some(sim.clone());
        sim
    }

    fn verify(&mut self) -> Verdict {
        let model = Model::from_data(&self.data);
        let state = self.state.as_ref().expect("set-up ran");
        let mismatches = self
            .queries
            .iter()
            .zip(&state.answers)
            .map(|(queries, answers)| count_mismatches(&model, queries, answers))
            .sum();
        Verdict {
            mismatches,
            invalid: sut::validate(&state.overlay).err(),
            probe_found_share: None,
        }
    }

    fn layers(&mut self, ledger: &mut Ledger, tracer: &mut Tracer) {
        bulk_layers(ledger, tracer, self.n, self.data.len());
        let queries = self.queries[0].clone();
        search_layers(&mut self.state().overlay, &queries, ledger, tracer);
        // A whole cycle replayed with the route recorder on must leave
        // every simulated counter as it was: the recorder only observes.
        let expected = self.last.take().expect("a cycle finished");
        let mut quiet = Tracer::disabled();
        self.setup(&mut quiet);
        sut::start_route_recorder(&mut self.state().overlay, RECORDER_CAPACITY);
        for index in 0..self.reps() {
            self.rep(index, &mut HostSamples::default(), &mut quiet);
        }
        assert!(
            self.finish() == expected,
            "the route recorder changed the simulated counters"
        );
    }
}
