//! `serve_read` and `serve_publish`: the snapshot serve tier as a reader and
//! as a writer.
//!
//! Both are closed loops with one client.  The client works in batches of
//! 256 queries, each batch one `SnapshotReader::refresh` followed by
//! `RoutingSnapshot::exact` or `range` calls; a batch holds queries of one
//! kind so a single span around it times that kind.

use std::sync::Arc;
use std::time::Instant;

use crate::model::Model;
use crate::routed::{BATCH, RANGE_WIDTH};
use crate::stats::median;
use crate::sut::{
    self, BatonSystem, ServeCounters, SimRng, SnapshotCell, SnapshotReader, DOMAIN_HIGH, DOMAIN_LOW,
};
use crate::trace::{Ledger, Tracer};
use crate::workload::{HostSamples, Scale, SimCounts, Verdict, Workload};

/// One batch of queries of a single kind.
#[derive(Clone, Debug)]
struct Batch {
    range: bool,
    /// `(key, start hint)` per query; a range query covers
    /// `[key, key + RANGE_WIDTH)`.
    queries: Vec<(u64, u64)>,
}

/// `exact` exact-match queries (half of the keys drawn from `data`) and
/// `ranges` range queries, in batches of [`BATCH`], range batches spread
/// evenly among the exact ones.
fn generate_batches(
    data: &[(u64, u64)],
    exact: usize,
    ranges: usize,
    rng: &mut SimRng,
) -> Vec<Batch> {
    let exact_batches = exact.div_ceil(BATCH);
    let range_batches = ranges.div_ceil(BATCH);
    let total = exact_batches + range_batches;
    let (mut exact_left, mut ranges_left, mut ranges_out) = (exact, ranges, 0);
    (0..total)
        .map(|i| {
            let range = ranges_out * total < range_batches * (i + 1) && ranges_left > 0;
            let left = if range {
                ranges_out += 1;
                &mut ranges_left
            } else {
                &mut exact_left
            };
            let size = BATCH.min(*left);
            *left -= size;
            let queries = (0..size)
                .map(|q| {
                    let key = if !range && q % 2 == 0 {
                        data[rng.index(data.len())].0
                    } else {
                        rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH)
                    };
                    (key, rng.uniform_u64(0, u64::MAX))
                })
                .collect();
            Batch { range, queries }
        })
        .collect()
}

/// Answers one batch from the reader's snapshot, after one `refresh`.
#[inline]
fn serve_batch(
    reader: &mut SnapshotReader,
    batch: &Batch,
    counters: &mut ServeCounters,
    answers: &mut Vec<u32>,
    host: &mut HostSamples,
    tracer: &mut Tracer,
) {
    let started = Instant::now();
    tracer.enter("net.serve.refresh");
    reader.refresh();
    tracer.exit();
    let snapshot = reader.snapshot();
    if batch.range {
        tracer.enter("net.serve.range_batch");
        for (key, hint) in &batch.queries {
            let answer = snapshot.range(*key, key.saturating_add(RANGE_WIDTH), *hint, counters);
            answers.push(answer.matches as u32);
        }
    } else {
        tracer.enter("net.serve.exact_batch");
        for (key, hint) in &batch.queries {
            let answer = snapshot.exact(*key, *hint, counters);
            answers.push(answer.matches as u32);
        }
    }
    tracer.exit();
    host.batch_us.push(started.elapsed().as_secs_f64() * 1e6);
}

struct State {
    overlay: BatonSystem,
    cell: Arc<SnapshotCell>,
    reader: SnapshotReader,
    counters: ServeCounters,
    answers: Vec<Vec<u32>>,
    errors: u64,
}

/// `serve_read` (`publish == false`) or `serve_publish`.
pub struct Serve {
    publish: bool,
    n: usize,
    per_node: usize,
    seed: u64,
    data: Vec<(u64, u64)>,
    /// The batches of each repetition.
    batches: Vec<Vec<Batch>>,
    state: Option<State>,
}

impl Serve {
    /// `serve_read` at `scale`.
    pub fn read(scale: Scale, seed: u64) -> Self {
        let (n, reps, exact, ranges) = match scale {
            Scale::Full => (10_000, 8, 200_000, 20_000),
            Scale::Smoke => (500, 1, 20_000, 2_000),
        };
        Self::new(false, n, reps, exact, ranges, seed)
    }

    /// `serve_publish` at `scale`: every repetition is one churn, export,
    /// publish, refresh cycle followed by 2,048 exact queries (ISSUE 11 has
    /// 512; four times as many halve the seed-to-seed spread of
    /// `hops_per_query` at a thousandth of the cycle's cost).
    pub fn publish(scale: Scale, seed: u64) -> Self {
        let (n, reps) = match scale {
            Scale::Full => (10_000, 4),
            Scale::Smoke => (500, 2),
        };
        Self::new(true, n, reps, 8 * BATCH, 0, seed)
    }

    fn new(publish: bool, n: usize, reps: usize, exact: usize, ranges: usize, seed: u64) -> Self {
        let per_node = 10;
        let data = sut::dataset(n, per_node, seed);
        let batches = (0..reps)
            .map(|rep| {
                let mut rng = SimRng::seeded(seed ^ 0x5E27).derive(rep as u64);
                generate_batches(&data, exact, ranges, &mut rng)
            })
            .collect();
        Self {
            publish,
            n,
            per_node,
            seed,
            data,
            batches,
            state: None,
        }
    }

    fn state(&mut self) -> &mut State {
        self.state.as_mut().expect("set-up ran")
    }
}

impl Workload for Serve {
    fn setup(&mut self, tracer: &mut Tracer) {
        self.state = None;
        let overlay = crate::routed::bulk_setup(self.n, self.per_node, self.seed, tracer);
        tracer.enter("core.snapshot.build");
        let snapshot = sut::export_snapshot(&overlay);
        tracer.exit();
        let cell = sut::snapshot_cell(snapshot);
        let reader = SnapshotReader::new(Arc::clone(&cell));
        self.state = Some(State {
            overlay,
            cell,
            reader,
            counters: ServeCounters::default(),
            answers: self
                .batches
                .iter()
                .map(|b| Vec::with_capacity(b.len() * BATCH))
                .collect(),
            errors: 0,
        });
    }

    fn reps(&self) -> usize {
        self.batches.len()
    }

    fn rep(&mut self, index: usize, host: &mut HostSamples, tracer: &mut Tracer) -> u64 {
        let state = self.state.as_mut().expect("set-up ran");
        if self.publish {
            tracer.enter("serve.publish_cycle");
            let churned = if index.is_multiple_of(2) {
                tracer.enter("core.join");
                let result = sut::join(&mut state.overlay);
                tracer.exit();
                result
            } else {
                tracer.enter("core.leave");
                let result = sut::leave(&mut state.overlay);
                tracer.exit();
                result
            };
            if churned.is_err() {
                state.errors += 1;
            }
            let committed = Instant::now();
            tracer.enter("core.snapshot.build");
            let snapshot = sut::export_snapshot(&state.overlay);
            tracer.exit();
            tracer.enter("net.serve.publish");
            let version = state.cell.publish(snapshot);
            tracer.exit();
            tracer.enter("net.serve.refresh");
            state.reader.refresh();
            tracer.exit();
            if state.reader.snapshot().version() != version {
                state.errors += 1;
            }
            host.visible_ms
                .push(committed.elapsed().as_secs_f64() * 1e3);
        }
        let answers = &mut state.answers[index];
        answers.clear();
        for batch in &self.batches[index] {
            serve_batch(
                &mut state.reader,
                batch,
                &mut state.counters,
                answers,
                host,
                tracer,
            );
        }
        if self.publish {
            tracer.exit();
            1
        } else {
            answers.len() as u64
        }
    }

    fn finish(&mut self) -> SimCounts {
        let publish = self.publish;
        let reps = self.batches.len() as u64;
        let state = self.state();
        let c = state.counters.clone();
        let snapshot = state.reader.snapshot();
        let mut sim = SimCounts {
            ops: if publish { reps } else { c.queries },
            msgs: c.hops,
            msg_ops: c.queries,
            query_hops: c.hops,
            queries: c.queries,
            asked: c.queries,
            answered: c.queries - c.unavailable - c.rejected,
            unavailable: c.unavailable,
            errors: state.errors + c.rejected,
            state_bytes: snapshot.estimated_bytes(),
            peers: snapshot.slots() as u64,
            answers_digest: c.checksum,
            ..SimCounts::default()
        };
        sim.layers.insert("net.serve.failover", c.failover as f64);
        sim.layers
            .insert("net.serve.unavailable", c.unavailable as f64);
        sim.layers.insert("net.serve.rejected", c.rejected as f64);
        sim.layers.insert(
            "net.serve.snapshot_bytes",
            snapshot.estimated_bytes() as f64,
        );
        sim
    }

    fn verify(&mut self) -> Verdict {
        // Joins and leaves move items between nodes but never lose one, so
        // the loaded dataset is the model for every published version.
        let model = Model::from_data(&self.data);
        let state = self.state.as_ref().expect("set-up ran");
        let mut mismatches = 0;
        for (batches, answers) in self.batches.iter().zip(&state.answers) {
            let queries = batches
                .iter()
                .flat_map(|b| b.queries.iter().map(move |(key, _)| (b.range, *key)));
            let mut answered = 0;
            for ((range, key), answer) in queries.zip(answers) {
                let expected = if range {
                    model.range(key, key.saturating_add(RANGE_WIDTH))
                } else {
                    model.exact(key)
                };
                mismatches += u64::from(u64::from(*answer) != expected);
                answered += 1;
            }
            let asked: usize = batches.iter().map(|b| b.queries.len()).sum();
            mismatches += (asked - answered) as u64;
        }
        Verdict {
            mismatches,
            invalid: sut::validate(&state.overlay).err(),
            probe_found_share: None,
        }
    }

    fn layers(&mut self, ledger: &mut Ledger, tracer: &mut Tracer) {
        let seed = self.seed;
        let (n, items) = (self.n, self.data.len());
        crate::routed::bulk_layers(ledger, tracer, n, items);
        ledger.set(
            "core.snapshot.build_ms",
            tracer.mean_ns("core.snapshot.build") / 1e6,
        );
        ledger.set("net.serve.refresh_ns", tracer.mean_ns("net.serve.refresh"));
        if self.publish {
            ledger.set("net.serve.publish_ns", tracer.mean_ns("net.serve.publish"));
            ledger.set("core.join.ns", tracer.mean_ns("core.join"));
            ledger.set("core.leave.ns", tracer.mean_ns("core.leave"));
        }
        let (exact, ranges, slots) = {
            let batches = self.batches.iter().flatten();
            let (mut exact, mut ranges) = (0u64, 0u64);
            for batch in batches {
                if batch.range {
                    ranges += batch.queries.len() as u64;
                } else {
                    exact += batch.queries.len() as u64;
                }
            }
            (exact, ranges, self.state().counters.slots_swept)
        };
        // Span totals cover every traced cycle; the counters one cycle.
        let cycles = tracer.totals("core.bulk.build").count.max(1) as f64;
        let exact_ns = tracer.totals("net.serve.exact_batch").total_ns as f64 / cycles;
        let range_ns = tracer.totals("net.serve.range_batch").total_ns as f64 / cycles;
        ledger.set("net.serve.exact_ns", exact_ns / exact.max(1) as f64);
        if ranges > 0 {
            ledger.set("net.serve.range_ns", range_ns / ranges as f64);
            ledger.set(
                "net.serve.range_ns_per_slot",
                range_ns / slots.max(1) as f64,
            );
        }
        if self.publish {
            return;
        }
        // The repository's batched admission (`run_serve`) against the bare
        // calls: the same number of uniform exact queries, keys and start
        // hints drawn inside the loop as `run_serve` draws them, one thread;
        // three alternating rounds, the median of each side.
        let cell = Arc::clone(&self.state().cell);
        let queries = exact;
        let bare = || {
            let started = Instant::now();
            let mut counters = ServeCounters::default();
            let mut reader = SnapshotReader::new(Arc::clone(&cell));
            let mut rng = SimRng::seeded(seed);
            for _ in 0..queries.div_ceil(BATCH as u64) {
                reader.refresh();
                let snapshot = reader.snapshot();
                for _ in 0..BATCH {
                    let key = rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH);
                    let hint = rng.uniform_u64(0, u64::MAX);
                    snapshot.exact(key, hint, &mut counters);
                }
            }
            std::hint::black_box(counters);
            started.elapsed().as_secs_f64()
        };
        let (mut bare_s, mut admitted_s) = (Vec::new(), Vec::new());
        let mut counters_one = ServeCounters::default();
        for _ in 0..3 {
            bare_s.push(bare());
            let (elapsed, counters) = sut::run_serve_exact(&cell, queries, 1, seed);
            admitted_s.push(elapsed.as_secs_f64());
            counters_one = counters;
        }
        ledger.set(
            "workload.serve.run_serve_overhead_pct",
            (median(&admitted_s) / median(&bare_s) - 1.0) * 100.0,
        );
        // The same on two threads where the host has them; the counters
        // must agree.
        if crate::host::nproc() >= 2 {
            let (two, counters_two) = sut::run_serve_exact(&cell, queries, 2, seed);
            assert_eq!(
                counters_one, counters_two,
                "two serving threads answered differently from one"
            );
            ledger.set("net.serve.exact_qps_t2", queries as f64 / two.as_secs_f64());
        }
    }
}
