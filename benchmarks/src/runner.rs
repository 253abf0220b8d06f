//! Runs one workload in this process: cycles of set-up and repetitions
//! until `--seconds` have passed, the check against the reference model,
//! and the metrics by name.

use std::path::PathBuf;
use std::time::Instant;

use crate::catalog::{self, Clock, MetricInfo};
use crate::host;
use crate::openloop::{OpenLoop, Shape};
use crate::probes;
use crate::routed::RoutedRead;
use crate::serve::Serve;
use crate::stats::{median, percentile, quartiles, tail};
use crate::trace::{Ledger, Tracer};
use crate::workload::{HostSamples, Scale, SimCounts, Verdict, Workload};

/// Cycles a full-size run makes at least, so `setup_s` is a median of
/// several set-ups however short `--seconds` is.
const MIN_CYCLES: usize = 3;

/// Spans kept for the span file; every span is totalled regardless.
const KEPT_SPANS: usize = 100_000;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// One of the seven workload names.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Full or smoke sizes.
    pub scale: Scale,
    /// Where the span file of a traced run goes.
    pub out_dir: PathBuf,
}

/// One emitted metric.
#[derive(Clone, Debug)]
pub struct Emitted {
    /// Catalog entry.
    pub info: &'static MetricInfo,
    /// Value as measured.
    pub value: f64,
    /// Quartiles, sample count and the like, for the human reader.
    pub detail: String,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// No operation failed, every answer matched the model, the invariants
    /// hold and every cycle's simulated counters were equal.
    pub correct: bool,
    /// Operations attempted by the timed repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every end-to-end metric (plain run) or per-layer metric (traced run).
    pub metrics: Vec<Emitted>,
}

impl RunResult {
    /// The result as the one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.info.name, value, m.info.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Builds the named workload.
pub fn build(name: &str, scale: Scale, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "routed_read" => Box::new(RoutedRead::new(scale, seed)),
        "routed_churn" => Box::new(OpenLoop::new(Shape::Churn, scale, seed)),
        "fault_k1" => Box::new(OpenLoop::new(Shape::Fault { replicas: 1 }, scale, seed)),
        "fault_k2" => Box::new(OpenLoop::new(Shape::Fault { replicas: 2 }, scale, seed)),
        "compare_overlays" => Box::new(OpenLoop::new(Shape::Compare, scale, seed)),
        "serve_read" => Box::new(Serve::read(scale, seed)),
        "serve_publish" => Box::new(Serve::publish(scale, seed)),
        _ => return None,
    })
}

/// Host-clock samples and the simulated summary of a sequence of cycles.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Operations per second of each repetition.
    rates: Vec<f64>,
    rep_ns: f64,
    ops: u64,
    allocations: u64,
    allocated_bytes: u64,
    host: HostSamples,
    /// The first cycle's counters; later cycles must equal them.
    sim: Option<SimCounts>,
    repeatable: bool,
    cycles: usize,
}

impl Measured {
    fn new() -> Self {
        Self {
            repeatable: true,
            ..Self::default()
        }
    }

    /// Runs one cycle of `workload` and folds it in.
    fn cycle(&mut self, workload: &mut dyn Workload, tracer: &mut Tracer) {
        let started = Instant::now();
        tracer.enter("cycle.setup");
        workload.setup(tracer);
        tracer.exit();
        self.setup_s.push(started.elapsed().as_secs_f64());
        for index in 0..workload.reps() {
            let (count, bytes) = host::allocations();
            let started = Instant::now();
            tracer.enter("cycle.rep");
            let ops = workload.rep(index, &mut self.host, tracer);
            tracer.exit();
            let elapsed = started.elapsed();
            let (count_after, bytes_after) = host::allocations();
            self.rates.push(ops as f64 / elapsed.as_secs_f64());
            self.rep_ns += elapsed.as_nanos() as f64;
            self.ops += ops;
            self.allocations += count_after - count;
            self.allocated_bytes += bytes_after - bytes;
        }
        let sim = workload.finish();
        match &self.sim {
            None => self.sim = Some(sim),
            Some(first) if *first != sim => {
                eprintln!(
                    "cycle {} differs from the first in its simulated counters",
                    self.cycles
                );
                self.repeatable = false;
            }
            Some(_) => {}
        }
        self.cycles += 1;
    }

    fn sim(&self) -> &SimCounts {
        self.sim.as_ref().expect("at least one cycle ran")
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn quartile_detail(samples: &[f64]) -> String {
    let [q1, _, q3] = quartiles(samples);
    format!("q1={q1} q3={q3} n={}", samples.len())
}

/// Operations that count as failed: none may on any workload.
fn failed_ops(sim: &SimCounts, verdict: &Verdict, repeatable: bool, attempted: u64) -> u64 {
    if verdict.invalid.is_some() || !repeatable {
        attempted.max(1)
    } else {
        sim.errors + verdict.mismatches
    }
}

fn emit(name: &str, value: f64, detail: String) -> Emitted {
    Emitted {
        info: catalog::metric(name).expect("emitted metrics are in the catalog"),
        value,
        detail,
    }
}

fn end_to_end(workload: &mut dyn Workload, options: &Options) -> RunResult {
    let mut quiet = Tracer::disabled();
    let mut measured = Measured::new();
    let min_cycles = match options.scale {
        Scale::Full => MIN_CYCLES,
        Scale::Smoke => 1,
    };
    let started = Instant::now();
    let mut verdict = Verdict::default();
    loop {
        measured.cycle(workload, &mut quiet);
        if measured.cycles == 1 {
            verdict = workload.verify();
        }
        if measured.cycles >= min_cycles && started.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }
    let sim = measured.sim();
    let failed = failed_ops(sim, &verdict, measured.repeatable, measured.ops);
    report_verdict(&verdict);
    let sim_detail = format!("exact over {} identical cycles", measured.cycles);
    let metrics = vec![
        emit(
            "setup_s",
            median(&measured.setup_s),
            quartile_detail(&measured.setup_s),
        ),
        emit(
            "ops_per_s",
            median(&measured.rates),
            quartile_detail(&measured.rates),
        ),
        emit("peak_rss_mb", host::peak_rss_mib(), "VmHWM".to_owned()),
        emit(
            "msgs_per_op",
            ratio(sim.msgs, sim.msg_ops),
            sim_detail.clone(),
        ),
        emit(
            "hops_per_query",
            ratio(sim.query_hops, sim.queries),
            sim_detail.clone(),
        ),
        emit(
            "state_bytes_per_peer",
            ratio(sim.state_bytes, sim.peers),
            sim_detail.clone(),
        ),
        emit("availability", ratio(sim.answered, sim.asked), sim_detail),
    ];
    RunResult {
        correct: failed == 0,
        attempted: measured.ops,
        failed,
        metrics,
    }
}

fn report_verdict(verdict: &Verdict) {
    if let Some(broken) = &verdict.invalid {
        println!("check: validate() failed: {broken}");
    }
    if verdict.mismatches > 0 {
        println!(
            "check: {} answers disagree with the model",
            verdict.mismatches
        );
    }
}

fn traced(workload: &mut dyn Workload, options: &Options) -> RunResult {
    let mut ledger = Ledger::default();
    probes::run(&mut ledger, options.scale, options.seed);

    // Pairs of an untraced and a traced cycle: the untraced side gives the
    // host numbers, the traced side the spans, their ratio the overhead.
    let mut quiet = Tracer::disabled();
    let mut tracer = Tracer::enabled(KEPT_SPANS);
    let mut plain = Measured::new();
    let mut spanned = Measured::new();
    let started = Instant::now();
    let mut verdict = Verdict::default();
    loop {
        plain.cycle(workload, &mut quiet);
        if plain.cycles == 1 {
            verdict = workload.verify();
        }
        spanned.cycle(workload, &mut tracer);
        if started.elapsed().as_secs_f64() >= options.seconds / 2.0 {
            break;
        }
    }
    let repeatable = plain.repeatable && spanned.repeatable && plain.sim() == spanned.sim();
    if plain.sim() != spanned.sim() {
        eprintln!("the traced cycle's simulated counters differ from the untraced cycle's");
    }
    workload.layers(&mut ledger, &mut tracer);

    let sim = plain.sim();
    let failed = failed_ops(sim, &verdict, repeatable, plain.ops);
    report_verdict(&verdict);
    for (name, value) in &sim.layers {
        ledger.set(name, *value);
    }
    ledger.set(
        "net.network.share_est",
        ledger.get("net.network.msgs")
            * plain.cycles as f64
            * ledger.get("net.network.send_deliver_ns")
            / plain.rep_ns,
    );
    let ops = plain.ops.max(1) as f64;
    ledger.set("host.alloc_count_per_op", plain.allocations as f64 / ops);
    ledger.set(
        "host.alloc_bytes_per_op",
        plain.allocated_bytes as f64 / ops,
    );
    ledger.set(
        "host.trace_overhead_pct",
        (median(&plain.rates) / median(&spanned.rates) - 1.0) * 100.0,
    );
    let unanswered = sim.errors + sim.unavailable + sim.skipped + verdict.mismatches;
    ledger.set(
        "failed_share",
        if verdict.invalid.is_some() {
            1.0
        } else {
            ratio(unanswered, sim.ops)
        },
    );
    if let Some(share) = verdict.probe_found_share {
        ledger.set("workload.openloop.probe_found_share", share);
    }
    let latencies_ms: Vec<f64> = sim
        .search_latencies_us
        .iter()
        .map(|us| *us as f64 / 1e3)
        .collect();
    if !latencies_ms.is_empty() {
        ledger.set("sim_p50_ms", percentile(&latencies_ms, 50.0));
        let (p, value) = tail(&latencies_ms, 99.0);
        ledger.set("sim_p99_ms", value);
        println!(
            "note: sim_p99_ms is the {p}th percentile of {} exact-search latencies",
            latencies_ms.len()
        );
    }
    if !plain.host.batch_us.is_empty() {
        ledger.set("batch_p50_us", median(&plain.host.batch_us));
        let (p, value) = tail(&plain.host.batch_us, 99.0);
        ledger.set("net.serve.batch_p99_us", value);
        println!(
            "note: net.serve.batch_p99_us is the {p}th percentile of {} batches",
            plain.host.batch_us.len()
        );
    }
    if !plain.host.visible_ms.is_empty() {
        ledger.set("publish_visible_ms", median(&plain.host.visible_ms));
    }
    let repairs = ledger.get("core.failure.repairs") * plain.cycles as f64;
    if repairs > 0.0 {
        ledger.set(
            "core.failure.repair_ns_per_peer",
            plain.host.repair_wall_s * 1e9 / repairs,
        );
    }
    ledger.set("host.cpu_s", host::cpu_seconds());

    let path = options
        .out_dir
        .join(format!("{}.spans.jsonl", options.workload));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans: {} kept in {}", tracer.spans().len(), path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    println!("spans by name (count, mean ns, self share of its total):");
    for (name, totals) in tracer.all_totals() {
        println!(
            "  {name} {} {:.0} {:.3}",
            totals.count,
            totals.total_ns as f64 / totals.count.max(1) as f64,
            totals.self_ns as f64 / totals.total_ns.max(1) as f64
        );
    }

    let metrics = catalog::PER_LAYER
        .iter()
        .map(|info| Emitted {
            info,
            value: ledger.get(info.name),
            detail: String::new(),
        })
        .collect();
    RunResult {
        correct: failed == 0,
        attempted: plain.ops,
        failed,
        metrics,
    }
}

/// Runs the workload `options` names and prints every metric by name with
/// its unit, one `metric` line each.
pub fn run(options: &Options) -> Result<RunResult, String> {
    let mut workload = build(&options.workload, options.scale, options.seed)
        .ok_or_else(|| format!("unknown workload '{}'", options.workload))?;
    println!(
        "workload {} seed {} seconds {} trace {} scale {:?}",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.scale
    );
    println!("{}", host::facts());
    let result = if options.trace {
        traced(&mut *workload, options)
    } else {
        end_to_end(&mut *workload, options)
    };
    for m in &result.metrics {
        let clock = match m.info.clock {
            Clock::Host => "host",
            Clock::Sim => "sim",
        };
        println!(
            "metric {} {} {} {} {clock} {}",
            options.workload, m.info.name, m.value, m.info.unit, m.detail
        );
    }
    println!(
        "result {} correct={} attempted={} failed={}",
        options.workload, result.correct, result.attempted, result.failed
    );
    Ok(result)
}
