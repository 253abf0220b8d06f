//! The `perf` target: the rows the stand-alone `benchmarks/` package (the
//! repository's measuring instrument, see `BENCHMARK.json`) does not
//! produce yet.
//!
//! * `curve_build_*` / `curve_churn_*` — bulk build and the
//!   `latency_under_churn` scenario at each size of the cost curve: per-op
//!   cost against N.
//! * `scale_build` / `mem_scale` — the million-peer bulk build and its
//!   estimated bytes per peer.
//! * `scale_churn_t*` — the same churn profile on one worker thread and on
//!   several: the engine's fan-out.
//! * `anatomy_*` — mean hops per exact-match query split by link kind, from
//!   the route recorder.
//!
//! Every timed row is BATON only and bulk-built, so construction cost does
//! not mask the per-operation trend.  The `perf` binary writes the rows to
//! `BENCH_perf.json`.

use std::fmt::Write as _;
use std::time::Instant;

use baton_net::{LinkKind, Overlay, SimRng, TraceConfig};
use baton_sim::scenario::{self, specs, BuildKind};
use baton_sim::{json_string, OverlaySpec, Profile};
use baton_workload::{runner, KeyDistribution, QueryWorkload};

use crate::{sim_profile, SEED};

/// Fraction of the paper's `1000 × N` bulk load the churn rows insert (as
/// `reproduce --full` does) …
const CHURN_DATA_SCALE: f64 = 0.02;
/// … and the fraction the anatomy rows route in before tracing.
const ANATOMY_DATA_SCALE: f64 = 0.01;

/// One timed measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Stable identifier (`"curve_build_1k"`, `"scale_churn_t1"`, …).
    pub id: String,
    /// Human-readable description of what was timed.
    pub detail: String,
    /// Number of work items the wall time covers (nodes built, operations
    /// dispatched); bytes per peer on the `mem_scale` row.
    pub work_items: u64,
    /// What one work item is (`"nodes"`, `"ops"`, `"bytes/peer"`).
    pub unit: String,
    /// Wall-clock milliseconds for the whole measurement.
    pub wall_ms: f64,
    /// Work items per wall-clock second.
    pub per_second: f64,
}

impl Measurement {
    fn timed<T>(id: &str, detail: String, unit: &str, run: impl FnOnce() -> (u64, T)) -> (Self, T) {
        // Progress goes to stderr as each stage starts and finishes — full
        // runs take minutes, and a silent harness is indistinguishable from
        // a hung one.
        eprintln!("perf: running {id} ({detail})");
        let started = Instant::now();
        let (work_items, value) = run();
        let wall = started.elapsed().as_secs_f64();
        eprintln!("perf: {id} finished in {:.1} ms", wall * 1e3);
        let measurement = Self {
            id: id.to_owned(),
            detail,
            work_items,
            unit: unit.to_owned(),
            wall_ms: wall * 1e3,
            per_second: if wall > 0.0 {
                work_items as f64 / wall
            } else {
                0.0
            },
        };
        (measurement, value)
    }
}

/// Scale knobs of one perf run.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfProfile {
    /// Profile name recorded in the report (`"full"` / `"smoke"`).
    pub name: &'static str,
    /// Network sizes of the cost-curve rows and of BATON's anatomy rows.
    pub curve_ns: Vec<usize>,
    /// Nodes in the large-scale build (`scale_build` / `mem_scale`) — one
    /// million at the full profile.
    pub scale_n: usize,
    /// Network size of the `scale_churn_t*` rows.
    pub scale_churn_n: usize,
    /// Their repetitions: the units the engine fans across worker threads.
    pub scale_reps: usize,
    /// Worker threads of the parallel `scale_churn_t*` row (compared against
    /// a single-threaded run of the same profile).
    pub scale_threads: usize,
    /// Fraction of the paper's 1000 searches per virtual minute the churn
    /// rows dispatch.
    pub churn_query_scale: f64,
    /// Network size of the three baselines' anatomy rows.
    pub build_n: usize,
    /// Exact-match queries traced per anatomy row (the paper runs 1000).
    pub queries: usize,
}

impl PerfProfile {
    /// The paper-scale profile: the cost curve up to N = 100,000, a
    /// million-node build, the thread comparison at N = 100,000 and the
    /// baselines traced at N = 10,000.
    pub fn full() -> Self {
        Self {
            name: "full",
            curve_ns: vec![1_000, 10_000, 100_000],
            scale_n: 1_000_000,
            scale_churn_n: 100_000,
            scale_reps: 4,
            scale_threads: 4,
            churn_query_scale: 1.0,
            build_n: 10_000,
            queries: 1000,
        }
    }

    /// A reduced profile for CI smoke runs (seconds, not minutes).
    pub fn smoke() -> Self {
        Self {
            name: "smoke",
            curve_ns: vec![50, 100, 200],
            scale_n: 10_000,
            scale_churn_n: 400,
            scale_reps: 2,
            scale_threads: 2,
            churn_query_scale: 0.2,
            build_n: 300,
            queries: 50,
        }
    }

    /// Resolves a profile by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "full" => Some(Self::full()),
            "smoke" => Some(Self::smoke()),
            _ => None,
        }
    }
}

/// Formats a network size as a row-id suffix: `"100k"` for round thousands,
/// the raw number otherwise (smoke-profile sizes).
fn n_suffix(n: usize) -> String {
    if n >= 1000 && n.is_multiple_of(1000) {
        format!("{}k", n / 1000)
    } else {
        n.to_string()
    }
}

/// Times the bulk build of an `n`-node BATON overlay and hands it back.
fn bulk_build_row(id: &str, n: usize, note: &str) -> (Measurement, Box<dyn Overlay>) {
    let baton = baton_sim::reference_overlay();
    let sim = sim_profile(n, 1, CHURN_DATA_SCALE, 1.0);
    let detail = format!("BATON bulk build (direct constructor), {n} nodes{note}");
    Measurement::timed(id, detail, "nodes", || {
        (n as u64, baton.build_bulk(&sim, n, SEED))
    })
}

/// Times bulk-built BATON alone through `latency_under_churn` on `threads`
/// worker threads; `work_items` is the operations completed.
fn churn_row(id: &str, sim: &Profile, threads: usize, fan_out: &str) -> Measurement {
    let mut plan = specs::latency_under_churn_plan(sim);
    plan.build = BuildKind::Bulk;
    let detail = format!(
        "latency_under_churn scenario, N = {}, BATON only, bulk-built, {fan_out}",
        plan.n
    );
    let (row, ()) = Measurement::timed(id, detail, "ops", || {
        let baton = [baton_sim::reference_overlay()];
        let (series, _) = scenario::run_plan(sim, &plan, &baton, threads, None);
        let classes = series.iter().flat_map(|s| &s.classes);
        (classes.map(|c| c.count).sum(), ())
    });
    row
}

/// Runs every timed measurement at the given profile.
pub fn run(profile: &PerfProfile) -> Vec<Measurement> {
    let mut measurements = Vec::new();

    // Cost curve: near-flat ops/s across the sizes is the scaling claim
    // these rows track.
    for &n in &profile.curve_ns {
        let suffix = n_suffix(n);
        let (build, _) = bulk_build_row(&format!("curve_build_{suffix}"), n, "");
        measurements.push(build);
        measurements.push(churn_row(
            &format!("curve_churn_{suffix}"),
            &sim_profile(n, 1, CHURN_DATA_SCALE, profile.churn_query_scale),
            1,
            "1 repetition on 1 thread",
        ));
    }

    // The million-peer build shows the compact node layouts fit in RAM.
    // Its bytes-per-peer row is not a timing — `work_items` carries the
    // figure and the wall columns are zero.
    let (build, overlay) = bulk_build_row("scale_build", profile.scale_n, " (scale row)");
    measurements.push(build);
    let nodes = overlay.node_count().max(1) as u64;
    measurements.push(Measurement {
        id: "mem_scale".to_owned(),
        detail: format!("estimated resident protocol state per peer, {nodes}-node BATON overlay"),
        work_items: overlay.estimated_state_bytes() / nodes,
        unit: "bytes/peer".to_owned(),
        wall_ms: 0.0,
        per_second: 0.0,
    });
    drop(overlay);

    // Thread fan-out: results are byte-identical across thread counts
    // (aggregation is in canonical unit order), so only the wall clock may
    // differ.  On a single-hardware-thread host the multi-thread row would
    // time the same serial schedule twice, so only the t1 row is recorded;
    // the detail carries the host parallelism so a reader can tell why.
    let reps = profile.scale_reps;
    let sim = sim_profile(
        profile.scale_churn_n,
        reps,
        CHURN_DATA_SCALE,
        profile.churn_query_scale,
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut thread_counts = vec![1];
    if profile.scale_threads > 1 && cores > 1 {
        thread_counts.push(profile.scale_threads);
    }
    for threads in thread_counts {
        measurements.push(churn_row(
            &format!("scale_churn_t{threads}"),
            &sim,
            threads,
            &format!("{reps} repetitions across {threads} thread(s), host parallelism {cores}"),
        ));
    }
    measurements
}

/// One route-anatomy row of the report's `"observability"` section: mean
/// hops per exact-match query, split by link kind, for one overlay at one
/// network size.  Captured by the route recorder over the fig8d-shaped
/// workload — the structural counterpart of the wall-clock rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteAnatomy {
    /// Stable row identifier (`"anatomy_1k"`, `"anatomy_chord"`, …).
    pub id: String,
    /// Overlay series name (`"BATON"`, `"Chord"`, …).
    pub overlay: String,
    /// Network size the overlay was built at.
    pub nodes: usize,
    /// Exact-match operations the recorder sampled.
    pub ops: u64,
    /// Total hops across the sampled spans.
    pub hops: u64,
    /// Mean hops per sampled operation.
    pub mean_hops: f64,
    /// Mean hops per operation for every link kind that appeared, in
    /// canonical [`LinkKind::ALL`] order.
    pub by_kind: Vec<(&'static str, f64)>,
}

/// Builds `spec` at `n` nodes, loads 1% of the paper's dataset through
/// routed inserts, traces `queries` uniform exact-match queries through the
/// route recorder and condenses the captured spans into one anatomy row.
fn anatomy_row(
    id: &str,
    spec: &OverlaySpec,
    build: BuildKind,
    n: usize,
    queries: usize,
) -> RouteAnatomy {
    eprintln!(
        "perf: tracing route anatomy {id} ({}, {n} nodes)",
        spec.series
    );
    let sim = sim_profile(n, 1, ANATOMY_DATA_SCALE, 1.0);
    let mut overlay = match build {
        BuildKind::Join => spec.build(&sim, n, SEED),
        BuildKind::Bulk => spec.build_bulk(&sim, n, SEED),
    };
    baton_sim::load_overlay(&sim, &mut *overlay, KeyDistribution::Uniform, SEED);
    let workload = QueryWorkload {
        exact_queries: queries,
        ..QueryWorkload::paper()
    };
    let exact = workload.exact(&mut SimRng::seeded(SEED ^ 0xE5AC));
    // Capacity covers the whole workload so eviction never skews the means.
    overlay.set_trace(TraceConfig::new(exact.len().max(1)));
    runner::run_queries(&mut *overlay, &exact).expect("exact queries");
    let buffer = overlay.take_trace().expect("trace was installed");
    let ops = buffer.sampled();
    let counts = buffer.hop_counts_by_kind();
    let hops: u64 = counts.iter().sum();
    let per_op = |count: u64| count as f64 / ops.max(1) as f64;
    RouteAnatomy {
        id: id.to_owned(),
        overlay: spec.series.to_owned(),
        nodes: n,
        ops,
        hops,
        mean_hops: per_op(hops),
        by_kind: LinkKind::ALL
            .into_iter()
            .filter(|kind| counts[kind.index()] > 0)
            .map(|kind| (kind.name(), per_op(counts[kind.index()])))
            .collect(),
    }
}

/// Captures the route-anatomy rows: BATON across the cost-curve sizes
/// (bulk-built, so the rows isolate routing structure), then each baseline
/// of `baton_sim::standard_overlays()` join-built at the profile's `build_n`.
pub fn route_anatomy(profile: &PerfProfile) -> Vec<RouteAnatomy> {
    let overlays = baton_sim::standard_overlays();
    let (baton, baselines) = overlays.split_first().expect("BATON is registered first");
    let curve = profile.curve_ns.iter().map(|&n| {
        let id = format!("anatomy_{}", n_suffix(n));
        anatomy_row(&id, baton, BuildKind::Bulk, n, profile.queries)
    });
    let ids = ["anatomy_chord", "anatomy_mtree", "anatomy_d3tree"];
    let baselines = baselines
        .iter()
        .zip(ids)
        .map(|(spec, id)| anatomy_row(id, spec, BuildKind::Join, profile.build_n, profile.queries));
    curve.chain(baselines).collect()
}

/// Renders a perf report as the `BENCH_perf.json` document: the profile
/// name, one object per [`Measurement`] and, under
/// `"observability"."route_anatomy"`, one per [`RouteAnatomy`] row.  The
/// `"observability"` key is absent — not empty — when there are no anatomy
/// rows.
pub fn render_json(
    profile: &PerfProfile,
    measurements: &[Measurement],
    anatomy: &[RouteAnatomy],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"baton-perf/7\",");
    let _ = writeln!(out, "  \"profile\": {},", json_string(profile.name));
    out.push_str("  \"measurements\": [");
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"id\": {}, ", json_string(&m.id));
        let _ = write!(out, "\"detail\": {}, ", json_string(&m.detail));
        let _ = write!(out, "\"work_items\": {}, ", m.work_items);
        let _ = write!(out, "\"unit\": {}, ", json_string(&m.unit));
        let _ = write!(out, "\"wall_ms\": {:.3}, ", m.wall_ms);
        let _ = write!(out, "\"per_second\": {:.3}}}", m.per_second);
    }
    if !measurements.is_empty() {
        out.push_str("\n  ");
    }
    out.push(']');
    if !anatomy.is_empty() {
        out.push_str(",\n  \"observability\": {\n    \"route_anatomy\": [");
        for (i, row) in anatomy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n      {");
            let _ = write!(out, "\"id\": {}, ", json_string(&row.id));
            let _ = write!(out, "\"overlay\": {}, ", json_string(&row.overlay));
            let _ = write!(out, "\"nodes\": {}, ", row.nodes);
            let _ = write!(out, "\"ops\": {}, ", row.ops);
            let _ = write!(out, "\"hops\": {}, ", row.hops);
            let _ = write!(out, "\"mean_hops\": {:.3}, ", row.mean_hops);
            out.push_str("\"by_kind\": {");
            for (k, (kind, mean)) in row.by_kind.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {mean:.3}", json_string(kind));
            }
            out.push_str("}}");
        }
        out.push_str("\n    ]\n  }");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_sim::json::{self, Json};

    #[test]
    fn smoke_profile_pins_the_surviving_rows_and_renders_parseable_json() {
        let profile = PerfProfile::smoke();
        let measurements = run(&profile);
        let ids: Vec<&str> = measurements.iter().map(|m| m.id.as_str()).collect();
        // The multi-threaded churn row only exists on hosts with more than
        // one hardware thread.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut expected = vec![
            "curve_build_50",
            "curve_churn_50",
            "curve_build_100",
            "curve_churn_100",
            "curve_build_200",
            "curve_churn_200",
            "scale_build",
            "mem_scale",
            "scale_churn_t1",
        ];
        if cores > 1 {
            expected.push("scale_churn_t2");
        }
        assert_eq!(ids, expected);
        for m in &measurements {
            assert!(m.work_items > 0, "{} did no work", m.id);
            assert!(m.wall_ms.is_finite() && m.wall_ms >= 0.0);
        }
        // The threaded churn rows record the host's parallelism, and time
        // the same deterministic work at every thread count.
        let t1 = &measurements[8];
        assert!(t1.detail.contains(&format!("host parallelism {cores}")));
        for t2 in &measurements[9..] {
            assert_eq!(t1.work_items, t2.work_items, "{} did other work", t2.id);
        }

        // With no anatomy rows the "observability" key is omitted, not empty.
        let rendered = json::parse(&render_json(&profile, &measurements, &[])).expect("valid JSON");
        let root = rendered.as_object().expect("root object");
        assert_eq!(root.get("profile").and_then(Json::as_str), Some("smoke"));
        assert!(root.get("observability").is_none());
        let rows = root.get("measurements").and_then(Json::as_array);
        let rows = rows.expect("measurements array");
        for (row, m) in rows.iter().zip(&measurements) {
            let row = row.as_object().expect("measurement object");
            assert_eq!(row.get("id").and_then(Json::as_str), Some(m.id.as_str()));
            let work = row.get("work_items").and_then(Json::as_number);
            assert_eq!(work, Some(m.work_items as f64), "{}", m.id);
        }
        assert_eq!(rows.len(), measurements.len());
    }

    #[test]
    fn anatomy_rows_partition_the_mean_and_render_under_observability() {
        let profile = PerfProfile::smoke();
        let anatomy = route_anatomy(&profile);
        let ids: Vec<&str> = anatomy.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "anatomy_50",
                "anatomy_100",
                "anatomy_200",
                "anatomy_chord",
                "anatomy_mtree",
                "anatomy_d3tree"
            ]
        );
        let rendered = json::parse(&render_json(&profile, &[], &anatomy)).expect("valid JSON");
        let section = rendered.as_object().and_then(|r| r.get("observability"));
        let section = section.and_then(Json::as_object).expect("section object");
        let rows = section.get("route_anatomy").and_then(Json::as_array);
        let rows = rows.expect("route_anatomy array");
        assert_eq!(rows.len(), anatomy.len());
        for (row, parsed) in anatomy.iter().zip(rows) {
            assert_eq!(row.ops, profile.queries as u64, "{}", row.id);
            assert!(row.hops > 0, "{} traced nothing", row.id);
            // The per-kind means partition the overall mean, and each is
            // rendered under its closed-enum name.
            let sum: f64 = row.by_kind.iter().map(|(_, mean)| mean).sum();
            assert!((sum - row.mean_hops).abs() < 1e-6, "{} kind split", row.id);
            let parsed = parsed.as_object().expect("anatomy object");
            let kinds = parsed.get("by_kind").and_then(Json::as_object);
            let kinds = kinds.expect("by_kind object");
            for (kind, mean) in &row.by_kind {
                assert!(LinkKind::parse(kind).is_some(), "open kind {kind}");
                let rendered = kinds.get(kind).and_then(Json::as_number);
                let rendered = rendered.unwrap_or_else(|| panic!("{}: no {kind}", row.id));
                assert!((rendered - mean).abs() < 1e-3, "{}: {kind}", row.id);
            }
        }
    }

    #[test]
    fn profiles_resolve_by_name() {
        assert_eq!(PerfProfile::by_name("FULL").unwrap().build_n, 10_000);
        assert_eq!(PerfProfile::by_name("smoke").unwrap().name, "smoke");
        assert!(PerfProfile::by_name("nope").is_none());
    }
}
