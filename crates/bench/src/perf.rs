//! The `perf` target: wall-clock measurements of the simulator's hot paths.
//!
//! Unlike the figure drivers (which reproduce the paper's *message
//! counts*), this module tracks how fast the substrate itself runs: overlay
//! construction, the paper-profile exact-match (fig8d) and range-search
//! (fig8e) query drivers, and two time-domain scenarios —
//! `latency_under_churn` (the original open-loop template) and
//! `regional_failure` (the phased engine with a regional latency topology
//! and a correlated fault plan, representative of the scenario registry's
//! new machinery).  The `perf` binary emits the results as
//! `BENCH_perf.json` so successive PRs can regress against a
//! machine-readable wall-clock trajectory.

use std::fmt::Write as _;
use std::time::Instant;

use baton_net::{LinkKind, Overlay, SimRng, TraceConfig};
use baton_sim::json::{self, Json};
use baton_sim::{json_string, scenario, Profile};
use baton_workload::{runner, KeyDistribution, QueryWorkload};

/// One timed measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Stable identifier (`"build"`, `"exact_fig8d"`, …).
    pub id: String,
    /// Human-readable description of what was timed.
    pub detail: String,
    /// Number of work items the wall time covers (nodes joined, queries
    /// executed, operations dispatched).
    pub work_items: u64,
    /// What one work item is (`"joins"`, `"queries"`, `"ops"`).
    pub unit: String,
    /// Wall-clock milliseconds for the whole measurement.
    pub wall_ms: f64,
    /// Work items per wall-clock second.
    pub per_second: f64,
    /// Availability fraction measured by the run (the `avail_k*` rows);
    /// `None` for pure timing rows.  When present it is in `[0, 1]`.
    pub availability: Option<f64>,
}

impl Measurement {
    pub(crate) fn timed<T>(
        id: &str,
        detail: String,
        unit: &str,
        run: impl FnOnce() -> (u64, T),
    ) -> (Self, T) {
        // Progress goes to stderr as each stage starts and finishes — full
        // runs take minutes, and a silent harness is indistinguishable from
        // a hung one.
        eprintln!("perf: running {id} ({detail})");
        let started = Instant::now();
        let (work_items, value) = run();
        let wall = started.elapsed();
        eprintln!("perf: {id} finished in {:.1} ms", wall.as_secs_f64() * 1e3);
        let wall_ms = wall.as_secs_f64() * 1e3;
        let per_second = if wall.as_secs_f64() > 0.0 {
            work_items as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        (
            Self {
                id: id.to_owned(),
                detail,
                work_items,
                unit: unit.to_owned(),
                wall_ms,
                per_second,
                availability: None,
            },
            value,
        )
    }
}

/// Scale knobs of one perf run.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfProfile {
    /// Profile name recorded in the report (`"full"` / `"smoke"`).
    pub name: &'static str,
    /// Nodes in the overlay whose construction and queries are timed.
    pub build_n: usize,
    /// Fraction of the paper's `1000 × N` bulk load inserted before the
    /// query measurements.
    pub data_scale: f64,
    /// Exact-match and range queries timed (the paper uses 1000 of each).
    pub queries: usize,
    /// Profile handed to the `latency_under_churn` scenario.
    pub scenario: Profile,
    /// Network sizes of the per-op cost-curve rows (`curve_build_*` /
    /// `curve_churn_*`).  Each size is bulk-built so construction cost does
    /// not mask the per-operation trend the curve exists to show.
    pub curve_ns: Vec<usize>,
    /// Profile template of the cost-curve churn rows; `network_sizes` is
    /// replaced by each entry of [`curve_ns`](Self::curve_ns) in turn.
    pub curve_churn: Profile,
    /// Nodes in the large-scale BATON build (`scale_build` / `scale_mem`
    /// rows) — one million at the full profile.
    pub scale_n: usize,
    /// Profile of the multi-threaded `latency_under_churn` scale rows
    /// (`scale_churn_t*`): its repetitions are the units the engine fans
    /// across worker threads.
    pub scale_churn: Profile,
    /// Worker threads of the parallel scale-churn row (compared against a
    /// single-threaded run of the same profile).
    pub scale_threads: usize,
    /// Profile of the availability rows (`avail_k1`..`avail_k3`): the
    /// `regional_failure` scenario, BATON only, at replication degrees
    /// 1 through 3.
    pub avail: Profile,
    /// Exact-match queries of each `serve_exact_t*` row (the lock-free
    /// snapshot read path; same work at every thread count).
    pub serve_queries: u64,
    /// Range queries of the `serve_range_t1` row.
    pub serve_range_queries: u64,
    /// Churn-commit → snapshot-publish swaps of the
    /// `serve_snapshot_staleness` row.
    pub serve_swaps: usize,
    /// Largest serve worker count: exact rows run at 1, 2 and 4 threads,
    /// capped by this and by the host's parallelism.
    pub serve_threads_max: usize,
}

impl PerfProfile {
    /// The paper-scale profile: a 10,000-node overlay, 1000 + 1000 queries,
    /// the scenario at N = 1000, a million-node scale build and the scale
    /// churn comparison at N = 100,000.
    pub fn full() -> Self {
        Self {
            name: "full",
            build_n: 10_000,
            data_scale: 0.01,
            queries: 1000,
            scenario: Profile {
                network_sizes: vec![1000],
                repetitions: 1,
                data_scale: 0.02,
                query_scale: 1.0,
                churn_ops: 100,
                seed: 2005,
            },
            curve_ns: vec![1_000, 10_000, 100_000],
            curve_churn: Profile {
                network_sizes: vec![],
                repetitions: 1,
                data_scale: 0.02,
                query_scale: 1.0,
                churn_ops: 100,
                seed: 2005,
            },
            scale_n: 1_000_000,
            scale_churn: Profile {
                network_sizes: vec![100_000],
                repetitions: 4,
                data_scale: 0.02,
                query_scale: 1.0,
                churn_ops: 100,
                seed: 2005,
            },
            scale_threads: 4,
            avail: Profile {
                network_sizes: vec![10_000],
                repetitions: 1,
                data_scale: 0.02,
                query_scale: 1.0,
                churn_ops: 100,
                seed: 2005,
            },
            serve_queries: 1_000_000,
            serve_range_queries: 100_000,
            serve_swaps: 200,
            serve_threads_max: 4,
        }
    }

    /// A reduced profile for CI smoke runs (seconds, not minutes).
    pub fn smoke() -> Self {
        Self {
            name: "smoke",
            build_n: 300,
            data_scale: 0.01,
            queries: 50,
            scenario: Profile::smoke(),
            curve_ns: vec![50, 100, 200],
            curve_churn: Profile {
                network_sizes: vec![],
                repetitions: 1,
                data_scale: 0.02,
                query_scale: 0.2,
                churn_ops: 20,
                seed: 2005,
            },
            scale_n: 10_000,
            scale_churn: Profile {
                network_sizes: vec![400],
                repetitions: 2,
                data_scale: 0.02,
                query_scale: 0.2,
                churn_ops: 20,
                seed: 2005,
            },
            scale_threads: 2,
            avail: Profile {
                network_sizes: vec![200],
                repetitions: 1,
                data_scale: 0.02,
                query_scale: 1.0,
                churn_ops: 20,
                seed: 2005,
            },
            serve_queries: 20_000,
            serve_range_queries: 2_000,
            serve_swaps: 20,
            serve_threads_max: 2,
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

/// Sums the per-class op counts of a finished scenario run.
fn scenario_ops(result: &scenario::ScenarioResult) -> u64 {
    result
        .series
        .iter()
        .flat_map(|s| s.classes.iter())
        .map(|c| c.count)
        .sum()
}

/// Appends a `mem{id_suffix}` row: the overlay's estimated resident
/// protocol-state bytes divided by its node count.  Not a timing — the
/// `work_items` column carries bytes per peer and the wall columns are
/// zero — but it rides in the same report so bytes-per-peer regresses
/// alongside the wall-clock trajectory.
fn push_mem_row(
    measurements: &mut Vec<Measurement>,
    overlay: &dyn Overlay,
    label: &str,
    id_suffix: &str,
) {
    let nodes = overlay.node_count().max(1) as u64;
    measurements.push(Measurement {
        id: format!("mem{id_suffix}"),
        detail: format!("estimated resident protocol state per peer, {nodes}-node {label} overlay"),
        work_items: overlay.estimated_state_bytes() / nodes,
        unit: "bytes/peer".to_owned(),
        wall_ms: 0.0,
        per_second: 0.0,
        availability: None,
    });
}

/// Times one overlay's build, exact-match (fig8d) and range (fig8e) query
/// drivers, appending three measurements (plus a bytes-per-peer `mem` row)
/// with the given id suffix.
fn time_overlay_group(
    measurements: &mut Vec<Measurement>,
    profile: &PerfProfile,
    label: &str,
    id_suffix: &str,
    seed: u64,
    build: impl FnOnce() -> Box<dyn Overlay>,
) {
    // 1. Overlay construction: N sequential joins through random contacts.
    let n = profile.build_n;
    let (build_m, mut overlay) = Measurement::timed(
        &format!("build{id_suffix}"),
        format!("{label} overlay build, {n} nodes"),
        "joins",
        || (n as u64, build()),
    );
    measurements.push(build_m);

    // Bulk-load the dataset the query drivers scan (not itself reported:
    // insert cost is dominated by the same routing path as exact queries).
    let plan = baton_workload::DatasetPlan {
        values_per_node: 1000,
        distribution: KeyDistribution::Uniform,
    }
    .scaled(profile.data_scale);
    let data = plan.generate(&mut SimRng::seeded(seed ^ 0xDA7A), n);
    runner::bulk_load(&mut *overlay, &data).expect("bulk load");

    // 2. Exact-match queries, fig8d shape: uniform keys, paper count.
    let workload = QueryWorkload {
        exact_queries: profile.queries,
        range_queries: profile.queries,
        distribution: KeyDistribution::Uniform,
        ..QueryWorkload::paper()
    };
    let exact = workload.exact(&mut SimRng::seeded(seed ^ 0xE5AC));
    let (exact_m, _) = Measurement::timed(
        &format!("exact_fig8d{id_suffix}"),
        format!(
            "{} uniform exact-match queries on the {n}-node {label} overlay",
            exact.len()
        ),
        "queries",
        || {
            let outcome = runner::run_queries(&mut *overlay, &exact).expect("exact queries");
            (outcome.exact_executed, ())
        },
    );
    measurements.push(exact_m);

    // 3. Range queries, fig8e shape: 0.1% selectivity, paper count.
    let ranges = workload.ranges(&mut SimRng::seeded(seed ^ 0x4A4E));
    let (range_m, _) = Measurement::timed(
        &format!("range_fig8e{id_suffix}"),
        format!(
            "{} range queries (0.1% selectivity) on the {n}-node {label} overlay",
            ranges.len()
        ),
        "queries",
        || {
            let outcome = runner::run_queries(&mut *overlay, &ranges).expect("range queries");
            (outcome.range_executed, ())
        },
    );
    measurements.push(range_m);

    // 4. Bytes per peer of the loaded overlay.
    push_mem_row(measurements, &*overlay, label, id_suffix);
}

/// Overlays that have a dedicated build/query timing group in [`run`].
/// Chord and the multiway tree appear only in the bytes-per-peer rows and
/// inside the scenario measurement; the `perf` binary warns when a
/// selection names an overlay outside this list.
pub const TIMED_OVERLAYS: [&str; 2] = ["BATON", "D3-Tree"];

/// Scenarios with a wall-clock measurement row in [`run`]: the original
/// open-loop template plus one representative of the phased/fault engine.
pub const TIMED_SCENARIOS: [&str; 2] = ["latency_under_churn", "regional_failure"];

/// Runs every perf measurement at the given profile.
///
/// The overlays measured — both the per-overlay build/query groups (see
/// [`TIMED_OVERLAYS`]) and the scenario's comparison list — come from
/// `baton_sim::standard_overlays()`, so the process-wide filter
/// (`baton_sim::set_overlay_filter`, the `perf --overlays` flag) is the
/// single selection channel and the scenario row always covers the same
/// overlay set as the timing groups.
pub fn run(profile: &PerfProfile) -> Vec<Measurement> {
    let seed = 2005;
    let mut measurements = Vec::new();
    let selected: Vec<&'static str> = baton_sim::standard_overlays()
        .iter()
        .map(|spec| spec.series)
        .collect();

    if selected.contains(&"BATON") {
        time_overlay_group(&mut measurements, profile, "BATON", "", seed, || {
            Box::new(crate::baton_overlay(profile.build_n, seed, 1000))
        });
    }
    if selected.contains(&"D3-Tree") {
        time_overlay_group(
            &mut measurements,
            profile,
            "D3-Tree",
            "_d3tree",
            seed,
            || Box::new(crate::d3tree_overlay(profile.build_n, seed)),
        );
    }

    // Bytes-per-peer rows for the overlays without a timing group, so every
    // overlay of the comparison reports its memory footprint at the same
    // size and bulk load as the timed ones.
    type MemOnlyBuild = fn(usize, u64) -> Box<dyn Overlay>;
    let mem_only: [(&str, &str, MemOnlyBuild); 2] = [
        ("Chord", "_chord", |n, seed| {
            Box::new(crate::chord_overlay(n, seed))
        }),
        ("Multiway tree", "_mtree", |n, seed| {
            Box::new(crate::mtree_overlay(n, seed))
        }),
    ];
    for (label, id_suffix, build) in mem_only {
        if !selected.contains(&label) {
            continue;
        }
        let n = profile.build_n;
        let mut overlay = build(n, seed);
        let plan = baton_workload::DatasetPlan {
            values_per_node: 1000,
            distribution: KeyDistribution::Uniform,
        }
        .scaled(profile.data_scale);
        let data = plan.generate(&mut SimRng::seeded(seed ^ 0xDA7A), n);
        runner::bulk_load(&mut *overlay, &data).expect("bulk load");
        push_mem_row(&mut measurements, &*overlay, label, id_suffix);
    }

    // Two time-domain scenarios (every selected overlay, open loop): the
    // original churn template and a representative of the phased registry
    // (regional topology + correlated fault plan).
    let scenario_profile = profile.scenario.clone();
    let scenario_n = *scenario_profile.network_sizes.last().unwrap_or(&0);
    for id in TIMED_SCENARIOS {
        let (scenario_m, _) = Measurement::timed(
            id,
            format!(
                "{id} scenario, N = {scenario_n}, overlays: {}",
                selected.join(", ")
            ),
            "ops",
            || {
                let result =
                    scenario::run_scenario(id, &scenario_profile).expect("registered scenario");
                (scenario_ops(&result), ())
            },
        );
        measurements.push(scenario_m);
    }

    // BATON-only scale group: the per-op cost curve, the million-peer
    // build/mem pair, and the threaded churn comparison.  The process-wide
    // selection is narrowed to BATON for the scenario-driven rows so they
    // run a single series.
    if selected.contains(&"BATON") {
        baton_sim::set_overlay_filter(&["BATON".to_owned()]).expect("BATON is registered");

        // Per-op cost-curve rows: at each N the overlay is bulk-built (so
        // construction cost does not mask the trend) and the churn scenario
        // runs once on one thread.  Near-flat ops/s across the curve is the
        // scaling claim these rows track.
        for &n in &profile.curve_ns {
            let suffix = n_suffix(n);
            let (curve_build_m, overlay) = Measurement::timed(
                &format!("curve_build_{suffix}"),
                format!("BATON bulk build (direct constructor), {n} nodes"),
                "nodes",
                || (n as u64, crate::baton_overlay_bulk(n, seed, 1000)),
            );
            measurements.push(curve_build_m);
            drop(overlay);

            let mut churn_profile = profile.curve_churn.clone();
            churn_profile.network_sizes = vec![n];
            let (curve_churn_m, _) = Measurement::timed(
                &format!("curve_churn_{suffix}"),
                format!(
                    "latency_under_churn scenario, N = {n}, BATON only, bulk-built, \
                     1 repetition on 1 thread"
                ),
                "ops",
                || {
                    baton_net::with_threads(1, || {
                        let result = scenario::run_scenario_with_build(
                            "latency_under_churn",
                            &churn_profile,
                            Some(scenario::BuildKind::Bulk),
                        )
                        .expect("registered scenario");
                        (scenario_ops(&result), ())
                    })
                },
            );
            measurements.push(curve_churn_m);
        }

        // Million-peer scale rows.  The build/mem pair shows a million peers
        // fit in RAM with the compact node layouts (built through the bulk
        // fast path — the join-by-join cost lives in the `build` row); the
        // churn pair runs the same scenario profile single- and
        // multi-threaded so the worker fan-out's scaling is tracked in the
        // report.  Results are byte-identical across
        // thread counts (aggregation is in canonical unit order), so only
        // the wall clock may differ.
        let n = profile.scale_n;
        let (scale_build_m, overlay) = Measurement::timed(
            "scale_build",
            format!("BATON bulk build (direct constructor), {n} nodes (scale row)"),
            "nodes",
            || (n as u64, crate::baton_overlay_bulk(n, seed, 1000)),
        );
        measurements.push(scale_build_m);
        push_mem_row(&mut measurements, &overlay, "BATON", "_scale");
        drop(overlay);

        let churn_n = *profile.scale_churn.network_sizes.last().unwrap_or(&0);
        let reps = profile.scale_churn.repetitions;
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // On a single-hardware-thread host the multi-thread row would time
        // the same serial schedule twice, so only the t1 row is recorded;
        // the detail string carries the host parallelism either way so a
        // report reader can tell why.
        let mut thread_counts = vec![1];
        if profile.scale_threads > 1 && cores > 1 {
            thread_counts.push(profile.scale_threads);
        }
        for &threads in &thread_counts {
            let (churn_m, _) = Measurement::timed(
                &format!("scale_churn_t{threads}"),
                format!(
                    "latency_under_churn scenario, N = {churn_n}, BATON only, bulk-built, \
                     {reps} repetitions across {threads} thread(s), host parallelism {cores}"
                ),
                "ops",
                || {
                    baton_net::with_threads(threads, || {
                        let result = scenario::run_scenario_with_build(
                            "latency_under_churn",
                            &profile.scale_churn,
                            Some(scenario::BuildKind::Bulk),
                        )
                        .expect("registered scenario");
                        (scenario_ops(&result), ())
                    })
                },
            );
            measurements.push(churn_m);
        }
        // Availability-under-replication rows: the `regional_failure`
        // scenario at replication degrees k = 1..3.  The wall clock is
        // recorded like any other scenario row, but the headline column is
        // `availability` — the fraction of operations dispatched inside the
        // fault window that succeeded, rising from the unreplicated baseline
        // to near-1 once every key has a live replica.
        let avail_n = *profile.avail.network_sizes.last().unwrap_or(&0);
        for k in 1..=3usize {
            let (mut avail_m, run_outcome) = Measurement::timed(
                &format!("avail_k{k}"),
                format!(
                    "regional_failure scenario, N = {avail_n}, BATON only, bulk-built, \
                     replication k = {k}"
                ),
                "ops",
                || {
                    let result = scenario::run_scenario_with_options(
                        "regional_failure",
                        &profile.avail,
                        Some(scenario::BuildKind::Bulk),
                        Some(k),
                    )
                    .expect("registered scenario");
                    let series = &result.series[0];
                    (
                        scenario_ops(&result),
                        (series.availability, series.repair_wall),
                    )
                },
            );
            let (availability, repair_wall) = run_outcome;
            avail_m.availability = availability;
            // The wall clock of these rows is dominated by slow-path repair
            // execution, heaviest at k = 1 where every lost key needs a
            // routed re-insert; the detail carries that share so a long
            // avail_k1 wall time is not misread as a query-throughput
            // regression.
            let _ = write!(
                avail_m.detail,
                "; repair_wall_ms={:.1} ({:.0}% of wall)",
                repair_wall.as_secs_f64() * 1e3,
                100.0 * (repair_wall.as_secs_f64() * 1e3) / avail_m.wall_ms.max(1e-9)
            );
            measurements.push(avail_m);
        }

        // The serve rows: snapshot export, the lock-free read path at 1..4
        // threads, and the publish-staleness bound.
        measurements.extend(crate::serve::serve_rows(profile));

        // Restore the caller's overlay selection (the full list is
        // equivalent to no filter).
        let restore: Vec<String> = selected.iter().map(|s| (*s).to_owned()).collect();
        baton_sim::set_overlay_filter(&restore).expect("previously selected overlays");
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

/// Bulk-loads `overlay`, traces the fig8d exact-match workload through the
/// route recorder and condenses the captured spans into one anatomy row.
fn anatomy_row(
    id: &str,
    label: &str,
    n: usize,
    profile: &PerfProfile,
    seed: u64,
    mut overlay: Box<dyn Overlay>,
) -> RouteAnatomy {
    eprintln!("perf: tracing route anatomy {id} ({label}, {n} nodes)");
    let plan = baton_workload::DatasetPlan {
        values_per_node: 1000,
        distribution: KeyDistribution::Uniform,
    }
    .scaled(profile.data_scale);
    let data = plan.generate(&mut SimRng::seeded(seed ^ 0xDA7A), n);
    runner::bulk_load(&mut *overlay, &data).expect("bulk load");
    let workload = QueryWorkload {
        exact_queries: profile.queries,
        range_queries: 0,
        distribution: KeyDistribution::Uniform,
        ..QueryWorkload::paper()
    };
    let exact = workload.exact(&mut SimRng::seeded(seed ^ 0xE5AC));
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
        overlay: label.to_owned(),
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

/// Captures the route-anatomy rows for the report's `"observability"`
/// section: BATON across the cost-curve sizes (bulk-built, so the rows
/// isolate routing structure), plus every other selected overlay at the
/// main build size.  Selection follows the same process-wide overlay
/// filter as [`run`].
pub fn route_anatomy(profile: &PerfProfile) -> Vec<RouteAnatomy> {
    let seed = 2005;
    let selected: Vec<&'static str> = baton_sim::standard_overlays()
        .iter()
        .map(|spec| spec.series)
        .collect();
    let mut rows = Vec::new();
    if selected.contains(&"BATON") {
        for &n in &profile.curve_ns {
            rows.push(anatomy_row(
                &format!("anatomy_{}", n_suffix(n)),
                "BATON",
                n,
                profile,
                seed,
                Box::new(crate::baton_overlay_bulk(n, seed, 1000)),
            ));
        }
    }
    type AnatomyBuild = fn(usize, u64) -> Box<dyn Overlay>;
    let baselines: [(&str, &str, AnatomyBuild); 3] = [
        ("Chord", "anatomy_chord", |n, seed| {
            Box::new(crate::chord_overlay(n, seed))
        }),
        ("Multiway tree", "anatomy_mtree", |n, seed| {
            Box::new(crate::mtree_overlay(n, seed))
        }),
        ("D3-Tree", "anatomy_d3tree", |n, seed| {
            Box::new(crate::d3tree_overlay(n, seed))
        }),
    ];
    for (label, id, build) in baselines {
        if !selected.contains(&label) {
            continue;
        }
        let n = profile.build_n;
        rows.push(anatomy_row(id, label, n, profile, seed, build(n, seed)));
    }
    rows
}

/// Renders a perf report as the `BENCH_perf.json` document.
///
/// Schema (`baton-perf/7` — version 7 added the serve rows
/// (`serve_snapshot_build`, `serve_exact_t{1,2,4}`, `serve_range_t1`,
/// `serve_snapshot_staleness`: the lock-free snapshot read path) and the
/// `repair_wall_ms` annotation in the `avail_k*` detail strings; version 6
/// added the `"observability"` section: its `"route_anatomy"` rows carry
/// the route recorder's mean hops per exact-match query split by link
/// kind; version 5 added the `avail_k1`..`avail_k3` availability
/// rows and the optional per-measurement `"availability"` field; version 4
/// added the `curve_*` per-op cost-curve rows and switched the
/// `scale_build` row to the bulk constructor):
///
/// ```json
/// {
///   "schema": "baton-perf/7",
///   "profile": "full",
///   "measurements": [
///     {"id": "build", "detail": "…", "work_items": 10000,
///      "unit": "joins", "wall_ms": 1234.5, "per_second": 8100.2},
///     {"id": "avail_k2", "detail": "…", "work_items": 4000,
///      "unit": "ops", "wall_ms": 901.2, "per_second": 4438.5,
///      "availability": 0.9987}
///   ],
///   "observability": {
///     "route_anatomy": [
///       {"id": "anatomy_10k", "overlay": "BATON", "nodes": 10000,
///        "ops": 1000, "hops": 9120, "mean_hops": 9.12,
///        "by_kind": {"routing_table": 6.8, "child": 1.9, "adjacent": 0.42}}
///     ]
///   }
/// }
/// ```
///
/// The whole `"observability"` key is absent — not empty — when there are
/// no anatomy rows, so documents carry no placeholder keys.
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
        let _ = write!(out, "\"per_second\": {:.3}", m.per_second);
        if let Some(availability) = m.availability {
            let _ = write!(out, ", \"availability\": {availability:.4}");
        }
        out.push('}');
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

/// Validates that `text` parses as a `baton-perf/7` document: well-formed
/// JSON (for the subset the renderer emits), the schema marker, at least
/// one measurement carrying every required field with finite numbers (and,
/// when present, an `availability` fraction in `[0, 1]`), and — when the
/// optional `"observability"` section is present — well-formed
/// `route_anatomy` rows (link-kind names from the closed [`LinkKind`]
/// enum).  The pre-/6 top-level `"profiler"` key stays rejected.
///
/// Returns the number of measurements, or a description of the first
/// problem.  Used by the `perf --check` mode so CI can gate on the artifact
/// without external tooling.
pub fn validate_json(text: &str) -> Result<usize, String> {
    let value = json::parse(text)?;
    let root = value.as_object().ok_or("root is not an object")?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != "baton-perf/7" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    root.get("profile")
        .and_then(Json::as_str)
        .ok_or("missing \"profile\"")?;
    let measurements = root
        .get("measurements")
        .and_then(Json::as_array)
        .ok_or("missing \"measurements\"")?;
    if measurements.is_empty() {
        return Err("no measurements".into());
    }
    for (i, m) in measurements.iter().enumerate() {
        let m = m
            .as_object()
            .ok_or_else(|| format!("measurement {i} is not an object"))?;
        for key in ["id", "detail", "unit"] {
            m.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("measurement {i} missing string {key:?}"))?;
        }
        for key in ["work_items", "wall_ms", "per_second"] {
            let number = m
                .get(key)
                .and_then(Json::as_number)
                .ok_or_else(|| format!("measurement {i} missing number {key:?}"))?;
            if !number.is_finite() || number < 0.0 {
                return Err(format!("measurement {i} has bad {key}: {number}"));
            }
        }
        if let Some(availability) = m.get("availability") {
            let number = availability
                .as_number()
                .ok_or_else(|| format!("measurement {i} has non-number \"availability\""))?;
            if !number.is_finite() || !(0.0..=1.0).contains(&number) {
                return Err(format!(
                    "measurement {i} has availability outside [0, 1]: {number}"
                ));
            }
        }
    }
    if root.get("profiler").is_some() {
        return Err("legacy top-level \"profiler\" section (dropped in baton-perf/6)".into());
    }
    if let Some(observability) = root.get("observability") {
        let observability = observability
            .as_object()
            .ok_or("\"observability\" is not an object")?;
        let rows = observability
            .get("route_anatomy")
            .ok_or("empty \"observability\" section (omit the key instead)")?
            .as_array()
            .ok_or("\"route_anatomy\" is not an array")?;
        if rows.is_empty() {
            return Err("empty \"route_anatomy\" section (omit the key instead)".into());
        }
        for (i, row) in rows.iter().enumerate() {
            let row = row
                .as_object()
                .ok_or_else(|| format!("anatomy row {i} is not an object"))?;
            for key in ["id", "overlay"] {
                row.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("anatomy row {i} missing string {key:?}"))?;
            }
            for key in ["nodes", "ops", "hops", "mean_hops"] {
                let number = row
                    .get(key)
                    .and_then(Json::as_number)
                    .ok_or_else(|| format!("anatomy row {i} missing number {key:?}"))?;
                if !number.is_finite() || number < 0.0 {
                    return Err(format!("anatomy row {i} has bad {key}: {number}"));
                }
            }
            let kinds = row
                .get("by_kind")
                .and_then(Json::as_object_pairs)
                .ok_or_else(|| format!("anatomy row {i} missing object \"by_kind\""))?;
            for (kind, mean) in kinds {
                if LinkKind::parse(kind).is_none() {
                    return Err(format!(
                        "anatomy row {i} has unknown link kind {kind:?} \
                         (outside the closed enum)"
                    ));
                }
                let mean = mean
                    .as_number()
                    .ok_or_else(|| format!("anatomy row {i} has non-number mean for {kind:?}"))?;
                if !mean.is_finite() || mean < 0.0 {
                    return Err(format!("anatomy row {i} has bad mean for {kind:?}: {mean}"));
                }
            }
        }
    }
    Ok(measurements.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers both the full run and the filtered run: the overlay
    /// selection is process-global (`baton_sim::set_overlay_filter`), so
    /// splitting this into two tests would race within the test binary.
    #[test]
    fn smoke_profile_runs_filters_and_renders_valid_json() {
        let profile = PerfProfile::smoke();
        let measurements = run(&profile);
        let ids: Vec<&str> = measurements.iter().map(|m| m.id.as_str()).collect();
        // The multi-threaded churn row only exists on hosts with more than
        // one hardware thread (on a single core it would time the same
        // serial schedule twice).
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut expected = vec![
            "build",
            "exact_fig8d",
            "range_fig8e",
            "mem",
            "build_d3tree",
            "exact_fig8d_d3tree",
            "range_fig8e_d3tree",
            "mem_d3tree",
            "mem_chord",
            "mem_mtree",
            "latency_under_churn",
            "regional_failure",
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
        expected.extend(["avail_k1", "avail_k2", "avail_k3"]);
        expected.push("serve_snapshot_build");
        expected.push("serve_exact_t1");
        if cores > 1 {
            expected.push("serve_exact_t2");
        }
        expected.extend(["serve_range_t1", "serve_snapshot_staleness"]);
        assert_eq!(ids, expected);
        for m in &measurements {
            assert!(m.work_items > 0, "{} did no work", m.id);
            assert!(m.wall_ms.is_finite() && m.wall_ms >= 0.0);
            if let Some(a) = m.availability {
                assert!((0.0..=1.0).contains(&a), "{}: availability {a}", m.id);
            }
        }
        // Route-anatomy rows ride in the same report's observability
        // section: BATON across the curve sizes, baselines at build_n.
        let anatomy = route_anatomy(&profile);
        let anatomy_ids: Vec<&str> = anatomy.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            anatomy_ids,
            vec![
                "anatomy_50",
                "anatomy_100",
                "anatomy_200",
                "anatomy_chord",
                "anatomy_mtree",
                "anatomy_d3tree"
            ]
        );
        for row in &anatomy {
            assert!(row.ops > 0 && row.hops > 0, "{} traced nothing", row.id);
            // The per-kind means partition the overall mean.
            let sum: f64 = row.by_kind.iter().map(|(_, mean)| mean).sum();
            assert!((sum - row.mean_hops).abs() < 1e-6, "{} kind split", row.id);
            for (kind, _) in &row.by_kind {
                assert!(LinkKind::parse(kind).is_some(), "open kind {kind}");
            }
        }
        let rendered = render_json(&profile, &measurements, &anatomy);
        assert!(rendered.contains("\"route_anatomy\": ["));
        assert_eq!(validate_json(&rendered), Ok(expected.len()));

        // The threaded churn rows record the host's parallelism so a report
        // reader can tell why the t2 row is or is not present.
        let t1 = measurements
            .iter()
            .find(|m| m.id == "scale_churn_t1")
            .expect("t1 row");
        assert!(t1.detail.contains(&format!("host parallelism {cores}")));

        // The thread-count comparison times the same deterministic work, so
        // when both rows exist they must report the same op count.
        if let Some(t2) = measurements.iter().find(|m| m.id == "scale_churn_t2") {
            assert_eq!(
                t1.work_items, t2.work_items,
                "thread count changed the scenario's op count"
            );
        }

        // Every availability row cites its slow-path repair wall time so a
        // long avail_k1 wall clock is not misread as query throughput.
        for m in measurements.iter().filter(|m| m.id.starts_with("avail_k")) {
            assert!(
                m.detail.contains("repair_wall_ms="),
                "{}: missing repair wall annotation",
                m.id
            );
        }

        // The serve exact rows did identical work at every thread count.
        let serve_exact: Vec<&Measurement> = measurements
            .iter()
            .filter(|m| m.id.starts_with("serve_exact_t"))
            .collect();
        for row in &serve_exact {
            assert_eq!(
                row.work_items, serve_exact[0].work_items,
                "thread count changed the serve workload"
            );
        }

        // Narrowed to one overlay, the timing groups, the scenario and the
        // scale rows follow the same selection — the scenario detail names
        // it, and the BATON-only scale group disappears.
        baton_sim::set_overlay_filter(&["D3-Tree".to_owned()]).expect("known overlay");
        let narrowed = run(&profile);
        baton_sim::clear_overlay_filter();
        let ids: Vec<&str> = narrowed.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "build_d3tree",
                "exact_fig8d_d3tree",
                "range_fig8e_d3tree",
                "mem_d3tree",
                "latency_under_churn",
                "regional_failure"
            ]
        );
        let scenario = narrowed.last().expect("scenario measurement");
        assert!(scenario.detail.contains("overlays: D3-Tree"));

        // The anatomy rows follow the same process-wide selection.
        baton_sim::set_overlay_filter(&["D3-Tree".to_owned()]).expect("known overlay");
        let narrowed_anatomy = route_anatomy(&profile);
        baton_sim::clear_overlay_filter();
        let ids: Vec<&str> = narrowed_anatomy.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["anatomy_d3tree"]);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json("{\"schema\": \"other/1\"}").is_err());
        // Previous schema versions are rejected — consumers must not mix
        // pre-`curve_*` (or older) reports into the trajectory.
        assert!(validate_json(
            "{\"schema\": \"baton-perf/2\", \"profile\": \"x\", \"measurements\": []}"
        )
        .is_err());
        assert!(validate_json(
            "{\"schema\": \"baton-perf/3\", \"profile\": \"x\", \"measurements\": []}"
        )
        .is_err());
        assert!(validate_json(
            "{\"schema\": \"baton-perf/4\", \"profile\": \"x\", \"measurements\": []}"
        )
        .is_err());
        assert!(validate_json(
            "{\"schema\": \"baton-perf/5\", \"profile\": \"x\", \"measurements\": []}"
        )
        .is_err());
        assert!(validate_json(
            "{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \"measurements\": []}"
        )
        .is_err());
        assert!(validate_json(
            "{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \"measurements\": []}"
        )
        .is_err());
        // Bad number in an otherwise complete measurement.
        let bad = "{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \"measurements\": [\
                   {\"id\": \"a\", \"detail\": \"d\", \"unit\": \"u\", \
                   \"work_items\": 1, \"wall_ms\": -5.0, \"per_second\": 0.0}]}";
        assert!(validate_json(bad).unwrap_err().contains("wall_ms"));
        // An availability outside [0, 1] is rejected.
        let bad_avail = "{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \"measurements\": [\
                         {\"id\": \"a\", \"detail\": \"d\", \"unit\": \"u\", \
                         \"work_items\": 1, \"wall_ms\": 5.0, \"per_second\": 0.2, \
                         \"availability\": 1.5}]}";
        assert!(validate_json(bad_avail)
            .unwrap_err()
            .contains("availability"));
    }

    #[test]
    fn validator_checks_the_observability_section() {
        let one_measurement = "{\"id\": \"a\", \"detail\": \"d\", \"unit\": \"u\", \
                               \"work_items\": 1, \"wall_ms\": 5.0, \"per_second\": 0.2}";
        let good = format!(
            "{{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \
             \"measurements\": [{one_measurement}], \"observability\": {{\
             \"route_anatomy\": [{{\"id\": \"anatomy_1k\", \"overlay\": \"BATON\", \
             \"nodes\": 1000, \"ops\": 50, \"hops\": 400, \"mean_hops\": 8.0, \
             \"by_kind\": {{\"routing_table\": 6.0, \"child\": 2.0}}}}]}}}}"
        );
        assert_eq!(validate_json(&good), Ok(1));
        // The pre-/6 top-level section stays rejected.
        let legacy = format!(
            "{{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \
             \"measurements\": [{one_measurement}], \"profiler\": [\
             {{\"name\": \"openloop.join\", \"count\": 3, \"total_ns\": 900}}]}}"
        );
        assert!(validate_json(&legacy).unwrap_err().contains("profiler"));
        // An empty section must be omitted, not emitted.
        let empty = format!(
            "{{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \
             \"measurements\": [{one_measurement}], \"observability\": {{}}}}"
        );
        assert!(validate_json(&empty).unwrap_err().contains("observability"));
        // A link kind outside the closed enum is rejected.
        let bad_kind = format!(
            "{{\"schema\": \"baton-perf/7\", \"profile\": \"x\", \
             \"measurements\": [{one_measurement}], \"observability\": {{\
             \"route_anatomy\": [{{\"id\": \"a\", \"overlay\": \"BATON\", \
             \"nodes\": 10, \"ops\": 5, \"hops\": 10, \"mean_hops\": 2.0, \
             \"by_kind\": {{\"warp\": 2.0}}}}]}}}}"
        );
        assert!(validate_json(&bad_kind).unwrap_err().contains("warp"));
        // With no anatomy rows the renderer omits the key altogether.
        let rendered = render_json(
            &PerfProfile::smoke(),
            &[Measurement {
                id: "a".into(),
                detail: "d".into(),
                work_items: 1,
                unit: "u".into(),
                wall_ms: 1.0,
                per_second: 1.0,
                availability: None,
            }],
            &[],
        );
        assert!(!rendered.contains("observability"));
        assert_eq!(validate_json(&rendered), Ok(1));
    }

    #[test]
    fn profiles_resolve_by_name() {
        assert_eq!(PerfProfile::by_name("FULL").unwrap().build_n, 10_000);
        assert_eq!(PerfProfile::by_name("smoke").unwrap().name, "smoke");
        assert!(PerfProfile::by_name("nope").is_none());
    }
}
