//! Time-domain scenarios: virtual latency and throughput, measured with the
//! routed engine's virtual clocks — the report section the paper's count-only
//! evaluation cannot produce.
//!
//! A scenario is *declared*, not hand-rolled: a [`ScenarioSpec`] pairs an
//! identifier with a function that builds a [`ScenarioPlan`] — the network
//! size, a [`LatencyPlan`](baton_net::LatencyPlan) (possibly topology-aware,
//! with regions and timed link degradations), a
//! [`PhasedWorkload`](baton_workload::PhasedWorkload) (per-phase rates and
//! key distributions) and a [`FaultPlan`](baton_workload::FaultPlan) (timed
//! correlated faults).  One generic engine ([`run_plan`]) drives the
//! overlays it is handed through any plan, so a new scenario is a ~30-line
//! spec and a new overlay appears in every scenario by registration alone —
//! exactly how [`OverlaySpec`] works for the figures.
//! A run is a function of `run_plan`'s arguments — profile, plan, overlay
//! list, thread budget, optional recorder: `reproduce` passes what it
//! parsed, [`run_scenario`] passes all four overlays and one thread.
//!
//! Registered scenarios (see [`specs`] for the plans):
//!
//! | id | stress |
//! |---|---|
//! | `latency_under_churn` | 10%/min churn under an open-loop query mix |
//! | `flash_crowd` | keys collapse onto a hot 1% slice for 20s |
//! | `regional_failure` | half of one region fails at once, then refills |
//! | `degraded_links` | inter-region latency ramps 5× mid-run |
//! | `skew_ramp` | Zipf read/write mix whose skew tightens over time |
//! | `cascading_failure` | two staggered regional waves under timed repair |

pub mod specs;

use std::fmt::Write as _;

use baton_net::{SimRng, TraceBuffer, TraceConfig};
use baton_workload::{
    availability, run_phased_with_metrics, LatencySummary, MetricsSample, OpClass,
};

use crate::driver::{load_overlay, load_overlay_direct, standard_overlays, OverlaySpec};
use crate::profile::Profile;

pub use specs::{BuildKind, ScenarioPlan};

/// Latency percentiles of one operation class, in milliseconds of virtual
/// time.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassLatency {
    /// Operation class name (`"search"`, `"join"`, …).
    pub class: String,
    /// Completed operations of the class.
    pub count: u64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
}

/// One overlay's row of a scenario: per-class latency percentiles plus
/// throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSeries {
    /// Overlay name ("BATON", "Chord", …).
    pub overlay: String,
    /// Per-class latency summaries, in class-name order.
    pub classes: Vec<ClassLatency>,
    /// Completed operations per virtual second, averaged over repetitions.
    pub throughput: f64,
    /// Virtual seconds the run covered (averaged over repetitions).
    pub virtual_seconds: f64,
    /// Total messages across all repetitions.
    pub messages: u64,
    /// Operations skipped, broken out per [`OpClass`] (in class order), so
    /// "Chord skipped ranges" is distinguishable from "node-floor skipped
    /// leaves".  Classes with zero skips are omitted.
    pub skipped: Vec<(String, u64)>,
    /// Peers killed by the scenario's fault plan across all repetitions
    /// (zero for scenarios without injected faults; under an immediate-kill
    /// plan the kills also count toward the `fail` class).
    pub fault_kills: u64,
    /// Operations that hit an availability miss anywhere in the run, per
    /// class (classes with zero omitted): attempted, reached a dead
    /// not-yet-repaired peer, and no replica could answer.
    pub unavailable: Vec<(String, u64)>,
    /// Operations dispatched inside a fault-assessment window
    /// (`[fault.at, fault.at + policy.slow]` per fault event), across all
    /// repetitions — the denominator of `availability`.
    pub window_attempts: u64,
    /// Fraction of fault-window dispatches that succeeded; `None` when no
    /// operation arrived during a window (every faultless scenario).  The
    /// numerator counts only in-window misses, so a straggling failure
    /// after the window closes appears in `unavailable` but not here.
    pub availability: Option<f64>,
    /// Deferred repairs completed across all repetitions.
    pub repairs: u64,
    /// Mean time from kill to completed repair, in virtual milliseconds
    /// (0 when `repairs` is 0).
    pub repair_mean_ms: f64,
    /// 95th-percentile time-to-repair, in virtual milliseconds.
    pub repair_p95_ms: f64,
    /// Virtual-time metrics samples from the overlay's *first* repetition
    /// (repetitions diverge, so their trajectories cannot be averaged) —
    /// empty unless the plan carries a
    /// [`MetricsConfig`](baton_workload::MetricsConfig).
    pub timeseries: Vec<MetricsSample>,
}

impl ScenarioSeries {
    /// Total operations skipped across all classes.
    pub fn skipped_total(&self) -> u64 {
        self.skipped.iter().map(|(_, n)| n).sum()
    }

    /// Total operations lost to availability windows across all classes.
    pub fn unavailable_total(&self) -> u64 {
        self.unavailable.iter().map(|(_, n)| n).sum()
    }
}

/// The result of one time-domain scenario across every overlay.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Scenario identifier (`"latency_under_churn"`).
    pub id: String,
    /// Human-readable description of the setup.
    pub title: String,
    /// One row per overlay.
    pub series: Vec<ScenarioSeries>,
}

impl ScenarioResult {
    /// Renders the per-class latency rows as CSV (one row per overlay and
    /// operation class; overlay-level totals live in the JSON rendering).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,overlay,class,count,mean_ms,p50_ms,p95_ms,p99_ms,availability\n",
        );
        for series in &self.series {
            let availability = series
                .availability
                .map(|a| format!("{a:.4}"))
                .unwrap_or_default();
            for class in &series.classes {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{:.3},{:.3},{:.3},{:.3},{}",
                    self.id,
                    series.overlay,
                    class.class,
                    class.count,
                    class.mean_ms,
                    class.p50_ms,
                    class.p95_ms,
                    class.p99_ms,
                    availability
                );
            }
        }
        out
    }

    /// Renders the scenario as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Scenario {} — {}", self.id, self.title);
        for series in &self.series {
            let skipped = if series.skipped.is_empty() {
                "0 skipped".to_owned()
            } else {
                let detail: Vec<String> = series
                    .skipped
                    .iter()
                    .map(|(class, n)| format!("{class}: {n}"))
                    .collect();
                format!("{} skipped ({})", series.skipped_total(), detail.join(", "))
            };
            let faults = if series.fault_kills > 0 {
                format!(", {} killed by faults", series.fault_kills)
            } else {
                String::new()
            };
            let availability = match series.availability {
                Some(a) => format!(
                    ", availability {:.2}% over {} fault-window ops ({} unavailable, \
                     {} repairs, mean {:.0}ms)",
                    a * 100.0,
                    series.window_attempts,
                    series.unavailable_total(),
                    series.repairs,
                    series.repair_mean_ms
                ),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  {}: {:.2} ops per virtual second over {:.1}s, {} messages, {}{}{}",
                series.overlay,
                series.throughput,
                series.virtual_seconds,
                series.messages,
                skipped,
                faults,
                availability
            );
            let _ = writeln!(
                out,
                "    {:>8} | {:>7} | {:>10} | {:>10} | {:>10} | {:>10}",
                "class", "count", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)"
            );
            for class in &series.classes {
                let _ = writeln!(
                    out,
                    "    {:>8} | {:>7} | {:>10.2} | {:>10.2} | {:>10.2} | {:>10.2}",
                    class.class,
                    class.count,
                    class.mean_ms,
                    class.p50_ms,
                    class.p95_ms,
                    class.p99_ms
                );
            }
        }
        out
    }
}

/// One registered scenario: an identifier plus the function that turns a
/// [`Profile`] into the declarative [`ScenarioPlan`] the generic engine
/// runs.
pub struct ScenarioSpec {
    /// Stable scenario identifier (`"latency_under_churn"`, …).
    pub id: &'static str,
    /// Builds the plan for a profile.
    pub build: fn(&Profile) -> ScenarioPlan,
}

/// Every registered scenario, in catalog order.  Adding a scenario here —
/// and nowhere else — puts it in `reproduce --scenario`, `--list`, the JSON
/// and CSV reports and the determinism test, for every registered overlay.
pub fn all_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            id: "latency_under_churn",
            build: specs::latency_under_churn_plan,
        },
        ScenarioSpec {
            id: "flash_crowd",
            build: specs::flash_crowd_plan,
        },
        ScenarioSpec {
            id: "regional_failure",
            build: specs::regional_failure_plan,
        },
        ScenarioSpec {
            id: "degraded_links",
            build: specs::degraded_links_plan,
        },
        ScenarioSpec {
            id: "skew_ramp",
            build: specs::skew_ramp_plan,
        },
        ScenarioSpec {
            id: "cascading_failure",
            build: specs::cascading_failure_plan,
        },
    ]
}

/// Identifiers of every scenario, in catalog order.
pub fn all_scenario_ids() -> Vec<&'static str> {
    all_scenarios().into_iter().map(|s| s.id).collect()
}

/// Runs a scenario by identifier (case-insensitive) with the plan's own
/// settings; `None` for an unknown one.
pub fn run_scenario(id: &str, profile: &Profile) -> Option<ScenarioResult> {
    run_scenario_with_options(id, profile, None, None)
}

/// The library convenience over [`run_plan`]: looks the scenario up, applies
/// the [`BuildKind`] and replication overrides (`None` keeps the plan's own
/// settings — `Join` and k = 1 for every registered scenario, which is what
/// pins the committed fixtures) and drives all of [`standard_overlays`]
/// through it on **one** thread with no route recorder.  A caller that
/// wants a subset, a thread budget or traces calls [`run_plan`] with them,
/// as `reproduce` does.
pub fn run_scenario_with_options(
    id: &str,
    profile: &Profile,
    build: Option<BuildKind>,
    replicas: Option<usize>,
) -> Option<ScenarioResult> {
    let spec = all_scenarios()
        .into_iter()
        .find(|s| s.id.eq_ignore_ascii_case(id))?;
    let mut plan = (spec.build)(profile);
    if let Some(build) = build {
        plan.build = build;
    }
    if let Some(replicas) = replicas {
        plan.replicas = replicas;
    }
    let (series, _) = run_plan(profile, &plan, &standard_overlays(), 1, None);
    Some(ScenarioResult {
        id: spec.id.to_owned(),
        title: plan.title,
        series,
    })
}

/// The generic scenario engine: drives every overlay of `specs` through
/// `plan`, aggregating the profile's repetitions into one
/// [`ScenarioSeries`] per overlay.
///
/// Per repetition: build the overlay at the plan's size, bulk-load it,
/// instantiate the latency plan with the repetition seed, draw the phased
/// arrival schedule and execute it with the fault plan interleaved.  All
/// seeding matches the pre-registry engine byte for byte, which is what pins
/// the legacy scenarios to their fixtures.
///
/// With a [`TraceConfig`], the *first* repetition of every overlay runs with
/// the route recorder attached (sampling and capacity per the config) and
/// the captured buffers come back alongside the series, one `(overlay name,
/// buffer)` pair per overlay that produced one.  The series are
/// byte-identical with and without the recorder — it observes the message
/// stream without perturbing it — and at any `threads`.
pub fn run_plan(
    profile: &Profile,
    plan: &ScenarioPlan,
    specs: &[OverlaySpec],
    threads: usize,
    trace: Option<TraceConfig>,
) -> (Vec<ScenarioSeries>, Vec<(String, TraceBuffer)>) {
    let n = plan.n;
    let reps = profile.repetitions;
    // Every (overlay, repetition) unit is self-contained: the overlay is
    // built, bulk-loaded and driven entirely inside the unit from seeds
    // derived only from the unit's indices, so the units fan out across
    // `threads` workers.  Aggregation below walks the outcomes in
    // canonical (overlay, repetition) order — the output depends on that
    // order alone, never on execution order, which keeps results
    // byte-identical at any thread count.
    let outcomes = baton_net::run_indexed(threads, specs.len() * reps, |unit| {
        let spec = &specs[unit / reps];
        let rep = unit % reps;
        let seed = profile.rep_seed(rep);
        let mut overlay = match plan.build {
            BuildKind::Join => spec.build(profile, n, seed),
            BuildKind::Bulk => spec.build_bulk(profile, n, seed),
        };
        match plan.build {
            BuildKind::Join => load_overlay(profile, &mut *overlay, plan.load, seed),
            BuildKind::Bulk => load_overlay_direct(profile, &mut *overlay, plan.load, seed),
        };
        // k = 1 skips the call entirely: replication is strictly additive
        // and the legacy fixtures pin the k = 1 byte stream.
        let k = plan.replicas.clamp(1, spec.max_replication);
        if k > 1 {
            overlay
                .set_replication(k)
                .expect("clamped replication degree is supported");
        }
        overlay.set_latency_model(plan.latency.build(seed ^ 0x1A7E));
        // Observability rides on the first repetition only: repetitions
        // diverge by seed, so one trajectory (not an average of
        // incomparable ones) is the honest time series, and one trace
        // buffer per overlay bounds the recorder's footprint.
        if rep == 0 {
            if let Some(config) = trace {
                overlay.set_trace(config);
            }
        }
        let metrics = (rep == 0).then_some(plan.metrics.as_ref()).flatten();
        let mut rng = SimRng::seeded(seed ^ 0x0BE7);
        let events = plan.workload.schedule(&mut rng.derive(1));
        let outcome = run_phased_with_metrics(
            &mut *overlay,
            &events,
            &plan.workload,
            &plan.faults,
            &mut rng,
            n / 2,
            metrics,
        )
        .expect("open-loop run cannot fail");
        (outcome, overlay.take_trace())
    });
    let mut outcomes = outcomes;
    let mut series = Vec::new();
    let mut traces = Vec::new();
    for (idx, spec) in specs.iter().enumerate() {
        let mut latencies: std::collections::BTreeMap<&'static str, Vec<baton_net::SimTime>> =
            Default::default();
        let mut skipped: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let mut unavailable: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let mut messages = 0u64;
        let mut fault_kills = 0u64;
        let mut window_attempts = 0u64;
        let mut window_unavailable = 0u64;
        let mut repair_samples: Vec<baton_net::SimTime> = Vec::new();
        let mut throughput_sum = 0.0f64;
        let mut seconds_sum = 0.0f64;
        for (outcome, _) in &outcomes[idx * reps..(idx + 1) * reps] {
            for (class, count) in &outcome.skipped {
                *skipped.entry(class).or_insert(0) += count;
            }
            for (class, count) in &outcome.unavailable {
                *unavailable.entry(class).or_insert(0) += count;
            }
            window_attempts += outcome.window_attempts.values().sum::<u64>();
            window_unavailable += outcome.window_unavailable.values().sum::<u64>();
            repair_samples.extend(&outcome.repair_times);
            messages += outcome.messages;
            fault_kills += outcome.fault_kills;
            throughput_sum += outcome.throughput();
            seconds_sum += outcome.makespan.as_secs_f64();
            for (class, samples) in &outcome.latencies {
                latencies.entry(class).or_default().extend(samples);
            }
        }
        // The numerator is the in-window failure count: a straggling
        // repair can fail an operation after its assessment window
        // closed, and that failure belongs to `unavailable` but not to
        // the availability fraction.
        let availability = availability(window_attempts, window_unavailable);
        let repair_summary = LatencySummary::from_samples(&repair_samples);
        let divisor = reps.max(1) as f64;
        let classes = OpClass::ALL
            .iter()
            .filter_map(|class| {
                let samples = latencies.get(class.name())?;
                let summary = LatencySummary::from_samples(samples)?;
                Some(ClassLatency {
                    class: class.name().to_owned(),
                    count: summary.count as u64,
                    mean_ms: summary.mean.as_millis_f64(),
                    p50_ms: summary.p50.as_millis_f64(),
                    p95_ms: summary.p95.as_millis_f64(),
                    p99_ms: summary.p99.as_millis_f64(),
                })
            })
            .collect();
        series.push(ScenarioSeries {
            overlay: spec.series.to_owned(),
            classes,
            throughput: throughput_sum / divisor,
            virtual_seconds: seconds_sum / divisor,
            messages,
            skipped: OpClass::ALL
                .iter()
                .filter_map(|class| {
                    let count = *skipped.get(class.name())?;
                    (count > 0).then(|| (class.name().to_owned(), count))
                })
                .collect(),
            fault_kills,
            unavailable: OpClass::ALL
                .iter()
                .filter_map(|class| {
                    let count = *unavailable.get(class.name())?;
                    (count > 0).then(|| (class.name().to_owned(), count))
                })
                .collect(),
            window_attempts,
            availability,
            repairs: repair_samples.len() as u64,
            repair_mean_ms: repair_summary.map_or(0.0, |s| s.mean.as_millis_f64()),
            repair_p95_ms: repair_summary.map_or(0.0, |s| s.p95.as_millis_f64()),
            timeseries: std::mem::take(&mut outcomes[idx * reps].0.samples),
        });
        if let Some(buffer) = outcomes[idx * reps].1.take() {
            traces.push((spec.series.to_owned(), buffer));
        }
    }
    (series, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_under_churn_reports_every_overlay_with_ordered_percentiles() {
        let profile = Profile::smoke();
        let result = run_scenario("latency_under_churn", &profile).expect("registered");
        assert_eq!(result.series.len(), 4);
        for series in &result.series {
            assert!(
                series.throughput.is_finite() && series.throughput > 0.0,
                "{} throughput {}",
                series.overlay,
                series.throughput
            );
            assert!(series.virtual_seconds > 0.0);
            assert!(
                !series.classes.is_empty(),
                "{} has no classes",
                series.overlay
            );
            for class in &series.classes {
                assert!(class.count > 0);
                for v in [class.mean_ms, class.p50_ms, class.p95_ms, class.p99_ms] {
                    assert!(v.is_finite() && v >= 0.0, "{v} not finite");
                }
                assert!(
                    class.p50_ms <= class.p95_ms && class.p95_ms <= class.p99_ms,
                    "{}::{} percentiles out of order",
                    series.overlay,
                    class.class
                );
            }
        }
        // Searches route over >= 1 hop of ~40ms links: medians must be in a
        // sane band, not zero and not absurd.
        let baton = &result.series[0];
        let search = baton.classes.iter().find(|c| c.class == "search").unwrap();
        assert!(
            search.p50_ms > 1.0,
            "search p50 {} too small",
            search.p50_ms
        );
        let table = result.to_table();
        assert!(table.contains("latency_under_churn"));
        assert!(table.contains("BATON"));
        assert!(table.contains("D3-Tree"));
    }

    #[test]
    fn skips_are_attributed_to_classes() {
        let profile = Profile::smoke();
        let result = run_scenario("latency_under_churn", &profile).expect("registered");
        // Chord cannot answer range queries: every one of its skips must be
        // attributed, and the range class must be among them.
        let chord = result
            .series
            .iter()
            .find(|s| s.overlay == "Chord")
            .expect("Chord series");
        let ranged: u64 = chord
            .skipped
            .iter()
            .filter(|(class, _)| class == "range")
            .map(|(_, n)| *n)
            .sum();
        assert!(ranged > 0, "Chord skipped no ranges: {:?}", chord.skipped);
        assert_eq!(
            chord.skipped_total(),
            chord.skipped.iter().map(|(_, n)| n).sum::<u64>()
        );
        // Fully capable overlays never skip ranges.
        let baton = &result.series[0];
        assert!(baton.skipped.iter().all(|(class, _)| class != "range"));
    }

    #[test]
    fn flash_crowd_reports_every_overlay() {
        let profile = Profile::smoke();
        let result = run_scenario("flash_crowd", &profile).expect("registered");
        assert_eq!(result.series.len(), 4);
        for series in &result.series {
            assert!(series.throughput > 0.0, "{} idle", series.overlay);
            let search = series
                .classes
                .iter()
                .find(|c| c.class == "search")
                .unwrap_or_else(|| panic!("{} ran no searches", series.overlay));
            assert!(search.count > 0);
            assert!(search.p50_ms > 1.0);
        }
        let table = result.to_table();
        assert!(table.contains("flash_crowd"));
        assert!(table.contains("hottest 1%"));
    }

    #[test]
    fn bulk_built_scenarios_run_every_overlay() {
        // The Bulk knob swaps only the construction path: the workload still
        // runs and reports for every overlay, including the two without a
        // bulk constructor (they fall back to the join build).
        let profile = Profile::smoke();
        let result =
            run_scenario_with_options("latency_under_churn", &profile, Some(BuildKind::Bulk), None)
                .expect("registered scenario");
        assert_eq!(result.series.len(), 4);
        for series in &result.series {
            assert!(
                series.throughput > 0.0,
                "{} idle under the bulk build",
                series.overlay
            );
            let search = series
                .classes
                .iter()
                .find(|c| c.class == "search")
                .unwrap_or_else(|| panic!("{} ran no searches", series.overlay));
            assert!(search.count > 0);
        }
    }

    #[test]
    fn an_explicit_overlay_list_runs_exactly_those_series() {
        // Units are seeded from (overlay, repetition) alone, so BATON run by
        // itself is the BATON row of the four-overlay comparison — with and
        // without a fault plan.
        let profile = Profile::smoke();
        for build in [
            specs::latency_under_churn_plan,
            specs::regional_failure_plan,
        ] {
            let plan = build(&profile);
            let (all, _) = run_plan(&profile, &plan, &standard_overlays(), 1, None);
            let (alone, _) = run_plan(&profile, &plan, &[crate::reference_overlay()], 1, None);
            assert_eq!(all.len(), 4, "{}", plan.title);
            assert_eq!(alone, [all[0].clone()], "{}", plan.title);
        }
    }

    #[test]
    fn scenario_registry_resolves_ids() {
        assert_eq!(
            all_scenario_ids(),
            vec![
                "latency_under_churn",
                "flash_crowd",
                "regional_failure",
                "degraded_links",
                "skew_ramp",
                "cascading_failure"
            ]
        );
        let profile = Profile::smoke();
        assert!(run_scenario("nonsense", &profile).is_none());
        assert!(run_scenario("LATENCY_UNDER_CHURN", &profile).is_some());
        assert!(run_scenario("Flash_Crowd", &profile).is_some());
    }

    #[test]
    fn regional_failure_kills_a_correlated_slice_and_recovers() {
        let profile = Profile::smoke();
        let result = run_scenario("regional_failure", &profile).expect("registered");
        assert_eq!(result.series.len(), 4);
        for series in &result.series {
            // The fault plan fires on every overlay — targeted kills on the
            // systems that expose their peer list (all four do).
            assert!(
                series.fault_kills > 0,
                "{} saw no fault kills",
                series.overlay
            );
            // Deferred kills (overlays with a repair protocol) are mended
            // one repair per kill; on the rest the kills run the immediate
            // fail-and-recover protocol under the `fail` class.
            let fails: u64 = series
                .classes
                .iter()
                .filter(|c| c.class == "fail")
                .map(|c| c.count)
                .sum();
            if series.repairs > 0 {
                assert_eq!(
                    series.repairs, series.fault_kills,
                    "{}: every deferred kill must be repaired",
                    series.overlay
                );
                assert!(series.repair_mean_ms > 0.0);
                assert!(series.repair_p95_ms >= series.repair_mean_ms * 0.5);
            } else {
                assert!(
                    fails >= series.fault_kills,
                    "{}: fail class ({fails}) must cover the {} fault kills",
                    series.overlay,
                    series.fault_kills
                );
            }
            assert!(series.throughput > 0.0);
        }
        // BATON defers its kills: its series measures the availability
        // window the other overlays close instantly.
        let baton = &result.series[0];
        assert_eq!(baton.overlay, "BATON");
        assert!(baton.repairs > 0, "BATON must take the deferred path");
        assert!(
            baton.window_attempts > 0,
            "operations must arrive inside the fault window"
        );
        assert!(baton.availability.is_some());
        let table = result.to_table();
        assert!(table.contains("killed by faults"));
        assert!(table.contains("availability"));
    }

    #[test]
    fn cascading_failure_measures_availability_under_two_waves() {
        let profile = Profile::smoke();
        let result = run_scenario("cascading_failure", &profile).expect("registered");
        assert_eq!(result.series.len(), 4);
        for series in &result.series {
            assert!(
                series.fault_kills > 0,
                "{} saw no fault kills",
                series.overlay
            );
            assert!(series.throughput > 0.0);
        }
        let baton = &result.series[0];
        assert_eq!(baton.overlay, "BATON");
        assert_eq!(baton.repairs, baton.fault_kills);
        let availability = baton.availability.expect("window operations arrived");
        assert!((0.0..=1.0).contains(&availability));
        // Both ~10s slow-repair windows see traffic; whether any of it lands
        // on a dead slice is seed luck at smoke scale, so only the
        // measurement plumbing is pinned here (the k-contrast lives in
        // `replication_raises_availability_under_regional_failure`).
        assert!(baton.window_attempts > 0);
        // The JSON rendering carries the availability keys for this
        // scenario and omits them for the faultless legacy ones.
        let json = crate::report::render_scenarios_json(&[result]);
        assert!(json.contains("\"availability\""));
        assert!(json.contains("\"repairs\""));
        assert!(json.contains("\"unavailable\""));
        let legacy = run_scenario("flash_crowd", &profile).expect("registered");
        let legacy_json = crate::report::render_scenarios_json(&[legacy]);
        assert!(!legacy_json.contains("\"availability\""));
        assert!(!legacy_json.contains("\"repairs\""));
    }

    #[test]
    fn replication_raises_availability_under_regional_failure() {
        let profile = Profile::smoke();
        let k1 = run_scenario_with_options("regional_failure", &profile, None, Some(1))
            .expect("registered");
        let k2 = run_scenario_with_options("regional_failure", &profile, None, Some(2))
            .expect("registered");
        let a1 = k1.series[0].availability.expect("k=1 window ops");
        // The assessment window is fixed at `[fault.at, fault.at +
        // policy.slow]` regardless of k, so both runs sample the same
        // arrival stream — the denominators match and k=2 always observes.
        let a2 = k2.series[0].availability.expect("k=2 window ops");
        assert_eq!(
            k1.series[0].window_attempts, k2.series[0].window_attempts,
            "fixed windows must give k-independent denominators"
        );
        assert!(a1 <= 0.90, "k=1 availability {a1:.3} suspiciously high");
        assert!(
            a2 > a1,
            "k=2 availability ({a2:.3}) must beat k=1 ({a1:.3})"
        );
        assert!(a2 >= 0.99, "k=2 availability {a2:.3} below 99%");
        // Replica maintenance costs messages: the k=2 run spends more.
        assert!(k2.series[0].messages > k1.series[0].messages);
    }

    #[test]
    fn degraded_links_and_skew_ramp_run_every_overlay() {
        let profile = Profile::smoke();
        for id in ["degraded_links", "skew_ramp"] {
            let result = run_scenario(id, &profile).expect("registered");
            assert_eq!(result.series.len(), 4, "{id}");
            for series in &result.series {
                assert!(series.throughput > 0.0, "{id}: {} idle", series.overlay);
                assert_eq!(series.fault_kills, 0, "{id} plans no faults");
                let search = series
                    .classes
                    .iter()
                    .find(|c| c.class == "search")
                    .unwrap_or_else(|| panic!("{id}: {} ran no searches", series.overlay));
                assert!(search.count > 0);
                assert!(search.p50_ms > 1.0);
            }
        }
    }
}
