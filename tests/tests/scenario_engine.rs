//! The scenario registry and its generic engine:
//!
//! * the two legacy scenarios, now expressed as declarative
//!   [`ScenarioSpec`](baton_sim::scenario::ScenarioSpec)s, reproduce their
//!   pre-refactor JSON **byte for byte**
//!   (`tests/fixtures/scenario_smoke_seed.json`, captured from the
//!   hand-rolled runners before the phase/fault engine existed);
//! * every registered scenario is deterministic — two runs with the same
//!   profile render byte-identical JSON;
//! * every registered scenario covers every registered overlay purely by
//!   registration (no per-scenario per-overlay code to forget);
//! * the correlated-failure machinery actually kills peers, on every
//!   overlay, with the kills attributed to the `fail` class.

use baton_net::{RegionMap, SimTime};
use baton_sim::{render_scenarios_json, scenario, Profile};
use baton_workload::{FaultEvent, FaultKind, FaultPlan, OpClass};

/// The legacy scenarios re-expressed through the ScenarioSpec engine emit
/// the bytes captured from the pre-refactor hand-rolled runners.
#[test]
fn legacy_scenarios_match_the_pre_refactor_fixture_exactly() {
    let fixture = include_str!("../fixtures/scenario_smoke_seed.json");
    let profile = Profile::smoke();
    let results: Vec<_> = ["latency_under_churn", "flash_crowd"]
        .into_iter()
        .map(|id| scenario::run_scenario(id, &profile).expect("registered"))
        .collect();
    assert_eq!(
        render_scenarios_json(&results).trim(),
        fixture.trim(),
        "legacy scenario output diverged from the pre-refactor fixture"
    );
}

/// Byte-level determinism of the whole catalog: any registered scenario run
/// twice with the same profile renders identical JSON.  This is the
/// regression net for every seeded component a scenario composes — phased
/// schedules, regional latency, degradation windows, fault-victim
/// selection.
#[test]
fn every_registered_scenario_is_deterministic() {
    let profile = Profile::smoke();
    for spec in scenario::all_scenarios() {
        let first = scenario::run_scenario(spec.id, &profile).expect("registered");
        let second = scenario::run_scenario(spec.id, &profile).expect("registered");
        assert_eq!(
            render_scenarios_json(&[first]),
            render_scenarios_json(&[second]),
            "scenario {} is not deterministic",
            spec.id
        );
    }
}

/// Registration is the only wiring: every scenario reports one series per
/// registered overlay, and each series did real work.
#[test]
fn every_scenario_covers_every_overlay_by_registration_alone() {
    let profile = Profile::smoke();
    let overlays = baton_sim::overlay_names();
    for spec in scenario::all_scenarios() {
        let result = scenario::run_scenario(spec.id, &profile).expect("registered");
        assert_eq!(result.id, spec.id);
        let series_names: Vec<&str> = result.series.iter().map(|s| s.overlay.as_str()).collect();
        assert_eq!(
            series_names, overlays,
            "{}: series must cover every overlay in registration order",
            spec.id
        );
        for series in &result.series {
            assert!(
                series.throughput > 0.0,
                "{}: {} executed nothing",
                spec.id,
                series.overlay
            );
            assert!(series.virtual_seconds > 0.0);
            for class in &series.classes {
                assert!(
                    class.p50_ms <= class.p95_ms && class.p95_ms <= class.p99_ms,
                    "{}: {}::{} percentiles out of order",
                    spec.id,
                    series.overlay,
                    class.class
                );
            }
        }
    }
}

/// The correlated regional kill fires on all four overlays: deferred
/// fail-then-repair where the overlay supports it (BATON), and the
/// immediate fail-and-recover protocol — attributed to the `fail` class —
/// everywhere else.
#[test]
fn regional_failure_kills_peers_on_every_overlay() {
    let profile = Profile::smoke();
    let result = scenario::run_scenario("regional_failure", &profile).expect("registered");
    for series in &result.series {
        assert!(
            series.fault_kills > 0,
            "{} saw no correlated kills",
            series.overlay
        );
        if series.repairs > 0 {
            assert_eq!(
                series.repairs, series.fault_kills,
                "{}: every deferred kill must be repaired",
                series.overlay
            );
        } else {
            let fail_count: u64 = series
                .classes
                .iter()
                .filter(|c| c.class == OpClass::Fail.name())
                .map(|c| c.count)
                .sum();
            assert!(
                fail_count >= series.fault_kills,
                "{}: fail class ({fail_count}) must include the {} fault kills",
                series.overlay,
                series.fault_kills
            );
        }
    }
    // BATON is the overlay with a deferred-repair protocol: its series
    // carries the repair bookkeeping.
    assert!(result.series[0].repairs > 0);
    // The kills surface in the JSON rendering (legacy scenarios, with zero
    // kills, omit the key — that is what keeps their fixture stable).
    let json = render_scenarios_json(&[result]);
    assert!(json.contains("\"fault_kills\""));
    let legacy = scenario::run_scenario("flash_crowd", &profile).expect("registered");
    assert!(!render_scenarios_json(&[legacy]).contains("\"fault_kills\""));
}

/// Targeted region kills through the `Overlay` trait surface: every victim
/// of a `KillRegion` fault leaves the overlay's live peer list, and only
/// peers of the named region are touched — exercised directly against each
/// overlay, not through a scenario.
#[test]
fn targeted_region_kills_remove_exactly_the_selected_victims() {
    use baton_net::SimRng;
    use baton_workload::run_phased_with_metrics;

    let profile = Profile::smoke();
    let map = RegionMap::new(4, 0xFA11);
    for spec in baton_sim::standard_overlays() {
        let mut overlay = spec.build(&profile, 60, 0xC0FFEE);
        let before = overlay.peers().to_vec();
        assert_eq!(before.len(), 60, "{}", spec.series);
        let region_size = before.iter().filter(|p| map.region_of(**p) == 2).count();
        assert!(region_size > 0, "{}: empty region", spec.series);

        // An empty workload whose fault plan kills 50% of region 2 at t=1s.
        let workload = baton_workload::PhasedWorkload::queries_only(SimTime::from_secs(2), 0.0);
        let faults = FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::KillRegion {
                map,
                region: 2,
                fraction: 0.5,
            },
        }]);
        let mut rng = SimRng::seeded(7);
        let events = workload.schedule(&mut rng.derive(1));
        assert!(events.is_empty(), "zero-rate workload schedules nothing");
        let outcome = run_phased_with_metrics(
            &mut *overlay,
            &events,
            &workload,
            &faults,
            &mut rng,
            5,
            None,
        )
        .expect("run");

        let expected = (region_size as f64 * 0.5).round() as u64;
        assert_eq!(
            outcome.fault_kills, expected,
            "{}: expected {expected} kills of region 2's {region_size} peers",
            spec.series
        );
        assert_eq!(overlay.node_count(), 60 - expected as usize);
        // BATON's leave/failure protocol relocates *other* peers into the
        // vacated positions but never removes them: the peers missing from
        // the live list afterwards are exactly in region 2.
        let after = overlay.peers();
        let gone: Vec<_> = before
            .iter()
            .filter(|p| after.binary_search(p).is_err())
            .collect();
        assert_eq!(gone.len(), expected as usize, "{}", spec.series);
        assert!(
            gone.iter().all(|p| map.region_of(**p) == 2),
            "{}: a victim fell outside region 2",
            spec.series
        );
        overlay
            .validate()
            .unwrap_or_else(|e| panic!("{} invariants broken after region kill: {e}", spec.series));
    }
}

/// Regression: a fault wave must never select a victim that is already
/// dead.  Under deferred repair the victims of an earlier wave stay in the
/// membership list until their repair runs, so selection over raw
/// membership could re-kill a dead peer — erroring the kill and
/// under-delivering the wave's severity.  Two same-instant `Kill` waves
/// with a slow repair policy are the sharpest case: every wave-1 victim is
/// still dead while wave 2 selects.
#[test]
fn staggered_fault_waves_never_reselect_dead_victims() {
    use baton_core::{BatonConfig, BatonSystem};
    use baton_net::{Overlay, RepairPolicy, SimRng};
    use baton_workload::{run_phased_with_metrics, PhasedWorkload};

    let mut overlay = BatonSystem::build(BatonConfig::default(), 0xC0FFEE, 60).expect("build");
    overlay
        .set_replication(2)
        .expect("k=2 within BATON's range");
    let workload = PhasedWorkload::queries_only(SimTime::from_secs(4), 0.0);
    let policy = RepairPolicy {
        fast: SimTime::from_millis(500),
        slow: SimTime::from_secs(10),
    };
    let faults = FaultPlan::new(vec![
        FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::Kill { count: 8 },
        },
        FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::Kill { count: 8 },
        },
    ])
    .with_repair(policy);
    let mut rng = SimRng::seeded(7);
    let events = workload.schedule(&mut rng.derive(1));
    let outcome =
        run_phased_with_metrics(&mut overlay, &events, &workload, &faults, &mut rng, 5, None)
            .expect("run");

    // 16 *distinct* peers died: dead victims are filtered out of the second
    // wave's selection pool, so no kill is wasted or skipped.
    assert_eq!(outcome.fault_kills, 16);
    assert_eq!(outcome.skipped_of(OpClass::Fail), 0);
    // Every deferred kill was repaired before the run returned.
    assert_eq!(outcome.repair_times.len(), 16);
    assert_eq!(outcome.repairs_abandoned, 0);
    assert_eq!(Overlay::node_count(&overlay), 60 - 16);
    overlay
        .validate()
        .expect("invariants hold after all repairs");
}

/// Fault-victim selection must not consume the shared key-draw stream:
/// overlays diverge in live peer sets once churn runs, so a selection that
/// drew from the main RNG would desynchronise every later data key and
/// break cross-overlay workload comparability.  Two identical runs — one
/// with a fault plan, one without — must leave the main stream in the same
/// state.
#[test]
fn fault_selection_leaves_the_key_stream_untouched() {
    use baton_core::{BatonConfig, BatonSystem};
    use baton_net::SimRng;
    use baton_workload::{run_phased_with_metrics, PhasedWorkload};

    let map = RegionMap::new(4, 0xFA11);
    let workload = PhasedWorkload::queries_only(SimTime::from_secs(2), 0.0);
    let faults = FaultPlan::new(vec![FaultEvent {
        at: SimTime::from_secs(1),
        kind: FaultKind::KillRegion {
            map,
            region: 2,
            fraction: 0.5,
        },
    }]);
    let next_draw_after = |faults: &FaultPlan| {
        let mut overlay = BatonSystem::build(BatonConfig::default(), 0xC0FFEE, 60).expect("build");
        let mut rng = SimRng::seeded(7);
        let events = workload.schedule(&mut rng.derive(1));
        let outcome =
            run_phased_with_metrics(&mut overlay, &events, &workload, faults, &mut rng, 5, None)
                .expect("run cannot fail");
        (outcome.fault_kills, rng.uniform_f64())
    };
    let (kills, with_faults) = next_draw_after(&faults);
    let (no_kills, without_faults) = next_draw_after(&FaultPlan::none());
    assert!(kills > 0 && no_kills == 0);
    assert_eq!(
        with_faults, without_faults,
        "victim selection consumed draws from the shared key stream"
    );
}
