//! Thread-count determinism: the scenario engine must produce byte-identical
//! output regardless of how many worker threads the (overlay × repetition)
//! units fan across.
//!
//! The engine's contract is that thread count only changes *when* a unit
//! runs, never *what* it computes: every unit derives its seeds from its
//! own indices, and aggregation walks the outcomes in canonical unit order.
//! These tests pin that contract for every registered scenario.

use baton_sim::scenario::{self, ScenarioResult, ScenarioSpec};
use baton_sim::{render_scenarios_json, standard_overlays, Profile};

/// Runs `spec` over all four overlays on `threads` worker threads.
fn run_on(spec: &ScenarioSpec, threads: usize) -> ScenarioResult {
    let profile = Profile::smoke();
    let plan = (spec.build)(&profile);
    let (series, _) = scenario::run_plan(&profile, &plan, &standard_overlays(), threads, None);
    ScenarioResult {
        id: spec.id.to_owned(),
        title: plan.title,
        series,
    }
}

#[test]
fn every_scenario_is_byte_identical_across_thread_counts() {
    for spec in scenario::all_scenarios() {
        let single = run_on(&spec, 1);
        let parallel = run_on(&spec, 4);
        assert_eq!(
            single, parallel,
            "scenario {} diverged between 1 and 4 worker threads",
            spec.id
        );
        assert_eq!(
            render_scenarios_json(&[single]),
            render_scenarios_json(&[parallel]),
            "scenario {} rendered differently at 1 and 4 worker threads",
            spec.id
        );
    }
}

#[test]
fn thread_budget_exceeding_unit_count_is_harmless() {
    // More workers than (overlay × repetition) units: the engine must not
    // deadlock, panic, or change results when most workers have no work.
    let flash_crowd = ScenarioSpec {
        id: "flash_crowd",
        build: scenario::specs::flash_crowd_plan,
    };
    assert_eq!(
        render_scenarios_json(&[run_on(&flash_crowd, 1)]),
        render_scenarios_json(&[run_on(&flash_crowd, 64)]),
    );
}
