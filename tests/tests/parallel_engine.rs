//! Thread-count determinism: the scenario engine must produce byte-identical
//! output regardless of how many worker threads the (overlay × repetition)
//! units fan across.
//!
//! The engine's contract is that thread count only changes *when* a unit
//! runs, never *what* it computes: every unit derives its seeds from its
//! own indices, and aggregation walks the outcomes in canonical unit order.
//! These tests pin that contract for every registered scenario.
//!
//! The thread budget (`baton_net::set_threads`) is process-global, so the
//! comparison runs live in one test — splitting them into separate `#[test]`
//! functions would race within the test binary.

use baton_net::set_threads;
use baton_sim::{render_scenarios_json, scenario, Profile};

#[test]
fn every_scenario_is_byte_identical_across_thread_counts() {
    let profile = Profile::smoke();
    for spec in scenario::all_scenarios() {
        set_threads(1);
        let single = scenario::run_scenario(spec.id, &profile).expect("registered");
        set_threads(4);
        let parallel = scenario::run_scenario(spec.id, &profile).expect("registered");
        set_threads(1);
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
    let profile = Profile::smoke();
    set_threads(1);
    let single = scenario::run_scenario("flash_crowd", &profile).expect("registered");
    set_threads(64);
    let oversubscribed = scenario::run_scenario("flash_crowd", &profile).expect("registered");
    set_threads(1);
    assert_eq!(
        render_scenarios_json(&[single]),
        render_scenarios_json(&[oversubscribed]),
    );
}
