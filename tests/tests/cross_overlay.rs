//! Cross-overlay smoke tests: all nine figure drivers run at
//! `Profile::smoke()` through the generic `Overlay`-based driver, and every
//! series they produce is non-empty and finite for BATON, Chord and the
//! multiway tree (where the paper plots them).  Plus, per overlay, the
//! `Overlay` boundary itself: the provided network methods reach the
//! overlay's own `SimNetwork`.

use std::collections::HashSet;

use baton_net::{LatencyModel, Overlay, OverlayError, SimTime, TraceConfig};
use baton_sim::figures::{SERIES_BATON, SERIES_CHORD, SERIES_D3TREE, SERIES_MTREE};
use baton_sim::{figures, standard_overlays, Profile};
use baton_workload::{runner, ChurnWorkload, Query, QueryWorkload};

#[test]
fn all_nine_figures_produce_finite_series_through_the_generic_driver() {
    let profile = Profile::smoke();
    let results = figures::run_all(&profile, &standard_overlays());
    assert_eq!(results.len(), figures::all_figure_ids().len());

    // Which figures each comparison series appears in: the paper's
    // placement for its three systems, and every comparison figure for the
    // post-paper D3-Tree baseline (it is fully capable).
    let baton_figures: HashSet<&str> = ["8a", "8b", "8c", "8d", "8e", "8i"].into();
    let chord_figures: HashSet<&str> = ["8a", "8b", "8c", "8d"].into();
    let mtree_figures: HashSet<&str> = ["8a", "8b", "8c", "8d", "8e"].into();
    let d3tree_figures: HashSet<&str> = ["8a", "8b", "8c", "8d", "8e"].into();

    for result in &results {
        let id = result.id.as_str();
        assert!(!result.points.is_empty(), "figure {id} produced no points");
        for point in &result.points {
            assert!(point.x.is_finite(), "figure {id}: non-finite x");
            for (series, value) in &point.values {
                assert!(
                    value.is_finite(),
                    "figure {id}, series '{series}': non-finite value {value}"
                );
            }
        }
        let names = result.series_names();
        for (series, expected_in) in [
            (SERIES_BATON, &baton_figures),
            (SERIES_CHORD, &chord_figures),
            (SERIES_MTREE, &mtree_figures),
            (SERIES_D3TREE, &d3tree_figures),
        ] {
            if expected_in.contains(id) {
                assert!(
                    names.iter().any(|n| n == series),
                    "figure {id} is missing the '{series}' series (has {names:?})"
                );
                // Every point of an expected series carries a finite value.
                for point in &result.points {
                    let value = point.values.get(series).copied().unwrap_or_else(|| {
                        panic!("figure {id}, x = {}: no '{series}' value", point.x)
                    });
                    assert!(value.is_finite() && value >= 0.0);
                }
            }
        }
        // Chord never sneaks into the range-query figure.
        if id == "8e" {
            assert!(!names.iter().any(|n| n == SERIES_CHORD));
        }
    }
}

#[test]
fn one_workload_drives_every_overlay_through_the_runners() {
    let profile = Profile::smoke();
    let mut rng = baton_net::SimRng::seeded(777);
    let churn = ChurnWorkload::balanced(40).events(&mut rng);
    let workload = QueryWorkload::paper().scaled(0.02);
    let mut queries: Vec<Query> = workload.exact(&mut rng);
    queries.extend(workload.ranges(&mut rng));
    let data: Vec<(u64, u64)> = (0..200u64).map(|i| (1 + i * 4_999_999, i)).collect();

    for spec in standard_overlays() {
        let mut overlay = spec.build(&profile, 30, 99);
        let load = runner::bulk_load(&mut *overlay, &data).expect("load");
        assert_eq!(load.inserted, data.len() as u64);
        assert!(load.messages > 0, "{}: loads cost messages", spec.series);

        let churn_outcome = runner::run_churn(&mut *overlay, &churn, 4).expect("churn");
        assert!(churn_outcome.executed() > 0);
        assert!(churn_outcome.mean_messages().is_finite());

        let query_outcome = runner::run_queries(&mut *overlay, &queries).expect("queries");
        assert_eq!(query_outcome.exact_executed, workload.exact_queries as u64);
        let range_capable = overlay.capabilities().range_queries;
        if range_capable {
            assert_eq!(query_outcome.range_executed, workload.range_queries as u64);
            assert_eq!(query_outcome.unsupported, 0);
        } else {
            assert_eq!(query_outcome.range_executed, 0);
            assert_eq!(query_outcome.unsupported, workload.range_queries as u64);
        }

        overlay
            .validate()
            .unwrap_or_else(|e| panic!("{} inconsistent after the workload: {e}", spec.series));
    }
}

/// What each system can do, asked of its operations: a range query and a
/// failure.
#[test]
fn capability_gates_match_the_systems() {
    let profile = Profile::smoke();
    let answers =
        |error: Option<OverlayError>| !matches!(error, Some(OverlayError::Unsupported(_)));
    let mut by_name: Vec<(&str, bool, bool)> = standard_overlays()
        .iter()
        .map(|spec| {
            let mut overlay = spec.build(&profile, 8, 1);
            let ranges = answers(overlay.search_range(1, 100).err());
            assert_eq!(ranges, overlay.capabilities().range_queries);
            (spec.series, ranges, answers(overlay.fail_random().err()))
        })
        .collect();
    by_name.sort();
    assert_eq!(
        by_name,
        vec![
            ("BATON", true, true),
            ("Chord", false, false),
            ("D3-Tree", true, true),
            ("Multiway tree", true, false),
        ]
    );
}

#[test]
fn unsupported_operations_are_errors_not_panics() {
    let profile = Profile::smoke();
    for spec in standard_overlays() {
        let mut overlay = spec.build(&profile, 10, 5);
        for error in [
            overlay.search_range(1, 100).err(),
            overlay.fail_random().err(),
        ] {
            assert!(
                matches!(error, None | Some(OverlayError::Unsupported(_))),
                "{}: {error:?}",
                spec.series
            );
        }
    }
}

/// Drives the provided network methods through `dyn Overlay` and checks
/// each one by its effect on the overlay's *own* operations: the clock and
/// the latency model shape the next query's timing, the recorder captures
/// that query's hops, and `stats_mut` resets the per-peer counters the
/// overlay's traffic filled.
fn drives_its_own_network(name: &str, mut overlay: Box<dyn Overlay>) {
    overlay.search_exact(123_456_789).unwrap();
    assert_eq!(overlay.now(), SimTime::ZERO, "{name}: zero-latency default");
    let received =
        |o: &dyn Overlay| -> u64 { o.peers().iter().map(|&p| o.stats().received_count(p)).sum() };
    assert!(received(&*overlay) > 0, "{name}");
    overlay.stats_mut().reset_received_counters();
    assert_eq!(received(&*overlay), 0, "{name}");
    assert!(overlay.take_trace().is_none(), "{name}: no recorder yet");

    let hop = SimTime::from_millis(10);
    overlay.set_latency_model(LatencyModel::constant(hop));
    overlay.advance_to(SimTime::from_secs(5));
    assert_eq!(overlay.now(), SimTime::from_secs(5));
    overlay.set_trace(TraceConfig::new(16));
    let first_traced = overlay.stats().next_op_id();
    let cost = overlay.search_exact(987_654_321).unwrap();
    assert!(cost.messages > 0, "{name}: seed 5 routes at least one hop");

    // The query started at the advanced clock and took `messages` 10 ms hops.
    let took = SimTime::from_micros(cost.messages * hop.as_micros());
    assert_eq!(overlay.now(), SimTime::from_secs(5) + took, "{name}");
    let trace = overlay.take_trace().expect("recorder installed");
    let span = trace
        .spans()
        .find(|span| span.op == first_traced)
        .unwrap_or_else(|| panic!("{name}: the query was not recorded"));
    assert_eq!(span.started_at, SimTime::from_secs(5), "{name}");
    assert_eq!(span.message_count(), cost.messages, "{name}");
    assert!(overlay.take_trace().is_none(), "{name}: recorder removed");
}

#[test]
fn baton_drives_its_own_network_through_the_trait() {
    let system = baton_core::BatonSystem::build(Default::default(), 5, 30).unwrap();
    drives_its_own_network("BATON", Box::new(system));
}

#[test]
fn chord_drives_its_own_network_through_the_trait() {
    let system = baton_chord::ChordSystem::build(5, 30).unwrap();
    drives_its_own_network("Chord", Box::new(system));
}

#[test]
fn mtree_drives_its_own_network_through_the_trait() {
    let system = baton_mtree::MTreeSystem::build(5, 30).unwrap();
    drives_its_own_network("Multiway tree", Box::new(system));
}

#[test]
fn d3tree_drives_its_own_network_through_the_trait() {
    let system = baton_d3tree::D3TreeSystem::build(5, 30).unwrap();
    drives_its_own_network("D3-Tree", Box::new(system));
}
