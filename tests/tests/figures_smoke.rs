//! Smoke tests for the experiment harness: every figure driver runs at the
//! smoke profile, produces non-empty series, and renders to tables / CSV /
//! JSON.

use baton_sim::{figures, render_json, render_report, standard_overlays, Profile};

#[test]
fn every_figure_runs_and_renders() {
    let profile = Profile::smoke();
    let results = figures::run_all(&profile, &standard_overlays());
    assert_eq!(results.len(), figures::all_figure_ids().len());
    for result in &results {
        assert!(
            !result.points.is_empty(),
            "figure {} produced no points",
            result.id
        );
        let table = result.to_table();
        assert!(table.contains(&format!("Figure {}", result.id)));
        let csv = result.to_csv();
        assert!(
            csv.lines().count() >= 2,
            "figure {} CSV too short",
            result.id
        );
    }
    let report = render_report(&results);
    for id in figures::all_figure_ids() {
        assert!(
            report.contains(&format!("Figure {id}")),
            "missing figure {id}"
        );
    }
    let json = render_json(&results);
    assert!(json.contains("\"8a\"") && json.contains("\"8i\""));
}

#[test]
fn figure_ids_resolve_case_insensitively() {
    let profile = Profile::smoke();
    let specs = standard_overlays();
    let lower = figures::run_figure("8d", &profile, &specs).unwrap();
    let upper = figures::run_figure("8D", &profile, &specs).unwrap();
    assert_eq!(lower.id, upper.id);
    assert!(figures::run_figure("nonsense", &profile, &specs).is_none());
}

#[test]
fn comparison_series_are_present_where_the_paper_plots_them() {
    let profile = Profile::smoke();
    let specs = standard_overlays();
    let (fig_a, fig_b) = figures::fig8ab::run(&profile, &specs);
    for fig in [&fig_a, &fig_b] {
        let names = fig.series_names();
        assert!(names.iter().any(|n| n.contains("BATON")));
        assert!(names.iter().any(|n| n.contains("Chord")));
        assert!(names.iter().any(|n| n.contains("Multiway")));
    }
    let fig_e = figures::fig8e::run(&profile, &specs);
    let names = fig_e.series_names();
    assert!(names.iter().any(|n| n.contains("BATON")));
    assert!(
        !names.iter().any(|n| n == "Chord"),
        "Chord cannot appear in the range-query figure"
    );
}
