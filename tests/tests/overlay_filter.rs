//! The `--overlays` selection: narrowing the overlay list a run is handed
//! must (a) drop every unselected series with zero per-figure code and (b)
//! leave the selected overlays' numbers **bit-identical** — the run over the
//! paper's three systems reproduces the pre-D3-Tree golden fixture exactly.

use baton_sim::figures::{SERIES_BATON, SERIES_CHORD, SERIES_D3TREE, SERIES_MTREE};
use baton_sim::{figures, overlay_names, render_json, select_overlays, Profile};

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn selected(list: &[&str]) -> Vec<&'static str> {
    let specs = select_overlays(&names(list)).expect("known names");
    specs.iter().map(|s| s.series).collect()
}

#[test]
fn selection_validates_and_normalises_names() {
    let all = [SERIES_BATON, SERIES_CHORD, SERIES_MTREE, SERIES_D3TREE];
    assert_eq!(overlay_names(), all);

    // An unknown name is an error that lists the known ones.
    let error = select_overlays(&names(&["BATON", "Pastry"]))
        .err()
        .expect("unknown name");
    assert!(error.contains("'Pastry'"), "{error}");
    for known in all {
        assert!(error.contains(known), "{error}");
    }

    // Case-insensitive, duplicates collapsed, registry order; empty = all.
    assert_eq!(selected(&["d3-tree"]), [SERIES_D3TREE]);
    assert_eq!(
        selected(&["chord", "BATON", "CHORD"]),
        [SERIES_BATON, SERIES_CHORD]
    );
    assert_eq!(selected(&[]), all);
}

#[test]
fn overlay_filter_narrows_every_driver_and_preserves_series_bits() {
    // Over the paper's three systems, the full figure run is bit-identical
    // to the fixture captured before the D3-Tree existed.
    let baselines = select_overlays(&names(&[SERIES_BATON, SERIES_CHORD, SERIES_MTREE]));
    let results = figures::run_all(&Profile::smoke(), &baselines.expect("known names"));
    let fixture = include_str!("../fixtures/fig8_smoke_pre_d3tree.json");
    assert_eq!(
        render_json(&results).trim(),
        fixture.trim(),
        "narrowed figure output diverged from the pre-D3-Tree fixture"
    );
}

#[test]
fn a_single_overlay_is_isolated_in_comparison_figures_only() {
    let profile = Profile::smoke();
    let d3tree = select_overlays(&names(&[SERIES_D3TREE])).expect("known name");
    let fig8d = figures::run_figure("8d", &profile, &d3tree).expect("8d");
    assert_eq!(fig8d.series_names(), vec![SERIES_D3TREE.to_owned()]);
    // The BATON-only figures ignore the list.
    let fig8g = figures::run_figure("8g", &profile, &d3tree).expect("8g");
    let everyone = select_overlays(&[]).expect("empty selects all");
    assert_eq!(Some(fig8g), figures::run_figure("8g", &profile, &everyone));
}
