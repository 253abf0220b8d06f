//! Figure 8(f): access load of nodes at different tree levels.
//!
//! The headline claim of BATON: a tree overlay **without** a root hotspot.
//! The figure reports, for the largest network size of the profile, the
//! average number of messages handled per node at each level, separately for
//! the insert phase and for the exact-query phase.  Expected shape: the
//! insert load is roughly flat across levels and the search load at the
//! leaves is at least as high as at the root.
//!
//! The paper plots BATON alone, so the driver builds the reference overlay
//! as a concrete [`BatonSystem`](baton_core::BatonSystem)
//! ([`build_baton_system`]), drives its inserts and searches through the
//! generic [`Overlay`] interface, and reads the levels from BATON's own
//! [`access_load_by_level`](baton_core::BatonSystem::access_load_by_level).

use baton_net::{Overlay, SimRng};
use baton_workload::{KeyDistribution, KeyGenerator};

use crate::driver::{build_baton_system, load_overlay};
use crate::profile::Profile;
use crate::result::{FigureResult, SeriesPoint};

/// Series of per-level load during the insert phase.
pub const SERIES_INSERT_LOAD: &str = "insert load";
/// Series of per-level load during the exact-query phase.
pub const SERIES_SEARCH_LOAD: &str = "search load";

/// Runs the per-level access-load measurement.
pub fn run(profile: &Profile) -> FigureResult {
    let mut figure = FigureResult::new(
        "8f",
        "Access load for nodes at different levels",
        "tree level",
        "messages handled per node",
    );
    let n = *profile.network_sizes.last().expect("profile has sizes");
    let seed = profile.rep_seed(0);
    let mut system = build_baton_system(profile, n, seed);

    // Phase 1: inserts.
    system.stats_mut().reset_received_counters();
    load_overlay(profile, &mut system, KeyDistribution::Uniform, seed);
    let insert_load = system.access_load_by_level();

    // Phase 2: exact queries.
    system.stats_mut().reset_received_counters();
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(seed ^ 0xF1F1);
    for _ in 0..(profile.query_count() * 4) {
        let key = generator.next_key(&mut rng);
        Overlay::search_exact(&mut system, key).expect("search");
    }
    let search_load = system.access_load_by_level();

    let max_level = insert_load
        .iter()
        .chain(search_load.iter())
        .map(|(l, _)| *l)
        .max()
        .unwrap_or(0);
    for level in 0..=max_level {
        let mut point = SeriesPoint::at(level as f64);
        if let Some((_, v)) = insert_load.iter().find(|(l, _)| *l == level) {
            point = point.set(SERIES_INSERT_LOAD, *v);
        }
        if let Some((_, v)) = search_load.iter().find(|(l, _)| *l == level) {
            point = point.set(SERIES_SEARCH_LOAD, *v);
        }
        figure.points.push(point);
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_root_is_not_a_hotspot() {
        let profile = Profile::smoke();
        let figure = run(&profile);
        assert!(figure.points.len() >= 3, "expected several tree levels");
        assert_eq!(figure.points[0].x, 0.0, "points start at the root level");
        let root_search = figure.points[0].values[SERIES_SEARCH_LOAD];
        // Average search load over the deepest two levels (the leaves).
        let deepest: Vec<f64> = figure
            .points
            .iter()
            .rev()
            .take(2)
            .filter_map(|p| p.values.get(SERIES_SEARCH_LOAD).copied())
            .collect();
        let leaf_search = deepest.iter().sum::<f64>() / deepest.len().max(1) as f64;
        // Paper: "the load is slightly higher at the leaves than at the
        // root" — at minimum, the root must not dominate.
        assert!(
            root_search <= leaf_search * 3.0,
            "root search load {root_search} dwarfs leaf load {leaf_search}"
        );
        // Insert load exists at every level that holds nodes.
        assert!(figure
            .points
            .iter()
            .any(|p| p.values.contains_key(SERIES_INSERT_LOAD)));
    }
}
