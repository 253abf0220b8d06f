//! Figure 8(d): cost of exact-match queries versus network size.
//!
//! Expected shape (paper §V-B): BATON ≈ Chord ≈ `O(log N)` with BATON
//! slightly higher (tree height up to `1.44 log N`), and the multiway tree
//! clearly more expensive.

use baton_net::SimRng;
use baton_workload::{runner, KeyDistribution, QueryWorkload};

use crate::driver::{load_overlay, OverlaySpec};
use crate::profile::Profile;
use crate::result::{Averager, FigureResult, SeriesPoint};

/// Runs the exact-match query measurement.
pub fn run(profile: &Profile, specs: &[OverlaySpec]) -> FigureResult {
    let mut figure = FigureResult::new("8d", "Exact match query", "nodes", "messages per query");
    for &n in &profile.network_sizes {
        let mut averages = vec![Averager::new(); specs.len()];
        for rep in 0..profile.repetitions {
            let seed = profile.rep_seed(rep);
            let workload = QueryWorkload {
                exact_queries: profile.query_count(),
                distribution: KeyDistribution::Uniform,
                ..QueryWorkload::paper()
            };
            // One query batch per repetition, identical for every system.
            let queries = workload.exact(&mut SimRng::seeded(seed ^ 0xE5AC));

            for (i, spec) in specs.iter().enumerate() {
                let mut overlay = spec.build(profile, n, seed);
                load_overlay(profile, &mut *overlay, KeyDistribution::Uniform, seed);
                let outcome = runner::run_queries(&mut *overlay, &queries).expect("queries");
                averages[i].add_total(outcome.exact_messages as f64, outcome.exact_executed);
            }
        }
        let mut point = SeriesPoint::at(n as f64);
        for (i, spec) in specs.iter().enumerate() {
            point = point.set(spec.series, averages[i].mean());
        }
        figure.points.push(point);
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::standard_overlays;
    use crate::figures::{SERIES_BATON, SERIES_MTREE};

    #[test]
    fn exact_query_costs_scale_like_log_n() {
        let profile = Profile::smoke();
        let figure = run(&profile, &standard_overlays());
        assert_eq!(figure.points.len(), profile.network_sizes.len());
        let largest = *profile.network_sizes.last().unwrap() as f64;
        let log_n = largest.log2();
        let at_largest = &figure.points.last().unwrap().values;
        let (baton, mtree) = (at_largest[SERIES_BATON], at_largest[SERIES_MTREE]);
        assert!(
            baton > 0.0 && baton <= 2.0 * log_n + 4.0,
            "BATON query cost {baton}"
        );
        assert!(
            mtree > baton,
            "multiway ({mtree:.1}) should exceed BATON ({baton:.1})"
        );
        // Costs grow (weakly) with network size.
        let baton_small = figure.points[0].values[SERIES_BATON];
        assert!(baton >= baton_small * 0.8);
    }
}
