//! Figure 8(e): cost of range queries versus network size.
//!
//! BATON answers a range query in `O(log N + X)` messages, where `X` is the
//! number of nodes whose ranges intersect the query.  Chord cannot answer
//! range queries at all (hashing destroys order) — the generic driver
//! probes [`baton_net::OverlayCapabilities::range_queries`] on a two-node
//! build of each overlay and omits the series, as the paper does; the
//! multiway tree answers them by walking neighbour links after a more
//! expensive initial descent.

use baton_net::SimRng;
use baton_workload::{KeyDistribution, Query, QueryWorkload};

use crate::driver::OverlaySpec;
use crate::figures::SERIES_BATON;
use crate::profile::Profile;
use crate::result::{Averager, FigureResult, SeriesPoint};

/// Series reporting how many nodes each BATON range query touched.
pub const SERIES_NODES_COVERED: &str = "BATON nodes covered (X)";

/// Runs the range-query measurement.
pub fn run(profile: &Profile, specs: &[OverlaySpec]) -> FigureResult {
    let mut figure = FigureResult::new("8e", "Range query", "nodes", "messages per query");
    // Capabilities are a property of the system, not of a particular build:
    // probe each spec once on a tiny instance so unsupported systems (Chord)
    // never pay for full-size throwaway builds below.
    let supported: Vec<bool> = specs
        .iter()
        .map(|spec| spec.build(profile, 2, 0).capabilities().range_queries)
        .collect();

    for &n in &profile.network_sizes {
        let mut averages = vec![Averager::new(); specs.len()];
        let mut covered = vec![Averager::new(); specs.len()];
        for rep in 0..profile.repetitions {
            let seed = profile.rep_seed(rep);
            let workload = QueryWorkload {
                range_queries: profile.query_count(),
                distribution: KeyDistribution::Uniform,
                ..QueryWorkload::paper()
            };
            let queries = workload.ranges(&mut SimRng::seeded(seed ^ 0x4A4E));

            for (i, spec) in specs.iter().enumerate() {
                if !supported[i] {
                    continue;
                }
                let mut overlay = spec.build(profile, n, seed);
                crate::driver::load_overlay(profile, &mut *overlay, KeyDistribution::Uniform, seed);
                for query in &queries {
                    let Query::Range { low, high } = query else {
                        continue;
                    };
                    let cost = overlay.search_range(*low, *high).expect("range search");
                    averages[i].add(cost.messages as f64);
                    covered[i].add(cost.nodes_visited as f64);
                }
            }
        }
        let mut point = SeriesPoint::at(n as f64);
        for (i, spec) in specs.iter().enumerate() {
            if !supported[i] {
                continue;
            }
            point = point.set(spec.series, averages[i].mean());
            // The paper annotates BATON's curve with the number of nodes
            // covered (the X of O(log N + X)).
            if spec.series == SERIES_BATON {
                point = point.set(SERIES_NODES_COVERED, covered[i].mean());
            }
        }
        figure.points.push(point);
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::standard_overlays;
    use crate::figures::{SERIES_CHORD, SERIES_MTREE};

    #[test]
    fn range_query_cost_is_log_n_plus_coverage() {
        let profile = Profile::smoke();
        let figure = run(&profile, &standard_overlays());
        let largest = *profile.network_sizes.last().unwrap() as f64;
        let log_n = largest.log2();
        let at_largest = &figure.points.last().unwrap().values;
        let baton = at_largest[SERIES_BATON];
        let covered = at_largest[SERIES_NODES_COVERED];
        assert!(covered >= 1.0);
        assert!(
            baton <= 2.0 * log_n + covered + 4.0,
            "range cost {baton} exceeds log N + X bound"
        );
        assert!(at_largest[SERIES_MTREE] > 0.0);
    }

    #[test]
    fn chord_is_omitted_by_capability_not_by_name() {
        let profile = Profile::smoke();
        let figure = run(&profile, &standard_overlays());
        assert!(
            !figure.series_names().iter().any(|s| s == SERIES_CHORD),
            "Chord cannot appear in the range-query figure"
        );
    }
}
