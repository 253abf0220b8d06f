//! Figure 8(c): cost of insert and delete operations versus network size.
//!
//! Expected shape (paper §V-B): both BATON and Chord stay close to
//! `O(log N)`; BATON is slightly above Chord (the balanced tree's height can
//! reach `1.44 log N`); the multiway tree costs noticeably more.

use baton_net::SimRng;
use baton_workload::{KeyDistribution, KeyGenerator};

use crate::driver::{load_overlay, OverlaySpec};
use crate::profile::Profile;
use crate::result::{Averager, FigureResult, SeriesPoint};

/// Runs the insert/delete cost measurement.
pub fn run(profile: &Profile, specs: &[OverlaySpec]) -> FigureResult {
    let mut figure = FigureResult::new(
        "8c",
        "Insert and delete operations",
        "nodes",
        "messages per operation",
    );
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    for &n in &profile.network_sizes {
        let ops = profile.query_count();
        let mut averages = vec![Averager::new(); specs.len()];
        for rep in 0..profile.repetitions {
            let seed = profile.rep_seed(rep);
            // One key stream per repetition, identical for every system.
            let mut rng = SimRng::seeded(seed ^ 0xC0DE);
            let keys: Vec<u64> = (0..ops).map(|_| generator.next_key(&mut rng)).collect();

            for (i, spec) in specs.iter().enumerate() {
                let mut overlay = spec.build(profile, n, seed);
                load_overlay(profile, &mut *overlay, KeyDistribution::Uniform, seed);
                for (j, key) in keys.iter().enumerate() {
                    let insert = overlay.insert(*key, j as u64).expect("insert");
                    averages[i].add(insert.messages as f64);
                    let delete = overlay.delete(*key).expect("delete");
                    averages[i].add(delete.messages as f64);
                }
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
    fn insert_delete_costs_are_logarithmic_and_ordered() {
        let profile = Profile::smoke();
        let figure = run(&profile, &standard_overlays());
        let largest = *profile.network_sizes.last().unwrap() as f64;
        let log_n = largest.log2();
        let at_largest = &figure.points.last().unwrap().values;
        let (baton, mtree) = (at_largest[SERIES_BATON], at_largest[SERIES_MTREE]);
        assert!(baton > 0.0 && baton <= 2.0 * log_n + 4.0);
        // The multiway tree (no sideways shortcuts) costs more than BATON.
        assert!(mtree > baton);
    }
}
