//! Figure 8(h): distribution of the number of nodes involved in a single
//! load-balancing operation ("size of load balancing process").
//!
//! Expected shape (paper §V-D): strongly decaying — most balancing actions
//! involve only the two nodes exchanging data, and the frequency of longer
//! restructuring shifts falls off roughly exponentially with the shift
//! length.
//!
//! BATON-only (the baselines have no balancing): builds the reference
//! overlay as a concrete [`BatonSystem`](baton_core::BatonSystem)
//! ([`build_baton_system`]), loads it through the generic
//! [`Overlay`](baton_net::Overlay) interface, and reads BATON's own
//! [`balance_shift_histogram`](baton_core::BatonSystem::balance_shift_histogram).

use baton_net::SimRng;
use baton_workload::{runner, DatasetPlan, KeyDistribution};

use crate::driver::build_baton_system;
use crate::profile::Profile;
use crate::result::{FigureResult, SeriesPoint};

/// Series name: fraction of balancing operations of each size.
pub const SERIES_FREQUENCY: &str = "fraction of balancing operations";

/// Runs the shift-size distribution measurement.
pub fn run(profile: &Profile) -> FigureResult {
    let mut figure = FigureResult::new(
        "8h",
        "Size of the load balancing process",
        "nodes involved",
        "fraction of operations",
    );
    let n = *profile.network_sizes.last().expect("profile has sizes");
    let mut histogram = baton_net::Histogram::new();
    for rep in 0..profile.repetitions {
        let seed = profile.rep_seed(rep);
        let mut system = build_baton_system(profile, n, seed);
        let plan = DatasetPlan {
            values_per_node: 1000,
            distribution: KeyDistribution::Zipf { theta: 1.0 },
        }
        .scaled(profile.data_scale);
        let mut rng = SimRng::seeded(seed ^ 0x51FE);
        let data = plan.generate(&mut rng, n);
        runner::bulk_load(&mut system, &data).expect("bulk load");
        histogram.merge(system.balance_shift_histogram());
    }
    if histogram.total() == 0 {
        // No balancing triggered at this scale; report an explicit zero
        // point so the table is never empty.
        figure
            .points
            .push(SeriesPoint::at(0.0).set(SERIES_FREQUENCY, 0.0));
        return figure;
    }
    // Report individual sizes up to TAIL_START, then aggregate the long tail
    // into a single bucket so the table stays readable (the paper's figure
    // is a distribution plot; the tail mass is what matters there).
    const TAIL_START: usize = 16;
    let total = histogram.total() as f64;
    let mut tail = 0u64;
    for (size, count) in histogram.iter() {
        if size <= TAIL_START {
            figure
                .points
                .push(SeriesPoint::at(size as f64).set(SERIES_FREQUENCY, count as f64 / total));
        } else {
            tail += count;
        }
    }
    if tail > 0 {
        figure.points.push(
            SeriesPoint::at((TAIL_START + 1) as f64).set(SERIES_FREQUENCY, tail as f64 / total),
        );
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_sizes_concentrate_on_small_values() {
        // Use a slightly larger data scale so that balancing triggers even
        // in the smoke profile.
        let mut profile = Profile::smoke();
        profile.data_scale = 0.05;
        let figure = run(&profile);
        assert!(!figure.points.is_empty());
        let total: f64 = figure
            .points
            .iter()
            .map(|p| p.values[SERIES_FREQUENCY])
            .sum();
        if total > 0.0 {
            // Frequencies form a distribution…
            assert!((total - 1.0).abs() < 1e-6);
            // …whose mass sits at small shift sizes (2–4 nodes).
            let small_mass: f64 = figure
                .points
                .iter()
                .filter(|p| p.x <= 4.0)
                .map(|p| p.values[SERIES_FREQUENCY])
                .sum();
            assert!(
                small_mass >= 0.5,
                "most balancing operations should involve few nodes (got {small_mass})"
            );
        }
    }
}
