//! Figure 8(g): average load-balancing messages per insert/delete, for
//! uniformly distributed data and for skewed (Zipfian 1.0) data.
//!
//! Expected shape (paper §V-D): the overhead is tiny for uniform data and
//! noticeably larger — but still very low — for skewed data (the paper
//! reports roughly one load-balancing message per 1500 insertions).
//!
//! The paper plots BATON alone (the baselines have no balancing), so the
//! driver runs the [`reference_overlay`]
//! through the generic interface; the per-insert balancing cost comes from
//! the [`bulk_load`](baton_workload::runner::bulk_load) runner's aggregate.

use baton_net::SimRng;
use baton_workload::{runner, DatasetPlan, KeyDistribution};

use crate::driver::reference_overlay;
use crate::profile::Profile;
use crate::result::{Averager, FigureResult, SeriesPoint};

/// Series for uniformly distributed data.
pub const SERIES_UNIFORM: &str = "uniform data";
/// Series for Zipf(1.0) skewed data.
pub const SERIES_SKEWED: &str = "skewed data (Zipf 1.0)";

fn measure(profile: &Profile, n: usize, distribution: KeyDistribution) -> f64 {
    let mut avg = Averager::new();
    for rep in 0..profile.repetitions {
        let seed = profile.rep_seed(rep);
        let mut overlay = reference_overlay().build(profile, n, seed);
        let plan = DatasetPlan {
            values_per_node: 1000,
            distribution,
        }
        .scaled(profile.data_scale);
        let mut rng = SimRng::seeded(seed ^ 0xBA1A);
        let data = plan.generate(&mut rng, n);
        let outcome = runner::bulk_load(&mut *overlay, &data).expect("bulk load");
        avg.add_total(outcome.balance_messages as f64, outcome.inserted);
    }
    avg.mean()
}

/// Runs the load-balancing overhead measurement.
pub fn run(profile: &Profile) -> FigureResult {
    let mut figure = FigureResult::new(
        "8g",
        "Average messages of the load balancing operation",
        "nodes",
        "load-balancing messages per insert",
    );
    for &n in &profile.network_sizes {
        figure.points.push(
            SeriesPoint::at(n as f64)
                .set(
                    SERIES_UNIFORM,
                    measure(profile, n, KeyDistribution::Uniform),
                )
                .set(
                    SERIES_SKEWED,
                    measure(profile, n, KeyDistribution::Zipf { theta: 1.0 }),
                ),
        );
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_data_costs_at_least_as_much_balancing_as_uniform() {
        let profile = Profile::smoke();
        let figure = run(&profile);
        for point in &figure.points {
            let uniform = point.values[SERIES_UNIFORM];
            let skewed = point.values[SERIES_SKEWED];
            assert!(uniform >= 0.0);
            assert!(
                skewed + 1e-9 >= uniform,
                "skewed balancing ({skewed}) below uniform ({uniform}) at N = {}",
                point.x
            );
        }
    }
}
