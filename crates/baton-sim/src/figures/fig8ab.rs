//! Figures 8(a) and 8(b): cost of join and leave operations.
//!
//! * **8(a)** — average messages to find the node that accepts a join and to
//!   find the replacement node for a departure, versus network size, for
//!   every overlay in the comparison.
//! * **8(b)** — average messages to update routing tables after a join or a
//!   departure, versus network size, for the same systems.
//!
//! Expected shape (paper §V-A): BATON's locate cost is nearly flat and well
//! below `log N`; Chord's grows with `log N`; the multiway tree is the most
//! expensive overall.  For table updates BATON needs `O(log N)` messages,
//! clearly below Chord's `O(log² N)`, while the multiway tree — which keeps
//! almost no routing state — is the cheapest.

use crate::driver::OverlaySpec;
use crate::profile::Profile;
use crate::result::{Averager, FigureResult, SeriesPoint};

/// Runs the churn-cost measurement and returns `(figure_8a, figure_8b)`.
pub fn run(profile: &Profile, specs: &[OverlaySpec]) -> (FigureResult, FigureResult) {
    let mut fig_a = FigureResult::new(
        "8a",
        "Finding the join node and the replacement node",
        "nodes",
        "messages per operation",
    );
    let mut fig_b = FigureResult::new(
        "8b",
        "Updating routing tables on join and leave",
        "nodes",
        "messages per operation",
    );
    for &n in &profile.network_sizes {
        let mut locate = vec![Averager::new(); specs.len()];
        let mut update = vec![Averager::new(); specs.len()];
        for rep in 0..profile.repetitions {
            let seed = profile.rep_seed(rep);
            for (i, spec) in specs.iter().enumerate() {
                let mut overlay = spec.build(profile, n, seed);
                for _ in 0..profile.churn_ops {
                    let join = overlay.join_random().expect("join");
                    locate[i].add(join.locate_messages as f64);
                    update[i].add(join.update_messages as f64);
                    let leave = overlay.leave_random().expect("leave");
                    locate[i].add(leave.locate_messages as f64);
                    update[i].add(leave.update_messages as f64);
                }
            }
        }
        let mut point_a = SeriesPoint::at(n as f64);
        let mut point_b = SeriesPoint::at(n as f64);
        for (i, spec) in specs.iter().enumerate() {
            point_a = point_a.set(spec.series, locate[i].mean());
            point_b = point_b.set(spec.series, update[i].mean());
        }
        fig_a.points.push(point_a);
        fig_b.points.push(point_b);
    }
    (fig_a, fig_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::standard_overlays;
    use crate::figures::{SERIES_BATON, SERIES_CHORD, SERIES_MTREE};

    #[test]
    fn churn_costs_have_the_papers_shape() {
        let profile = Profile::smoke();
        let (a, b) = run(&profile, &standard_overlays());
        assert_eq!(a.points.len(), profile.network_sizes.len());
        assert_eq!(b.points.len(), profile.network_sizes.len());
        let largest = *profile.network_sizes.last().unwrap() as f64;
        let log_n = largest.log2();
        // 8(a): BATON locates a join/replacement spot in well under log N.
        let (a, b) = (
            &a.points.last().unwrap().values,
            &b.points.last().unwrap().values,
        );
        let baton_locate = a[SERIES_BATON];
        assert!(baton_locate > 0.0 && baton_locate < 2.0 * log_n);
        // 8(b): BATON's table update is cheaper than Chord's.
        let baton_update = b[SERIES_BATON];
        let chord_update = b[SERIES_CHORD];
        assert!(
            baton_update < chord_update,
            "BATON table update ({baton_update:.1}) should be below Chord ({chord_update:.1})"
        );
        // The multiway tree keeps almost no routing state: cheapest updates.
        let mtree_update = b[SERIES_MTREE];
        assert!(mtree_update < baton_update);
    }
}
