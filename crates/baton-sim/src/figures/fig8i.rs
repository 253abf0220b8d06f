//! Figure 8(i): effect of network dynamics — extra messages caused by
//! concurrent joins and leaves.
//!
//! The paper observes that while a join or departure is being absorbed, the
//! knowledge held by other nodes is briefly stale and messages can be
//! "forwarded to wrong destinations", costing extra hops; the more
//! operations are in flight concurrently, the more extra messages are paid.
//!
//! ### Model
//!
//! The simulator executes every operation atomically against overlay state
//! (see `baton_net::network`), so no link is ever stale when the next
//! operation routes and this figure is **computed, not observed**:
//! during a batch of `c` concurrent joins and leaves over an `N`-node
//! overlay, a routing hop taken by any of those operations encounters a
//! stale link with probability `(c − 1) / (2 N)` — the expected fraction of
//! links modified by the other in-flight operations and not yet repaired —
//! and every stale encounter costs two extra messages (the bounced message
//! plus the detour through a neighbour of the parent, §III-D).  The figure
//! reports the *expected* extra messages per operation, measured over the
//! actual hop counts of the batch.
//!
//! The paper plots BATON alone; the batch itself runs through the generic
//! [`run_churn`](baton_workload::runner::run_churn) runner.

use baton_workload::{runner, ChurnEvent};

use crate::driver::reference_overlay;
use crate::figures::SERIES_BATON;
use crate::profile::Profile;
use crate::result::{Averager, FigureResult, SeriesPoint};

/// Concurrency levels (number of simultaneous joins + leaves) evaluated.
pub fn concurrency_levels() -> Vec<usize> {
    vec![2, 4, 8, 16, 32, 64]
}

/// Runs the network-dynamics measurement.
pub fn run(profile: &Profile) -> FigureResult {
    let mut figure = FigureResult::new(
        "8i",
        "Effect of network dynamics (concurrent joins / leaves)",
        "concurrent operations",
        "extra messages per operation",
    );
    let n = *profile.network_sizes.last().expect("profile has sizes");

    for c in concurrency_levels() {
        let mut extra = Averager::new();
        for rep in 0..profile.repetitions {
            let seed = profile.rep_seed(rep);
            let mut overlay = reference_overlay().build(profile, n, seed);
            let batch = baton_workload::ConcurrentChurnBatch::of_intensity(c);
            let stale_probability = (c.saturating_sub(1)) as f64 / (2.0 * n as f64);
            // Perform the batch; every hop of every operation may hit a
            // stale link left behind by the other in-flight operations.
            let events: Vec<ChurnEvent> = std::iter::repeat_n(ChurnEvent::Join, batch.joins)
                .chain(std::iter::repeat_n(ChurnEvent::Leave, batch.leaves))
                .collect();
            let outcome = runner::run_churn(&mut *overlay, &events, 2).expect("churn batch");
            let total_hops = outcome.locate_messages + outcome.update_messages;
            let ops = outcome.executed();
            let expected_extra = total_hops as f64 * stale_probability * 2.0;
            extra.add(expected_extra / ops.max(1) as f64);
        }
        figure
            .points
            .push(SeriesPoint::at(c as f64).set(SERIES_BATON, extra.mean()));
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_messages_grow_with_concurrency() {
        let profile = Profile::smoke();
        let figure = run(&profile);
        let levels = concurrency_levels();
        assert_eq!(figure.points.len(), levels.len());
        let first = figure.points[0].values[SERIES_BATON];
        let last = figure.points.last().unwrap().values[SERIES_BATON];
        assert!(
            last > first,
            "extra messages should grow with concurrency ({first} vs {last})"
        );
        assert!(first >= 0.0);
    }
}
