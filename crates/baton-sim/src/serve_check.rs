//! `reproduce --serve-check` — snapshot-vs-routed answer parity.
//!
//! Builds every overlay it is handed at a small scale, loads it, exports its
//! [`baton_net::RoutingSnapshot`] and checks that a sample of exact and
//! range queries answered **from the snapshot** (the lock-free serve path,
//! zero simulated-network traffic) return exactly the match counts the
//! routed path returns.  The check writes only to its report — a
//! `--serve-check` run's stdout is byte-identical to a run without the
//! flag, so the committed scenario fixtures keep diffing clean while CI
//! asserts the serve path agrees with the engine.
//!
//! Match counts are the contract; hop and message counts are not compared
//! (the snapshot's greedy link walk is an approximation of the protocol
//! route, and the routed side includes locate-phase traffic).

use baton_net::SimRng;
use baton_workload::{KeyDistribution, KeyGenerator, DOMAIN_HIGH, DOMAIN_LOW};
use rand::Rng;

use crate::driver::{load_overlay, OverlaySpec};
use crate::profile::Profile;

/// What one [`run_serve_check`] pass covered.
#[derive(Clone, Debug, Default)]
pub struct ServeCheckReport {
    /// Overlays checked (every registered overlay exports a snapshot).
    pub overlays: usize,
    /// Exact queries compared across all overlays.
    pub exact_checked: u64,
    /// Range queries compared (range-capable overlays only).
    pub range_checked: u64,
}

/// Nodes per overlay for the check build: small enough to be instant,
/// large enough for multi-level routing structure.
const CHECK_NODES: usize = 48;

/// Exact queries per overlay: half drawn from the loaded dataset
/// (guaranteed hits, including duplicate keys), half uniform (mostly
/// misses).
const EXACT_PER_OVERLAY: usize = 200;

/// Range queries per overlay, spans from a point up to a quarter of the
/// domain (plus the edge cases below).
const RANGE_PER_OVERLAY: usize = 60;

/// Runs the parity check over `specs` at the given profile's seed,
/// returning the coverage report or the first mismatch.
pub fn run_serve_check(
    profile: &Profile,
    specs: &[OverlaySpec],
) -> Result<ServeCheckReport, String> {
    let mut report = ServeCheckReport::default();
    for spec in specs {
        let mut overlay = spec.build(profile, CHECK_NODES, profile.seed);
        let data = load_overlay(
            profile,
            &mut *overlay,
            KeyDistribution::Uniform,
            profile.seed,
        );
        let snapshot = overlay
            .routing_snapshot()
            .ok_or_else(|| format!("{}: no routing snapshot exported", spec.series))?;
        let mut rng = SimRng::seeded(profile.seed ^ 0x5E57);
        let generator = KeyGenerator::paper(KeyDistribution::Uniform);
        let mut counters = baton_net::ServeCounters::default();

        for query in 0..EXACT_PER_OVERLAY {
            let key = if query % 2 == 0 && !data.is_empty() {
                data[rng.gen_range(0..data.len())].0
            } else {
                generator.next_key(&mut rng)
            };
            let hint = rng.gen::<u64>();
            let served = snapshot.exact(key, hint, &mut counters);
            let routed = overlay
                .search_exact(key)
                .map_err(|e| format!("{}: routed exact({key}) failed: {e}", spec.series))?;
            if served.matches as usize != routed.matches {
                return Err(format!(
                    "{}: exact({key}) snapshot answered {} matches, engine {}",
                    spec.series, served.matches, routed.matches
                ));
            }
            report.exact_checked += 1;
        }

        if overlay.capabilities().range_queries {
            // Edge spans first: empty, single-point, full-domain, and a
            // span clamped at the domain's top edge.
            let mut ranges: Vec<(u64, u64)> = vec![
                (DOMAIN_LOW, DOMAIN_LOW),
                (DOMAIN_LOW, DOMAIN_HIGH),
                (DOMAIN_HIGH - 5, DOMAIN_HIGH),
                (DOMAIN_HIGH / 2, DOMAIN_HIGH / 2 + 1),
            ];
            while ranges.len() < RANGE_PER_OVERLAY {
                let low = generator.next_key(&mut rng);
                let span = rng.gen_range(0..=(DOMAIN_HIGH - DOMAIN_LOW) / 4);
                ranges.push((low, low.saturating_add(span).min(DOMAIN_HIGH)));
            }
            for (low, high) in ranges {
                let hint = rng.gen::<u64>();
                let served = snapshot.range(low, high, hint, &mut counters);
                let routed = overlay.search_range(low, high).map_err(|e| {
                    format!("{}: routed range({low}, {high}) failed: {e}", spec.series)
                })?;
                if served.matches as usize != routed.matches {
                    return Err(format!(
                        "{}: range({low}, {high}) snapshot answered {} matches, engine {}",
                        spec.series, served.matches, routed.matches
                    ));
                }
                report.range_checked += 1;
            }
        }
        report.overlays += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_check_passes_on_every_overlay() {
        let report =
            run_serve_check(&Profile::smoke(), &crate::standard_overlays()).expect("parity holds");
        assert_eq!(report.overlays, 4);
        assert_eq!(report.exact_checked, 4 * EXACT_PER_OVERLAY as u64);
        // Three range-capable overlays.
        assert_eq!(report.range_checked, 3 * RANGE_PER_OVERLAY as u64);
    }
}
