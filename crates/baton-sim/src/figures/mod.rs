//! One driver per figure of the paper's evaluation (Figure 8(a)–(i)).
//!
//! Every driver takes a [`Profile`] and returns a
//! [`FigureResult`] containing the same series
//! the paper plots.  All drivers are **generic over
//! [`Overlay`](baton_net::Overlay)**: they loop over the
//! [`OverlaySpec`]s they are handed (the
//! BATON-only figures build the
//! [`reference_overlay`](crate::driver::reference_overlay) instead and take
//! no list) and never dispatch on a concrete system type, so a new baseline
//! appears in every figure by adding one spec.

pub mod fig8ab;
pub mod fig8c;
pub mod fig8d;
pub mod fig8e;
pub mod fig8f;
pub mod fig8g;
pub mod fig8h;
pub mod fig8i;

use crate::driver::OverlaySpec;
use crate::profile::Profile;
use crate::result::FigureResult;

/// Series name used for BATON measurements.
pub const SERIES_BATON: &str = "BATON";
/// Series name used for Chord measurements.
pub const SERIES_CHORD: &str = "Chord";
/// Series name used for the multiway-tree measurements.
pub const SERIES_MTREE: &str = "Multiway tree";
/// Series name used for the D3-Tree measurements.
pub const SERIES_D3TREE: &str = "D3-Tree";

/// Runs every figure of the paper at the given profile, in order: the
/// comparison figures 8(a)–(e) over `specs`, figures 8(f)–(i) over BATON
/// alone.
pub fn run_all(profile: &Profile, specs: &[OverlaySpec]) -> Vec<FigureResult> {
    let (a, b) = fig8ab::run(profile, specs);
    vec![
        a,
        b,
        fig8c::run(profile, specs),
        fig8d::run(profile, specs),
        fig8e::run(profile, specs),
        fig8f::run(profile),
        fig8g::run(profile),
        fig8h::run(profile),
        fig8i::run(profile),
    ]
}

/// Runs a single figure by identifier (`"8a"`, `"8b"`, … `"8i"`), over
/// `specs` where the figure is a comparison.
///
/// Returns `None` for an unknown identifier.
pub fn run_figure(id: &str, profile: &Profile, specs: &[OverlaySpec]) -> Option<FigureResult> {
    match id.to_ascii_lowercase().as_str() {
        "8a" | "a" => Some(fig8ab::run(profile, specs).0),
        "8b" | "b" => Some(fig8ab::run(profile, specs).1),
        "8c" | "c" => Some(fig8c::run(profile, specs)),
        "8d" | "d" => Some(fig8d::run(profile, specs)),
        "8e" | "e" => Some(fig8e::run(profile, specs)),
        "8f" | "f" => Some(fig8f::run(profile)),
        "8g" | "g" => Some(fig8g::run(profile)),
        "8h" | "h" => Some(fig8h::run(profile)),
        "8i" | "i" => Some(fig8i::run(profile)),
        _ => None,
    }
}

/// Identifiers of every figure, in paper order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec!["8a", "8b", "8c", "8d", "8e", "8f", "8g", "8h", "8i"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{load_overlay, standard_overlays};
    use baton_workload::KeyDistribution;

    #[test]
    fn run_figure_rejects_unknown_ids() {
        let profile = Profile::smoke();
        assert!(run_figure("9z", &profile, &standard_overlays()).is_none());
    }

    #[test]
    fn every_standard_overlay_builds_and_loads() {
        let profile = Profile::smoke();
        for spec in standard_overlays() {
            let mut overlay = spec.build(&profile, 20, 1);
            assert_eq!(overlay.node_count(), 20);
            let data = load_overlay(&profile, &mut *overlay, KeyDistribution::Uniform, 1);
            assert_eq!(overlay.total_items(), data.len());
            overlay.validate().unwrap();
        }
    }
}
