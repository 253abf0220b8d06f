//! # baton-bench — the wall-clock harness
//!
//! Two binaries over one library: `perf` times the simulator's hot paths
//! and emits `BENCH_perf.json` ([`perf`]), `serve-bench` drives the
//! lock-free snapshot read path ([`serve`]).  The helpers below build the
//! overlays both measure.

use baton_chord::ChordSystem;
use baton_core::{BatonConfig, BatonSystem, LoadBalanceConfig};
use baton_d3tree::D3TreeSystem;
use baton_mtree::MTreeSystem;

pub mod perf;
pub mod serve;

/// Builds a BATON overlay of `n` nodes with load balancing sized for
/// `avg_load` items per node.
pub fn baton_overlay(n: usize, seed: u64, avg_load: usize) -> BatonSystem {
    let config = BatonConfig::default()
        .with_load_balance(LoadBalanceConfig::for_average_load(avg_load.max(4)));
    BatonSystem::build(config, seed, n).expect("overlay build")
}

/// Bulk-builds a BATON overlay of `n` nodes via the direct constructor —
/// same config as [`baton_overlay`], no join protocol, zero messages.  Used
/// by the perf harness's scale rows so construction cost does not swamp the
/// per-operation cost being measured.
pub fn baton_overlay_bulk(n: usize, seed: u64, avg_load: usize) -> BatonSystem {
    let config = BatonConfig::default()
        .with_load_balance(LoadBalanceConfig::for_average_load(avg_load.max(4)));
    BatonSystem::bulk_build(config, seed, n).expect("overlay bulk build")
}

/// Builds a D3-Tree overlay of `n` nodes, for the perf harness's baseline
/// build/query timings.
pub fn d3tree_overlay(n: usize, seed: u64) -> D3TreeSystem {
    D3TreeSystem::build(seed, n).expect("overlay build")
}

/// Builds a Chord ring of `n` nodes, for the perf harness's bytes-per-peer
/// accounting.
pub fn chord_overlay(n: usize, seed: u64) -> ChordSystem {
    ChordSystem::build(seed, n).expect("overlay build")
}

/// Builds a multiway-tree overlay of `n` nodes, for the perf harness's
/// bytes-per-peer accounting.
pub fn mtree_overlay(n: usize, seed: u64) -> MTreeSystem {
    MTreeSystem::build(seed, n).expect("overlay build")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_small_overlays() {
        let overlay = baton_overlay(12, 3, 10);
        assert_eq!(overlay.node_count(), 12);
        baton_core::validate(&overlay).unwrap();
    }

    #[test]
    fn bulk_helper_builds_a_valid_overlay() {
        let overlay = baton_overlay_bulk(12, 3, 10);
        assert_eq!(overlay.node_count(), 12);
        baton_core::validate(&overlay).unwrap();
    }
}
