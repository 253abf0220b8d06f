//! # baton-bench — the wall-clock rows `benchmarks/` cannot measure yet
//!
//! The repository's measuring instrument is the stand-alone `benchmarks/`
//! package (`BENCHMARK.json`).  This crate keeps two binaries beside it:
//! `perf` writes the cost-curve, scale and route-anatomy rows of
//! `BENCH_perf.json` ([`perf`]), and `serve-bench` prints the thread-count
//! invariant counters of the snapshot read path that CI diffs.

use baton_sim::Profile;

pub mod perf;

/// Seed of every overlay, dataset and schedule the two binaries draw.
pub const SEED: u64 = 2005;

/// A one-size experiment profile at the harness seed.
pub fn sim_profile(n: usize, repetitions: usize, data_scale: f64, query_scale: f64) -> Profile {
    Profile {
        network_sizes: vec![n],
        repetitions,
        data_scale,
        query_scale,
        churn_ops: 0,
        seed: SEED,
    }
}
