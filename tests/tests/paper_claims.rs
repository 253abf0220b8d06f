//! Cross-crate checks of the paper's headline claims, at test scale:
//!
//! * exact and range queries cost `O(log N)` / `O(log N + X)` messages;
//! * joins and departures update routing tables in `O(log N)` messages,
//!   cheaper than Chord's `O(log² N)`;
//! * the tree stays height-balanced (≤ 1.44 log₂ N + 1) and an exact query
//!   costs at most log₂ N messages on average, from N = 10 to 10,000;
//! * the root is not an access hotspot;
//! * Chord cannot answer range queries, BATON and the multiway tree can.

use baton_chord::ChordSystem;
use baton_core::{BatonConfig, BatonSystem, KeyRange};
use baton_mtree::MTreeSystem;
use baton_net::{Overlay, OverlayError, SimRng};
use baton_workload::{KeyDistribution, KeyGenerator};

const N: usize = 400;

fn baton(seed: u64) -> BatonSystem {
    BatonSystem::build(BatonConfig::default(), seed, N).unwrap()
}

#[test]
fn exact_queries_are_logarithmic() {
    let mut overlay = baton(1);
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(1);
    let log_n = (N as f64).log2();
    let mut total = 0u64;
    let queries = 300;
    for _ in 0..queries {
        let report = overlay.search_exact(generator.next_key(&mut rng)).unwrap();
        total += report.messages;
    }
    let avg = total as f64 / queries as f64;
    assert!(
        avg <= 1.5 * log_n,
        "average exact-query cost {avg:.1} exceeds 1.5·log2 N = {:.1}",
        1.5 * log_n
    );
}

#[test]
fn range_queries_cost_log_n_plus_coverage() {
    let mut overlay = baton(2);
    let log_n = (N as f64).log2();
    for i in 0..50u64 {
        let low = 1 + i * 19_000_000;
        let report = overlay
            .search_range(KeyRange::new(low, low + 5_000_000))
            .unwrap();
        assert!(
            (report.messages as f64) <= 2.0 * log_n + report.nodes_visited as f64 + 4.0,
            "range query cost {} with {} nodes covered",
            report.messages,
            report.nodes_visited
        );
    }
}

#[test]
fn baton_updates_tables_cheaper_than_chord() {
    let mut overlay = baton(3);
    let mut chord = ChordSystem::build(3, N).unwrap();
    let rounds = 40;
    let mut baton_updates = 0u64;
    let mut chord_updates = 0u64;
    for _ in 0..rounds {
        baton_updates += overlay.join_random().unwrap().update_messages;
        baton_updates += overlay.leave_random().unwrap().update_messages;
        chord_updates += chord.join_random().unwrap().update_messages;
        chord_updates += chord.leave_random().unwrap().update_messages;
    }
    let baton_avg = baton_updates as f64 / (2 * rounds) as f64;
    let chord_avg = chord_updates as f64 / (2 * rounds) as f64;
    assert!(
        baton_avg < chord_avg,
        "BATON table maintenance ({baton_avg:.1}) should undercut Chord ({chord_avg:.1})"
    );
    // And BATON's stays O(log N): generously below 10·log2 N.
    assert!(baton_avg <= 10.0 * (N as f64).log2());
}

/// Both constructions at N = 10, 100, 1,000 and 10,000: the height stays
/// within `1.44·log₂N + 1` (the AVL bound BATON inherits, §III) and an
/// exact query from a random peer costs at most `log₂N` messages on
/// average (§IV-A).
#[test]
fn paper_bounds_hold_at_every_size() {
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    for build in ["join-built", "bulk-built"] {
        for n in [10usize, 100, 1_000, 10_000] {
            let mut overlay = if build == "join-built" {
                BatonSystem::build(BatonConfig::default(), 11, n).unwrap()
            } else {
                BatonSystem::bulk_build(BatonConfig::default(), 11, n).unwrap()
            };
            let log_n = (n as f64).log2();
            let height = overlay.height() as f64;
            let bound = 1.44 * log_n + 1.0;
            assert!(
                height <= bound,
                "{build} N={n}: height {height} exceeds 1.44·log2 N + 1 = {bound:.1}"
            );
            let mut rng = SimRng::seeded(n as u64);
            let queries = 500;
            let mut messages = 0u64;
            for _ in 0..queries {
                messages += overlay
                    .search_exact(generator.next_key(&mut rng))
                    .unwrap()
                    .messages;
            }
            let mean = messages as f64 / queries as f64;
            assert!(
                mean <= log_n,
                "{build} N={n}: mean exact-query cost {mean:.2} exceeds log2 N = {log_n:.2}"
            );
        }
    }
}

#[test]
fn the_root_is_not_an_access_hotspot() {
    let mut overlay = baton(5);
    overlay.stats_mut().reset_received_counters();
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(5);
    for i in 0..2_000u64 {
        let key = generator.next_key(&mut rng);
        if i % 2 == 0 {
            overlay.insert(key, i).unwrap();
        } else {
            overlay.search_exact(key).unwrap();
        }
    }
    let by_level = overlay.access_load_by_level();
    assert!(by_level.len() >= 3);
    let root_load = by_level.first().map(|(_, v)| *v).unwrap_or(0.0);
    let max_load = by_level.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    // The paper's claim: the root does not receive disproportionate load.
    assert!(
        root_load <= max_load * 1.5,
        "root load {root_load:.1} dominates the per-level maximum {max_load:.1}"
    );
}

#[test]
fn only_the_ordered_overlays_answer_range_queries() {
    let mut overlay = baton(6);
    let mut chord = ChordSystem::build(6, 100).unwrap();
    let mut mtree = MTreeSystem::build(6, 100).unwrap();
    overlay.insert(500_000_000, 1).unwrap();
    let b = overlay
        .search_range(KeyRange::new(400_000_000, 600_000_000))
        .unwrap();
    assert_eq!(b.matches.len(), 1);
    assert!(matches!(
        chord.search_range(400_000_000, 600_000_000),
        Err(OverlayError::Unsupported(_))
    ));
    assert!(mtree.search_range(400_000_000, 600_000_000).is_ok());
}

#[test]
fn join_locate_cost_stays_nearly_flat() {
    // Paper §V-A: the join/leave locate cost grows very slowly with N.
    let mut small = BatonSystem::build(BatonConfig::default(), 7, 100).unwrap();
    let mut large = BatonSystem::build(BatonConfig::default(), 7, 800).unwrap();
    let measure = |overlay: &mut BatonSystem| {
        let mut total = 0u64;
        for _ in 0..30 {
            total += overlay.join_random().unwrap().locate_messages;
        }
        total as f64 / 30.0
    };
    let cost_small = measure(&mut small);
    let cost_large = measure(&mut large);
    // An 8× larger network may cost a bit more, but nowhere near 8× — and it
    // must stay well under log2 N.
    assert!(cost_large <= cost_small * 3.0 + 3.0);
    assert!(cost_large <= (800f64).log2());
}
