//! Cross-overlay query oracle: the same seeded key set is replayed into
//! every range-capable overlay (BATON, the multiway tree, the D3-Tree), and
//! each overlay's results are checked against a brute-force sorted-vector
//! oracle — exact counts, not shapes:
//!
//! * every seeded range query returns exactly the oracle's count, and an
//!   empty one — inverted, or clamped away by the domain — answers zero
//!   matches for zero messages;
//! * exact-match queries return the key's exact multiplicity (and zero for
//!   absent keys), which together with the range counts pins membership;
//! * deletes remove exactly one occurrence and the oracle tracks it.
//!
//! A second test exercises the D3-Tree's balance invariants (`validate()`
//! checks the weight counters, the partition and the deterministic
//! balancer's rest invariant) through heavy churn, including backbone
//! extensions and contractions.

use baton_d3tree::D3TreeSystem;
use baton_net::{Overlay, SimRng};
use baton_sim::{standard_overlays, Profile};
use baton_workload::{KeyDistribution, KeyGenerator, DOMAIN_HIGH, DOMAIN_LOW};

/// Number of stored keys in `[low, high)` according to the sorted oracle.
fn oracle_count(oracle: &[u64], low: u64, high: u64) -> usize {
    oracle.partition_point(|k| *k < high) - oracle.partition_point(|k| *k < low)
}

/// Multiplicity of `key` according to the sorted oracle.
fn oracle_multiplicity(oracle: &[u64], key: u64) -> usize {
    oracle_count(oracle, key, key + 1)
}

#[test]
fn range_and_exact_results_match_a_sorted_vector_oracle() {
    let profile = Profile::smoke();
    // A seeded key set with guaranteed duplicates: uniform draws plus every
    // 7th key repeated.
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(0x0AC1E);
    let mut keys = generator.keys(&mut rng, 500);
    let repeats: Vec<u64> = keys.iter().copied().step_by(7).collect();
    keys.extend(repeats);

    let mut checked = 0;
    for spec in standard_overlays() {
        let mut overlay = spec.build(&profile, 40, 77);
        if !overlay.capabilities().range_queries {
            continue;
        }
        checked += 1;
        let mut oracle = Vec::new();
        for key in &keys {
            overlay.insert(*key, *key).expect("insert");
            let at = oracle.partition_point(|k| *k <= *key);
            oracle.insert(at, *key);
        }
        assert_eq!(overlay.total_items(), oracle.len(), "{}", spec.series);

        // Seeded ranges of every width, including degenerate and
        // domain-spanning ones.
        let mut query_rng = SimRng::seeded(0x5EED);
        for case in 0..60 {
            let (low, high) = match case {
                0 => (DOMAIN_LOW, DOMAIN_HIGH),
                1 => (oracle[0], oracle[0] + 1),
                _ => {
                    let low = query_rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH);
                    let width = query_rng.uniform_u64(1, (DOMAIN_HIGH - DOMAIN_LOW) / 4);
                    (low, (low + width).min(DOMAIN_HIGH))
                }
            };
            let cost = overlay.search_range(low, high).expect("range");
            assert_eq!(
                cost.matches,
                oracle_count(&oracle, low, high),
                "{}: range [{low}, {high}) diverged from the oracle",
                spec.series
            );
        }
        // Empty after clamping to the domain: inverted, a point, and wholly
        // above the domain.
        for (low, high) in [(10, 5), (5, 5), (1_000_000_010, 1_000_000_020)] {
            let cost = overlay.search_range(low, high).expect("empty range");
            assert_eq!(
                (cost.matches, cost.messages),
                (0, 0),
                "{}: empty range [{low}, {high})",
                spec.series
            );
        }

        // Exact matches report the key's multiplicity; absent keys report
        // zero.
        for key in keys.iter().step_by(11) {
            let hit = overlay.search_exact(*key).expect("exact");
            assert_eq!(
                hit.matches,
                oracle_multiplicity(&oracle, *key),
                "{}: exact {key} diverged",
                spec.series
            );
        }
        for probe in 0..20u64 {
            let key = DOMAIN_LOW + probe * 49_999_333 + 7;
            let expected = oracle_multiplicity(&oracle, key);
            let hit = overlay.search_exact(key).expect("exact");
            assert_eq!(hit.matches, expected, "{}: probe {key}", spec.series);
        }

        // Deletes remove exactly one occurrence.
        for key in keys.iter().step_by(13) {
            let removed = overlay.delete(*key).expect("delete");
            assert_eq!(removed.matches, 1, "{}: delete {key}", spec.series);
            let at = oracle.partition_point(|k| *k < *key);
            oracle.remove(at);
        }
        let total = overlay
            .search_range(DOMAIN_LOW, DOMAIN_HIGH)
            .expect("sweep");
        assert_eq!(
            total.matches,
            oracle.len(),
            "{}: post-delete sweep",
            spec.series
        );
        overlay.validate().expect("overlay stays consistent");
    }
    assert_eq!(checked, 3, "BATON, the multiway tree and the D3-Tree");
}

#[test]
fn d3tree_balance_invariants_survive_growth_churn_and_shrink() {
    let mut system = D3TreeSystem::build(0xD37EE, 8).unwrap();
    let mut inserted = 0u64;

    // Growth phase: join-heavy churn with inserts — the backbone must
    // extend at least once and stay valid (weights, partition, rest
    // invariant of the deterministic balancer) after every event.
    let start_height = system.height();
    for round in 0..400 {
        if round % 5 == 4 && system.node_count() > 4 {
            system.leave_random().unwrap();
        } else {
            system.join_random().unwrap();
        }
        if round % 3 == 0 {
            system
                .insert(1 + (round as u64 * 7_919_993) % 999_999_998, 0)
                .unwrap();
            inserted += 1;
        }
        system
            .validate()
            .unwrap_or_else(|e| panic!("growth round {round}: {e}"));
    }
    assert!(
        system.height() > start_height,
        "400 joins never extended the backbone"
    );
    assert_eq!(system.total_items() as u64, inserted);

    // Shrink phase: leave/fail-heavy churn — the backbone must contract
    // and bucket-local repair must keep every bucket populated.
    let peak_height = system.height();
    let mut lost = 0usize;
    while system.node_count() > 6 {
        if system.node_count().is_multiple_of(7) {
            lost += system.fail_random().unwrap().lost_items;
        } else {
            system.leave_random().unwrap();
        }
        system
            .validate()
            .unwrap_or_else(|e| panic!("shrink at n = {}: {e}", system.node_count()));
    }
    assert!(
        system.height() < peak_height,
        "shrinking to 6 peers never contracted the backbone"
    );
    assert_eq!(system.total_items() + lost, inserted as usize);
}
