//! Bulk-vs-join equivalence suite: for every overlay that registers a bulk
//! constructor, a bulk-built instance must be *behaviourally* equivalent to
//! a join-built one — same query answers, same delete semantics, same
//! structural invariants — even though the two are not byte-identical
//! (positions and ranges differ).  Extends the `range_oracle` pattern: the
//! same seeded key set is replayed into both instances and every result is
//! pinned against a brute-force sorted-vector oracle.
//!
//! Also covers the zero-message direct data load ([`load_direct`]) that
//! bulk-built scenario runs use: a directly-loaded overlay must answer
//! exactly like one loaded through routed inserts.

use baton_net::SimRng;
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

/// A seeded key set with guaranteed duplicates.
fn seeded_keys() -> Vec<u64> {
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(0xB01D);
    let mut keys = generator.keys(&mut rng, 400);
    let repeats: Vec<u64> = keys.iter().copied().step_by(9).collect();
    keys.extend(repeats);
    keys
}

#[test]
fn bulk_built_overlays_answer_queries_like_join_built_ones() {
    let profile = Profile::smoke();
    let keys = seeded_keys();

    let mut checked = 0;
    for spec in standard_overlays() {
        let mut joined = spec.build(&profile, 40, 77);
        if !spec.supports_bulk() {
            // No bulk path also means no direct data load.
            assert!(
                !joined.load_direct(&[(DOMAIN_LOW, 1)]),
                "{}: direct load without a bulk constructor",
                spec.series
            );
            continue;
        }
        checked += 1;
        let mut bulk = spec.build_bulk(&profile, 40, 77);
        assert_eq!(bulk.node_count(), joined.node_count(), "{}", spec.series);

        let mut oracle = Vec::new();
        for key in &keys {
            joined.insert(*key, *key).expect("join-built insert");
            bulk.insert(*key, *key).expect("bulk-built insert");
            let at = oracle.partition_point(|k| *k <= *key);
            oracle.insert(at, *key);
        }
        assert_eq!(joined.total_items(), oracle.len(), "{}", spec.series);
        assert_eq!(bulk.total_items(), oracle.len(), "{}", spec.series);

        // Exact matches report the key's multiplicity on both instances;
        // absent keys report zero on both.
        for key in keys.iter().step_by(7) {
            let expected = oracle_multiplicity(&oracle, *key);
            assert_eq!(
                joined.search_exact(*key).expect("exact").matches,
                expected,
                "{}: join-built exact {key}",
                spec.series
            );
            assert_eq!(
                bulk.search_exact(*key).expect("exact").matches,
                expected,
                "{}: bulk-built exact {key}",
                spec.series
            );
        }
        for probe in 0..20u64 {
            let key = DOMAIN_LOW + probe * 49_999_333 + 7;
            let expected = oracle_multiplicity(&oracle, key);
            assert_eq!(
                joined.search_exact(key).expect("exact").matches,
                expected,
                "{}: join-built probe {key}",
                spec.series
            );
            assert_eq!(
                bulk.search_exact(key).expect("exact").matches,
                expected,
                "{}: bulk-built probe {key}",
                spec.series
            );
        }

        // Range counts agree with the oracle on both instances (skipped for
        // overlays without range support — Chord hashes away key order).
        if joined.capabilities().range_queries {
            let mut query_rng = SimRng::seeded(0x5EED);
            for case in 0..40 {
                let (low, high) = match case {
                    0 => (DOMAIN_LOW, DOMAIN_HIGH),
                    _ => {
                        let low = query_rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH);
                        let width = query_rng.uniform_u64(1, (DOMAIN_HIGH - DOMAIN_LOW) / 4);
                        (low, (low + width).min(DOMAIN_HIGH))
                    }
                };
                let expected = oracle_count(&oracle, low, high);
                assert_eq!(
                    joined.search_range(low, high).expect("range").matches,
                    expected,
                    "{}: join-built range [{low}, {high})",
                    spec.series
                );
                assert_eq!(
                    bulk.search_range(low, high).expect("range").matches,
                    expected,
                    "{}: bulk-built range [{low}, {high})",
                    spec.series
                );
            }
        }

        // Deletes remove exactly one occurrence on both instances, and the
        // totals stay in lockstep.
        for key in keys.iter().step_by(13) {
            assert_eq!(
                joined.delete(*key).expect("delete").matches,
                1,
                "{}: join-built delete {key}",
                spec.series
            );
            assert_eq!(
                bulk.delete(*key).expect("delete").matches,
                1,
                "{}: bulk-built delete {key}",
                spec.series
            );
            let at = oracle.partition_point(|k| *k < *key);
            oracle.remove(at);
        }
        assert_eq!(joined.total_items(), oracle.len(), "{}", spec.series);
        assert_eq!(bulk.total_items(), oracle.len(), "{}", spec.series);

        joined
            .validate()
            .expect("join-built overlay stays consistent");
        bulk.validate()
            .expect("bulk-built overlay stays consistent");
    }
    assert_eq!(checked, 2, "BATON and Chord register bulk constructors");
}

#[test]
fn direct_load_matches_routed_load_through_the_overlay_interface() {
    let profile = Profile::smoke();
    let data: Vec<(u64, u64)> = seeded_keys()
        .into_iter()
        .enumerate()
        .map(|(i, key)| (key, i as u64))
        .collect();

    let mut checked = 0;
    for spec in standard_overlays() {
        if !spec.supports_bulk() {
            continue;
        }
        checked += 1;
        let mut direct = spec.build_bulk(&profile, 40, 77);
        let mut routed = spec.build_bulk(&profile, 40, 77);
        assert!(
            direct.load_direct(&data),
            "{}: bulk overlay refused a direct load",
            spec.series
        );
        assert_eq!(
            direct.stats().total_sent(),
            0,
            "{}: direct load charged messages",
            spec.series
        );
        for (key, value) in &data {
            routed.insert(*key, *value).expect("routed insert");
        }
        assert_eq!(
            direct.total_items(),
            routed.total_items(),
            "{}",
            spec.series
        );
        for (key, _) in data.iter().step_by(5) {
            assert_eq!(
                direct.search_exact(*key).expect("exact").matches,
                routed.search_exact(*key).expect("exact").matches,
                "{}: exact {key} diverged between direct and routed load",
                spec.series
            );
        }
        direct
            .validate()
            .expect("directly-loaded overlay stays consistent");
        routed
            .validate()
            .expect("routed-loaded overlay stays consistent");
    }
    assert_eq!(checked, 2, "BATON and Chord register bulk constructors");
}
