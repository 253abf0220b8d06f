//! Snapshot-vs-routed oracle: every answer the lock-free serve path gives
//! must agree with the routed engine it snapshots.
//!
//! * On every overlay (each exports a [`RoutingSnapshot`]), seeded exact
//!   queries (hits, duplicates and guaranteed misses) and — where ranges
//!   are supported — seeded range queries (empty, single-key, top-edge,
//!   domain-spanning and random spans) return the same match counts through
//!   `RoutingSnapshot::{exact,range}` as through
//!   `Overlay::{search_exact,search_range}`.
//! * Under churn with a mid-stream [`SnapshotCell`] swap, a reader that has
//!   not refreshed keeps answering from its own consistent version — every
//!   stale answer equals the pre-churn routed answer, never a mix — while a
//!   refreshed reader agrees with the post-churn overlay.

use std::sync::Arc;

use baton_net::serve::ServeCounters;
use baton_net::{SimRng, SnapshotCell, SnapshotReader};
use baton_sim::{standard_overlays, Profile};
use baton_workload::{KeyDistribution, KeyGenerator, DOMAIN_HIGH, DOMAIN_LOW};

/// Exact-match count through the snapshot path.
fn snapshot_exact(snapshot: &baton_net::RoutingSnapshot, key: u64, hint: u64) -> u64 {
    let mut counters = ServeCounters::default();
    snapshot.exact(key, hint, &mut counters).matches
}

/// Range count through the snapshot path.
fn snapshot_range(snapshot: &baton_net::RoutingSnapshot, low: u64, high: u64, hint: u64) -> u64 {
    let mut counters = ServeCounters::default();
    snapshot.range(low, high, hint, &mut counters).matches
}

#[test]
fn snapshot_answers_agree_with_the_routed_engine_on_every_overlay() {
    let profile = Profile::smoke();
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(0x5E4E_0AC1);
    let mut keys = generator.keys(&mut rng, 400);
    // Guaranteed duplicates so multiplicity (not just membership) is pinned.
    let repeats: Vec<u64> = keys.iter().copied().step_by(9).collect();
    keys.extend(repeats);

    let mut ranged = 0;
    for spec in standard_overlays() {
        let mut overlay = spec.build(&profile, 40, 2005);
        for key in &keys {
            overlay.insert(*key, *key).expect("insert");
        }
        let snapshot = overlay.routing_snapshot().expect("every overlay exports");

        // Exact: loaded keys (multiplicity included) and never-inserted
        // probes, each from a seeded start hint.
        let mut hint_rng = SimRng::seeded(0x417);
        for key in keys.iter().step_by(7) {
            let routed = overlay.search_exact(*key).expect("routed exact").matches;
            let served = snapshot_exact(&snapshot, *key, hint_rng.uniform_u64(0, u64::MAX));
            assert_eq!(
                served, routed as u64,
                "{}: exact {key} served {served}, routed {routed}",
                spec.series
            );
        }
        for probe in 0..25u64 {
            let key = DOMAIN_LOW + probe * 39_999_331 + 3;
            let routed = overlay.search_exact(key).expect("routed exact").matches;
            let served = snapshot_exact(&snapshot, key, hint_rng.uniform_u64(0, u64::MAX));
            assert_eq!(served, routed as u64, "{}: probe {key}", spec.series);
        }

        if !snapshot.range_supported() {
            // A ring snapshot must reject ranges, not misanswer them.
            let mut counters = ServeCounters::default();
            let answer = snapshot.range(DOMAIN_LOW, DOMAIN_HIGH, 0, &mut counters);
            assert_eq!(answer.matches, 0, "{}: rejected range matched", spec.series);
            assert_eq!(counters.rejected, 1, "{}: range not rejected", spec.series);
            continue;
        }
        ranged += 1;

        // Ranges: empty, single-key, top-edge, domain-spanning, and seeded
        // random spans.
        let mut query_rng = SimRng::seeded(0x5EED_2005);
        for case in 0..52 {
            let (low, high) = match case {
                0 => (DOMAIN_LOW, DOMAIN_HIGH),
                1 => (keys[0], keys[0] + 1),
                2 => (DOMAIN_HIGH - 1, DOMAIN_HIGH),
                3 => (DOMAIN_LOW, DOMAIN_LOW + 1),
                4 => (DOMAIN_LOW, DOMAIN_LOW),
                5 => (DOMAIN_HIGH - 5, DOMAIN_HIGH),
                _ => {
                    let low = query_rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH);
                    let width = query_rng.uniform_u64(1, (DOMAIN_HIGH - DOMAIN_LOW) / 4);
                    (low, (low + width).min(DOMAIN_HIGH))
                }
            };
            let routed = overlay
                .search_range(low, high)
                .expect("routed range")
                .matches;
            let served = snapshot_range(&snapshot, low, high, query_rng.uniform_u64(0, u64::MAX));
            assert_eq!(
                served, routed as u64,
                "{}: range [{low}, {high}) served {served}, routed {routed}",
                spec.series
            );
        }
    }
    assert_eq!(ranged, 3, "BATON, the multiway tree and the D3-Tree");
}

#[test]
fn stale_reader_answers_from_its_own_version_across_a_mid_stream_swap() {
    let profile = Profile::smoke();
    let spec = standard_overlays()
        .into_iter()
        .find(|spec| spec.series == "BATON")
        .expect("BATON registered");
    let mut overlay = spec.build(&profile, 30, 7);
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(0xC0FFEE);
    let keys = generator.keys(&mut rng, 300);
    for key in &keys {
        overlay.insert(*key, *key).expect("insert");
    }

    // Version 1 published; both readers observe it.
    let cell = Arc::new(SnapshotCell::new(
        overlay.routing_snapshot().expect("snapshot"),
    ));
    let v1 = cell.version();
    let mut stale = SnapshotReader::new(Arc::clone(&cell));
    let mut fresh = SnapshotReader::new(Arc::clone(&cell));
    stale.refresh();
    fresh.refresh();

    // The pre-churn routed truth for a probe set mixing hits and misses.
    let probes: Vec<u64> = keys
        .iter()
        .copied()
        .step_by(5)
        .chain((0..20u64).map(|i| DOMAIN_LOW + i * 47_777_123 + 11))
        .collect();
    let before: Vec<usize> = probes
        .iter()
        .map(|key| overlay.search_exact(*key).expect("routed").matches)
        .collect();

    // Mid-stream structural churn: joins plus fresh inserts, then a swap.
    for round in 0..10 {
        overlay.join_random().expect("join");
        overlay
            .insert(DOMAIN_LOW + 1 + round * 31_337_111, 0)
            .expect("insert");
    }
    let v2 = cell.publish(overlay.routing_snapshot().expect("snapshot"));
    assert!(v2 > v1, "publish must advance the version");

    // The stale reader never refreshed: every answer comes from version 1
    // — byte-for-byte the pre-churn routed answers, with no post-churn
    // keys or peers leaking in.
    assert_eq!(stale.snapshot().version(), v1);
    let mut hint_rng = SimRng::seeded(0x717);
    for (key, expected) in probes.iter().zip(&before) {
        let served = snapshot_exact(stale.snapshot(), *key, hint_rng.uniform_u64(0, u64::MAX));
        assert_eq!(
            served, *expected as u64,
            "stale reader mixed versions on key {key}"
        );
    }
    let new_key = DOMAIN_LOW + 1;
    assert_eq!(
        snapshot_exact(stale.snapshot(), new_key, 0),
        0,
        "stale snapshot saw a post-swap insert"
    );

    // One refresh later the same reader agrees with the live overlay.
    fresh.refresh();
    assert_eq!(fresh.snapshot().version(), v2);
    for key in probes.iter().chain(std::iter::once(&new_key)) {
        let routed = overlay.search_exact(*key).expect("routed").matches;
        let served = snapshot_exact(fresh.snapshot(), *key, hint_rng.uniform_u64(0, u64::MAX));
        assert_eq!(served, routed as u64, "fresh reader diverged on key {key}");
    }
}
