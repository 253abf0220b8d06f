//! Snapshot-vs-routed oracle: every answer the lock-free serve path gives
//! must agree with the routed engine it snapshots.
//!
//! * On every overlay, along every build and load path, seeded exact
//!   queries and spans (top-edge, bottom-edge, empty, single-key and
//!   random) answer the reference model's count both through the overlay's
//!   [`RoutingSnapshot`] and routed; a ring snapshot rejects every span.
//! * Under churn with a mid-stream [`SnapshotCell`] swap, a reader that has
//!   not refreshed keeps answering from its own consistent version — every
//!   stale answer equals the pre-churn routed answer, never a mix — while a
//!   refreshed reader agrees with the post-churn overlay.
//! * Every snapshot read passes `RoutingSnapshot::validate`.
//!
//! [`RoutingSnapshot`]: baton_net::RoutingSnapshot

use std::sync::Arc;

use baton_net::serve::ServeCounters;
use baton_net::{SimRng, SnapshotCell, SnapshotReader};
use baton_sim::{standard_overlays, Profile};
use baton_tests::{answers_like_the_model, serve_inputs, EVERY_PATH};
use baton_workload::{KeyDistribution, KeyGenerator, DOMAIN_LOW};

/// Exact-match count through the snapshot path.
fn snapshot_exact(snapshot: &baton_net::RoutingSnapshot, key: u64, hint: u64) -> u64 {
    let mut counters = ServeCounters::default();
    snapshot.exact(key, hint, &mut counters).matches
}

#[test]
fn snapshot_answers_agree_with_the_routed_engine_on_every_overlay() {
    let ordered = answers_like_the_model(&serve_inputs(), &EVERY_PATH).ordered;
    assert_eq!(ordered.len(), 3, "BATON, the multiway tree and the D3-Tree");
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
    assert_eq!(stale.snapshot().validate(), Ok(()));
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
    assert_eq!(fresh.snapshot().validate(), Ok(()));
    for key in probes.iter().chain(std::iter::once(&new_key)) {
        let routed = overlay.search_exact(*key).expect("routed").matches;
        let served = snapshot_exact(fresh.snapshot(), *key, hint_rng.uniform_u64(0, u64::MAX));
        assert_eq!(served, routed as u64, "fresh reader diverged on key {key}");
    }
}
