//! Answers against the reference model ([`Model`]) through failures and
//! churn:
//!
//! * with two or three replicas, every key answers with its multiplicity
//!   while any one peer is dead and unrepaired, and the repair loses none;
//! * BATON finds every key of the churn suite's seeded key sets, routed and
//!   through its snapshot.
//!
//! The inputs are those of the suites this file replaced — their key
//! seeds, overlay sizes and build seeds.

use baton_core::{BatonConfig, BatonSystem};
use baton_net::{Overlay, RepairPolicy, SimRng, SimTime};
use baton_tests::{check_answers, keys_with_repeats, settled, Inputs, Model};
use baton_workload::{DOMAIN_HIGH, DOMAIN_LOW};

/// The peers of a 40-peer BATON overlay fail in turn, leaves and internal
/// peers alike, each repaired only after every key has been asked for: while
/// it is dead, every key answers with its multiplicity from a live issuer,
/// and its repair keeps every key.
#[test]
fn with_two_or_three_replicas_a_dead_peer_costs_no_answer_and_no_key() {
    let keys = keys_with_repeats(0xB01D, 400, 9);
    let policy = RepairPolicy {
        fast: SimTime::from_millis(500),
        slow: SimTime::from_secs(10),
    };
    for k in [2usize, 3] {
        let mut overlay: Box<dyn Overlay> =
            Box::new(BatonSystem::build(BatonConfig::default(), 77, 40).expect("build"));
        overlay.set_replication(k).expect("k is within range");
        let mut model = Model::default();
        for key in &keys {
            overlay.insert(*key, *key).expect("insert");
            model.insert(*key);
        }
        // Every peer but the last: a lone dead peer leaves no issuer.
        let peers = overlay.peers().to_vec();
        for &victim in &peers[..peers.len() - 1] {
            let context = format!("k={k}, {victim} failed");
            overlay
                .fail_peer_deferred(victim, &policy)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            for key in &keys {
                let answer = overlay
                    .search_exact(*key)
                    .unwrap_or_else(|e| panic!("{context}: exact {key}: {e}"));
                assert_eq!(answer.matches, model.exact(*key), "{context}: {key}");
            }
            overlay
                .repair_peer(victim)
                .unwrap_or_else(|e| panic!("{context}: repair: {e}"));
            assert_eq!(overlay.total_items(), model.total(), "{context}: lost");
            settled(overlay.as_mut(), &context);
        }
        for key in keys.iter().step_by(7) {
            let answer = overlay.search_exact(*key).expect("exact").matches;
            assert_eq!(answer, model.exact(*key), "k={k}: after the sweep, {key}");
        }
    }
}

/// The churn suite's findability cases (meta-seed `0xF1AD`), replayed as
/// counts: each key set stored in a 16-peer BATON overlay is found with its
/// multiplicity, and a whole-domain range returns all of it.
#[test]
fn churn_suite_key_sets_are_found_with_their_multiplicity() {
    let mut meta_rng = SimRng::seeded(0xF1AD);
    for case in 0..24 {
        let seed = meta_rng.uniform_u64(0, 1_000);
        let key_count = 1 + meta_rng.index(79);
        let keys: Vec<u64> = (0..key_count)
            .map(|_| meta_rng.uniform_u64(1, 1_000_000_000))
            .collect();
        let mut overlay: Box<dyn Overlay> =
            Box::new(BatonSystem::build(BatonConfig::default(), seed, 16).expect("build"));
        let mut model = Model::default();
        for (i, key) in keys.iter().enumerate() {
            overlay.insert(*key, i as u64).expect("insert");
            model.insert(*key);
        }
        let inputs = Inputs {
            exact: keys.iter().map(|key| (*key, 0)).collect(),
            ranges: vec![(DOMAIN_LOW, DOMAIN_HIGH, 0)],
            build_seed: seed,
            keys,
        };
        check_answers(overlay.as_mut(), &model, &inputs, &format!("case {case}"));
    }
}
