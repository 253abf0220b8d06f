//! Property-style integration tests: random operation sequences, applied to
//! a BATON overlay, never violate the structural invariants and never lose
//! data (except at explicitly failed nodes).
//!
//! These were originally `proptest` properties; without registry access they
//! run as seeded deterministic loops over many random cases, which keeps the
//! same coverage shape while staying reproducible.

use baton_core::{BatonConfig, BatonSystem, KeyRange, LoadBalanceConfig, Overlay};
use baton_net::SimRng;
use baton_tests::settled;

/// The operations the property tests draw from.
#[derive(Clone, Debug)]
enum Op {
    Join,
    Leave,
    Fail,
    Insert(u64),
    Delete(u64),
    SearchExact(u64),
    SearchRange(u64, u64),
}

fn random_op(rng: &mut SimRng) -> Op {
    // Weighted draw mirroring the original proptest strategy:
    // 2 join : 2 leave : 1 fail : 4 insert : 2 delete : 2 exact : 1 range.
    match rng.index(14) {
        0 | 1 => Op::Join,
        2 | 3 => Op::Leave,
        4 => Op::Fail,
        5..=8 => Op::Insert(rng.uniform_u64(1, 1_000_000_000)),
        9 | 10 => Op::Delete(rng.uniform_u64(1, 1_000_000_000)),
        11 | 12 => Op::SearchExact(rng.uniform_u64(1, 1_000_000_000)),
        _ => {
            let low = rng.uniform_u64(1, 999_000_000);
            let width = rng.uniform_u64(1, 1_000_000);
            Op::SearchRange(low, low + width)
        }
    }
}

fn apply(overlay: &mut BatonSystem, op: &Op, expected_items: &mut i64) {
    match op {
        Op::Join => {
            overlay.join_random().unwrap();
        }
        Op::Leave => {
            if overlay.node_count() > 2 {
                overlay.leave_random().unwrap();
            }
        }
        Op::Fail => {
            if overlay.node_count() > 2 {
                let victim = overlay.random_peer().unwrap();
                let report = overlay.fail(victim).unwrap();
                *expected_items -= report.lost_items as i64;
            }
        }
        Op::Insert(key) => {
            overlay.insert(*key, *key).unwrap();
            *expected_items += 1;
        }
        Op::Delete(key) => {
            let report = overlay.delete(*key).unwrap();
            if report.removed {
                *expected_items -= 1;
            }
        }
        Op::SearchExact(key) => {
            overlay.search_exact(*key).unwrap();
        }
        Op::SearchRange(low, high) => {
            overlay.search_range(KeyRange::new(*low, *high)).unwrap();
        }
    }
}

#[test]
fn random_operation_sequences_preserve_every_invariant() {
    let mut meta_rng = SimRng::seeded(0xBA70_2005);
    for case in 0..24 {
        let seed = meta_rng.uniform_u64(0, 1_000);
        let initial = 4 + meta_rng.index(20);
        let op_count = 1 + meta_rng.index(59);
        let ops: Vec<Op> = (0..op_count).map(|_| random_op(&mut meta_rng)).collect();

        let config =
            BatonConfig::default().with_load_balance(LoadBalanceConfig::for_average_load(8));
        let mut overlay = BatonSystem::build(config, seed, initial).unwrap();
        let mut expected_items = 0i64;
        for op in &ops {
            apply(&mut overlay, op, &mut expected_items);
            settled(&mut overlay, &format!("case {case}: {op:?}"));
        }
        assert_eq!(
            overlay.total_items() as i64,
            expected_items,
            "case {case} lost or duplicated items"
        );
    }
}
