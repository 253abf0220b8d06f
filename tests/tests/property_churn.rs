//! Property-style integration tests: random operation sequences, applied to
//! a BATON overlay, never violate the structural invariants and never lose
//! data (except at explicitly failed nodes).  Bursts of inserts into one
//! narrow slice overload its owner, so the sequences also reach load
//! balancing's re-join and the restructuring it forces.
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
    /// [`BURST`] inserts spread over `[low, low + 1,000)`.
    Burst(u64),
    Delete(u64),
    SearchExact(u64),
    SearchRange(u64, u64),
}

/// Inserts per [`Op::Burst`]: six times the average load the overlay
/// balances at.
const BURST: u64 = 48;

fn random_op(rng: &mut SimRng) -> Op {
    // Weighted draw mirroring the original proptest strategy:
    // 2 join : 2 leave : 1 fail : 4 insert : 2 delete : 2 exact : 1 range,
    // plus 1 burst.
    match rng.index(15) {
        0 | 1 => Op::Join,
        2 | 3 => Op::Leave,
        4 => Op::Fail,
        5..=8 => Op::Insert(rng.uniform_u64(1, 1_000_000_000)),
        9 | 10 => Op::Delete(rng.uniform_u64(1, 1_000_000_000)),
        11 | 12 => Op::SearchExact(rng.uniform_u64(1, 1_000_000_000)),
        13 => Op::Burst(rng.uniform_u64(1, 999_999_000)),
        _ => {
            let low = rng.uniform_u64(1, 999_000_000);
            let width = rng.uniform_u64(1, 1_000_000);
            Op::SearchRange(low, low + width)
        }
    }
}

/// Inserts `key`; returns 1 if the load balancing it set off restructured
/// the tree, else 0.
fn insert(overlay: &mut BatonSystem, key: u64) -> usize {
    let report = overlay.insert(key, key).unwrap();
    usize::from(report.balance.is_some_and(|b| b.nodes_shifted > 0))
}

/// Applies `op`, keeping the expected item count; returns the number of
/// restructurings its load balancing forced.
fn apply(overlay: &mut BatonSystem, op: &Op, expected_items: &mut i64) -> usize {
    let mut restructurings = 0;
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
            restructurings += insert(overlay, *key);
            *expected_items += 1;
        }
        Op::Burst(low) => {
            for i in 0..BURST {
                restructurings += insert(overlay, low + i * 1_000 / BURST);
            }
            *expected_items += BURST as i64;
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
    restructurings
}

#[test]
fn random_operation_sequences_preserve_every_invariant() {
    let mut meta_rng = SimRng::seeded(0xBA70_2005);
    let mut restructurings = 0;
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
            restructurings += apply(&mut overlay, op, &mut expected_items);
            settled(&mut overlay, &format!("case {case}: {op:?}"));
        }
        assert_eq!(
            overlay.total_items() as i64,
            expected_items,
            "case {case} lost or duplicated items"
        );
    }
    assert!(restructurings > 0, "no re-join restructured the tree");
}

/// A leaf re-join in a seven-peer overlay after a failure: its screen plans
/// a one-node shift before the light leaf leaves, but after the departure
/// and the attach neither direction admits one, so the insert fails.
#[test]
#[ignore = "open defect: BATON's leaf re-join can find no join restructuring"]
fn a_burst_after_a_failure_rebalances_a_seven_peer_overlay() {
    let config = BatonConfig::default().with_load_balance(LoadBalanceConfig::for_average_load(8));
    let mut overlay = BatonSystem::build(config, 161, 7).unwrap();
    let ops = [
        Op::SearchExact(243_636_238),
        Op::Delete(574_270_472),
        Op::Burst(93_649_024),
        Op::Fail,
        Op::Burst(27_752_506),
    ];
    let mut expected_items = 0;
    for op in &ops {
        apply(&mut overlay, op, &mut expected_items);
        settled(&mut overlay, &format!("{op:?}"));
    }
}
