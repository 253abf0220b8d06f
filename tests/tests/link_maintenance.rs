//! Link maintenance: the notifications BATON's membership changes charge,
//! pinned in count, kind and latency-stream order; the routing-table slot a
//! position maps to; and the per-peer state estimate, pinned while the
//! simulator's storage of links changes underneath it.
//!
//! Every link a peer holds is read from the routing plane, so a receiver
//! applies nothing; what a real peer would update is what the pinned
//! notifications pay for.

use baton_core::{
    validate, BatonConfig, BatonNode, BatonSystem, KeyRange, LoadBalanceConfig, PeerId, Position,
    Side,
};
use baton_net::{LatencyPlan, Overlay, SimRng, SimTime, TraceConfig};
use baton_tests::{class_latencies, messages_by_kind};
use baton_workload::LatencySummary;

// ----------------------------------------------------------------------
// Seeded churn shared by the pinned-counter and pinned-state tests
// ----------------------------------------------------------------------

/// Joins, leaves, failures, exact searches and inserts clustered into a
/// narrow key band, so the load balancer keeps restructuring.  Returns how
/// many nodes the restructuring shifts moved.
fn churn(system: &mut BatonSystem, rng: &mut SimRng, ops: usize) -> usize {
    let mut shifted = 0;
    for i in 0..ops {
        match rng.index(10) {
            0 | 1 => {
                system.join_random().unwrap();
            }
            2 if system.node_count() > 8 => {
                system.leave_random().unwrap();
            }
            3 if system.node_count() > 8 => {
                let victim = system.random_peer().unwrap();
                system.fail(victim).unwrap();
            }
            4..=7 => {
                let key = 500_000_000 + rng.uniform_u64(0, 2_000_000);
                let report = system.insert(key, i as u64).unwrap();
                shifted += report.balance.map_or(0, |b| b.nodes_shifted);
            }
            _ => {
                system
                    .search_exact(rng.uniform_u64(1, 1_000_000_000))
                    .unwrap();
            }
        }
    }
    shifted
}

fn balancing_config() -> BatonConfig {
    BatonConfig::default().with_load_balance(LoadBalanceConfig::for_average_load(4))
}

// ----------------------------------------------------------------------
// Routing-table slots by position
// ----------------------------------------------------------------------

#[test]
fn table_slot_of_inverts_routing_neighbor() {
    for level in 0..=10u32 {
        for number in 1..=(1u64 << level) {
            let owner = Position::new(level, number);
            let node = BatonNode::new(PeerId(0), owner, KeyRange::new(0, 1));
            for side in Side::BOTH {
                for index in 0..owner.routing_table_size() {
                    if let Some(target) = owner.routing_neighbor(side, index) {
                        assert_eq!(node.table_slot_of(target), Some((side, index)));
                    }
                }
            }
            // Everything else on the level: a slot exactly at the
            // power-of-two distances, never for the owner itself.
            for other in 1..=(1u64 << level) {
                let slot = node.table_slot_of(Position::new(level, other));
                assert_eq!(
                    slot.is_some(),
                    other.abs_diff(number).is_power_of_two(),
                    "{owner:?} -> #{other}"
                );
            }
            // Other levels never map to a slot, whatever the number.
            let family = [owner.parent(), Some(owner.left_child())];
            for other in family.into_iter().flatten() {
                assert_eq!(node.table_slot_of(other), None);
                let same_number = Position::checked_new(other.level(), number);
                assert_eq!(same_number.and_then(|p| node.table_slot_of(p)), None);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Pinned counters: the fan-out charges its notifications in the old order
// ----------------------------------------------------------------------

/// Recorded on the commit before the two-pass fan-out (interleaved
/// notify-and-update loops, scanning receivers), and unchanged since the
/// receivers stopped writing anything.  Message counts pin what is
/// sent.  The virtual latencies pin where in the one seeded log-normal
/// stream each message draws: a notification charged on the other side of a
/// hop, or one draw more or fewer, shifts every later draw.  Kinds and
/// latencies are read from the route recorder, installed before the first
/// operation so that it sees the whole run.
#[test]
fn seeded_churn_reproduces_the_pinned_counters() {
    let mut system = BatonSystem::new(balancing_config(), 2005);
    let plan = LatencyPlan::LogNormal {
        median: SimTime::from_millis(40),
        sigma: 0.6,
    };
    system.set_latency_model(plan.build(2005));
    system.set_trace(TraceConfig::new(1 << 22));
    system.bootstrap().unwrap();
    for _ in 1..2_000 {
        system.join_random().unwrap();
    }
    let sent_by_build = system.stats().total_sent();

    let shifted = churn(&mut system, &mut SimRng::seeded(14), 5_000);
    validate(&system).unwrap();
    let trace = system.take_trace().unwrap();
    assert_eq!(trace.evicted(), 0);

    assert_eq!(shifted, PINNED_NODES_SHIFTED);
    assert_eq!(system.stats().total_sent() - sent_by_build, PINNED_MESSAGES);
    let by_kind = messages_by_kind(&trace);
    for (kind, count) in PINNED_BY_KIND {
        let row = by_kind.iter().find(|(k, _)| *k == kind);
        assert_eq!(row.map_or(0, |(_, n)| *n), count, "{kind}");
    }
    let summary = |class| LatencySummary::from_samples(&class_latencies(&trace, class)).unwrap();
    let exact = summary("search.exact");
    let whole_ms = |t: SimTime| t.as_micros() / 1_000;
    assert_eq!(
        (whole_ms(exact.p50), whole_ms(exact.p99)),
        PINNED_EXACT_P50_P99_MS
    );
    for (class, mean_us) in PINNED_MEAN_LATENCY_US {
        assert_eq!(summary(class).mean.as_micros(), mean_us, "{class}");
    }
}

const PINNED_NODES_SHIFTED: usize = 1_795;
const PINNED_MESSAGES: u64 = 211_112;
/// Whole-run counts, the join-by-join build included.
const PINNED_BY_KIND: [(&str, u64); 5] = [
    ("table.child_update", 105_470),
    ("table.range_update", 5_368),
    ("leave.notify", 12_435),
    ("leave.replacement_announce", 14_024),
    ("table.fill", 52_850),
];
/// `search.exact` latency percentiles (nearest rank), in whole milliseconds.
const PINNED_EXACT_P50_P99_MS: (u64, u64) = (268, 580);
/// Exact microsecond means per operation class, the build's joins included.
const PINNED_MEAN_LATENCY_US: [(&str, u64); 4] = [
    ("search.exact", 278_245),
    ("join", 307_201),
    ("leave", 274_628),
    ("failure", 265_619),
];

// ----------------------------------------------------------------------
// Pinned state bytes: the per-peer memory model does not move
// ----------------------------------------------------------------------

/// `Overlay::estimated_state_bytes` models what a real peer holds, so a
/// change to how the simulator stores links must leave it unchanged: a
/// bulk-built overlay with a direct-loaded dataset, and a join-built one
/// after seeded churn whose load balancing restructures.
#[test]
fn estimated_state_bytes_are_pinned() {
    let mut bulk = BatonSystem::bulk_build(BatonConfig::default(), 2005, 10_000).unwrap();
    let mut rng = SimRng::seeded(2005);
    let data: Vec<(u64, u64)> = (0..100_000)
        .map(|value| (rng.uniform_u64(1, 1_000_000_000), value))
        .collect();
    bulk.load_direct(&data);
    assert_eq!(bulk.estimated_state_bytes(), PINNED_BULK_STATE_BYTES);

    let mut churned = BatonSystem::build(balancing_config(), 2005, 400).unwrap();
    let shifted = churn(&mut churned, &mut SimRng::seeded(46), 3_000);
    assert!(shifted > 0, "the churn never restructured");
    validate(&churned).unwrap();
    assert_eq!(churned.estimated_state_bytes(), PINNED_CHURNED_STATE_BYTES);
}

const PINNED_BULK_STATE_BYTES: u64 = 14_767_040;
const PINNED_CHURNED_STATE_BYTES: u64 = 514_656;
