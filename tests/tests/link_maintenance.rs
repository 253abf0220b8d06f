//! Receiver-side link maintenance: the slot-addressed updates a membership
//! notification applies ([`BatonNode::table_slot_of`] and the four updates
//! built on it) against the table scans they replaced, and the order in
//! which the fan-out charges its notifications.
//!
//! The scans survive only here, as the reference.  CI runs this file in
//! debug and in release: production code differs between the two by the
//! `debug_assert!` in the slot lookup.

use baton_core::{
    validate, BatonConfig, BatonNode, BatonSystem, KeyRange, LoadBalanceConfig, NodeLink, PeerId,
    Position, RoutingEntry, Side,
};
use baton_net::{LatencyPlan, Overlay, SimRng, SimTime, TraceConfig};
use baton_tests::{class_latencies, messages_by_kind};
use baton_workload::LatencySummary;

// ----------------------------------------------------------------------
// Reference: every receiver update as a scan of both routing tables
// ----------------------------------------------------------------------

fn fixed_links(node: &mut BatonNode) -> impl Iterator<Item = &mut NodeLink> {
    [
        &mut node.parent,
        &mut node.left_child,
        &mut node.right_child,
        &mut node.left_adjacent,
        &mut node.right_adjacent,
    ]
    .into_iter()
    .flatten()
}

fn for_each_entry(node: &mut BatonNode, mut f: impl FnMut(&mut RoutingEntry)) {
    for side in Side::BOTH {
        let table = node.table_mut(side);
        for index in 0..table.slot_count() {
            if let Some(entry) = table.entry_mut(index) {
                f(entry);
            }
        }
    }
}

fn scan_rewrite_links(node: &mut BatonNode, old: PeerId, new_link: NodeLink) {
    for link in fixed_links(node).filter(|l| l.peer == old) {
        *link = new_link;
    }
    for_each_entry(node, |e| {
        if e.peer == old {
            e.peer = new_link.peer;
            e.range = new_link.range;
        }
        let renamed = |child: Option<PeerId>| {
            if child == Some(old) {
                Some(new_link.peer)
            } else {
                child
            }
        };
        e.set_children(renamed(e.left_child()), renamed(e.right_child()));
    });
}

fn scan_update_link_range(node: &mut BatonNode, peer: PeerId, range: KeyRange) {
    for link in fixed_links(node).filter(|l| l.peer == peer) {
        link.range = range;
    }
    for_each_entry(node, |e| {
        if e.peer == peer {
            e.range = range;
        }
    });
}

fn scan_update_neighbor_children(
    node: &mut BatonNode,
    neighbor: PeerId,
    left_child: Option<PeerId>,
    right_child: Option<PeerId>,
) {
    for_each_entry(node, |e| {
        if e.peer == neighbor {
            e.set_children(left_child, right_child);
        }
    });
}

fn scan_remove_peer(node: &mut BatonNode, peer: PeerId) {
    for side in Side::BOTH {
        let table = node.table_mut(side);
        for index in 0..table.slot_count() {
            if table.entry(index).is_some_and(|e| e.peer == peer) {
                table.clear(index);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Seeded churn shared by the differential and the pinned-counter test
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
// Differential: slot-addressed update == scan, on every link of the overlay
// ----------------------------------------------------------------------

/// Applies `production` and `reference` to clones of `receiver` and requires
/// the two nodes equal field for field.
fn assert_same(
    receiver: &BatonNode,
    what: &str,
    production: impl FnOnce(&mut BatonNode),
    reference: impl FnOnce(&mut BatonNode),
) {
    let (mut fast, mut scanned) = (receiver.clone(), receiver.clone());
    production(&mut fast);
    reference(&mut scanned);
    assert_eq!(
        fast, scanned,
        "{what} diverged from the table scan at {}",
        receiver.peer
    );
}

/// Every update a sender `x` can fan out, applied to `receiver` both ways.
fn check_receiver(x: &BatonNode, receiver: &BatonNode) {
    let (peer, position) = (x.peer, x.position);
    let range = KeyRange::new(x.range.low(), x.range.high() + 7);
    assert_same(
        receiver,
        "update_link_range",
        |n| n.update_link_range(peer, position, range),
        |n| scan_update_link_range(n, peer, range),
    );
    let children = (Some(PeerId(4_000_001)), x.right_child.map(|l| l.peer));
    assert_same(
        receiver,
        "update_neighbor_children",
        |n| n.update_neighbor_children(peer, position, children.0, children.1),
        |n| scan_update_neighbor_children(n, peer, children.0, children.1),
    );
    let replacement = NodeLink::new(PeerId(4_000_002), position, x.range);
    assert_same(
        receiver,
        "rewrite_links",
        |n| n.rewrite_links(peer, replacement),
        |n| scan_rewrite_links(n, peer, replacement),
    );
    assert_same(
        receiver,
        "drop_table_link",
        |n| n.drop_table_link(peer, position),
        |n| scan_remove_peer(n, peer),
    );
}

/// Checks every (sender, receiver) pair of the overlay; returns how many.
fn check_every_link(system: &BatonSystem) -> usize {
    let mut pairs = 0;
    for (_, x) in system.iter_nodes() {
        // The nodes x notifies, plus its parent's table neighbours: they
        // record x as a child id, the second thing `rewrite_links` rewrites.
        let parents_neighbors = x
            .parent
            .and_then(|l| system.node(l.peer))
            .into_iter()
            .flat_map(|parent| parent.table_peers());
        for y in x.linked_peers().into_iter().chain(parents_neighbors) {
            check_receiver(x, system.node(y).expect("links name live peers"));
            pairs += 1;
        }
    }
    pairs
}

#[test]
fn slot_addressed_updates_match_the_table_scans() {
    for n in [300usize, 3_000] {
        for bulk in [false, true] {
            for k in [1usize, 2] {
                let seed = 0x11AC + (n + 2 * k + usize::from(bulk)) as u64;
                let mut system = if bulk {
                    BatonSystem::bulk_build(balancing_config(), seed, n).unwrap()
                } else {
                    BatonSystem::build(balancing_config(), seed, n).unwrap()
                };
                system.set_replication(k).unwrap();
                let case = format!("n={n} bulk={bulk} k={k}");
                assert!(check_every_link(&system) > 10 * n, "{case}");

                let shifted = churn(&mut system, &mut SimRng::seeded(seed ^ 0xC0DE), 2_000);
                assert!(shifted > 0, "{case}: churn never restructured");
                validate(&system).unwrap_or_else(|e| panic!("{case}: {e}"));
                assert!(check_every_link(&system) > 10 * n, "{case}");
            }
        }
    }
}

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
/// notify-and-update loops, scanning receivers).  Message counts pin what is
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
