//! The shared [`PeerDirectory`] and the baselines that now sit on it.
//!
//! * the directory against a `BTreeMap` model under a seeded schedule;
//! * `MTreeSystem::height()` — O(levels), from per-depth live counts —
//!   against a from-scratch scan after every op of a seeded churn;
//! * per-baseline counters recorded on the commit that still kept a
//!   `HashMap<PeerId, _>` and four private peer lists: the move to the
//!   directory changes no message, so they must reproduce exactly (the
//!   per-kind rows cover the traced drive phase; the build runs before a
//!   recorder can be installed);
//! * same-seed Chord rings agree on every counter after 300 departures
//!   (the stale-finger repair used to run in `RandomState` order);
//! * a scale guard without a wall-clock assertion: 200,000 routed
//!   operations on a 20,000-node multiway tree take seconds in a debug
//!   build when `height()` is O(levels) and minutes when it scans.
//!
//! The directory's invariants are `debug_assert!`s, so CI runs this file
//! in both profiles.

use std::collections::BTreeMap;

use baton_chord::ChordSystem;
use baton_d3tree::D3TreeSystem;
use baton_mtree::MTreeSystem;
use baton_net::{Overlay, OverlayError, PeerDirectory, PeerId, SimRng, TraceConfig};
use baton_tests::messages_by_kind;

// ----------------------------------------------------------------------
// (a) The directory against a model
// ----------------------------------------------------------------------

fn assert_matches_model(directory: &PeerDirectory<u64>, model: &BTreeMap<PeerId, u64>) {
    assert_eq!(directory.len(), model.len());
    assert_eq!(directory.is_empty(), model.is_empty());
    assert!(directory.peers().iter().eq(model.keys()));
    assert!(directory.iter().eq(model.iter().map(|(p, v)| (*p, v))));
    assert!(directory.values().eq(model.values()));
}

#[test]
fn directory_follows_a_btreemap_model() {
    const IDS: u64 = 300;
    let mut rng = SimRng::seeded(2005);
    let mut directory: PeerDirectory<u64> = PeerDirectory::new();
    let mut model: BTreeMap<PeerId, u64> = BTreeMap::new();
    let mut highest = None;

    for step in 0..20_000u64 {
        let peer = PeerId(rng.uniform_u64(0, IDS) as u32);
        match rng.index(4) {
            // Insert: a new id enters the list once; a live id is replaced
            // in place (same list entry, old value handed back).
            0 => {
                let live_before = directory.len();
                let was_live = model.contains_key(&peer);
                assert_eq!(directory.insert(peer, step), model.insert(peer, step));
                assert_eq!(directory.len(), live_before + usize::from(!was_live));
                highest = highest.max(Some(peer));
            }
            // Remove: an absent id (never inserted, already removed, or
            // beyond the slab) is `None` and changes nothing.
            1 => {
                let live_before = directory.len();
                let removed = directory.remove(peer);
                assert_eq!(removed, model.remove(&peer));
                assert_eq!(
                    directory.len(),
                    live_before - usize::from(removed.is_some())
                );
                assert_eq!(directory.remove(peer), None);
            }
            2 => {
                assert_eq!(directory.get(peer), model.get(&peer));
                assert_eq!(directory.get_mut(peer), model.get_mut(&peer));
            }
            // Sample: `peers()[rng.index(len)]`, exactly one draw — none
            // when empty.
            _ => {
                let mut expected_rng = rng.clone();
                let expected = (!model.is_empty())
                    .then(|| directory.peers()[expected_rng.index(directory.len())]);
                assert_eq!(directory.sample(&mut rng), expected);
                assert_eq!(rng.index(1 << 30), expected_rng.index(1 << 30));
            }
        }
        assert!(directory.peers().is_sorted());
        if step % 64 == 0 {
            assert_matches_model(&directory, &model);
            // Holes stay holes: growing the slab or touching neighbours
            // never brings a removed id back.
            for id in 0..IDS as u32 + 8 {
                assert_eq!(directory.get(PeerId(id)), model.get(&PeerId(id)));
            }
        }
    }
    assert_matches_model(&directory, &model);
    let highest = highest.expect("the schedule inserts");
    assert_eq!(directory.slot_count(), highest.0 as usize + 1);
    assert!(directory.slot_capacity() >= directory.slot_count());
    assert!(directory.list_capacity() >= directory.len());

    // The bulk constructor is the same directory as one-at-a-time inserts.
    let collected: PeerDirectory<u64> = model.iter().map(|(p, v)| (*p, *v)).collect();
    assert_matches_model(&collected, &model);
}

// ----------------------------------------------------------------------
// (b) Incremental multiway-tree height
// ----------------------------------------------------------------------

fn scanned_height(system: &MTreeSystem) -> u32 {
    system
        .nodes()
        .map(|(_, node)| node.depth + 1)
        .max()
        .unwrap_or(0)
}

#[test]
fn mtree_height_matches_a_scan_after_every_churn_op() {
    let mut system = MTreeSystem::new(2005);
    assert_eq!(system.height(), 0);
    let mut rng = SimRng::seeded(15);
    let mut leaves = 0;
    for op in 0..3_000 {
        // Join-heavy until the tree has some depth, then balanced churn so
        // internal nodes (whose replacement is re-depthed) keep leaving.
        let join = system.node_count() < 8 || rng.index(100) < if op < 600 { 80 } else { 50 };
        if join {
            system.join_random().unwrap();
        } else {
            system.leave_random().unwrap();
            leaves += 1;
        }
        assert_eq!(system.height(), scanned_height(&system), "after op {op}");
    }
    assert!(leaves > 1_000, "only {leaves} departures exercised");
    assert!(system.height() > 4);
    system.validate().unwrap();
}

// ----------------------------------------------------------------------
// (c) Counters recorded on the parent commit
// ----------------------------------------------------------------------

const PINNED_N: usize = 2_000;

/// 5,000 mixed inserts / exact searches / range queries with 200 joins and
/// 200 departures spread evenly through them, traced; returns the messages
/// the drive sent per kind.
fn drive(overlay: &mut dyn Overlay) -> Vec<(&'static str, u64)> {
    overlay.set_trace(TraceConfig::new(1 << 16));
    let mut rng = SimRng::seeded(15);
    for step in 0..5_400u64 {
        match step % 27 {
            0 => {
                overlay.join_random().unwrap();
            }
            1 => {
                overlay.leave_random().unwrap();
            }
            _ => {
                let key = rng.uniform_u64(1, 1_000_000_000);
                match rng.index(10) {
                    0..=3 => {
                        overlay.insert(key, step).unwrap();
                    }
                    4..=7 => {
                        overlay.search_exact(key).unwrap();
                    }
                    _ => match overlay.search_range(key, key + 2_000_000) {
                        Ok(_) | Err(OverlayError::Unsupported(_)) => {}
                        Err(other) => panic!("range query failed: {other}"),
                    },
                }
            }
        }
    }
    let trace = overlay.take_trace().unwrap();
    assert_eq!(trace.evicted(), 0);
    messages_by_kind(&trace)
}

/// Drives `overlay` and checks the drive phase's per-kind rows, then the
/// whole run's message total (the build included).
fn assert_pinned(overlay: &mut dyn Overlay, messages: u64, by_kind: &[(&str, u64)], items: usize) {
    assert_eq!(drive(overlay), by_kind);
    overlay.validate().unwrap();
    assert_eq!(overlay.stats().total_sent(), messages);
    assert_eq!(overlay.total_items(), items);
    assert_eq!(overlay.node_count(), PINNED_N);
}

#[test]
fn multiway_tree_reproduces_the_parents_counters() {
    let mut system = MTreeSystem::build(2005, PINNED_N).unwrap();
    assert_pinned(&mut system, MTREE_MESSAGES, &MTREE_BY_KIND, MTREE_ITEMS);
    assert_eq!(system.height(), MTREE_HEIGHT);
}

#[test]
fn chord_reproduces_the_parents_counters() {
    let mut system = ChordSystem::build(2005, PINNED_N).unwrap();
    assert_pinned(&mut system, CHORD_MESSAGES, &CHORD_BY_KIND, CHORD_ITEMS);
}

#[test]
fn d3tree_reproduces_the_parents_counters() {
    let mut system = D3TreeSystem::build(2005, PINNED_N).unwrap();
    assert_pinned(&mut system, D3TREE_MESSAGES, &D3TREE_BY_KIND, D3TREE_ITEMS);
    assert_eq!(system.height(), D3TREE_HEIGHT);
}

const MTREE_MESSAGES: u64 = 85_501;
const MTREE_BY_KIND: [(&str, u64); 3] = [
    ("mtree.leave", 600),
    ("mtree.maintenance", 1_857),
    ("mtree.search", 55_821),
];
const MTREE_ITEMS: usize = 2_044;
const MTREE_HEIGHT: u32 = 13;

const CHORD_MESSAGES: u64 = 415_474;
const CHORD_BY_KIND: [(&str, u64); 3] = [
    ("chord.data", 2_044),
    ("chord.lookup", 74_356),
    ("chord.maintenance", 7_378),
];
const CHORD_ITEMS: usize = 2_044;

const D3TREE_MESSAGES: u64 = 104_905;
const D3TREE_BY_KIND: [(&str, u64); 4] = [
    ("d3.join", 200),
    ("d3.leave", 200),
    ("d3.maintenance", 1_414),
    ("d3.search", 79_604),
];
const D3TREE_ITEMS: usize = 2_044;
const D3TREE_HEIGHT: u32 = 7;

// ----------------------------------------------------------------------
// Chord departures are a function of the seed alone
// ----------------------------------------------------------------------

#[test]
fn same_seed_chord_rings_agree_after_300_leaves() {
    let run = || {
        let mut system = ChordSystem::build(2005, 500).unwrap();
        system.set_trace(TraceConfig::new(1 << 12));
        for key in 0..400u64 {
            system.insert(1 + key * 2_499_999, key).unwrap();
        }
        for _ in 0..300 {
            system.leave_random().unwrap();
        }
        system.validate().unwrap();
        let by_kind = messages_by_kind(&system.take_trace().unwrap());
        let stats = system.stats();
        let received: Vec<u64> = (0..system.net().peers().total() as u32)
            .map(|id| stats.received_count(PeerId(id)))
            .collect();
        (by_kind, received, stats.total_sent(), system.total_items())
    };
    let first = run();
    assert!(first.0.iter().any(|(kind, _)| *kind == "chord.lookup"));
    assert_eq!(first, run());
}

// ----------------------------------------------------------------------
// (d) Scale guard
// ----------------------------------------------------------------------

#[test]
fn routed_ops_on_a_large_multiway_tree_do_not_scan_the_overlay() {
    let mut system = MTreeSystem::build(2005, 20_000).unwrap();
    let mut rng = SimRng::seeded(15);
    let mut found = 0usize;
    for _ in 0..100_000 {
        let key = rng.uniform_u64(1, 1_000_000_000);
        system.insert(key, 0).unwrap();
        found += system.search_exact(key).unwrap().matches;
    }
    assert!(found >= 100_000);
    assert_eq!(system.total_items(), 100_000);
    assert_eq!(system.height(), scanned_height(&system));
}
