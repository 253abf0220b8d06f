//! Differential check of [`RoutingSnapshot`] export.
//!
//! The production path resolves links through a peer→slot table built on
//! the first lookup and appends them to the CSR arrays in slot order.
//! BATON's exporter computes its links from the position map instead of
//! reading them, copies each store's sorted keys whole (run-length-encoding
//! only a store that holds a duplicate key) and writes each slot's link row
//! in one append.  The reference below keeps the builder it replaced — one
//! `Vec` per slot, its own `slot_of` and one `push_item` per distinct key —
//! and reads each overlay through its public accessors only, BATON's
//! parent, child and adjacent links and both routing tables included (its
//! per-peer link view, `BatonSystem::links`).  The
//! two must produce field-for-field equal snapshots on all four overlays
//! after seeded churn at k = 1..=3; with repeated routed inserts after
//! churn, so that stores hold duplicate keys; for BATON overlays of 0, 1
//! and 2 peers; with BATON's replica and liveness arrays at k = 2 and an
//! unrepaired dead peer; and along a schedule of deferred failures and
//! repairs.  A scale guard exports a 50,000-peer overlay under plain `cargo
//! test` and checks it with [`RoutingSnapshot::validate`]: it carries no
//! wall-clock assertion, but a quadratic export turns its seconds into many
//! minutes.  An ignored release test exports N = 100,000 peers with
//! 1,000,000 items, compares it with the reference and prints the export
//! time.

use std::collections::HashMap;
use std::time::Instant;

use baton_chord::ChordSystem;
use baton_core::{BatonConfig, BatonSystem, LoadBalanceConfig, Side};
use baton_d3tree::D3TreeSystem;
use baton_mtree::MTreeSystem;
use baton_net::serve::{ExactPlacement, RoutingSnapshot, ServeCounters, SnapshotBuilder};
use baton_net::{LinkKind, Overlay, PeerId, RepairPolicy, SimRng, SimTime};
use baton_workload::{DOMAIN_HIGH, DOMAIN_LOW};

/// The builder the production one replaced: per-slot staging `Vec`s and a
/// `slot_of` of its own.  `finish` replays the staged state through the
/// production builder link by link with every target already resolved, so
/// the peer→slot table, `push_keys` and whole link rows are bypassed and
/// links may be staged in any slot order.
struct ReferenceBuilder {
    out: SnapshotBuilder,
    /// The first slot of each peer.
    slots: HashMap<u32, usize>,
    links: Vec<Vec<(usize, LinkKind)>>,
    replicas: Vec<Vec<usize>>,
}

impl ReferenceBuilder {
    fn new(placement: ExactPlacement, domain: (u64, u64)) -> Self {
        Self {
            out: SnapshotBuilder::new(placement, domain),
            slots: HashMap::new(),
            links: Vec::new(),
            replicas: Vec::new(),
        }
    }

    /// Appends a slot with its `(distinct key, value count)` items.
    fn push_slot(&mut self, peer: PeerId, high: u64, alive: bool, items: &[(u64, u64)]) {
        self.out.push_slot(peer.0, high, alive);
        for &(key, count) in items {
            self.out.push_item(key, count);
        }
        self.out.seal_slot();
        self.slots.entry(peer.0).or_insert(self.links.len());
        self.links.push(Vec::new());
        self.replicas.push(Vec::new());
    }

    fn slot_of(&self, peer: PeerId) -> Option<usize> {
        self.slots.get(&peer.0).copied()
    }

    fn link_slot(&mut self, slot: usize, target: usize, kind: LinkKind) {
        if slot != target {
            self.links[slot].push((target, kind));
        }
    }

    fn link(&mut self, slot: usize, target: PeerId, kind: LinkKind) {
        if let Some(target) = self.slot_of(target) {
            self.link_slot(slot, target, kind);
        }
    }

    fn replicas(&mut self, slot: usize, targets: Vec<PeerId>) {
        for target in targets {
            match self.slot_of(target) {
                Some(target) if target != slot => self.replicas[slot].push(target),
                _ => {}
            }
        }
    }

    fn finish(mut self) -> RoutingSnapshot {
        for (slot, links) in self.links.iter().enumerate() {
            for &(target, kind) in links {
                self.out.link(slot, target, kind);
            }
            for &target in &self.replicas[slot] {
                self.out.replica(slot, target);
            }
        }
        self.out.finish()
    }
}

/// Run-length encodes a sorted key stream: one `(key, count)` per distinct
/// key.
fn run_lengths(keys: impl IntoIterator<Item = u64>) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for key in keys {
        match runs.last_mut() {
            Some((k, count)) if *k == key => *count += 1,
            _ => runs.push((key, 1)),
        }
    }
    runs
}

fn reference_baton(system: &BatonSystem) -> RoutingSnapshot {
    let domain = (system.domain().low(), system.domain().high());
    let mut b = ReferenceBuilder::new(ExactPlacement::DomainPartition, domain);
    // Its own sort by range, not the routing plane's in-order chain the
    // exporter under test walks.
    let range = |peer| system.range_of(peer).unwrap();
    let mut nodes: Vec<_> = system.iter_nodes().collect();
    nodes.sort_by_key(|&(peer, _)| range(peer).low());
    for (peer, node) in &nodes {
        let items = run_lengths(node.store.iter().map(|(key, _)| key));
        let alive = system.net().is_alive(*peer);
        b.push_slot(*peer, range(*peer).high(), alive, &items);
    }
    for (slot, (peer, _)) in nodes.iter().enumerate() {
        let links = system.links(*peer).unwrap();
        if let Some(parent) = links.parent() {
            b.link(slot, parent.peer, LinkKind::Parent);
        }
        for side in Side::BOTH {
            if let Some(child) = links.child(side) {
                b.link(slot, child.peer, LinkKind::Child);
            }
        }
        for side in Side::BOTH {
            if let Some(adjacent) = links.adjacent(side) {
                b.link(slot, adjacent.peer, LinkKind::Adjacent);
            }
        }
        for side in Side::BOTH {
            for (_, entry) in links.table(side).iter() {
                b.link(slot, entry.peer, LinkKind::RoutingTable);
            }
        }
        b.replicas(slot, system.replica_targets(*peer));
    }
    b.finish()
}

fn reference_chord(system: &ChordSystem) -> RoutingSnapshot {
    let domain = (0, baton_chord::RING);
    let mut b = ReferenceBuilder::new(ExactPlacement::HashedRing, domain);
    let mut order: Vec<_> = system.nodes().collect();
    order.sort_by_key(|(_, node)| node.id);
    for (peer, node) in &order {
        let items: Vec<(u64, u64)> = node
            .store
            .iter()
            .map(|(id, values)| (*id, values.len() as u64))
            .collect();
        b.push_slot(*peer, node.id.value(), true, &items);
    }
    for (slot, (peer, node)) in order.iter().enumerate() {
        // Finger k is the first member at or past id + 2^k, wrapping; finger
        // 0 is the successor.
        let finger = |k| {
            let start = node.id.finger_start(k);
            order[order.partition_point(|(_, n)| n.id < start) % order.len()].0
        };
        b.link(slot, finger(0), LinkKind::Successor);
        for k in 0..baton_chord::M {
            b.link(slot, finger(k), LinkKind::Finger);
        }
        b.replicas(slot, system.replica_targets(*peer));
    }
    b.finish()
}

fn reference_mtree(system: &MTreeSystem) -> RoutingSnapshot {
    let mut order: Vec<_> = system.nodes().collect();
    order.sort_by_key(|(_, node)| node.range.low);
    // The direct ranges partition the domain.
    let domain = (order[0].1.range.low, order[order.len() - 1].1.range.high);
    let mut b = ReferenceBuilder::new(ExactPlacement::DomainPartition, domain);
    for (peer, node) in &order {
        let items = run_lengths(node.keys.iter().copied());
        b.push_slot(*peer, node.range.high, true, &items);
    }
    for (slot, (peer, node)) in order.iter().enumerate() {
        if let Some(parent) = node.parent {
            b.link(slot, parent, LinkKind::Parent);
        }
        for &child in &node.children {
            b.link(slot, child, LinkKind::Child);
        }
        for neighbor in [node.left_neighbor, node.right_neighbor]
            .into_iter()
            .flatten()
        {
            b.link(slot, neighbor, LinkKind::Neighbor);
        }
        b.replicas(slot, system.replica_targets(*peer));
    }
    b.finish()
}

fn reference_d3tree(system: &D3TreeSystem) -> RoutingSnapshot {
    let buckets = system.buckets();
    let low = buckets.iter().flat_map(|b| b.peers.first()).next();
    let high = buckets.iter().flat_map(|b| b.peers.last()).next_back();
    let domain = (low.unwrap().range.low, high.unwrap().range.high);
    let mut b = ReferenceBuilder::new(ExactPlacement::DomainPartition, domain);
    let mut heads = Vec::new();
    let mut peers = Vec::new();
    for bucket in buckets {
        if !bucket.is_empty() {
            heads.push(peers.len());
        }
        for peer in &bucket.peers {
            let items = run_lengths(peer.keys.iter().copied());
            b.push_slot(peer.peer, peer.range.high, true, &items);
            peers.push(peer.peer);
        }
    }
    // Backbone links of every head first, bucket links after: staged out of
    // slot order, replayed per slot.
    for (index, head) in heads.iter().enumerate() {
        let mut stride = 1;
        while stride < heads.len() {
            if index >= stride {
                b.link_slot(*head, heads[index - stride], LinkKind::Backbone);
            }
            if index + stride < heads.len() {
                b.link_slot(*head, heads[index + stride], LinkKind::Backbone);
            }
            stride *= 2;
        }
    }
    for (slot, peer) in peers.iter().enumerate() {
        if slot > 0 {
            b.link_slot(slot, slot - 1, LinkKind::Bucket);
        }
        if slot + 1 < peers.len() {
            b.link_slot(slot, slot + 1, LinkKind::Bucket);
        }
        b.replicas(slot, system.replica_targets(*peer));
    }
    b.finish()
}

/// The export checks: the snapshot's shape, and every item at its owner.
fn check_export(snapshot: &RoutingSnapshot) -> Result<(), String> {
    snapshot.validate()?;
    snapshot.check_ownership()
}

/// Exports `overlay`, requires the export to pass [`check_export`] and to
/// equal the reference's, and returns it.
fn checked_export<O>(
    overlay: &O,
    export: fn(&O) -> RoutingSnapshot,
    reference: fn(&O) -> RoutingSnapshot,
    at: &str,
) -> RoutingSnapshot {
    let snapshot = export(overlay);
    assert_eq!(check_export(&snapshot), Ok(()), "{at}");
    assert!(snapshot == reference(overlay), "{at}: export differs");
    snapshot
}

/// A seeded join/leave/insert schedule with duplicate keys.
fn churn(overlay: &mut dyn Overlay, seed: u64) {
    let mut rng = SimRng::seeded(seed);
    for step in 0..400u64 {
        let key = rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH - 1);
        overlay.insert(key, key).expect("insert");
        if step % 5 == 0 {
            overlay.insert(key, key + 1).expect("duplicate insert");
        }
        if step % 16 == 0 {
            if rng.uniform_u64(0, 3) == 0 {
                overlay.leave_random().expect("leave");
            } else {
                overlay.join_random().expect("join");
            }
        }
    }
    overlay.validate().expect("valid after churn");
}

#[test]
fn production_export_equals_the_reference_builder_on_every_overlay() {
    for (seed, n) in [(2005u64, 60usize), (7, 33), (41, 2)] {
        for k in 1..=3 {
            let at = format!("seed {seed}, N = {n}, k = {k}");
            let mut baton = BatonSystem::build(BatonConfig::default(), seed, n).unwrap();
            baton.set_replication(k).unwrap();
            churn(&mut baton, seed);
            let export = BatonSystem::build_routing_snapshot;
            checked_export(&baton, export, reference_baton, &at);

            let mut chord = ChordSystem::build(seed, n).unwrap();
            chord.set_replication(k).unwrap();
            churn(&mut chord, seed);
            let export = ChordSystem::build_routing_snapshot;
            checked_export(&chord, export, reference_chord, &at);

            let mut mtree = MTreeSystem::build(seed, n).unwrap();
            mtree.set_replication(k).unwrap();
            churn(&mut mtree, seed);
            let export = MTreeSystem::build_routing_snapshot;
            checked_export(&mtree, export, reference_mtree, &at);

            let mut d3tree = D3TreeSystem::build(seed, n).unwrap();
            d3tree.set_replication(k).unwrap();
            churn(&mut d3tree, seed);
            let export = D3TreeSystem::build_routing_snapshot;
            checked_export(&d3tree, export, reference_d3tree, &at);
        }
    }
}

/// Churns `overlay` at replication `k`, then inserts 40 fresh keys two to
/// four times each through routed inserts, and requires the export to pass
/// [`check_export`], to equal the reference and to answer every one of them
/// with all their copies.
fn check_duplicates<O: Overlay>(
    mut overlay: O,
    k: usize,
    seed: u64,
    export: fn(&O) -> RoutingSnapshot,
    reference: fn(&O) -> RoutingSnapshot,
) {
    overlay.set_replication(k).expect("replication");
    churn(&mut overlay, seed);
    let mut rng = SimRng::seeded(seed ^ 0xD0B1E);
    let keys: Vec<u64> = (0..40)
        .map(|_| rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH - 1))
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        for copy in 0..2 + i as u64 % 3 {
            overlay.insert(key, copy).expect("repeated insert");
        }
    }
    overlay.validate().expect("valid after repeated inserts");
    let at = format!("seed {seed}, k = {k}");
    let snapshot = checked_export(&overlay, export, reference, &at);
    let mut counters = ServeCounters::default();
    for (i, &key) in keys.iter().enumerate() {
        let copies = snapshot.exact(key, 0, &mut counters).matches;
        assert!(
            copies >= 2 + i as u64 % 3,
            "{at}: {key} has {copies} copies"
        );
    }
}

#[test]
fn exports_of_stores_with_duplicate_keys_equal_the_reference_on_every_overlay() {
    for (seed, n) in [(2005u64, 40usize), (9, 17)] {
        for k in 1..=3 {
            let baton = BatonSystem::build(BatonConfig::default(), seed, n).unwrap();
            check_duplicates(
                baton,
                k,
                seed,
                BatonSystem::build_routing_snapshot,
                reference_baton,
            );
            let chord = ChordSystem::build(seed, n).unwrap();
            check_duplicates(
                chord,
                k,
                seed,
                ChordSystem::build_routing_snapshot,
                reference_chord,
            );
            let mtree = MTreeSystem::build(seed, n).unwrap();
            check_duplicates(
                mtree,
                k,
                seed,
                MTreeSystem::build_routing_snapshot,
                reference_mtree,
            );
            let d3tree = D3TreeSystem::build(seed, n).unwrap();
            check_duplicates(
                d3tree,
                k,
                seed,
                D3TreeSystem::build_routing_snapshot,
                reference_d3tree,
            );
        }
    }
}

#[test]
fn baton_exports_of_zero_one_and_two_peers_equal_the_reference() {
    for n in 0..=2 {
        for k in 1..=3 {
            let mut system = BatonSystem::build(BatonConfig::default(), 3, n).unwrap();
            system.set_replication(k).unwrap();
            if n > 0 {
                for key in [5u64, 5, 7, 123_456_789, 123_456_789, 999_999_998] {
                    system.insert(key, key).unwrap();
                }
            }
            let export = BatonSystem::build_routing_snapshot;
            let at = format!("n = {n}, k = {k}");
            let snapshot = checked_export(&system, export, reference_baton, &at);
            assert_eq!(snapshot.slots(), n);
        }
    }
}

#[test]
fn baton_export_carries_replicas_and_a_dead_peer_at_k2() {
    let mut system = BatonSystem::build(BatonConfig::default(), 2005, 48).unwrap();
    system.set_replication(2).unwrap();
    churn(&mut system, 99);
    let victim = system.peers()[system.peers().len() / 2];
    system.fail_silently(victim).unwrap();

    let snapshot = system.build_routing_snapshot();
    assert_eq!(snapshot, reference_baton(&system));
    let dead: Vec<usize> = (0..snapshot.slots())
        .filter(|&slot| !snapshot.alive(slot))
        .collect();
    assert_eq!(dead.len(), 1);
    assert_eq!(snapshot.peer_of(dead[0]), victim.0);
    // k = 2: every slot of a multi-node overlay has exactly one replica.
    for slot in 0..snapshot.slots() {
        assert_eq!(snapshot.replicas(slot).len(), 1, "slot {slot}");
    }
}

/// Four slots over [0, 40), peer 7 pushed twice, then `emission` as
/// `(slot, target peer, kind)`: each entry one link and one replica.
fn build_toy(emission: &[(usize, u32, LinkKind)]) -> RoutingSnapshot {
    let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 40));
    for (peer, high) in [(3u32, 10u64), (7, 20), (5, 30), (7, 40)] {
        b.push_slot(peer, high, true);
        b.push_keys(&[high - 2, high - 2, high - 1]);
        b.seal_slot();
    }
    // `slot_of` keeps answering the first slot of a twice-pushed peer.
    assert_eq!(b.slot_of(7), Some(1));
    assert_eq!(b.slot_of(4), None);
    assert_eq!(b.slot_of(1_000_000), None);
    for &(slot, peer, kind) in emission {
        let target = b.slot_of(peer).unwrap();
        b.link(slot, target, kind);
        b.replica(slot, target);
    }
    b.finish()
}

#[test]
fn builder_takes_links_in_slot_order_and_keeps_the_first_slot_of_a_peer() {
    // Slot 1 emits only a self-link, which is dropped; `finish` closes the
    // last slot's segments.
    let snapshot = build_toy(&[
        (0, 7, LinkKind::Child),
        (0, 5, LinkKind::Adjacent),
        (1, 7, LinkKind::Adjacent),
        (2, 3, LinkKind::Parent),
        (2, 7, LinkKind::Adjacent),
        (3, 7, LinkKind::RoutingTable),
    ]);
    let links = |slot| snapshot.links(slot).collect::<Vec<_>>();
    assert_eq!(
        links(0),
        [(1, LinkKind::Child), (2, LinkKind::Adjacent)],
        "emission order within a slot"
    );
    assert!(links(1).is_empty());
    assert_eq!(links(2), [(0, LinkKind::Parent), (1, LinkKind::Adjacent)]);
    assert_eq!(links(3), [(1, LinkKind::RoutingTable)]);
    assert_eq!(snapshot.replicas(0), [1, 2]);
    assert!(snapshot.replicas(1).is_empty());
    assert_eq!(snapshot.replicas(2), [0, 1]);
    assert_eq!(snapshot.replicas(3), [1]);
    assert_eq!(snapshot.total_items(), 12);
    // The same CSR from the per-slot staging of the reference builder.
    let mut reference = ReferenceBuilder::new(ExactPlacement::DomainPartition, (0, 40));
    for (peer, high) in [(3u32, 10u64), (7, 20), (5, 30), (7, 40)] {
        let items = [(high - 2, 2), (high - 1, 1)];
        reference.push_slot(PeerId(peer), high, true, &items);
    }
    for (slot, target, kind) in [
        (0, 1, LinkKind::Child),
        (0, 2, LinkKind::Adjacent),
        (2, 0, LinkKind::Parent),
        (2, 1, LinkKind::Adjacent),
        (3, 1, LinkKind::RoutingTable),
    ] {
        reference.link_slot(slot, target, kind);
        reference.replicas[slot].push(target);
    }
    assert_eq!(snapshot, reference.finish());
}

#[test]
#[should_panic(expected = "ascending order of pushed slots")]
fn builder_rejects_a_link_for_a_lower_slot() {
    build_toy(&[(2, 3, LinkKind::Parent), (0, 7, LinkKind::Child)]);
}

/// Joins, leaves, silent failures, their deferred repairs (last failed,
/// first repaired), inserts and immediate failures in random order — the
/// schedule that once left a repair coordinated by a dead peer — with
/// `validate()` after every step and the export checked against the
/// reference every 20th step and at the end.
#[test]
fn export_equals_the_reference_along_deferred_failures_and_repairs() {
    for seed in [0u64, 4] {
        for k in 1..=3 {
            let mut system = BatonSystem::build(BatonConfig::default(), seed, 150).unwrap();
            system.set_replication(k).unwrap();
            let mut rng = SimRng::seeded(seed ^ 77);
            for i in 0..300 {
                system.insert(rng.uniform_u64(1, 999_999_999), i).unwrap();
            }
            let mut silenced = Vec::new();
            for step in 0..600u64 {
                // Errors are part of the schedule: a refused step is skipped.
                match rng.index(7) {
                    0 | 1 => {
                        let _ = system.join_random();
                    }
                    2 => {
                        let _ = system.leave_random();
                    }
                    3 => {
                        let peer = system.random_peer().unwrap();
                        let _ = system.fail_silently(peer);
                        silenced.push(peer);
                    }
                    4 => {
                        if let Some(peer) = silenced.pop() {
                            let _ = system.recover_failed(peer);
                        }
                    }
                    5 => {
                        let _ = system.insert(rng.uniform_u64(1, 999_999_999), step);
                    }
                    _ => {
                        let _ = Overlay::fail_random(&mut system);
                    }
                }
                let at = format!("seed {seed}, k = {k}, step {step}");
                system
                    .validate()
                    .unwrap_or_else(|e| panic!("{at}: invalid: {e}"));
                if step % 20 == 0 {
                    let export = BatonSystem::build_routing_snapshot;
                    checked_export(&system, export, reference_baton, &at);
                }
            }
            let export = BatonSystem::build_routing_snapshot;
            let at = format!("seed {seed}, k = {k}: the end");
            checked_export(&system, export, reference_baton, &at);
        }
    }
}

/// A seeded random schedule of every BATON operation that changes an
/// export — joins, leaves, immediate and deferred failures with their
/// later repairs, inserts (repeated keys, and keys outside the domain that
/// widen it), deletes, overload bursts that move nodes by load balancing,
/// and replication degrees cycling 1 → 2 → 3 → 2 → 1 — on a join-built
/// overlay of `n` peers.  After every step the patched export must pass
/// [`RoutingSnapshot::validate`], equal the reference field for field and
/// equal a second export taken with no operation in between.
fn patched_exports_equal_the_reference(n: usize, seed: u64, steps: usize) {
    let config = BatonConfig::default().with_load_balance(LoadBalanceConfig::for_average_load(2));
    let policy = RepairPolicy {
        fast: SimTime::from_millis(10),
        slow: SimTime::from_millis(100),
    };
    let mut system = BatonSystem::build(config, seed, n).unwrap();
    let mut rng = SimRng::seeded(seed ^ 0x9A7C);
    let mut keys: Vec<u64> = (0..4 * n as u64)
        .map(|_| rng.uniform_u64(1, 999_999_999))
        .collect();
    system.load_direct(&keys.iter().map(|&key| (key, key)).collect::<Vec<_>>());
    let mut pending: Vec<PeerId> = Vec::new();
    let mut degrees = [2, 3, 2, 1].into_iter().cycle();
    let export = |system: &BatonSystem, at: &str| {
        let snapshot = Overlay::routing_snapshot(system).expect("BATON exports");
        assert_eq!(check_export(&snapshot), Ok(()), "{at}");
        if snapshot != reference_baton(system) {
            panic!("{at}: export differs (validate: {:?})", system.validate());
        }
        snapshot
    };
    export(&system, &format!("seed {seed}: first export"));
    for step in 0..steps {
        let domain = system.domain();
        // Errors are part of the schedule: a refused step is skipped.
        let label = match rng.index(12) {
            0 => {
                let _ = system.join_random();
                "join"
            }
            1 => {
                let _ = system.leave_random();
                "leave"
            }
            2 => {
                let _ = Overlay::fail_random(&mut system);
                "fail"
            }
            3 if pending.len() < 3 => {
                let victim = system.random_peer().unwrap();
                if Overlay::fail_peer_deferred(&mut system, victim, &policy).is_ok() {
                    pending.push(victim);
                }
                "fail deferred"
            }
            3 | 4 if !pending.is_empty() => {
                let victim = pending.remove(0);
                if Overlay::repair_peer(&mut system, victim).is_err() {
                    // No live neighbour yet: retry after theirs.
                    pending.push(victim);
                }
                "repair"
            }
            5 => {
                let key = if rng.index(2) == 0 {
                    domain.low().saturating_sub(1 + rng.uniform_u64(0, 10))
                } else {
                    domain.high() + rng.uniform_u64(0, 1_000)
                };
                keys.push(key);
                let _ = system.insert(key, step as u64);
                "insert out of domain"
            }
            6 if !keys.is_empty() => {
                let key = keys.swap_remove(rng.index(keys.len()));
                let _ = system.delete(key);
                "delete"
            }
            7 => {
                let key = keys[rng.index(keys.len())];
                let _ = system.insert(key, step as u64);
                keys.push(key);
                "duplicate insert"
            }
            8 => {
                // A burst inside one node's range overloads it.
                let peer = system.random_peer().unwrap();
                let range = system.range_of(peer).unwrap();
                for _ in 0..24 {
                    let key = rng.uniform_u64(range.low(), range.high());
                    keys.push(key);
                    let _ = system.insert(key, step as u64);
                }
                "overload burst"
            }
            9 => {
                system.set_replication(degrees.next().unwrap()).unwrap();
                "set replication"
            }
            _ => {
                let key = rng.uniform_u64(domain.low(), domain.high());
                keys.push(key);
                let _ = system.insert(key, step as u64);
                "insert"
            }
        };
        let at = format!("seed {seed}, N = {n}, step {step} ({label})");
        let first = export(&system, &at);
        let again = Overlay::routing_snapshot(&system).expect("BATON exports");
        assert!(first == again, "{at}: a second export differs");
    }
}

#[test]
fn patched_exports_equal_the_reference_after_every_step() {
    for seed in [2005u64, 7, 41] {
        patched_exports_equal_the_reference(2_000, seed, 150);
    }
}

/// `cargo test -q --release -p baton-tests --test snapshot_export --
/// --ignored patched_exports_of_ten_thousand_peers`.
#[test]
#[ignore = "N = 10,000 peers over 2,000 steps: run in release"]
fn patched_exports_of_ten_thousand_peers_equal_the_reference() {
    patched_exports_equal_the_reference(10_000, 2005, 2_000);
}

/// Drives the change log past its cap between two exports — 5,000 routed
/// inserts at random owners and a join — and requires the export after it,
/// which rebuilds every slot, to equal the reference.
#[test]
fn export_after_an_overflowing_change_log_equals_the_reference() {
    let mut system = BatonSystem::build(BatonConfig::default(), 11, 600).unwrap();
    system.set_replication(2).unwrap();
    assert!(system.build_routing_snapshot() == reference_baton(&system));
    let mut rng = SimRng::seeded(11);
    for i in 0..5_000 {
        system.insert(rng.uniform_u64(1, 999_999_999), i).unwrap();
    }
    system.join_random().unwrap();
    let export = BatonSystem::build_routing_snapshot;
    checked_export(&system, export, reference_baton, "after the overflow");
}

/// A bulk-built BATON overlay of `n` peers at k = 2, `items` uniform
/// values loaded directly.
fn bulk_baton(n: usize, items: u64) -> BatonSystem {
    let mut system = BatonSystem::bulk_build(BatonConfig::default(), 2005, n).unwrap();
    let mut rng = SimRng::seeded(12);
    let data: Vec<(u64, u64)> = (0..items)
        .map(|i| (rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH - 1), i))
        .collect();
    system.load_direct(&data);
    system.set_replication(2).unwrap();
    system
}

/// An export refills the arrays of the export before last only once no one
/// holds that snapshot.  Every third export is pinned, like a reader that
/// has not refreshed, beside the reference taken at that moment; each pin
/// blocks the spare of the export two later, which must then write into
/// fresh arrays.  Every export must equal the reference, and after all the
/// churn and exports that follow, every pinned one must still equal its own.
#[test]
fn exports_never_refill_a_snapshot_that_is_still_held() {
    let mut system = bulk_baton(2_000, 20_000);
    let mut rng = SimRng::seeded(51);
    let mut pinned = Vec::new();
    for export in 0..30 {
        let domain = system.domain();
        match rng.index(3) {
            0 => system.join_random().map(drop),
            1 => system.leave_random().map(drop),
            _ => system
                .insert(rng.uniform_u64(domain.low(), domain.high()), 0)
                .map(drop),
        }
        .unwrap();
        let snapshot = system.build_routing_snapshot();
        let reference = reference_baton(&system);
        // Exports 2, 5, 8, … find their spare pinned.
        assert!(snapshot == reference, "export {export} differs");
        if export % 3 == 0 {
            pinned.push((export, snapshot, reference));
        }
    }
    for (export, snapshot, reference) in &pinned {
        assert!(snapshot == reference, "pinned export {export} changed");
    }
}

#[test]
fn export_of_fifty_thousand_peers_is_well_formed() {
    const N: usize = 50_000;
    const ITEMS: u64 = 500_000;
    let system = bulk_baton(N, ITEMS);
    let snapshot = system.build_routing_snapshot();
    assert_eq!(snapshot.slots(), N);
    assert_eq!(snapshot.total_items(), ITEMS);
    assert_eq!(check_export(&snapshot), Ok(()));
    for slot in 0..N {
        assert_eq!(snapshot.replicas(slot).len(), 1, "k = 2");
    }
    // Parent, children, adjacents and two O(log N) routing tables per peer.
    let links: usize = (0..N).map(|slot| snapshot.links(slot).count()).sum();
    assert!(links > 20 * N, "{links} links");
}

/// The README's N = 100,000 export times come from this test:
/// `cargo test -q --release -p baton-tests --test snapshot_export --
/// --ignored --nocapture`.  It times full exports (each after
/// `set_replication`, which makes the next export rebuild every slot) and
/// patched exports (each after one join and one leave), prints both
/// medians and asserts no wall-clock bound.
#[test]
#[ignore = "N = 100,000 peers with 1,000,000 items: run in release"]
fn export_of_a_hundred_thousand_peers_equals_the_reference() {
    const N: usize = 100_000;
    const ITEMS: u64 = 1_000_000;
    const EXPORTS: usize = 21;
    /// Times `EXPORTS` exports of `system`, each after `churn`, and keeps
    /// the last one in `snapshot`.
    fn timed(
        system: &mut BatonSystem,
        snapshot: &mut RoutingSnapshot,
        churn: fn(&mut BatonSystem),
    ) -> Vec<f64> {
        let mut ms = Vec::with_capacity(EXPORTS);
        for _ in 0..EXPORTS {
            churn(system);
            let start = Instant::now();
            let next = system.build_routing_snapshot();
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            // The previous export is let go after the next one is built, as
            // by a publisher: the export after refills its arrays.
            *snapshot = next;
        }
        ms.sort_by(f64::total_cmp);
        ms
    }
    let mut system = bulk_baton(N, ITEMS);
    let mut snapshot = system.build_routing_snapshot();
    let full = timed(&mut system, &mut snapshot, |system| {
        system.set_replication(2).unwrap();
    });
    assert!(snapshot == reference_baton(&system), "full export differs");
    let patched = timed(&mut system, &mut snapshot, |system| {
        system.join_random().unwrap();
        system.leave_random().unwrap();
    });
    assert_eq!(snapshot.slots(), N);
    assert_eq!(snapshot.total_items(), ITEMS);
    assert_eq!(check_export(&snapshot), Ok(()));
    assert!(
        snapshot == reference_baton(&system),
        "patched export differs"
    );
    for (what, ms) in [("full", full), ("patched", patched)] {
        println!(
            "{what} export of {N} peers with {ITEMS} items: median {:.1} ms (min {:.1}, max {:.1}) over {EXPORTS} exports",
            ms[EXPORTS / 2],
            ms[0],
            ms[EXPORTS - 1]
        );
    }
}
