//! The serve tier's greedy next hop, held to the scalar loop it replaced.
//!
//! [`RoutingSnapshot::next_hop`] takes the minimum placement distance over a
//! slot's link targets in one pass and then the first target at it.  The
//! reference below is the loop it replaced, written against the public
//! [`RoutingSnapshot::links`]: it keeps the first link whose distance is the
//! smallest improving one and teleports to the target when none improves.
//! The two must pick the same next slot for every `(current, to)` pair of
//! every snapshot the four standard overlays export — join-built, loaded,
//! after leave/join churn, and for BATON at k = 2 with a deferred-failure
//! victim, so dead slots are routed through — and on hand-built segments
//! for each tie, wrap and teleport case.  Every partition export must end
//! at its domain's high.
//!
//! The last test pins the [`ServeCounters`] of one seeded exact and one
//! seeded range `run_serve` over each overlay's snapshot: every field the
//! read path reports must stay bit-identical across a change to it.
//!
//! Release runs three build seeds; debug runs one.

use std::sync::Arc;

use baton_net::serve::{ExactPlacement, RoutingSnapshot, ServeCounters, SnapshotBuilder};
use baton_net::{LinkKind, RepairPolicy, SimRng, SimTime, SnapshotCell};
use baton_sim::{standard_overlays, Profile};
use baton_workload::{run_serve, ServeConfig, DOMAIN_HIGH, DOMAIN_LOW};

const PEERS: usize = 200;

const SEEDS: &[u64] = if cfg!(debug_assertions) {
    &[2005]
} else {
    &[1, 7, 2005]
};

/// The greedy step the kernel replaced: the first link among those that
/// shrink the placement distance the most, or the target itself when no
/// link shrinks it.
fn reference_next_hop(snapshot: &RoutingSnapshot, current: usize, to: usize) -> usize {
    let n = snapshot.slots();
    let distance = |a: usize, b: usize| -> usize {
        if snapshot.range_supported() {
            a.abs_diff(b)
        } else {
            (b + n - a) % n
        }
    };
    let remaining = distance(current, to);
    let mut best: Option<(usize, usize)> = None;
    for (target, _) in snapshot.links(current) {
        let d = distance(target, to);
        if d < remaining && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, target));
        }
    }
    best.map_or(to, |(_, target)| target)
}

/// The snapshots one overlay exports at `seed`: after the join-by-join
/// build and its inserts, after leave/join churn and, for BATON at k = 2,
/// with one victim failed and left unrepaired.
fn exported(series: &str, seed: u64) -> Vec<RoutingSnapshot> {
    let spec = standard_overlays()
        .into_iter()
        .find(|spec| spec.series == series)
        .expect("registered overlay");
    let mut overlay = spec.build(&Profile::smoke(), PEERS, seed);
    let baton = series == "BATON";
    if baton {
        overlay.set_replication(2).expect("k = 2");
    }
    let mut rng = SimRng::seeded(seed ^ 0x4E47);
    for i in 0..2_000 {
        let key = rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH - 1);
        overlay.insert(key, i).expect("insert");
    }
    let mut snapshots = vec![overlay.routing_snapshot().expect("snapshot")];
    for round in 0..40u64 {
        if rng.uniform_u64(0, 2) == 0 {
            overlay.leave_random().expect("leave");
        } else {
            overlay.join_random().expect("join");
        }
        let key = rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH - 1);
        overlay.insert(key, round).expect("insert");
    }
    overlay.validate().expect("valid after churn");
    snapshots.push(overlay.routing_snapshot().expect("snapshot"));
    if baton {
        let victim = overlay.peers()[overlay.node_count() / 2];
        let policy = RepairPolicy {
            fast: SimTime::from_millis(10),
            slow: SimTime::from_millis(100),
        };
        overlay
            .fail_peer_deferred(victim, &policy)
            .expect("deferred failure");
        let snapshot = overlay.routing_snapshot().expect("snapshot");
        assert!((0..snapshot.slots()).any(|slot| !snapshot.alive(slot)));
        snapshots.push(snapshot);
    }
    snapshots
}

/// Asserts the kernel's pick on every `(current, to)` pair of `snapshot`.
fn assert_kernel_matches_the_reference(snapshot: &RoutingSnapshot, context: &str) {
    for current in 0..snapshot.slots() {
        for to in 0..snapshot.slots() {
            assert_eq!(
                snapshot.next_hop(current, to),
                reference_next_hop(snapshot, current, to),
                "{context}: from slot {current} to slot {to}"
            );
        }
    }
}

#[test]
fn next_hop_matches_the_scalar_loop_on_every_overlay_export() {
    for spec in standard_overlays() {
        for &seed in SEEDS {
            for (at, snapshot) in exported(spec.series, seed).iter().enumerate() {
                let context = format!("{} seed {seed} export {at}", spec.series);
                if snapshot.range_supported() {
                    // A key below the domain's high has an owner only when
                    // the partition's last bound reaches it.
                    let top = snapshot.domain().1 - 1;
                    assert!(
                        snapshot.owner_of(top).is_some(),
                        "{context}: short partition"
                    );
                }
                assert_kernel_matches_the_reference(snapshot, &context);
            }
        }
    }
}

/// Eight slots under `placement`; only slot `from` has links, `links` in
/// emission order.
fn hand_built(
    placement: ExactPlacement,
    from: usize,
    links: &[(usize, LinkKind)],
) -> RoutingSnapshot {
    let mut b = SnapshotBuilder::new(placement, (0, 800));
    for slot in 0..8u32 {
        b.push_slot(slot, 100 * u64::from(slot + 1), true);
        b.seal_slot();
    }
    for &(target, kind) in links {
        b.link(from, target, kind);
    }
    b.finish()
}

#[test]
fn next_hop_keeps_the_first_link_on_hand_built_segments() {
    use LinkKind::{Adjacent, Finger, RoutingTable};
    let partition = ExactPlacement::DomainPartition;
    // From slot 0 to slot 4: targets at 4 - 2 and 4 + 2 tie; the first
    // emitted wins in either order.
    let low_first = hand_built(partition, 0, &[(2, RoutingTable), (6, Adjacent)]);
    assert_eq!(low_first.next_hop(0, 4), 2);
    let high_first = hand_built(partition, 0, &[(6, Adjacent), (2, RoutingTable)]);
    assert_eq!(high_first.next_hop(0, 4), 6);
    // One target listed twice under two kinds, tied with a later one.
    let twice = hand_built(
        partition,
        0,
        &[
            (1, Adjacent),
            (3, RoutingTable),
            (3, Adjacent),
            (5, RoutingTable),
        ],
    );
    assert_eq!(twice.next_hop(0, 4), 3);
    // No link beats slot 3's own distance to 4: the teleport hop.  Slot 0's
    // segment is empty, which teleports too.
    let stuck = hand_built(partition, 3, &[(1, Adjacent), (5, Adjacent)]);
    assert_eq!(stuck.next_hop(3, 4), 4);
    assert_eq!(stuck.next_hop(0, 4), 4);
    // Ring wrap-around, `to < current`: from 6 to 2 the forward distance
    // is 4; 7 (3), 0 (2) and 1 (1) improve, 5 (5) and 3 (7) do not.
    let ring = ExactPlacement::HashedRing;
    let wrap = hand_built(
        ring,
        6,
        &[
            (5, Finger),
            (3, Finger),
            (7, Finger),
            (1, Finger),
            (0, Finger),
        ],
    );
    assert_eq!(wrap.next_hop(6, 2), 1);
    let backward = hand_built(ring, 6, &[(5, Finger), (3, Finger)]);
    assert_eq!(backward.next_hop(6, 2), 2);
    for snapshot in [&low_first, &high_first, &twice, &stuck, &wrap, &backward] {
        assert_kernel_matches_the_reference(snapshot, "hand-built");
    }
}

/// `(queries, matches, hops, slots_swept, failover, unavailable, rejected,
/// checksum)` of a run.
fn fields(c: &ServeCounters) -> [u64; 8] {
    [
        c.queries,
        c.matches,
        c.hops,
        c.slots_swept,
        c.failover,
        c.unavailable,
        c.rejected,
        c.checksum,
    ]
}

/// `(series, exact run, range run)`, recorded before the next-hop kernel
/// replaced the scalar loop.
const PINNED: [(&str, [u64; 8], [u64; 8]); 4] = [
    (
        "BATON",
        [4096, 0, 13842, 0, 4, 0, 0, 9426194329566392329],
        [1024, 2132, 3649, 1231, 2, 0, 0, 1381652973062330629],
    ),
    (
        "Chord",
        [4096, 0, 12973, 0, 0, 0, 0, 4659054522087000095],
        [1024, 0, 0, 0, 0, 0, 1024, 0],
    ),
    (
        "Multiway tree",
        [4096, 0, 36153, 0, 0, 0, 0, 15745917005668219374],
        [1024, 2132, 9048, 1219, 0, 0, 0, 8311460788736735245],
    ),
    (
        "D3-Tree",
        [4096, 0, 23762, 0, 0, 0, 0, 8221141557504795044],
        [1024, 2132, 6012, 1217, 0, 0, 0, 9639501932536774787],
    ),
];

#[test]
fn serve_counters_are_pinned_on_every_overlay() {
    for (series, exact_pin, range_pin) in PINNED {
        // After churn; BATON's with its dead victim, so failovers count.
        let snapshot = exported(series, 2005).pop().expect("snapshots");
        let cell = Arc::new(SnapshotCell::new(snapshot));
        let exact = run_serve(&cell, &ServeConfig::exact(4_096, 2, 0x5E4E));
        assert_eq!(fields(&exact.counters), exact_pin, "{series}: exact run");
        let span = (DOMAIN_HIGH - DOMAIN_LOW) / 1_000;
        let range = run_serve(&cell, &ServeConfig::range(1_024, 2, 0x4A4E, span));
        assert_eq!(fields(&range.counters), range_pin, "{series}: range run");
    }
}
