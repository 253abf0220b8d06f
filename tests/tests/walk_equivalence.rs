//! Walk equivalence under failures: the `locate_owner` walk materialises a
//! hop's §IV-A candidate list only when its first candidate turns out dead
//! or visited, and that laziness must be invisible — every message, bounce,
//! detour and hop number has to match the walk that built the full list at
//! every hop.  The totals below were recorded on the always-materialising
//! walk (the commit before the lazy walk) and are pinned here: 5,000 exact
//! and 1,000 range queries on a seeded 2,000-node overlay with 0 %, 5 % and
//! 20 % of the peers failed silently, at k = 1 and k = 2 (one test per
//! scenario, so they run in parallel).
//!
//! At k = 1 a walk ends at its first bounce off the key's dead owner
//! instead of sweeping the live graph (~8,000 messages) towards the same
//! `Err`.  The answer fields — `messages`, `hops`, `nodes_visited`,
//! `matches`, `errors`, `owner_xor` — are still the sweeping walk's; only
//! `sent` and `failed_deliveries`, which also count the messages of failed
//! walks, dropped.  That made the k = 1 20 % scenario cheap enough to run
//! at full size (its sweeping walk sent 24 M messages).  The k = 2 20 %
//! scenario still runs a tenth of the queries: a key whose every holder
//! is dead is still swept for.

use baton_core::{BatonConfig, BatonSystem, KeyRange};
use baton_net::{Overlay, SimRng};

/// Everything a walk can observably change, summed over one scenario.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    messages: u64,
    hops: u64,
    nodes_visited: u64,
    matches: u64,
    sent: u64,
    failed_deliveries: u64,
    errors: u64,
    owner_xor: u64,
}

fn run(replication: usize, failed_percent: usize, exact: u64, ranges: u64) -> Totals {
    let mut system = BatonSystem::build(BatonConfig::default(), 0xBA70, 2_000).expect("build");
    system.set_replication(replication).expect("k within 1..=3");
    let mut rng = SimRng::seeded(0x3A1C + failed_percent as u64);
    let domain = system.domain();
    // Heavy duplication (20,000 draws over 5,000 distinct keys) so the
    // matched multiplicities exercise the store as well as the walk.
    let pool: Vec<u64> = (0..5_000)
        .map(|_| rng.uniform_u64(domain.low(), domain.high()))
        .collect();
    let data: Vec<(u64, u64)> = (0..20_000u64)
        .map(|value| (pool[rng.index(pool.len())], value))
        .collect();
    system.load_direct(&data);

    let mut peers = system.peers().to_vec();
    rng.shuffle(&mut peers);
    let (dead, live) = peers.split_at(peers.len() * failed_percent / 100);
    for peer in dead {
        system.fail_silently(*peer).expect("alive member");
    }

    let mut totals = Totals::default();
    for query in 0..exact {
        let issuer = live[rng.index(live.len())];
        // Half the queries hit stored keys, half land anywhere.
        let key = if query % 2 == 0 {
            pool[rng.index(pool.len())]
        } else {
            rng.uniform_u64(domain.low(), domain.high())
        };
        match system.search_exact_from(issuer, key) {
            Ok(report) => {
                totals.messages += report.messages;
                totals.hops += u64::from(report.hops);
                totals.matches += report.matches.len() as u64;
                totals.owner_xor ^= report.owner.raw().wrapping_mul(query + 1);
            }
            Err(_) => totals.errors += 1,
        }
    }
    let width = (domain.high() - domain.low()) / 400;
    for _ in 0..ranges {
        let issuer = live[rng.index(live.len())];
        let low = rng.uniform_u64(domain.low(), domain.high() - width);
        match system.search_range_from(issuer, KeyRange::new(low, low + width)) {
            Ok(report) => {
                totals.messages += report.messages;
                totals.nodes_visited += report.nodes_visited as u64;
                totals.matches += report.matches.len() as u64;
            }
            Err(_) => totals.errors += 1,
        }
    }
    // Network-wide counters also cover the walks that ended in `Err`.
    totals.sent = system.stats().total_sent();
    totals.failed_deliveries = system.stats().total_failed();
    totals
}

#[test]
fn k1_healthy() {
    assert_eq!(run(1, 0, 5_000, 1_000), PINNED_K1_HEALTHY);
}

#[test]
fn k1_5_percent_failed() {
    assert_eq!(run(1, 5, 5_000, 1_000), PINNED_K1_5PCT);
}

#[test]
fn k1_20_percent_failed() {
    assert_eq!(run(1, 20, 5_000, 1_000), PINNED_K1_20PCT);
}

#[test]
fn k2_healthy() {
    assert_eq!(run(2, 0, 5_000, 1_000), PINNED_K2_HEALTHY);
}

#[test]
fn k2_5_percent_failed() {
    assert_eq!(run(2, 5, 5_000, 1_000), PINNED_K2_5PCT);
}

#[test]
fn k2_20_percent_failed() {
    assert_eq!(run(2, 20, 500, 100), PINNED_K2_20PCT);
}

/// Field order: messages, hops, nodes_visited, matches, sent,
/// failed_deliveries, errors, owner_xor.
const fn pinned(t: [u64; 8]) -> Totals {
    Totals {
        messages: t[0],
        hops: t[1],
        nodes_visited: t[2],
        matches: t[3],
        sent: t[4],
        failed_deliveries: t[5],
        errors: t[6],
        owner_xor: t[7],
    }
}

// No failure, no failover: k = 2 must cost exactly what k = 1 costs.
const PINNED_K1_HEALTHY: Totals = pinned([40_943, 30_081, 5_777, 60_002, 113_279, 0, 0, 7_801_837]);
const PINNED_K2_HEALTHY: Totals = PINNED_K1_HEALTHY;
const PINNED_K1_5PCT: Totals = pinned([
    41_494, 30_633, 3_408, 54_642, 114_141, 2_335, 57, 10_938_532,
]);
const PINNED_K1_20PCT: Totals = pinned([
    27_345, 17_438, 1_365, 23_924, 128_670, 16_703, 2_908, 10_606_598,
]);
const PINNED_K2_5PCT: Totals =
    pinned([44_013, 30_909, 5_701, 59_212, 123_387, 5_570, 4, 2_154_178]);
const PINNED_K2_20PCT: Totals = pinned([4_924, 2_874, 219, 4_537, 773_384, 510_446, 92, 821_768]);
