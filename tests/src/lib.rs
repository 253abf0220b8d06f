//! Cross-crate integration tests live under tests/tests/.  This library holds
//! what they share: the reference model every answer is checked against and
//! the one check of an overlay's answers against it ([`answers_like_the_model`]),
//! the after-every-op settle check, and the per-message views read from the
//! route recorder (the simulator's own accounting keeps only what a report
//! reads).  `range_oracle.rs`, `bulk_equivalence.rs` and `serve_oracle.rs`
//! run the model over every overlay, build path and read path on their own
//! inputs; `model_answers.rs` runs it through failures and churn.

use std::collections::{BTreeMap, BTreeSet};

use baton_net::serve::ServeCounters;
use baton_net::{Overlay, OverlayError, SimRng, SimTime, TraceBuffer};
use baton_sim::{standard_overlays, Profile};
use baton_workload::{KeyDistribution, KeyGenerator, DOMAIN_HIGH, DOMAIN_LOW};

/// The reference model: an ordered multiset of the stored keys, a
/// `BTreeMap` from key to the number of values stored under it.  It shares
/// no code with the overlays it checks.
#[derive(Clone, Debug, Default)]
pub struct Model {
    keys: BTreeMap<u64, usize>,
}

impl Model {
    /// Records one more value stored under `key`.
    pub fn insert(&mut self, key: u64) {
        *self.keys.entry(key).or_insert(0) += 1;
    }

    /// Removes one value stored under `key`; `false` when none is stored.
    pub fn delete(&mut self, key: u64) -> bool {
        let Some(count) = self.keys.get_mut(&key) else {
            return false;
        };
        *count -= 1;
        if *count == 0 {
            self.keys.remove(&key);
        }
        true
    }

    /// Values stored under `key`: the `matches` of an exact query.
    pub fn exact(&self, key: u64) -> usize {
        self.keys.get(&key).copied().unwrap_or(0)
    }

    /// Values stored under keys in `[low, high)`: the `matches` of a range
    /// query.  An inverted or empty span holds nothing.
    pub fn range(&self, low: u64, high: u64) -> usize {
        if low >= high {
            return 0;
        }
        self.keys.range(low..high).map(|(_, count)| count).sum()
    }

    /// Values stored in total.
    pub fn total(&self) -> usize {
        self.keys.values().sum()
    }
}

/// The check after any operation, answered or refused: the overlay's
/// invariants hold (`validate()`), and once finished ops are retired none
/// is left open — one left open would block stats retirement for the rest
/// of a run.
pub fn settled(overlay: &mut dyn Overlay, context: &str) {
    overlay
        .validate()
        .unwrap_or_else(|e| panic!("{context}: left the overlay inconsistent: {e}"));
    overlay.stats_mut().retire_finished();
    assert_eq!(
        overlay.stats().live_op_count(),
        0,
        "{context}: left an op open"
    );
}

/// One suite's inputs: the keys to store, the seed of the overlay that
/// stores them, and the queries asked of it — exact ones as (key, hint),
/// ranges as (low, high, hint), the hint being where a snapshot read starts.
pub struct Inputs {
    pub keys: Vec<u64>,
    pub build_seed: u64,
    pub exact: Vec<(u64, u64)>,
    pub ranges: Vec<(u64, u64, u64)>,
}

/// `count` uniform paper keys drawn from `seed`, then every `every`-th one
/// again, so multiplicities above one are answered too.
pub fn keys_with_repeats(seed: u64, count: usize, every: usize) -> Vec<u64> {
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut keys = generator.keys(&mut SimRng::seeded(seed), count);
    let repeats: Vec<u64> = keys.iter().copied().step_by(every).collect();
    keys.extend(repeats);
    keys
}

/// A seeded span of random width, clamped to the domain.
fn random_span(rng: &mut SimRng) -> (u64, u64) {
    let low = rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH);
    let width = rng.uniform_u64(1, (DOMAIN_HIGH - DOMAIN_LOW) / 4);
    (low, (low + width).min(DOMAIN_HIGH))
}

/// The range-oracle and bulk-equivalence inputs: exact queries on every
/// `exact_every`-th key plus 20 absent-or-present probes; the whole domain,
/// the smallest key alone, then 58 spans from seed `0x5EED` (the bulk
/// suite asked the first 39 of them).
pub fn ordered_inputs(key_seed: u64, count: usize, every: usize, exact_every: usize) -> Inputs {
    let keys = keys_with_repeats(key_seed, count, every);
    let mut hints = SimRng::seeded(0x417);
    let probes = (0..20u64).map(|probe| DOMAIN_LOW + probe * 49_999_333 + 7);
    let exact = (keys.iter().copied().step_by(exact_every).chain(probes))
        .map(|key| (key, hints.uniform_u64(0, u64::MAX)))
        .collect();
    let smallest = *keys.iter().min().expect("keys");
    let mut spans = SimRng::seeded(0x5EED);
    let ranges = [(DOMAIN_LOW, DOMAIN_HIGH), (smallest, smallest + 1)]
        .into_iter()
        .chain((0..58).map(|_| random_span(&mut spans)))
        .map(|(low, high)| (low, high, hints.uniform_u64(0, u64::MAX)))
        .collect();
    Inputs {
        keys,
        build_seed: 77,
        exact,
        ranges,
    }
}

/// The serve parity inputs: hinted exact queries on every 7th key plus 25
/// probes; six edge spans (whole domain, first key alone, top and bottom
/// edges, an empty span), then random spans, each span's hint drawn from
/// the span stream after it.
pub fn serve_inputs() -> Inputs {
    let keys = keys_with_repeats(0x5E4E_0AC1, 400, 9);
    let mut hints = SimRng::seeded(0x417);
    let probes = (0..25u64).map(|probe| DOMAIN_LOW + probe * 39_999_331 + 3);
    let exact = (keys.iter().copied().step_by(7).chain(probes))
        .map(|key| (key, hints.uniform_u64(0, u64::MAX)))
        .collect();
    let edges = [
        (DOMAIN_LOW, DOMAIN_HIGH),
        (keys[0], keys[0] + 1),
        (DOMAIN_HIGH - 1, DOMAIN_HIGH),
        (DOMAIN_LOW, DOMAIN_LOW + 1),
        (DOMAIN_LOW, DOMAIN_LOW),
        (DOMAIN_HIGH - 5, DOMAIN_HIGH),
    ];
    let mut spans = SimRng::seeded(0x5EED_2005);
    let ranges = (0..52)
        .map(|case| {
            let (low, high) = edges
                .get(case)
                .copied()
                .unwrap_or_else(|| random_span(&mut spans));
            (low, high, spans.uniform_u64(0, u64::MAX))
        })
        .collect();
    Inputs {
        keys,
        build_seed: 2005,
        exact,
        ranges,
    }
}

/// Asks every query of `inputs` twice — routed, and through a snapshot
/// exported now and checked by `RoutingSnapshot::validate` and
/// `RoutingSnapshot::check_ownership` — and checks
/// both answers against `model`.  An overlay
/// without range queries must refuse every span on both paths; one with
/// them answers an empty span (inverted, a point, above the domain) with
/// no match for no message.
pub fn check_answers(overlay: &mut dyn Overlay, model: &Model, inputs: &Inputs, context: &str) {
    assert_eq!(overlay.total_items(), model.total(), "{context}: total");
    let snapshot = overlay
        .routing_snapshot()
        .expect("every overlay exports a snapshot");
    assert_eq!(snapshot.validate(), Ok(()), "{context}: snapshot shape");
    assert_eq!(snapshot.check_ownership(), Ok(()), "{context}: ownership");
    let mut counters = ServeCounters::default();
    for &(key, hint) in &inputs.exact {
        let routed = overlay.search_exact(key).expect("exact").matches;
        let served = snapshot.exact(key, hint, &mut counters).matches as usize;
        let expected = model.exact(key);
        assert_eq!(
            (routed, served),
            (expected, expected),
            "{context}: exact {key} (routed, snapshot)"
        );
    }
    let ordered = overlay.capabilities().range_queries;
    assert_eq!(snapshot.range_supported(), ordered, "{context}");
    for &(low, high, hint) in &inputs.ranges {
        let served = snapshot.range(low, high, hint, &mut counters).matches as usize;
        if !ordered {
            let refused = overlay.search_range(low, high);
            assert!(
                matches!(refused, Err(OverlayError::Unsupported(_))),
                "{context}: range [{low}, {high}) answered {refused:?}"
            );
            assert_eq!(served, 0, "{context}: rejected range matched");
            continue;
        }
        let routed = overlay.search_range(low, high).expect("range").matches;
        let expected = model.range(low, high);
        assert_eq!(
            (routed, served),
            (expected, expected),
            "{context}: range [{low}, {high}) (routed, snapshot)"
        );
    }
    if ordered {
        for (low, high) in [(10, 5), (5, 5), (1_000_000_010, 1_000_000_020)] {
            let cost = overlay.search_range(low, high).expect("empty range");
            let answer = (cost.matches, cost.messages);
            assert_eq!(answer, (0, 0), "{context}: empty range [{low}, {high})");
        }
    } else {
        let rejected = inputs.ranges.len() as u64;
        assert_eq!(counters.rejected, rejected, "{context}: rejected");
    }
    settled(overlay, context);
}

/// The `(bulk_built, direct_load)` paths an overlay can be put through:
/// join-built or bulk-built, loaded through routed inserts or through the
/// zero-message direct load.
pub const EVERY_PATH: [(bool, bool); 4] =
    [(false, false), (false, true), (true, false), (true, true)];

/// The series an [`answers_like_the_model`] run reached: the range-capable
/// overlays, the bulk-built ones and the directly loaded ones.
#[derive(Debug, Default)]
pub struct Covered {
    pub ordered: BTreeSet<&'static str>,
    pub bulk: BTreeSet<&'static str>,
    pub direct: BTreeSet<&'static str>,
}

/// Stores `inputs.keys` in every standard overlay of 40 peers along each
/// `(bulk_built, direct_load)` path of `paths` (a bulk path only where the
/// spec registers a bulk constructor), then checks its answers against the
/// model ([`check_answers`]) before and after deleting every 13th key, each
/// delete removing exactly one value.  Only an overlay with a bulk
/// constructor takes a direct load, and that load sends no message.
pub fn answers_like_the_model(inputs: &Inputs, paths: &[(bool, bool)]) -> Covered {
    let profile = Profile::smoke();
    let mut covered = Covered::default();
    let data: Vec<(u64, u64)> = inputs.keys.iter().map(|key| (*key, *key)).collect();
    let mut loaded = Model::default();
    inputs.keys.iter().for_each(|key| loaded.insert(*key));
    for spec in standard_overlays() {
        for &(bulk, load_direct) in paths {
            if bulk && !spec.supports_bulk() {
                continue;
            }
            let build = if bulk { "bulk" } else { "join" };
            let load = if load_direct { "direct" } else { "routed" };
            let context = format!("{}, {build}-built, {load} load", spec.series);
            let mut overlay = if bulk {
                covered.bulk.insert(spec.series);
                spec.build_bulk(&profile, 40, inputs.build_seed)
            } else {
                spec.build(&profile, 40, inputs.build_seed)
            };
            if load_direct {
                let sent = overlay.stats().total_sent();
                let accepted = overlay.load_direct(&data);
                assert_eq!(accepted, spec.supports_bulk(), "{context}");
                if !accepted {
                    continue;
                }
                assert_eq!(overlay.stats().total_sent(), sent, "{context}: sent");
                covered.direct.insert(spec.series);
            } else {
                for (key, value) in &data {
                    overlay.insert(*key, *value).expect("insert");
                }
            }
            if overlay.capabilities().range_queries {
                covered.ordered.insert(spec.series);
            }
            let mut model = loaded.clone();
            check_answers(overlay.as_mut(), &model, inputs, &context);

            for key in inputs.keys.iter().step_by(13) {
                let removed = overlay.delete(*key).expect("delete").matches;
                assert_eq!(removed, 1, "{context}: delete {key}");
                assert!(model.delete(*key));
            }
            let context = format!("{context}, after deletes");
            check_answers(overlay.as_mut(), &model, inputs, &context);
        }
    }
    covered
}

/// Messages per protocol message kind ([`HopRecord::message`]) over the
/// recorder's retained spans, sorted by kind.
///
/// [`HopRecord::message`]: baton_net::HopRecord::message
pub fn messages_by_kind(buffer: &TraceBuffer) -> Vec<(&'static str, u64)> {
    let mut rows = BTreeMap::new();
    for hop in buffer.spans().flat_map(|span| &span.hops) {
        *rows.entry(hop.message).or_insert(0) += 1;
    }
    rows.into_iter().collect()
}

/// Virtual latency (`finished_at − started_at`) of every finished retained
/// span of operation class `class`, oldest first.
pub fn class_latencies(buffer: &TraceBuffer, class: &str) -> Vec<SimTime> {
    buffer
        .spans()
        .filter(|span| span.class == class)
        .filter_map(|span| span.finished_at.map(|at| at - span.started_at))
        .collect()
}
