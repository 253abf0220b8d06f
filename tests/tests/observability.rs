//! Observability integration tests: the route recorder's spans must agree
//! with the [`baton_net::MessageStats`] accounting (trace ↔ stats oracle),
//! the recorder's ring buffer must bound memory under long runs, and the
//! per-class detour split (`messages == primary + detour`) must hold with
//! and without failures, and each overlay's registered link kinds must be
//! exactly the kinds its route recorder sees.  The JSON reader behind
//! `--check-trace` must answer malformed input with an error, not a panic.

use baton_core::{BatonConfig, BatonSystem};
use baton_net::{LatencyModel, LinkKind, Overlay, SimRng, SimTime, TraceConfig};
use baton_sim::{scenario, standard_overlays, Profile};
use baton_workload::{runner, QueryWorkload};

/// The operation-class label each overlay's exact-match search retires
/// under (the label its `begin_op` call uses).
fn search_class(series: &str) -> &'static str {
    match series {
        "BATON" => "search.exact",
        "Chord" => "chord.search",
        "Multiway tree" => "mtree.search",
        "D3-Tree" => "d3.search",
        other => panic!("unknown overlay series {other}"),
    }
}

/// Total retired messages across every class aggregate.
fn retired_messages(overlay: &dyn Overlay) -> u64 {
    overlay.stats().classes().map(|c| c.messages_sum()).sum()
}

/// Trace ↔ stats oracle: with sampling 1 and ample capacity, the recorder
/// captures one span per exact-match query on every overlay, the spans'
/// hop counts reconstruct exactly the message totals `MessageStats`
/// retires, and every span's timestamps are frontier-ordered under a
/// non-zero latency model.
#[test]
fn trace_spans_reconcile_with_message_stats_on_every_overlay() {
    let profile = Profile::smoke();
    let data: Vec<(u64, u64)> = (0..200u64).map(|i| (1 + i * 4_999_999, i)).collect();
    for spec in standard_overlays() {
        let mut overlay = spec.build(&profile, 60, 99);
        runner::bulk_load(&mut *overlay, &data).expect("load");
        overlay.set_latency_model(LatencyModel::log_normal(SimTime::from_millis(5), 0.4, 5));
        overlay.stats_mut().retire_finished();
        let before = retired_messages(&*overlay);

        let workload = QueryWorkload::paper().scaled(0.05);
        let exact = workload.exact(&mut SimRng::seeded(4242));
        overlay.set_trace(TraceConfig::new(exact.len().max(1)));
        let outcome = runner::run_queries(&mut *overlay, &exact).expect("queries");
        overlay.stats_mut().retire_finished();
        let buffer = overlay.take_trace().expect("trace was installed");
        let after = retired_messages(&*overlay);

        // One span per executed query, none lost to sampling or eviction.
        assert_eq!(
            buffer.len() as u64,
            outcome.exact_executed,
            "{}: span count != executed queries",
            spec.series
        );
        assert_eq!(buffer.sampled(), buffer.ops_seen(), "{}", spec.series);
        assert_eq!(buffer.evicted(), 0, "{}", spec.series);

        // The spans reconstruct exactly the message count the stats
        // retired over the same window.
        let traced: u64 = buffer.spans().map(|s| s.message_count()).sum();
        assert_eq!(
            traced,
            after - before,
            "{}: traced hops != retired messages",
            spec.series
        );

        let class = search_class(spec.series);
        for span in buffer.spans() {
            assert_eq!(span.class, class, "{}: unexpected span class", spec.series);
            let finished = span
                .finished_at
                .unwrap_or_else(|| panic!("{}: span left open", spec.series));
            assert!(finished >= span.started_at, "{}", spec.series);
            // Frontier order: send times never regress within an op, and
            // a hop arrives no earlier than it was sent.
            let mut frontier = span.started_at;
            for hop in &span.hops {
                assert!(
                    hop.sent_at >= frontier,
                    "{}: frontier regressed in op {}",
                    spec.series,
                    span.op
                );
                assert!(hop.arrive_at >= hop.sent_at, "{}", spec.series);
                frontier = hop.sent_at;
            }
        }
    }
}

/// The recorder's ring buffer bounds memory under a long open-loop run:
/// the scenario engine drives far more operations than the configured
/// capacity, yet the buffer never holds more than `capacity` spans and
/// counts the overflow as evictions.
#[test]
fn ring_buffer_eviction_bounds_memory_under_an_open_loop_run() {
    let capacity = 8;
    let profile = Profile::smoke();
    let (_, traces) = scenario::run_plan(
        &profile,
        &scenario::specs::latency_under_churn_plan(&profile),
        &standard_overlays(),
        1,
        Some(TraceConfig::new(capacity)),
    );
    assert!(!traces.is_empty());
    for (overlay, buffer) in &traces {
        assert!(
            buffer.len() <= capacity,
            "{overlay}: {} spans exceed capacity {capacity}",
            buffer.len()
        );
        assert!(
            buffer.evicted() > 0,
            "{overlay}: run too short to overflow the buffer"
        );
        // Every sampled operation is accounted for: retained or evicted.
        assert_eq!(
            buffer.len() as u64 + buffer.evicted(),
            buffer.sampled(),
            "{overlay}: spans leaked"
        );
    }
}

/// Sampling keeps observation cost proportional: a 1-in-3 modulus records
/// about a third of the operations, deterministically.
#[test]
fn sampling_modulus_thins_the_recorded_spans() {
    let profile = Profile::smoke();
    let (_, traces) = scenario::run_plan(
        &profile,
        &scenario::specs::latency_under_churn_plan(&profile),
        &standard_overlays(),
        1,
        Some(TraceConfig::default().with_sample(3)),
    );
    for (overlay, buffer) in &traces {
        assert!(buffer.ops_seen() > 0, "{overlay}: no ops observed");
        assert!(
            buffer.sampled() < buffer.ops_seen(),
            "{overlay}: sampling recorded everything"
        );
        assert!(
            buffer.sampled() <= buffer.ops_seen() / 3 + 1,
            "{overlay}: sampled {} of {} ops at modulus 3",
            buffer.sampled(),
            buffer.ops_seen()
        );
    }
}

/// Regression test for the per-class detour split: `messages_sum ==
/// primary_hops + detour_hops` always holds, a healthy run charges zero
/// detour hops, and with an unrepaired failure the recovery hops land in
/// `detour_hops` — in exact agreement with the route recorder's per-span
/// charge.
#[test]
fn detour_accounting_splits_primary_and_recovery_hops() {
    let mut overlay = BatonSystem::build(BatonConfig::default(), 11, 150).expect("build");
    let keys: Vec<u64> = (0..100u64).map(|i| 1 + i * 9_999_991).collect();
    for (i, key) in keys.iter().enumerate() {
        overlay.insert(*key, i as u64).unwrap();
    }

    // Healthy run: every hop is first-try routing.
    for key in &keys {
        overlay.search_exact(*key).unwrap();
    }
    overlay.stats_mut().retire_finished();
    let healthy = overlay
        .stats()
        .class_stats("search.exact")
        .expect("searches retired")
        .clone();
    assert_eq!(
        healthy.messages_sum(),
        healthy.primary_hops() + healthy.detour_hops()
    );
    assert_eq!(
        healthy.detour_hops(),
        0,
        "a healthy run must charge no detour hops"
    );

    // Fail one internal node silently: live-owned keys stay reachable
    // (paper §III-D) but some routes must bounce off the hole and detour.
    let mut peers = overlay.peers().to_vec();
    peers.sort_unstable();
    let victim = peers
        .iter()
        .copied()
        .find(|p| {
            let node = overlay.node(*p).unwrap();
            !overlay.links(*p).unwrap().is_leaf() && !node.is_root()
        })
        .expect("internal node exists");
    let victim_range = overlay.node(victim).unwrap().range;
    overlay.fail_silently(victim).unwrap();
    let issuer = peers.iter().copied().find(|p| *p != victim).unwrap();

    Overlay::set_trace(&mut overlay, TraceConfig::new(keys.len()));
    for key in &keys {
        if victim_range.contains(*key) {
            continue; // owned by the dead node: legitimately unreachable
        }
        overlay.search_exact_from(issuer, *key).unwrap();
    }
    overlay.stats_mut().retire_finished();
    let buffer = Overlay::take_trace(&mut overlay).expect("trace was installed");
    let degraded = overlay
        .stats()
        .class_stats("search.exact")
        .expect("searches retired");

    let detour_delta = degraded.detour_hops() - healthy.detour_hops();
    assert_eq!(
        degraded.messages_sum(),
        degraded.primary_hops() + degraded.detour_hops()
    );
    assert!(
        detour_delta > 0,
        "routing around a dead internal node must charge detour hops"
    );
    // The trace charges the same hops to the detour as the stats do: the
    // bounce that opens the detour plus everything sent after it.
    let traced_detour: u64 = buffer.spans().map(|s| s.detour_count()).sum();
    assert_eq!(
        traced_detour, detour_delta,
        "span detour charge disagrees with ClassStats::detour_hops"
    );
}

/// The one JSON parser, fed damaged copies of every committed JSON
/// document: each strict prefix is an error, and 2,000 seeded byte
/// mutations per document (overwrite, delete, insert — up to four at once,
/// invalid UTF-8 included via lossy decoding) each return a value or an
/// error.  A panic anywhere fails the test.
#[test]
fn json_parser_never_panics_on_truncated_or_mutated_documents() {
    use baton_sim::json;

    let documents = [
        include_str!("../fixtures/fig8_smoke_seed.json"),
        include_str!("../fixtures/fig8_smoke_pre_d3tree.json"),
        include_str!("../fixtures/scenario_smoke_seed.json"),
        include_str!("../../BENCH_perf.json"),
    ];
    let mut rng = SimRng::seeded(0x150F_F022);
    for document in documents {
        json::parse(document).expect("committed documents parse");
        let complete = document.trim_end().len();
        for end in (0..complete).filter(|end| document.is_char_boundary(*end)) {
            assert!(
                json::parse(&document[..end]).is_err(),
                "a {end}-byte prefix parsed as a complete document"
            );
        }
        for _ in 0..2000 {
            let mut bytes = document.as_bytes().to_vec();
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(bytes.len());
                let byte = rng.uniform_u64(0, 256) as u8;
                match rng.index(3) {
                    0 => bytes[at] = byte,
                    1 => drop(bytes.remove(at)),
                    _ => bytes.insert(at, byte),
                }
            }
            let _ = json::parse(&String::from_utf8_lossy(&bytes));
        }
    }
}

/// The bounce path of the route recorder, byte for byte: unreplicated
/// `regional_failure` kills a whole region, so routes bounce off dead peers
/// (`delivered: false`) and detour around them.  The per-overlay bounce and
/// detour counts were first recorded on the parent of the commit that made
/// a message one `transmit` call, when a hop was recorded optimistically at
/// send time and patched on a bounce.  Chord, the multiway tree and the
/// D3-Tree still hold theirs: they record no bounce and no detour here.
/// BATON's moved from (185, 615), with the digest of the rendered JSONL,
/// when its k = 1 walk began to stop at the first bounce off a key's dead
/// owner: the sweep of the live graph that used to follow that bounce, with
/// its further bounces and detours, is gone.
#[test]
fn regional_failure_trace_pins_bounced_and_detour_hops() {
    let profile = Profile::smoke();
    let (_, traces) = scenario::run_plan(
        &profile,
        &scenario::specs::regional_failure_plan(&profile),
        &standard_overlays(),
        1,
        Some(TraceConfig::default()),
    );
    let counts: Vec<(&str, usize, usize)> = traces
        .iter()
        .map(|(name, buffer)| {
            let hops = || buffer.spans().flat_map(|s| &s.hops);
            let bounced = hops().filter(|h| !h.delivered).count();
            let detoured = hops().filter(|h| h.detour).count();
            (name.as_str(), bounced, detoured)
        })
        .collect();
    let digest = baton_sim::render_trace_jsonl(&traces)
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
    assert_eq!(
        (counts, digest),
        (
            vec![
                ("BATON", 46, 339),
                ("Chord", 0, 0),
                ("Multiway tree", 0, 0),
                ("D3-Tree", 0, 0),
            ],
            3193729915159139686
        )
    );
}

/// `--list`'s link-kind matrix is what the route recorder sees: every
/// registered scenario at smoke, traced in full, records on each overlay
/// exactly the kinds its `OverlaySpec::link_kinds` lists — none missing,
/// none unlisted.
#[test]
fn recorded_link_kinds_are_exactly_each_overlays_list() {
    let profile = Profile::smoke();
    let specs = standard_overlays();
    let mut hops = vec![[0u64; LinkKind::ALL.len()]; specs.len()];
    for scenario in scenario::all_scenarios() {
        let plan = (scenario.build)(&profile);
        let trace = Some(TraceConfig::new(usize::MAX));
        let (_, traces) = scenario::run_plan(&profile, &plan, &specs, 1, trace);
        for (overlay, buffer) in &traces {
            let at = specs.iter().position(|s| s.series == overlay).unwrap();
            for (total, count) in hops[at].iter_mut().zip(buffer.hop_counts_by_kind()) {
                *total += count;
            }
        }
    }
    for (spec, hops) in specs.iter().zip(&hops) {
        let recorded: Vec<LinkKind> = LinkKind::ALL
            .into_iter()
            .filter(|kind| hops[kind.index()] > 0)
            .collect();
        assert_eq!(recorded, spec.link_kinds, "{}", spec.series);
    }
}
