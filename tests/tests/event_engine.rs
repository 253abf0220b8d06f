//! Tests for the virtual-time accounting of the simulation core (seeded
//! deterministic loops, matching the `property_churn` conventions):
//!
//! * under a regional latency model, per-operation frontiers and per-class
//!   latencies equal the values recorded on the parent of the commit that
//!   made a message one `transmit` call;
//! * the constant-zero latency model reproduces the pre-refactor seed
//!   figures *exactly* (golden-fixture comparison — the regression check of
//!   the count-only substrate's subsumption);
//! * every emitted latency series satisfies p50 ≤ p95 ≤ p99.

use baton_net::{LatencyModel, LinkKind, Overlay, RegionMap, SimNetwork, SimRng, SimTime};
use baton_sim::{figures, render_json, scenario, Profile};
use baton_workload::LatencySummary;

/// Regional latency, six operations begun at staggered arrivals, ten
/// interleaved rounds of one message each; four messages bounce off dead
/// peers.  The expected values were recorded on the parent commit by driving
/// its two-step surface, each send immediately followed by its delivery —
/// the only pattern any overlay used — and must read the same through
/// `transmit`.
#[test]
fn regional_latency_pins_op_frontiers_and_class_latency() {
    let mut net: SimNetwork = SimNetwork::with_latency(LatencyModel::regional(
        RegionMap::new(4, 0xBA70),
        LatencyModel::log_normal(SimTime::from_millis(5), 0.5, 9),
        LatencyModel::log_normal(SimTime::from_millis(60), 0.5, 8),
        Vec::new(),
    ));
    let peers: Vec<_> = (0..30).map(|_| net.add_peer()).collect();
    // Only the first 24 peers ever send; three of the rest are dead, so
    // four messages bounce (and still take wire time).
    for dead in [25, 26, 27] {
        net.fail_peer(peers[dead]);
    }
    let ops: Vec<_> = (0..6)
        .map(|i| {
            net.advance_to(SimTime::from_millis(3 * i));
            net.begin_op(if i % 2 == 0 { "lookup" } else { "update" })
        })
        .collect();
    for j in 0..10usize {
        for (i, op) in ops.iter().enumerate() {
            let from = peers[(i * 7 + j * 3) % 24];
            let to = peers[(i + j * 5) % peers.len()];
            net.transmit(*op, from, to, 1, LinkKind::Other, "probe")
                .expect("senders are alive");
        }
    }
    let frontiers: Vec<u64> = ops
        .iter()
        .map(|op| net.stats().op_frontier(op.id).expect("live").as_micros())
        .collect();
    for op in ops {
        net.finish_op(op);
    }
    let mean_us = |label: &str| {
        let stats = net.stats();
        let latencies: Vec<SimTime> = stats
            .ops()
            .filter(|(id, _)| stats.op_label(*id) == Some(label))
            .filter_map(|(_, op)| op.latency())
            .collect();
        let summary = LatencySummary::from_samples(&latencies).expect("finished");
        summary.mean.as_micros()
    };
    let means = (mean_us("lookup"), mean_us("update"));
    net.stats_mut().retire_finished();
    let class = |label: &str| {
        let stats = net.stats().class_stats(label).expect("class ran");
        (stats.retired(), stats.failed_deliveries())
    };
    assert_eq!(frontiers, [483163, 650106, 621451, 626360, 428059, 313343]);
    assert_eq!(means, (504891, 520936));
    assert_eq!(
        (class("lookup"), class("update"), net.now().as_micros()),
        ((3, 2), (3, 2), 650106)
    );
}

/// With the default constant-zero latency model, all nine Figure-8 drivers
/// reproduce the exact message-count series captured from the substrate
/// before the event-engine refactor (`tests/fixtures/fig8_smoke_seed.json`,
/// generated with `reproduce --profile smoke --json` at the seed commit).
#[test]
fn zero_latency_model_reproduces_the_seed_figures_exactly() {
    let fixture = include_str!("../fixtures/fig8_smoke_seed.json");
    let results = figures::run_all(&Profile::smoke(), &baton_sim::standard_overlays());
    let rendered = render_json(&results);
    assert_eq!(
        rendered.trim(),
        fixture.trim(),
        "figure output diverged from the pre-refactor seed fixture"
    );
}

/// Under the zero-latency model every operation completes with exactly zero
/// virtual latency — the count-only world is a special case of the event
/// engine, not an approximation.
#[test]
fn zero_latency_model_reports_zero_latencies() {
    let profile = Profile::smoke();
    for spec in baton_sim::standard_overlays() {
        let mut overlay = spec.build(&profile, 30, 11);
        overlay.search_exact(123_456_789).unwrap();
        overlay.join_random().unwrap();
        assert_eq!(overlay.now(), SimTime::ZERO, "{}", spec.series);
        let stats = overlay.stats();
        let latencies: Vec<SimTime> = stats.ops().filter_map(|(_, op)| op.latency()).collect();
        assert!(!latencies.is_empty(), "{} recorded no ops", spec.series);
        assert!(
            latencies.iter().all(|l| l.is_zero()),
            "{} leaked non-zero latency under the zero model",
            spec.series
        );
    }
}

/// Churn first, figures after: joins, graceful leaves and abrupt failures
/// punch holes into the dense peer-id space (dead slab slots that are never
/// reused), and the seeded measurements that follow must not notice.  The
/// message counts below were captured from the pre-slab (HashMap-backed)
/// substrate; the slab refactor must reproduce them bit-for-bit because
/// peer-id assignment and the sorted live-peer sampling order are unchanged.
#[test]
fn churned_overlay_reproduces_pinned_seeded_message_counts() {
    use baton_core::{BatonConfig, BatonSystem};

    let mut system = BatonSystem::build(BatonConfig::default(), 0xBA70, 60).expect("build");
    for _ in 0..12 {
        system.leave_random().expect("leave");
    }
    for _ in 0..8 {
        let victim = system.random_peer().expect("non-empty");
        system.fail(victim).expect("fail");
    }
    for _ in 0..20 {
        system.join_random().expect("join");
    }
    assert_eq!(system.node_count(), 60);
    baton_core::validate(&system).expect("post-churn invariants");

    let sent_before_queries = system.stats().total_sent();
    let mut search_messages = 0u64;
    for i in 0..100u64 {
        let key = 1 + (i * 9_999_991) % 999_999_998;
        search_messages += system.search_exact(key).expect("search").messages;
    }
    let mut range_messages = 0u64;
    for i in 0..20u64 {
        let low = 1 + (i * 49_999_999) % 900_000_000;
        range_messages += system
            .search_range(baton_core::KeyRange::new(low, low + 2_000_000))
            .expect("range")
            .messages;
    }
    let total_query_traffic = system.stats().total_sent() - sent_before_queries;
    assert_eq!(
        (search_messages, range_messages, total_query_traffic),
        (299, 67, 366),
        "seeded post-churn query traffic diverged from the pre-slab substrate"
    );
}

/// A long open-loop run retires finished operations into the per-class
/// streaming aggregates as it goes: when the run quiesces the live
/// per-operation window is empty — memory is bounded by the in-flight set,
/// not by the number of operations ever dispatched — while the begun-op
/// counter and the class aggregates keep the full history.
#[test]
fn open_loop_retires_finished_ops_into_bounded_aggregates() {
    use baton_core::{BatonConfig, BatonSystem};
    use baton_workload::{run_phased_with_metrics, FaultPlan, PhasedWorkload};

    let mut overlay = BatonSystem::build(BatonConfig::default(), 7, 40).expect("build");
    // Construction ran outside any runner, so its ops still sit in the live
    // window: this is the unbounded behaviour the runners retire away.
    let build_ops = overlay.stats().live_op_count();
    assert!(build_ops >= 39, "every join should still be live");

    let workload = PhasedWorkload::queries_only(SimTime::from_secs(120), 20.0);
    let mut rng = SimRng::seeded(0xFEED);
    let events = workload.schedule(&mut rng.derive(1));
    assert!(events.len() > 1500, "want a long run, got {}", events.len());
    let outcome = run_phased_with_metrics(
        &mut overlay,
        &events,
        &workload,
        &FaultPlan::none(),
        &mut rng,
        1,
        None,
    )
    .expect("run");
    assert_eq!(outcome.total_executed(), events.len() as u64);

    let stats = overlay.stats();
    assert_eq!(
        stats.live_op_count(),
        0,
        "the live op slab must drain once operations finish"
    );
    let retired: u64 = stats.classes().map(|class| class.retired()).sum();
    assert_eq!(retired, stats.next_op_id());
    let searches = stats.class_stats("search.exact").expect("searches ran");
    assert_eq!(searches.retired(), outcome.total_executed());
    assert!(searches.messages_sum() > 0);
    assert_eq!(stats.class_stats("join").expect("joins ran").retired(), 39);
}

/// p50 ≤ p95 ≤ p99 on every emitted latency series: the scenario report and
/// randomly generated sample sets.
#[test]
fn latency_percentiles_are_ordered_on_every_series() {
    // Random sample sets through the summary used by every report.
    for case in 0..100u64 {
        let mut rng = SimRng::seeded(0x9E4C + case);
        let samples: Vec<SimTime> = (0..rng.uniform_u64(1, 200))
            .map(|_| SimTime::from_micros(rng.uniform_u64(0, 10_000_000)))
            .collect();
        let summary = LatencySummary::from_samples(&samples).unwrap();
        assert!(
            summary.p50 <= summary.p95 && summary.p95 <= summary.p99 && summary.p99 <= summary.max,
            "case {case}: {summary:?}"
        );
        assert!(summary.mean <= summary.max && summary.count == samples.len());
    }
    // The actual emitted scenario series.
    let result =
        scenario::run_scenario("latency_under_churn", &Profile::smoke()).expect("registered");
    assert!(!result.series.is_empty());
    for series in &result.series {
        for class in &series.classes {
            assert!(
                class.p50_ms <= class.p95_ms && class.p95_ms <= class.p99_ms,
                "{}::{}: p50 {} p95 {} p99 {}",
                series.overlay,
                class.class,
                class.p50_ms,
                class.p95_ms,
                class.p99_ms
            );
        }
    }
}
