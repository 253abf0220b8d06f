//! End-to-end integration tests spanning the whole workspace: workload
//! generators drive the BATON overlay, the results are validated against the
//! structural invariants after every phase.

use baton_core::{validate, BatonConfig, BatonSystem, KeyRange, LoadBalanceConfig, Overlay};
use baton_net::SimRng;
use baton_workload::{ChurnEvent, ChurnWorkload, DatasetPlan, Query, QueryWorkload};

fn build(n: usize, seed: u64) -> BatonSystem {
    BatonSystem::build(BatonConfig::default(), seed, n).expect("build overlay")
}

#[test]
fn full_lifecycle_uniform_workload() {
    let mut overlay = build(120, 1);
    validate(&overlay).unwrap();

    // Bulk load with the workload crate's generator.
    let plan = DatasetPlan::paper_uniform().scaled(0.02);
    let mut rng = SimRng::seeded(11);
    let data = plan.generate(&mut rng, overlay.node_count());
    for (k, v) in &data {
        overlay.insert(*k, *v).unwrap();
    }
    assert_eq!(overlay.total_items(), data.len());
    validate(&overlay).unwrap();

    // Every inserted key is findable by an exact query from a random peer.
    for (k, v) in data.iter().take(200) {
        let report = overlay.search_exact(*k).unwrap();
        assert!(report.matches.contains(v), "lost value for key {k}");
    }

    // Range queries return exactly the keys in range, in order.
    let queries = QueryWorkload {
        range_queries: 20,
        range_selectivity: 0.01,
        ..QueryWorkload::paper()
    };
    for query in queries.ranges(&mut rng) {
        let Query::Range { low, high } = query else {
            continue;
        };
        let report = overlay.search_range(KeyRange::new(low, high)).unwrap();
        let expected: usize = data.iter().filter(|(k, _)| *k >= low && *k < high).count();
        assert_eq!(report.matches.len(), expected);
        let keys: Vec<u64> = report.matches.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "range results must be in key order");
    }
}

#[test]
fn churn_workload_preserves_structure_and_data() {
    let mut overlay = build(80, 2);
    let mut rng = SimRng::seeded(22);
    let data = DatasetPlan::paper_uniform()
        .scaled(0.01)
        .generate(&mut rng, overlay.node_count());
    for (k, v) in &data {
        overlay.insert(*k, *v).unwrap();
    }
    let total = overlay.total_items();

    let workload = ChurnWorkload {
        events: 150,
        join_fraction: 0.5,
        failure_fraction: 0.0,
    };
    for event in workload.events(&mut rng) {
        match event {
            ChurnEvent::Join => {
                overlay.join_random().unwrap();
            }
            ChurnEvent::Leave | ChurnEvent::Fail => {
                if overlay.node_count() > 2 {
                    overlay.leave_random().unwrap();
                }
            }
        }
    }
    validate(&overlay).unwrap();
    // Graceful churn never loses data.
    assert_eq!(overlay.total_items(), total);
}

#[test]
fn failures_lose_only_the_failed_nodes_data() {
    let mut overlay = build(60, 3);
    let mut rng = SimRng::seeded(33);
    let data = DatasetPlan::paper_uniform()
        .scaled(0.01)
        .generate(&mut rng, overlay.node_count());
    for (k, v) in &data {
        overlay.insert(*k, *v).unwrap();
    }
    let before = overlay.total_items();
    let mut lost = 0usize;
    for _ in 0..10 {
        let victim = overlay.random_peer().unwrap();
        let report = overlay.fail(victim).unwrap();
        lost += report.lost_items;
        validate(&overlay).unwrap();
    }
    assert_eq!(overlay.total_items() + lost, before);
    assert_eq!(overlay.node_count(), 50);
}

#[test]
fn skewed_load_balancing_keeps_every_value_reachable() {
    // 0.01 × 1000 = 10 values per node on average; thresholds sized for that
    // average so the Zipf hot spot (which receives ~10% of all inserts)
    // overloads its owner and triggers balancing.
    let avg = 10usize;
    let config = BatonConfig::default().with_load_balance(LoadBalanceConfig::for_average_load(avg));
    let mut overlay = BatonSystem::build(config, 4, 50).unwrap();
    let plan = DatasetPlan::paper_zipf().scaled(0.01);
    let mut rng = SimRng::seeded(44);
    let data = plan.generate(&mut rng, overlay.node_count());
    let mut balanced = 0u32;
    for (k, v) in &data {
        let report = overlay.insert(*k, *v).unwrap();
        if report.balance.is_some() {
            balanced += 1;
        }
    }
    validate(&overlay).unwrap();
    assert_eq!(overlay.total_items(), data.len());
    assert!(balanced > 0, "the skewed load never triggered balancing");
    // Spot-check reachability of the hot keys.
    for (k, v) in data.iter().take(300) {
        let report = overlay.search_exact(*k).unwrap();
        assert!(report.matches.contains(v));
    }
}

#[test]
fn domain_can_grow_through_out_of_range_inserts() {
    let config = BatonConfig::default().with_domain(KeyRange::new(1_000, 2_000));
    let mut overlay = BatonSystem::build(config, 5, 30).unwrap();
    overlay.insert(10, 1).unwrap();
    overlay.insert(5_000, 2).unwrap();
    validate(&overlay).unwrap();
    assert!(overlay.domain().contains(10));
    assert!(overlay.domain().contains(5_000));
    assert_eq!(overlay.search_exact(10).unwrap().matches, vec![1]);
    assert_eq!(overlay.search_exact(5_000).unwrap().matches, vec![2]);
}
