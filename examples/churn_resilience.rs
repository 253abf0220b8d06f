//! Churn and failure resilience: peers join, leave and crash while the
//! index keeps answering queries (paper §III-B/C/D).
//!
//! ```text
//! cargo run -p baton-examples --example churn_resilience
//! ```

use baton_core::{validate, BatonConfig, BatonSystem, Overlay};
use baton_net::SimRng;
use baton_workload::{ChurnEvent, ChurnWorkload};

fn main() {
    let mut overlay = BatonSystem::build(BatonConfig::default(), 2024, 150).expect("build");
    let mut rng = SimRng::seeded(31337);

    // Seed the index with data we will keep querying throughout the churn.
    let tracked: Vec<u64> = (0..200u64).map(|i| 1 + i * 4_999_999).collect();
    for (i, key) in tracked.iter().enumerate() {
        overlay.insert(*key, i as u64).expect("insert");
    }
    println!(
        "start: {} nodes, {} indexed values",
        overlay.node_count(),
        overlay.total_items()
    );

    // Apply a churn workload: half joins, and of the rest one third are
    // abrupt failures rather than graceful departures.
    let workload = ChurnWorkload {
        events: 120,
        join_fraction: 0.5,
        failure_fraction: 0.34,
    };
    let mut joins = 0u32;
    let mut leaves = 0u32;
    let mut failures = 0u32;
    let mut lost_items = 0usize;
    for event in workload.events(&mut rng) {
        match event {
            ChurnEvent::Join => {
                overlay.join_random().expect("join");
                joins += 1;
            }
            ChurnEvent::Leave => {
                if overlay.node_count() > 2 {
                    overlay.leave_random().expect("leave");
                    leaves += 1;
                }
            }
            ChurnEvent::Fail => {
                if overlay.node_count() > 2 {
                    let victim = overlay.random_peer().expect("non-empty");
                    let report = overlay.fail(victim).expect("failure recovery");
                    lost_items += report.lost_items;
                    failures += 1;
                }
            }
        }
        // The overlay must stay a valid balanced tree after every event.
        validate(&overlay).expect("invariants survive churn");
    }
    println!(
        "churn applied: {joins} joins, {leaves} graceful departures, {failures} failures \
         ({lost_items} items lost with failed peers — BATON does not replicate)"
    );
    println!(
        "after churn: {} nodes, height {}, {:.2}·log2 N",
        overlay.node_count(),
        overlay.height(),
        overlay.height() as f64 / (overlay.node_count() as f64).log2()
    );

    // Every tracked key still routes to a live owner; values survive unless
    // their node crashed.
    let mut surviving = 0usize;
    let mut total_messages = 0u64;
    for key in &tracked {
        let report = overlay.search_exact(*key).expect("query after churn");
        total_messages += report.messages;
        if !report.matches.is_empty() {
            surviving += 1;
        }
    }
    println!(
        "queried {} tracked keys: {} still present, avg {:.1} messages per query",
        tracked.len(),
        surviving,
        total_messages as f64 / tracked.len() as f64
    );
    assert!(surviving + lost_items >= tracked.len());
    println!("routing never broke — done.");
}
