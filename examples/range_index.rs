//! A distributed time-series index: the workload the paper's introduction
//! motivates — range queries over ordered data that a DHT cannot serve.
//!
//! A fleet of peers indexes event timestamps (seconds since an epoch).  The
//! application asks questions like "which events happened in this hour?",
//! which map to range queries over the overlay.
//!
//! ```text
//! cargo run -p baton-examples --example range_index
//! ```

use baton_core::{BatonConfig, BatonSystem, KeyRange, LoadBalanceConfig, Overlay};
use baton_net::SimRng;

/// One simulated day of events, one event every few seconds.
const DAY: u64 = 86_400;

fn main() {
    // Timestamps of one day live in [0, 86400); configure the overlay's key
    // domain accordingly instead of using the paper's [1, 10^9) default.
    let config = BatonConfig::default()
        .with_domain(KeyRange::new(0, DAY))
        .with_load_balance(LoadBalanceConfig::for_average_load(600));
    let mut overlay = BatonSystem::build(config, 7, 48).expect("build the overlay");
    println!(
        "indexing one day of events across {} peers (height {})",
        overlay.node_count(),
        overlay.height()
    );

    // Ingest events: bursty around "business hours" to make it interesting.
    let mut rng = SimRng::seeded(99);
    let mut total = 0u64;
    for event_id in 0..20_000u64 {
        let hour = if rng.chance(0.7) {
            9 + rng.uniform_u64(0, 9) // 09:00–17:59
        } else {
            rng.uniform_u64(0, 24)
        };
        let timestamp = hour * 3600 + rng.uniform_u64(0, 3600);
        overlay.insert(timestamp, event_id).expect("ingest event");
        total += 1;
    }
    println!("ingested {total} events");

    // Hourly aggregation: one range query per hour.
    println!("\n  hour | events | messages | nodes scanned");
    println!("  -----+--------+----------+--------------");
    let mut total_messages = 0u64;
    for hour in 0..24u64 {
        let window = KeyRange::new(hour * 3600, (hour + 1) * 3600);
        let report = overlay.search_range(window).expect("hourly range query");
        total_messages += report.messages;
        if hour % 3 == 0 || (9..18).contains(&hour) {
            println!(
                "  {hour:>4} | {:>6} | {:>8} | {:>13}",
                report.matches.len(),
                report.messages,
                report.nodes_visited
            );
        }
    }
    println!(
        "\n24 hourly range queries cost {total_messages} messages in total \
         ({:.1} per query, log2 N = {:.1})",
        total_messages as f64 / 24.0,
        (overlay.node_count() as f64).log2()
    );

    // Point lookup: "what happened at exactly 12:34:56?"
    let probe = 12 * 3600 + 34 * 60 + 56;
    let exact = overlay.search_exact(probe).expect("point query");
    println!(
        "point query at t={probe}: {} event(s), {} messages",
        exact.matches.len(),
        exact.messages
    );

    baton_core::validate(&overlay).expect("overlay consistent");
}
