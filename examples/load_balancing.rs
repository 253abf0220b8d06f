//! Load balancing under a skewed (Zipfian) workload: the §IV-D machinery in
//! action — adjacent-node migration, lightly loaded leaves re-joining next
//! to hot spots, and the restructuring shifts that keep the tree balanced.
//!
//! ```text
//! cargo run -p baton-examples --example load_balancing
//! ```

use baton_core::{validate, BalanceKind, BatonConfig, BatonSystem, LoadBalanceConfig, Overlay};
use baton_net::SimRng;
use baton_workload::{KeyDistribution, KeyGenerator};

fn max_and_avg_load(overlay: &BatonSystem) -> (usize, f64) {
    let loads: Vec<usize> = overlay
        .peers()
        .iter()
        .map(|&p| overlay.node(p).unwrap().load())
        .collect();
    let max = loads.iter().copied().max().unwrap_or(0);
    let avg = loads.iter().sum::<usize>() as f64 / loads.len().max(1) as f64;
    (max, avg)
}

fn run(label: &str, balancing: bool) {
    let inserts = 30_000u64;
    let nodes = 100usize;
    let expected_avg = inserts as usize / nodes;
    let lb = if balancing {
        LoadBalanceConfig::for_average_load(expected_avg)
    } else {
        LoadBalanceConfig::disabled()
    };
    let config = BatonConfig::default().with_load_balance(lb);
    let mut overlay = BatonSystem::build(config, 77, nodes).expect("build");

    let generator = KeyGenerator::paper(KeyDistribution::Zipf { theta: 1.0 });
    let mut rng = SimRng::seeded(555);
    let mut migrations = 0u64;
    let mut rejoins = 0u64;
    let mut balance_messages = 0u64;
    for i in 0..inserts {
        let key = generator.next_key(&mut rng);
        let report = overlay.insert(key, i).expect("insert");
        if let Some(balance) = report.balance {
            balance_messages += balance.messages;
            match balance.kind {
                BalanceKind::AdjacentMigration => migrations += 1,
                BalanceKind::LeafRejoin => rejoins += 1,
            }
        }
    }
    let (max, avg) = max_and_avg_load(&overlay);
    println!("--- {label} ---");
    println!("  inserted {inserts} Zipf(1.0) keys into {nodes} nodes");
    println!(
        "  max node load {max}  (average {avg:.0}, imbalance ×{:.1})",
        max as f64 / avg
    );
    if balancing {
        println!("  balancing actions: {migrations} adjacent migrations, {rejoins} leaf re-joins");
        println!(
            "  balancing overhead: {balance_messages} messages \
             ({:.4} per insert — the paper reports ~1 per 1500 inserts)",
            balance_messages as f64 / inserts as f64
        );
        let hist = overlay.balance_shift_histogram();
        println!("  shift-size distribution (nodes involved -> share):");
        for (size, count) in hist.iter() {
            println!(
                "    {size:>3} -> {:>5.1}%",
                100.0 * count as f64 / hist.total() as f64
            );
        }
    }
    validate(&overlay).expect("overlay stays consistent");
}

fn main() {
    run("load balancing DISABLED", false);
    run("load balancing ENABLED (paper §IV-D)", true);
}
