//! Side-by-side comparison of BATON against the paper's two baselines —
//! Chord and the multiway tree — plus the post-paper D3-Tree, on the same
//! workload: a miniature version of the whole Figure 8 evaluation in one
//! program.
//!
//! The entire comparison is written against the [`baton_net::Overlay`]
//! trait: one measurement loop runs every system, and Chord drops out of the
//! range-query row because its `search_range` answers `Unsupported`, not
//! because this program special-cases it.
//!
//! ```text
//! cargo run -p baton-examples --example baseline_comparison --release
//! ```

use baton_chord::ChordSystem;
use baton_core::{BatonConfig, BatonSystem};
use baton_d3tree::D3TreeSystem;
use baton_mtree::MTreeSystem;
use baton_net::{Overlay, SimRng};
use baton_workload::{runner, ChurnEvent, KeyDistribution, KeyGenerator, Query};

/// Workload measurements for one overlay.
struct Row {
    name: &'static str,
    insert: f64,
    exact: f64,
    range: Option<f64>,
    join: f64,
    leave: f64,
}

fn measure(
    name: &'static str,
    overlay: &mut dyn Overlay,
    seed: u64,
    n_keys: usize,
    queries: usize,
) -> Row {
    let generator = KeyGenerator::paper(KeyDistribution::Uniform);
    let mut rng = SimRng::seeded(seed);

    // Bulk load.
    let data: Vec<(u64, u64)> = (0..n_keys)
        .map(|i| (generator.next_key(&mut rng), i as u64))
        .collect();
    let load = runner::bulk_load(overlay, &data).expect("bulk load");

    // Exact queries, then range queries (skipped automatically where
    // unsupported).
    let mut batch: Vec<Query> = Vec::with_capacity(2 * queries);
    for _ in 0..queries {
        batch.push(Query::Exact(generator.next_key(&mut rng)));
    }
    for _ in 0..queries {
        let low = generator.next_key(&mut rng);
        batch.push(Query::Range {
            low,
            high: (low + 2_000_000).min(999_999_999),
        });
    }
    let query_outcome = runner::run_queries(overlay, &batch).expect("queries");

    // Churn: alternating joins and leaves.
    let churn: Vec<ChurnEvent> = (0..100)
        .map(|i| {
            if i % 2 == 0 {
                ChurnEvent::Join
            } else {
                ChurnEvent::Leave
            }
        })
        .collect();
    let churn_outcome = runner::run_churn(overlay, &churn, 2).expect("churn");

    overlay.validate().expect("overlay stays consistent");
    Row {
        name,
        insert: load.mean_messages(),
        exact: query_outcome.mean_exact_messages(),
        range: (query_outcome.range_executed > 0).then(|| query_outcome.mean_range_messages()),
        join: churn_outcome.locate_messages as f64 / churn_outcome.executed().max(1) as f64,
        leave: churn_outcome.update_messages as f64 / churn_outcome.executed().max(1) as f64,
    }
}

fn main() {
    let n = 500usize;
    let queries = 300usize;
    let seed = 4242u64;

    println!("building four {n}-node overlays on identical workloads…\n");
    let mut overlays: Vec<Box<dyn Overlay>> = vec![
        Box::new(BatonSystem::build(BatonConfig::default(), seed, n).expect("baton")),
        Box::new(ChordSystem::build(seed, n).expect("chord")),
        Box::new(MTreeSystem::build(seed, n).expect("mtree")),
        Box::new(D3TreeSystem::build(seed, n).expect("d3tree")),
    ];
    let names = ["BATON", "Chord", "Multiway tree", "D3-Tree"];

    let rows: Vec<Row> = overlays
        .iter_mut()
        .zip(names)
        .map(|(overlay, name)| measure(name, overlay.as_mut(), seed, 5_000, queries))
        .collect();

    println!(
        "average messages per operation ({n} nodes, log2 N = {:.1}):\n",
        (n as f64).log2()
    );
    print!("  operation         ");
    for row in &rows {
        print!(" | {:>13}", row.name);
    }
    println!();
    println!(
        "  ------------------{}",
        " | -------------".repeat(rows.len())
    );
    let print_row = |label: &str, values: Vec<String>| {
        print!("  {label:<18}");
        for v in values {
            print!(" | {v:>13}");
        }
        println!();
    };
    print_row(
        "insert",
        rows.iter().map(|r| format!("{:.1}", r.insert)).collect(),
    );
    print_row(
        "exact query",
        rows.iter().map(|r| format!("{:.1}", r.exact)).collect(),
    );
    print_row(
        "range query",
        rows.iter()
            .map(|r| match r.range {
                Some(v) => format!("{v:.1}"),
                None => "n/a".to_owned(),
            })
            .collect(),
    );
    print_row(
        "churn (locate)",
        rows.iter().map(|r| format!("{:.1}", r.join)).collect(),
    );
    print_row(
        "churn (update)",
        rows.iter().map(|r| format!("{:.1}", r.leave)).collect(),
    );

    println!(
        "\nBATON matches Chord on exact queries, supports range queries that Chord \
         cannot, and updates its routing tables with far fewer messages on churn."
    );
}
