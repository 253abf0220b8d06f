//! Layer probes: fixed micro-workloads that time one layer's public
//! functions with nothing else on top.  They run in every traced run, take
//! about a second together, and give the unit costs the end-to-end numbers
//! are decomposed with (README.md, "Decomposition").

use std::time::Instant;

use crate::stats::median;
use crate::sut::{self, NetProbe, ProbeLatency, StoreProbe};
use crate::trace::Ledger;
use crate::workload::Scale;

/// Median over three rounds of `round()` nanoseconds per unit of work;
/// `round` returns the units it did.
fn ns_per_unit(mut round: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let units = round();
            started.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Runs every probe and records its result.
pub fn run(ledger: &mut Ledger, scale: Scale, seed: u64) {
    let calls: u64 = match scale {
        Scale::Full => 1_000_000,
        Scale::Smoke => 20_000,
    };

    let mut net = NetProbe::new(ProbeLatency::Zero, seed);
    ledger.set(
        "net.network.send_deliver_ns",
        ns_per_unit(|| {
            net.send_deliver(2 * calls);
            2 * calls
        }),
    );
    ledger.set(
        "net.stats.count_ns",
        ns_per_unit(|| {
            net.count_messages(calls);
            calls
        }),
    );
    ledger.set(
        "net.stats.op_scope_ns",
        ns_per_unit(|| {
            net.op_scopes(calls);
            calls
        }),
    );
    let mut log_normal = NetProbe::new(ProbeLatency::LogNormal, seed);
    ledger.set(
        "net.time.latency_sample_ns",
        ns_per_unit(|| {
            log_normal.sample_latencies(calls);
            calls
        }),
    );
    let mut regional = NetProbe::new(ProbeLatency::Regional, seed);
    ledger.set(
        "net.time.latency_sample_regional_ns",
        ns_per_unit(|| {
            regional.sample_latencies(calls);
            calls
        }),
    );

    // One node's store at the routed_read load (20 items) and at 2,000.
    let small = StoreProbe::new(20);
    let large = StoreProbe::new(2_000);
    ledger.set(
        "core.store.get_ns",
        ns_per_unit(|| {
            small.gets(calls);
            calls
        }),
    );
    ledger.set(
        "core.store.insert_ns",
        ns_per_unit(|| {
            small.inserts(calls / 10);
            calls / 10
        }),
    );
    ledger.set(
        "core.store.scan_ns_per_item",
        ns_per_unit(|| small.scans(calls / 20)),
    );
    ledger.set(
        "core.store.get_ns_2k",
        ns_per_unit(|| {
            large.gets(calls);
            calls
        }),
    );
    ledger.set(
        "core.store.scan_ns_per_item_2k",
        ns_per_unit(|| large.scans(calls / 2_000)),
    );

    let nodes = (calls / 100) as usize;
    ledger.set(
        "workload.dataset.ns_per_item",
        ns_per_unit(|| sut::dataset(nodes, 20, seed).len() as u64),
    );
    let plan = sut::churn_plan(60, 1.0);
    ledger.set(
        "workload.phases.schedule_ns_per_event",
        ns_per_unit(|| sut::schedule(&plan, seed).0.len() as u64),
    );
}
