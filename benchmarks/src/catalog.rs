//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! This table is the single source of truth.  `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written to disk (a test compares
//! them), every run emits exactly these names, and the `--repeat` tool takes
//! its bounds from here.

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2005;

/// One named workload.
#[derive(Debug)]
pub struct WorkloadInfo {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// Why the workload exists (one line, goes into `BENCHMARK.json`).
    pub why: &'static str,
}

/// The seven workloads, in the order a full set runs them.
pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "routed_read",
        why: "closed-loop exact+range reads on bulk-built BATON: event queue, stats, search, range and store do all the work; membership and serve code do none",
    },
    WorkloadInfo {
        name: "routed_churn",
        why: "open-loop joins, leaves, failures and inserts beside reads at N=100k under log-normal links: membership, restructuring and latency sampling dominate",
    },
    WorkloadInfo {
        name: "fault_k1",
        why: "unreplicated correlated regional failure with timed repair: slow-path repair, Unavailable handling and the metrics sampler dominate",
    },
    WorkloadInfo {
        name: "fault_k2",
        why: "the same fault plan at replication k=2: failover reads, replica upkeep and fast-path repair; moves against fault_k1 when one path taxes the other",
    },
    WorkloadInfo {
        name: "compare_overlays",
        why: "BATON, Chord, multiway tree and D3-Tree join-built and driven through latency_under_churn: the only workload where the baselines and join-by-join build work",
    },
    WorkloadInfo {
        name: "serve_read",
        why: "closed-loop snapshot reads in batches of 256: no event queue, no protocol code; any routed-engine optimisation predicts no change here",
    },
    WorkloadInfo {
        name: "serve_publish",
        why: "churn, full snapshot export, publish and refresh cycles: the serve tier as a writer, where export is O(N x links) today",
    },
];

/// Which clock a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// `Instant`, `/proc` or the allocator: subject to the host's noise.
    Host,
    /// `MessageStats` / `OpenLoopOutcome` / `ServeCounters`: repeats
    /// exactly for a fixed seed.
    Sim,
}

/// One named metric.
#[derive(Debug)]
pub struct MetricInfo {
    /// Name as emitted.
    pub name: &'static str,
    /// Unit as emitted.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
    /// Host or simulated.
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    clock: Clock,
) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> MetricInfo {
    e2e(name, unit, better, 0.0, Clock::Host)
}

const fn sim(name: &'static str, unit: &'static str, better: &'static str) -> MetricInfo {
    e2e(name, unit, better, 0.0, Clock::Sim)
}

/// End-to-end metrics: each is emitted by every workload with `--trace 0`
/// and is never zero.  Bounds were set from the ten-seed spreads recorded in
/// README.md: about three times the widest spread seen, capped by the
/// contract at 0.25 (which `ops_per_s` and `setup_s` reach on this host).
pub const END_TO_END: [MetricInfo; 7] = [
    e2e("setup_s", "s", "lower", 0.25, Clock::Host),
    e2e("ops_per_s", "1/s", "higher", 0.25, Clock::Host),
    e2e("peak_rss_mb", "MiB", "lower", 0.20, Clock::Host),
    e2e("msgs_per_op", "count", "lower", 0.04, Clock::Sim),
    e2e("hops_per_query", "count", "lower", 0.04, Clock::Sim),
    e2e("state_bytes_per_peer", "bytes", "lower", 0.02, Clock::Sim),
    e2e("availability", "ratio", "higher", 0.02, Clock::Sim),
];

/// Per-layer metrics: each is emitted by every workload with `--trace 1`;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: [MetricInfo; 82] = [
    // baton-net: network, stats, time, trace.
    host("net.network.send_deliver_ns", "ns", "lower"),
    sim("net.network.msgs", "count", "lower"),
    sim("net.network.failed_deliveries", "count", "lower"),
    host("net.network.share_est", "ratio", "lower"),
    host("net.stats.count_ns", "ns", "lower"),
    host("net.stats.op_scope_ns", "ns", "lower"),
    host("net.time.latency_sample_ns", "ns", "lower"),
    host("net.time.latency_sample_regional_ns", "ns", "lower"),
    host("net.trace.overhead_pct", "%", "lower"),
    // baton-net: serve.
    host("net.serve.exact_ns", "ns", "lower"),
    host("net.serve.range_ns", "ns", "lower"),
    host("net.serve.range_ns_per_slot", "ns", "lower"),
    host("net.serve.refresh_ns", "ns", "lower"),
    host("net.serve.publish_ns", "ns", "lower"),
    host("net.serve.batch_p99_us", "us", "lower"),
    host("net.serve.exact_qps_t2", "1/s", "higher"),
    sim("net.serve.failover", "count", "lower"),
    sim("net.serve.unavailable", "count", "lower"),
    sim("net.serve.rejected", "count", "lower"),
    sim("net.serve.snapshot_bytes", "bytes", "lower"),
    // baton-core.
    host("core.snapshot.build_ms", "ms", "lower"),
    host("core.search.exact_ns", "ns", "lower"),
    sim("core.search.exact_msgs", "count", "lower"),
    host("core.range.range_ns", "ns", "lower"),
    sim("core.range.range_msgs", "count", "lower"),
    sim("core.range.nodes_visited", "count", "lower"),
    sim("core.search.hops_routing_table", "count", "lower"),
    sim("core.search.hops_parent", "count", "lower"),
    sim("core.search.hops_child", "count", "lower"),
    sim("core.search.hops_adjacent", "count", "lower"),
    sim("core.search.detour_hops", "count", "lower"),
    host("core.data.insert_ns", "ns", "lower"),
    host("core.data.delete_ns", "ns", "lower"),
    sim("core.data.balance_msgs_per_insert", "count", "lower"),
    host("core.join.ns", "ns", "lower"),
    sim("core.join.msgs", "count", "lower"),
    host("core.leave.ns", "ns", "lower"),
    sim("core.leave.msgs", "count", "lower"),
    host("core.failure.ns", "ns", "lower"),
    sim("core.failure.msgs", "count", "lower"),
    host("core.failure.repair_ns_per_peer", "ns", "lower"),
    sim("core.failure.repairs", "count", "lower"),
    sim("core.failure.repair_sim_p95_ms", "ms", "lower"),
    host("core.store.get_ns", "ns", "lower"),
    host("core.store.insert_ns", "ns", "lower"),
    host("core.store.scan_ns_per_item", "ns", "lower"),
    host("core.store.get_ns_2k", "ns", "lower"),
    host("core.store.scan_ns_per_item_2k", "ns", "lower"),
    host("core.bulk.build_ns_per_node", "ns", "lower"),
    host("core.bulk.load_ns_per_item", "ns", "lower"),
    sim("core.height", "count", "lower"),
    // Per-overlay split of compare_overlays.
    host("core.ops_per_s", "1/s", "higher"),
    sim("core.msgs_per_op", "count", "lower"),
    host("core.build_ns_per_node", "ns", "lower"),
    host("chord.ops_per_s", "1/s", "higher"),
    sim("chord.msgs_per_op", "count", "lower"),
    host("chord.build_ns_per_node", "ns", "lower"),
    sim("chord.skipped_range", "count", "lower"),
    host("mtree.ops_per_s", "1/s", "higher"),
    sim("mtree.msgs_per_op", "count", "lower"),
    host("mtree.build_ns_per_node", "ns", "lower"),
    host("d3tree.ops_per_s", "1/s", "higher"),
    sim("d3tree.msgs_per_op", "count", "lower"),
    host("d3tree.build_ns_per_node", "ns", "lower"),
    // baton-workload.
    host("workload.phases.schedule_ns_per_event", "ns", "lower"),
    host("workload.dataset.ns_per_item", "ns", "lower"),
    host("workload.openloop.sampler_ms_per_tick", "ms", "lower"),
    sim("workload.openloop.unavailable", "count", "lower"),
    sim("workload.openloop.skipped", "count", "lower"),
    sim("workload.openloop.probe_found_share", "ratio", "higher"),
    host("workload.serve.run_serve_overhead_pct", "%", "lower"),
    // baton-sim.
    host("sim.scenario.overhead_pct", "%", "lower"),
    host("sim.report.render_json_ms", "ms", "lower"),
    // The benchmark process itself.
    host("host.alloc_count_per_op", "count", "lower"),
    host("host.alloc_bytes_per_op", "bytes", "lower"),
    host("host.cpu_s", "s", "lower"),
    host("host.trace_overhead_pct", "%", "lower"),
    // User-visible numbers that exist on some workloads only, or read 0 on
    // some, and so cannot be end-to-end metrics under the contract.
    host("batch_p50_us", "us", "lower"),
    host("publish_visible_ms", "ms", "lower"),
    sim("sim_p50_ms", "ms", "lower"),
    sim("sim_p99_ms", "ms", "lower"),
    sim("failed_share", "ratio", "lower"),
];

/// Looks a metric up by name in both tables.
pub fn metric(name: &str) -> Option<&'static MetricInfo> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// `true` if `name` is one of the seven workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The per-layer names one overlay of the comparison reports under.
#[derive(Debug)]
pub struct OverlaySplit {
    /// Series name of the overlay (`Overlay::name`).
    pub series: &'static str,
    /// Operations per host second on this overlay.
    pub ops_per_s: &'static str,
    /// Simulated messages per operation on this overlay.
    pub msgs_per_op: &'static str,
    /// Join-build time per node of this overlay.
    pub build_ns_per_node: &'static str,
}

/// The per-overlay split of `compare_overlays`.
pub const OVERLAY_SPLIT: [OverlaySplit; 4] = [
    OverlaySplit {
        series: "BATON",
        ops_per_s: "core.ops_per_s",
        msgs_per_op: "core.msgs_per_op",
        build_ns_per_node: "core.build_ns_per_node",
    },
    OverlaySplit {
        series: "Chord",
        ops_per_s: "chord.ops_per_s",
        msgs_per_op: "chord.msgs_per_op",
        build_ns_per_node: "chord.build_ns_per_node",
    },
    OverlaySplit {
        series: "Multiway tree",
        ops_per_s: "mtree.ops_per_s",
        msgs_per_op: "mtree.msgs_per_op",
        build_ns_per_node: "mtree.build_ns_per_node",
    },
    OverlaySplit {
        series: "D3-Tree",
        ops_per_s: "d3tree.ops_per_s",
        msgs_per_op: "d3tree.msgs_per_op",
        build_ns_per_node: "d3tree.build_ns_per_node",
    },
];

/// The split names of the overlay with the given series name.
pub fn overlay_split(series: &str) -> &'static OverlaySplit {
    OVERLAY_SPLIT
        .iter()
        .find(|s| s.series == series)
        .unwrap_or_else(|| panic!("overlay {series} has no per-layer names"))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmarks\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
