//! Cross-crate integration tests live under tests/tests/.  This library holds
//! the per-message views they share, read from the route recorder: the
//! simulator's own accounting keeps only what a report reads.

use std::collections::BTreeMap;

use baton_net::{SimTime, TraceBuffer};

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
