//! Drives the concurrent serve front-end: batched exact and range queries
//! over a published [`baton_net::RoutingSnapshot`] of a bulk-built BATON
//! overlay, from a fixed number of OS threads.
//!
//! ```text
//! serve-bench [--profile full|smoke] [--threads N]
//! ```
//!
//! Output contract, relied on by CI: **stdout carries only deterministic
//! fields** — query counts, matches, total hops, the order-independent
//! checksum, batch counts.  Those are derived from `(seed, batch index)`
//! alone, so two runs that differ only in `--threads` must print
//! byte-identical stdout (CI literally `diff`s them).  Wall-clock figures
//! (queries/second, elapsed, snapshot build time) go to stderr; the
//! measured serve numbers are the `serve_read` / `serve_publish` workloads
//! of `benchmarks/`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use baton_bench::{sim_profile, SEED};
use baton_net::SnapshotCell;
use baton_workload::{
    run_serve, KeyDistribution, ServeConfig, ServeOutcome, DOMAIN_HIGH, DOMAIN_LOW,
};

/// Range-query span at the paper's fig8e selectivity (0.1% of the domain).
const RANGE_SPAN: u64 = (DOMAIN_HIGH - DOMAIN_LOW) / 1000;

/// Scale of one run: profile name, overlay size, exact queries, range
/// queries.
type Scale = (&'static str, usize, u64, u64);
const FULL: Scale = ("full", 10_000, 1_000_000, 100_000);
const SMOKE: Scale = ("smoke", 300, 20_000, 2_000);

/// Prints one deterministic stdout row — everything here must be invariant
/// under `--threads` — and the wall-clock half on stderr.
fn report(kind: &str, outcome: &ServeOutcome) {
    println!(
        "{kind} queries={} matches={} hops={} slots_swept={} rejected={} \
         checksum={:016x} batches={}",
        outcome.counters.queries,
        outcome.counters.matches,
        outcome.counters.hops,
        outcome.counters.slots_swept,
        outcome.counters.rejected,
        outcome.counters.checksum,
        outcome.batches,
    );
    eprintln!(
        "serve-bench: {kind}: {:.1} ms, {:.0} queries/s, {} snapshot refreshes",
        outcome.elapsed.as_secs_f64() * 1e3,
        outcome.per_second(),
        outcome.refreshes,
    );
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut scale = FULL;
    let mut threads = 1usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => match args.next().map(|s| s.to_ascii_lowercase()).as_deref() {
                Some("full") => scale = FULL,
                Some("smoke") => scale = SMOKE,
                _ => {
                    eprintln!("--profile needs one of full|smoke");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match baton_sim::parse_threads(args.next()) {
                Ok(n) => threads = n,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve-bench [--profile full|smoke] [--threads N]\n\
                     stdout is deterministic (thread-count invariant); wall-clock \
                     figures go to stderr"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (profile, n, exact_queries, range_queries) = scale;

    eprintln!(
        "serve-bench: profile {profile}, {threads} thread(s), building {n}-node BATON overlay"
    );
    let started = Instant::now();
    // Bulk-built and loaded through the direct path (1% of the paper's
    // dataset), so set-up does not swamp the run.
    let sim = sim_profile(n, 1, 0.01, 1.0);
    let mut overlay = baton_sim::reference_overlay().build_bulk(&sim, n, SEED);
    baton_sim::driver::load_overlay_direct(&sim, &mut *overlay, KeyDistribution::Uniform, SEED);
    let snapshot = overlay
        .routing_snapshot()
        .expect("BATON exports routing snapshots");
    eprintln!(
        "serve-bench: overlay + snapshot ready in {:.1} ms ({} slots, ~{} bytes)",
        started.elapsed().as_secs_f64() * 1e3,
        snapshot.slots(),
        snapshot.estimated_bytes(),
    );
    let cell = Arc::new(SnapshotCell::new(snapshot));

    // Header row: run shape, minus anything wall-clock or thread-dependent.
    let exact = ServeConfig::exact(exact_queries, threads, SEED ^ 0x5EE7);
    println!(
        "serve-bench profile={profile} mix=uniform batch={} span={RANGE_SPAN}",
        exact.batch
    );
    report("exact", &run_serve(&cell, &exact));
    let range = ServeConfig::range(range_queries, threads, SEED ^ 0x4A4E, RANGE_SPAN);
    report("range", &run_serve(&cell, &range));
    ExitCode::SUCCESS
}
