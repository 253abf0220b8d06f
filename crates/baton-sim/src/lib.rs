//! # baton-sim — experiment harness for the BATON reproduction
//!
//! Drivers that regenerate **every figure of the paper's evaluation**
//! (Figure 8(a)–(i), §V) from the BATON implementation in [`baton_core`] and
//! the three baselines ([`baton_chord`], [`baton_mtree`], [`baton_d3tree`]), at
//! a configurable scale ([`Profile`]).
//!
//! All drivers are generic over the [`baton_net::Overlay`] trait: the
//! [`driver`] module holds the list of [`OverlaySpec`]s
//! ([`standard_overlays`], narrowed by name with [`select_overlays`]), and
//! each figure runs one measurement loop over the list it is handed rather
//! than one hand-written loop per system.  A run is a function of its
//! arguments — profile (with its seed), overlay list and, for the scenario
//! engine, thread budget; nothing is configured process-wide.
//!
//! | figure | driver | what it measures |
//! |---|---|---|
//! | 8(a) | [`figures::fig8ab`] | messages to find the join / replacement node |
//! | 8(b) | [`figures::fig8ab`] | messages to update routing tables on churn |
//! | 8(c) | [`figures::fig8c`] | messages per insert / delete |
//! | 8(d) | [`figures::fig8d`] | messages per exact-match query |
//! | 8(e) | [`figures::fig8e`] | messages per range query |
//! | 8(f) | [`figures::fig8f`] | access load per tree level |
//! | 8(g) | [`figures::fig8g`] | load-balancing messages per insert (uniform vs Zipf) |
//! | 8(h) | [`figures::fig8h`] | distribution of load-balancing shift sizes |
//! | 8(i) | [`figures::fig8i`] | extra messages under concurrent churn |
//!
//! Beyond the paper's message counts, the [`scenario`] module drives the
//! routed engine in the time domain through a declarative registry:
//! each [`scenario::ScenarioSpec`] builds a [`scenario::ScenarioPlan`]
//! (phased workload, latency topology, fault plan) that one generic engine
//! runs against every registered overlay.  Six scenarios are registered —
//! `latency_under_churn`, `flash_crowd`, `regional_failure`,
//! `degraded_links`, `skew_ramp` and `cascading_failure` — each reporting
//! p50/p95/p99 virtual latency per operation class and throughput (ops per
//! virtual second) per overlay.
//!
//! The `reproduce` binary (`cargo run -p baton-sim --bin reproduce --release`)
//! prints the tables for any subset of figures plus the scenario report.
//! Wall-clock numbers come from the stand-alone `benchmarks/` package;
//! `crates/bench` keeps only the rows that package does not measure yet.
//!
//! ```
//! use baton_sim::{figures, standard_overlays, Profile};
//!
//! let profile = Profile::smoke();
//! let figure = figures::run_figure("8d", &profile, &standard_overlays()).unwrap();
//! assert_eq!(figure.id, "8d");
//! assert!(!figure.points.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod figures;
pub mod json;
pub mod observe;
pub mod profile;
pub mod report;
pub mod result;
pub mod scenario;

pub use driver::{
    load_overlay, overlay_names, parse_threads, reference_overlay, select_overlays,
    standard_overlays, OverlaySpec,
};
pub use observe::{
    check_trace_jsonl, render_trace_chrome, render_trace_jsonl, trace_summary_table, TraceCheck,
};
pub use profile::Profile;
pub use report::{json_string, render_json, render_report, render_scenarios_json};
pub use result::{Averager, FigureResult, SeriesPoint};
pub use scenario::{
    all_scenarios, run_scenario, BuildKind, ScenarioPlan, ScenarioResult, ScenarioSeries,
    ScenarioSpec,
};
