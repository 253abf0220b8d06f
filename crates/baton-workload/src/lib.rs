//! # baton-workload — workload generators for the BATON evaluation
//!
//! Deterministic generators for everything the paper's experiments need:
//!
//! * [`keys`] — uniform and Zipfian(θ) key streams over `[1, 10^9)`;
//! * [`dataset`] — the `1000 × N` bulk loads (uniform and skewed), with a
//!   scale factor for fast test/bench profiles;
//! * [`queries`] — the 1000-exact + 1000-range query workloads;
//! * [`churn`] — join/leave/failure sequences and the concurrent-churn
//!   batches of the network-dynamics experiment;
//! * [`runner`] — generic executors that apply the generated workloads to
//!   **any** [`baton_net::Overlay`] implementation and aggregate the
//!   message costs;
//! * [`phases`] — declarative phased workloads: per-class arrival rates and
//!   key distributions (uniform / hot-slice / Zipf) that step at phase
//!   boundaries, plus timed key-window overrides;
//! * [`faults`] — seeded fault plans: timed targeted fault events, including
//!   correlated regional kills ("fail half of region 2 at t = 20s");
//! * [`openloop`] — open-loop execution over virtual time: the phased
//!   schedule's searches, inserts, joins, leaves, failures and fault events
//!   overlap in virtual time (never in state), yielding latency percentiles
//!   and throughput under churn.
//!
//! All generators draw from an explicit, seeded [`baton_net::SimRng`] so
//! every experiment repetition is reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod dataset;
pub mod faults;
pub mod keys;
pub mod openloop;
pub mod phases;
pub mod queries;
pub mod runner;
pub mod serve;

pub use churn::{ChurnEvent, ChurnWorkload, ConcurrentChurnBatch};
pub use dataset::DatasetPlan;
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use keys::{KeyDistribution, KeyGenerator, DOMAIN_HIGH, DOMAIN_LOW};
pub use openloop::{
    availability, run_phased_with_metrics, ArrivalEvent, LatencySummary, MetricsConfig,
    MetricsSample, OpClass, OpenLoopOutcome,
};
pub use phases::{KeyMix, KeyWindow, OpRates, Phase, PhasedWorkload, ResolvedKeys};
pub use queries::{Query, QueryWorkload};
pub use runner::{bulk_load, run_churn, run_queries, ChurnOutcome, LoadOutcome, QueryOutcome};
pub use serve::{run_serve, ServeConfig, ServeOutcome};
