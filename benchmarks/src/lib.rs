//! The repository's benchmark: seven named workloads, end-to-end metrics and
//! an outside-in per-layer ledger, behind `BENCHMARK.json` at the repository
//! root.  See `README.md` in this directory.
//!
//! Every number is labelled by the clock it comes from.  *Host* numbers are
//! taken with `Instant` (or `/proc`, or the allocator) and carry the host's
//! noise; *simulated* numbers come from the repository's deterministic
//! counters and repeat exactly for a fixed seed.  A change that only speeds
//! the simulator up must leave every simulated number identical.

#![warn(missing_docs)]

pub mod catalog;
pub mod host;
pub mod model;
pub mod openloop;
pub mod probes;
pub mod repeat;
pub mod routed;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
