//! # baton-core — BATON: a BAlanced Tree Overlay Network
//!
//! A from-scratch Rust implementation of **BATON** (Jagadish, Ooi, Rinard,
//! Vu — *"BATON: A Balanced Tree Structure for Peer-to-Peer Networks"*,
//! VLDB 2005): a peer-to-peer overlay structured as a balanced binary tree
//! in which every peer owns one tree node, a contiguous key range, and a
//! small set of links — parent, children, in-order adjacent nodes and two
//! sideways routing tables with entries at power-of-two distances.
//!
//! The overlay supports, all in `O(log N)` messages:
//!
//! * **exact-match queries** and — unlike DHTs — **range queries**
//!   (`O(log N + X)` for a range covering `X` nodes);
//! * **node joins** and **graceful departures** with `O(log N)` routing
//!   table maintenance (versus `O(log² N)` for Chord);
//! * **failure recovery**, with routing around missing nodes in the
//!   meantime;
//! * **load balancing** by adjacent-node data migration and by lightly
//!   loaded leaves re-joining next to overloaded nodes, backed by an
//!   AVL-rotation-like **restructuring** of the overlay.
//!
//! ## Quick start
//!
//! ```
//! use baton_core::{BatonConfig, BatonSystem, KeyRange, Overlay};
//!
//! // Build a 50-node overlay (one bootstrap node + 49 random joins).
//! let mut overlay = BatonSystem::build(BatonConfig::default(), 42, 50).unwrap();
//!
//! // Index some data.
//! overlay.insert(123_456_789, 1).unwrap();
//! overlay.insert(500_000_000, 2).unwrap();
//!
//! // Exact-match query from a random peer.
//! let hit = overlay.search_exact(123_456_789).unwrap();
//! assert_eq!(hit.matches, vec![1]);
//!
//! // Range query.
//! let range = overlay.search_range(KeyRange::new(100_000_000, 600_000_000)).unwrap();
//! assert_eq!(range.matches.len(), 2);
//!
//! // Every operation reports how many messages it cost.
//! assert!(hit.messages <= 2 * (overlay.node_count() as f64).log2().ceil() as u64 + 4);
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`position`] | `(level, number)` arithmetic, in-order ordering (paper §III) |
//! | [`range`], [`store`] | key ranges and the per-node data store (§IV) |
//! | [`routing`] | the routing plane and the link views read from it (§III) |
//! | [`node`] | the per-peer state |
//! | [`system`] | [`BatonSystem`]: the overlay + simulated network |
//! | [`bulk`] | direct deterministic construction of an N-node overlay |
//! | [`protocol`] | join, leave, failure, search, data, restructuring, load balancing |
//! | [`validate`](mod@validate) | whole-overlay invariant checking (the test oracle) |
//! | [`reports`] | per-operation message-cost reports used by the benchmarks |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bulk;
pub mod config;
pub mod error;
pub mod node;
pub mod position;
pub mod protocol;
pub mod range;
pub mod reports;
pub mod routing;
pub mod snapshot;
pub mod store;
pub mod system;
pub mod validate;

pub use config::{BatonConfig, LoadBalanceConfig};
pub use error::{BatonError, Result};
pub use node::BatonNode;
pub use position::{Position, Side};
pub use range::{Key, KeyRange};
pub use reports::{
    BalanceKind, DeleteReport, FailureReport, InsertReport, JoinReport, LeaveReport,
    LoadBalanceReport, RangeSearchReport, RestructureReport, SearchReport,
};
pub use routing::{Links, NodeLink, RoutingEntry, RoutingTable};
pub use store::{LocalStore, Value};
pub use system::BatonSystem;
pub use validate::validate;

// Re-export the substrate types users need to interact with reports/stats
// and the workspace-wide overlay interface BatonSystem implements.
pub use baton_net::{Histogram, MessageStats, Overlay, PeerId};
