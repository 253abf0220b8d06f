//! # baton-d3tree — D3-Tree overlay baseline
//!
//! A reconstruction of the **D3-Tree** of Sourla, Sioutas, Tsichlas and
//! Zaroliagis (*"D3-Tree: a dynamic distributed deterministic load-balancer
//! for decentralized tree structures"*, 2015) — a direct descendant of the
//! BATON lineage that replaces per-node adaptive balancing with a
//! **deterministic, weight-driven** scheme over peer buckets:
//!
//! * a perfect binary backbone whose leaves hold buckets of `Θ(log N)`
//!   peers, key ranges partitioned in-order across buckets and peers;
//! * weight counters (peers and items per subtree) on every backbone node,
//!   maintained along the leaf-to-root path of each update;
//! * joins descend towards the lighter child; counter drift past a fixed
//!   tolerance triggers an even redistribution of the highest unbalanced
//!   subtree — no randomness, no sampling;
//! * the backbone contracts or extends a level when the average bucket
//!   leaves the `Θ(log N)` band;
//! * exact-match routing in `O(log N)` messages over the backbone, range
//!   sweeps in `O(log N + X)` over the horizontal peer adjacency;
//! * departures and failures repair bucket-locally (an emptied bucket
//!   steals from its backbone sibling before any global restructuring).
//!
//! [`D3TreeSystem`] implements [`Overlay`] directly — its operations are the
//! trait's methods, failures and the balance histogram included, and its
//! errors are [`baton_net::OverlayError`]s — so registering one `OverlaySpec`
//! in `baton_sim::driver` puts it in all nine Figure-8 drivers and every
//! time-domain scenario.
//!
//! ```
//! use baton_d3tree::{D3TreeSystem, Overlay};
//!
//! let mut tree = D3TreeSystem::build(42, 30).unwrap();
//! tree.insert(123_456, 0).unwrap();
//! assert_eq!(tree.search_exact(123_456).unwrap().matches, 1);
//! tree.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod node;
pub mod range;
pub mod system;

pub use baton_net::Overlay;
pub use node::{Bucket, BucketPeer};
pub use range::DRange;
pub use system::D3TreeSystem;
