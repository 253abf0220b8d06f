//! # baton-mtree — multiway-tree overlay baseline
//!
//! A reconstruction of the multiway-tree P2P overlay of Liau, Ng, Shu, Tan
//! and Bressan (*"Efficient range queries and fast lookup services for
//! scalable p2p networks"*, DBISP2P 2004) — the tree-structured baseline the
//! BATON paper compares against (its reference "\[10\]").
//!
//! Each peer owns a tree node linked to its parent, its children (with no
//! fan-out constraint), and its in-order neighbours.  There are no sideways
//! routing tables and no balancing, so:
//!
//! * joins are cheap (the responsible node accepts the newcomer directly),
//! * departures are expensive (all children must be queried to pick a
//!   replacement),
//! * searches hop link-by-link with no logarithmic shortcuts and degrade as
//!   the tree grows unbalanced,
//!
//! which is exactly the qualitative behaviour Figure 8 of the BATON paper
//! reports for this baseline.
//!
//! [`MTreeSystem`] implements [`Overlay`] directly: its operations are the
//! trait's methods and its errors are [`baton_net::OverlayError`]s.  It keeps
//! the trait's defaulted failure hooks — the baseline has no failure
//! protocol — and no balance histogram.
//!
//! ```
//! use baton_mtree::{MTreeSystem, Overlay};
//!
//! let mut tree = MTreeSystem::build(42, 30).unwrap();
//! tree.insert(123_456, 0).unwrap();
//! assert_eq!(tree.search_exact(123_456).unwrap().matches, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod node;
pub mod range;
pub mod system;

pub use baton_net::Overlay;
pub use node::{MLink, MNode};
pub use range::MRange;
pub use system::MTreeSystem;
