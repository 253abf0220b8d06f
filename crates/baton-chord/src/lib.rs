//! # baton-chord — Chord DHT baseline
//!
//! A from-scratch implementation of the Chord distributed hash table
//! (Stoica, Morris, Karger, Kaashoek, Balakrishnan — SIGCOMM 2001), built on
//! the same simulator substrate as `baton-core` so that the two overlays
//! can be compared message-for-message, as the BATON paper does in
//! Figure 8(a)–(d).
//!
//! Chord supports exact-match lookups in `O(log N)` messages but needs
//! `O(log² N)` messages to (re)build a joining node's finger table, and it
//! cannot answer range queries because consistent hashing destroys key
//! order — precisely the two axes on which BATON improves.
//!
//! [`ChordSystem`] implements [`Overlay`] directly: its operations are the
//! trait's methods, its errors are [`baton_net::OverlayError`]s, and a range
//! query answers [`baton_net::OverlayError::Unsupported`].
//!
//! ```
//! use baton_chord::{ChordSystem, Overlay};
//!
//! let mut ring = ChordSystem::build(42, 50).unwrap();
//! ring.insert(1234, 7).unwrap();
//! assert_eq!(ring.search_exact(1234).unwrap().matches, 1);
//! assert!(ring.search_range(0, 10_000).is_err()); // no range queries
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod id;
pub mod node;
pub mod system;

pub use baton_net::Overlay;
pub use id::{ChordId, M, RING};
pub use node::{ChordNode, Finger};
pub use system::ChordSystem;
