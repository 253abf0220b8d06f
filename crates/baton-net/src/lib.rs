//! # baton-net — deterministic message-passing P2P simulator
//!
//! This crate is the network substrate on top of which the BATON overlay
//! (`baton-core`) and the Chord, multiway-tree and D3-Tree baselines
//! (`baton-chord`, `baton-mtree`, `baton-d3tree`) are built.
//!
//! The BATON paper (Jagadish, Ooi, Rinard, Vu — VLDB 2005) evaluates every
//! mechanism by the **number of messages** exchanged between peers, not by
//! wall-clock latency on a particular testbed.  The substrate is therefore a
//! *deterministic* simulator: peers are logical entities identified by a
//! [`PeerId`], a message is one [`SimNetwork::transmit`] call — who sent
//! what kind to whom at which hop — and the network records global,
//! per-peer and per-operation counters in [`MessageStats`]; the opt-in route
//! recorder ([`TraceBuffer`]) keeps each message's kind, hop and link class.
//!
//! Beyond the paper's count-only evaluation, every transmission draws a link
//! latency from a pluggable [`LatencyModel`] ([`time`]).  There is no event
//! queue: an operation executes **atomically against overlay state at its
//! dispatch instant**, and virtual time is accounting — each operation's
//! frontier is the sum of its own hop chain, notifications extend only its
//! completion time, and an open-loop workload moves the arrival clock
//! ([`SimNetwork::advance_to`]) so that operations overlap in time, never in
//! state.  The default model is constant-zero latency, under which the
//! substrate is exactly the paper's count-only one.
//!
//! ## Design
//!
//! * **Determinism.**  There is no background thread, no timer and no async
//!   runtime.  Virtual time is derived purely from seeded latency models,
//!   never from the wall clock, and latency streams are separate from
//!   protocol RNGs.  Every experiment that uses the same seed produces
//!   identical message counts and latencies, which makes the reproduction of
//!   the paper's figures repeatable and the tests meaningful.
//! * **Failure injection.**  Peers can be marked dead; sending to a dead peer
//!   is counted as a failed delivery and surfaced to the caller so protocols
//!   can exercise their fault-tolerance paths (paper §III-C/D).
//! * **Accounting scopes.**  Higher layers wrap each logical operation
//!   (join, leave, search, …) in an [`OpScope`] so the harness can report the
//!   *average messages per operation* series that every sub-figure of
//!   Figure 8 plots.
//!
//! ## Quick example
//!
//! ```
//! use baton_net::{LatencyModel, LinkKind, SimNetwork, SimTime};
//!
//! let mut net: SimNetwork =
//!     SimNetwork::with_latency(LatencyModel::constant(SimTime::from_millis(10)));
//! let a = net.add_peer();
//! let b = net.add_peer();
//! let op = net.begin_op("rpc");
//! assert!(net.transmit(op, a, b, 1, LinkKind::Other, "ping").unwrap());
//! net.fail_peer(a);
//! // The reply bounces: counted as sent *and* failed, and it still took
//! // wire time.
//! assert!(!net.transmit(op, b, a, 2, LinkKind::Other, "pong").unwrap());
//! net.finish_op(op);
//! assert_eq!(net.stats().total_sent(), 2);
//! assert_eq!(net.stats().total_failed(), 1);
//! assert_eq!(net.now(), SimTime::from_millis(20));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod directory;
pub mod network;
pub mod overlay;
pub mod parallel;
pub mod peer;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod time;
pub mod trace;

pub use directory::PeerDirectory;
pub use network::{NetMessage, SendError, SimNetwork};
pub use overlay::{
    ChurnCost, OpCost, Overlay, OverlayCapabilities, OverlayError, OverlayResult, RepairPolicy,
};
#[doc(hidden)]
pub use parallel::with_threads;
pub use parallel::{default_threads, run_indexed};
pub use peer::{PeerId, PeerRegistry, PeerStatus};
pub use rng::SimRng;
pub use serve::{
    ExactPlacement, RoutingSnapshot, ServeAnswer, ServeCounters, ServeStatus, SnapshotBuilder,
    SnapshotCell, SnapshotReader,
};
pub use stats::{ClassStats, Histogram, MessageStats, OpId, OpScope, OpStats};
pub use time::{LatencyModel, LatencyPlan, LinkDegradation, RegionMap, RegionalLatency, SimTime};
pub use trace::{HopRecord, LinkKind, Span, TraceBuffer, TraceConfig};
