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
//! [`PeerId`], messages are explicit [`Envelope`] values pushed through a
//! [`SimNetwork`], and the network records per-kind, per-peer and
//! per-operation counters in [`MessageStats`].
//!
//! Beyond the paper's count-only evaluation, the network is a
//! **discrete-event engine with virtual time** ([`time`]): each send draws a
//! link latency from a pluggable [`LatencyModel`] and is scheduled on a
//! binary-heap event queue, operations carry start/finish timestamps, and an
//! open-loop workload can interleave operations by advancing the arrival
//! clock ([`SimNetwork::advance_to`]).  The default model is constant-zero
//! latency, under which message counts are bit-identical to the original
//! count-only substrate.
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
//! use baton_net::{NetMessage, PeerId, SimNetwork};
//!
//! #[derive(Clone, Debug)]
//! enum Ping { Ping, Pong }
//! impl NetMessage for Ping {
//!     fn kind(&self) -> &'static str {
//!         match self { Ping::Ping => "ping", Ping::Pong => "pong" }
//!     }
//! }
//!
//! let mut net: SimNetwork<Ping> = SimNetwork::new();
//! let a = net.add_peer();
//! let b = net.add_peer();
//! let op = net.begin_op("rpc");
//! net.send(op, a, b, Ping::Ping).unwrap();
//! let env = net.deliver_next().unwrap().unwrap();
//! assert_eq!(env.to, b);
//! net.send(op, b, a, Ping::Pong).unwrap();
//! net.finish_op(op);
//! assert_eq!(net.stats().total_sent(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod directory;
pub mod message;
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
pub use message::{Envelope, NetMessage};
pub use network::{DeliveryError, NetView, SendError, SimNetwork};
pub use overlay::{
    ChurnCost, OpCost, Overlay, OverlayCapabilities, OverlayError, OverlayResult, RepairPolicy,
};
pub use parallel::{
    default_threads, run_indexed, run_indexed_with, set_threads, threads, with_threads,
};
pub use peer::{PeerId, PeerRegistry, PeerStatus};
pub use rng::SimRng;
pub use serve::{
    ExactPlacement, RoutingSnapshot, ServeAnswer, ServeCounters, ServeStatus, SnapshotBuilder,
    SnapshotCell, SnapshotReader,
};
pub use stats::{ClassStats, Histogram, MessageStats, OpId, OpScope, OpStats};
pub use time::{
    LatencyModel, LatencyPlan, LinkDegradation, LinkScope, RegionMap, RegionalLatency, SimTime,
};
pub use trace::{HopRecord, LinkKind, Span, TraceBuffer, TraceConfig};
