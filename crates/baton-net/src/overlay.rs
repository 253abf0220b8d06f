//! The [`Overlay`] trait: one interface over every overlay simulator.
//!
//! The workspace compares four structured overlays — BATON (`baton-core`),
//! Chord (`baton-chord`), the multiway tree (`baton-mtree`) and the D3-Tree
//! (`baton-d3tree`) — on identical workloads, in one currency: messages per
//! join, leave, query and balance step ([`ChurnCost`], [`OpCost`]) over one
//! simulated network ([`Overlay::net`]).  An implementation states what
//! differs between overlays — its operations and invariants — and hands out
//! its network; statistics, the virtual clock, the latency model and the
//! route recorder are provided methods over that one accessor pair.
//!
//! The trait carries only what the harness calls on every overlay.  A
//! measurement that one overlay alone reports — BATON's per-level access
//! load (Figure 8(f)) and balance shift sizes (Figure 8(h)) — is an
//! inherent method its figure reads from the concrete system.
//!
//! Anything a system cannot do is stated once, by the operation's own
//! answer, not by a special case in the harness: Chord's
//! [`Overlay::search_range`] returns [`OverlayError::Unsupported`], and an
//! overlay without a failure protocol keeps the defaulted
//! [`Overlay::fail_random`].  The one flag left,
//! [`OverlayCapabilities::range_queries`], lets a driver skip a series
//! before building it — exactly how the paper's Figure 8(e) omits Chord.

use crate::network::SimNetwork;
use crate::peer::PeerId;
use crate::stats::MessageStats;
use crate::time::{LatencyModel, SimTime};
use crate::trace::{TraceBuffer, TraceConfig};

/// How long a failed peer stays dead before the surviving replicas finish
/// re-replicating its slice (tentpole (c): timed repair on the virtual
/// clock).
///
/// Two delays model the two recovery regimes: `fast` is the re-replication
/// time when at least one replica of the dead peer's slice survives (the
/// copy is streamed from a live neighbour), `slow` is the full
/// detect-and-rebuild time when no replica survived — which is always the
/// case at k = 1, where the repair must wait for the §III-D failure
/// protocol's timeout-driven detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairPolicy {
    /// Repair delay when a surviving replica can stream the slice back.
    pub fast: SimTime,
    /// Repair delay when no replica survived (timeout-detected rebuild).
    pub slow: SimTime,
}

impl RepairPolicy {
    /// The base repair delay for a failure, by replica survival.
    pub fn delay(&self, replica_survives: bool) -> SimTime {
        if replica_survives {
            self.fast
        } else {
            self.slow
        }
    }
}

/// What a driver needs to know about an overlay before it runs an
/// operation.  Everything else an overlay can or cannot do is answered by
/// the operation itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlayCapabilities {
    /// The overlay preserves key order and can answer range queries.
    /// (`false` for DHTs such as Chord: hashing destroys order.)
    pub range_queries: bool,
}

/// Message cost of one churn event (join, leave or failure recovery).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnCost {
    /// Messages to find the join node / the replacement node (Figure 8(a)).
    pub locate_messages: u64,
    /// Messages to update routing tables and links afterwards
    /// (Figure 8(b)).
    pub update_messages: u64,
    /// Data items lost by the event (non-zero only for failures on systems
    /// that do not replicate).
    pub lost_items: usize,
}

impl ChurnCost {
    /// Total messages of the event.
    pub fn total_messages(&self) -> u64 {
        self.locate_messages + self.update_messages
    }
}

/// Message cost of one data operation (insert, delete, exact or range
/// query).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Messages used by the operation, load balancing included.
    pub messages: u64,
    /// Number of matching values found (queries) or removed (deletes).
    pub matches: usize,
    /// Nodes whose range intersected the query (range queries; 1 for
    /// point operations that reached an owner).
    pub nodes_visited: usize,
    /// Messages spent on load balancing triggered by the operation
    /// (Figure 8(g); zero for systems without balancing).
    pub balance_messages: u64,
}

/// Errors surfaced through the [`Overlay`] interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverlayError {
    /// The operation is outside the overlay's capabilities (e.g. a range
    /// query on Chord).  Generic drivers treat this as "skip the series",
    /// not as a failure.
    Unsupported(&'static str),
    /// The operation failed; the message is the underlying system's error
    /// rendering.
    Op(String),
    /// The operation could not be completed because the peers holding (or
    /// leading to) the data are currently dead — the key's availability
    /// window, not a protocol bug.  Workload runners count these per op
    /// class instead of treating them as generic failures.
    Unavailable(String),
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            OverlayError::Op(message) => write!(f, "overlay operation failed: {message}"),
            OverlayError::Unavailable(message) => {
                write!(f, "operation hit an availability window: {message}")
            }
        }
    }
}

impl std::error::Error for OverlayError {}

/// Result alias for [`Overlay`] operations.
pub type OverlayResult<T> = Result<T, OverlayError>;

/// A peer-to-peer overlay under simulation: the common surface the
/// workload runners and figure drivers program against.
///
/// Implementations exist for `BatonSystem`, `ChordSystem`, `MTreeSystem`
/// and `D3TreeSystem`; the harness holds them as `Box<dyn Overlay>`.
pub trait Overlay {
    /// Whether this overlay answers range queries; drivers skip
    /// unsupported series.
    fn capabilities(&self) -> OverlayCapabilities;

    /// Number of live nodes.
    fn node_count(&self) -> usize;

    /// Total data items stored across all nodes.
    fn total_items(&self) -> usize;

    /// The overlay's simulated network.  Everything below that reads
    /// statistics, moves the clock, swaps the latency model or records
    /// routes is a provided method over this accessor and
    /// [`net_mut`](Self::net_mut).
    fn net(&self) -> &SimNetwork;

    /// Mutable access to the overlay's simulated network.
    fn net_mut(&mut self) -> &mut SimNetwork;

    /// Message statistics of the underlying simulated network.
    fn stats(&self) -> &MessageStats {
        self.net().stats()
    }

    /// Mutable statistics (experiments reset per-peer counters between
    /// phases, as in Figure 8(f)).
    fn stats_mut(&mut self) -> &mut MessageStats {
        self.net_mut().stats_mut()
    }

    /// The virtual instant the overlay's simulated network has reached.
    fn now(&self) -> SimTime {
        self.net().now()
    }

    /// Advances the network's arrival clock to `at`: operations issued after
    /// this call are stamped as arriving at `at`, so an open-loop workload
    /// can interleave operations in virtual time.
    fn advance_to(&mut self, at: SimTime) {
        self.net_mut().advance_to(at);
    }

    /// Replaces the link-latency model of the overlay's simulated network.
    fn set_latency_model(&mut self, model: LatencyModel) {
        self.net_mut().set_latency_model(model);
    }

    /// Approximate resident bytes of the overlay's protocol state: node
    /// structs, links, routing tables and stored items, including their
    /// heap allocations, but excluding the shared network substrate (peer
    /// registry, statistics).  This is what the perf harness divides by
    /// `node_count()` for the bytes-per-peer rows.
    ///
    /// Default: 0 — for test doubles and overlays that do not report.
    fn estimated_state_bytes(&self) -> u64 {
        0
    }

    /// Installs a route recorder on the overlay's network: every sampled
    /// operation from now on records a per-hop
    /// [`Span`](crate::trace::Span), bounded by the config's ring-buffer
    /// capacity.  Pure observation — statistics, latency draws and message
    /// counts are untouched.
    fn set_trace(&mut self, config: TraceConfig) {
        self.net_mut().set_trace(config);
    }

    /// Removes and returns the route recorder installed by
    /// [`set_trace`](Self::set_trace), disabling tracing; `None` when none
    /// was installed.
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.net_mut().take_trace()
    }

    /// Extracts an immutable routing/ownership snapshot of the overlay's
    /// current state for the concurrent serve front-end
    /// ([`crate::serve`]): dense per-peer key ranges, item indexes, link
    /// tables and replica sets that lock-free readers answer exact and
    /// range queries from with zero simulated-network traffic.  Pure
    /// observation — statistics, RNG streams and the virtual clock are
    /// untouched, so a run that extracts snapshots stays byte-identical
    /// to one that does not.
    ///
    /// Default: `None` — for test doubles and overlays without snapshot
    /// support.
    fn routing_snapshot(&self) -> Option<crate::serve::RoutingSnapshot> {
        None
    }

    /// The member peers, sorted by id.
    ///
    /// Fault plans use this to target *specific* peers (e.g. "kill half of
    /// region 2"); the id order is the stable sampling order the systems
    /// maintain for `random_peer`.  Under deferred repair a failed peer
    /// stays a member (its slice is still owned, just unavailable) until
    /// its repair runs, so the list may hold dead peers: ask
    /// `net().is_alive(peer)` for liveness.
    ///
    /// Default: empty — overlays that do not expose their peer list cannot
    /// be targeted by region-scoped faults (region kills degrade to no-ops).
    fn peers(&self) -> &[PeerId] {
        &[]
    }

    /// A new node joins through a random existing contact.
    fn join_random(&mut self) -> OverlayResult<ChurnCost>;

    /// A random node departs gracefully.
    fn leave_random(&mut self) -> OverlayResult<ChurnCost>;

    /// The *specific* peer `peer` departs gracefully.  Fault plans fall back
    /// to this on overlays without [`fail_peer`](Self::fail_peer).
    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost>;

    /// A random node fails abruptly and the overlay recovers.
    ///
    /// Default: unsupported — the overlay has no failure protocol.
    fn fail_random(&mut self) -> OverlayResult<ChurnCost> {
        Err(OverlayError::Unsupported("failure injection"))
    }

    /// The *specific* peer `peer` fails abruptly and the overlay recovers.
    ///
    /// Default: unsupported — fault plans degrade a targeted failure to a
    /// targeted graceful departure ([`leave_peer`](Self::leave_peer)),
    /// mirroring how [`fail_random`](Self::fail_random) degrades on
    /// overlays without a failure protocol.
    fn fail_peer(&mut self, _peer: PeerId) -> OverlayResult<ChurnCost> {
        Err(OverlayError::Unsupported("targeted failure"))
    }

    /// Sets the replication degree.  k = 1 (no replication) always
    /// succeeds; higher degrees are only accepted by overlays with a
    /// replica-placement rule.
    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        if k == 1 {
            Ok(())
        } else {
            Err(OverlayError::Unsupported("replication"))
        }
    }

    /// The *specific* peer `peer` fails abruptly but is **not** repaired
    /// yet: the overlay marks it dead and returns the repair delay (drawn
    /// per the policy and the replica survival of the peer's slice) after
    /// which the caller should invoke [`repair_peer`](Self::repair_peer).
    /// Between the two calls, reads for the dead peer's keys either fail
    /// over to a replica (k > 1) or surface
    /// [`OverlayError::Unavailable`].
    ///
    /// Default: unsupported — callers degrade to the immediate
    /// [`fail_peer`](Self::fail_peer) recovery.
    fn fail_peer_deferred(
        &mut self,
        _peer: PeerId,
        _policy: &RepairPolicy,
    ) -> OverlayResult<SimTime> {
        Err(OverlayError::Unsupported("deferred failure repair"))
    }

    /// Runs the repair for a peer previously failed through
    /// [`fail_peer_deferred`](Self::fail_peer_deferred): surviving replicas
    /// re-replicate the dead peer's slice and the structure is mended.
    ///
    /// Default: unsupported.
    fn repair_peer(&mut self, _peer: PeerId) -> OverlayResult<ChurnCost> {
        Err(OverlayError::Unsupported("deferred failure repair"))
    }

    /// `true` when a currently-dead peer's slice could stream from a live
    /// replica holder *right now* — the condition for its pending repair to
    /// take the policy's fast path.  The repair queue polls this after each
    /// completed repair: a victim classified for the slow path at kill time
    /// (its replica holders were dead too) is re-staged onto the fast path
    /// the moment an earlier repair brings a holder back.
    ///
    /// Default: `false` — overlays without replicated deferred repair never
    /// accelerate.
    fn repair_fast_eligible(&self, _peer: PeerId) -> bool {
        false
    }

    /// Places a dataset directly into the owning nodes' stores without
    /// routing — the data-load analogue of a bulk construction: zero
    /// messages, and every key lands at the node a routed insert would
    /// reach, so queries see the same dataset either way.  Returns `false`
    /// when the overlay has no direct path; callers fall back to routed
    /// inserts.  Like bulk construction itself, drivers only take this path
    /// when explicitly asked (`build: Bulk` scenario runs).
    ///
    /// Default: `false` — only overlays with a bulk constructor (registered
    /// on their `OverlaySpec`) are expected to implement it.
    fn load_direct(&mut self, _data: &[(u64, u64)]) -> bool {
        false
    }

    /// Inserts `value` under `key` from a random issuer.
    fn insert(&mut self, key: u64, value: u64) -> OverlayResult<OpCost>;

    /// Deletes one value stored under `key` from a random issuer.
    fn delete(&mut self, key: u64) -> OverlayResult<OpCost>;

    /// Exact-match query for `key` from a random issuer.
    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost>;

    /// Range query for `[low, high)` from a random issuer.
    ///
    /// Returns [`OverlayError::Unsupported`] when
    /// [`OverlayCapabilities::range_queries`] is `false`.
    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost>;

    /// Checks the overlay's structural invariants.
    fn validate(&self) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal in-memory implementation used to exercise the trait's
    /// defaults and the error plumbing: it holds a network and implements
    /// only the required methods.
    struct Toy {
        net: SimNetwork,
        items: usize,
        nodes: usize,
    }

    impl Toy {
        fn new() -> Self {
            Self {
                net: SimNetwork::new(),
                items: 0,
                nodes: 1,
            }
        }
    }

    impl Overlay for Toy {
        fn capabilities(&self) -> OverlayCapabilities {
            OverlayCapabilities {
                range_queries: false,
            }
        }
        fn node_count(&self) -> usize {
            self.nodes
        }
        fn total_items(&self) -> usize {
            self.items
        }
        fn net(&self) -> &SimNetwork {
            &self.net
        }
        fn net_mut(&mut self) -> &mut SimNetwork {
            &mut self.net
        }
        fn join_random(&mut self) -> OverlayResult<ChurnCost> {
            self.nodes += 1;
            Ok(ChurnCost::default())
        }
        fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
            if self.nodes <= 1 {
                return Err(OverlayError::Op("last node".into()));
            }
            self.nodes -= 1;
            Ok(ChurnCost::default())
        }
        fn leave_peer(&mut self, _peer: PeerId) -> OverlayResult<ChurnCost> {
            self.leave_random()
        }
        fn insert(&mut self, _key: u64, _value: u64) -> OverlayResult<OpCost> {
            self.items += 1;
            Ok(OpCost {
                messages: 1,
                ..OpCost::default()
            })
        }
        fn delete(&mut self, _key: u64) -> OverlayResult<OpCost> {
            Ok(OpCost::default())
        }
        fn search_exact(&mut self, _key: u64) -> OverlayResult<OpCost> {
            Ok(OpCost::default())
        }
        fn search_range(&mut self, _low: u64, _high: u64) -> OverlayResult<OpCost> {
            Err(OverlayError::Unsupported("range query"))
        }
        fn validate(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn trait_objects_expose_defaults_and_capabilities() {
        let mut toy = Toy::new();
        let overlay: &mut dyn Overlay = &mut toy;
        assert!(!overlay.capabilities().range_queries);
        assert!(overlay.fail_random().is_err());
        overlay.join_random().unwrap();
        assert_eq!(overlay.node_count(), 2);
        overlay.insert(1, 2).unwrap();
        assert_eq!(overlay.total_items(), 1);
        assert!(matches!(
            overlay.search_range(0, 10),
            Err(OverlayError::Unsupported(_))
        ));
        overlay.validate().unwrap();
    }

    #[test]
    fn provided_network_methods_act_on_the_overlays_own_network() {
        let mut toy = Toy::new();
        let overlay: &mut dyn Overlay = &mut toy;
        overlay.advance_to(SimTime::from_millis(7));
        assert_eq!(overlay.now(), SimTime::from_millis(7));
        overlay.set_latency_model(LatencyModel::constant(SimTime::from_millis(3)));
        overlay.set_trace(TraceConfig::new(8));
        let op = overlay.stats_mut().begin_op("probe");
        assert_eq!(overlay.stats().next_op_id(), 1);

        // Every call above landed on the network the double holds.
        assert_eq!(toy.net.now(), SimTime::from_millis(7));
        assert!(toy.net.trace_enabled());
        assert!(toy.net.stats().op(op.id).is_some());
        let (a, b) = (toy.net.add_peer(), toy.net.add_peer());
        assert_eq!(toy.net.sample_latency(a, b), SimTime::from_millis(3));

        let overlay: &mut dyn Overlay = &mut toy;
        assert!(overlay.take_trace().is_some());
        assert!(overlay.take_trace().is_none());
        assert!(!toy.net.trace_enabled());
    }

    #[test]
    fn costs_and_errors_format_and_total() {
        let cost = ChurnCost {
            locate_messages: 3,
            update_messages: 4,
            lost_items: 0,
        };
        assert_eq!(cost.total_messages(), 7);
        assert!(OverlayError::Unsupported("range query")
            .to_string()
            .contains("range query"));
        assert!(OverlayError::Op("boom".into()).to_string().contains("boom"));
    }

    #[test]
    fn replication_and_repair_defaults_are_off() {
        let mut toy = Toy::new();
        let overlay: &mut dyn Overlay = &mut toy;
        overlay.set_replication(1).unwrap();
        assert!(matches!(
            overlay.set_replication(2),
            Err(OverlayError::Unsupported(_))
        ));
        assert!(overlay.peers().is_empty());
        let policy = RepairPolicy {
            fast: SimTime::from_millis(500),
            slow: SimTime::from_secs(10),
        };
        assert_eq!(policy.delay(true), SimTime::from_millis(500));
        assert_eq!(policy.delay(false), SimTime::from_secs(10));
        assert!(overlay.fail_peer_deferred(PeerId(0), &policy).is_err());
        assert!(overlay.repair_peer(PeerId(0)).is_err());
        assert!(OverlayError::Unavailable("owner dead".into())
            .to_string()
            .contains("availability window"));
    }
}
