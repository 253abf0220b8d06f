//! Peer identities and the liveness registry.
//!
//! A [`PeerId`] is the simulator's stand-in for a physical network address
//! (the paper's "physical id in terms of its IP address").  The
//! [`PeerRegistry`] tracks which peers exist and whether they are alive,
//! which is all the substrate needs to model node failure (paper §III-C).

use std::fmt;

/// Opaque identifier of a peer (a physical compute node).
///
/// In a deployment this would be an IP address / port pair; in the simulator
/// it is a dense integer handed out by [`PeerRegistry::register`].  The id
/// is a `u32`: four billion peers is three orders of magnitude beyond the
/// million-peer target, and the narrow id halves every link, routing-table
/// entry and finger across all four overlays.  [`PeerId::raw`] still speaks
/// `u64` so seeded hashes (region maps, wire frames) are bit-identical to
/// the wide-id substrate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Raw numeric value of the identifier, widened to the `u64` domain the
    /// seeded hashes and the wire format use.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

/// Liveness of a peer as observed by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerStatus {
    /// The peer is running and will receive messages.
    Alive,
    /// The peer departed gracefully (LEAVE protocol completed).
    Departed,
    /// The peer crashed or left abruptly; messages to it bounce.
    Failed,
}

impl PeerStatus {
    /// `true` if messages addressed to a peer with this status are delivered.
    #[inline]
    pub fn is_alive(self) -> bool {
        matches!(self, PeerStatus::Alive)
    }
}

/// Registry of every peer ever created in a simulation together with its
/// liveness status.
///
/// [`PeerId`]s are dense sequential integers, so the registry is a plain
/// `Vec` slab indexed by the raw id: every status probe on the message hot
/// path (two per delivery) is an array index, not a hash lookup.
/// Identifiers are never reused — a departed or failed peer leaves a dead
/// slot behind — because seeded experiments sample from peer lists ordered
/// by id and id reuse would silently reorder them.
#[derive(Clone, Debug, Default)]
pub struct PeerRegistry {
    status: Vec<PeerStatus>,
}

impl PeerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a brand-new peer and returns its identifier.
    ///
    /// # Panics
    /// Panics if the dense `u32` id space is exhausted (more than four
    /// billion registrations) instead of silently wrapping ids.
    pub fn register(&mut self) -> PeerId {
        assert!(
            self.status.len() < u32::MAX as usize,
            "peer id space exhausted"
        );
        let id = PeerId(self.status.len() as u32);
        self.status.push(PeerStatus::Alive);
        id
    }

    /// Number of peers ever registered (alive or not).
    pub fn total(&self) -> usize {
        self.status.len()
    }

    /// Returns the status of `peer`, or `None` if it was never registered.
    #[inline]
    pub fn status(&self, peer: PeerId) -> Option<PeerStatus> {
        self.status.get(peer.0 as usize).copied()
    }

    /// `true` if the peer exists and is alive.
    pub fn is_alive(&self, peer: PeerId) -> bool {
        self.status(peer).is_some_and(PeerStatus::is_alive)
    }

    /// Marks a peer as having departed gracefully.
    ///
    /// Returns `false` if the peer was unknown.
    pub fn mark_departed(&mut self, peer: PeerId) -> bool {
        self.set_status(peer, PeerStatus::Departed)
    }

    /// Marks a peer as failed (crash / abrupt departure).
    ///
    /// Returns `false` if the peer was unknown.
    pub fn mark_failed(&mut self, peer: PeerId) -> bool {
        self.set_status(peer, PeerStatus::Failed)
    }

    fn set_status(&mut self, peer: PeerId, status: PeerStatus) -> bool {
        match self.status.get_mut(peer.0 as usize) {
            Some(slot) => {
                *slot = status;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_dense_ids() {
        let mut reg = PeerRegistry::new();
        let a = reg.register();
        let b = reg.register();
        let c = reg.register();
        assert_eq!(a, PeerId(0));
        assert_eq!(b, PeerId(1));
        assert_eq!(c, PeerId(2));
        assert_eq!(reg.total(), 3);
    }

    #[test]
    fn status_transitions() {
        let mut reg = PeerRegistry::new();
        let a = reg.register();
        assert!(reg.is_alive(a));
        assert!(reg.mark_failed(a));
        assert!(!reg.is_alive(a));
        assert_eq!(reg.status(a), Some(PeerStatus::Failed));
        assert!(reg.mark_departed(a));
        assert_eq!(reg.status(a), Some(PeerStatus::Departed));
    }

    #[test]
    fn unknown_peer_is_not_alive_and_cannot_change_status() {
        let mut reg = PeerRegistry::new();
        let ghost = PeerId(42);
        assert_eq!(reg.status(ghost), None);
        assert!(!reg.is_alive(ghost));
        assert!(!reg.mark_failed(ghost));
        assert!(!reg.mark_departed(ghost));
    }

    #[test]
    fn peer_id_display_and_raw() {
        let p = PeerId(7);
        assert_eq!(p.raw(), 7);
        assert_eq!(format!("{p}"), "peer#7");
        assert_eq!(format!("{p:?}"), "peer#7");
    }

    #[test]
    fn status_is_alive_helper() {
        assert!(PeerStatus::Alive.is_alive());
        assert!(!PeerStatus::Departed.is_alive());
        assert!(!PeerStatus::Failed.is_alive());
    }
}
