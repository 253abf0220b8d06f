//! Error types for BATON operations.

use baton_net::{OverlayError, PeerId};

use crate::position::Position;
use crate::range::Key;

/// Errors returned by [`crate::BatonSystem`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatonError {
    /// The referenced peer is not part of the overlay (never joined, or
    /// already departed/failed).
    UnknownPeer(PeerId),
    /// The referenced peer is not alive.
    PeerNotAlive(PeerId),
    /// The overlay has no nodes at all.
    EmptyNetwork,
    /// The last remaining node cannot leave the network.
    LastNode,
    /// A forwarding walk exceeded its safety bound — indicates corrupted
    /// routing state (should never happen on a consistent tree).
    RoutingLoop {
        /// What the walk was doing (e.g. `"search_exact"`).
        operation: &'static str,
        /// Number of hops taken before aborting.
        hops: u32,
    },
    /// A key outside the overlay's configured domain was used.
    KeyOutOfDomain(Key),
    /// The key was not found by a delete or exact search that required it.
    KeyNotFound(Key),
    /// No peer occupies the given logical position (internal inconsistency).
    PositionVacant(Position),
    /// A structural invariant was violated; produced by
    /// [`crate::validate()`] checks.
    InvariantViolation(String),
}

impl std::fmt::Display for BatonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatonError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            BatonError::PeerNotAlive(p) => write!(f, "peer {p} is not alive"),
            BatonError::EmptyNetwork => write!(f, "the overlay has no nodes"),
            BatonError::LastNode => write!(f, "the last node cannot leave the network"),
            BatonError::RoutingLoop { operation, hops } => {
                write!(
                    f,
                    "{operation} exceeded {hops} hops: routing state corrupted"
                )
            }
            BatonError::KeyOutOfDomain(k) => write!(f, "key {k} is outside the indexed domain"),
            BatonError::KeyNotFound(k) => write!(f, "key {k} not found"),
            BatonError::PositionVacant(p) => write!(f, "no peer occupies position {p}"),
            BatonError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for BatonError {}

/// How a BATON error reads through the `Overlay` interface: an operation
/// that bounced off an unrepaired failure (a dead peer in the way, or a walk
/// whose budget drowned in dead candidates) is an *availability* miss, which
/// the workload layer counts instead of aborting the run.  Every other error
/// is a hard [`OverlayError::Op`].
impl From<BatonError> for OverlayError {
    fn from(error: BatonError) -> Self {
        match error {
            BatonError::PeerNotAlive(_) | BatonError::RoutingLoop { .. } => {
                OverlayError::Unavailable(error.to_string())
            }
            other => OverlayError::Op(other.to_string()),
        }
    }
}

/// Convenience alias for results of BATON operations.
pub type Result<T> = std::result::Result<T, BatonError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_details() {
        assert!(BatonError::UnknownPeer(PeerId(3))
            .to_string()
            .contains("peer#3"));
        assert!(BatonError::KeyOutOfDomain(42).to_string().contains("42"));
        assert!(BatonError::KeyNotFound(7).to_string().contains("7"));
        assert!(BatonError::RoutingLoop {
            operation: "search_exact",
            hops: 99
        }
        .to_string()
        .contains("search_exact"));
        assert!(BatonError::PositionVacant(Position::new(2, 3))
            .to_string()
            .contains("level 2"));
        assert!(BatonError::InvariantViolation("broken".into())
            .to_string()
            .contains("broken"));
        assert!(!BatonError::EmptyNetwork.to_string().is_empty());
        assert!(!BatonError::LastNode.to_string().is_empty());
        assert!(!BatonError::PeerNotAlive(PeerId(0)).to_string().is_empty());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(BatonError::EmptyNetwork, BatonError::EmptyNetwork);
        assert_ne!(
            BatonError::UnknownPeer(PeerId(1)),
            BatonError::UnknownPeer(PeerId(2))
        );
    }
}
