//! Message envelopes and the [`NetMessage`] trait implemented by every
//! protocol's payload type.

use crate::peer::PeerId;
use crate::stats::OpId;
use crate::time::SimTime;

/// Trait implemented by protocol message payloads so the simulator can
/// classify traffic without knowing the concrete protocol.
///
/// The `kind` string is used as a statistics bucket; it should be a small,
/// fixed set of labels (e.g. `"join.request"`, `"search.exact"`).
pub trait NetMessage: Clone + std::fmt::Debug {
    /// Statistics bucket this message belongs to.
    fn kind(&self) -> &'static str;

    /// Approximate payload size in bytes, used by the byte-level accounting
    /// of [`MessageStats`](crate::MessageStats).  The default is a
    /// conservative fixed estimate; protocols can override it for realism.
    fn approximate_size(&self) -> usize {
        64
    }
}

/// A message in flight: payload plus addressing and accounting metadata.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Number of overlay hops this logical request has already made.
    /// The first message of an operation has `hop == 1`.
    pub hop: u32,
    /// Operation this message is attributed to (see [`crate::stats`]).
    pub op: OpId,
    /// Virtual time at which the message is scheduled to be delivered
    /// (send time plus one link-latency draw; see [`crate::time`]).
    pub deliver_at: SimTime,
    /// Protocol payload.
    pub payload: M,
}

impl<M: NetMessage> Envelope<M> {
    /// Statistics bucket of the payload.
    pub fn kind(&self) -> &'static str {
        self.payload.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Dummy(&'static str);
    impl NetMessage for Dummy {
        fn kind(&self) -> &'static str {
            self.0
        }
        fn approximate_size(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn envelope_exposes_payload_kind() {
        let env = Envelope {
            from: PeerId(1),
            to: PeerId(2),
            hop: 1,
            op: OpId(0),
            deliver_at: SimTime::ZERO,
            payload: Dummy("probe"),
        };
        assert_eq!(env.kind(), "probe");
        assert_eq!(env.payload.approximate_size(), 5);
    }

    #[test]
    fn default_approximate_size_is_nonzero() {
        #[derive(Clone, Debug)]
        struct Plain;
        impl NetMessage for Plain {
            fn kind(&self) -> &'static str {
                "plain"
            }
        }
        assert!(Plain.approximate_size() > 0);
    }
}
