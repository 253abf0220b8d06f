//! The BATON wire protocol.
//!
//! Every request that is *forwarded* hop by hop is modelled as one
//! [`BatonMessage`] sent through the [`baton_net::SimNetwork`]: `JOIN` and
//! its forwarding (Algorithm 1), `FINDREPLACEMENT` and the departure
//! handoffs (Algorithm 2), the exact-match and range search requests
//! (§IV-A/B; inserts and deletes reach the key's owner by the same
//! exact-match walk) and the load-balancing traffic (§IV-D).  One-way
//! notifications — leave and failure reports, routing-table, range and
//! adjacency updates, restructuring shifts — carry no payload the
//! receiver-side update needs and are charged by kind through
//! `BatonSystem::notify`.

use baton_net::{NetMessage, PeerId};

use crate::position::{Position, Side};
use crate::range::{Key, KeyRange};
use crate::routing::NodeLink;

/// A protocol message exchanged between BATON peers.
#[derive(Clone, Debug)]
pub enum BatonMessage {
    // ----- node join (paper §III-A, Algorithm 1) -----
    /// A new peer asks `to` to find it a place in the tree.
    JoinRequest {
        /// The peer that wants to join.
        joiner: PeerId,
    },
    /// A node accepts the joiner as its child and hands over half its range.
    JoinAccept {
        /// The accepting parent.
        parent: NodeLink,
        /// Side on which the joiner is attached.
        side: Side,
        /// Range assigned to the new child.
        range: KeyRange,
    },

    // ----- node departure (paper §III-B, Algorithm 2) -----
    /// A node that wishes to leave asks `to` to find a replacement leaf.
    FindReplacement {
        /// The departing node.
        departing: PeerId,
        /// Position of the departing node (the spot to fill).
        position: Position,
    },
    /// The departing node transfers its content to its parent.
    LeaveTransfer {
        /// Range handed over.
        range: KeyRange,
        /// Number of data items handed over.
        items: usize,
    },
    /// A replacement node announces it now occupies a departed node's
    /// position; receivers repoint their links.
    ReplacementAnnounce {
        /// The peer being replaced.
        old: PeerId,
        /// Link to the replacement.
        new_link: NodeLink,
    },

    // ----- search (paper §IV-A/B) -----
    /// Exact-match query for `key`, forwarded towards its owner.
    SearchExact {
        /// Key being searched.
        key: Key,
        /// Peer that issued the query and expects the answer.
        issuer: PeerId,
    },
    /// Range query, forwarded until a node intersecting `range` is found,
    /// then spread along adjacent links.
    SearchRange {
        /// Range being searched.
        range: KeyRange,
        /// Peer that issued the query.
        issuer: PeerId,
    },

    // ----- load balancing (paper §IV-D) -----
    /// An overloaded node asks an adjacent node to take over part of its
    /// range and data.
    BalanceMigrate {
        /// Range migrating to the receiver.
        range: KeyRange,
        /// Number of items migrating.
        items: usize,
    },
    /// An overloaded leaf asks a lightly loaded leaf to leave its position
    /// and re-join as the overloaded node's child.
    BalanceRequestRejoin {
        /// The overloaded node.
        overloaded: PeerId,
    },
}

impl NetMessage for BatonMessage {
    fn kind(&self) -> &'static str {
        match self {
            BatonMessage::JoinRequest { .. } => "join.request",
            BatonMessage::JoinAccept { .. } => "join.accept",
            BatonMessage::FindReplacement { .. } => "leave.find_replacement",
            BatonMessage::LeaveTransfer { .. } => "leave.transfer",
            BatonMessage::ReplacementAnnounce { .. } => "leave.replacement_announce",
            BatonMessage::SearchExact { .. } => "search.exact",
            BatonMessage::SearchRange { .. } => "search.range",
            BatonMessage::BalanceMigrate { .. } => "balance.migrate",
            BatonMessage::BalanceRequestRejoin { .. } => "balance.request_rejoin",
        }
    }

    fn approximate_size(&self) -> usize {
        // Rough wire sizes: addressing + payload fields.  Only used for
        // byte-level accounting.
        match self {
            BatonMessage::JoinRequest { .. } => 24,
            BatonMessage::JoinAccept { .. } => 56,
            BatonMessage::FindReplacement { .. } => 36,
            BatonMessage::LeaveTransfer { .. } => 32,
            BatonMessage::ReplacementAnnounce { .. } => 56,
            BatonMessage::SearchExact { .. } => 32,
            BatonMessage::SearchRange { .. } => 40,
            BatonMessage::BalanceMigrate { .. } => 40,
            BatonMessage::BalanceRequestRejoin { .. } => 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::KeyRange;

    #[test]
    fn kinds_are_distinct_per_variant_family() {
        let msgs: Vec<BatonMessage> = vec![
            BatonMessage::JoinRequest { joiner: PeerId(1) },
            BatonMessage::FindReplacement {
                departing: PeerId(1),
                position: Position::ROOT,
            },
            BatonMessage::SearchExact {
                key: 5,
                issuer: PeerId(1),
            },
            BatonMessage::SearchRange {
                range: KeyRange::new(0, 10),
                issuer: PeerId(1),
            },
            BatonMessage::BalanceMigrate {
                range: KeyRange::new(0, 10),
                items: 3,
            },
        ];
        let kinds: Vec<&str> = msgs.iter().map(|m| m.kind()).collect();
        let mut dedup = kinds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            kinds.len(),
            "kinds must be distinct: {kinds:?}"
        );
    }

    #[test]
    fn kind_prefixes_group_by_mechanism() {
        assert!(BatonMessage::JoinRequest { joiner: PeerId(0) }
            .kind()
            .starts_with("join."));
        assert!(BatonMessage::LeaveTransfer {
            range: KeyRange::new(0, 1),
            items: 0
        }
        .kind()
        .starts_with("leave."));
        assert!(BatonMessage::SearchExact {
            key: 0,
            issuer: PeerId(0)
        }
        .kind()
        .starts_with("search."));
        assert!(BatonMessage::BalanceRequestRejoin {
            overloaded: PeerId(0)
        }
        .kind()
        .starts_with("balance."));
    }

    #[test]
    fn approximate_sizes_are_positive() {
        let msgs = [
            BatonMessage::JoinRequest { joiner: PeerId(1) },
            BatonMessage::LeaveTransfer {
                range: KeyRange::new(0, 1),
                items: 0,
            },
        ];
        for m in msgs {
            assert!(m.approximate_size() > 0);
        }
    }
}
