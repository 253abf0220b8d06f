//! The BATON wire protocol.
//!
//! Every hop of every algorithm in the paper is modelled as one
//! [`BatonMessage`] sent through the [`baton_net::SimNetwork`].  The message
//! kinds mirror the paper's vocabulary: `JOIN` and its forwarding
//! (Algorithm 1), `FINDREPLACEMENT` (Algorithm 2), `LEAVE` notifications,
//! the exact-match and range search requests (§IV-A/B), data insertion and
//! deletion (§IV-C), routing-table maintenance traffic, restructuring
//! notifications (§III-E) and load-balancing traffic (§IV-D).

use baton_net::{NetMessage, PeerId};

use crate::position::{Position, Side};
use crate::range::{Key, KeyRange};
use crate::routing::NodeLink;
use crate::store::Value;

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
    /// Notification that a leaf is departing; receivers drop their links.
    LeaveNotify {
        /// The departing peer.
        departing: PeerId,
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

    // ----- failure handling (paper §III-C) -----
    /// A peer reports that `failed` is unreachable to the failed node's
    /// parent.
    FailureReport {
        /// The unreachable peer.
        failed: PeerId,
    },
    /// The parent asks a neighbour's child for the links it needs to
    /// regenerate the failed node's routing tables.
    TableRegenQuery {
        /// Position whose tables are being regenerated.
        position: Position,
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
    /// Answer (or partial answer) returned to the issuer.
    SearchAnswer {
        /// Number of matching items in this partial answer.
        matches: usize,
    },

    // ----- data maintenance (paper §IV-C) -----
    /// Insert `value` under `key`, forwarded towards the key's owner.
    Insert {
        /// Key to insert.
        key: Key,
        /// Value to insert.
        value: Value,
    },
    /// Delete one item under `key`, forwarded towards the key's owner.
    Delete {
        /// Key to delete.
        key: Key,
    },

    // ----- routing-table maintenance (paper §III-A/B) -----
    /// A parent informs its neighbours that it gained (or lost) a child so
    /// they can update the child knowledge in their tables.
    ChildUpdate {
        /// The node whose children changed.
        node: PeerId,
        /// New left child, if any.
        left_child: Option<PeerId>,
        /// New right child, if any.
        right_child: Option<PeerId>,
    },
    /// A neighbour (or its child) supplies the information a new node needs
    /// to fill one routing-table slot.
    TableFill {
        /// Slot index being filled.
        index: usize,
        /// Side of the table being filled.
        side: Side,
        /// Entry contents.
        link: NodeLink,
    },
    /// A node informs a linked node that its managed range changed.
    RangeUpdate {
        /// The node whose range changed.
        node: PeerId,
        /// Its new range.
        range: KeyRange,
    },
    /// A node informs a linked node that its adjacent link must change.
    AdjacentUpdate {
        /// Which side of the receiver's adjacency changes.
        side: Side,
        /// The new adjacent node.
        new_adjacent: NodeLink,
    },

    // ----- restructuring (paper §III-E) -----
    /// A node instructs another to take over a (possibly new) position.
    RestructureShift {
        /// Position the receiver must occupy.
        new_position: Position,
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
            BatonMessage::LeaveNotify { .. } => "leave.notify",
            BatonMessage::LeaveTransfer { .. } => "leave.transfer",
            BatonMessage::ReplacementAnnounce { .. } => "leave.replacement_announce",
            BatonMessage::FailureReport { .. } => "failure.report",
            BatonMessage::TableRegenQuery { .. } => "failure.table_regen",
            BatonMessage::SearchExact { .. } => "search.exact",
            BatonMessage::SearchRange { .. } => "search.range",
            BatonMessage::SearchAnswer { .. } => "search.answer",
            BatonMessage::Insert { .. } => "data.insert",
            BatonMessage::Delete { .. } => "data.delete",
            BatonMessage::ChildUpdate { .. } => "table.child_update",
            BatonMessage::TableFill { .. } => "table.fill",
            BatonMessage::RangeUpdate { .. } => "table.range_update",
            BatonMessage::AdjacentUpdate { .. } => "table.adjacent_update",
            BatonMessage::RestructureShift { .. } => "restructure.shift",
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
            BatonMessage::LeaveNotify { .. } => 24,
            BatonMessage::LeaveTransfer { .. } => 32,
            BatonMessage::ReplacementAnnounce { .. } => 56,
            BatonMessage::FailureReport { .. } => 24,
            BatonMessage::TableRegenQuery { .. } => 28,
            BatonMessage::SearchExact { .. } => 32,
            BatonMessage::SearchRange { .. } => 40,
            BatonMessage::SearchAnswer { .. } => 24,
            BatonMessage::Insert { .. } => 32,
            BatonMessage::Delete { .. } => 24,
            BatonMessage::ChildUpdate { .. } => 40,
            BatonMessage::TableFill { .. } => 64,
            BatonMessage::RangeUpdate { .. } => 40,
            BatonMessage::AdjacentUpdate { .. } => 56,
            BatonMessage::RestructureShift { .. } => 28,
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
            BatonMessage::Insert { key: 1, value: 2 },
            BatonMessage::Delete { key: 1 },
            BatonMessage::ChildUpdate {
                node: PeerId(1),
                left_child: None,
                right_child: None,
            },
            BatonMessage::RestructureShift {
                new_position: Position::ROOT,
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
        assert!(BatonMessage::LeaveNotify {
            departing: PeerId(0)
        }
        .kind()
        .starts_with("leave."));
        assert!(BatonMessage::SearchExact {
            key: 0,
            issuer: PeerId(0)
        }
        .kind()
        .starts_with("search."));
        assert!(BatonMessage::Insert { key: 0, value: 0 }
            .kind()
            .starts_with("data."));
        assert!(BatonMessage::RangeUpdate {
            node: PeerId(0),
            range: KeyRange::new(0, 1)
        }
        .kind()
        .starts_with("table."));
    }

    #[test]
    fn approximate_sizes_are_positive() {
        let msgs = [
            BatonMessage::JoinRequest { joiner: PeerId(1) },
            BatonMessage::SearchAnswer { matches: 0 },
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
