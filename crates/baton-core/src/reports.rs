//! Per-operation cost reports.
//!
//! Every public operation of [`crate::BatonSystem`] returns a report with
//! the message counts the paper's evaluation plots: messages to *locate*
//! (find the join node, the replacement node, or the key owner) and messages
//! to *update routing tables*, plus operation-specific detail such as the
//! number of nodes shifted by a restructuring (Figure 8(h)).

use baton_net::{ChurnCost, OpCost, PeerId};

use crate::position::Position;
use crate::range::{Key, KeyRange};
use crate::store::Value;

/// Cost of a network-restructuring pass (paper §III-E).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestructureReport {
    /// Number of nodes whose position changed.
    pub nodes_shifted: usize,
    /// Messages spent updating links and routing tables of shifted nodes.
    pub messages: u64,
}

/// Report of a node join (paper §III-A).
#[derive(Clone, Debug, PartialEq)]
pub struct JoinReport {
    /// The peer that joined.
    pub new_peer: PeerId,
    /// The peer that accepted it as a child.
    pub parent: PeerId,
    /// Position assigned to the new node.
    pub position: Position,
    /// Range assigned to the new node.
    pub range: KeyRange,
    /// Messages to find the join node (Figure 8(a)).
    pub locate_messages: u64,
    /// Messages to update routing tables and links (Figure 8(b)).
    pub update_messages: u64,
    /// Restructuring triggered by a *forced* join, if any.
    pub restructure: Option<RestructureReport>,
}

impl JoinReport {
    /// Total messages of the join.
    pub fn total_messages(&self) -> u64 {
        self.locate_messages + self.update_messages + self.restructure.map_or(0, |r| r.messages)
    }
}

/// Report of a graceful node departure (paper §III-B).
#[derive(Clone, Debug, PartialEq)]
pub struct LeaveReport {
    /// The peer that departed.
    pub departed: PeerId,
    /// The leaf that moved into the departed node's position, if a
    /// replacement was needed.
    pub replacement: Option<PeerId>,
    /// Messages to find the replacement node (Figure 8(a)); zero when the
    /// leaf could depart directly.
    pub locate_messages: u64,
    /// Messages to update routing tables and links (Figure 8(b)).
    pub update_messages: u64,
    /// Restructuring triggered by a *forced* departure, if any.
    pub restructure: Option<RestructureReport>,
}

impl LeaveReport {
    /// Total messages of the departure.
    pub fn total_messages(&self) -> u64 {
        self.locate_messages + self.update_messages + self.restructure.map_or(0, |r| r.messages)
    }
}

/// Report of the recovery from a node failure (paper §III-C).
#[derive(Clone, Debug, PartialEq)]
pub struct FailureReport {
    /// The peer that failed.
    pub failed: PeerId,
    /// The peer that coordinated recovery (normally the failed node's
    /// parent).
    pub coordinator: Option<PeerId>,
    /// The leaf that moved into the failed node's position, if any.
    pub replacement: Option<PeerId>,
    /// Messages spent regenerating the failed node's routing state.
    pub regeneration_messages: u64,
    /// Messages spent on the graceful-departure protocol run on the failed
    /// node's behalf (locate + update).
    pub departure_messages: u64,
    /// Number of data items lost with the failed node (BATON does not
    /// replicate data).
    pub lost_items: usize,
}

impl FailureReport {
    /// Total messages of the recovery.
    pub fn total_messages(&self) -> u64 {
        self.regeneration_messages + self.departure_messages
    }
}

/// Report of an exact-match query (paper §IV-A).
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReport {
    /// Key searched for.
    pub key: Key,
    /// Peer that owns the key's range.
    pub owner: PeerId,
    /// Matching values found at the owner.
    pub matches: Vec<Value>,
    /// Messages used to route the query (Figure 8(d)).
    pub messages: u64,
    /// Overlay hops from issuer to owner.
    pub hops: u32,
}

/// Report of a range query (paper §IV-B).
#[derive(Clone, Debug, PartialEq)]
pub struct RangeSearchReport {
    /// Range searched.
    pub range: KeyRange,
    /// Matching `(key, value)` pairs, in key order.
    pub matches: Vec<(Key, Value)>,
    /// Messages used (Figure 8(e)): `O(log N)` to find the first
    /// intersection plus one per additional node covered.
    pub messages: u64,
    /// Number of nodes whose range intersected the query.
    pub nodes_visited: usize,
}

/// What kind of load-balancing action was taken (paper §IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceKind {
    /// Data migrated to an adjacent node.
    AdjacentMigration,
    /// A lightly loaded leaf left its position and re-joined as a child of
    /// the overloaded node (possibly forcing a restructuring).
    LeafRejoin,
}

/// Report of one load-balancing action.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadBalanceReport {
    /// Which scheme was used.
    pub kind: BalanceKind,
    /// Messages spent balancing (Figure 8(g)).
    pub messages: u64,
    /// Number of nodes involved in the accompanying restructuring shift
    /// (Figure 8(h)); zero for adjacent migration.
    pub nodes_shifted: usize,
}

/// Report of a data insertion (paper §IV-C).
#[derive(Clone, Debug, PartialEq)]
pub struct InsertReport {
    /// Key inserted.
    pub key: Key,
    /// Peer that now stores the key.
    pub owner: PeerId,
    /// Messages used to locate the owner and insert (Figure 8(c)).
    pub messages: u64,
    /// Extra messages spent expanding the leftmost/rightmost range when the
    /// key fell outside the current domain.
    pub expansion_messages: u64,
    /// Load balancing triggered by this insertion, if any.
    pub balance: Option<LoadBalanceReport>,
}

impl InsertReport {
    /// Total messages including load balancing.
    pub fn total_messages(&self) -> u64 {
        self.messages + self.expansion_messages + self.balance.as_ref().map_or(0, |b| b.messages)
    }
}

/// Report of a data deletion (paper §IV-C).
#[derive(Clone, Debug, PartialEq)]
pub struct DeleteReport {
    /// Key deleted.
    pub key: Key,
    /// Peer that owned the key's range.
    pub owner: PeerId,
    /// Whether a value was actually removed.
    pub removed: bool,
    /// Messages used to locate the owner and delete (Figure 8(c)).
    pub messages: u64,
    /// Load balancing triggered by this deletion, if any.
    pub balance: Option<LoadBalanceReport>,
}

impl DeleteReport {
    /// Total messages including load balancing.
    pub fn total_messages(&self) -> u64 {
        self.messages + self.balance.as_ref().map_or(0, |b| b.messages)
    }
}

// The common currency of the `Overlay` trait.  A forced join or departure's
// restructuring messages are not part of either Figure 8(a)/(b) series, so
// they stay out of `ChurnCost` as they always have.

impl From<&JoinReport> for ChurnCost {
    fn from(report: &JoinReport) -> Self {
        ChurnCost {
            locate_messages: report.locate_messages,
            update_messages: report.update_messages,
            lost_items: 0,
        }
    }
}

impl From<&LeaveReport> for ChurnCost {
    fn from(report: &LeaveReport) -> Self {
        ChurnCost {
            locate_messages: report.locate_messages,
            update_messages: report.update_messages,
            lost_items: 0,
        }
    }
}

impl From<&FailureReport> for ChurnCost {
    fn from(report: &FailureReport) -> Self {
        ChurnCost {
            locate_messages: report.departure_messages,
            update_messages: report.regeneration_messages,
            lost_items: report.lost_items,
        }
    }
}

impl From<&InsertReport> for OpCost {
    fn from(report: &InsertReport) -> Self {
        OpCost {
            // Routing plus any leftmost/rightmost domain expansion; load
            // balancing is reported separately, per the OpCost contract.
            messages: report.messages + report.expansion_messages,
            matches: 0,
            nodes_visited: 1,
            balance_messages: report.balance.as_ref().map_or(0, |b| b.messages),
        }
    }
}

impl From<&DeleteReport> for OpCost {
    fn from(report: &DeleteReport) -> Self {
        OpCost {
            messages: report.messages,
            matches: usize::from(report.removed),
            nodes_visited: 1,
            balance_messages: report.balance.as_ref().map_or(0, |b| b.messages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_report_totals_include_restructuring() {
        let mut r = JoinReport {
            new_peer: PeerId(1),
            parent: PeerId(0),
            position: Position::new(1, 1),
            range: KeyRange::new(0, 10),
            locate_messages: 3,
            update_messages: 7,
            restructure: None,
        };
        assert_eq!(r.total_messages(), 10);
        r.restructure = Some(RestructureReport {
            nodes_shifted: 2,
            messages: 5,
        });
        assert_eq!(r.total_messages(), 15);
    }

    #[test]
    fn leave_and_failure_report_totals() {
        let l = LeaveReport {
            departed: PeerId(4),
            replacement: Some(PeerId(9)),
            locate_messages: 2,
            update_messages: 8,
            restructure: None,
        };
        assert_eq!(l.total_messages(), 10);
        let f = FailureReport {
            failed: PeerId(4),
            coordinator: Some(PeerId(2)),
            replacement: None,
            regeneration_messages: 6,
            departure_messages: 9,
            lost_items: 3,
        };
        assert_eq!(f.total_messages(), 15);
    }

    #[test]
    fn insert_and_delete_report_totals() {
        let i = InsertReport {
            key: 10,
            owner: PeerId(1),
            messages: 4,
            expansion_messages: 2,
            balance: Some(LoadBalanceReport {
                kind: BalanceKind::AdjacentMigration,
                messages: 3,
                nodes_shifted: 0,
            }),
        };
        assert_eq!(i.total_messages(), 9);
        let d = DeleteReport {
            key: 10,
            owner: PeerId(1),
            removed: true,
            messages: 4,
            balance: None,
        };
        assert_eq!(d.total_messages(), 4);
    }
}
