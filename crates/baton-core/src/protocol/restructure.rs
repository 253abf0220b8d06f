//! Network restructuring (paper §III-E).
//!
//! Restructuring is invoked when a join or departure is *forced* to happen
//! at a specific place — as part of load balancing (§IV-D) — and redirecting
//! the node elsewhere is not permitted.  It is the overlay analogue of an
//! AVL rotation: peers shift along the in-order (adjacent-link) chain, each
//! taking over the *position* of its in-order neighbour, until a spot is
//! reached where a node can be added (or a position vacated) without
//! violating the balance condition of Theorem 1.
//!
//! Crucially, **ranges and data do not move**: each peer keeps the key range
//! it managed, and because every peer shifts by exactly one slot in the
//! in-order position ordering, the in-order ordering of ranges is preserved.
//! Only positions — and therefore parent / child / routing-table links —
//! change.
//!
//! ### Simulation note
//!
//! Computing the shift plan uses only adjacent links and per-node state, as
//! the distributed protocol does.  *Applying* the plan moves the peers in
//! the routing plane, from which every link is read, instead of simulating
//! each link-repair handshake peer by peer; the messages are charged per
//! the paper's cost model (`O(log N)` per shifted node — concretely
//! `2·level + 4` table-update messages each), which is the quantity the
//! evaluation reports.

use baton_net::{OpScope, Overlay, PeerId};

use crate::error::{BatonError, Result};
use crate::position::{Position, Side};
use crate::reports::RestructureReport;
use crate::routing::{Links, NodeLink};
use crate::system::{BatonSystem, LinkUpdate};

/// A planned restructuring: which peer moves to which position, in chain
/// order.  The last assignment of an insert-direction plan is a new leaf
/// position.
#[derive(Clone, Debug)]
pub(crate) struct RestructurePlan {
    /// `(peer, new_position)` assignments, in chain order.
    pub assignments: Vec<(PeerId, Position)>,
}

impl RestructurePlan {
    /// Number of peers that change position.
    pub fn shift_size(&self) -> usize {
        self.assignments.len()
    }
}

impl BatonSystem {
    /// Upper bound on the length of shift chains that *load balancing* is
    /// willing to trigger: `4·⌈log₂ N⌉`, floored at 128.
    ///
    /// Restructuring itself has no such bound (a forced join or departure
    /// must complete whatever the cost), but the leaf re-join of §IV-D is a
    /// best-effort heuristic — and on a bulk-loaded network whose leaf level
    /// is one long run of non-vacatable positions, an unscreened re-join
    /// shifts O(N) nodes at O(log N) messages each, which at million-peer
    /// scale turns the heuristic into the dominant cost of the entire run.
    /// The floor of 128 exceeds every network size whose simulation output
    /// is pinned byte-for-byte by the committed fixtures, so the budget can
    /// only ever bind — and only ever *decline* a re-join — at scales no
    /// fixture covers.
    pub(crate) fn balance_shift_budget(&self) -> usize {
        let n = self.node_count().max(2);
        let log2_ceil = (usize::BITS - (n - 1).leading_zeros()) as usize;
        (4 * log2_ceil).max(128)
    }

    /// Plans an *insert-direction* restructuring: `incoming` needs a
    /// position, and every occupant from its in-order neighbour `first` on
    /// `side` onwards shifts one slot until one of them can be attached as a
    /// new child without violating Theorem 1.  Pure, so the load balancer
    /// also plans a chain this way to screen a re-join before the overlay is
    /// mutated, with `incoming` still elsewhere.
    ///
    /// `side` selects the shift direction: [`Side::Right`] walks successor
    /// links and attaches the final node as a *left* child; [`Side::Left`]
    /// walks predecessor links and attaches as a *right* child.  Returns
    /// `None` if the chain reaches the end of the tree without finding an
    /// attachment point (the caller then tries the other direction).
    pub(crate) fn plan_restructure_insert(
        &self,
        incoming: PeerId,
        first: Option<NodeLink>,
        side: Side,
    ) -> Result<Option<RestructurePlan>> {
        let mut assignments = Vec::new();
        let mut displaced = incoming;
        let mut successor = first;
        let limit = self.node_count() + 2;
        loop {
            let Some(s) = successor else {
                return Ok(None);
            };
            let links = self.links_of(s.peer)?;
            if links.child(side.opposite()).is_none() && links.tables_full() {
                // `displaced` becomes a new child of `s` on the side facing
                // the shift origin, which is exactly its in-order slot.
                assignments.push((displaced, s.position.child(side.opposite())));
                return Ok(Some(RestructurePlan { assignments }));
            }
            assignments.push((displaced, s.position));
            displaced = s.peer;
            successor = links.adjacent(side);
            if assignments.len() > limit {
                return Err(BatonError::InvariantViolation(
                    "restructuring chain longer than the overlay".into(),
                ));
            }
        }
    }

    /// Plans a *remove-direction* restructuring: `leaving`'s position must
    /// be freed, but vacating it directly would violate Theorem 1, so
    /// occupants shift towards it from the `side` direction until a position
    /// that can be safely vacated is reached.
    pub(crate) fn plan_restructure_remove(
        &self,
        leaving: PeerId,
        side: Side,
    ) -> Result<Option<RestructurePlan>> {
        let mut assignments = Vec::new();
        let mut hole = self.node_ref(leaving)?.position;
        let mut candidate = self.links_of(leaving)?.adjacent(side);
        let limit = self.node_count() + 2;
        loop {
            let Some(c) = candidate else {
                return Ok(None);
            };
            assignments.push((c.peer, hole));
            if self.position_safely_vacatable(c.position) {
                return Ok(Some(RestructurePlan { assignments }));
            }
            hole = c.position;
            candidate = self.links_of(c.peer)?.adjacent(side);
            if assignments.len() > limit {
                return Err(BatonError::InvariantViolation(
                    "restructuring chain longer than the overlay".into(),
                ));
            }
        }
    }

    /// `true` if removing the occupant of `position` keeps Theorem 1 intact:
    /// the position has no occupied children and no occupied same-level
    /// neighbour (at any power-of-two distance) has occupied children.
    pub(crate) fn position_safely_vacatable(&self, position: Position) -> bool {
        self.by_position.get(position).is_none_or(|occupant| {
            Links::new(&self.by_position, occupant, position).can_leave_without_replacement()
        })
    }

    /// Applies a restructuring plan: moves every assigned peer to its new
    /// position in the routing plane and charges `2·level + 4` messages per
    /// moved peer to `op`, then has the parents of every position whose
    /// occupant changed refresh their neighbours' child knowledge.
    pub(crate) fn apply_restructure_plan(
        &mut self,
        op: OpScope,
        plan: &RestructurePlan,
    ) -> Result<RestructureReport> {
        let mut messages = 0u64;

        // The positions the moved peers hold now (the incoming peer of an
        // insert plan holds none).
        let mut old = Vec::new();
        for &(peer, _) in &plan.assignments {
            let position = self.node_ref(peer)?.position;
            if self.by_position.get(position) == Some(peer) {
                old.push((position, peer));
            }
        }
        // A position occupied before and after changes occupant in place;
        // then the freed leaf position leaves the in-order chain and the new
        // leaf position enters it.
        for &(peer, position) in &plan.assignments {
            let node = self.node_mut(peer)?;
            node.position = position;
            let range = node.range;
            if self.by_position.contains(position) {
                self.occupy(position, peer, range);
            }
        }
        for &(position, peer) in &old {
            if !plan.assignments.iter().any(|&(_, p)| p == position) {
                self.vacate(position, peer);
            }
        }
        for &(peer, position) in &plan.assignments {
            if !self.by_position.contains(position) {
                let range = self.node_ref(peer)?.range;
                self.occupy(position, peer, range);
            }
        }

        for &(peer, position) in &plan.assignments {
            // One shift instruction plus `2·level + 2` link/table updates,
            // the paper's O(log N)-per-node cost, sent along the peer's
            // links; a peer with fewer links sends the remainder to its
            // parent as maintenance traffic.
            let charged = 2 * position.level() as usize + 4;
            let links = self.links_of(peer)?;
            let parent = links.parent().map_or(peer, |l| l.peer);
            let mut targets = links.linked_peers();
            targets.truncate(charged);
            targets.resize(charged, parent);
            messages += self.fan_out(op, "restructure.shift", peer, &targets);
        }

        // The occupants of the affected positions changed, so the *child
        // knowledge* that their parents' same-level neighbours keep about
        // those parents is stale; refresh it (this also covers the parent
        // that gained the new leaf child and the parent that lost the
        // vacated one).
        let affected = plan.assignments.iter().map(|&(_, p)| p);
        let affected = affected.chain(old.iter().map(|&(p, _)| p));
        let mut parent_positions: Vec<Position> = affected.filter_map(|p| p.parent()).collect();
        parent_positions.sort_by(|a, b| a.inorder_cmp(*b));
        parent_positions.dedup();
        for parent_pos in parent_positions {
            if let Some(parent_peer) = self.by_position.get(parent_pos) {
                messages += self.broadcast_link_update(op, parent_peer, LinkUpdate::Children)?;
            }
        }

        Ok(RestructureReport {
            nodes_shifted: plan.shift_size(),
            messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatonConfig;

    fn build(n: usize, seed: u64) -> BatonSystem {
        BatonSystem::build(BatonConfig::default(), seed, n).expect("build network")
    }

    #[test]
    fn position_safely_vacatable_matches_leaf_structure() {
        let system = build(20, 1);
        for &peer in system.peers() {
            let node = system.node(peer).unwrap();
            let expected = system.links(peer).unwrap().can_leave_without_replacement();
            assert_eq!(
                system.position_safely_vacatable(node.position),
                expected,
                "vacatable mismatch at {:?}",
                node.position
            );
        }
    }

    #[test]
    fn plan_shift_size_reporting() {
        let plan = RestructurePlan {
            assignments: vec![
                (PeerId(1), Position::new(2, 1)),
                (PeerId(2), Position::new(2, 2)),
            ],
        };
        assert_eq!(plan.shift_size(), 2);
    }
}
