//! Load balancing (paper §IV-D).
//!
//! Two schemes, applied in order:
//!
//! 1. **Adjacent migration** — an overloaded node shifts part of its range
//!    (and the data in it) to the less-loaded of its two in-order adjacent
//!    nodes.  This is the only scheme non-leaf nodes use.
//! 2. **Leaf re-join** — if an overloaded *leaf*'s adjacent nodes are also
//!    heavily loaded, it locates a lightly loaded leaf through its routing
//!    tables; that leaf hands its own data to its parent, leaves its
//!    position (forcing a restructuring shift if its departure would break
//!    balance), and re-joins as a child of the overloaded node, taking half
//!    of its data — again forcing a restructuring shift if the overloaded
//!    node cannot accept a child under Theorem 1.
//!
//! The number of nodes involved in each re-join (2 + the restructuring shift
//! length) is recorded in the system's shift-size histogram, which is what
//! Figure 8(h) plots.
//!
//! Re-joins are *screened*: both restructuring chains are planned (purely)
//! up front, and a re-join whose shift would exceed the
//! `balance_shift_budget` of
//! `4·⌈log₂ N⌉` nodes is declined before anything moves.  Without the
//! screen, a freshly bulk-loaded network — whose leaf level is one long run
//! of non-vacatable positions — produces shift chains that grow linearly
//! with N, turning the §IV-D heuristic into an O(N)-messages-per-insert
//! cost at large scale.

use baton_net::{OpScope, PeerId};

use crate::error::{BatonError, Result};
use crate::position::Side;
use crate::protocol::restructure::RestructurePlan;
use crate::range::Key;
use crate::reports::{BalanceKind, LoadBalanceReport};
use crate::routing::NodeLink;
use crate::system::{BatonSystem, LinkUpdate};

impl BatonSystem {
    /// Hook called after every insertion: triggers balancing when the owner
    /// exceeds the configured overload threshold.
    pub(crate) fn maybe_balance_after_insert(
        &mut self,
        op: OpScope,
        owner: PeerId,
    ) -> Result<Option<LoadBalanceReport>> {
        if !self.config.load_balance.enabled {
            return Ok(None);
        }
        // While failures await repair, the restructuring shift chains could
        // route through dead nodes and corrupt mid-plan; postpone balancing
        // until the overlay is whole again.  Legacy runs repair immediately,
        // so the gate never fires there.
        if !self.dead_peers.is_empty() {
            return Ok(None);
        }
        let threshold = self.config.load_balance.overload_threshold;
        let load = self.node_ref(owner)?.load();
        if load <= threshold {
            return Ok(None);
        }
        // Once a node is over the threshold, re-probing the neighbourhood on
        // every single insertion would dominate the cost when no lighter
        // peer exists; check periodically instead (every `threshold / 2`
        // insertions past the threshold — i.e. roughly once per re-fill
        // after a successful halving), which keeps the amortized balancing
        // overhead per insertion low, as in the paper (§IV-D).
        let check_interval = (threshold / 2).max(1);
        if (load - threshold) % check_interval != 1 % check_interval {
            return Ok(None);
        }
        self.rebalance_overloaded(op, owner).map(Some)
    }

    fn rebalance_overloaded(
        &mut self,
        op: OpScope,
        overloaded: PeerId,
    ) -> Result<LoadBalanceReport> {
        let noop = |messages| LoadBalanceReport {
            kind: BalanceKind::AdjacentMigration,
            messages,
            nodes_shifted: 0,
        };
        // A node that is not actually overloaded has nothing to do.
        if self.node_ref(overloaded)?.load() <= self.config.load_balance.overload_threshold {
            return Ok(noop(0));
        }
        // Scheme 1: adjacent migration.
        if let Some(report) = self.try_adjacent_migration(op, overloaded)? {
            return Ok(report);
        }
        // Scheme 2: leaf re-join (leaves only).
        if self.links_of(overloaded)?.is_leaf() {
            if let Some(report) = self.try_leaf_rejoin(op, overloaded)? {
                return Ok(report);
            }
        }
        // Nothing could be improved: report a zero-effect migration so the
        // caller still sees the probing cost.
        Ok(noop(2))
    }

    /// Attempts to shift part of the overloaded node's range to the
    /// less-loaded adjacent node.  Returns `None` if neither adjacent node
    /// is meaningfully lighter.
    fn try_adjacent_migration(
        &mut self,
        op: OpScope,
        overloaded: PeerId,
    ) -> Result<Option<LoadBalanceReport>> {
        let mut messages = 0u64;
        let my_load = self.node_ref(overloaded)?.load();
        let links = self.links_of(overloaded)?;
        let candidates: Vec<(PeerId, Side)> = Side::BOTH
            .into_iter()
            .filter_map(|side| Some((links.adjacent(side)?.peer, side)))
            .collect();
        // Probe the adjacent nodes' loads (one message each).
        let mut best: Option<(PeerId, Side, usize)> = None;
        for (peer, side) in candidates {
            self.notify(op, "balance.probe", overloaded, peer);
            messages += 1;
            let load = self.node_ref(peer)?.load();
            if best.is_none_or(|(_, _, b)| load < b) {
                best = Some((peer, side, load));
            }
        }
        let Some((adjacent, side, adjacent_load)) = best else {
            return Ok(None);
        };
        // Only migrate when it meaningfully evens things out and the
        // adjacent node is not itself overloaded.
        if adjacent_load + 2 > my_load
            || adjacent_load >= self.config.load_balance.overload_threshold
        {
            return Ok(None);
        }
        let move_count = (my_load - adjacent_load) / 2;
        if move_count == 0 {
            return Ok(None);
        }

        // Pick the range boundary so that roughly `move_count` items move.
        let boundary: Option<Key> = {
            let node = self.node_ref(overloaded)?;
            match side {
                // Move the smallest `move_count` items to the left adjacent:
                // everything strictly below the key at rank `move_count`.
                Side::Left => node.store.keys().get(move_count).copied(),
                // Move the largest `move_count` items to the right adjacent:
                // everything at or above the key at rank `len - move_count`.
                Side::Right => node.store.keys().get(my_load - move_count).copied(),
            }
        };
        let Some(boundary) = boundary else {
            return Ok(None);
        };
        let my_range = self.range_ref(overloaded)?;
        if !my_range.contains(boundary) || boundary == my_range.low() {
            // Duplicates concentrated on a single key: no useful split point.
            return Ok(None);
        }

        // Perform the migration.
        let (moved_range, kept_range) = match side {
            Side::Left => {
                let (moved, kept) = my_range.split_at(boundary);
                (moved, kept)
            }
            Side::Right => {
                let (kept, moved) = my_range.split_at(boundary);
                (moved, kept)
            }
        };
        let moved_items = self
            .node_mut(overloaded)?
            .store
            .split_off_range(moved_range);
        self.set_range(overloaded, kept_range)?;
        self.hop(op, overloaded, adjacent, 1, "balance.migrate")?;
        messages += 1;
        self.node_mut(adjacent)?.store.absorb(moved_items);
        let adjacent_range = self.range_ref(adjacent)?;
        let merged = adjacent_range.merge(moved_range).ok_or_else(|| {
            BatonError::InvariantViolation(format!(
                "migrated range {moved_range} not contiguous with adjacent range {adjacent_range}"
            ))
        })?;
        self.set_range(adjacent, merged)?;
        // Both nodes' ranges changed: refresh every link recording them.
        messages += self.broadcast_link_update(op, overloaded, LinkUpdate::Range)?;
        messages += self.broadcast_link_update(op, adjacent, LinkUpdate::Range)?;

        self.balance_shift_sizes.record(2);
        Ok(Some(LoadBalanceReport {
            kind: BalanceKind::AdjacentMigration,
            messages,
            nodes_shifted: 0,
        }))
    }

    /// Attempts the leaf re-join scheme: a lightly loaded leaf found through
    /// the routing tables leaves its position and re-joins as a child of the
    /// overloaded leaf.
    fn try_leaf_rejoin(
        &mut self,
        op: OpScope,
        overloaded: PeerId,
    ) -> Result<Option<LoadBalanceReport>> {
        let mut messages = 0u64;
        let (candidate, probe_messages) = self.find_lightly_loaded_leaf(op, overloaded)?;
        messages += probe_messages;
        let Some(light) = candidate else {
            return Ok(None);
        };

        // Pre-screen the restructuring cost of both halves of the re-join
        // before mutating anything: on a dense network the shift chains can
        // run the length of the leaf level, and a re-join whose chains
        // exceed the O(log N) budget is declined outright (the overloaded
        // node stays as it is until adjacent migration or a cheaper
        // candidate catches up).  Both planners are pure, so a re-join that
        // passes the screen proceeds exactly as it would have unscreened.
        let budget = self.balance_shift_budget();
        let departure_plan = if self.links_of(light)?.can_leave_without_replacement() {
            None
        } else {
            let plan = match self.plan_restructure_remove(light, Side::Left)? {
                Some(p) => p,
                None => self
                    .plan_restructure_remove(light, Side::Right)?
                    .ok_or_else(|| {
                        BatonError::InvariantViolation(
                            "no direction admits a departure restructuring".into(),
                        )
                    })?,
            };
            if plan.shift_size() > budget {
                return Ok(None);
            }
            Some(plan)
        };
        // Estimate the insert-side chain from the overloaded node outwards,
        // mirroring step 3's direction preference (the spliced node's
        // successor chain starts at the overloaded node itself).
        let g = NodeLink::new(overloaded, self.node_ref(overloaded)?.position);
        let left_start = self.links_of(overloaded)?.adjacent(Side::Left);
        let estimate = self.plan_insert_either_way(light, Some(g), left_start)?;
        if estimate.is_some_and(|plan| plan.shift_size() > budget) {
            return Ok(None);
        }

        // Ask the light leaf to move (one message).
        self.hop(op, overloaded, light, 1, "balance.request_rejoin")?;
        messages += 1;

        // 1. The light leaf leaves its position, handing its data and range
        //    to its parent; if its departure would break balance, the
        //    overlay restructures around the hole.
        let mut nodes_shifted = 0usize;
        match departure_plan {
            None => messages += self.detach_leaf(op, light, light)?,
            Some(plan) => {
                messages += self.detach_leaf(op, light, light)?;
                let report = self.apply_restructure_plan(op, &plan)?;
                messages += report.messages;
                nodes_shifted += report.nodes_shifted;
            }
        }

        // 2. The light leaf re-joins next to the overloaded node, taking
        //    half of its range and data.  If the overloaded node can attach
        //    it as a child (it has a free slot), use the regular attach; a
        //    restructuring shift follows when Theorem 1 would be violated.
        //    If the restructuring that accompanied the light leaf's
        //    departure left the overloaded node with two children, the new
        //    neighbour is spliced in purely by restructuring.
        let needs_restructure = if self.links_of(overloaded)?.free_child_side().is_some() {
            let (_, _, attach_messages) = self.attach_child(op, overloaded, light)?;
            messages += attach_messages;
            !self.links_of(overloaded)?.tables_full()
        } else {
            messages += self.splice_in_as_predecessor(op, overloaded, light)?;
            true
        };

        // 3. Find the spliced-in node a legitimate position by shifting the
        //    overlay (paper §III-E).
        if needs_restructure {
            let links = self.links_of(light)?;
            let (right, left) = (links.adjacent(Side::Right), links.adjacent(Side::Left));
            let plan = self
                .plan_insert_either_way(light, right, left)?
                .ok_or_else(|| {
                    BatonError::InvariantViolation(
                        "no direction admits a join restructuring".into(),
                    )
                })?;
            let report = self.apply_restructure_plan(op, &plan)?;
            messages += report.messages;
            nodes_shifted += report.nodes_shifted;
        }

        self.balance_shift_sizes.record(2 + nodes_shifted);
        Ok(Some(LoadBalanceReport {
            kind: BalanceKind::LeafRejoin,
            messages,
            nodes_shifted,
        }))
    }

    /// Plans the restructuring that gives `incoming` a position: shifting
    /// towards its successor `right` if that chain finds an attachment
    /// point, towards its predecessor `left` otherwise.
    fn plan_insert_either_way(
        &self,
        incoming: PeerId,
        right: Option<NodeLink>,
        left: Option<NodeLink>,
    ) -> Result<Option<RestructurePlan>> {
        match self.plan_restructure_insert(incoming, right, Side::Right)? {
            Some(plan) => Ok(Some(plan)),
            None => self.plan_restructure_insert(incoming, left, Side::Left),
        }
    }

    /// Splices `light` into the overlay as the in-order predecessor of
    /// `overloaded` — range split, data handoff and adjacency — *without*
    /// giving it a tree position yet (see `PositionMap::splice`).  Used when
    /// the overloaded node has no free child slot; the caller immediately
    /// follows up with a restructuring pass that assigns the position.
    fn splice_in_as_predecessor(
        &mut self,
        op: OpScope,
        overloaded: PeerId,
        light: PeerId,
    ) -> Result<u64> {
        let mut messages = 0u64;
        let g_position = self.node_ref(overloaded)?.position;
        let g_range = self.range_ref(overloaded)?;
        let (light_range, _) = g_range.split_half();
        // The new neighbour's position field is a placeholder (the
        // overloaded node's own position) that the plane never records; the
        // restructuring pass assigns the real one.  Until then its range
        // lives in the splice record.
        let mut light_node = crate::node::BatonNode::new(g_position);
        light_node.store = (self.node_mut(overloaded)?.store).split_off_range(light_range);
        let g_range = crate::range::KeyRange::new(light_range.high(), g_range.high());
        self.set_range(overloaded, g_range)?;
        // Adjacency: predecessor(g) <-> light <-> g.
        let outer = self.links_of(overloaded)?.adjacent(Side::Left);
        self.insert_node(light, light_node);
        let h = g_position.heap_index() as usize;
        self.by_position.splice(light, h, light_range);
        self.hop(op, overloaded, light, 1, "balance.migrate")?;
        messages += 1;
        if let Some(outer) = outer {
            self.notify(op, "table.adjacent_update", light, outer.peer);
            messages += 1;
        }
        // The overloaded node's range shrank.
        messages += self.broadcast_link_update(op, overloaded, LinkUpdate::Range)?;
        Ok(messages)
    }

    /// Probes the overloaded node's routing-table neighbours (and their
    /// recorded children) for a lightly loaded leaf.  Returns the best
    /// candidate and the number of probe messages.
    fn find_lightly_loaded_leaf(
        &mut self,
        op: OpScope,
        overloaded: PeerId,
    ) -> Result<(Option<PeerId>, u64)> {
        let mut messages = 0u64;
        let my_load = self.node_ref(overloaded)?.load();
        let links = self.links_of(overloaded)?;
        let mut exclude = vec![overloaded];
        exclude.extend(
            Side::BOTH
                .into_iter()
                .filter_map(|side| Some(links.adjacent(side)?.peer)),
        );
        let mut probe_targets = Vec::new();
        for e in links.table_entries() {
            probe_targets.push(e.peer);
            probe_targets.extend(e.children());
        }
        let mut best: Option<(PeerId, usize)> = None;
        for target in probe_targets {
            if exclude.contains(&target) || !self.net.is_alive(target) {
                continue;
            }
            self.notify(op, "balance.probe", overloaded, target);
            messages += 1;
            let (Some(node), Some(links)) = (self.node(target), self.links(target)) else {
                continue;
            };
            if !links.is_leaf() {
                continue;
            }
            let load = node.load();
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((target, load));
            }
        }
        let candidate = best.and_then(|(peer, load)| {
            // The re-join halves the overloaded node's data, so it is only
            // worthwhile if the candidate carries well under half its load.
            let light_enough = load.saturating_mul(2) < my_load
                && (load <= self.config.load_balance.underload_threshold
                    || load.saturating_mul(4) < my_load);
            light_enough.then_some(peer)
        });
        Ok((candidate, messages))
    }
}

#[cfg(test)]
mod tests {
    use baton_net::Overlay;

    use super::*;
    use crate::config::{BatonConfig, LoadBalanceConfig};
    use crate::validate::validate;

    fn skew_config(overload: usize) -> BatonConfig {
        BatonConfig::default().with_load_balance(LoadBalanceConfig {
            enabled: true,
            overload_threshold: overload,
            underload_threshold: overload / 4,
        })
    }

    #[test]
    fn no_balancing_below_threshold() {
        let mut system = BatonSystem::build(skew_config(1000), 1, 20).unwrap();
        for i in 0..100u64 {
            let report = system.insert(1 + i, i).unwrap();
            assert!(report.balance.is_none());
        }
        validate(&system).unwrap();
    }

    #[test]
    fn disabled_load_balancing_never_triggers() {
        let config = BatonConfig::default().with_load_balance(LoadBalanceConfig::disabled());
        let mut system = BatonSystem::build(config, 2, 10).unwrap();
        for i in 0..500u64 {
            let report = system.insert(1 + (i % 7), i).unwrap();
            assert!(report.balance.is_none());
        }
        validate(&system).unwrap();
    }

    #[test]
    fn skewed_inserts_trigger_balancing_and_keep_invariants() {
        let mut system = BatonSystem::build(skew_config(50), 3, 30).unwrap();
        let mut balanced = 0;
        // All keys fall in a narrow band, overloading one node repeatedly.
        for i in 0..2_000u64 {
            let key = 1 + (i % 1_000);
            let report = system.insert(key, i).unwrap();
            if report.balance.is_some() {
                balanced += 1;
            }
            if i % 250 == 0 {
                validate(&system)
                    .unwrap_or_else(|e| panic!("invariant broken after {i} skewed inserts: {e}"));
            }
        }
        assert!(balanced > 0, "skewed workload never triggered balancing");
        validate(&system).unwrap();
        assert_eq!(system.total_items(), 2_000);
    }

    #[test]
    fn balancing_reduces_maximum_load() {
        let overload = 40;
        let mut with_lb = BatonSystem::build(skew_config(overload), 5, 40).unwrap();
        let config_no_lb = BatonConfig::default().with_load_balance(LoadBalanceConfig::disabled());
        let mut without_lb = BatonSystem::build(config_no_lb, 5, 40).unwrap();
        for i in 0..3_000u64 {
            // Zipf-ish: concentrate most keys at the low end of the domain.
            let key = 1 + (i * i) % 10_000;
            with_lb.insert(key, i).unwrap();
            without_lb.insert(key, i).unwrap();
        }
        let max_with = with_lb
            .peers()
            .iter()
            .map(|&p| with_lb.node(p).unwrap().load())
            .max()
            .unwrap();
        let max_without = without_lb
            .peers()
            .iter()
            .map(|&p| without_lb.node(p).unwrap().load())
            .max()
            .unwrap();
        assert!(
            max_with < max_without,
            "load balancing did not reduce the maximum load ({max_with} vs {max_without})"
        );
        validate(&with_lb).unwrap();
    }

    /// The re-join path for an overloaded node with both children: the
    /// light leaf is spliced in without a position — its neighbours' and
    /// its own adjacent links place it in in-order — and the restructuring
    /// gives it one.
    #[test]
    fn a_spliced_peer_gets_its_position_from_the_restructuring() {
        let mut system = BatonSystem::build(BatonConfig::default(), 8, 60).unwrap();
        let full = |s: &BatonSystem, p: PeerId| s.links(p).unwrap().free_child_side().is_none();
        let g = (system.peers().iter().copied())
            .find(|&p| full(&system, p) && !system.node(p).unwrap().is_root())
            .unwrap();
        let g_links = system.links(g).unwrap();
        let near = [Side::Left, Side::Right].map(|side| g_links.child(side).unwrap().peer);
        let light = (system.peers().iter().copied())
            .find(|&p| {
                let links = system.links(p).unwrap();
                links.can_leave_without_replacement() && !near.contains(&p) && p != g
            })
            .unwrap();
        let shifted = system
            .in_op("balance", |system, op| {
                system.detach_leaf(op, light, light)?;
                let outer = system.links_of(g)?.adjacent(Side::Left).map(|l| l.peer);
                system.splice_in_as_predecessor(op, g, light)?;
                let adjacent =
                    |peer, side| system.links(peer).unwrap().adjacent(side).map(|l| l.peer);
                assert_eq!(adjacent(g, Side::Left), Some(light));
                assert_eq!(adjacent(light, Side::Right), Some(g));
                assert_eq!(adjacent(light, Side::Left), outer);
                if let Some(outer) = outer {
                    assert_eq!(adjacent(outer, Side::Right), Some(light));
                }
                let links = system.links_of(light)?;
                let (right, left) = (links.adjacent(Side::Right), links.adjacent(Side::Left));
                let plan = system.plan_insert_either_way(light, right, left)?.unwrap();
                Ok(system.apply_restructure_plan(op, &plan)?.nodes_shifted)
            })
            .unwrap();
        assert!(shifted >= 2, "the chain starts by displacing {g}");
        let position = system.node(light).unwrap().position;
        assert_eq!(system.peer_at(position), Some(light));
        assert_eq!(
            system.links(g).unwrap().adjacent(Side::Left).unwrap().peer,
            light
        );
        validate(&system).unwrap();
    }

    #[test]
    fn shift_histogram_records_balancing_events() {
        let mut system = BatonSystem::build(skew_config(30), 9, 25).unwrap();
        for i in 0..1_500u64 {
            let key = 1 + (i % 500);
            system.insert(key, i).unwrap();
        }
        let hist = system.balance_shift_histogram();
        assert!(hist.total() > 0, "no balancing events were recorded");
        // Events involve at least two nodes.
        assert_eq!(hist.count(0), 0);
        assert_eq!(hist.count(1), 0);
        validate(&system).unwrap();
    }

    #[test]
    fn data_is_never_lost_by_balancing() {
        let mut system = BatonSystem::build(skew_config(25), 11, 20).unwrap();
        let mut expected = std::collections::HashMap::new();
        for i in 0..1_200u64 {
            let key = 1 + (i % 300);
            system.insert(key, i).unwrap();
            *expected.entry(key).or_insert(0usize) += 1;
        }
        assert_eq!(system.total_items(), 1_200);
        for (key, count) in expected {
            let found = system.search_exact(key).unwrap();
            assert_eq!(found.matches.len(), count, "key {key} lost values");
        }
        validate(&system).unwrap();
    }
}
