//! Routing-snapshot extraction for the concurrent serve front-end.
//!
//! Serializes the overlay's current ownership into a
//! [`RoutingSnapshot`]: the in-order traversal of the tree is an ordered
//! partition of the key domain, so slots are the nodes in in-order (one
//! iterative walk of the position map, which also gives each slot's bound),
//! items are each node's sorted store copied whole (run-length-encoded by
//! key only when it holds a duplicate key), links carry the paper's §II
//! link taxonomy (parent, children, adjacents, sideways routing tables) and
//! replicas are the adjacent-link replica targets of the k-replica
//! capability.  Extraction is read-only: statistics, RNG streams and the
//! virtual clock are untouched.
//!
//! The links are computed from positions, not read from the peers.  BATON
//! places every link by position (§III): a node at number `n` on level `L`
//! links to its parent, its children, its in-order neighbours and, on its
//! own level, to the occupied positions `n − 2^i` (left routing table) and
//! `n + 2^i` (right routing table).  The walk that assigns slots also fills
//! a position → slot table indexed like the routing plane, by heap index
//! `h`, and each slot's links come from that table by arithmetic — parent
//! `h/2`, children `2h` and `2h+1`, table neighbours `h ± 2^i` — in the
//! order a peer lists its own: parent, left and right child, left and right
//! adjacent, left table then right table, `i` ascending.  Each slot's row
//! is staged on the stack and appended to the CSR link arrays in one copy.
//! The walk also counts the keys and the links, so the item and link arrays
//! are allocated once, at their final size, and never grow by
//! reallocation.  Whenever [`crate::validate`] holds — its checks 2, 5 and
//! 6 assert that the peers' parent/child links, routing tables and adjacent
//! links are exactly these, and check 10 that the plane's ranges are the
//! nodes' own — the output equals the snapshot of the peers' own links;
//! `tests/tests/snapshot_export.rs` keeps a reference exporter that reads
//! every routing table and requires equal snapshots after churn, deferred
//! failures and repairs.

use baton_net::serve::{ExactPlacement, RoutingSnapshot, SnapshotBuilder};
use baton_net::LinkKind;

use crate::system::BatonSystem;

/// Position → slot table entry of an unoccupied position.
const NO_SLOT: u32 = u32::MAX;

/// The most links a slot can have: parent, two children, two adjacents and,
/// on each side, at most one table entry per bit of a heap index.
const MAX_ROW: usize = 5 + 2 * usize::BITS as usize;

impl BatonSystem {
    /// Builds a [`RoutingSnapshot`] of the overlay's current state.
    pub fn build_routing_snapshot(&self) -> RoutingSnapshot {
        let domain = self.domain();
        let mut builder = SnapshotBuilder::new(
            ExactPlacement::DomainPartition,
            (domain.low(), domain.high()),
        );
        builder.reserve(self.node_count(), 0);
        // The links number 4·(N − 1) parent, child and adjacent links plus
        // both ends of every pair of occupied positions 2^i apart on one
        // level.  A full level L has 2^L − 2^i such pairs for each i < L;
        // the walk counts the pairs of every other level at their right end,
        // whose left end in-order has already visited.
        let levels = self.by_position.level_counts();
        let full = |level: usize| levels[level] == 1 << level;
        let mut pairs: usize = (0..levels.len())
            .filter(|&level| full(level))
            .map(|level| level * (1 << level) + 1 - (1 << level))
            .sum();
        // Slots in key order.  `slot_at[h]` is the slot of the position at
        // heap index `h`, `order[slot]` its heap index and `stores[slot]`
        // its sorted keys.
        let mut slot_at = vec![NO_SLOT; self.by_position.heap_len()];
        let mut order: Vec<u32> = Vec::with_capacity(self.node_count());
        let mut stores: Vec<&[u64]> = Vec::with_capacity(self.node_count());
        self.by_position.walk_in_order(|h, peer, range| {
            let level = h.ilog2() as usize;
            if !full(level) {
                let mut distance = 1;
                while distance <= h - (1 << level) {
                    pairs += usize::from(slot_at[h - distance] != NO_SLOT);
                    distance *= 2;
                }
            }
            slot_at[h] = order.len() as u32;
            order.push(h as u32);
            // Registered nodes are dead only while awaiting a deferred repair.
            builder.push_slot(peer.0, range.high(), self.net.is_alive(peer));
            let node = self.node(peer).expect("the position map names members");
            stores.push(node.store.keys());
        });
        // The walk has found every store and counted the links, so each
        // array is allocated once, at its final size.
        builder.reserve(0, stores.iter().map(|keys| keys.len()).sum());
        for keys in stores {
            builder.push_keys(keys);
            builder.seal_slot();
        }
        let links = 4 * order.len().saturating_sub(1) + 2 * pairs;
        builder.reserve_links(links);
        let slot = |h: usize| {
            let slot = *slot_at.get(h)?;
            (slot != NO_SLOT).then_some(slot as usize)
        };
        // The heap indices of `h`'s level are `level_start ..< 2·level_start`.
        let level_start = |h: usize| 1usize << h.ilog2();
        let mut targets = [0u32; MAX_ROW];
        let mut kinds = [LinkKind::Parent; MAX_ROW];
        let last = order.len().saturating_sub(1);
        let mut written = 0;
        for (s, h) in order.iter().map(|&h| h as usize).enumerate() {
            // The row is staged on the stack and appended in one copy.
            let mut len = 0;
            let mut push = |target: usize, kind: LinkKind| {
                targets[len] = target as u32;
                kinds[len] = kind;
                len += 1;
            };
            // Heap index 0 is never occupied, so the root finds no parent.
            if let Some(target) = slot(h / 2) {
                push(target, LinkKind::Parent);
            }
            for target in [slot(2 * h), slot(2 * h + 1)].into_iter().flatten() {
                push(target, LinkKind::Child);
            }
            let adjacents = [s.checked_sub(1), (s < last).then_some(s + 1)];
            for target in adjacents.into_iter().flatten() {
                push(target, LinkKind::Adjacent);
            }
            // Sideways: every occupied h − 2^i, then every occupied h + 2^i,
            // staying on h's level.
            let start = level_start(h);
            let mut distance = 1;
            while distance <= h - start {
                if let Some(target) = slot(h - distance) {
                    push(target, LinkKind::RoutingTable);
                }
                distance *= 2;
            }
            let mut distance = 1;
            while h + distance < 2 * start {
                if let Some(target) = slot(h + distance) {
                    push(target, LinkKind::RoutingTable);
                }
                distance *= 2;
            }
            builder.push_link_row(s, &targets[..len], &kinds[..len]);
            written += len;
            // `replica_pair`'s rule: the right adjacent first; the left one
            // as well at k = 3, or instead when there is no right one.
            if self.replication > 1 {
                let [left, right] = adjacents;
                let pair = match right {
                    Some(_) if self.replication > 2 => [right, left],
                    Some(_) => [right, None],
                    None => [left, None],
                };
                for target in pair.into_iter().flatten() {
                    builder.replica(s, target);
                }
            }
        }
        debug_assert_eq!(written, links, "the walk counts every link");
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use baton_net::serve::ServeCounters;
    use baton_net::Overlay;

    use crate::config::BatonConfig;
    use crate::system::BatonSystem;

    #[test]
    fn snapshot_slots_partition_the_domain_in_key_order() {
        let system = BatonSystem::build(BatonConfig::default(), 7, 40).unwrap();
        let snapshot = system.build_routing_snapshot();
        assert_eq!(snapshot.slots(), 40);
        assert!(snapshot.range_supported());
        assert_eq!(
            snapshot.total_items() as usize,
            Overlay::total_items(&system)
        );
    }

    #[test]
    fn snapshot_exact_matches_store_contents() {
        let mut system = BatonSystem::build(BatonConfig::default(), 11, 32).unwrap();
        for key in [5u64, 5, 123_456, 999_999_998] {
            system.insert(key, key).unwrap();
        }
        let snapshot = system.build_routing_snapshot();
        let mut counters = ServeCounters::default();
        assert_eq!(snapshot.exact(5, 0, &mut counters).matches, 2);
        assert_eq!(snapshot.exact(123_456, 3, &mut counters).matches, 1);
        assert_eq!(snapshot.exact(77, 9, &mut counters).matches, 0);
        assert!(counters.hops > 0, "greedy routing should charge hops");
    }
}
