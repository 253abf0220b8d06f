//! Routing-snapshot extraction for the concurrent serve front-end.
//!
//! Serializes the overlay's current ownership into a
//! [`RoutingSnapshot`]: the in-order traversal of the tree is an ordered
//! partition of the key domain, so slots are the occupied positions in
//! in-order, each with its occupant and the bound the routing plane records
//! for it; items are each node's sorted store copied whole
//! (run-length-encoded by key only when it holds a duplicate key), links
//! carry the paper's §II link taxonomy (parent, children, adjacents,
//! sideways routing tables) and replicas are the adjacent-link replica
//! targets of the k-replica capability.  Extraction is read-only:
//! statistics, RNG streams and the virtual clock are untouched.
//!
//! The links are computed from positions by arithmetic, in slot order.
//! BATON places every link by position (§III): a node at number `n` on
//! level `L` links to its parent, its children, its in-order neighbours
//! and, on its own level, to the occupied positions `n − 2^i` (left routing
//! table) and `n + 2^i` (right routing table).  A position → slot table
//! indexed like the routing plane, by heap index `h`, gives each slot's
//! links — parent `h/2`, children `2h` and `2h+1`, table neighbours
//! `h ± 2^i` — in the order a peer lists its own: parent, left and right
//! child, left and right adjacent, left table then right table, `i`
//! ascending.  The output equals the snapshot of the peers' own link views
//! ([`BatonSystem::links`]); `tests/tests/snapshot_export.rs` keeps a
//! reference exporter that reads those views peer by peer and requires
//! equal snapshots after every step of random churn, deferred failures,
//! repairs, inserts and deletes.
//!
//! ### Patching the previous export
//!
//! A join or a leave changes O(log N) nodes, so an export rewrites only
//! what changed since the previous one, which the exporter keeps with its
//! slot order.  From the first export on, a `ChangeLog` records every
//! position passed to `occupy` or `vacate` — the only writers of the plane's
//! occupants — and every peer whose range is set (`set_range`, the plane's
//! only other writer) or whose node is handed out for writing, inserted or
//! removed.  An export splices the previous slot order (vacated positions
//! leave, new ones enter at their in-order rank), which yields the previous
//! → current slot map.  A slot is *rebuilt* — peer and bound from the
//! plane, items from its store, links by arithmetic, replicas by the
//! adjacency rule — when its position is new or logged, its peer is logged,
//! an in-order neighbour changed, or a position it links to by arithmetic
//! (`h/2`, `2h`, `2h+1`, `h ± 2^i`) was occupied or vacated.  Each maximal
//! run of other slots is *copied* in one append per array
//! ([`SnapshotBuilder::copy_slots`]), its targets mapped to current slots
//! and its liveness read afresh from the network, which fails peers without
//! writing their nodes.  *Everything* is rebuilt on the first export, after
//! [`set_replication`](baton_net::Overlay::set_replication) or
//! [`load_direct`](baton_net::Overlay::load_direct), and once the log passes
//! `CHANGE_LOG_CAP` entries.  The copy is O(N) bytes; the gather is
//! O(change).
//!
//! The export is written into the arrays of the export before last (the
//! *spare*, else the previous export a full export drops), emptied with
//! their capacity kept ([`SnapshotBuilder::reusing`]) unless a reader still
//! holds them.  A publisher's cell and readers have let go of the spare by
//! then, and the patch's O(N) working arrays are the exporter's too, kept
//! with their capacity, so steady-state publishing allocates no array and
//! faults no page.
//! Item arrays are sized as the copied slots' entries plus the rebuilt
//! stores, link arrays from an exact count, and a growing array gets 1/32
//! spare room, so a refill rarely reallocates.

use std::sync::PoisonError;

use baton_net::serve::{make_room, ExactPlacement, RoutingSnapshot, SnapshotBuilder};
use baton_net::{LinkKind, PeerId};

use crate::system::BatonSystem;

/// Position → slot table entry of an unoccupied position.
const NO_SLOT: u32 = u32::MAX;

/// The most links a slot can have: parent, two children, two adjacents and,
/// on each side, at most one table entry per bit of a heap index.
const MAX_ROW: usize = 5 + 2 * usize::BITS as usize;

/// The most changes a [`ChangeLog`] holds before it collapses to
/// "everything changed", which bounds its memory; a join or a leave logs
/// well under a hundred.
pub(crate) const CHANGE_LOG_CAP: usize = 4096;

/// One entry of the [`ChangeLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Change {
    /// A peer whose node was handed out for writing, inserted or removed,
    /// or whose range was set.
    Peer(PeerId),
    /// The heap index of a position passed to `occupy` or `vacate`.
    Position(u64),
}

/// What may have changed since the previous export.
#[derive(Debug, Default)]
pub(crate) enum ChangeLog {
    /// The changes, consecutive repeats dropped.
    Changes(Vec<Change>),
    /// Everything: the next export rebuilds every slot.  So it is before
    /// the first export, which has nothing to patch, and nothing is
    /// logged.
    #[default]
    All,
}

impl ChangeLog {
    /// Records `change`.
    #[inline]
    pub(crate) fn note(&mut self, change: Change) {
        if let ChangeLog::Changes(changes) = self {
            if changes.last() != Some(&change) {
                if changes.len() < CHANGE_LOG_CAP {
                    changes.push(change);
                } else {
                    *self = ChangeLog::All;
                }
            }
        }
    }

    /// Records that everything may change.
    pub(crate) fn note_all(&mut self) {
        *self = ChangeLog::All;
    }

    /// Number of changes logged (none while everything changed).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match self {
            ChangeLog::Changes(changes) => changes.len(),
            _ => 0,
        }
    }
}

/// The exporter's state between two exports.
#[derive(Debug, Default)]
pub(crate) struct Exporter {
    pub(crate) log: ChangeLog,
    previous: Option<Export>,
    /// The export before `previous`, whose arrays the next export refills.
    spare: Option<Export>,
    /// The patch's working arrays, kept with their capacity.
    work: Work,
}

/// The O(N) working arrays `old_slot`, `new_slot` and `fresh` of
/// [`BatonSystem::export`].
type Work = (Vec<u32>, Vec<u32>, Vec<bool>);

/// One export with the slot order that produced it.
#[derive(Debug)]
struct Export {
    snapshot: RoutingSnapshot,
    /// The heap index of each slot.
    order: Vec<u32>,
    /// The slot of each heap index, [`NO_SLOT`] where unoccupied.
    slot_at: Vec<u32>,
}

/// The heap indices `h − 2^i` and `h + 2^i` on `h`'s level, `i` ascending
/// on each side: the positions of `h`'s left and right routing tables.
fn table_positions(h: usize) -> [impl Iterator<Item = usize>; 2] {
    let start = 1usize << h.ilog2();
    let side = |room: usize, sign: isize| {
        let count = room.checked_ilog2().map_or(0, |i| i + 1);
        (0..count).map(move |i| h.wrapping_add_signed(sign << i))
    };
    [side(h - start, -1), side(2 * start - 1 - h, 1)]
}

/// The in-order rank of heap index `h` among the positions of a 32-level
/// tree: `(2·(h − 2^L) + 1) · 2^(31 − L)` for `h` on level `L`.
fn in_order_rank(h: u32) -> u64 {
    let level = h.ilog2();
    (2 * u64::from(h - (1 << level)) + 1) << (31 - level)
}

impl BatonSystem {
    /// Builds a [`RoutingSnapshot`] of the overlay's current state by
    /// patching the previous export (see the module documentation).  The
    /// result always equals a from-scratch export.
    pub fn build_routing_snapshot(&self) -> RoutingSnapshot {
        // An export that panicked has left no previous export behind, so
        // the next one rebuilds everything: the state is valid either way.
        let mut exporter = self.exporter.lock().unwrap_or_else(PoisonError::into_inner);
        let exporter = &mut *exporter;
        let mut previous = exporter.previous.take();
        let (patched, mut changes) = match &mut exporter.log {
            ChangeLog::Changes(changes) => (true, std::mem::take(changes)),
            _ => (false, Vec::new()),
        };
        // The spare, or with none the previous export a full export drops.
        let spare = exporter.spare.take();
        let buffer = spare.or_else(|| previous.take_if(|_| !patched));
        let previous_export = previous.as_ref().filter(|_| patched);
        let export = self.export(previous_export, &changes, buffer, &mut exporter.work);
        let snapshot = export.snapshot.clone();
        changes.clear();
        exporter.log = ChangeLog::Changes(changes);
        exporter.spare = previous;
        exporter.previous = Some(export);
        snapshot
    }

    /// One export into the arrays of `to`, a retired export, with `work`'s
    /// arrays to work in: every slot rebuilt without a `previous` one, else
    /// only the slots that `changes` touched.
    fn export(
        &self,
        previous: Option<&Export>,
        changes: &[Change],
        to: Option<Export>,
        work: &mut Work,
    ) -> Export {
        let (old_order, old_slot_at) =
            previous.map_or((&[][..], &[][..]), |p| (&p.order[..], &p.slot_at[..]));
        // The positions occupied since the previous export, in in-order, and
        // the previous slots of the positions vacated since, ascending.
        // Without a previous export every occupied position is new.
        let mut appeared: Vec<u32> = Vec::new();
        let mut vacated: Vec<u32> = Vec::new();
        match previous {
            None => appeared.extend(self.by_position.chain().map(|h| h as u32)),
            Some(_) => {
                for &change in changes {
                    let Change::Position(h) = change else {
                        continue;
                    };
                    let old = old_slot_at.get(h as usize).copied().unwrap_or(NO_SLOT);
                    match (old, self.by_position.at(h as usize)) {
                        (NO_SLOT, Some(_)) => appeared.push(h as u32),
                        (old, None) if old != NO_SLOT => vacated.push(old),
                        _ => {}
                    }
                }
                appeared.sort_unstable_by_key(|&h| in_order_rank(h));
                appeared.dedup();
                vacated.sort_unstable();
                vacated.dedup();
            }
        }
        let (spare, mut order, mut slot_at) =
            to.map_or_else(Default::default, |e| (Some(e.snapshot), e.order, e.slot_at));
        // Slots in key order: the previous order without the vacated slots,
        // each appeared position spliced in at its in-order place.
        // `old_slot[slot]` is the previous slot of the same position and
        // `new_slot` the inverse, [`NO_SLOT`] where a position is occupied
        // in only one of the two exports.
        let slots = old_order.len() - vacated.len() + appeared.len();
        order.clear();
        make_room(&mut order, slots);
        let (old_slot, new_slot, fresh) = work;
        old_slot.clear();
        make_room(old_slot, slots);
        new_slot.clear();
        new_slot.resize(old_order.len(), NO_SLOT);
        let (mut next_appeared, mut next_vacated, mut o) =
            (appeared.iter().peekable(), vacated.iter().peekable(), 0);
        loop {
            let insert = next_appeared.peek().map(|&&h| {
                o + old_order[o..].partition_point(|&old| in_order_rank(old) < in_order_rank(h))
            });
            let skip = next_vacated.peek().map(|&&old| old as usize);
            let end = insert
                .unwrap_or(old_order.len())
                .min(skip.unwrap_or(old_order.len()));
            let by = (order.len() as u32).wrapping_sub(o as u32);
            for (slot, old) in new_slot[o..end].iter_mut().zip(o as u32..) {
                *slot = old.wrapping_add(by);
            }
            order.extend_from_slice(&old_order[o..end]);
            old_slot.extend(o as u32..end as u32);
            o = end;
            if insert == Some(o) {
                order.extend(next_appeared.next());
                old_slot.push(NO_SLOT);
            } else if skip == Some(o) {
                next_vacated.next();
                o += 1;
            } else {
                break;
            }
        }
        // Whole levels: the table grows only with the tree's height.
        slot_at.clear();
        slot_at.resize(self.by_position.heap_len().next_power_of_two(), NO_SLOT);
        for (s, &h) in order.iter().enumerate() {
            slot_at[h as usize] = s as u32;
        }
        let slot = |h: usize| {
            let slot = *slot_at.get(h)?;
            (slot != NO_SLOT).then_some(slot as usize)
        };
        // `fresh[slot]`: the slot is rebuilt from the plane and the stores,
        // not copied.
        fresh.clear();
        fresh.resize(slots, previous.is_none());
        if let Some(previous) = previous {
            let vacated = vacated.iter().map(|&old| previous.order[old as usize]);
            let flipped = appeared.iter().copied().chain(vacated);
            let old_slots = old_order.len();
            self.mark_changed_rows(&slot_at, old_slot, old_slots, changes, flipped, fresh);
        }
        // The links number 4·(N − 1) parent, child and adjacent links plus
        // both ends of every pair of occupied positions 2^i apart on one
        // level.  A full level L has 2^L − 2^i such pairs for each i < L;
        // the pairs of every other level are counted at their right end.
        let levels = self.by_position.level_counts();
        let full = |level: usize| levels[level] == 1 << level;
        let mut pairs: usize = (0..levels.len())
            .filter(|&level| full(level))
            .map(|level| level * (1 << level) + 1 - (1 << level))
            .sum();
        for h in order.iter().map(|&h| h as usize) {
            if !full(h.ilog2() as usize) {
                let [left, _] = table_positions(h);
                pairs += left.filter(|&t| slot_at[t] != NO_SLOT).count();
            }
        }
        let links = 4 * slots.saturating_sub(1) + 2 * pairs;
        // Item arrays: the copied slots' entries plus the rebuilt stores.
        let occupant = |s: usize| {
            self.by_position
                .at(order[s] as usize)
                .expect("ordered positions are occupied")
        };
        let store = |peer: PeerId| {
            self.node(peer)
                .expect("the position map names members")
                .store
                .keys()
        };
        let items: usize = (0..slots)
            .map(|s| match previous {
                Some(previous) if !fresh[s] => previous.snapshot.item_entries(old_slot[s] as usize),
                _ => store(occupant(s).0).len(),
            })
            .sum();
        let domain = (self.domain.low(), self.domain.high());
        let mut builder = SnapshotBuilder::reusing(ExactPlacement::DomainPartition, domain, spare);
        builder.reserve(slots, items, links);
        // Registered nodes are dead only while awaiting a deferred repair.
        let alive = |peer: u32| self.net.is_alive(PeerId(peer));
        let mut targets = [0u32; MAX_ROW];
        let mut kinds = [LinkKind::Parent; MAX_ROW];
        let last = slots.saturating_sub(1);
        let mut s = 0;
        while s < slots {
            if !fresh[s] {
                let previous = previous.expect("only a previous export has slots to copy");
                let start = s;
                while s < slots && !fresh[s] {
                    s += 1;
                }
                let from = old_slot[start] as usize;
                let rows = from..from + s - start;
                builder.copy_slots(&previous.snapshot, rows, new_slot, alive);
                continue;
            }
            let (peer, range) = occupant(s);
            builder.push_slot(peer.0, range.high(), alive(peer.0));
            builder.push_keys(store(peer));
            builder.seal_slot();
            let h = order[s] as usize;
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
            for side in table_positions(h) {
                side.filter_map(slot)
                    .for_each(|target| push(target, LinkKind::RoutingTable));
            }
            builder.push_link_row(s, &targets[..len], &kinds[..len]);
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
            s += 1;
        }
        let snapshot = builder.finish();
        let emitted = || (0..slots).map(|s| snapshot.links(s).count()).sum::<usize>();
        debug_assert_eq!(emitted(), links, "the count covers every link");
        Export {
            snapshot,
            order,
            slot_at,
        }
    }

    /// Marks for rebuilding every slot whose rows may differ from its
    /// previous ones: a position it links to by arithmetic is among the
    /// `flipped` ones, occupied or vacated since; an in-order neighbour
    /// differs; or its position or its peer is in `changes`.
    fn mark_changed_rows(
        &self,
        slot_at: &[u32],
        old_slot: &[u32],
        old_slots: usize,
        changes: &[Change],
        flipped: impl Iterator<Item = u32>,
        fresh: &mut [bool],
    ) {
        let Some(last) = old_slot.len().checked_sub(1) else {
            return;
        };
        let mut mark = |h: usize| match slot_at.get(h) {
            Some(&s) if s != NO_SLOT => fresh[s as usize] = true,
            _ => {}
        };
        for &change in changes {
            match change {
                Change::Position(h) => mark(h as usize),
                Change::Peer(peer) => {
                    if let Some(node) = self.node(peer) {
                        mark(node.position.heap_index() as usize);
                    }
                }
            }
        }
        for h in flipped {
            let h = h as usize;
            [h / 2, 2 * h, 2 * h + 1].into_iter().for_each(&mut mark);
            table_positions(h).into_iter().flatten().for_each(&mut mark);
        }
        // A slot keeps its adjacent links and replicas only while the slots
        // next to it are the ones next to it before: both ends of every
        // break in the run of consecutive previous slots are rebuilt.
        let consecutive = |left: u32, right: u32| left != NO_SLOT && left + 1 == right;
        for s in 1..old_slot.len() {
            if !consecutive(old_slot[s - 1], old_slot[s]) {
                fresh[s - 1] = true;
                fresh[s] = true;
            }
        }
        fresh[0] |= old_slot[0] != 0;
        fresh[last] |= old_slot[last] as usize + 1 != old_slots;
    }
}

#[cfg(test)]
mod tests {
    use baton_net::serve::{RoutingSnapshot, ServeCounters};
    use baton_net::{Overlay, SimRng};

    use super::{ChangeLog, Work, CHANGE_LOG_CAP};
    use crate::config::BatonConfig;
    use crate::position::Side;
    use crate::range::KeyRange;
    use crate::system::BatonSystem;

    /// The exporter's lock keeps `BatonSystem` shareable across threads.
    const _: fn() = || {
        fn shareable<T: Send + Sync>() {}
        shareable::<BatonSystem>();
    };

    /// A from-scratch export of `system`'s current state.
    fn from_scratch(system: &BatonSystem) -> RoutingSnapshot {
        system
            .export(None, &[], None, &mut Work::default())
            .snapshot
    }

    fn logged(system: &BatonSystem) -> usize {
        system.exporter.lock().unwrap().log.len()
    }

    #[test]
    fn the_change_log_starts_at_the_first_export_and_collapses_past_its_cap() {
        let mut system = BatonSystem::build(BatonConfig::default(), 3, 200).unwrap();
        let mut rng = SimRng::seeded(3);
        for value in 0..100 {
            system
                .insert(rng.uniform_u64(1, 999_999_999), value)
                .unwrap();
        }
        system.join_random().unwrap();
        assert!(matches!(
            system.exporter.lock().unwrap().log,
            ChangeLog::All
        ));
        assert_eq!(
            logged(&system),
            0,
            "nothing is logged before the first export"
        );

        system.build_routing_snapshot();
        system.join_random().unwrap();
        let joined = logged(&system);
        assert!(
            joined > 0 && joined < 200,
            "one join logged {joined} changes"
        );

        while !matches!(system.exporter.lock().unwrap().log, ChangeLog::All) {
            assert!(logged(&system) <= CHANGE_LOG_CAP);
            system.insert(rng.uniform_u64(1, 999_999_999), 0).unwrap();
        }
        assert_eq!(logged(&system), 0, "a collapsed log holds no change");
        assert_eq!(system.build_routing_snapshot(), from_scratch(&system));
        assert!(matches!(
            system.exporter.lock().unwrap().log,
            ChangeLog::Changes(_)
        ));
        assert_eq!(logged(&system), 0, "an export empties the log");
    }

    /// Through the routing plane alone, writing no node, moves a leaf to a
    /// free right-child position, then empties another node's range: the
    /// log names only the positions, and the slots linked to a moved
    /// position or next to one in key order — the new leaf's successor is
    /// an ancestor linked to it by no arithmetic — must be rebuilt all the
    /// same.
    #[test]
    fn patches_follow_plane_changes_that_write_no_node() {
        let mut system = BatonSystem::build(BatonConfig::default(), 5, 300).unwrap();
        system.set_replication(3).unwrap();
        let before = system.build_routing_snapshot();
        let (leaf, from) = (system.iter_nodes())
            .find(|(peer, node)| system.links(*peer).unwrap().is_leaf() && node.level() > 2)
            .map(|(peer, node)| (peer, node.position))
            .unwrap();
        let (parent, parent_node) = (system.iter_nodes())
            .find(|(peer, node)| {
                let child = node.position.child(Side::Right);
                *peer != leaf && node.level() > 2 && system.peer_at(child).is_none()
            })
            .unwrap();
        // The new right child follows its parent in key order: an empty
        // range at the parent's high keeps the slot bounds sorted.
        let to = parent_node.position.child(Side::Right);
        let high = system.range_of(parent).unwrap().high();
        system.vacate(from, leaf);
        system.occupy(to, leaf, KeyRange::new(high, high));
        let moved = system.build_routing_snapshot();
        assert_ne!(moved, before);
        assert_eq!(moved, from_scratch(&system));
        let (other, at) = (system.iter_nodes())
            .map(|(peer, node)| (peer, node.position))
            .find(|&(peer, _)| peer != leaf)
            .unwrap();
        let low = system.range_of(other).unwrap().low();
        system.occupy(at, other, KeyRange::new(low, low));
        let emptied = system.build_routing_snapshot();
        assert_ne!(emptied, moved);
        assert_eq!(emptied, from_scratch(&system));
    }

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
