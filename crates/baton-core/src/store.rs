//! Local data storage at a node.
//!
//! Each BATON node stores the index entries whose keys fall inside the range
//! it manages.  The store is an ordered multimap from [`Key`] to opaque
//! values, so it supports the exact-match and range scans the overlay needs
//! as well as the splitting/merging that accompanies joins, departures and
//! load balancing.
//!
//! ### Layout
//!
//! Two parallel arrays sorted by key (`keys[i]` belongs to `values[i]`,
//! duplicates adjacent in insertion order), as the multiway-tree and D3-Tree
//! baselines keep their node-local keys.  A routed query touches a store
//! once, cold: a binary search over one contiguous array costs a few cache
//! lines where a B-tree with a heap vector per key cost a miss per level.
//!
//! The price is an O(n) tail move when `insert` lands mid-array.  Stores stay
//! small — a range splits at every join and §IV-D balancing sheds load — and
//! the bulk paths never pay it: [`load_direct`] feeds ascending keys (an
//! append) and `absorb` moves a disjoint range as one block.  The benchmark's
//! `core.store.insert_ns` probe (100,000 inserts into *one* store) shows the
//! worst case.
//!
//! [`load_direct`]: baton_net::Overlay::load_direct

use crate::range::{Key, KeyRange};

/// An opaque value attached to an index entry.  The reproduction uses `u64`
/// payload identifiers; a real deployment would store record locators.
pub type Value = u64;

/// Ordered multimap of index entries managed by one node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalStore {
    /// Sorted, with duplicates; `keys[i]` belongs to `values[i]`.
    keys: Vec<Key>,
    values: Vec<Value>,
}

impl LocalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored values (counting duplicates per key).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the store holds no values.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The stored keys in ascending order, one per value (a key stored `n`
    /// times appears `n` times).
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Heap bytes behind this store (the capacity of the two arrays), for the
    /// perf harness's bytes-per-peer accounting.  `Vec` growth depends only on
    /// the operation sequence, so the figure repeats across processes.
    pub fn estimated_heap_bytes(&self) -> u64 {
        (self.keys.capacity() * std::mem::size_of::<Key>()
            + self.values.capacity() * std::mem::size_of::<Value>()) as u64
    }

    /// Index of the first entry whose key is `>= key`.
    fn lower_bound(&self, key: Key) -> usize {
        self.keys.partition_point(|k| *k < key)
    }

    /// Index one past the last entry whose key is `<= key`.
    fn upper_bound(&self, key: Key) -> usize {
        self.keys.partition_point(|k| *k <= key)
    }

    /// The index span of the entries whose keys lie in `range`.
    fn span(&self, range: KeyRange) -> std::ops::Range<usize> {
        self.lower_bound(range.low())..self.lower_bound(range.high())
    }

    /// Inserts a value under `key`.  Duplicate keys are allowed (the paper
    /// explicitly discusses duplicate partition-key values, §IV-A); a
    /// duplicate lands after the values already stored under its key.
    pub fn insert(&mut self, key: Key, value: Value) {
        let at = self.upper_bound(key);
        self.keys.insert(at, key);
        self.values.insert(at, value);
    }

    /// Returns the values stored under `key` (empty slice if none), in
    /// insertion order.
    pub fn get(&self, key: Key) -> &[Value] {
        let start = self.lower_bound(key);
        // The run is scanned, not searched: it is usually 0 or 1 long and
        // sits in the cache line the search just touched.
        let run = self.keys[start..].iter().take_while(|k| **k == key).count();
        &self.values[start..start + run]
    }

    /// Removes *one* value stored under `key` — the most recently inserted
    /// — returning it.
    ///
    /// Returns `None` if the key is absent.
    pub fn remove_one(&mut self, key: Key) -> Option<Value> {
        let last = self.upper_bound(key).checked_sub(1)?;
        if self.keys[last] != key {
            return None;
        }
        self.keys.remove(last);
        Some(self.values.remove(last))
    }

    /// Returns `(key, value)` pairs whose keys lie in `range`, in key order.
    pub fn scan(&self, range: KeyRange) -> Vec<(Key, Value)> {
        let span = self.span(range);
        let keys = self.keys[span.clone()].iter().copied();
        keys.zip(self.values[span].iter().copied()).collect()
    }

    /// Number of values whose keys lie in `range`.
    pub fn count_in(&self, range: KeyRange) -> usize {
        self.span(range).len()
    }

    /// Removes and returns every entry whose key lies in `range`
    /// (used when a node splits its content with a new child, paper §III-A,
    /// or migrates data during load balancing, §IV-D).
    pub fn split_off_range(&mut self, range: KeyRange) -> LocalStore {
        let span = self.span(range);
        LocalStore {
            keys: self.keys.drain(span.clone()).collect(),
            values: self.values.drain(span).collect(),
        }
    }

    /// Absorbs every entry of `other` into this store.  Under a key both
    /// stores hold, `other`'s values follow this store's.
    pub fn absorb(&mut self, other: LocalStore) {
        let Some(max) = other.max_key() else { return };
        let at = self.upper_bound(other.keys[0]);
        if self.keys.get(at).is_none_or(|next| max < *next) {
            // `other` fits between two neighbouring entries — always, when
            // the stores cover disjoint ranges (join, departure, balancing):
            // an append or one block move.
            self.keys.splice(at..at, other.keys);
            self.values.splice(at..at, other.values);
        } else {
            other
                .iter()
                .for_each(|(key, value)| self.insert(key, value));
        }
    }

    /// Smallest stored key, if any.
    pub fn min_key(&self) -> Option<Key> {
        self.keys.first().copied()
    }

    /// Largest stored key, if any.
    pub fn max_key(&self) -> Option<Key> {
        self.keys.last().copied()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.keys.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use baton_net::Overlay;

    use super::*;

    #[test]
    fn system_state_estimate_is_the_sum_of_its_allocations() {
        use crate::config::BatonConfig;
        use crate::node::BatonNode;
        use crate::routing::RoutingEntry;
        use crate::system::BatonSystem;
        use baton_net::{PeerId, RepairPolicy, SimTime};
        use std::mem::size_of;

        // Joins, leaves and inserts, then one failure left awaiting its
        // repair: the dead node keeps its slot and its state.
        let mut system = BatonSystem::build(BatonConfig::default(), 12, 40).unwrap();
        let mut rng = baton_net::SimRng::seeded(0x57A7);
        for i in 0..200u64 {
            match i % 10 {
                0 | 1 => drop(system.join_random().unwrap()),
                2 => {
                    let peer = system.peers()[rng.index(system.node_count())];
                    system.leave(peer).unwrap();
                }
                _ => drop(system.insert(rng.uniform_u64(1, 1 << 40), i).unwrap()),
            }
        }
        let policy = RepairPolicy {
            fast: SimTime::from_millis(10),
            slow: SimTime::from_millis(100),
        };
        let victim = system.peers()[7];
        system.fail_deferred(victim, &policy).unwrap();
        assert!(system.node(victim).is_some());

        let nodes: Vec<&BatonNode> = system.nodes.values().collect();
        let slot = size_of::<Option<RoutingEntry>>();
        let tables: usize = nodes
            .iter()
            .map(|n| (n.left_table.slot_count() + n.right_table.slot_count()) * slot)
            .sum();
        let stores: usize = nodes
            .iter()
            .map(|n| {
                n.store.keys.capacity() * size_of::<Key>()
                    + n.store.values.capacity() * size_of::<Value>()
            })
            .sum();
        let slab = system.nodes.slot_capacity() * size_of::<Option<BatonNode>>();
        let peers = system.nodes.list_capacity() * size_of::<PeerId>();
        assert!(stores > 0);
        assert_eq!(
            system.estimated_state_bytes(),
            (slab + tables + stores + peers) as u64
        );
    }

    #[test]
    fn insert_get_and_len() {
        let mut store = LocalStore::new();
        assert!(store.is_empty());
        store.insert(5, 100);
        store.insert(5, 101);
        store.insert(9, 200);
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(5), &[100, 101]);
        assert_eq!(store.get(9), &[200]);
        assert_eq!(store.get(7), &[] as &[Value]);
    }

    #[test]
    fn remove_one_and_all() {
        let mut store = LocalStore::new();
        store.insert(1, 10);
        store.insert(1, 11);
        store.insert(2, 20);
        assert_eq!(store.remove_one(1), Some(11));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1), &[10]);
        assert_eq!(store.remove_one(1), Some(10));
        assert!(store.get(1).is_empty());
        assert_eq!(store.remove_one(1), None);
        assert_eq!(store.remove_one(2), Some(20));
        assert!(store.is_empty());
    }

    #[test]
    fn scan_and_count_in_range() {
        let mut store = LocalStore::new();
        for k in [10u64, 20, 30, 40, 50] {
            store.insert(k, k * 2);
        }
        store.insert(30, 999);
        let hits = store.scan(KeyRange::new(20, 41));
        assert_eq!(hits, vec![(20, 40), (30, 60), (30, 999), (40, 80)]);
        assert_eq!(store.count_in(KeyRange::new(20, 41)), 4);
        assert_eq!(store.count_in(KeyRange::new(0, 10)), 0);
        assert!(store.scan(KeyRange::new(25, 25)).is_empty());
    }

    #[test]
    fn split_off_range_moves_entries() {
        let mut store = LocalStore::new();
        for k in 0..10u64 {
            store.insert(k, k);
        }
        let moved = store.split_off_range(KeyRange::new(3, 7));
        assert_eq!(moved.len(), 4);
        assert_eq!(store.len(), 6);
        assert_eq!(moved.get(3), &[3]);
        assert_eq!(moved.get(6), &[6]);
        assert!(moved.get(7).is_empty());
        assert!(store.get(5).is_empty());
        assert_eq!(store.get(7), &[7]);
    }

    #[test]
    fn absorb_merges_duplicate_keys() {
        let mut a = LocalStore::new();
        a.insert(1, 10);
        a.insert(2, 20);
        let mut b = LocalStore::new();
        b.insert(2, 21);
        b.insert(3, 30);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(2), &[20, 21]);
        assert_eq!(a.get(3), &[30]);
    }

    #[test]
    fn min_max_and_median_key() {
        let mut store = LocalStore::new();
        assert_eq!(store.min_key(), None);
        assert_eq!(store.max_key(), None);
        for k in [5u64, 1, 9, 3, 7] {
            store.insert(k, 0);
        }
        assert_eq!(store.min_key(), Some(1));
        assert_eq!(store.max_key(), Some(9));
    }

    #[test]
    fn iter_yields_key_order() {
        let mut store = LocalStore::new();
        store.insert(3, 1);
        store.insert(1, 2);
        store.insert(2, 3);
        let collected: Vec<_> = store.iter().collect();
        assert_eq!(collected, vec![(1, 2), (2, 3), (3, 1)]);
    }

    // Seeded stand-ins for the old proptest properties.
    #[test]
    fn prop_split_then_absorb_is_identity() {
        let mut rng = baton_net::SimRng::seeded(0x5709);
        for _ in 0..100 {
            let key_count = rng.index(200);
            let pivot = rng.uniform_u64(0, 1000);
            let mut store = LocalStore::new();
            for i in 0..key_count {
                store.insert(rng.uniform_u64(0, 1000), i as u64);
            }
            let original_len = store.len();
            let original: Vec<_> = store.iter().collect();
            let moved = store.split_off_range(KeyRange::new(0, pivot));
            // Every moved key is below the pivot, every kept key is at or
            // above it.
            assert!(moved.iter().all(|(k, _)| k < pivot));
            assert!(store.iter().all(|(k, _)| k >= pivot));
            assert_eq!(store.len() + moved.len(), original_len);
            let mut reunited = moved;
            reunited.absorb(store);
            assert_eq!(reunited.len(), original_len);
            let mut all: Vec<_> = reunited.iter().collect();
            let mut orig_sorted = original;
            all.sort_unstable();
            orig_sorted.sort_unstable();
            assert_eq!(all, orig_sorted);
        }
    }

    #[test]
    fn prop_count_matches_scan() {
        let mut rng = baton_net::SimRng::seeded(0xC007);
        for _ in 0..200 {
            let mut store = LocalStore::new();
            for _ in 0..rng.index(100) {
                store.insert(rng.uniform_u64(0, 100), 0);
            }
            let lo = rng.uniform_u64(0, 100);
            let hi = rng.uniform_u64(0, 100);
            let range = KeyRange::new(lo.min(hi), lo.max(hi));
            assert_eq!(store.count_in(range), store.scan(range).len());
        }
    }

    /// The `BTreeMap<Key, Vec<Value>>` store this module used before the
    /// flat layout, kept as the reference the differential test compares
    /// against.
    #[derive(Default)]
    struct ReferenceStore {
        entries: std::collections::BTreeMap<Key, Vec<Value>>,
    }

    impl ReferenceStore {
        fn len(&self) -> usize {
            self.entries.values().map(Vec::len).sum()
        }

        fn insert(&mut self, key: Key, value: Value) {
            self.entries.entry(key).or_default().push(value);
        }

        fn get(&self, key: Key) -> &[Value] {
            self.entries.get(&key).map(Vec::as_slice).unwrap_or(&[])
        }

        fn remove_one(&mut self, key: Key) -> Option<Value> {
            let values = self.entries.get_mut(&key)?;
            let value = values.pop();
            if values.is_empty() {
                self.entries.remove(&key);
            }
            value
        }

        fn scan(&self, range: KeyRange) -> Vec<(Key, Value)> {
            self.entries
                .range(range.low()..range.high())
                .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
                .collect()
        }

        fn split_off_range(&mut self, range: KeyRange) -> ReferenceStore {
            let keys: Vec<Key> = self
                .entries
                .range(range.low()..range.high())
                .map(|(k, _)| *k)
                .collect();
            let mut moved = ReferenceStore::default();
            for key in keys {
                let values = self.entries.remove(&key).expect("just listed");
                moved.entries.insert(key, values);
            }
            moved
        }

        fn absorb(&mut self, other: ReferenceStore) {
            for (key, values) in other.entries {
                self.entries.entry(key).or_default().extend(values);
            }
        }
    }

    /// Every observer of the store, compared against the reference.
    fn assert_same(store: &LocalStore, reference: &ReferenceStore, rng: &mut baton_net::SimRng) {
        assert_eq!(store.len(), reference.len());
        assert_eq!(store.is_empty(), reference.entries.is_empty());
        assert_eq!(store.min_key(), reference.entries.keys().next().copied());
        assert_eq!(
            store.max_key(),
            reference.entries.keys().next_back().copied()
        );
        let everything = reference.scan(KeyRange::new(0, Key::MAX));
        assert_eq!(store.iter().collect::<Vec<_>>(), everything);
        let keys: Vec<Key> = everything.iter().map(|(k, _)| *k).collect();
        assert_eq!(store.keys(), keys);
        for _ in 0..4 {
            let key = rng.uniform_u64(0, KEY_SPACE);
            assert_eq!(store.get(key), reference.get(key));
            let range = random_range(rng);
            let hits = reference.scan(range);
            assert_eq!(store.count_in(range), hits.len());
            assert_eq!(store.scan(range), hits);
        }
    }

    /// Few distinct keys, so most inserts duplicate one and value order
    /// within a key is exercised.
    const KEY_SPACE: u64 = 40;

    /// A random range over the key space (empty when both draws coincide).
    fn random_range(rng: &mut baton_net::SimRng) -> KeyRange {
        let (a, b) = (
            rng.uniform_u64(0, KEY_SPACE + 1),
            rng.uniform_u64(0, KEY_SPACE + 1),
        );
        KeyRange::new(a.min(b), a.max(b))
    }

    #[test]
    fn differential_against_the_btreemap_reference() {
        let mut rng = baton_net::SimRng::seeded(0xD1FF);
        for _ in 0..200 {
            let mut store = LocalStore::new();
            let mut reference = ReferenceStore::default();
            let mut next_value = 0u64;
            for _ in 0..rng.index(120) {
                match rng.index(10) {
                    0..=4 => {
                        let key = rng.uniform_u64(0, KEY_SPACE);
                        next_value += 1;
                        store.insert(key, next_value);
                        reference.insert(key, next_value);
                    }
                    5 | 6 => {
                        let key = rng.uniform_u64(0, KEY_SPACE);
                        assert_eq!(store.remove_one(key), reference.remove_one(key));
                    }
                    7 => {
                        // Split a range off and drop it (a join's child
                        // walking away with its share).
                        let range = random_range(&mut rng);
                        let moved = store.split_off_range(range);
                        let moved_reference = reference.split_off_range(range);
                        assert_same(&moved, &moved_reference, &mut rng);
                    }
                    8 => {
                        // Split and re-absorb: disjoint ranges, the
                        // join/leave/balance shape, in both directions.
                        let range = random_range(&mut rng);
                        let moved = store.split_off_range(range);
                        let moved_reference = reference.split_off_range(range);
                        if rng.index(2) == 0 {
                            store.absorb(moved);
                            reference.absorb(moved_reference);
                        } else {
                            let (mut left, mut left_reference) = (moved, moved_reference);
                            left.absorb(std::mem::take(&mut store));
                            left_reference.absorb(std::mem::take(&mut reference));
                            (store, reference) = (left, left_reference);
                        }
                    }
                    _ => {
                        // Absorb an independently built, overlapping store.
                        let mut other = LocalStore::new();
                        let mut other_reference = ReferenceStore::default();
                        for _ in 0..rng.index(30) {
                            let key = rng.uniform_u64(0, KEY_SPACE);
                            next_value += 1;
                            other.insert(key, next_value);
                            other_reference.insert(key, next_value);
                        }
                        store.absorb(other);
                        reference.absorb(other_reference);
                    }
                }
                assert_same(&store, &reference, &mut rng);
            }
        }
    }
}
