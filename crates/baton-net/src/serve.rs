//! Concurrent serve mode: immutable routing/ownership snapshots and the
//! lock-free read path over them.
//!
//! The routed engine answers one query at a time behind the virtual
//! clock; a real deployment answers thousands concurrently.  This module is
//! the bridge: an overlay exports its current routing/ownership state as an
//! immutable [`RoutingSnapshot`] — dense arrays of per-peer key ranges, link
//! tables, item indexes and replica sets — which any number of OS threads
//! can then query without locks, allocation, or simulated-network traffic.
//!
//! Structural operations (join/leave/balance/repair) never mutate a
//! published snapshot.  Instead the owner rebuilds one and *publishes* it
//! through a [`SnapshotCell`]; readers hold a [`SnapshotReader`] whose
//! cached `Arc` is refreshed only when the cell's version counter changes
//! (a single relaxed-acquire atomic load on the fast path).  A reader that
//! has not yet refreshed keeps answering from its stale snapshot — answers
//! are always internally consistent with *one* version, never a mix.
//!
//! The per-query cost model is deliberately minimal: owner resolution is a
//! binary search over the slot partition (or the hashed ring), matches come
//! from a prefix-summed item index, and hop counts are produced by greedy
//! routing over the snapshot's link targets.  The link kinds are exported
//! alongside ([`RoutingSnapshot::links`]) but the read path never loads
//! them: the traced routed engine is where hops are split by kind.

use std::cell::OnceCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::LinkKind;

/// How exact queries map a key to its owning slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactPlacement {
    /// Slots partition a contiguous key domain in key order; the owner of a
    /// key is the slot whose `[low, high)` range contains it (BATON, the
    /// multiway tree, D3-Tree).
    DomainPartition,
    /// Keys are hashed onto a ring of `domain.1` identifiers (SplitMix64
    /// finalizer, the same mix Chord's `ChordId::hash` applies); the owner
    /// is the first slot whose identifier is `>=` the hash, wrapping to
    /// slot 0 (Chord successor placement).
    HashedRing,
}

/// Outcome class of one snapshot-served query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeStatus {
    /// Answered by the owning slot.
    Ok,
    /// The owner is marked dead; a live replica answered instead.
    Failover,
    /// The owner is dead and no replica is alive.
    Unavailable,
    /// The key lies outside the snapshot's domain (partition overlays
    /// reject out-of-domain exact keys, mirroring the routed engines).
    Rejected,
    /// The overlay cannot answer this query class (range queries on a
    /// hashed ring).
    Unsupported,
}

/// One snapshot-served answer: the match count plus the read path's cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeAnswer {
    /// Number of matching stored values — byte-identical to the routed
    /// engine's `matches` for the same overlay state.
    pub matches: u64,
    /// Greedy routing hops charged to reach the owner.
    pub hops: u32,
    /// Slots swept by a range query (0 for exact queries and empty clamps).
    pub slots: u32,
    /// Outcome class.
    pub status: ServeStatus,
}

/// Per-worker query counters, merged deterministically after a run.
///
/// Every field is an integer accumulated in query order, so merging worker
/// counters in canonical worker order (or any order — all sums and XORs
/// commute) produces identical totals at any thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Queries admitted (including rejected/unavailable ones).
    pub queries: u64,
    /// Sum of `matches` over all answered queries.
    pub matches: u64,
    /// Total routing hops.
    pub hops: u64,
    /// Slots swept by range queries.
    pub slots_swept: u64,
    /// Queries answered by a replica because the owner was dead.
    pub failover: u64,
    /// Queries that found neither the owner nor any replica alive.
    pub unavailable: u64,
    /// Queries rejected (out-of-domain key) or unsupported (range on a
    /// ring).
    pub rejected: u64,
    /// Order-independent digest folding every `(matches, hops)` pair; equal
    /// digests across thread counts pin work-for-work determinism.
    pub checksum: u64,
}

impl ServeCounters {
    /// Folds one answer into the counters.
    #[inline]
    pub fn record(&mut self, answer: ServeAnswer) {
        self.queries += 1;
        self.matches += answer.matches;
        self.hops += u64::from(answer.hops);
        self.slots_swept += u64::from(answer.slots);
        match answer.status {
            ServeStatus::Ok => {}
            ServeStatus::Failover => self.failover += 1,
            ServeStatus::Unavailable => self.unavailable += 1,
            ServeStatus::Rejected | ServeStatus::Unsupported => self.rejected += 1,
        }
        // SplitMix64-style fold; XOR keeps the merge order-independent.
        let mut z = answer
            .matches
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(answer.hops))
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        self.checksum ^= z;
    }

    /// Merges another worker's counters into this one.
    pub fn merge(&mut self, other: &ServeCounters) {
        self.queries += other.queries;
        self.matches += other.matches;
        self.hops += other.hops;
        self.slots_swept += other.slots_swept;
        self.failover += other.failover;
        self.unavailable += other.unavailable;
        self.rejected += other.rejected;
        self.checksum ^= other.checksum;
    }
}

/// An immutable, versioned routing/ownership snapshot of one overlay.
///
/// Slots are the overlay's peers in key order (partition overlays) or ring
/// identifier order (hashed ring).  All per-slot data lives in dense
/// flat/CSR arrays, so a snapshot is a handful of contiguous allocations
/// that any number of threads can read concurrently.  The arrays sit behind
/// one `Arc`: a clone shares them, so an exporter that keeps its previous
/// export to patch the next one holds no second copy.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingSnapshot {
    version: u64,
    placement: ExactPlacement,
    /// `[low, high)` key domain (partition) or `[0, ring_size)` (ring).
    domain: (u64, u64),
    arrays: Arc<SnapshotArrays>,
}

/// The per-slot arrays of a [`RoutingSnapshot`].
#[derive(Clone, Debug, Default, PartialEq)]
struct SnapshotArrays {
    /// Peer address of each slot ([`crate::PeerId::raw`]-compatible).
    slot_peer: Vec<u32>,
    /// Exclusive range high of each slot (partition), or the slot's ring
    /// identifier (ring); non-decreasing either way (an empty slice repeats
    /// its predecessor's bound).
    slot_high: Vec<u64>,
    /// Liveness of each slot's peer at snapshot time.
    slot_alive: Vec<bool>,
    /// CSR offsets into `item_key`/`item_cum` (`len == slots + 1`).
    item_off: Vec<u32>,
    /// Distinct stored keys per slot, sorted within each slot segment; the
    /// concatenation over partition slots is globally sorted.
    item_key: Vec<u64>,
    /// Prefix sums of per-key value counts (`len == item_key.len() + 1`):
    /// the count stored under `item_key[i]` is `item_cum[i+1]-item_cum[i]`.
    item_cum: Vec<u64>,
    /// CSR offsets into the link arrays (`len == slots + 1`).
    link_off: Vec<u32>,
    /// Link targets, as slot indices.
    link_target: Vec<u32>,
    /// Link classes, parallel to `link_target`.
    link_kind: Vec<LinkKind>,
    /// CSR offsets into `repl_target` (`len == slots + 1`).
    repl_off: Vec<u32>,
    /// Replica slots per slot, in placement preference order.
    repl_target: Vec<u32>,
}

impl SnapshotArrays {
    /// Empties every array, keeping its capacity, to the state a builder starts from.
    fn clear(&mut self) {
        self.slot_peer.clear();
        self.slot_high.clear();
        self.slot_alive.clear();
        self.item_key.clear();
        self.link_target.clear();
        self.link_kind.clear();
        self.repl_target.clear();
        for zeroed in [&mut self.item_off, &mut self.link_off, &mut self.repl_off] {
            zeroed.clear();
            zeroed.push(0);
        }
        self.item_cum.clear();
        self.item_cum.push(0);
    }
}

/// Hashes a key onto a ring of `ring` identifiers — the SplitMix64
/// finalizer, bit-identical to Chord's `ChordId::hash` when `ring == 2^32`.
#[inline]
pub fn ring_hash(key: u64, ring: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % ring
}

impl RoutingSnapshot {
    /// The version assigned at publication (0 before the first publish).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of slots (peers) in the snapshot.
    pub fn slots(&self) -> usize {
        self.arrays.slot_peer.len()
    }

    /// `true` if the snapshot can answer range queries: its slots
    /// partition the key domain in key order (a hashed ring has no order).
    pub fn range_supported(&self) -> bool {
        self.placement == ExactPlacement::DomainPartition
    }

    /// The snapshot's key domain `[low, high)` (ring size for hashed
    /// placement).
    pub fn domain(&self) -> (u64, u64) {
        self.domain
    }

    /// Peer address of `slot`.
    pub fn peer_of(&self, slot: usize) -> u32 {
        self.arrays.slot_peer[slot]
    }

    /// Liveness of `slot` at snapshot time.
    pub fn alive(&self, slot: usize) -> bool {
        self.arrays.slot_alive[slot]
    }

    /// The routing links of `slot` as `(target slot, kind)`, in the order
    /// the overlay emitted them.
    pub fn links(&self, slot: usize) -> impl Iterator<Item = (usize, LinkKind)> + '_ {
        let a = &*self.arrays;
        let segment = a.link_off[slot] as usize..a.link_off[slot + 1] as usize;
        segment.map(|i| (a.link_target[i] as usize, a.link_kind[i]))
    }

    /// The slots holding replicas of `slot`'s slice, in preference order.
    pub fn replicas(&self, slot: usize) -> &[u32] {
        let a = &*self.arrays;
        &a.repl_target[a.repl_off[slot] as usize..a.repl_off[slot + 1] as usize]
    }

    /// Number of distinct keys stored at `slot`.
    pub fn item_entries(&self, slot: usize) -> usize {
        let off = &self.arrays.item_off[slot..];
        (off[1] - off[0]) as usize
    }

    /// Total stored values across all slots.
    pub fn total_items(&self) -> u64 {
        *self.arrays.item_cum.last().unwrap_or(&0)
    }

    /// Approximate resident bytes of the snapshot's arrays.
    pub fn estimated_bytes(&self) -> u64 {
        let a = &*self.arrays;
        (a.slot_peer.len() * 4
            + a.slot_high.len() * 8
            + a.slot_alive.len()
            + a.item_off.len() * 4
            + a.item_key.len() * 8
            + a.item_cum.len() * 8
            + a.link_off.len() * 4
            + a.link_target.len() * 4
            + a.link_kind.len()
            + a.repl_off.len() * 4
            + a.repl_target.len() * 4) as u64
    }

    /// Checks the snapshot's shape: every CSR offset array starts at 0,
    /// never decreases and closes its last segment at its array's end; link
    /// and replica targets are slots other than their own; keys strictly
    /// ascend within each slot; `slot_high` never decreases; and `item_cum`
    /// starts at 0 and strictly increases.  The error names the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let a = &*self.arrays;
        let slots = a.slot_peer.len();
        if a.slot_high.len() != slots || a.slot_alive.len() != slots {
            return Err(format!(
                "{slots} slot peers, {} bounds, {} liveness flags",
                a.slot_high.len(),
                a.slot_alive.len()
            ));
        }
        if let Some(at) = a.slot_high.windows(2).position(|h| h[0] > h[1]) {
            return Err(format!("slot_high decreases after slot {at}"));
        }
        check_offsets("item", &a.item_off, slots, a.item_key.len())?;
        check_offsets("link", &a.link_off, slots, a.link_target.len())?;
        check_offsets("replica", &a.repl_off, slots, a.repl_target.len())?;
        if a.link_kind.len() != a.link_target.len() {
            return Err(format!(
                "{} link kinds for {} link targets",
                a.link_kind.len(),
                a.link_target.len()
            ));
        }
        if a.item_cum.len() != a.item_key.len() + 1 || a.item_cum[0] != 0 {
            return Err(format!(
                "item_cum has {} entries from {:?} for {} keys",
                a.item_cum.len(),
                a.item_cum.first(),
                a.item_key.len()
            ));
        }
        if let Some(at) = a.item_cum.windows(2).position(|c| c[0] >= c[1]) {
            return Err(format!("item_cum does not increase at item {at}"));
        }
        for slot in 0..slots {
            let keys = &a.item_key[a.item_off[slot] as usize..a.item_off[slot + 1] as usize];
            if let Some(at) = keys.windows(2).position(|k| k[0] >= k[1]) {
                return Err(format!("slot {slot}: key {at} does not ascend"));
            }
            let links = self.links(slot).map(|(target, _)| target);
            let replicas = self.replicas(slot).iter().map(|&target| target as usize);
            for (what, target) in links
                .map(|t| ("link", t))
                .chain(replicas.map(|t| ("replica", t)))
            {
                if target >= slots || target == slot {
                    return Err(format!(
                        "slot {slot}: {what} target {target} of {slots} slots"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks that every item sits at the slot that owns it: on a
    /// partition the slot [`owner_of`](Self::owner_of) its key, on a ring —
    /// whose items are stored under their ring identifier, already hashed —
    /// the successor of that identifier.  The error names the first
    /// misplaced item.
    // `#[inline]`: emitted only where called, so it leaves this crate's
    // codegen-unit split, and so its hot paths' code, as it was.
    #[inline]
    pub fn check_ownership(&self) -> Result<(), String> {
        let a = &*self.arrays;
        for slot in 0..self.slots() {
            for &key in &a.item_key[a.item_off[slot] as usize..a.item_off[slot + 1] as usize] {
                let owner = match self.placement {
                    ExactPlacement::DomainPartition => self.owner_of(key),
                    // The successor of the identifier, wrapping to slot 0.
                    ExactPlacement::HashedRing => {
                        Some(a.slot_high.partition_point(|&h| h < key) % self.slots())
                    }
                };
                if owner != Some(slot) {
                    return Err(format!(
                        "slot {slot} stores {key}, which slot {owner:?} owns"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The slot owning `key`, per the snapshot's placement, or `None` for
    /// an out-of-domain key on a partition (the routed engines reject
    /// those), a key past the partition's last bound, or an empty snapshot.
    #[inline]
    pub fn owner_of(&self, key: u64) -> Option<usize> {
        let highs = &self.arrays.slot_high;
        if highs.is_empty() {
            return None;
        }
        match self.placement {
            ExactPlacement::DomainPartition => {
                if key < self.domain.0 || key >= self.domain.1 {
                    return None;
                }
                // First slot whose exclusive high exceeds the key; none when
                // the key lies past the last bound.
                let at = highs.partition_point(|&h| h <= key);
                (at < highs.len()).then_some(at)
            }
            ExactPlacement::HashedRing => {
                let id = ring_hash(key, self.domain.1.max(1));
                // Successor placement: first slot id >= hash, wrapping.
                let at = highs.partition_point(|&h| h < id);
                Some(if at == highs.len() { 0 } else { at })
            }
        }
    }

    /// Values stored under `key` at `slot` (the key is pre-mapped for ring
    /// placement).
    #[inline]
    fn count_at(&self, slot: usize, stored_key: u64) -> u64 {
        let lo = self.arrays.item_off[slot] as usize;
        let hi = self.arrays.item_off[slot + 1] as usize;
        let seg = &self.arrays.item_key[lo..hi];
        match seg.binary_search(&stored_key) {
            Ok(i) => self.arrays.item_cum[lo + i + 1] - self.arrays.item_cum[lo + i],
            Err(_) => 0,
        }
    }

    /// Values stored at `slot` with keys in `[low, high)`.
    #[inline]
    fn count_in(&self, slot: usize, low: u64, high: u64) -> u64 {
        let off = self.arrays.item_off[slot] as usize;
        let seg = &self.arrays.item_key[off..self.arrays.item_off[slot + 1] as usize];
        let a = off + seg.partition_point(|&k| k < low);
        let b = off + seg.partition_point(|&k| k < high);
        self.arrays.item_cum[b] - self.arrays.item_cum[a]
    }

    /// The slot greedy routing moves to from `current` on its way to `to`:
    /// the first-emitted of `current`'s link targets at the smallest
    /// placement distance to `to` — absolute on a partition, forward
    /// (clockwise) on a ring — when that beats `current`'s own distance,
    /// else `to` itself (the reader has the full partition, a luxury a real
    /// peer pays for with its own link walk).  Reads the link targets only,
    /// never their kinds.
    #[inline]
    pub fn next_hop(&self, current: usize, to: usize) -> usize {
        let links = &self.arrays.link_target
            [self.arrays.link_off[current] as usize..self.arrays.link_off[current + 1] as usize];
        let to = to as u32;
        match self.placement {
            ExactPlacement::DomainPartition => nearest(links, current, to, |t| t.abs_diff(to)),
            ExactPlacement::HashedRing => {
                let n = self.arrays.slot_peer.len() as u32;
                let forward = |t: u32| to.wrapping_sub(t).wrapping_add(if to < t { n } else { 0 });
                nearest(links, current, to, forward)
            }
        }
    }

    /// Greedy routing from `from` to `to`: the number of
    /// [`next_hop`](Self::next_hop) steps it takes.
    #[inline]
    fn route(&self, from: usize, to: usize) -> u32 {
        let mut current = from;
        let mut hops = 0u32;
        while current != to {
            current = self.next_hop(current, to);
            hops += 1;
        }
        hops
    }

    /// Resolves a dead owner to a live replica: `Ok` when the owner is
    /// alive, `Failover` when a replica answers, `Unavailable` otherwise.
    #[inline]
    fn liveness(&self, slot: usize) -> ServeStatus {
        if self.arrays.slot_alive[slot] {
            return ServeStatus::Ok;
        }
        let lo = self.arrays.repl_off[slot] as usize;
        let hi = self.arrays.repl_off[slot + 1] as usize;
        for i in lo..hi {
            if self.arrays.slot_alive[self.arrays.repl_target[i] as usize] {
                return ServeStatus::Failover;
            }
        }
        ServeStatus::Unavailable
    }

    /// Answers an exact-match query for `key` from the snapshot, starting
    /// the routing walk at `start_hint % slots`.  Matches are
    /// byte-identical to the routed engine's answer for the same overlay
    /// state; zero allocation.
    #[inline]
    pub fn exact(&self, key: u64, start_hint: u64, counters: &mut ServeCounters) -> ServeAnswer {
        let mut answer = ServeAnswer {
            matches: 0,
            hops: 0,
            slots: 0,
            status: ServeStatus::Ok,
        };
        let Some(owner) = self.owner_of(key) else {
            answer.status = if self.arrays.slot_peer.is_empty() {
                ServeStatus::Unavailable
            } else {
                ServeStatus::Rejected
            };
            counters.record(answer);
            return answer;
        };
        let start = (start_hint % self.arrays.slot_peer.len() as u64) as usize;
        answer.hops = self.route(start, owner);
        answer.status = self.liveness(owner);
        if answer.status == ServeStatus::Failover {
            // The replica holds a copy of the owner's slice; one extra hop
            // reaches it.
            answer.hops += 1;
        }
        if answer.status != ServeStatus::Unavailable {
            let stored = match self.placement {
                ExactPlacement::DomainPartition => key,
                ExactPlacement::HashedRing => ring_hash(key, self.domain.1.max(1)),
            };
            answer.matches = self.count_at(owner, stored);
        }
        counters.record(answer);
        answer
    }

    /// Answers a range query for `[low, high)` from the snapshot: clamp to
    /// the domain and the last slot's bound, route to the owner of the
    /// clamped low, then sweep right across the partition until the range
    /// is covered — the same owner-then-adjacent sweep all three
    /// range-capable engines execute, so matches byte-agree.  An empty
    /// clamp answers zero without routing.
    #[inline]
    pub fn range(
        &self,
        low: u64,
        high: u64,
        start_hint: u64,
        counters: &mut ServeCounters,
    ) -> ServeAnswer {
        let mut answer = ServeAnswer {
            matches: 0,
            hops: 0,
            slots: 0,
            status: ServeStatus::Ok,
        };
        if !self.range_supported() {
            answer.status = ServeStatus::Unsupported;
            counters.record(answer);
            return answer;
        }
        if self.arrays.slot_peer.is_empty() {
            answer.status = ServeStatus::Unavailable;
            counters.record(answer);
            return answer;
        }
        let lo = low.max(self.domain.0);
        let last = self.arrays.slot_high[self.arrays.slot_high.len() - 1];
        let hi = high.min(self.domain.1).min(last);
        if lo >= hi {
            counters.record(answer);
            return answer;
        }
        let owner = self.arrays.slot_high.partition_point(|&h| h <= lo);
        let start = (start_hint % self.arrays.slot_peer.len() as u64) as usize;
        answer.hops = self.route(start, owner);
        let mut slot = owner;
        loop {
            answer.slots += 1;
            match self.liveness(slot) {
                ServeStatus::Failover if answer.status == ServeStatus::Ok => {
                    answer.status = ServeStatus::Failover;
                }
                ServeStatus::Unavailable => answer.status = ServeStatus::Unavailable,
                _ => {}
            }
            answer.matches += self.count_in(slot, lo, hi);
            if self.arrays.slot_high[slot] >= hi {
                break;
            }
            slot += 1;
            answer.hops += 1;
        }
        counters.record(answer);
        answer
    }
}

/// [`RoutingSnapshot::validate`]'s check of the CSR offsets `off` into an
/// array of `len` entries.
fn check_offsets(what: &str, off: &[u32], slots: usize, len: usize) -> Result<(), String> {
    if off.len() != slots + 1 || off[0] != 0 || off[slots] as usize != len {
        return Err(format!(
            "{what} offsets: {} entries from {:?} to {:?} for {slots} slots and {len} entries",
            off.len(),
            off.first(),
            off.last()
        ));
    }
    match off.windows(2).position(|o| o[0] > o[1]) {
        Some(slot) => Err(format!("{what} offsets decrease at slot {slot}")),
        None => Ok(()),
    }
}

/// [`RoutingSnapshot::next_hop`] over one link segment, in one pass of
/// selects: the strict `<` keeps the first target among equally near ones,
/// and starting from `current`'s distance leaves `to` when none is nearer.
#[inline(always)]
fn nearest(links: &[u32], current: usize, to: u32, distance: impl Fn(u32) -> u32) -> usize {
    let mut best = distance(current as u32);
    let mut next = to;
    for &t in links {
        let d = distance(t);
        let better = d < best;
        best = if better { d } else { best };
        next = if better { t } else { next };
    }
    next as usize
}

/// Builds a [`RoutingSnapshot`] slot by slot, in time linear in slots +
/// items + links.
///
/// Extraction order matters: partition overlays must push slots in key
/// order, ring overlays in ascending identifier order.  Items fill the
/// slots in push order: they go to the first slot not yet sealed, sorted
/// within it, and [`seal_slot`](Self::seal_slot) closes that slot — so an
/// exporter may push every slot before the first item.  Links and replicas
/// follow their slot's push, in ascending slot order (a lower slot than the
/// last one emitted panics): they are appended straight to the CSR arrays,
/// and each slot keeps its entries in emission order, which is the order
/// greedy routing breaks ties in.
#[derive(Debug)]
pub struct SnapshotBuilder {
    placement: ExactPlacement,
    domain: (u64, u64),
    arrays: SnapshotArrays,
    /// Dense peer-id → slot table, built on the first lookup by peer; the
    /// first slot pushed for a peer wins.
    slot_by_peer: OnceCell<Vec<u32>>,
}

/// `slot_by_peer` entry of a peer without a slot.
const NO_SLOT: u32 = u32::MAX;

/// Records in the peer → slot table that `peer` has `slot`, unless an
/// earlier slot of the peer is already there.
fn note_slot(slot_by_peer: &mut Vec<u32>, peer: u32, slot: usize) {
    if slot_by_peer.len() <= peer as usize {
        slot_by_peer.resize(peer as usize + 1, NO_SLOT);
    }
    let entry = &mut slot_by_peer[peer as usize];
    if *entry == NO_SLOT {
        *entry = slot as u32;
    }
}

/// `len` entries as a CSR offset.
fn as_offset(len: usize, what: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("more than u32::MAX {what}"))
}

/// Makes `slot` the open segment of the CSR offsets `off`, whose last entry
/// is the start of the open segment: every segment between the open one and
/// `slot` closes empty at `len` entries.  `slot` must be one of the `pushed`
/// slots, and not below the open one.
fn open_segment(off: &mut Vec<u32>, slot: usize, pushed: usize, len: usize, what: &str) {
    assert!(
        off.len() <= slot + 1 && slot < pushed,
        "{what} must be emitted in ascending order of pushed slots"
    );
    off.resize(slot + 1, as_offset(len, what));
}

/// Makes room in `array` for `more` entries, and 1/32 more if it must grow,
/// so that refilling it for a slightly larger snapshot need not grow it.
pub fn make_room<T>(array: &mut Vec<T>, more: usize) {
    if array.capacity() - array.len() < more {
        array.reserve_exact(more + more / 32);
    }
}

/// [`SnapshotBuilder::copy_slots`] for one CSR array: opens segment `to`
/// of `off`, appends the offsets of the copied rows but the last, which
/// stays open, and appends their targets mapped through `new_slot`.
/// Returns the copied entries' index range in `from_targets`.
fn copy_csr_rows(
    off: &mut Vec<u32>,
    targets: &mut Vec<u32>,
    from_off: &[u32],
    from_targets: &[u32],
    rows: &Range<usize>,
    to: usize,
    new_slot: &[u32],
) -> Range<usize> {
    open_segment(off, to, to + rows.len(), targets.len(), "copied rows");
    let (lo, hi) = (from_off[rows.start], from_off[rows.end]);
    let shift = as_offset(targets.len(), "copied rows").wrapping_sub(lo);
    let offsets = &from_off[rows.start + 1..rows.end];
    off.extend(offsets.iter().map(|o| o.wrapping_add(shift)));
    let copied = lo as usize..hi as usize;
    let mapped = from_targets[copied.clone()].iter();
    targets.extend(mapped.map(|&t| new_slot[t as usize]));
    // The shifted offsets cannot have wrapped if the new end fits.
    as_offset(targets.len(), "copied rows");
    copied
}

impl SnapshotBuilder {
    /// Starts a snapshot with the given placement and domain.
    pub fn new(placement: ExactPlacement, domain: (u64, u64)) -> Self {
        Self::reusing(placement, domain, None)
    }

    /// [`new`](Self::new) in the arrays of `retired`, emptied with their
    /// capacity kept, or in fresh ones while another handle shares them.
    pub fn reusing(
        placement: ExactPlacement,
        domain: (u64, u64),
        retired: Option<RoutingSnapshot>,
    ) -> Self {
        let retired = retired.and_then(|snapshot| Arc::try_unwrap(snapshot.arrays).ok());
        let mut arrays = retired.unwrap_or_default();
        arrays.clear();
        Self {
            placement,
            domain,
            arrays,
            slot_by_peer: OnceCell::new(),
        }
    }

    /// Reserves the arrays for `slots` more slots, `items` more distinct
    /// keys (an overlay's stored-value count bounds them) and `links` more
    /// links, each through [`make_room`].
    pub fn reserve(&mut self, slots: usize, items: usize, links: usize) {
        let s = &mut self.arrays;
        make_room(&mut s.slot_peer, slots);
        make_room(&mut s.slot_high, slots);
        make_room(&mut s.slot_alive, slots);
        make_room(&mut s.item_off, slots);
        make_room(&mut s.item_key, items);
        make_room(&mut s.item_cum, items);
        make_room(&mut s.link_off, slots);
        make_room(&mut s.repl_off, slots);
        make_room(&mut s.link_target, links);
        make_room(&mut s.link_kind, links);
    }

    /// Appends a slot for `peer` whose range ends at (exclusive) `high` —
    /// or whose ring identifier is `high` under hashed placement.  Returns
    /// the slot index.  An empty slice repeats its predecessor's bound;
    /// [`RoutingSnapshot::owner_of`] never picks it.
    pub fn push_slot(&mut self, peer: u32, high: u64, alive: bool) -> usize {
        let ascending = self.arrays.slot_high.last().is_none_or(|&h| h <= high);
        assert!(ascending, "slots must be pushed in non-decreasing order");
        let slot = self.arrays.slot_peer.len();
        if let Some(slot_by_peer) = self.slot_by_peer.get_mut() {
            note_slot(slot_by_peer, peer, slot);
        }
        self.arrays.slot_peer.push(peer);
        self.arrays.slot_high.push(high);
        self.arrays.slot_alive.push(alive);
        slot
    }

    /// Appends one distinct stored key (with its value count) to the first
    /// unsealed slot.  Keys must arrive sorted per slot.
    #[inline]
    pub fn push_item(&mut self, key: u64, count: u64) {
        debug_assert!(!self.arrays.slot_peer.is_empty(), "push_slot first");
        debug_assert!(count > 0, "zero-count item");
        self.arrays.item_key.push(key);
        let total = self.arrays.item_cum.last().copied().unwrap_or(0);
        self.arrays.item_cum.push(total + count);
    }

    /// Appends the sorted key multiset of the first unsealed slot,
    /// run-length-encoded: one item per distinct key with its value count.
    /// A slice without a repeated key is copied whole, each key a count of
    /// one.
    pub fn push_keys(&mut self, keys: &[u64]) {
        if keys.windows(2).any(|pair| pair[0] == pair[1]) {
            for run in keys.chunk_by(|a, b| a == b) {
                self.push_item(run[0], run.len() as u64);
            }
            return;
        }
        let s = &mut self.arrays;
        let total = *s.item_cum.last().expect("item_cum starts at [0]");
        s.item_key.extend_from_slice(keys);
        s.item_cum.extend(total + 1..total + 1 + keys.len() as u64);
    }

    /// Seals the item segment of the first unsealed slot.  Must be called
    /// once per slot, after its items.
    pub fn seal_slot(&mut self) {
        let s = &mut self.arrays;
        s.item_off
            .push(as_offset(s.item_key.len(), "distinct keys"));
    }

    /// The slot index a peer landed at, for link/replica resolution.  The
    /// first call builds the peer → slot table from the slots pushed so
    /// far; later pushes keep it current.
    pub fn slot_of(&self, peer: u32) -> Option<usize> {
        let slot_by_peer = self.slot_by_peer.get_or_init(|| {
            let mut slot_by_peer = Vec::new();
            for (slot, &peer) in self.arrays.slot_peer.iter().enumerate() {
                note_slot(&mut slot_by_peer, peer, slot);
            }
            slot_by_peer
        });
        let slot = *slot_by_peer.get(peer as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// Appends the whole link row of `slot`: `targets[i]`, another slot,
    /// of class `kinds[i]`.  Closes the rows of the slots before it.
    #[inline]
    pub fn push_link_row(&mut self, slot: usize, targets: &[u32], kinds: &[LinkKind]) {
        assert_eq!(targets.len(), kinds.len(), "one kind per link target");
        let s = &mut self.arrays;
        if s.link_off.len() != slot + 1 {
            let (pushed, len) = (s.slot_peer.len(), s.link_target.len());
            open_segment(&mut s.link_off, slot, pushed, len, "links");
        }
        s.link_target.extend_from_slice(targets);
        s.link_kind.extend_from_slice(kinds);
    }

    /// Records a routing link from `slot` to `target` of class `kind`; a
    /// link to the slot itself is dropped.
    #[inline]
    pub fn link(&mut self, slot: usize, target: usize, kind: LinkKind) {
        if slot == target {
            self.push_link_row(slot, &[], &[]);
        } else {
            self.push_link_row(slot, &[target as u32], &[kind]);
        }
    }

    /// [`link`](Self::link) to the slot of `peer`, if it has one.
    pub fn link_peer(&mut self, slot: usize, peer: u32, kind: LinkKind) {
        if let Some(target) = self.slot_of(peer) {
            self.link(slot, target, kind);
        }
    }

    /// Appends `from`'s slots `slots` whole — peers, bounds, items, links
    /// and replicas — with each link and replica target `t` written as
    /// `new_slot[t]` and each slot's liveness read afresh as `alive(peer)`:
    /// one append per array for a run of slots an exporter finds unchanged
    /// since its previous snapshot.  Every slot pushed before must be
    /// sealed, and the run must not lower the slot bounds; item offsets and
    /// prefix sums move by one constant each.
    pub fn copy_slots(
        &mut self,
        from: &RoutingSnapshot,
        slots: Range<usize>,
        new_slot: &[u32],
        alive: impl Fn(u32) -> bool,
    ) {
        let (a, s) = (&*from.arrays, &mut self.arrays);
        let to = s.slot_peer.len();
        assert_eq!(s.item_off.len(), to + 1, "every slot must be sealed");
        if slots.is_empty() {
            return;
        }
        let ascending = s
            .slot_high
            .last()
            .is_none_or(|&h| h <= a.slot_high[slots.start]);
        assert!(ascending, "slots must be pushed in non-decreasing order");
        let peers = &a.slot_peer[slots.clone()];
        if let Some(slot_by_peer) = self.slot_by_peer.get_mut() {
            for (i, &peer) in peers.iter().enumerate() {
                note_slot(slot_by_peer, peer, to + i);
            }
        }
        s.slot_peer.extend_from_slice(peers);
        s.slot_high.extend_from_slice(&a.slot_high[slots.clone()]);
        s.slot_alive.extend(peers.iter().map(|&peer| alive(peer)));
        let (lo, hi) = (a.item_off[slots.start], a.item_off[slots.end]);
        let shift = as_offset(s.item_key.len(), "distinct keys").wrapping_sub(lo);
        let offsets = &a.item_off[slots.start + 1..=slots.end];
        s.item_off
            .extend(offsets.iter().map(|o| o.wrapping_add(shift)));
        let (lo, hi) = (lo as usize, hi as usize);
        s.item_key.extend_from_slice(&a.item_key[lo..hi]);
        as_offset(s.item_key.len(), "distinct keys");
        let base = s.item_cum[s.item_cum.len() - 1].wrapping_sub(a.item_cum[lo]);
        s.item_cum
            .extend(a.item_cum[lo + 1..=hi].iter().map(|c| c.wrapping_add(base)));
        let (off, targets) = (&mut s.link_off, &mut s.link_target);
        let copied = copy_csr_rows(
            off,
            targets,
            &a.link_off,
            &a.link_target,
            &slots,
            to,
            new_slot,
        );
        s.link_kind.extend_from_slice(&a.link_kind[copied]);
        let (off, targets) = (&mut s.repl_off, &mut s.repl_target);
        copy_csr_rows(
            off,
            targets,
            &a.repl_off,
            &a.repl_target,
            &slots,
            to,
            new_slot,
        );
    }

    /// Records that `target` holds a replica of `slot`'s slice.
    #[inline]
    pub fn replica(&mut self, slot: usize, target: usize) {
        let s = &mut self.arrays;
        if s.repl_off.len() != slot + 1 {
            let (pushed, len) = (s.slot_peer.len(), s.repl_target.len());
            open_segment(&mut s.repl_off, slot, pushed, len, "replicas");
        }
        if slot != target {
            s.repl_target.push(target as u32);
        }
    }

    /// [`replica`](Self::replica) at the slot of `peer`, if it has one.
    pub fn replica_peer(&mut self, slot: usize, peer: u32) {
        if let Some(target) = self.slot_of(peer) {
            self.replica(slot, target);
        }
    }

    /// Seals the link and replica segments of the slots after the last one
    /// emitted and returns the finished snapshot (version 0 until published
    /// through a [`SnapshotCell`]).  Debug builds
    /// [`validate`](RoutingSnapshot::validate) it.
    pub fn finish(self) -> RoutingSnapshot {
        let mut s = self.arrays;
        let slots = s.slot_peer.len();
        let sealed = s.item_off.len() == slots + 1;
        assert!(sealed, "every slot must be sealed exactly once");
        s.link_off
            .resize(slots + 1, as_offset(s.link_target.len(), "links"));
        s.repl_off
            .resize(slots + 1, as_offset(s.repl_target.len(), "replicas"));
        let snapshot = RoutingSnapshot {
            version: 0,
            placement: self.placement,
            domain: self.domain,
            arrays: Arc::new(s),
        };
        debug_assert_eq!(snapshot.validate(), Ok(()), "malformed snapshot");
        snapshot
    }
}

/// The swap point between structural writers and lock-free readers.
///
/// A writer that commits a structural change rebuilds the snapshot and
/// [`publish`](SnapshotCell::publish)es it; the cell stamps it with the
/// next version and swaps the shared `Arc` under a mutex that only writers
/// and *refreshing* readers ever touch.  Steady-state readers poll the
/// version with one atomic acquire-load per batch and skip the mutex
/// entirely while it is unchanged — the lock-free fast path batched
/// admission amortizes.
#[derive(Debug)]
pub struct SnapshotCell {
    version: AtomicU64,
    current: Mutex<Arc<RoutingSnapshot>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `snapshot` as version 1.
    pub fn new(mut snapshot: RoutingSnapshot) -> Self {
        snapshot.version = 1;
        Self {
            version: AtomicU64::new(1),
            current: Mutex::new(Arc::new(snapshot)),
        }
    }

    /// The currently published version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Publishes a new snapshot, stamping it with the next version, and
    /// returns that version.  In-flight readers finish their batch on their
    /// old `Arc` and see the new version at their next refresh.  With BATON,
    /// its exporter, not the cell, frees (refills) the replaced arrays.
    pub fn publish(&self, mut snapshot: RoutingSnapshot) -> u64 {
        let mut current = self.current.lock().expect("snapshot cell poisoned");
        let next = self.version.load(Ordering::Relaxed) + 1;
        snapshot.version = next;
        let replaced = std::mem::replace(&mut *current, Arc::new(snapshot));
        // Published only after the Arc swap, so a reader that observes the
        // new version and then locks is guaranteed to see the new Arc.
        self.version.store(next, Ordering::Release);
        drop(current);
        // Dropped after unlocking, so refreshing readers never wait on it.
        drop(replaced);
        next
    }

    /// Clones the current snapshot handle (locks; readers should prefer a
    /// [`SnapshotReader`]).
    pub fn load(&self) -> Arc<RoutingSnapshot> {
        self.current.lock().expect("snapshot cell poisoned").clone()
    }
}

/// A per-worker view of a [`SnapshotCell`]: caches the `Arc` and refreshes
/// it only when the published version moves, so steady-state reads touch no
/// lock and perform no allocation.
#[derive(Debug)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    cached: Arc<RoutingSnapshot>,
    seen: u64,
    /// Number of refreshes that actually swapped the cached snapshot.
    pub refreshes: u64,
}

impl SnapshotReader {
    /// Attaches a reader to `cell`.
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        let cached = cell.load();
        let seen = cached.version();
        Self {
            cell,
            cached,
            seen,
            refreshes: 0,
        }
    }

    /// Refreshes the cached snapshot if a newer version was published.
    /// Call once per batch: one atomic load when nothing changed.
    #[inline]
    pub fn refresh(&mut self) {
        let published = self.cell.version.load(Ordering::Acquire);
        if published != self.seen {
            let current = self.cell.current.lock().expect("snapshot cell poisoned");
            let replaced = std::mem::replace(&mut self.cached, current.clone());
            drop(current);
            // The stale snapshot may be this reader's to free: not under
            // the lock.
            drop(replaced);
            self.seen = self.cached.version();
            self.refreshes += 1;
        }
    }

    /// The snapshot this reader currently answers from.
    #[inline]
    pub fn snapshot(&self) -> &RoutingSnapshot {
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four slots over [0, 100): ranges [0,25) [25,50) [50,75) [75,100),
    /// a chain of adjacent links, one item per slot.
    fn toy() -> RoutingSnapshot {
        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        for (i, high) in [25u64, 50, 75, 100].into_iter().enumerate() {
            b.push_slot(i as u32, high, true);
            b.push_item(i as u64 * 25 + 10, (i + 1) as u64);
            b.seal_slot();
        }
        for i in 0..4usize {
            if i > 0 {
                b.link(i, i - 1, LinkKind::Adjacent);
            }
            if i < 3 {
                b.link(i, i + 1, LinkKind::Adjacent);
            }
        }
        b.finish()
    }

    #[test]
    fn exact_resolves_owner_and_counts() {
        let snap = toy();
        let mut c = ServeCounters::default();
        assert_eq!(snap.owner_of(0), Some(0));
        assert_eq!(snap.owner_of(24), Some(0));
        assert_eq!(snap.owner_of(25), Some(1));
        assert_eq!(snap.owner_of(99), Some(3));
        assert_eq!(snap.owner_of(100), None);
        let hit = snap.exact(60, 0, &mut c);
        assert_eq!((hit.matches, hit.status), (3, ServeStatus::Ok));
        assert_eq!(hit.hops, 2, "adjacent chain from slot 0 to slot 2");
        let miss = snap.exact(61, 0, &mut c);
        assert_eq!(miss.matches, 0);
        let rejected = snap.exact(100, 0, &mut c);
        assert_eq!(rejected.status, ServeStatus::Rejected);
        assert_eq!(c.queries, 3);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.hops, 4);
    }

    #[test]
    fn range_sweeps_and_clamps() {
        let snap = toy();
        let mut c = ServeCounters::default();
        // Covers items 10 (1), 35 (2), 60 (3).
        let a = snap.range(5, 70, 0, &mut c);
        assert_eq!((a.matches, a.slots), (6, 3));
        // Out-of-domain clamp is empty: zero everything.
        let empty = snap.range(200, 300, 0, &mut c);
        assert_eq!((empty.matches, empty.slots, empty.hops), (0, 0, 0));
        // Whole domain.
        let all = snap.range(0, 100, 3, &mut c);
        assert_eq!((all.matches, all.slots), (10, 4));
    }

    #[test]
    fn keys_past_the_last_bound_are_rejected_not_owned() {
        // The partition ends at 90 below the domain's high of 100.
        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        for (slot, high) in [50u64, 90].into_iter().enumerate() {
            b.push_slot(slot as u32, high, true);
            b.push_item(high - 5, 1);
            b.seal_slot();
        }
        b.link(0, 1, LinkKind::Adjacent);
        let snap = b.finish();
        let mut c = ServeCounters::default();
        assert_eq!(snap.owner_of(89), Some(1));
        assert_eq!(snap.owner_of(95), None);
        assert_eq!(snap.exact(95, 0, &mut c).status, ServeStatus::Rejected);
        let clamped = snap.range(60, 100, 0, &mut c);
        assert_eq!((clamped.matches, clamped.slots, clamped.hops), (1, 1, 1));
        let past = snap.range(92, 99, 0, &mut c);
        assert_eq!((past.matches, past.slots, past.hops), (0, 0, 0));
    }

    #[test]
    fn check_ownership_names_the_first_misplaced_item() {
        assert_eq!(toy().check_ownership(), Ok(()));
        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        b.push_slot(0, 50, true);
        b.push_item(60, 1);
        b.seal_slot();
        b.push_slot(1, 100, true);
        b.seal_slot();
        let error = b.finish().check_ownership().unwrap_err();
        assert_eq!(error, "slot 0 stores 60, which slot Some(1) owns");
        // Ring items are identifiers: 2,000 belongs to the slot at 3e9 and
        // 3,500,000,000 wraps around to the slot at 1,000.
        let mut b = SnapshotBuilder::new(ExactPlacement::HashedRing, (0, 1 << 32));
        b.push_slot(7, 1_000, true);
        b.push_item(3_500_000_000, 1);
        b.seal_slot();
        b.push_slot(9, 3_000_000_000, true);
        b.push_item(2_000, 1);
        b.seal_slot();
        assert_eq!(b.finish().check_ownership(), Ok(()));
    }

    #[test]
    fn ring_placement_wraps_to_successor() {
        let mut b = SnapshotBuilder::new(ExactPlacement::HashedRing, (0, 1 << 32));
        b.push_slot(7, 1_000, true);
        b.seal_slot();
        b.push_slot(9, 3_000_000_000, true);
        b.seal_slot();
        let snap = b.finish();
        let mut c = ServeCounters::default();
        assert_eq!(
            snap.range(1, 10, 0, &mut c).status,
            ServeStatus::Unsupported
        );
        // Every key owns *some* slot; ids above the top wrap to slot 0.
        for key in 0..50u64 {
            let owner = snap.owner_of(key).unwrap();
            let id = ring_hash(key, 1 << 32);
            let expect = if id <= 1_000 || id > 3_000_000_000 {
                0
            } else {
                1
            };
            assert_eq!(owner, expect, "key {key} id {id}");
        }
    }

    #[test]
    fn dead_owner_fails_over_then_unavailable() {
        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        b.push_slot(0, 50, false);
        b.push_item(10, 4);
        b.seal_slot();
        b.push_slot(1, 100, true);
        b.seal_slot();
        b.replica(0, 1);
        let snap = b.finish();
        let mut c = ServeCounters::default();
        let a = snap.exact(10, 1, &mut c);
        assert_eq!((a.status, a.matches), (ServeStatus::Failover, 4));

        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        b.push_slot(0, 50, false);
        b.push_item(10, 4);
        b.seal_slot();
        b.push_slot(1, 100, true);
        b.seal_slot();
        let snap = b.finish();
        let a = snap.exact(10, 1, &mut c);
        assert_eq!((a.status, a.matches), (ServeStatus::Unavailable, 0));
        assert_eq!(c.failover, 1);
        assert_eq!(c.unavailable, 1);
    }

    #[test]
    fn cell_publishes_versions_and_readers_refresh_lazily() {
        let cell = Arc::new(SnapshotCell::new(toy()));
        let mut reader = SnapshotReader::new(cell.clone());
        assert_eq!(reader.snapshot().version(), 1);
        reader.refresh();
        assert_eq!(reader.refreshes, 0, "no publish, no refresh");

        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        b.push_slot(0, 100, true);
        b.push_item(42, 9);
        b.seal_slot();
        assert_eq!(cell.publish(b.finish()), 2);

        // The stale reader still answers from version 1 (never mixes).
        let mut c = ServeCounters::default();
        assert_eq!(reader.snapshot().version(), 1);
        assert_eq!(reader.snapshot().exact(60, 0, &mut c).matches, 3);
        reader.refresh();
        assert_eq!(reader.snapshot().version(), 2);
        assert_eq!(reader.snapshot().exact(42, 0, &mut c).matches, 9);
        assert_eq!(reader.refreshes, 1);
    }

    #[test]
    fn copied_slots_equal_the_same_slots_pushed_one_by_one() {
        let toy = toy();
        // The toy with a slot for peer 9 over [50, 60) spliced in before its
        // slot 2, and with peer 3 dead.  Copying keeps the toy's slots 0 and
        // 3, with targets past the splice moved up one; the new slot and
        // its neighbours are pushed.
        let slots = [
            (0u32, 25u64, 10u64, 1u64),
            (1, 50, 35, 2),
            (9, 60, 55, 7),
            (2, 75, 60, 3),
            (3, 100, 85, 4),
        ];
        let build = |copy: bool| {
            let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
            for (slot, &(peer, high, key, count)) in slots.iter().enumerate() {
                if copy && (slot == 0 || slot == 4) {
                    let from = if slot == 0 { 0..1 } else { 3..4 };
                    b.copy_slots(&toy, from, &[0, 1, 3, 4], |peer| peer != 3);
                    continue;
                }
                b.push_slot(peer, high, peer != 3);
                b.push_item(key, count);
                b.seal_slot();
                if slot > 0 {
                    b.link(slot, slot - 1, LinkKind::Adjacent);
                }
                if slot < 4 {
                    b.link(slot, slot + 1, LinkKind::Adjacent);
                }
            }
            b.finish()
        };
        let copied = build(true);
        assert_eq!(copied, build(false));
        assert!(!copied.alive(4));
        assert_eq!(copied.total_items(), toy.total_items() + 7);
    }

    #[test]
    fn peer_lookups_keep_the_first_slot_across_later_pushes() {
        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        b.push_slot(3, 25, true);
        assert_eq!(b.slot_of(3), Some(0), "the first lookup builds the table");
        for (peer, high) in [(9u32, 50u64), (3, 75), (1, 100)] {
            b.push_slot(peer, high, true);
        }
        assert_eq!(b.slot_of(9), Some(1));
        assert_eq!(b.slot_of(3), Some(0));
        assert_eq!(b.slot_of(1), Some(3));
        assert_eq!(b.slot_of(2), None);
    }

    #[test]
    fn push_keys_copies_distinct_keys_and_counts_repeats() {
        let mut b = SnapshotBuilder::new(ExactPlacement::DomainPartition, (0, 100));
        for (slot, keys) in [&[1u64, 4, 9][..], &[20, 20, 21, 30, 30, 30], &[]]
            .into_iter()
            .enumerate()
        {
            b.push_slot(slot as u32, 40 * (slot as u64 + 1), true);
            b.push_keys(keys);
            b.seal_slot();
        }
        let snap = b.finish();
        assert_eq!(snap.arrays.item_key, [1, 4, 9, 20, 21, 30]);
        assert_eq!(snap.arrays.item_cum, [0, 1, 2, 3, 5, 6, 9]);
        assert_eq!(snap.arrays.item_off, [0, 3, 6, 6]);
    }

    #[test]
    fn validate_names_the_first_malformed_array() {
        let good = toy();
        assert_eq!(good.validate(), Ok(()));
        let broken = |edit: fn(&mut SnapshotArrays)| {
            let mut snap = good.clone();
            edit(Arc::make_mut(&mut snap.arrays));
            snap.validate().unwrap_err()
        };
        let error = broken(|s| s.link_off[4] += 1);
        assert!(error.starts_with("link offsets"), "{error}");
        let error = broken(|s| s.item_off.swap(1, 2));
        assert!(error.starts_with("item offsets decrease"), "{error}");
        let error = broken(|s| s.link_target[0] = 0);
        assert!(error.contains("link target 0"), "{error}");
        let error = broken(|s| s.link_target[0] = 4);
        assert!(error.contains("link target 4 of 4"), "{error}");
        let error = broken(|s| s.repl_off = vec![0, 1, 1, 1, 1]);
        assert!(error.starts_with("replica offsets"), "{error}");
        let error = broken(|s| {
            s.repl_off = vec![0, 1, 1, 1, 1];
            s.repl_target.push(0);
        });
        assert!(error.contains("replica target 0"), "{error}");
        let error = broken(|s| s.slot_high[1] = 10);
        assert!(error.starts_with("slot_high decreases"), "{error}");
        let error = broken(|s| s.item_cum[2] = s.item_cum[1]);
        assert!(error.starts_with("item_cum does not increase"), "{error}");
        let error = broken(|s| {
            s.item_key[1] = 5;
            s.item_off = vec![0, 2, 2, 3, 4];
        });
        assert!(error.contains("slot 0: key 0 does not ascend"), "{error}");
    }

    #[test]
    fn counters_merge_is_order_independent() {
        let snap = toy();
        let mut serial = ServeCounters::default();
        for key in 0..100 {
            snap.exact(key, key, &mut serial);
        }
        let (mut even, mut odd) = (ServeCounters::default(), ServeCounters::default());
        for key in 0..100 {
            let c = if key % 2 == 0 { &mut even } else { &mut odd };
            snap.exact(key, key, c);
        }
        let mut merged = ServeCounters::default();
        merged.merge(&odd);
        merged.merge(&even);
        assert_eq!(merged, serial);
    }
}
