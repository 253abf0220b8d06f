//! The D3-Tree overlay simulation (Sourla, Sioutas, Tsichlas, Zaroliagis,
//! *"D3-Tree: a dynamic distributed deterministic load-balancer"*, 2015) —
//! the tree-structured baseline from the BATON lineage with deterministic,
//! weight-based balancing.
//!
//! Structure, as modelled here:
//!
//! * a **perfect binary backbone** of height `h` whose `2^h` leaves each
//!   hold a **bucket** of peers; buckets (and the peers inside them) are in
//!   key order, so the global peer sequence partitions the key domain and
//!   doubles as the horizontal adjacency list range sweeps walk;
//! * every backbone node is hosted by a peer (the head of the leftmost
//!   bucket of its subtree) and carries **weight counters** — peers and
//!   stored items per subtree — maintained along the leaf-to-root path of
//!   every update;
//! * **deterministic balancing**: joins descend from the root towards the
//!   lighter child; when a counter pair drifts past a fixed tolerance the
//!   highest unbalanced subtree redistributes its peers (bucket membership)
//!   or its items (per-peer key slices) evenly — no randomness, no sampling;
//! * **contraction / extension**: when the average bucket strays outside
//!   `Θ(log N)` the backbone grows or shrinks one level and the peer
//!   sequence is re-chunked evenly over the new leaves;
//! * exact-match routing climbs from the issuer's leaf to the lowest common
//!   ancestor and descends to the target leaf (`O(log N)` messages plus an
//!   `O(log N)` walk inside the bucket); range queries continue along peer
//!   adjacency for `O(log N + X)` total;
//! * departures and failures repair **bucket-locally**: an in-order
//!   neighbour absorbs the vacated key slice (and, for graceful leaves, the
//!   data), an emptied bucket steals a peer from its backbone sibling, and
//!   only when that fails does the backbone contract.

use baton_net::{
    ChurnCost, LinkKind, OpCost, OpScope, Overlay, OverlayCapabilities, OverlayError,
    OverlayResult, PeerDirectory, PeerId, SimNetwork, SimRng,
};

use crate::node::{Bucket, BucketPeer};
use crate::range::DRange;

/// Sibling peer-count tolerance: redistribute a subtree's peers when
/// `max > PEER_RATIO * min + PEER_SLACK`.
const PEER_RATIO: u64 = 2;
/// Absolute slack of the peer-count tolerance.
const PEER_SLACK: u64 = 2;
/// Sibling item-count tolerance: redistribute a subtree's items when
/// `max > ITEM_RATIO * min + ITEM_SLACK`.
const ITEM_RATIO: u64 = 4;
/// Absolute slack of the item-count tolerance.
const ITEM_SLACK: u64 = 32;

/// The error of an operation naming a peer that is not in the overlay.
fn unknown_peer(peer: PeerId) -> OverlayError {
    OverlayError::Op(format!("unknown peer {peer}"))
}

/// The error of an operation that needs a peer of an empty overlay.
fn empty() -> OverlayError {
    OverlayError::Op("the overlay is empty".into())
}

/// The D3-Tree overlay.
#[derive(Debug)]
pub struct D3TreeSystem {
    net: SimNetwork,
    rng: SimRng,
    domain: DRange,
    /// Backbone height; the backbone has `1 << height` leaf buckets.
    height: u32,
    /// Leaf buckets in key order (`len == 1 << height`).
    buckets: Vec<Bucket>,
    /// Every live peer → index of its bucket, and the sorted list sampling
    /// draws from.
    bucket_of: PeerDirectory<usize>,
    /// `peer_weights[level][node]`: live peers in the subtree; level 0 is
    /// the root, level `height` the leaves.
    peer_weights: Vec<Vec<u64>>,
    /// `item_weights[level][node]`: stored items in the subtree.
    item_weights: Vec<Vec<u64>>,
    /// Replication degree k: each key lives at its routed owner plus up to
    /// k−1 siblings of the same leaf bucket.  1 = no replication (the
    /// default and the byte-identical legacy configuration).
    replication: usize,
}

impl D3TreeSystem {
    /// Creates an empty overlay over the paper's `[1, 10^9)` domain.
    pub fn new(seed: u64) -> Self {
        Self::with_domain(seed, DRange::new(1, 1_000_000_000))
    }

    /// Creates an empty overlay over an explicit domain.
    pub fn with_domain(seed: u64, domain: DRange) -> Self {
        Self {
            net: SimNetwork::new(),
            rng: SimRng::seeded(seed),
            domain,
            height: 0,
            buckets: vec![Bucket::default()],
            bucket_of: PeerDirectory::new(),
            peer_weights: vec![vec![0]],
            item_weights: vec![vec![0]],
            replication: 1,
        }
    }

    /// Builds an overlay of `n` nodes.
    pub fn build(seed: u64, n: usize) -> OverlayResult<Self> {
        let mut system = Self::new(seed);
        for _ in 0..n {
            system.join_random()?;
        }
        Ok(system)
    }

    /// Backbone height (`0` for a single bucket).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The leaf buckets in key order (empty ones included).
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    fn random_peer(&mut self) -> Option<PeerId> {
        self.bucket_of.sample(&mut self.rng)
    }

    /// The peer hosting backbone node `(level, index)`: the head of the
    /// leftmost bucket of that subtree.
    fn host(&self, level: u32, index: usize) -> PeerId {
        self.buckets[index << (self.height - level)].head()
    }

    /// Index of the leaf bucket whose span contains `key`.
    fn leaf_of_key(&self, key: u64) -> usize {
        self.buckets.partition_point(|b| b.low() <= key) - 1
    }

    /// One routed hop, charged as one `d3.search` transmission.  Hops
    /// between two backbone roles hosted by the *same* peer are free (no
    /// message).
    fn hop(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        hop_no: &mut u32,
        kind: LinkKind,
    ) -> u64 {
        if from == to {
            return 0;
        }
        *hop_no += 1;
        self.net
            .transmit(op, from, to, *hop_no, kind, "d3.search")
            .ok();
        1
    }

    /// Routes from `issuer` to the peer owning `key`: issuer → leaf host →
    /// lowest common ancestor → target leaf host → in-bucket walk.
    ///
    /// Returns `(bucket, position, messages)`.
    fn route_to_owner(
        &mut self,
        op: OpScope,
        issuer: PeerId,
        key: u64,
    ) -> OverlayResult<(usize, usize, u64)> {
        let start = *self
            .bucket_of
            .get(issuer)
            .ok_or_else(|| unknown_peer(issuer))?;
        let target = self.leaf_of_key(key);
        let mut messages = 0u64;
        let mut hop_no = 0u32;
        let mut current = issuer;

        let start_head = self.buckets[start].head();
        messages += self.hop(op, current, start_head, &mut hop_no, LinkKind::Bucket);
        current = start_head;

        if start != target {
            let diff = (start ^ target) as u64;
            // Highest differing bit: the LCA sits that many levels up.
            let top = 63 - diff.leading_zeros();
            for k in 1..=top + 1 {
                let next = self.host(self.height - k, start >> k);
                messages += self.hop(op, current, next, &mut hop_no, LinkKind::Backbone);
                current = next;
            }
            for k in (0..=top).rev() {
                let next = self.host(self.height - k, target >> k);
                messages += self.hop(op, current, next, &mut hop_no, LinkKind::Backbone);
                current = next;
            }
        }

        let position = self.buckets[target]
            .position_of_key(key)
            .expect("buckets partition the domain");
        for p in 1..=position {
            let from = self.buckets[target].peers[p - 1].peer;
            let to = self.buckets[target].peers[p].peer;
            messages += self.hop(op, from, to, &mut hop_no, LinkKind::Bucket);
        }
        Ok((target, position, messages))
    }

    /// Adds `delta` to the peer-weight counters along `leaf`'s path.
    fn shift_peer_weights(&mut self, leaf: usize, delta: i64) {
        for level in 0..=self.height {
            let node = leaf >> (self.height - level);
            let w = &mut self.peer_weights[level as usize][node];
            *w = w.checked_add_signed(delta).expect("weight underflow");
        }
    }

    /// Adds `delta` to the item-weight counters along `leaf`'s path.
    fn shift_item_weights(&mut self, leaf: usize, delta: i64) {
        for level in 0..=self.height {
            let node = leaf >> (self.height - level);
            let w = &mut self.item_weights[level as usize][node];
            *w = w.checked_add_signed(delta).expect("weight underflow");
        }
    }

    /// Counts the weight-counter notifications along `leaf`'s path to the
    /// root (one maintenance message per distinct host pair).
    fn count_path_update(&mut self, op: OpScope, leaf: usize) -> u64 {
        let mut messages = 0u64;
        let mut from = self.buckets[leaf].head();
        for k in 1..=self.height {
            let to = self.host(self.height - k, leaf >> k);
            if from != to {
                self.net.count_message(op, "d3.maintenance", from, to);
                messages += 1;
                from = to;
            }
        }
        messages
    }

    /// Recomputes every weight counter from the buckets.
    fn rebuild_weights(&mut self) {
        let levels = self.height as usize + 1;
        self.peer_weights = vec![Vec::new(); levels];
        self.item_weights = vec![Vec::new(); levels];
        self.peer_weights[levels - 1] = self.buckets.iter().map(|b| b.len() as u64).collect();
        self.item_weights[levels - 1] = self.buckets.iter().map(|b| b.item_count()).collect();
        for level in (0..levels - 1).rev() {
            let (peers, items): (Vec<u64>, Vec<u64>) = (0..1usize << level)
                .map(|j| {
                    (
                        self.peer_weights[level + 1][2 * j]
                            + self.peer_weights[level + 1][2 * j + 1],
                        self.item_weights[level + 1][2 * j]
                            + self.item_weights[level + 1][2 * j + 1],
                    )
                })
                .unzip();
            self.peer_weights[level] = peers;
            self.item_weights[level] = items;
        }
    }

    /// `true` when `(max, min)` child weights violate the given tolerance.
    fn unbalanced(left: u64, right: u64, ratio: u64, slack: u64) -> bool {
        left.max(right) > ratio * left.min(right) + slack
    }

    /// Walks `leaf`'s path from the root down; at the highest node whose
    /// children's **peer** counters violate the tolerance, redistributes the
    /// subtree's peers evenly over its buckets.  Returns the messages spent.
    fn rebalance_peers_on_path(&mut self, op: OpScope, leaf: usize) -> u64 {
        for level in 0..self.height {
            let node = leaf >> (self.height - level);
            let left = self.peer_weights[level as usize + 1][2 * node];
            let right = self.peer_weights[level as usize + 1][2 * node + 1];
            if Self::unbalanced(left, right, PEER_RATIO, PEER_SLACK) {
                return self.redistribute_peers(op, level, node);
            }
        }
        0
    }

    /// Walks `leaf`'s path from the root down; at the highest node whose
    /// children's **item** counters violate the tolerance, redistributes the
    /// subtree's items evenly over its peers.  Returns the messages spent.
    fn rebalance_items_on_path(&mut self, op: OpScope, leaf: usize) -> u64 {
        for level in 0..self.height {
            let node = leaf >> (self.height - level);
            let left = self.item_weights[level as usize + 1][2 * node];
            let right = self.item_weights[level as usize + 1][2 * node + 1];
            if Self::unbalanced(left, right, ITEM_RATIO, ITEM_SLACK) {
                return self.redistribute_items(op, level, node);
            }
        }
        0
    }

    /// Evenly re-chunks the peer sequence of subtree `(level, node)` over
    /// its buckets (peers keep their key slices; only bucket membership —
    /// and therefore backbone leaf boundaries — moves).
    fn redistribute_peers(&mut self, op: OpScope, level: u32, node: usize) -> u64 {
        let first = node << (self.height - level);
        let last = (node + 1) << (self.height - level);
        let bucket_count = last - first;
        let old_sizes: Vec<usize> = self.buckets[first..last].iter().map(Bucket::len).collect();
        let mut sequence: Vec<BucketPeer> = Vec::new();
        for bucket in &mut self.buckets[first..last] {
            sequence.append(&mut bucket.peers);
        }
        let total = sequence.len();
        debug_assert!(total >= bucket_count, "buckets are never empty");
        let base = total / bucket_count;
        let extra = total % bucket_count;

        // A peer moves one bucket per boundary it crosses; each crossing is
        // one message over the horizontal adjacency.
        let mut messages = 0u64;
        let mut old_cut = 0usize;
        let mut new_cut = 0usize;
        for (i, old_size) in old_sizes.iter().enumerate().take(bucket_count - 1) {
            old_cut += old_size;
            new_cut += base + usize::from(i < extra);
            messages += old_cut.abs_diff(new_cut) as u64;
        }

        let mut taken = sequence.into_iter();
        for i in 0..bucket_count {
            let take = base + usize::from(i < extra);
            let peers: Vec<BucketPeer> = taken.by_ref().take(take).collect();
            for p in &peers {
                let previous = self.bucket_of.insert(p.peer, first + i);
                if previous != Some(first + i) {
                    let head = peers[0].peer;
                    if head != p.peer {
                        self.net.count_message(op, "d3.balance", head, p.peer);
                    }
                }
            }
            self.buckets[first + i].peers = peers;
        }
        self.rebuild_weights();
        messages
    }

    /// Evenly re-splits the items of subtree `(level, node)` over its peers:
    /// new slice boundaries are drawn from the subtree's sorted key sequence
    /// and every peer keeps a contiguous slice, so the global partition
    /// stays intact.  Records per-boundary shift sizes in the histogram.
    fn redistribute_items(&mut self, op: OpScope, level: u32, node: usize) -> u64 {
        let first = node << (self.height - level);
        let last = (node + 1) << (self.height - level);
        let span_low = self.buckets[first].low();
        let span_high = self.buckets[last - 1].high();

        // Flatten: the subtree's peers in order, and their concatenated
        // (already sorted) keys.
        let mut owners: Vec<(usize, usize)> = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut old_cuts: Vec<usize> = Vec::new();
        for b in first..last {
            for p in 0..self.buckets[b].len() {
                owners.push((b, p));
                keys.extend_from_slice(&self.buckets[b].peers[p].keys);
                old_cuts.push(keys.len());
            }
        }
        let peer_count = owners.len();
        let total = keys.len();
        if peer_count < 2 {
            return 0;
        }

        // New boundaries: the key at each even cut, nudged forward past
        // duplicate runs so boundaries stay increasing.  A duplicate pile-up
        // at the top of the span saturates the floor at `span_high`, leaving
        // the remaining peers with empty (but still contiguous) slices
        // instead of stepping past the span.
        let mut bounds = Vec::with_capacity(peer_count + 1);
        bounds.push(span_low);
        for i in 1..peer_count {
            let ideal = keys
                .get(i * total / peer_count)
                .copied()
                .unwrap_or(span_high);
            let previous = *bounds.last().expect("non-empty");
            let floor = (previous + 1).min(span_high);
            bounds.push(ideal.clamp(floor, span_high));
        }
        bounds.push(span_high);

        // Items crossing each peer boundary: |old cumulative − new
        // cumulative|; every crossing is one transfer hop between the
        // boundary's peers.
        let mut messages = 0u64;
        for i in 1..peer_count {
            let new_cut = keys.partition_point(|k| *k < bounds[i]);
            let moved = old_cuts[i - 1].abs_diff(new_cut) as u64;
            if moved > 0 {
                messages += moved;
                let from = self.buckets[owners[i - 1].0].peers[owners[i - 1].1].peer;
                let to = self.buckets[owners[i].0].peers[owners[i].1].peer;
                self.net.count_message(op, "d3.balance", from, to);
            }
        }

        // Reassign slices and ranges.
        for (i, (b, p)) in owners.iter().enumerate() {
            let lo = keys.partition_point(|k| *k < bounds[i]);
            let hi = keys.partition_point(|k| *k < bounds[i + 1]);
            let peer = &mut self.buckets[*b].peers[*p];
            peer.range = DRange::new(bounds[i], bounds[i + 1]);
            peer.keys = keys[lo..hi].to_vec();
        }
        self.rebuild_weights();
        messages
    }

    /// Grows or shrinks the backbone one level when the average bucket size
    /// leaves the `Θ(log N)` band, re-chunking the peer sequence evenly.
    fn maybe_resize(&mut self, op: OpScope) -> u64 {
        let peers = self.node_count() as u64;
        let leaves = self.buckets.len() as u64;
        let target = self.height as u64 + 2;
        if peers > leaves * 2 * target {
            self.reshape(op, self.height + 1)
        } else if self.height > 0 && peers < leaves * target / 2 {
            self.reshape(op, self.height - 1)
        } else {
            0
        }
    }

    /// Rebuilds the backbone at `new_height`, distributing the global peer
    /// sequence evenly over the new leaves.  Handles emptied buckets (the
    /// contraction path of a departure) because it only reads the sequence.
    fn reshape(&mut self, op: OpScope, new_height: u32) -> u64 {
        let leaves = 1usize << new_height;
        let mut sequence: Vec<BucketPeer> = Vec::new();
        for bucket in &mut self.buckets {
            sequence.append(&mut bucket.peers);
        }
        let total = sequence.len();
        debug_assert!(total >= leaves, "not enough peers for {leaves} buckets");
        let base = total / leaves;
        let extra = total % leaves;

        self.height = new_height;
        self.buckets = vec![Bucket::default(); leaves];
        let mut messages = 0u64;
        let mut taken = sequence.into_iter();
        for i in 0..leaves {
            let take = base + usize::from(i < extra);
            let peers: Vec<BucketPeer> = taken.by_ref().take(take).collect();
            for p in &peers {
                let previous = self.bucket_of.insert(p.peer, i);
                if previous != Some(i) {
                    messages += 1;
                    let head = peers[0].peer;
                    if head != p.peer {
                        self.net.count_message(op, "d3.maintenance", head, p.peer);
                    }
                }
            }
            self.buckets[i].peers = peers;
        }
        self.rebuild_weights();
        messages
    }

    /// Removes `peer` from its bucket, returning the removed state and its
    /// bucket index; the caller decides what happens to keys and range.
    fn detach(&mut self, peer: PeerId) -> OverlayResult<(usize, BucketPeer)> {
        let bucket = *self.bucket_of.get(peer).ok_or_else(|| unknown_peer(peer))?;
        let position = self.buckets[bucket]
            .position_of_peer(peer)
            .ok_or_else(|| unknown_peer(peer))?;
        let departing = self.buckets[bucket].peers.remove(position);
        self.bucket_of.remove(peer);
        Ok((bucket, departing))
    }

    /// The in-order heir of a slice vacated in `bucket`: the globally
    /// previous peer if one exists, otherwise the next.  Returns
    /// `(bucket, position, absorb_left)` where `absorb_left` means the heir
    /// precedes the vacated slice.
    fn heir_of_slice(&self, bucket: usize, low: u64) -> (usize, usize, bool) {
        // Previous peer: last peer of this bucket below `low`, else the last
        // peer of the nearest non-empty bucket to the left.
        let before = self.buckets[bucket]
            .peers
            .iter()
            .rposition(|p| p.range.low < low);
        if let Some(p) = before {
            return (bucket, p, true);
        }
        for b in (0..bucket).rev() {
            if !self.buckets[b].is_empty() {
                return (b, self.buckets[b].len() - 1, true);
            }
        }
        // No predecessor: take the successor.
        if let Some(p) = self.buckets[bucket]
            .peers
            .iter()
            .position(|q| q.range.low >= low)
        {
            return (bucket, p, false);
        }
        for (b, bk) in self.buckets.iter().enumerate().skip(bucket + 1) {
            if !bk.is_empty() {
                return (b, 0, false);
            }
        }
        unreachable!("a multi-peer overlay always has an heir");
    }

    /// Shared tail of departures and failures: hand the vacated slice (and,
    /// for graceful leaves, the keys) to the in-order heir, repair an
    /// emptied bucket, update counters, rebalance, resize.
    fn remove_peer(&mut self, peer: PeerId, keep_keys: bool) -> OverlayResult<ChurnCost> {
        if self.node_count() <= 1 {
            return Err(OverlayError::Op("the last node cannot leave".into()));
        }
        let label = if keep_keys { "d3.leave" } else { "d3.fail" };
        let op = self.net.begin_op(label);
        let (bucket, departing) = match self.detach(peer) {
            Ok(v) => v,
            Err(e) => {
                self.net.finish_op(op);
                return Err(e);
            }
        };
        // A failed peer's items survive at k > 1 when a sibling of its
        // bucket is still around to stream the replica back; gracious
        // leaves always keep their keys.  `preserve` governs the data,
        // `keep_keys` keeps governing the depart-vs-fail network marking.
        let preserve = keep_keys || (self.replication > 1 && !self.buckets[bucket].is_empty());
        let lost_items = if preserve { 0 } else { departing.keys.len() };

        let (hb, hp, absorb_left) = self.heir_of_slice(bucket, departing.range.low);
        let heir_peer = {
            let heir = &mut self.buckets[hb].peers[hp];
            if absorb_left {
                heir.range = DRange::new(heir.range.low, departing.range.high);
                if preserve {
                    heir.keys.extend_from_slice(&departing.keys);
                }
            } else {
                heir.range = DRange::new(departing.range.low, heir.range.high);
                if preserve {
                    let mut keys = departing.keys.clone();
                    keys.extend_from_slice(&heir.keys);
                    heir.keys = keys;
                }
            }
            heir.peer
        };
        // Departure / detection message towards the heir.
        let mut locate_messages = 1u64;
        self.net.count_message(op, label, heir_peer, peer);
        if preserve && !keep_keys {
            // The replica copy is streamed from a bucket sibling to the heir.
            self.net
                .count_message(op, "d3.replica", heir_peer, heir_peer);
            locate_messages += 1;
        }
        if keep_keys {
            self.net.depart_peer(peer);
        } else {
            self.net.fail_peer(peer);
        }

        // Weight bookkeeping: the departed peer leaves `bucket`; its items
        // land on the heir's leaf (graceful) or vanish (failure).
        self.shift_peer_weights(bucket, -1);
        self.shift_item_weights(bucket, -(departing.keys.len() as i64));
        if preserve {
            self.shift_item_weights(hb, departing.keys.len() as i64);
        }

        let mut update_messages = 0u64;
        let mut reshaped = false;
        if self.buckets[bucket].is_empty() {
            // Bucket-local repair: steal a peer from the backbone sibling…
            let sibling = bucket ^ 1;
            if self.buckets[sibling].len() >= 2 {
                let stolen = if sibling > bucket {
                    self.buckets[sibling].peers.remove(0)
                } else {
                    let last = self.buckets[sibling].len() - 1;
                    self.buckets[sibling].peers.remove(last)
                };
                self.net
                    .count_message(op, "d3.maintenance", stolen.peer, heir_peer);
                update_messages += 1;
                let items = stolen.keys.len() as i64;
                self.bucket_of.insert(stolen.peer, bucket);
                self.buckets[bucket].peers.push(stolen);
                self.shift_peer_weights(sibling, -1);
                self.shift_item_weights(sibling, -items);
                self.shift_peer_weights(bucket, 1);
                self.shift_item_weights(bucket, items);
            } else {
                // …or contract the backbone a level when the sibling cannot
                // spare one.
                update_messages += self.reshape(op, self.height - 1);
                reshaped = true;
            }
        }
        if !reshaped {
            // The bucket is populated again: notify the weight counters
            // along its path, then let the deterministic balancer react.
            update_messages += self.count_path_update(op, bucket);
            update_messages += self.rebalance_peers_on_path(op, bucket);
            update_messages += self.maybe_resize(op);
        }

        self.net.finish_op(op);
        Ok(ChurnCost {
            locate_messages,
            update_messages,
            lost_items,
        })
    }

    fn check_key(&self, key: u64) -> OverlayResult<()> {
        if self.domain.contains(key) {
            Ok(())
        } else {
            Err(OverlayError::Op(format!("key {key} outside the domain")))
        }
    }

    /// Highest replication degree the bucket-sibling placement supports.
    pub const MAX_REPLICATION: usize = 4;

    /// The bucket siblings holding the k−1 replica copies of `peer`'s keys
    /// (in bucket order, the owner excluded).  Empty at k = 1.
    pub fn replica_targets(&self, peer: PeerId) -> Vec<PeerId> {
        if self.replication <= 1 {
            return Vec::new();
        }
        let Some(&bucket) = self.bucket_of.get(peer) else {
            return Vec::new();
        };
        self.buckets[bucket]
            .peers
            .iter()
            .map(|p| p.peer)
            .filter(|p| *p != peer)
            .take(self.replication - 1)
            .collect()
    }

    /// Charges the replica-copy messages a write at `owner` costs at k > 1.
    fn charge_replica_copies(&mut self, op: OpScope, owner: PeerId) -> u64 {
        let mut copies = 0u64;
        for target in self.replica_targets(owner) {
            self.net.count_message(op, "d3.replica", owner, target);
            copies += 1;
        }
        copies
    }

    /// Builds a [`baton_net::serve::RoutingSnapshot`] of the overlay's
    /// current state for the concurrent serve front-end: slots are the
    /// bucket peers in global key order (bucket order × in-bucket order
    /// partitions the domain), items are the sorted key multisets
    /// run-length-encoded, links carry the in-bucket adjacency
    /// ([`LinkKind::Bucket`]) plus power-of-two jumps between bucket heads
    /// standing in for the backbone ([`LinkKind::Backbone`]), and replicas
    /// are the bucket-sibling replica targets.  Extraction is read-only.
    pub fn build_routing_snapshot(&self) -> baton_net::serve::RoutingSnapshot {
        use baton_net::serve::{ExactPlacement, SnapshotBuilder};

        let mut builder = SnapshotBuilder::new(
            ExactPlacement::DomainPartition,
            (self.domain.low, self.domain.high),
        );
        // Slot layout: global in-order peer sequence, with each bucket's
        // first slot remembered as its head.
        let mut heads: Vec<usize> = Vec::with_capacity(self.buckets.len());
        let mut peers_of: Vec<&BucketPeer> = Vec::with_capacity(self.node_count());
        builder.reserve(self.node_count(), self.total_items(), 0);
        for bucket in &self.buckets {
            if !bucket.is_empty() {
                heads.push(peers_of.len());
            }
            for peer in &bucket.peers {
                builder.push_slot(peer.peer.0, peer.range.high, true);
                builder.push_keys(&peer.keys);
                builder.seal_slot();
                peers_of.push(peer);
            }
        }
        // Per slot: a bucket head's backbone links, then the bucket links,
        // then the replicas.
        let mut index = 0;
        for (slot, peer) in peers_of.iter().enumerate() {
            if heads.get(index) == Some(&slot) {
                // Backbone stand-in: bucket heads link at ±2^j bucket
                // strides, giving greedy routing the O(log N) reach an LCA
                // climb has.
                let mut stride = 1usize;
                while stride < heads.len() {
                    if index >= stride {
                        builder.link(slot, heads[index - stride], LinkKind::Backbone);
                    }
                    if index + stride < heads.len() {
                        builder.link(slot, heads[index + stride], LinkKind::Backbone);
                    }
                    stride *= 2;
                }
                index += 1;
            }
            if slot > 0 {
                builder.link(slot, slot - 1, LinkKind::Bucket);
            }
            if slot + 1 < peers_of.len() {
                builder.link(slot, slot + 1, LinkKind::Bucket);
            }
            for target in self.replica_targets(peer.peer) {
                builder.replica_peer(slot, target.0);
            }
        }
        builder.finish()
    }
}

impl Overlay for D3TreeSystem {
    fn capabilities(&self) -> OverlayCapabilities {
        OverlayCapabilities {
            range_queries: true,
        }
    }

    /// Number of live nodes.
    fn node_count(&self) -> usize {
        self.bucket_of.len()
    }

    /// Total stored items.
    fn total_items(&self) -> usize {
        self.item_weights[0][0] as usize
    }

    fn net(&self) -> &SimNetwork {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// Approximate resident bytes of per-peer protocol state: the bucket
    /// vectors and their peers' key multisets, the peer→bucket slab, the
    /// sampling list and the backbone weight matrices.  The shared network
    /// substrate is excluded.  The slab is counted by
    /// [`PeerDirectory::slot_count`] — every slot ever opened, the holes
    /// departures leave included — not by its allocated capacity:
    /// amortised doubling overshoots the slots in use by up to 2×, which
    /// would make the figure jump with the growth schedule rather than
    /// with the state the protocol keeps.
    fn estimated_state_bytes(&self) -> u64 {
        let buckets = (self.buckets.capacity() * std::mem::size_of::<Bucket>()) as u64;
        let peers_in_buckets: u64 = self
            .buckets
            .iter()
            .map(|b| {
                (b.peers.capacity() * std::mem::size_of::<BucketPeer>()) as u64
                    + b.peers
                        .iter()
                        .map(|p| (p.keys.capacity() * std::mem::size_of::<u64>()) as u64)
                        .sum::<u64>()
            })
            .sum();
        let slab = (self.bucket_of.slot_count() * std::mem::size_of::<Option<usize>>()) as u64;
        let peers = (self.bucket_of.list_capacity() * std::mem::size_of::<PeerId>()) as u64;
        let weights: u64 = self
            .peer_weights
            .iter()
            .chain(self.item_weights.iter())
            .map(|level| (level.capacity() * std::mem::size_of::<u64>()) as u64)
            .sum();
        buckets + peers_in_buckets + slab + peers + weights
    }

    fn routing_snapshot(&self) -> Option<baton_net::serve::RoutingSnapshot> {
        Some(self.build_routing_snapshot())
    }

    /// All peers, sorted by id — a borrowed view of the sampling list.
    fn peers(&self) -> &[PeerId] {
        self.bucket_of.peers()
    }

    /// A new node joins: the request climbs from a random contact to the
    /// root, then descends towards the lighter child at every backbone node
    /// (the deterministic node balancer), and the newcomer takes over half
    /// of the most loaded peer of the chosen bucket.
    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        let peer = self.net.add_peer();
        let op = self.net.begin_op("d3.join");
        if self.bucket_of.is_empty() {
            self.buckets[0]
                .peers
                .push(BucketPeer::new(peer, self.domain));
            self.bucket_of.insert(peer, 0);
            self.rebuild_weights();
            self.net.finish_op(op);
            return Ok(ChurnCost::default());
        }
        let contact = self.random_peer().expect("non-empty");
        let mut locate_messages = 0u64;
        let mut hop_no = 0u32;
        let mut current = contact;

        // Climb from the contact's leaf to the root…
        let start = *self
            .bucket_of
            .get(contact)
            .expect("sampled from the live list");
        let start_head = self.buckets[start].head();
        locate_messages += self.hop(op, current, start_head, &mut hop_no, LinkKind::Bucket);
        current = start_head;
        for k in 1..=self.height {
            let next = self.host(self.height - k, start >> k);
            locate_messages += self.hop(op, current, next, &mut hop_no, LinkKind::Backbone);
            current = next;
        }
        // …then descend towards the lighter child (ties go left).
        let mut node = 0usize;
        for level in 0..self.height {
            let left = self.peer_weights[level as usize + 1][2 * node];
            let right = self.peer_weights[level as usize + 1][2 * node + 1];
            node = if right < left { 2 * node + 1 } else { 2 * node };
            let next = self.host(level + 1, node);
            locate_messages += self.hop(op, current, next, &mut hop_no, LinkKind::Backbone);
            current = next;
        }
        let target = node;

        // The newcomer takes the upper half of the bucket's most loaded
        // peer (most items; ties go to the widest slice, then the lowest
        // position — fully deterministic).
        let split_pos = {
            let bucket = &self.buckets[target];
            (0..bucket.len())
                .max_by_key(|p| {
                    (
                        bucket.peers[*p].keys.len(),
                        bucket.peers[*p].range.width(),
                        std::cmp::Reverse(*p),
                    )
                })
                .expect("bucket is never empty")
        };
        let mut update_messages = 0u64;
        let (new_range, new_keys, splitter_peer) = {
            let splitter = &mut self.buckets[target].peers[split_pos];
            let (low, high) = (splitter.range.low, splitter.range.high);
            let mid = if splitter.range.width() < 2 {
                high
            } else if splitter.keys.len() >= 2 {
                splitter.keys[splitter.keys.len() / 2].clamp(low + 1, high)
            } else {
                low + splitter.range.width() / 2
            };
            splitter.range = DRange::new(low, mid);
            let at = splitter.keys.partition_point(|k| *k < mid);
            let moved = splitter.keys.split_off(at);
            (DRange::new(mid, high), moved, splitter.peer)
        };
        let mut newcomer = BucketPeer::new(peer, new_range);
        newcomer.keys = new_keys;
        self.buckets[target].peers.insert(split_pos + 1, newcomer);
        self.bucket_of.insert(peer, target);
        self.net.count_message(op, "d3.join", splitter_peer, peer);
        update_messages += 1;
        self.shift_peer_weights(target, 1);
        update_messages += self.count_path_update(op, target);
        update_messages += self.rebalance_peers_on_path(op, target);
        update_messages += self.maybe_resize(op);

        self.net.finish_op(op);
        Ok(ChurnCost {
            locate_messages: locate_messages.max(1),
            update_messages,
            lost_items: 0,
        })
    }

    /// A random node departs gracefully.
    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        let peer = self.random_peer().ok_or_else(empty)?;
        self.leave_peer(peer)
    }

    /// A specific node departs gracefully.
    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        self.remove_peer(peer, true)
    }

    /// A random node fails abruptly.
    fn fail_random(&mut self) -> OverlayResult<ChurnCost> {
        let peer = self.random_peer().ok_or_else(empty)?;
        self.fail_peer(peer)
    }

    /// A specific node fails abruptly: its stored items are lost and the
    /// overlay repairs bucket-locally.
    fn fail_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        self.remove_peer(peer, false)
    }

    /// Sets the replication degree: each key's k−1 extra copies live on
    /// siblings of the owner's leaf bucket.  With a sibling alive, a failed
    /// peer's items survive the failure (`lost_items == 0`).
    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        if k == 0 || k > Self::MAX_REPLICATION {
            return Err(OverlayError::Op(format!(
                "replication degree {k} outside 1..={}",
                Self::MAX_REPLICATION
            )));
        }
        self.replication = k;
        Ok(())
    }

    /// Inserts a value under `key` from a random issuer.
    fn insert(&mut self, key: u64, _value: u64) -> OverlayResult<OpCost> {
        // The baseline tracks key multisets; values are not materialised.
        self.check_key(key)?;
        let issuer = self.random_peer().ok_or_else(empty)?;
        let op = self.net.begin_op("d3.insert");
        let (bucket, position, mut messages) = self.route_to_owner(op, issuer, key)?;
        self.buckets[bucket].peers[position].insert_key(key);
        let owner = self.buckets[bucket].peers[position].peer;
        messages += self.charge_replica_copies(op, owner);
        self.shift_item_weights(bucket, 1);
        let balance_messages = self.rebalance_items_on_path(op, bucket);
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches: 0,
            nodes_visited: 1,
            balance_messages,
        })
    }

    /// Deletes one value stored under `key` from a random issuer.
    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        self.check_key(key)?;
        let issuer = self.random_peer().ok_or_else(empty)?;
        let op = self.net.begin_op("d3.delete");
        let (bucket, position, mut messages) = self.route_to_owner(op, issuer, key)?;
        let removed = self.buckets[bucket].peers[position].remove_key(key);
        let mut balance_messages = 0;
        if removed {
            let owner = self.buckets[bucket].peers[position].peer;
            messages += self.charge_replica_copies(op, owner);
            self.shift_item_weights(bucket, -1);
            balance_messages = self.rebalance_items_on_path(op, bucket);
        }
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches: usize::from(removed),
            nodes_visited: 1,
            balance_messages,
        })
    }

    /// Exact-match query for `key` from a random issuer.
    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        self.check_key(key)?;
        let issuer = self.random_peer().ok_or_else(empty)?;
        let op = self.net.begin_op("d3.search");
        let (bucket, position, messages) = self.route_to_owner(op, issuer, key)?;
        let matches = self.buckets[bucket].peers[position].count_key(key);
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches,
            nodes_visited: 1,
            balance_messages: 0,
        })
    }

    /// Range query for `[low, high)`: route to the owner of `low`, then
    /// sweep right over the peer adjacency until the range is covered.
    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost> {
        let issuer = self.random_peer().ok_or_else(empty)?;
        // Clamped to the domain; an empty clamp (an inverted range included)
        // matches nothing and costs nothing.
        let lo = low.max(self.domain.low);
        let hi = high.min(self.domain.high);
        if lo >= hi {
            return Ok(OpCost::default());
        }
        let op = self.net.begin_op("d3.range");
        let (mut bucket, mut position, mut messages) = self.route_to_owner(op, issuer, lo)?;
        let mut nodes_visited = 0usize;
        let mut matches = 0usize;
        let mut hop_no = messages as u32;
        let limit = self.node_count() + 2;
        loop {
            let peer = &self.buckets[bucket].peers[position];
            nodes_visited += 1;
            matches += peer.count_in(lo, hi);
            if peer.range.high >= hi || nodes_visited > limit {
                break;
            }
            let from = peer.peer;
            // Advance over the horizontal adjacency: next peer in the
            // bucket, or the head of the next bucket.
            if position + 1 < self.buckets[bucket].len() {
                position += 1;
            } else if bucket + 1 < self.buckets.len() {
                bucket += 1;
                position = 0;
            } else {
                break;
            }
            let to = self.buckets[bucket].peers[position].peer;
            messages += self.hop(op, from, to, &mut hop_no, LinkKind::Bucket);
        }
        self.net.finish_op(op);
        Ok(OpCost {
            messages,
            matches,
            nodes_visited,
            balance_messages: 0,
        })
    }

    /// Checks the overlay's structural and balance invariants:
    ///
    /// * the backbone is perfect (`2^height` buckets, none empty);
    /// * the global peer sequence partitions the domain contiguously and
    ///   every stored key lies in its owner's slice, sorted;
    /// * the weight counters equal the recomputed per-subtree sums;
    /// * the `bucket_of` directory (whose live list sampling draws from)
    ///   holds exactly the peers in the buckets, each under its bucket;
    /// * the deterministic balancer's rest invariant holds: no backbone
    ///   node's children violate the peer-count tolerance.
    fn validate(&self) -> Result<(), String> {
        if self.bucket_of.is_empty() {
            return Ok(());
        }
        if self.buckets.len() != 1 << self.height {
            return Err(format!(
                "{} buckets for height {}",
                self.buckets.len(),
                self.height
            ));
        }
        let mut expected_low = self.domain.low;
        let mut seen = 0usize;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if bucket.is_empty() {
                return Err(format!("bucket {b} is empty"));
            }
            for peer in &bucket.peers {
                if peer.range.low != expected_low {
                    return Err(format!(
                        "gap before {}: expected low {expected_low}, found {}",
                        peer.peer, peer.range
                    ));
                }
                expected_low = peer.range.high;
                if !peer.keys.windows(2).all(|w| w[0] <= w[1]) {
                    return Err(format!("{} keys unsorted", peer.peer));
                }
                if let (Some(first), Some(last)) = (peer.keys.first(), peer.keys.last()) {
                    if !peer.range.contains(*first) || !peer.range.contains(*last) {
                        return Err(format!("{} stores keys outside {}", peer.peer, peer.range));
                    }
                }
                if self.bucket_of.get(peer.peer) != Some(&b) {
                    return Err(format!("bucket_of disagrees for {}", peer.peer));
                }
                seen += 1;
            }
        }
        if expected_low != self.domain.high {
            return Err(format!(
                "partition ends at {expected_low}, not {}",
                self.domain.high
            ));
        }
        if seen != self.node_count() {
            return Err(format!(
                "{seen} peers in buckets, {} in the directory",
                self.node_count()
            ));
        }
        // Weight counters match reality.
        for level in (0..=self.height as usize).rev() {
            for node in 0..1usize << level {
                let (peers, items) = if level == self.height as usize {
                    (
                        self.buckets[node].len() as u64,
                        self.buckets[node].item_count(),
                    )
                } else {
                    (
                        self.peer_weights[level + 1][2 * node]
                            + self.peer_weights[level + 1][2 * node + 1],
                        self.item_weights[level + 1][2 * node]
                            + self.item_weights[level + 1][2 * node + 1],
                    )
                };
                if self.peer_weights[level][node] != peers {
                    return Err(format!(
                        "peer weight ({level},{node}) is {}, expected {peers}",
                        self.peer_weights[level][node]
                    ));
                }
                if self.item_weights[level][node] != items {
                    return Err(format!(
                        "item weight ({level},{node}) is {}, expected {items}",
                        self.item_weights[level][node]
                    ));
                }
            }
        }
        // Rest invariant of the deterministic peer balancer.
        for level in 0..self.height as usize {
            for node in 0..1usize << level {
                let left = self.peer_weights[level + 1][2 * node];
                let right = self.peer_weights[level + 1][2 * node + 1];
                if Self::unbalanced(left, right, PEER_RATIO, PEER_SLACK) {
                    return Err(format!(
                        "peer balance violated at ({level},{node}): {left} vs {right}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_a_consistent_tree() {
        for n in [1usize, 2, 5, 13, 64, 200, 500] {
            let system = D3TreeSystem::build(5, n).unwrap();
            assert_eq!(system.node_count(), n);
            system
                .validate()
                .unwrap_or_else(|e| panic!("{n}-node tree invalid: {e}"));
        }
    }

    #[test]
    fn backbone_height_tracks_log_n() {
        let system = D3TreeSystem::build(7, 1000).unwrap();
        let h = system.height();
        assert!((4..=10).contains(&h), "height {h} for 1000 nodes");
        // Average bucket size stays in the Θ(log N) band.
        let avg = system.node_count() as f64 / system.buckets().len() as f64;
        let target = (h + 2) as f64;
        assert!(
            avg <= 2.0 * target + 1.0 && avg >= target / 2.0 - 1.0,
            "avg {avg}"
        );
    }

    #[test]
    fn search_reaches_the_owner_and_counts_matches() {
        let mut system = D3TreeSystem::build(9, 100).unwrap();
        system.insert(123_456, 0).unwrap();
        system.insert(123_456, 0).unwrap();
        let report = system.search_exact(123_456).unwrap();
        assert_eq!(report.matches, 2);
        assert!(report.messages > 0);
        let miss = system.search_exact(654_321).unwrap();
        assert_eq!(miss.matches, 0);
    }

    #[test]
    fn exact_search_is_logarithmic() {
        let mut system = D3TreeSystem::build(11, 1000).unwrap();
        let mut total = 0u64;
        let queries = 200u64;
        for i in 0..queries {
            let key = 1 + (i * 4_999_999) % 999_999_998;
            total += system.search_exact(key).unwrap().messages;
        }
        let mean = total as f64 / queries as f64;
        let bound = 3.0 * (system.node_count() as f64).log2() + 8.0;
        assert!(mean <= bound, "mean exact cost {mean} exceeds {bound}");
    }

    #[test]
    fn range_query_is_exact_and_sweeps_adjacency() {
        let mut system = D3TreeSystem::build(13, 120).unwrap();
        let keys: Vec<u64> = (0..500u64).map(|i| 1 + i * 1_999_993).collect();
        for k in &keys {
            system.insert(*k, 0).unwrap();
        }
        let (lo, hi) = (100_000_000u64, 400_000_000u64);
        let expected = keys.iter().filter(|k| (lo..hi).contains(*k)).count();
        let report = system.search_range(lo, hi).unwrap();
        assert_eq!(report.matches, expected);
        assert!(report.nodes_visited >= 1);
        system.validate().unwrap();
    }

    #[test]
    fn churn_keeps_structure_valid_and_balanced() {
        let mut system = D3TreeSystem::build(15, 80).unwrap();
        for round in 0..200 {
            match round % 5 {
                0 | 1 if system.node_count() > 4 => {
                    system.leave_random().unwrap();
                }
                2 if system.node_count() > 4 => {
                    system.fail_random().unwrap();
                }
                _ => {
                    system.join_random().unwrap();
                }
            }
            system
                .validate()
                .unwrap_or_else(|e| panic!("invalid after round {round}: {e}"));
        }
    }

    #[test]
    fn failures_lose_the_victims_items_only() {
        let mut system = D3TreeSystem::build(17, 40).unwrap();
        for i in 0..400u64 {
            system.insert(1 + i * 2_222_221, 0).unwrap();
        }
        let before = system.total_items();
        let report = system.fail_random().unwrap();
        assert_eq!(system.total_items() + report.lost_items, before);
        assert_eq!(system.node_count(), 39);
        system.validate().unwrap();
        // A graceful leave loses nothing.
        let leave = system.leave_random().unwrap();
        assert_eq!(leave.lost_items, 0);
        assert_eq!(system.total_items(), before - report.lost_items);
    }

    #[test]
    fn skewed_inserts_trigger_item_redistribution() {
        let mut system = D3TreeSystem::build(19, 60).unwrap();
        let mut balance = 0u64;
        // Hammer a narrow slice of the domain: the weight counters must
        // eventually trip the deterministic redistribution.
        for i in 0..800u64 {
            balance += system
                .insert(1_000 + (i % 97) * 13, 0)
                .unwrap()
                .balance_messages;
        }
        assert!(balance > 0, "no redistribution under heavy skew");
        system.validate().unwrap();
    }

    #[test]
    fn duplicate_pileup_at_the_span_top_does_not_break_redistribution() {
        // Hammering the last key of the domain saturates every slice
        // boundary of the owning subtree at the span top; redistribution
        // must degrade to empty tail slices, not panic — and a snapshot
        // exported over those slices answers like the routed engine.
        let top = 999_999_999u64;
        let snapshot_agrees = |system: &mut D3TreeSystem| {
            let snapshot = system.routing_snapshot().expect("snapshot");
            let mut counters = baton_net::serve::ServeCounters::default();
            for key in [1, 2, 500_000_000, top - 1, top] {
                let routed = system.search_exact(key).unwrap().matches as u64;
                let served = snapshot.exact(key, key, &mut counters).matches;
                assert_eq!(served, routed, "exact {key}");
            }
            let spans = [(1, 2), (2, top), (top, top + 1), (1, top + 1)];
            for (low, high) in spans {
                let routed = system.search_range(low, high).unwrap().matches as u64;
                let served = snapshot.range(low, high, low, &mut counters).matches;
                assert_eq!(served, routed, "range [{low}, {high})");
            }
        };
        let mut system = D3TreeSystem::build(3, 60).unwrap();
        for _ in 0..500 {
            system.insert(top, 0).unwrap();
        }
        assert_eq!(system.search_exact(top).unwrap().matches, 500);
        system.validate().unwrap();
        snapshot_agrees(&mut system);
        // The same pile-up at the bottom of the domain.
        for _ in 0..500 {
            system.insert(1, 0).unwrap();
        }
        assert_eq!(system.search_exact(1).unwrap().matches, 500);
        system.validate().unwrap();
        snapshot_agrees(&mut system);
    }

    #[test]
    fn d3tree_balance_invariants_survive_growth_churn_and_shrink() {
        let mut system = D3TreeSystem::build(0xD37EE, 8).unwrap();
        let mut inserted = 0u64;

        // Growth phase: join-heavy churn with inserts — the backbone must
        // extend at least once and stay valid (weights, partition, rest
        // invariant of the deterministic balancer) after every event.
        let start_height = system.height();
        for round in 0..400 {
            if round % 5 == 4 && system.node_count() > 4 {
                system.leave_random().unwrap();
            } else {
                system.join_random().unwrap();
            }
            if round % 3 == 0 {
                system
                    .insert(1 + (round as u64 * 7_919_993) % 999_999_998, 0)
                    .unwrap();
                inserted += 1;
            }
            system
                .validate()
                .unwrap_or_else(|e| panic!("growth round {round}: {e}"));
        }
        assert!(
            system.height() > start_height,
            "400 joins never extended the backbone"
        );
        assert_eq!(system.total_items() as u64, inserted);

        // Shrink phase: leave/fail-heavy churn — the backbone must contract
        // and bucket-local repair must keep every bucket populated.
        let peak_height = system.height();
        let mut lost = 0usize;
        while system.node_count() > 6 {
            if system.node_count().is_multiple_of(7) {
                lost += system.fail_random().unwrap().lost_items;
            } else {
                system.leave_random().unwrap();
            }
            system
                .validate()
                .unwrap_or_else(|e| panic!("shrink at n = {}: {e}", system.node_count()));
        }
        assert!(
            system.height() < peak_height,
            "shrinking to 6 peers never contracted the backbone"
        );
        assert_eq!(system.total_items() + lost, inserted as usize);
    }

    #[test]
    fn errors_for_bad_inputs() {
        let op = |message: &str| OverlayError::Op(message.into());
        let mut system = D3TreeSystem::build(21, 3).unwrap();
        let error = system.search_exact(0).unwrap_err();
        assert_eq!(error, op("key 0 outside the domain"));
        let mut empty = D3TreeSystem::new(1);
        let error = empty.search_range(1, 2).unwrap_err();
        assert_eq!(error, op("the overlay is empty"));
        let mut single = D3TreeSystem::build(23, 1).unwrap();
        let error = single.leave_random().unwrap_err();
        assert_eq!(error, op("the last node cannot leave"));
    }

    #[test]
    fn weight_descent_fills_light_buckets() {
        let system = D3TreeSystem::build(25, 200).unwrap();
        system.validate().unwrap();
        let sizes: Vec<usize> = system.buckets.iter().map(Bucket::len).collect();
        let (min, max) = (
            *sizes.iter().min().unwrap() as u64,
            *sizes.iter().max().unwrap() as u64,
        );
        // Sibling tolerance propagated over the whole tree keeps the global
        // spread narrow.
        assert!(
            max <= PEER_RATIO * min + PEER_SLACK * (system.height() as u64 + 1),
            "bucket sizes spread too far: {min}..{max}"
        );
    }
}
