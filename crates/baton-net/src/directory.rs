//! The live-peer directory every overlay embeds: per-peer state in a dense
//! slab indexed by [`PeerId`], plus the sorted list of live peers that
//! seeded sampling draws from.
//!
//! [`PeerId`]s are dense sequential integers that are never reused (see
//! [`crate::PeerRegistry`]), so a lookup is one bounds-checked index — no
//! hashing — and a departed peer leaves a `None` hole behind.  The list is
//! kept sorted because id order is the order every seeded experiment has
//! always sampled from; [`insert`](PeerDirectory::insert) and
//! [`remove`](PeerDirectory::remove) are the only mutators of either
//! structure, which is what keeps the two in lockstep.

use crate::{PeerId, SimRng};

/// Per-peer state of type `T` for the live peers of one overlay.
#[derive(Clone, Debug)]
pub struct PeerDirectory<T> {
    /// State of peer `p` at index `p.0`; `None` for ids that departed or
    /// never belonged to this overlay.
    slots: Vec<Option<T>>,
    /// The ids of the `Some` slots, ascending.
    peers: Vec<PeerId>,
}

impl<T> Default for PeerDirectory<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            peers: Vec::new(),
        }
    }
}

impl<T> PeerDirectory<T> {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `peer`, returning the state it replaces (a live
    /// id keeps its single list entry).  Ids handed out by the registry
    /// ascend, so the usual insert appends to the list in O(1); an id below
    /// the current maximum costs one binary search and an O(N) shift.
    pub fn insert(&mut self, peer: PeerId, value: T) -> Option<T> {
        let index = peer.0 as usize;
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, || None);
        }
        let previous = self.slots[index].replace(value);
        if previous.is_none() {
            let at = match self.peers.last() {
                Some(&last) if peer <= last => self.peers.partition_point(|p| *p < peer),
                _ => self.peers.len(),
            };
            debug_assert!(
                self.peers.get(at) != Some(&peer),
                "{peer} listed without a slot"
            );
            self.peers.insert(at, peer);
        }
        previous
    }

    /// Removes and returns the state of `peer`; `None` (and no change) when
    /// it is not live.  The slot stays behind as a hole.
    pub fn remove(&mut self, peer: PeerId) -> Option<T> {
        let removed = self.slots.get_mut(peer.0 as usize)?.take()?;
        let at = self.peers.partition_point(|p| *p < peer);
        debug_assert!(
            self.peers.get(at) == Some(&peer),
            "{peer} live but unlisted"
        );
        self.peers.remove(at);
        Some(removed)
    }

    /// The state of `peer`, if it is live.
    #[inline]
    pub fn get(&self, peer: PeerId) -> Option<&T> {
        self.slots.get(peer.0 as usize)?.as_ref()
    }

    /// Mutable state of `peer`, if it is live.
    #[inline]
    pub fn get_mut(&mut self, peer: PeerId) -> Option<&mut T> {
        self.slots.get_mut(peer.0 as usize)?.as_mut()
    }

    /// Number of live peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` when no peer is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The live peers, ascending by id.
    #[inline]
    pub fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// A uniformly random live peer — `peers()[rng.index(len())]`, exactly
    /// one draw — or `None`, with no draw, when the directory is empty.
    pub fn sample(&self, rng: &mut SimRng) -> Option<PeerId> {
        rng.pick(&self.peers).copied()
    }

    /// The live peers and their state, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| Some((PeerId(index as u32), slot.as_ref()?)))
    }

    /// The state of every live peer, ascending by id.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().flatten()
    }

    /// Slots in the slab, holes included: one past the highest id ever
    /// inserted.  A function of the insert history alone.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Slots the slab has allocated room for — what stays resident.
    pub fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Entries the live list has allocated room for.
    pub fn list_capacity(&self) -> usize {
        self.peers.capacity()
    }
}

/// Bulk construction: ascending ids (what a bulk build hands out) append
/// in O(1) each.  Both vectors grow by amortised doubling exactly as under
/// one-at-a-time [`insert`](PeerDirectory::insert)s, so the capacities do
/// not depend on how an overlay was built.
impl<T> FromIterator<(PeerId, T)> for PeerDirectory<T> {
    fn from_iter<I: IntoIterator<Item = (PeerId, T)>>(entries: I) -> Self {
        let mut directory = Self::new();
        for (peer, value) in entries {
            directory.insert(peer, value);
        }
        directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_follows_inserts_and_removes_in_any_order() {
        let mut directory = PeerDirectory::new();
        for id in [5u32, 1, 9, 3] {
            assert_eq!(directory.insert(PeerId(id), id * 10), None);
        }
        assert_eq!(
            directory.peers(),
            [PeerId(1), PeerId(3), PeerId(5), PeerId(9)]
        );
        assert_eq!(directory.insert(PeerId(3), 33), Some(30));
        assert_eq!(directory.len(), 4);
        assert_eq!(directory.remove(PeerId(5)), Some(50));
        assert_eq!(directory.remove(PeerId(5)), None);
        assert_eq!(directory.remove(PeerId(77)), None);
        assert_eq!(directory.get(PeerId(5)), None);
        assert_eq!(directory.peers(), [PeerId(1), PeerId(3), PeerId(9)]);
        assert_eq!(
            directory.iter().collect::<Vec<_>>(),
            [(PeerId(1), &10), (PeerId(3), &33), (PeerId(9), &90)]
        );
        assert_eq!(
            directory.values().copied().collect::<Vec<_>>(),
            [10, 33, 90]
        );
        assert_eq!(directory.slot_count(), 10);
    }

    #[test]
    fn collecting_matches_one_at_a_time_inserts() {
        let entries = || (0..1000u32).map(|id| (PeerId(id), id));
        let collected: PeerDirectory<u32> = entries().collect();
        let mut inserted = PeerDirectory::new();
        for (peer, value) in entries() {
            inserted.insert(peer, value);
        }
        assert_eq!(collected.peers(), inserted.peers());
        assert_eq!(collected.slot_capacity(), inserted.slot_capacity());
        assert_eq!(collected.list_capacity(), inserted.list_capacity());
    }

    #[test]
    fn sample_of_an_empty_directory_draws_nothing() {
        let directory: PeerDirectory<()> = PeerDirectory::new();
        let mut rng = SimRng::seeded(7);
        let mut untouched = rng.clone();
        assert_eq!(directory.sample(&mut rng), None);
        assert_eq!(rng.index(1000), untouched.index(1000));
    }
}
