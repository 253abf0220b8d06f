//! The sorted ring of the Chord baseline: the one record of who sits where.

use std::ops::Deref;

use baton_net::PeerId;

use crate::id::{ChordId, M};

/// A ring member: its peer and its identifier.
pub(crate) type Member = (PeerId, ChordId);

/// The live members in ascending identifier order, with a bucket index that
/// finds the successor of an identifier in expected O(1).
///
/// Identifiers are uniform on the circle, so cutting it into as many equal
/// buckets as there are members, rounded up to a power of two, leaves O(1)
/// members per bucket in expectation.  `first[b]` is the position of the
/// first member at or past the start of bucket `b`; a search steps forward
/// from there.  A join or a leave moves the entries of the later buckets by
/// one, O(N) adds beside the O(N) move of the members.
#[derive(Clone, Debug)]
pub(crate) struct Ring {
    members: Vec<Member>,
    first: Vec<u32>,
    /// The identifier bits below a bucket's number.
    shift: u32,
}

impl Deref for Ring {
    type Target = [Member];

    fn deref(&self) -> &[Member] {
        &self.members
    }
}

impl Ring {
    /// The ring of `members`, which ascend by identifier.
    pub(crate) fn from_sorted(members: Vec<Member>) -> Self {
        let buckets = members.len().next_power_of_two() as u64;
        let shift = M - buckets.ilog2();
        let first = (0..buckets)
            .map(|b| members.partition_point(|&(_, x)| x.value() >> shift < b) as u32)
            .collect();
        Self {
            members,
            first,
            shift,
        }
    }

    /// The position of the first member at or after `id`, not wrapping:
    /// `len()` when there is none.
    #[inline]
    pub(crate) fn rank(&self, id: ChordId) -> usize {
        let mut at = self.first[(id.value() >> self.shift) as usize] as usize;
        while self.members.get(at).is_some_and(|&(_, x)| x < id) {
            at += 1;
        }
        at
    }

    /// The position of successor(`id`): the first member at or after `id`,
    /// wrapping past the top of the circle.
    #[inline]
    pub(crate) fn successor(&self, id: ChordId) -> usize {
        match self.rank(id) {
            at if at == self.members.len() => 0,
            at => at,
        }
    }

    /// Adds `member`, whose identifier the ring does not hold.
    pub(crate) fn insert(&mut self, member: Member) {
        self.members.insert(self.rank(member.1), member);
        if self.members.len() > self.first.len() {
            *self = Self::from_sorted(std::mem::take(&mut self.members));
        } else {
            self.move_later_buckets(member.1, |at| at + 1);
        }
    }

    /// Removes the member at `id`.
    pub(crate) fn remove(&mut self, id: ChordId) {
        self.members.remove(self.rank(id));
        self.move_later_buckets(id, |at| at - 1);
    }

    /// Applies `by` to the entries of the buckets after `id`'s.
    fn move_later_buckets(&mut self, id: ChordId, by: impl Fn(u32) -> u32) {
        let bucket = (id.value() >> self.shift) as usize;
        self.first[bucket + 1..]
            .iter_mut()
            .for_each(|at| *at = by(*at));
    }
}

#[cfg(test)]
mod tests {
    use baton_net::SimRng;

    use super::*;
    use crate::id::RING;

    #[test]
    fn the_bucket_index_ranks_like_a_binary_search_through_churn() {
        let mut rng = SimRng::seeded(0x5196);
        let mut ring = Ring::from_sorted(Vec::new());
        for step in 0..3_000u32 {
            let id = ChordId::new(rng.uniform_u64(0, RING));
            if ring.len() > 2 && rng.index(3) == 0 {
                ring.remove(ring[rng.index(ring.len())].1);
            } else if ring.binary_search_by_key(&id, |&(_, x)| x).is_err() {
                ring.insert((PeerId(step), id));
            }
            assert!(ring.windows(2).all(|pair| pair[0].1 < pair[1].1));
            for probe in [id, ChordId::new(0), ChordId::new(RING - 1), ring[0].1] {
                let expected = ring.partition_point(|&(_, x)| x < probe);
                assert_eq!(ring.rank(probe), expected, "step {step}, {probe}");
            }
        }
    }
}
