//! Per-peer state of the multiway-tree baseline (Liau et al. 2004, the
//! overlay the BATON paper compares against as "\[10\]").

use baton_net::PeerId;

use crate::range::MRange;

/// State of one multiway-tree peer.
///
/// Unlike BATON, a node keeps links only to its parent, its children
/// (unbounded fan-out), and its in-order neighbours — there are no sideways
/// routing tables, no balance guarantee, and no power-of-two shortcuts.  A
/// link names a peer and nothing else: a target's range and coverage are
/// read from the target's own node.
#[derive(Clone, Debug)]
pub struct MNode {
    /// The range managed directly by this node.
    pub range: MRange,
    /// The range covered by this node's entire subtree: its direct range
    /// followed by its children's coverages.
    pub coverage: MRange,
    /// Parent (`None` for the root).
    pub parent: Option<PeerId>,
    /// Children, in the order they were attached.
    pub children: Vec<PeerId>,
    /// In-order predecessor by key range.
    pub left_neighbor: Option<PeerId>,
    /// In-order successor by key range.
    pub right_neighbor: Option<PeerId>,
    /// Stored keys, sorted.  The figures only need counts, but the
    /// cross-overlay range oracle asserts exact results, so the baseline
    /// tracks the actual multiset (values are never materialised).
    pub keys: Vec<u64>,
}

impl MNode {
    /// Creates a root-less node managing (and covering) `range`.
    pub fn new(range: MRange) -> Self {
        Self {
            range,
            coverage: range,
            parent: None,
            children: Vec::new(),
            left_neighbor: None,
            right_neighbor: None,
            keys: Vec::new(),
        }
    }

    /// Number of stored data items.
    pub fn items(&self) -> usize {
        self.keys.len()
    }

    /// Inserts one key, keeping the multiset sorted.
    pub fn insert_key(&mut self, key: u64) {
        let at = self.keys.partition_point(|k| *k <= key);
        self.keys.insert(at, key);
    }

    /// Removes one occurrence of `key`; `true` if one was present.
    pub fn remove_key(&mut self, key: u64) -> bool {
        let at = self.keys.partition_point(|k| *k < key);
        if self.keys.get(at) == Some(&key) {
            self.keys.remove(at);
            true
        } else {
            false
        }
    }

    /// Number of stored occurrences of `key`.
    pub fn count_key(&self, key: u64) -> usize {
        self.keys.partition_point(|k| *k <= key) - self.keys.partition_point(|k| *k < key)
    }

    /// Number of stored keys in `[low, high)`.
    pub fn count_in(&self, low: u64, high: u64) -> usize {
        self.keys.partition_point(|k| *k < high) - self.keys.partition_point(|k| *k < low)
    }

    /// Splits off and returns every stored key `>= at`.
    pub fn split_keys_at(&mut self, at: u64) -> Vec<u64> {
        let idx = self.keys.partition_point(|k| *k < at);
        self.keys.split_off(idx)
    }

    /// Merges the sorted keys of an adjacent range into this node's: the
    /// heir of a departed node is its in-order neighbour, so one run of keys
    /// entirely precedes the other.
    pub fn merge_keys(&mut self, mut other: Vec<u64>) {
        debug_assert!(other.windows(2).all(|w| w[0] <= w[1]));
        if other.is_empty() {
            return;
        }
        if self.keys.last() <= other.first() {
            self.keys.append(&mut other);
        } else {
            debug_assert!(other.last() <= self.keys.first(), "the runs interleave");
            other.extend_from_slice(&self.keys);
            self.keys = other;
        }
    }

    /// `true` if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_covers_its_range() {
        let node = MNode::new(MRange::new(0, 100));
        assert!(node.is_leaf());
        assert_eq!(node.coverage, MRange::new(0, 100));
        assert_eq!(
            (node.parent, node.left_neighbor, node.right_neighbor),
            (None, None, None)
        );
    }
}
