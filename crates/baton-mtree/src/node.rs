//! Per-peer state of the multiway-tree baseline (Liau et al. 2004, the
//! overlay the BATON paper compares against as "\[10\]").

use baton_net::PeerId;

use crate::range::MRange;

/// A link to another multiway-tree node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MLink {
    /// The target peer.
    pub peer: PeerId,
    /// The key range the target manages directly.
    pub range: MRange,
    /// The key range covered by the target's whole subtree.
    pub coverage: MRange,
}

/// State of one multiway-tree peer.
///
/// Unlike BATON, a node keeps links only to its parent, its children
/// (unbounded fan-out), and its in-order neighbours — there are no sideways
/// routing tables, no balance guarantee, and no power-of-two shortcuts.
#[derive(Clone, Debug)]
pub struct MNode {
    /// This peer's address.
    pub peer: PeerId,
    /// The range managed directly by this node.
    pub range: MRange,
    /// The range covered by this node's entire subtree (its range when it
    /// joined, before any of it was delegated to children).
    pub coverage: MRange,
    /// Parent link (`None` for the root).
    pub parent: Option<MLink>,
    /// Children, in key order of their coverage.
    pub children: Vec<MLink>,
    /// In-order predecessor by key range.
    pub left_neighbor: Option<MLink>,
    /// In-order successor by key range.
    pub right_neighbor: Option<MLink>,
    /// Stored keys, sorted.  The figures only need counts, but the
    /// cross-overlay range oracle asserts exact results, so the baseline
    /// tracks the actual multiset (values are never materialised).
    pub keys: Vec<u64>,
    /// Depth of this node (root = 0).
    pub depth: u32,
}

impl MNode {
    /// Creates a root-less node managing (and covering) `range`.
    pub fn new(peer: PeerId, range: MRange) -> Self {
        Self {
            peer,
            range,
            coverage: range,
            parent: None,
            children: Vec::new(),
            left_neighbor: None,
            right_neighbor: None,
            keys: Vec::new(),
            depth: 0,
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

    /// Merges another sorted key multiset into this node's, preserving
    /// order.  The common cases — the heir is the in-order neighbour of a
    /// departed node, so one run entirely precedes the other — are a plain
    /// append/prepend; anything else falls back to a linear merge.
    pub fn merge_keys(&mut self, mut other: Vec<u64>) {
        debug_assert!(other.windows(2).all(|w| w[0] <= w[1]));
        if other.is_empty() {
            return;
        }
        if self.keys.last() <= other.first() {
            self.keys.append(&mut other);
        } else if other.last() <= self.keys.first() {
            other.extend_from_slice(&self.keys);
            self.keys = other;
        } else {
            let mine = std::mem::take(&mut self.keys);
            self.keys = Vec::with_capacity(mine.len() + other.len());
            let (mut a, mut b) = (mine.into_iter().peekable(), other.into_iter().peekable());
            while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
                if x <= y {
                    self.keys.push(a.next().expect("peeked"));
                } else {
                    self.keys.push(b.next().expect("peeked"));
                }
            }
            self.keys.extend(a);
            self.keys.extend(b);
        }
    }

    /// This node's link as others should record it.
    pub fn link(&self) -> MLink {
        MLink {
            peer: self.peer,
            range: self.range,
            coverage: self.coverage,
        }
    }

    /// `true` if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The child whose coverage contains `key`, if any.
    pub fn child_covering(&self, key: u64) -> Option<&MLink> {
        self.children.iter().find(|c| c.coverage.contains(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_covers_its_range() {
        let node = MNode::new(PeerId(1), MRange::new(0, 100));
        assert!(node.is_leaf());
        assert_eq!(node.depth, 0);
        assert_eq!(node.link().coverage, MRange::new(0, 100));
        assert!(node.child_covering(50).is_none());
    }

    #[test]
    fn child_covering_finds_the_right_child() {
        let mut node = MNode::new(PeerId(1), MRange::new(0, 100));
        node.children.push(MLink {
            peer: PeerId(2),
            range: MRange::new(0, 25),
            coverage: MRange::new(0, 50),
        });
        node.children.push(MLink {
            peer: PeerId(3),
            range: MRange::new(50, 75),
            coverage: MRange::new(50, 80),
        });
        assert_eq!(node.child_covering(10).unwrap().peer, PeerId(2));
        assert_eq!(node.child_covering(60).unwrap().peer, PeerId(3));
        assert!(node.child_covering(90).is_none());
        assert!(!node.is_leaf());
    }
}
