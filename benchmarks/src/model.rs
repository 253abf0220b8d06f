//! The reference model every answer is checked against: an ordered multiset
//! of the keys loaded and inserted so far.
//!
//! It shares no code with the repository: a `BTreeMap` from key to the
//! number of values stored under it.

use std::collections::BTreeMap;

/// Ordered multiset of stored keys.
#[derive(Clone, Debug, Default)]
pub struct Model {
    keys: BTreeMap<u64, u64>,
    total: u64,
}

impl Model {
    /// The model of a freshly loaded overlay.
    pub fn from_data(data: &[(u64, u64)]) -> Self {
        let mut model = Self::default();
        for (key, _) in data {
            model.insert(*key);
        }
        model
    }

    /// Records one more value stored under `key`.
    pub fn insert(&mut self, key: u64) {
        *self.keys.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// Values stored under `key`: the `matches` of an exact query.
    pub fn exact(&self, key: u64) -> u64 {
        self.keys.get(&key).copied().unwrap_or(0)
    }

    /// Values stored under keys in `[low, high)`: the `matches` of a range
    /// query.
    pub fn range(&self, low: u64, high: u64) -> u64 {
        if low >= high {
            return 0;
        }
        self.keys.range(low..high).map(|(_, count)| *count).sum()
    }

    /// Values stored in total.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_duplicates_and_half_open_ranges() {
        let mut model = Model::from_data(&[(5, 0), (5, 1), (9, 2)]);
        model.insert(12);
        assert_eq!(model.exact(5), 2);
        assert_eq!(model.exact(6), 0);
        assert_eq!(model.range(5, 9), 2);
        assert_eq!(model.range(5, 10), 3);
        assert_eq!(model.range(10, 5), 0);
        assert_eq!(model.total(), 4);
    }
}
