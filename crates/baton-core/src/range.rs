//! Key ranges.
//!
//! Every BATON node — internal nodes included — directly manages a
//! contiguous range of index values (paper §IV).  Ranges are half-open
//! intervals `[low, high)` over `u64` keys; the union of all nodes' ranges
//! is always the full key domain and ranges never overlap.

use std::fmt;

/// An index key.  The paper's workload uses values in `[1, 10^9)`; the
/// library accepts the full `u64` domain.
pub type Key = u64;

/// A half-open interval of keys `[low, high)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyRange {
    low: Key,
    high: Key,
}

impl fmt::Debug for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.low, self.high)
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.low, self.high)
    }
}

impl KeyRange {
    /// Creates the range `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low > high` (an empty range `low == high` is allowed).
    pub fn new(low: Key, high: Key) -> Self {
        assert!(low <= high, "invalid range [{low}, {high})");
        Self { low, high }
    }

    /// The paper's evaluation domain: `[1, 10^9)`.
    pub fn paper_domain() -> Self {
        Self::new(1, 1_000_000_000)
    }

    /// Lower bound (inclusive).
    #[inline]
    pub fn low(self) -> Key {
        self.low
    }

    /// Upper bound (exclusive).
    #[inline]
    pub fn high(self) -> Key {
        self.high
    }

    /// Number of keys in the range.
    #[inline]
    pub fn width(self) -> u64 {
        self.high - self.low
    }

    /// `true` if the range contains no keys.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.low == self.high
    }

    /// `true` if `key` lies in `[low, high)`.
    #[inline]
    pub fn contains(self, key: Key) -> bool {
        key >= self.low && key < self.high
    }

    /// `true` if the two ranges share at least one key.
    pub fn intersects(self, other: KeyRange) -> bool {
        self.low < other.high && other.low < self.high
    }

    /// The intersection of the two ranges (possibly empty).
    pub fn intersection(self, other: KeyRange) -> KeyRange {
        let low = self.low.max(other.low);
        let high = self.high.min(other.high);
        if low >= high {
            KeyRange::new(low, low)
        } else {
            KeyRange::new(low, high)
        }
    }

    /// `true` if `other` starts exactly where `self` ends or vice versa.
    pub fn is_adjacent_to(self, other: KeyRange) -> bool {
        self.high == other.low || other.high == self.low
    }

    /// Merges two adjacent or overlapping ranges into one contiguous range.
    ///
    /// Returns `None` if the ranges are neither adjacent nor overlapping
    /// (merging them would create a gap).
    pub fn merge(self, other: KeyRange) -> Option<KeyRange> {
        if self.is_empty() {
            return Some(other);
        }
        if other.is_empty() {
            return Some(self);
        }
        if self.intersects(other) || self.is_adjacent_to(other) {
            Some(KeyRange::new(
                self.low.min(other.low),
                self.high.max(other.high),
            ))
        } else {
            None
        }
    }

    /// Splits the range at `pivot` into `([low, pivot), [pivot, high))`.
    ///
    /// # Panics
    /// Panics if `pivot` is outside `[low, high]`.
    pub fn split_at(self, pivot: Key) -> (KeyRange, KeyRange) {
        assert!(
            pivot >= self.low && pivot <= self.high,
            "pivot {pivot} outside {self}"
        );
        (
            KeyRange::new(self.low, pivot),
            KeyRange::new(pivot, self.high),
        )
    }

    /// Splits the range in half: `([low, mid), [mid, high))` with
    /// `mid = low + width/2`.
    pub fn split_half(self) -> (KeyRange, KeyRange) {
        let mid = self.low + self.width() / 2;
        self.split_at(mid)
    }

    /// Extends the lower bound down to `new_low` (used when the leftmost
    /// node expands its range to cover a newly inserted smaller value,
    /// paper §IV-C).
    ///
    /// # Panics
    /// Panics if `new_low > low`.
    pub fn extend_low(self, new_low: Key) -> KeyRange {
        assert!(new_low <= self.low, "extend_low must not shrink the range");
        KeyRange::new(new_low, self.high)
    }

    /// Extends the upper bound up to `new_high` (rightmost-node expansion,
    /// paper §IV-C).
    ///
    /// # Panics
    /// Panics if `new_high < high`.
    pub fn extend_high(self, new_high: Key) -> KeyRange {
        assert!(
            new_high >= self.high,
            "extend_high must not shrink the range"
        );
        KeyRange::new(self.low, new_high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let r = KeyRange::new(10, 20);
        assert_eq!(r.low(), 10);
        assert_eq!(r.high(), 20);
        assert_eq!(r.width(), 10);
        assert!(!r.is_empty());
        assert_eq!(format!("{r}"), "[10, 20)");
        assert_eq!(format!("{r:?}"), "[10, 20)");
    }

    #[test]
    fn paper_and_full_domain() {
        let paper = KeyRange::paper_domain();
        assert_eq!(paper.low(), 1);
        assert_eq!(paper.high(), 1_000_000_000);
        let full = KeyRange::new(0, Key::MAX);
        assert!(full.contains(0));
        assert!(full.contains(u64::MAX - 1));
        assert!(!full.contains(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn reversed_bounds_panic() {
        KeyRange::new(5, 4);
    }

    #[test]
    fn empty_range_contains_nothing() {
        let r = KeyRange::new(7, 7);
        assert!(r.is_empty());
        assert_eq!(r.width(), 0);
        assert!(!r.contains(7));
        assert!(!r.contains(6));
    }

    #[test]
    fn contains_is_half_open() {
        let r = KeyRange::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(9));
    }

    #[test]
    fn intersection_and_intersects() {
        let a = KeyRange::new(0, 10);
        let b = KeyRange::new(5, 15);
        let c = KeyRange::new(10, 20);
        assert!(a.intersects(b));
        assert!(!a.intersects(c)); // touching but half-open: no shared key
        assert_eq!(a.intersection(b), KeyRange::new(5, 10));
        assert!(a.intersection(c).is_empty());
        assert_eq!(b.intersection(a), a.intersection(b));
    }

    #[test]
    fn adjacency_and_merge() {
        let a = KeyRange::new(0, 10);
        let b = KeyRange::new(10, 20);
        let c = KeyRange::new(30, 40);
        assert!(a.is_adjacent_to(b));
        assert!(b.is_adjacent_to(a));
        assert!(!a.is_adjacent_to(c));
        assert_eq!(a.merge(b), Some(KeyRange::new(0, 20)));
        assert_eq!(b.merge(a), Some(KeyRange::new(0, 20)));
        assert_eq!(a.merge(c), None);
        // Overlapping ranges merge too.
        assert_eq!(
            KeyRange::new(0, 15).merge(KeyRange::new(10, 20)),
            Some(KeyRange::new(0, 20))
        );
        // Merging with an empty range returns the other side unchanged.
        assert_eq!(a.merge(KeyRange::new(50, 50)), Some(a));
        assert_eq!(KeyRange::new(50, 50).merge(a), Some(a));
    }

    #[test]
    fn split_at_and_split_half() {
        let r = KeyRange::new(0, 10);
        let (l, h) = r.split_at(4);
        assert_eq!(l, KeyRange::new(0, 4));
        assert_eq!(h, KeyRange::new(4, 10));
        let (l, h) = r.split_half();
        assert_eq!(l, KeyRange::new(0, 5));
        assert_eq!(h, KeyRange::new(5, 10));
        // Degenerate splits at the boundaries are allowed.
        let (l, h) = r.split_at(0);
        assert!(l.is_empty());
        assert_eq!(h, r);
        let (l, h) = r.split_at(10);
        assert_eq!(l, r);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn split_outside_panics() {
        KeyRange::new(0, 10).split_at(11);
    }

    #[test]
    fn extend_low_and_high() {
        let r = KeyRange::new(100, 200);
        assert_eq!(r.extend_low(50), KeyRange::new(50, 200));
        assert_eq!(r.extend_low(100), r);
        assert_eq!(r.extend_high(300), KeyRange::new(100, 300));
        assert_eq!(r.extend_high(200), r);
    }

    #[test]
    #[should_panic(expected = "must not shrink")]
    fn extend_low_cannot_shrink() {
        KeyRange::new(100, 200).extend_low(150);
    }

    #[test]
    #[should_panic(expected = "must not shrink")]
    fn extend_high_cannot_shrink() {
        KeyRange::new(100, 200).extend_high(150);
    }

    // Seeded stand-ins for the old proptest properties: many random ranges,
    // deterministic per run.
    fn random_range(rng: &mut baton_net::SimRng) -> KeyRange {
        let a = rng.uniform_u64(0, 1_000_000);
        let b = rng.uniform_u64(0, 1_000_000);
        KeyRange::new(a.min(b), a.max(b))
    }

    #[test]
    fn prop_split_halves_partition_the_range() {
        let mut rng = baton_net::SimRng::seeded(0x5117);
        for _ in 0..500 {
            let r = random_range(&mut rng);
            let frac = rng.uniform_f64();
            let pivot = (r.low() + ((r.width() as f64) * frac) as u64).min(r.high());
            let (l, h) = r.split_at(pivot);
            assert_eq!(l.width() + h.width(), r.width());
            assert!(l.merge(h).unwrap() == r || r.is_empty());
            for k in [
                r.low(),
                pivot.saturating_sub(1),
                pivot,
                r.high().saturating_sub(1),
            ] {
                if r.contains(k) {
                    assert!(l.contains(k) ^ h.contains(k));
                }
            }
        }
    }

    #[test]
    fn prop_intersection_is_symmetric_and_contained() {
        let mut rng = baton_net::SimRng::seeded(0x1237);
        for _ in 0..500 {
            let a = random_range(&mut rng);
            let b = random_range(&mut rng);
            let i1 = a.intersection(b);
            let i2 = b.intersection(a);
            assert_eq!(i1.width(), i2.width());
            if !i1.is_empty() {
                assert_eq!(a.intersection(i1), i1);
                assert_eq!(b.intersection(i1), i1);
                assert!(a.intersects(b));
            } else {
                assert!(!a.intersects(b));
            }
        }
    }

    #[test]
    fn prop_merge_of_split_is_identity() {
        let mut rng = baton_net::SimRng::seeded(0x3E16);
        for _ in 0..500 {
            let r = random_range(&mut rng);
            let (l, h) = r.split_half();
            assert_eq!(l.merge(h), Some(r));
        }
    }

    #[test]
    fn prop_contains_consistent_with_bounds() {
        let mut rng = baton_net::SimRng::seeded(0xC0417);
        for _ in 0..500 {
            let r = random_range(&mut rng);
            let k = rng.uniform_u64(0, 1_000_000);
            assert_eq!(r.contains(k), k >= r.low() && k < r.high());
        }
    }
}
