//! Half-open key ranges for the D3-Tree baseline.
//!
//! Deliberately minimal and independent of `baton-core`'s `KeyRange` (and of
//! `baton-mtree`'s `MRange`), so the baselines stay decoupled from the
//! system under study and from each other.

/// A half-open interval of keys `[low, high)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DRange {
    /// Inclusive lower bound.
    pub low: u64,
    /// Exclusive upper bound.
    pub high: u64,
}

impl DRange {
    /// Creates the range `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low > high`.
    pub fn new(low: u64, high: u64) -> Self {
        assert!(low <= high, "invalid range [{low}, {high})");
        Self { low, high }
    }

    /// `true` if `key` lies in `[low, high)`.
    pub fn contains(self, key: u64) -> bool {
        key >= self.low && key < self.high
    }

    /// Number of keys in the range.
    pub fn width(self) -> u64 {
        self.high - self.low
    }
}

impl std::fmt::Display for DRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.low, self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_intersects_width() {
        let r = DRange::new(10, 20);
        assert!(r.contains(10) && !r.contains(20));
        assert_eq!(r.width(), 10);
        assert_eq!(r.to_string(), "[10, 20)");
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn reversed_range_panics() {
        DRange::new(5, 1);
    }
}
