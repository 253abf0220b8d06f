//! Identifier-circle arithmetic for the Chord baseline.
//!
//! Chord places nodes and keys on a circle of `2^M` identifiers; a key is
//! stored at its *successor*, the first node clockwise from the key's
//! identifier.  All interval tests are clockwise ("does `x` lie in the arc
//! `(a, b]`?"), which is what this module implements.

/// Number of bits of the identifier circle.  `2^32` identifiers comfortably
/// exceeds the paper's largest experiment (10,000 nodes, 10,000,000 keys).
pub const M: u32 = 32;

/// Size of the identifier space.
pub const RING: u64 = 1 << M;

/// A point on the Chord identifier circle, always `< 2^M`.
///
/// Stored as a `u32` — the full `2^32` circle fits exactly — so a ring
/// member (peer + id) packs into 8 bytes.  All arithmetic still runs in
/// `u64` (via [`value`](ChordId::value)) to keep the wraparound math
/// overflow-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(transparent)]
pub struct ChordId(u32);

impl ChordId {
    /// Wraps an arbitrary value onto the circle.
    pub fn new(value: u64) -> Self {
        ChordId((value % RING) as u32)
    }

    /// Hashes an arbitrary key onto the circle (SplitMix64 finalizer —
    /// deterministic, uniform, and dependency-free).
    pub fn hash(key: u64) -> Self {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ChordId((z % RING) as u32)
    }

    /// The raw identifier value, widened to the `u64` arithmetic domain.
    pub fn value(self) -> u64 {
        u64::from(self.0)
    }

    /// `self + 2^k` on the circle: the start of the `k`-th finger interval.
    pub fn finger_start(self, k: u32) -> ChordId {
        ChordId::new(self.value() + (1u64 << k))
    }

    /// Clockwise distance from `self` to `other`.
    pub fn distance_to(self, other: ChordId) -> u64 {
        (other.value() + RING - self.value()) % RING
    }

    /// The closest finger of a node at `self` before a target whose last
    /// preceding member is `last_before`.  Finger `k` precedes the target
    /// exactly when some member, `last_before` at the latest, sits in
    /// `[self + 2^k, target)`, so it is finger `⌊log₂ dist(self, last_before)⌋`;
    /// `None` when `self` is `last_before`, whose successor owns the target.
    pub fn closest_preceding_finger(self, last_before: ChordId) -> Option<u32> {
        self.distance_to(last_before).checked_ilog2()
    }

    /// `true` if `self` lies in the clockwise-open interval `(from, to)`.
    pub fn in_open_interval(self, from: ChordId, to: ChordId) -> bool {
        if from == to {
            // The whole circle except `from` itself.
            self != from
        } else {
            from.distance_to(self) > 0 && from.distance_to(self) < from.distance_to(to)
        }
    }

    /// `true` if `self` lies in the clockwise half-open interval `(from, to]`.
    pub fn in_half_open_interval(self, from: ChordId, to: ChordId) -> bool {
        if from == to {
            true
        } else {
            let d = from.distance_to(self);
            d > 0 && d <= from.distance_to(to)
        }
    }
}

impl std::fmt::Display for ChordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "id:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_wraps_values_onto_the_circle() {
        assert_eq!(ChordId::new(0).value(), 0);
        assert_eq!(ChordId::new(RING).value(), 0);
        assert_eq!(ChordId::new(RING + 5).value(), 5);
    }

    #[test]
    fn hash_is_deterministic_and_spread_out() {
        let a = ChordId::hash(1);
        let b = ChordId::hash(2);
        assert_eq!(a, ChordId::hash(1));
        assert_ne!(a, b);
        assert!(a.value() < RING);
    }

    #[test]
    fn finger_start_wraps() {
        let id = ChordId::new(RING - 1);
        assert_eq!(id.finger_start(0), ChordId::new(0));
        assert_eq!(ChordId::new(0).finger_start(3), ChordId::new(8));
    }

    #[test]
    fn distance_is_clockwise() {
        let a = ChordId::new(10);
        let b = ChordId::new(20);
        assert_eq!(a.distance_to(b), 10);
        assert_eq!(b.distance_to(a), RING - 10);
        assert_eq!(a.distance_to(a), 0);
    }

    #[test]
    fn interval_tests_handle_wraparound() {
        let a = ChordId::new(RING - 5);
        let b = ChordId::new(5);
        assert!(ChordId::new(0).in_open_interval(a, b));
        assert!(ChordId::new(RING - 1).in_open_interval(a, b));
        assert!(!ChordId::new(5).in_open_interval(a, b));
        assert!(ChordId::new(5).in_half_open_interval(a, b));
        assert!(!ChordId::new(6).in_half_open_interval(a, b));
        assert!(!a.in_open_interval(a, b));
    }

    #[test]
    fn degenerate_interval_is_whole_circle() {
        let a = ChordId::new(7);
        assert!(ChordId::new(8).in_open_interval(a, a));
        assert!(!a.in_open_interval(a, a));
        assert!(ChordId::new(8).in_half_open_interval(a, a));
        assert!(a.in_half_open_interval(a, a));
    }

    // Seeded stand-ins for the old proptest properties.
    #[test]
    fn prop_half_open_contains_endpoint() {
        let mut rng = baton_net::SimRng::seeded(0x0D1D);
        for _ in 0..1000 {
            let from = ChordId::new(rng.uniform_u64(0, RING));
            let to = ChordId::new(rng.uniform_u64(0, RING));
            assert!(to.in_half_open_interval(from, to));
            assert!(!from.in_open_interval(from, to));
        }
    }

    #[test]
    fn prop_distance_roundtrip() {
        let mut rng = baton_net::SimRng::seeded(0xD157);
        for _ in 0..1000 {
            let a = ChordId::new(rng.uniform_u64(0, RING));
            let b = ChordId::new(rng.uniform_u64(0, RING));
            assert_eq!((a.distance_to(b) + b.distance_to(a)) % RING, 0);
        }
    }
}
