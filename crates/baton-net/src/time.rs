//! Virtual time and link-latency models.
//!
//! The original substrate counted messages and nothing else; every question
//! the paper's Figure 8 asks is a message count.  Latency, throughput and
//! churn-under-load require a notion of *when* things happen, so the
//! simulator keeps virtual clocks: every message lands at `send time + link
//! latency`, which advances its operation's frontier (see
//! [`crate::network`]).  Operations execute atomically against overlay state
//! when they are dispatched, so virtual time is accounting, not scheduling.
//! It is deterministic — derived purely from the seeded latency model, never
//! from the wall clock.
//!
//! A [`LatencyModel`] is constant (zero is the count-only substrate),
//! seeded log-normal, or regional: peers hash into regions, links inside and
//! between regions draw from separate models, and timed
//! [`LinkDegradation`]s slow the links between regions.  A [`LatencyPlan`]
//! is the same description without a seed.

use std::ops::{Add, AddAssign, Sub};

use crate::peer::PeerId;
use crate::rng::SimRng;

/// A point in (or span of) virtual time, in integer microseconds.
///
/// One type serves as both instant and duration — the simulation starts at
/// [`SimTime::ZERO`] and only ever moves forward, so the distinction buys
/// nothing but conversion noise here.  Microsecond resolution keeps the
/// arithmetic exact (no float drift in frontier sums) while
/// comfortably covering sub-millisecond link jitter and multi-hour runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// The end of virtual time — a window bounded by `MAX` never closes.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// A time point / duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// A time point / duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// A time point / duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// The value in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The value in milliseconds, as a float (for reports).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The value in seconds, as a float (for reports).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// `true` at the origin (or for a zero duration).
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The span from `earlier` to `self`, clamped to zero if `earlier` is
    /// actually later (virtual time never runs backwards, so a non-zero
    /// clamp indicates a caller bug, not an engine state).
    pub fn saturating_sub(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

/// A seeded assignment of peers to geographic regions.
///
/// The assignment is a pure hash of the peer id and the map's salt: it never
/// changes as peers join and leave, costs no storage, and two copies of the
/// same `(regions, salt)` pair agree on every peer — the latency model and a
/// fault plan can therefore share a topology without sharing state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionMap {
    regions: u32,
    salt: u64,
}

impl RegionMap {
    /// A map of `regions` regions with the given hash salt.
    ///
    /// # Panics
    /// Panics if `regions` is zero.
    pub fn new(regions: u32, salt: u64) -> Self {
        assert!(regions > 0, "a region map needs at least one region");
        Self { regions, salt }
    }

    /// Number of regions peers are spread across.
    pub fn regions(&self) -> u32 {
        self.regions
    }

    /// The region of `peer`, in `[0, regions)`.
    pub fn region_of(&self, peer: PeerId) -> u32 {
        // SplitMix64 finalizer over (id, salt): uniform spread even for the
        // dense consecutive ids the registry hands out.
        let z = crate::rng::splitmix64_finalize(
            (peer.raw() ^ self.salt).wrapping_add(0x9E37_79B9_7F4A_7C15),
        );
        (z % u64::from(self.regions)) as u32
    }
}

/// A virtual-time-scheduled latency multiplier: while active, every sampled
/// latency on a link between two regions is scaled by up to `factor`.
///
/// The multiplier ramps linearly from 1 to `factor` over the first `ramp` of
/// the window (a zero `ramp` switches instantly) and drops back to 1 at
/// `until` — mid-run link degradation without swapping models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkDegradation {
    /// Virtual instant the degradation starts (inclusive).
    pub from: SimTime,
    /// Virtual instant it ends (exclusive); [`SimTime::MAX`] never ends.
    pub until: SimTime,
    /// Time to ramp linearly from 1× up to the full factor.
    pub ramp: SimTime,
    /// Latency multiplier at full strength (≥ 1 slows links down).
    pub factor: f64,
}

impl LinkDegradation {
    /// The multiplier this degradation contributes at virtual time `at`
    /// (1.0 outside its window).
    pub fn factor_at(&self, at: SimTime) -> f64 {
        if at < self.from || at >= self.until {
            return 1.0;
        }
        let elapsed = at.saturating_sub(self.from);
        if self.ramp.is_zero() || elapsed >= self.ramp {
            self.factor
        } else {
            1.0 + (self.factor - 1.0) * (elapsed.as_micros() as f64 / self.ramp.as_micros() as f64)
        }
    }
}

/// The topology-aware latency model: peers hash into regions, links inside a
/// region draw from `intra`, links between regions draw from `inter`, and a
/// schedule of [`LinkDegradation`]s scales the links between regions as
/// virtual time passes.
#[derive(Clone, Debug)]
pub struct RegionalLatency {
    /// The seeded peer → region assignment.
    pub map: RegionMap,
    /// Per-region models for links whose endpoints share a region: a link
    /// inside region `r` draws from `intra[r]`.  Each region owns its own
    /// jitter stream, so traffic inside one region never perturbs the
    /// latencies drawn in another — and the streams are derived
    /// deterministically from the one intra seed, so the split itself is
    /// reproducible.
    pub intra: Vec<LatencyModel>,
    /// Model for links that cross a region boundary (a single stream).
    pub inter: Box<LatencyModel>,
    /// Timed degradations, applied multiplicatively when overlapping.
    pub degradations: Vec<LinkDegradation>,
}

impl RegionalLatency {
    fn sample(&mut self, from: PeerId, to: PeerId, at: SimTime) -> SimTime {
        let to_region = self.map.region_of(to);
        if self.map.region_of(from) == to_region {
            return self.intra[to_region as usize].sample(from, to, at);
        }
        let base = self.inter.sample(from, to, at);
        let factor: f64 = self.degradations.iter().map(|d| d.factor_at(at)).product();
        if factor == 1.0 {
            base
        } else {
            SimTime::from_micros((base.as_micros() as f64 * factor).round() as u64)
        }
    }
}

/// How long a message takes from one peer to another.
///
/// The model owns its own [`SimRng`] stream, deliberately separate from the
/// protocol RNGs: switching latency models (or sampling from one) never
/// perturbs join points, query keys or victim choices, which is what makes
/// the constant-zero model reproduce the count-only substrate *exactly*.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every link takes the same fixed time.  `Constant(SimTime::ZERO)` is
    /// the legacy count-only behaviour: all messages deliver "instantly"
    /// and every operation has zero virtual latency.
    Constant(SimTime),
    /// Log-normal latency — the standard heavy-tailed model of internet
    /// round-trip times: most links are near the median, a few are much
    /// slower.
    LogNormal {
        /// Median link latency (the distribution's scale parameter).
        median: SimTime,
        /// Shape parameter σ of the underlying normal; larger means a
        /// heavier tail.  Typical internet fits use 0.3–0.7.
        sigma: f64,
        /// Seeded generator for the latency stream.
        rng: SimRng,
    },
    /// Topology-aware latency: peers hash into regions with separate
    /// intra-/inter-region models and a schedule of timed link
    /// degradations.  The only model whose samples depend on the endpoints
    /// and on virtual time.
    Regional(Box<RegionalLatency>),
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::zero()
    }
}

impl LatencyModel {
    /// The legacy count-only model: every delivery is instantaneous.
    pub fn zero() -> Self {
        LatencyModel::Constant(SimTime::ZERO)
    }

    /// A constant per-link latency.
    pub fn constant(latency: SimTime) -> Self {
        LatencyModel::Constant(latency)
    }

    /// Log-normal latency with the given median and shape, drawn from a
    /// stream seeded with `seed`.
    pub fn log_normal(median: SimTime, sigma: f64, seed: u64) -> Self {
        LatencyModel::LogNormal {
            median,
            sigma,
            rng: SimRng::seeded(seed),
        }
    }

    /// Topology-aware latency over `map`: intra-region links draw from
    /// `intra`, cross-region links from `inter`, with `degradations` scaling
    /// the cross-region links as virtual time passes.
    ///
    /// `intra` is replicated into one model per region, each with a jitter
    /// stream deterministically derived from the original (region `r` gets
    /// `derive(r)`), so every region owns an independent RNG stream.
    pub fn regional(
        map: RegionMap,
        intra: LatencyModel,
        inter: LatencyModel,
        degradations: Vec<LinkDegradation>,
    ) -> Self {
        let intra = (0..map.regions())
            .map(|r| intra.with_derived_stream(u64::from(r)))
            .collect();
        LatencyModel::Regional(Box::new(RegionalLatency {
            map,
            intra,
            inter: Box::new(inter),
            degradations,
        }))
    }

    /// A copy of this model whose jitter stream(s) are re-derived with
    /// `salt`, leaving the distribution parameters untouched.  Deriving from
    /// the embedded stream's *seed* (not its state) keeps the result
    /// deterministic however many samples the original has drawn.
    fn with_derived_stream(&self, salt: u64) -> LatencyModel {
        match self {
            LatencyModel::Constant(latency) => LatencyModel::Constant(*latency),
            LatencyModel::LogNormal { median, sigma, rng } => LatencyModel::LogNormal {
                median: *median,
                sigma: *sigma,
                rng: rng.derive(salt),
            },
            LatencyModel::Regional(regional) => LatencyModel::Regional(Box::new(RegionalLatency {
                map: regional.map,
                intra: regional
                    .intra
                    .iter()
                    .map(|m| m.with_derived_stream(salt))
                    .collect(),
                inter: Box::new(regional.inter.with_derived_stream(salt)),
                degradations: regional.degradations.clone(),
            })),
        }
    }

    /// `true` if every sample is zero (the count-only model).
    pub fn is_zero(&self) -> bool {
        matches!(self, LatencyModel::Constant(t) if t.is_zero())
    }

    /// Draws the latency of one message from `from` to `to`, sent at
    /// virtual time `at`.
    ///
    /// The endpoints and the send time are part of the contract so that
    /// models can be topology-aware; the [`Regional`](LatencyModel::Regional)
    /// model uses both, the others ignore them.
    pub fn sample(&mut self, from: PeerId, to: PeerId, at: SimTime) -> SimTime {
        match self {
            LatencyModel::Constant(latency) => *latency,
            LatencyModel::LogNormal { median, sigma, rng } => {
                // Box–Muller transform: two uniforms -> one standard normal.
                let u1 = rng.uniform_f64().max(f64::MIN_POSITIVE);
                let u2 = rng.uniform_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let factor = (*sigma * z).exp();
                SimTime::from_micros((median.as_micros() as f64 * factor).round() as u64)
            }
            LatencyModel::Regional(regional) => regional.sample(from, to, at),
        }
    }
}

/// A seed-free *description* of a latency model.
///
/// Scenario plans are built once per profile but instantiated once per
/// repetition with a per-repetition seed; a plan therefore carries the
/// distribution parameters and [`build`](LatencyPlan::build) turns them into
/// a seeded [`LatencyModel`] on demand.
#[derive(Clone, Debug)]
pub enum LatencyPlan {
    /// Fixed per-link latency (zero = the count-only model).
    Constant(SimTime),
    /// Log-normal latency with the given median and shape.
    LogNormal {
        /// Median link latency.
        median: SimTime,
        /// Shape parameter σ of the underlying normal.
        sigma: f64,
    },
    /// Topology-aware latency: seeded regions, nested intra/inter plans and
    /// a degradation schedule.
    Regional {
        /// The seeded peer → region assignment (its salt is part of the
        /// plan, so regions are stable across repetitions).
        map: RegionMap,
        /// Plan for links whose endpoints share a region.
        intra: Box<LatencyPlan>,
        /// Plan for links that cross a region boundary.
        inter: Box<LatencyPlan>,
        /// Timed degradations.
        degradations: Vec<LinkDegradation>,
    },
}

impl LatencyPlan {
    /// Instantiates the plan with jitter streams seeded from `seed`.
    ///
    /// For the non-regional plans the seed is used verbatim, so
    /// `LatencyPlan::LogNormal { m, s }.build(seed)` is byte-for-byte
    /// `LatencyModel::log_normal(m, s, seed)` — the legacy scenarios depend
    /// on this to stay fixture-identical.
    pub fn build(&self, seed: u64) -> LatencyModel {
        match self {
            LatencyPlan::Constant(latency) => LatencyModel::constant(*latency),
            LatencyPlan::LogNormal { median, sigma } => {
                LatencyModel::log_normal(*median, *sigma, seed)
            }
            LatencyPlan::Regional {
                map,
                intra,
                inter,
                degradations,
            } => LatencyModel::regional(
                *map,
                intra.build(seed ^ 0x17A4),
                inter.build(seed ^ 0x17E4),
                degradations.clone(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_conversions_round_trip() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_micros(2500).as_millis_f64(), 2.5);
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_micros(1).is_zero());
    }

    #[test]
    fn sim_time_arithmetic_is_saturating_on_subtraction() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a + b, SimTime::from_micros(14));
        assert_eq!(a - b, SimTime::from_micros(6));
        assert_eq!(b - a, SimTime::ZERO);
        let mut c = b;
        c += a;
        assert_eq!(c, SimTime::from_micros(14));
    }

    #[test]
    fn sim_time_display_picks_a_readable_unit() {
        assert_eq!(format!("{}", SimTime::from_micros(7)), "7µs");
        assert_eq!(format!("{}", SimTime::from_micros(2_500)), "2.500ms");
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
    }

    #[test]
    fn constant_model_is_exact_and_zero_detects() {
        let mut zero = LatencyModel::zero();
        assert!(zero.is_zero());
        assert_eq!(
            zero.sample(PeerId(0), PeerId(1), SimTime::ZERO),
            SimTime::ZERO
        );
        let mut fixed = LatencyModel::constant(SimTime::from_millis(5));
        assert!(!fixed.is_zero());
        for _ in 0..10 {
            assert_eq!(
                fixed.sample(PeerId(0), PeerId(1), SimTime::ZERO),
                SimTime::from_millis(5)
            );
        }
    }

    #[test]
    fn log_normal_model_is_positive_and_centred_near_the_median() {
        let median = SimTime::from_millis(40);
        let mut model = LatencyModel::log_normal(median, 0.5, 7);
        let mut below = 0usize;
        let n = 2000usize;
        for _ in 0..n {
            let s = model.sample(PeerId(0), PeerId(1), SimTime::ZERO);
            assert!(s > SimTime::ZERO);
            if s < median {
                below += 1;
            }
        }
        // The median of a log-normal is its scale parameter: about half the
        // samples fall on each side.
        assert!(
            (n / 2).abs_diff(below) < n / 10,
            "{below}/{n} samples below the median"
        );
    }

    #[test]
    fn seeded_models_are_deterministic() {
        let mut a = LatencyModel::log_normal(SimTime::from_millis(10), 0.4, 99);
        let mut b = LatencyModel::log_normal(SimTime::from_millis(10), 0.4, 99);
        for _ in 0..100 {
            assert_eq!(
                a.sample(PeerId(0), PeerId(1), SimTime::ZERO),
                b.sample(PeerId(0), PeerId(1), SimTime::ZERO)
            );
        }
    }

    #[test]
    fn region_map_is_stable_and_spreads_peers() {
        let map = RegionMap::new(4, 0xBA70);
        let twin = RegionMap::new(4, 0xBA70);
        let mut counts = [0usize; 4];
        for id in 0..1000u32 {
            let region = map.region_of(PeerId(id));
            assert!(region < 4);
            assert_eq!(region, twin.region_of(PeerId(id)), "copies must agree");
            counts[region as usize] += 1;
        }
        // Hash spread: every region gets a meaningful share of 1000 peers.
        for (region, count) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(count),
                "region {region} got {count}/1000 peers"
            );
        }
        // A different salt shuffles the assignment.
        let other = RegionMap::new(4, 0x5EED);
        assert!((0..1000u32).any(|id| map.region_of(PeerId(id)) != other.region_of(PeerId(id))));
    }

    #[test]
    fn degradation_ramps_linearly_and_ends() {
        let degradation = LinkDegradation {
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(30),
            ramp: SimTime::from_secs(4),
            factor: 5.0,
        };
        assert_eq!(degradation.factor_at(SimTime::from_secs(9)), 1.0);
        assert_eq!(degradation.factor_at(SimTime::from_secs(10)), 1.0);
        assert_eq!(degradation.factor_at(SimTime::from_secs(12)), 3.0);
        assert_eq!(degradation.factor_at(SimTime::from_secs(14)), 5.0);
        assert_eq!(degradation.factor_at(SimTime::from_secs(29)), 5.0);
        assert_eq!(degradation.factor_at(SimTime::from_secs(30)), 1.0);
        // A zero ramp switches instantly; a MAX window never closes.
        let step = LinkDegradation {
            ramp: SimTime::ZERO,
            until: SimTime::MAX,
            ..degradation
        };
        assert_eq!(step.factor_at(SimTime::from_secs(10)), 5.0);
        assert_eq!(step.factor_at(SimTime::from_secs(1_000_000)), 5.0);
    }

    #[test]
    fn regional_model_separates_intra_and_inter_links() {
        let map = RegionMap::new(2, 7);
        // Find one same-region and one cross-region pair.
        let base = PeerId(0);
        let same = (1..100)
            .map(PeerId)
            .find(|p| map.region_of(base) == map.region_of(*p))
            .unwrap();
        let cross = (1..100)
            .map(PeerId)
            .find(|p| map.region_of(base) != map.region_of(*p))
            .unwrap();
        let mut model = LatencyModel::regional(
            map,
            LatencyModel::constant(SimTime::from_millis(5)),
            LatencyModel::constant(SimTime::from_millis(50)),
            vec![LinkDegradation {
                from: SimTime::from_secs(10),
                until: SimTime::from_secs(20),
                ramp: SimTime::ZERO,
                factor: 5.0,
            }],
        );
        assert!(!model.is_zero());
        assert_eq!(
            model.sample(base, same, SimTime::ZERO),
            SimTime::from_millis(5)
        );
        assert_eq!(
            model.sample(base, cross, SimTime::ZERO),
            SimTime::from_millis(50)
        );
        // Inside the degradation window only cross-region links slow down.
        let mid = SimTime::from_secs(15);
        assert_eq!(model.sample(base, same, mid), SimTime::from_millis(5));
        assert_eq!(model.sample(base, cross, mid), SimTime::from_millis(250));
        // And the window closes.
        let after = SimTime::from_secs(25);
        assert_eq!(model.sample(base, cross, after), SimTime::from_millis(50));
    }

    #[test]
    fn regional_model_gives_each_region_its_own_seeded_stream() {
        let map = RegionMap::new(4, 0xBA70);
        let build = || {
            LatencyModel::regional(
                map,
                LatencyModel::log_normal(SimTime::from_millis(10), 0.5, 77),
                LatencyModel::constant(SimTime::from_millis(60)),
                Vec::new(),
            )
        };
        // Pick one intra-region pair in each of two different regions.
        let pair_in = |region: u32| {
            let a = (0..200u32)
                .map(PeerId)
                .find(|p| map.region_of(*p) == region)
                .unwrap();
            let b = (a.0 + 1..400)
                .map(PeerId)
                .find(|p| map.region_of(*p) == region)
                .unwrap();
            (a, b)
        };
        let (a0, b0) = pair_in(0);
        let (a1, b1) = pair_in(1);
        // Different regions draw from different (uncorrelated) streams...
        let mut m = build();
        let r0: Vec<_> = (0..16).map(|_| m.sample(a0, b0, SimTime::ZERO)).collect();
        let mut m = build();
        let r1: Vec<_> = (0..16).map(|_| m.sample(a1, b1, SimTime::ZERO)).collect();
        assert_ne!(r0, r1, "regions must not share one jitter stream");
        // ...and sampling in region 1 first leaves region 0's stream
        // untouched: the per-region split is what decouples regions.
        let mut m = build();
        for _ in 0..16 {
            m.sample(a1, b1, SimTime::ZERO);
        }
        let r0_after: Vec<_> = (0..16).map(|_| m.sample(a0, b0, SimTime::ZERO)).collect();
        assert_eq!(r0, r0_after, "region 0's stream must be independent");
    }

    #[test]
    fn latency_plan_builds_the_seeded_model_verbatim() {
        // The non-regional plans must hand the seed through unchanged: the
        // legacy scenario fixtures depend on it.
        let plan = LatencyPlan::LogNormal {
            median: SimTime::from_millis(40),
            sigma: 0.5,
        };
        let mut from_plan = plan.build(1234);
        let mut direct = LatencyModel::log_normal(SimTime::from_millis(40), 0.5, 1234);
        for _ in 0..50 {
            assert_eq!(
                from_plan.sample(PeerId(0), PeerId(1), SimTime::ZERO),
                direct.sample(PeerId(0), PeerId(1), SimTime::ZERO)
            );
        }

        let regional = LatencyPlan::Regional {
            map: RegionMap::new(3, 9),
            intra: Box::new(LatencyPlan::Constant(SimTime::from_millis(1))),
            inter: Box::new(LatencyPlan::LogNormal {
                median: SimTime::from_millis(15),
                sigma: 0.3,
            }),
            degradations: Vec::new(),
        };
        let mut a = regional.build(7);
        let mut b = regional.build(7);
        for id in 0..32u32 {
            assert_eq!(
                a.sample(PeerId(0), PeerId(id), SimTime::ZERO),
                b.sample(PeerId(0), PeerId(id), SimTime::ZERO)
            );
        }
    }
}
