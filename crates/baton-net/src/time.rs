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
//!
//! # Exact fast log-normal draws
//!
//! A log-normal draw is `round(median · exp(σ · √(−2 ln u1) · cos(2π u2)))`
//! from two uniforms.  Its reference is the libm chain — `ln`, `sqrt`,
//! `cos`, `exp`, `round` — that every seeded stream, fixture and benchmark
//! figure was recorded with, at ~75 ns a draw on a 2-core x86-64 host.  The
//! draw evaluates the same formula with table kernels first (a
//! 256-entry `ln`, a 256-entry `cos(2π ·)` and a 128-entry `2^(i/128)`,
//! each built by a `const` block and corrected by a short Taylor
//! polynomial) and keeps their value only when it provably rounds like the
//! chain's:
//!
//! - **Deviation.**  On the fast domain — `|σ| ≤ 1`, `2⁻⁶⁴ ≤ u1 ≤ 1 − 2⁻¹⁰`,
//!   `0 ≤ u2 < 1` — the kernels' `y' = median · exp(σ z)` lies within
//!   `1e-10 · y` of the chain's `y`, assuming libm's `ln`, `cos` and `exp`
//!   within a few ulps (glibc's are within one).  The budget: `−2 ln u1`
//!   within `2e-14` absolute plus a few ulps relative (its dropped `r⁵`
//!   term is below `1.2e-14`), so its root — between `√(2⁻⁹)` and
//!   `√(128 ln 2) ≈ 9.42` — within `2.4e-13` absolute; `cos` within
//!   `2.4e-12` absolute (the dropped `b⁵/120`), so `z` and, at `|σ| ≤ 1`,
//!   `σ z` within `2.3e-11`; `exp` adds `2.3e-12` relative (the dropped
//!   `r⁴/24`) and the roundings `1e-15`: `2.6e-11` in all.  The tests
//!   measure `6.6e-12` at worst over 10⁸ draws of the three presets.
//! - **Rounding.**  `round(y')` is returned only when `y'` lies more than
//!   `1e-8 · y'` — 100 times the deviation bound — from the nearest
//!   half-integer.  `y` then sits on the same side of every rounding
//!   boundary, so both round to the same integer.
//! - **Fallback.**  Everything else runs the libm chain: the `u1` within
//!   2⁻¹⁰ of 1, where `ln u1` nears zero and the table's absolute error
//!   becomes a large relative one, `u1 = 0`, `|σ| > 1`, and the draws too
//!   near a half-integer — 0.12–0.23 % of the presets' draws in all.
//!
//! Every stream is therefore the libm chain's, bit for bit; the unit tests
//! check it against an in-test copy of the chain (10⁸ draws in the
//! ignored release run) and pin the regional presets' streams by digest.

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
        // A mask where it equals the remainder: `%` is a division.
        let regions = u64::from(self.regions);
        (if regions.is_power_of_two() {
            z & (regions - 1)
        } else {
            z % regions
        }) as u32
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
    // Out of line, so that the constant and log-normal arms of
    // `LatencyModel::sample` need no stack frame.
    #[inline(never)]
    fn sample(&mut self, from: PeerId, to: PeerId, at: SimTime) -> SimTime {
        let to_region = self.map.region_of(to);
        let intra = self.map.region_of(from) == to_region;
        // Intra- and inter-region links alternate at random, so a branch on
        // `intra` mispredicts: the stream is selected instead, and without
        // degradations `intra` is never branched on.
        let model = if intra {
            &mut self.intra[to_region as usize]
        } else {
            &mut *self.inter
        };
        let base = model.sample(from, to, at);
        if self.degradations.is_empty() || intra {
            return base;
        }
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
                let u1 = rng.uniform_f64();
                let u2 = rng.uniform_f64();
                SimTime::from_micros(log_normal_micros(median.as_micros(), *sigma, u1, u2))
            }
            LatencyModel::Regional(regional) => regional.sample(from, to, at),
        }
    }
}

/// One log-normal draw in microseconds from the uniforms `u1`, `u2` ∈ [0, 1):
/// the Box–Muller normal `z = √(−2 ln u1) · cos(2π u2)` scaled to
/// `round(median · exp(σ z))`.
///
/// The value is always that of the libm chain below; the table kernels only
/// decide it sooner when they can prove they agree (module docs).
fn log_normal_micros(median: u64, sigma: f64, u1: f64, u2: f64) -> u64 {
    let median = median as f64;
    fast_log_normal_micros(median, sigma, u1, u2).unwrap_or_else(|| {
        let u1 = u1.max(f64::MIN_POSITIVE);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (median * (sigma * z).exp()).round() as u64
    })
}

/// Worst relative deviation of the table kernels' `median · exp(σ z)` from
/// the libm chain's, over the fast path's domain (module docs).
const FAST_REL_DEVIATION: f64 = 1e-10;

/// A fast value is returned only when it lies more than `ROUNDING_TOL · y`
/// from the nearest half-integer, so the libm value — at most
/// `FAST_REL_DEVIATION · y` away — rounds to the same integer.
const ROUNDING_TOL: f64 = 1e-8;
const _: () = assert!(ROUNDING_TOL >= 100.0 * FAST_REL_DEVIATION);

/// The `u1` the fast path takes, `[2⁻⁶⁴, 1 − 2⁻¹⁰]`: above the top `ln u1`
/// nears zero and the table's absolute error becomes a large relative one;
/// the bottom, below every non-zero uniform draw, caps `√(−2 ln u1)`, which
/// scales the `cos` kernel's error.
const FAST_MIN_U1: f64 = 1.0 / 18_446_744_073_709_551_616.0;
const FAST_MAX_U1: f64 = 1.0 - 1.0 / 1024.0;

/// Largest `|σ|` the fast path takes; the deviation bound scales with it.
const FAST_MAX_SIGMA: f64 = 1.0;

/// The libm chain's rounded value, when the table kernels can prove it;
/// `None` sends the draw to the libm chain.
fn fast_log_normal_micros(median: f64, sigma: f64, u1: f64, u2: f64) -> Option<u64> {
    let y = fast_log_normal(median, sigma, u1, u2)?;
    // The test accepts `y` only when it is clear of both half-integers
    // around `n`; a `y` too large for `round_shift`, infinite or NaN fails
    // it.
    let (n, k) = round_shift(y);
    (0.5 - (y - n).abs() > ROUNDING_TOL * y).then_some(k as u64)
}

/// `median · exp(σ · √(−2 ln u1) · cos(2π u2))` through the table kernels,
/// or `None` outside their domain.
fn fast_log_normal(median: f64, sigma: f64, u1: f64, u2: f64) -> Option<f64> {
    let in_domain = sigma.abs() <= FAST_MAX_SIGMA
        && (FAST_MIN_U1..=FAST_MAX_U1).contains(&u1)
        && (0.0..1.0).contains(&u2);
    // The two halves are independent until the last product.
    in_domain.then(|| {
        table_exp(
            median,
            table_neg2_ln(u1).sqrt() * (sigma * table_cos_turns(u2)),
        )
    })
}

/// `1.5 · 2⁵²`: for `|x| < 2⁵¹`, `x + ROUND_SHIFT` holds `x` rounded to an
/// integer, which subtracting `ROUND_SHIFT` recovers as a float and
/// subtracting its bits recovers as an integer — no libm `round` call.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `x` rounded to the nearest integer, as a float and as an integer
/// (`|x| < 2⁵¹`).
fn round_shift(x: f64) -> (f64, i64) {
    let shifted = x + ROUND_SHIFT;
    let k = shifted.to_bits().wrapping_sub(ROUND_SHIFT.to_bits()) as i64;
    (shifted - ROUND_SHIFT, k)
}

const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
const MANTISSA_BITS: u64 = (1 << 52) - 1;

/// Steps of the `ln` table: the mantissa's top 8 bits pick a centre.
const LN_STEPS: usize = 256;
/// `[1 / c, −2 ln c]` for the centres `c = 1 + (j + ½)/256`.
const LN_CENTRES: [[f64; 2]; LN_STEPS] = {
    let mut table = [[0.0; 2]; LN_STEPS];
    let mut j = 0;
    while j < LN_STEPS {
        let c = 1.0 + (j as f64 + 0.5) / LN_STEPS as f64;
        table[j] = [1.0 / c, -2.0 * ln_series(c)];
        j += 1;
    }
    table
};

/// `−2 ln x` for normal positive `x`: `x = 2^e · m`, `m` within 2⁻⁹ of a
/// table centre `c`, `ln x = e ln 2 + ln c + ln(1 + (m − c)/c)`.
fn table_neg2_ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let e = ((bits >> 52) as i64 - 1023) as f64;
    let m = f64::from_bits(bits & MANTISSA_BITS | ONE_BITS);
    // The centre: `m` cut to 8 fraction bits, plus 2⁻⁹; `m − c` is exact.
    let c = f64::from_bits(bits & (0xff << 44) | ONE_BITS | 1 << 43);
    let [inv_c, neg2_ln_c] = LN_CENTRES[(bits >> 44) as usize & (LN_STEPS - 1)];
    let r = (m - c) * inv_c;
    let r2 = r * r;
    // −2 ln(1 + r) to r⁴ for |r| ≤ 2⁻⁹: the r⁵ term is below 1.2 · 10⁻¹⁴.
    let neg2_log1p = -2.0 * r + r2 * ((1.0 - r * (2.0 / 3.0)) + r2 * 0.5);
    (e * (-2.0 * std::f64::consts::LN_2) + neg2_ln_c) + neg2_log1p
}

/// Steps of the `cos` table per turn.
const COS_STEPS: usize = 256;
/// `cos(2π k / 256)` for `k` in `0..256`; the sine of entry `k`'s angle is
/// entry `k − 64` (mod 256).
const COS_TURNS: [f64; COS_STEPS] = {
    let mut table = [0.0; COS_STEPS];
    let quarter = COS_STEPS / 4;
    let step = std::f64::consts::TAU / COS_STEPS as f64;
    let mut k = 0;
    while k < COS_STEPS {
        // Each series runs on at most an eighth of a turn.
        let j = k % quarter;
        let (cos, sin) = if j <= quarter / 2 {
            (cos_series(j as f64 * step), sin_series(j as f64 * step))
        } else {
            let rest = (quarter - j) as f64 * step;
            (sin_series(rest), cos_series(rest))
        };
        table[k] = match k / quarter {
            0 => cos,
            1 => -sin,
            2 => -cos,
            _ => sin,
        };
        k += 1;
    }
    table
};

/// `cos(2π t)` for `t` in `[0, 1)`: `t · 256 = k + f` with `|f| ≤ ½`, the
/// table gives the cosine and sine of `a = 2π k/256`, short series those of
/// the rest `b = 2π f/256` (`|b| ≤ π/256`), and `cos(a + b) = cos a cos b −
/// sin a sin b`.
fn table_cos_turns(t: f64) -> f64 {
    let x = t * COS_STEPS as f64;
    let (kf, k) = round_shift(x);
    let b = (x - kf) * (std::f64::consts::TAU / COS_STEPS as f64);
    let cos_a = COS_TURNS[k as usize & (COS_STEPS - 1)];
    let sin_a = COS_TURNS[(k as usize).wrapping_sub(COS_STEPS / 4) & (COS_STEPS - 1)];
    let b2 = b * b;
    // cos b − 1 to b⁴ and sin b to b³: the next terms are below 5 · 10⁻¹⁵
    // and 2.4 · 10⁻¹².
    let cos_b_m1 = b2 * (-0.5 + b2 * (1.0 / 24.0));
    let sin_b = b + b * b2 * (-1.0 / 6.0);
    cos_a + (cos_a * cos_b_m1 - sin_a * sin_b)
}

/// Steps of the `exp` table per octave.
const EXP_STEPS: usize = 128;
/// `2^(i/128)` for `i` in `0..128`.
const EXP2_FRACTIONS: [f64; EXP_STEPS] = {
    let mut table = [0.0; EXP_STEPS];
    let mut i = 0;
    while i < EXP_STEPS {
        table[i] = exp_series(i as f64 * std::f64::consts::LN_2 / EXP_STEPS as f64);
        i += 1;
    }
    table
};

/// `a · exp w` for `|w| < 700`: `w = k ln 2/128 + r` with `|r| ≤ ln 2/256`,
/// `exp w = 2^(k >> 7) · 2^((k & 127)/128) · exp r`.
fn table_exp(a: f64, w: f64) -> f64 {
    let t = w * (EXP_STEPS as f64 / std::f64::consts::LN_2);
    let (kf, k) = round_shift(t);
    let scale = f64::from_bits((((k >> 7) + 1023) as u64) << 52);
    let a = a * EXP2_FRACTIONS[(k & (EXP_STEPS as i64 - 1)) as usize] * scale;
    // `f = t − kf` is exact (the rounding of `t` costs `|w| · 2⁻⁵³`
    // relative) and `r = f · ln 2/128`; exp r − 1 to r³ (the r⁴ term is
    // below 2.3 · 10⁻¹²) as a polynomial in `f`.
    let f = t - kf;
    let exp_r_m1 = f * EXP_POLY[1] + (f * f) * (EXP_POLY[2] + f * EXP_POLY[3]);
    a + a * exp_r_m1
}

/// `(ln 2/128)ⁿ / n!`, the Taylor coefficients of `exp(f · ln 2/128)`.
const EXP_POLY: [f64; 4] = {
    let step = std::f64::consts::LN_2 / EXP_STEPS as f64;
    let mut poly = [1.0; 4];
    let mut n = 1;
    while n < 4 {
        poly[n] = poly[n - 1] * step / n as f64;
        n += 1;
    }
    poly
};

/// `ln c` for `c` in `[1, 2]` by `2 atanh((c − 1)/(c + 1))`, for the tables.
const fn ln_series(c: f64) -> f64 {
    let s = (c - 1.0) / (c + 1.0);
    let mut sum = 0.0;
    let mut k = 30; // s ≤ 1/3: the series' tail past s⁶¹ is below 10⁻²⁹
    while k > 0 {
        k -= 1;
        sum = sum * (s * s) + 1.0 / (2 * k + 1) as f64;
    }
    2.0 * s * sum
}

/// `cos a` by its Taylor series, for the tables (`|a| ≤ π/4`).
const fn cos_series(a: f64) -> f64 {
    let mut sum = 1.0;
    let mut k = 12;
    while k > 0 {
        sum = 1.0 - a * a / ((2 * k - 1) * (2 * k)) as f64 * sum;
        k -= 1;
    }
    sum
}

/// `sin a` by its Taylor series, for the tables (`|a| ≤ π/4`).
const fn sin_series(a: f64) -> f64 {
    let mut sum = 1.0;
    let mut k = 12;
    while k > 0 {
        sum = 1.0 - a * a / ((2 * k) * (2 * k + 1)) as f64 * sum;
        k -= 1;
    }
    a * sum
}

/// `exp x` by its Taylor series, for the tables (`0 ≤ x < ln 2`).
const fn exp_series(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut k = 25;
    while k > 0 {
        sum = 1.0 + x / k as f64 * sum;
        k -= 1;
    }
    sum
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

    /// The draw as the libm chain computes it: the reference the table
    /// kernels must match.
    fn libm_chain(median: u64, sigma: f64, u1: f64, u2: f64) -> u64 {
        libm_value(median, sigma, u1.max(f64::MIN_POSITIVE), u2).round() as u64
    }

    /// The chain's value before rounding.
    fn libm_value(median: u64, sigma: f64, u1: f64, u2: f64) -> f64 {
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let factor = (sigma * z).exp();
        median as f64 * factor
    }

    /// The `(median µs, σ)` presets the scenario registry and the benchmark
    /// build: the single-stream links and the regional intra / inter links.
    const PRESETS: [(u64, f64); 3] = [(40_000, 0.5), (10_000, 0.3), (60_000, 0.5)];

    /// What one preset's differential run saw.
    #[derive(Default)]
    struct Tally {
        fallbacks: u64,
        worst_deviation: f64,
    }

    /// Checks `draws` seeded draws of `log_normal_micros` against the libm
    /// chain, counting fallbacks and the fast path's worst deviation.
    fn differential(median: u64, sigma: f64, seed: u64, draws: u64) -> Tally {
        let mut rng = SimRng::seeded(seed);
        let mut tally = Tally::default();
        for draw in 0..draws {
            let (u1, u2) = (rng.uniform_f64(), rng.uniform_f64());
            assert_eq!(
                log_normal_micros(median, sigma, u1, u2),
                libm_chain(median, sigma, u1, u2),
                "draw {draw} of ({median} µs, σ {sigma}): u1 = {u1:e}, u2 = {u2:e}"
            );
            if fast_log_normal_micros(median as f64, sigma, u1, u2).is_none() {
                tally.fallbacks += 1;
            }
            if let Some(fast) = fast_log_normal(median as f64, sigma, u1, u2) {
                let libm = libm_value(median, sigma, u1, u2);
                tally.worst_deviation = tally.worst_deviation.max((fast - libm).abs() / libm);
            }
        }
        tally
    }

    fn check_presets(draws: u64) {
        std::thread::scope(|scope| {
            let runs: Vec<_> = PRESETS
                .iter()
                .map(|&(median, sigma)| {
                    scope.spawn(move || (median, sigma, differential(median, sigma, median, draws)))
                })
                .collect();
            for run in runs {
                let (median, sigma, tally) = run.join().expect("differential thread panicked");
                // About 2⁻¹⁰ of the draws leave the ln table's domain, and
                // about 2 · ROUNDING_TOL · y sit too near a half-integer.
                assert!(
                    tally.fallbacks > 0 && tally.fallbacks < draws / 200,
                    "({median} µs, σ {sigma}): {} fallbacks in {draws} draws",
                    tally.fallbacks
                );
                assert!(
                    tally.worst_deviation <= FAST_REL_DEVIATION,
                    "({median} µs, σ {sigma}): worst relative deviation {:e}",
                    tally.worst_deviation
                );
            }
        });
    }

    #[test]
    fn log_normal_draws_match_the_libm_chain() {
        check_presets(1_000_000);
    }

    /// The same differential at 3 × 3.4 · 10⁷ draws:
    /// `cargo test --release -p baton-net --lib -- --ignored`.
    #[test]
    #[ignore = "10⁸ draws; run in release"]
    fn log_normal_draws_match_the_libm_chain_at_scale() {
        check_presets(34_000_000);
    }

    #[test]
    fn log_normal_edge_inputs_match_the_libm_chain() {
        let ulp = f64::EPSILON / 2.0; // spacing just below 1
        let u1s = [
            0.0,
            2f64.powi(-53),
            0.5,
            FAST_MAX_U1 - ulp,
            FAST_MAX_U1,
            FAST_MAX_U1 + ulp,
            1.0 - ulp,
        ];
        let u2s = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - ulp];
        for (median, sigma) in PRESETS {
            for u1 in u1s {
                for u2 in u2s {
                    assert_eq!(
                        log_normal_micros(median, sigma, u1, u2),
                        libm_chain(median, sigma, u1, u2),
                        "({median} µs, σ {sigma}): u1 = {u1:e}, u2 = {u2:e}"
                    );
                    // Outside the ln table's domain the libm chain decides.
                    if u1 == 0.0 || u1 > FAST_MAX_U1 {
                        assert_eq!(fast_log_normal(median as f64, sigma, u1, u2), None);
                    }
                }
            }
        }
        // 40,000 · exp(0.5 · √(2 ln 2) · cos(π/4)) ≈ 60,652.25 is far from
        // a half-integer: the table kernels decide it.
        assert_eq!(
            fast_log_normal_micros(40_000.0, 0.5, 0.5, 0.125),
            Some(libm_chain(40_000, 0.5, 0.5, 0.125))
        );
        // σ = 0 makes y the median exactly: an integer is decided fast, an
        // exact half-integer never is.
        assert_eq!(fast_log_normal_micros(0.0, 0.0, 0.5, 0.5), Some(0));
        assert_eq!(fast_log_normal_micros(7.0, 0.0, 0.5, 0.5), Some(7));
        assert_eq!(fast_log_normal_micros(0.5, 0.0, 0.5, 0.5), None);
        assert_eq!(fast_log_normal_micros(2.5, 0.0, 0.5, 0.5), None);
        // So is a σ outside the fast domain, or a NaN.
        assert_eq!(fast_log_normal(40_000.0, 5.0, 0.5, 0.5), None);
        assert_eq!(fast_log_normal(40_000.0, f64::NAN, 0.5, 0.5), None);
    }

    #[test]
    fn log_normal_tables_match_libm() {
        let close = |table: f64, libm: f64, what: &str| {
            assert!(
                (table - libm).abs() <= 2.0 * f64::EPSILON * libm.abs().max(0.5),
                "{what}: table {table:e}, libm {libm:e}"
            );
        };
        for (j, [inv_c, ln_c]) in LN_CENTRES.iter().enumerate() {
            let c = 1.0 + (j as f64 + 0.5) / LN_STEPS as f64;
            close(*inv_c, 1.0 / c, "1/c");
            close(*ln_c, -2.0 * c.ln(), "−2 ln c");
        }
        for (k, cos) in COS_TURNS.iter().enumerate() {
            // Reduced to the first quarter, where libm's argument is exact
            // enough for the comparison.
            let a = (k % 64) as f64 * std::f64::consts::TAU / 256.0;
            let libm = [a.cos(), -a.sin(), -a.cos(), a.sin()][k / 64];
            close(*cos, libm, "cos");
        }
        for (i, exp2) in EXP2_FRACTIONS.iter().enumerate() {
            close(*exp2, (i as f64 / EXP_STEPS as f64).exp2(), "exp2");
        }
    }

    /// FNV-1a over the first `draws` samples of a log-normal stream.
    fn stream_digest(median: SimTime, sigma: f64, seed: u64, draws: usize) -> u64 {
        let mut model = LatencyModel::log_normal(median, sigma, seed);
        (0..draws).fold(0xcbf2_9ce4_8422_2325, |hash, _| {
            let micros = model
                .sample(PeerId(0), PeerId(1), SimTime::ZERO)
                .as_micros();
            (hash ^ micros).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn regional_latency_streams_are_pinned() {
        // The first 10⁵ draws of the regional presets as the libm chain drew
        // them; no committed fixture covers these streams.
        let intra = SimTime::from_millis(10);
        let inter = SimTime::from_millis(60);
        assert_eq!(stream_digest(intra, 0.3, 1, 100_000), 0x6ac8_3aaa_2c92_4230);
        assert_eq!(
            stream_digest(intra, 0.3, 0xBA70, 100_000),
            0xb285_7078_9b8e_e2a4
        );
        assert_eq!(stream_digest(inter, 0.5, 1, 100_000), 0xfca4_7506_e1cb_8e90);
        assert_eq!(
            stream_digest(inter, 0.5, 0xBA70, 100_000),
            0xc60b_aaae_67aa_3a64
        );
    }
}
