//! Phased open-loop workloads: the declarative core of every time-domain
//! scenario.
//!
//! A [`PhasedWorkload`] is a sequence of [`Phase`]s — each a span of virtual
//! time with its own per-class arrival rates ([`OpRates`]) and its own key
//! distribution ([`KeyMix`]) — plus optional [`KeyWindow`] overrides that
//! re-aim the data keys for a timed slice of the run (the generalisation of
//! the old flash-crowd `HotBurst`).  The schedule is a piecewise-constant
//! Poisson process per class: rates can step at phase boundaries while each
//! class keeps one continuous seeded arrival stream, so a single-phase
//! workload reproduces the legacy single-rate schedule *bit for bit* (the
//! fixture guarantee the scenario engine is pinned to).

use baton_net::{SimRng, SimTime};

use crate::keys::{KeyDistribution, KeyGenerator};
use crate::openloop::{ArrivalEvent, OpClass};

/// Arrival rates of every operation class, per virtual second.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpRates {
    /// Exact-match queries per virtual second.
    pub search: f64,
    /// Range queries per virtual second.
    pub range: f64,
    /// Inserts per virtual second.
    pub insert: f64,
    /// Joins per virtual second.
    pub join: f64,
    /// Graceful departures per virtual second.
    pub leave: f64,
    /// Abrupt failures per virtual second.
    pub fail: f64,
}

impl OpRates {
    /// No arrivals at all (the rates of a quiet phase).
    pub fn zero() -> Self {
        Self::default()
    }

    /// Query-only rates: `search` exact queries per second, nothing else.
    pub fn queries(search: f64) -> Self {
        Self {
            search,
            ..Self::zero()
        }
    }

    /// Rate of `class` arrivals, per virtual second.
    pub fn rate(&self, class: OpClass) -> f64 {
        match class {
            OpClass::Search => self.search,
            OpClass::Range => self.range,
            OpClass::Insert => self.insert,
            OpClass::Join => self.join,
            OpClass::Leave => self.leave,
            OpClass::Fail => self.fail,
        }
    }
}

/// The key distribution of one phase (or one override window): where
/// searches, range-query lower bounds and inserts aim their keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyMix {
    /// Uniform over the paper's whole `[1, 10^9)` domain.
    Uniform,
    /// Uniform over a hot sub-slice `[low, high)` of the domain — the
    /// flash-crowd ingredient.
    HotSlice {
        /// Inclusive lower bound of the hot slice.
        low: u64,
        /// Exclusive upper bound of the hot slice.
        high: u64,
    },
    /// Zipfian over the whole domain with exponent `theta`; larger `theta`
    /// concentrates more of the traffic on fewer keys.
    Zipf {
        /// Zipf exponent.
        theta: f64,
    },
}

impl KeyMix {
    /// Builds the deterministic generator this mix draws keys from.
    pub fn generator(&self) -> KeyGenerator {
        match self {
            KeyMix::Uniform => KeyGenerator::paper(KeyDistribution::Uniform),
            KeyMix::HotSlice { low, high } => {
                KeyGenerator::new(*low, *high, KeyDistribution::Uniform)
            }
            KeyMix::Zipf { theta } => KeyGenerator::paper(KeyDistribution::Zipf { theta: *theta }),
        }
    }
}

/// One span of a phased workload: how long it lasts, what arrives during it
/// and where the data keys aim.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Virtual length of the phase.
    pub duration: SimTime,
    /// Per-class arrival rates during the phase.
    pub rates: OpRates,
    /// Key distribution of searches, ranges and inserts that arrive during
    /// the phase (unless a [`KeyWindow`] override covers the arrival).
    pub keys: KeyMix,
}

/// A timed key-distribution override: while the window covers an arrival,
/// its keys are drawn from `keys` instead of the covering phase's mix.
///
/// This is the generalisation of the old `HotBurst`: a burst is a window
/// whose mix is a [`KeyMix::HotSlice`], but a window can equally impose a
/// Zipf mix or re-aim traffic at any slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeyWindow {
    /// Virtual instant the override starts (inclusive).
    pub from: SimTime,
    /// Virtual instant it ends (exclusive).
    pub until: SimTime,
    /// The mix in force while the window covers an arrival.
    pub keys: KeyMix,
}

impl KeyWindow {
    /// `true` while the window is active at `at`.
    pub fn covers(&self, at: SimTime) -> bool {
        at >= self.from && at < self.until
    }
}

/// A declarative open-loop workload: phases, key-window overrides and the
/// range-query shape.
#[derive(Clone, Debug, PartialEq)]
pub struct PhasedWorkload {
    /// The phases, in order; the run is their concatenation.
    pub phases: Vec<Phase>,
    /// Timed key overrides (checked in order; the first covering window
    /// wins).
    pub windows: Vec<KeyWindow>,
    /// Width of each range query as a fraction of the domain.
    pub range_selectivity: f64,
}

impl PhasedWorkload {
    /// A single-phase workload with the given duration, rates and key mix —
    /// the shape of every pre-phase scenario.
    pub fn single(duration: SimTime, rates: OpRates, keys: KeyMix) -> Self {
        Self {
            phases: vec![Phase {
                duration,
                rates,
                keys,
            }],
            windows: Vec::new(),
            range_selectivity: 0.001,
        }
    }

    /// A query-only single phase: `search` exact queries per second over
    /// uniform keys.
    pub fn queries_only(duration: SimTime, search: f64) -> Self {
        Self::single(duration, OpRates::queries(search), KeyMix::Uniform)
    }

    /// Total virtual length of the run (the phases' concatenation).
    pub fn duration(&self) -> SimTime {
        self.phases
            .iter()
            .fold(SimTime::ZERO, |acc, p| acc + p.duration)
    }

    /// Draws the merged arrival schedule: one piecewise-constant-rate
    /// Poisson process per class (each class's exponential hazard stream
    /// carries across phase boundaries), merged and sorted by arrival time.
    ///
    /// Deterministic for a given `rng` seed; ties are broken by class order.
    /// For a single-phase workload this reduces — draw for draw and
    /// float-op for float-op — to the legacy constant-rate schedule.
    pub fn schedule(&self, rng: &mut SimRng) -> Vec<ArrivalEvent> {
        let duration = self.duration();
        // Phase ends in whole-run seconds, for the hazard arithmetic.
        let ends: Vec<f64> = {
            let mut acc = SimTime::ZERO;
            self.phases
                .iter()
                .map(|p| {
                    acc += p.duration;
                    acc.as_secs_f64()
                })
                .collect()
        };
        let mut events = Vec::new();
        for class in OpClass::ALL {
            // A class with no arrivals anywhere draws nothing at all — the
            // legacy scheduler's `rate <= 0` skip, phase-wise.
            if self.phases.iter().all(|p| p.rates.rate(class) <= 0.0) {
                continue;
            }
            let mut class_rng = rng.derive(class as u64 + 1);
            let mut t = 0.0f64; // seconds since the start of the run
            let mut phase = 0usize;
            'arrivals: loop {
                let u = class_rng.uniform_f64().max(f64::MIN_POSITIVE);
                let mut excess = -u.ln();
                // Spend the hazard across phases at each phase's rate.
                loop {
                    if phase >= self.phases.len() {
                        break 'arrivals;
                    }
                    let rate = self.phases[phase].rates.rate(class);
                    let end = ends[phase];
                    if rate > 0.0 {
                        let dt = excess / rate;
                        if t + dt < end {
                            t += dt;
                            break;
                        }
                        excess -= (end - t) * rate;
                    }
                    t = end;
                    phase += 1;
                }
                let at = SimTime::from_micros((t * 1_000_000.0) as u64);
                if at >= duration {
                    break;
                }
                events.push(ArrivalEvent { at, class });
            }
        }
        events.sort_by_key(|e| (e.at, e.class));
        events
    }

    /// Precomputes every key generator the run needs (Zipf CDF tables are
    /// built once here, not per draw).
    pub fn resolve_keys(&self) -> ResolvedKeys {
        let mut acc = SimTime::ZERO;
        let phase_gens = self
            .phases
            .iter()
            .map(|p| {
                acc += p.duration;
                (acc, p.keys.generator())
            })
            .collect();
        let window_gens = self
            .windows
            .iter()
            .map(|w| (*w, w.keys.generator()))
            .collect();
        ResolvedKeys {
            phase_gens,
            window_gens,
        }
    }
}

/// The workload's key generators, resolved per phase and per window.
#[derive(Clone, Debug)]
pub struct ResolvedKeys {
    /// `(phase end, generator)` per phase, in order.
    phase_gens: Vec<(SimTime, KeyGenerator)>,
    /// `(window, generator)` per override, in order.
    window_gens: Vec<(KeyWindow, KeyGenerator)>,
}

impl ResolvedKeys {
    /// Draws the data key of an operation arriving at `at`: from the first
    /// covering override window, else from the covering phase's mix (the
    /// last phase also serves arrivals at or past the run's end).
    pub fn draw(&self, at: SimTime, rng: &mut SimRng) -> u64 {
        for (window, generator) in &self.window_gens {
            if window.covers(at) {
                return generator.next_key(rng);
            }
        }
        let generator = self
            .phase_gens
            .iter()
            .find(|(end, _)| at < *end)
            .map(|(_, g)| g)
            .unwrap_or(&self.phase_gens.last().expect("workload has phases").1);
        generator.next_key(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{DOMAIN_HIGH, DOMAIN_LOW};

    #[test]
    fn single_phase_schedule_is_sorted_deterministic_and_rate_proportional() {
        let workload = PhasedWorkload::single(
            SimTime::from_secs(100),
            OpRates {
                search: 10.0,
                insert: 2.0,
                join: 1.0,
                leave: 1.0,
                ..OpRates::zero()
            },
            KeyMix::Uniform,
        );
        let events = workload.schedule(&mut SimRng::seeded(1));
        let again = workload.schedule(&mut SimRng::seeded(1));
        assert_eq!(events, again);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "unsorted");
        assert!(events.iter().all(|e| e.at < workload.duration()));
        let count = |c: OpClass| events.iter().filter(|e| e.class == c).count();
        let searches = count(OpClass::Search);
        let inserts = count(OpClass::Insert);
        assert_eq!(count(OpClass::Range), 0);
        assert_eq!(count(OpClass::Fail), 0);
        // ~1000 searches, ~200 inserts: Poisson noise stays well inside 2x.
        assert!((500..2000).contains(&searches), "searches = {searches}");
        assert!((100..400).contains(&inserts), "inserts = {inserts}");
    }

    #[test]
    fn phase_rates_step_at_the_boundary() {
        // 0–50s at 2/s, 50–100s at 20/s: the second half must carry roughly
        // ten times the arrivals of the first.
        let workload = PhasedWorkload {
            phases: vec![
                Phase {
                    duration: SimTime::from_secs(50),
                    rates: OpRates::queries(2.0),
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: SimTime::from_secs(50),
                    rates: OpRates::queries(20.0),
                    keys: KeyMix::Uniform,
                },
            ],
            windows: Vec::new(),
            range_selectivity: 0.001,
        };
        let events = workload.schedule(&mut SimRng::seeded(7));
        let split = SimTime::from_secs(50);
        let first = events.iter().filter(|e| e.at < split).count();
        let second = events.iter().filter(|e| e.at >= split).count();
        assert!((50..200).contains(&first), "first half = {first}");
        assert!((700..1300).contains(&second), "second half = {second}");
        assert_eq!(workload.duration(), SimTime::from_secs(100));
    }

    #[test]
    fn a_quiet_phase_suspends_arrivals_without_breaking_the_stream() {
        let workload = PhasedWorkload {
            phases: vec![
                Phase {
                    duration: SimTime::from_secs(30),
                    rates: OpRates::queries(10.0),
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: SimTime::from_secs(30),
                    rates: OpRates::zero(),
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: SimTime::from_secs(30),
                    rates: OpRates::queries(10.0),
                    keys: KeyMix::Uniform,
                },
            ],
            windows: Vec::new(),
            range_selectivity: 0.001,
        };
        let events = workload.schedule(&mut SimRng::seeded(3));
        assert!(!events.is_empty());
        assert!(!events
            .iter()
            .any(|e| e.at >= SimTime::from_secs(30) && e.at < SimTime::from_secs(60)));
        assert!(events.iter().any(|e| e.at >= SimTime::from_secs(60)));
    }

    #[test]
    fn key_windows_override_the_phase_mix() {
        let workload = PhasedWorkload {
            phases: vec![Phase {
                duration: SimTime::from_secs(60),
                rates: OpRates::queries(1.0),
                keys: KeyMix::Uniform,
            }],
            windows: vec![KeyWindow {
                from: SimTime::from_secs(20),
                until: SimTime::from_secs(40),
                keys: KeyMix::HotSlice {
                    low: 100,
                    high: 200,
                },
            }],
            range_selectivity: 0.001,
        };
        let resolved = workload.resolve_keys();
        let mut rng = SimRng::seeded(5);
        for _ in 0..200 {
            let hot = resolved.draw(SimTime::from_secs(30), &mut rng);
            assert!((100..200).contains(&hot), "hot draw {hot} outside slice");
        }
        // Outside the window the phase mix rules: uniform over the domain
        // will leave the tiny slice almost immediately.
        let outside = (0..200)
            .map(|_| resolved.draw(SimTime::from_secs(50), &mut rng))
            .filter(|k| (100..200).contains(k))
            .count();
        assert!(outside < 5, "{outside}/200 cold draws hit the hot slice");
    }

    #[test]
    fn zipf_phases_skew_harder_with_theta() {
        let gen_for = |theta: f64| KeyMix::Zipf { theta }.generator();
        let first_percent = DOMAIN_LOW + (DOMAIN_HIGH - DOMAIN_LOW) / 100;
        let mut rng = SimRng::seeded(11);
        let hits = |g: &KeyGenerator, rng: &mut SimRng| {
            (0..2000)
                .map(|_| g.next_key(rng))
                .filter(|k| *k < first_percent)
                .count()
        };
        let soft = hits(&gen_for(0.6), &mut rng);
        let hard = hits(&gen_for(1.2), &mut rng);
        assert!(
            hard > soft,
            "zipf(1.2) should out-skew zipf(0.6): {hard} vs {soft}"
        );
    }
}
