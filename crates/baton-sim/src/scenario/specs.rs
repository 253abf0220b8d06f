//! The registered scenario plans.
//!
//! Each function here turns a [`Profile`] into a [`ScenarioPlan`] — and that
//! is *all* a scenario is.  The generic engine
//! ([`run_plan`](crate::scenario::run_plan)) handles every overlay, every
//! repetition and every output mode, so the plans below contain zero
//! per-overlay and zero per-renderer code.
//!
//! The two legacy plans (`latency_under_churn`, `flash_crowd`) reproduce the
//! pre-registry hand-rolled runners *byte for byte* (pinned by
//! `tests/fixtures/scenario_smoke_seed.json`): their rate arithmetic, seeds
//! and key-draw order are deliberately identical.

use baton_net::{LatencyPlan, LinkDegradation, RegionMap, RepairPolicy, SimTime};
use baton_workload::{
    FaultEvent, FaultKind, FaultPlan, KeyDistribution, KeyMix, KeyWindow, MetricsConfig, OpRates,
    Phase, PhasedWorkload, DOMAIN_HIGH, DOMAIN_LOW,
};

use crate::profile::Profile;

/// How the scenario's overlays are constructed before the workload runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BuildKind {
    /// Join-by-join construction — the default, and what every committed
    /// fixture was generated with.
    #[default]
    Join,
    /// The bulk fast path for overlays that register one
    /// ([`OverlaySpec::supports_bulk`](crate::driver::OverlaySpec::supports_bulk));
    /// the rest silently fall back to the join build.
    Bulk,
}

/// A declarative scenario: everything the generic engine needs to run it.
#[derive(Clone, Debug)]
pub struct ScenarioPlan {
    /// Human-readable description of the setup (the report heading).
    pub title: String,
    /// Network size (every overlay is built with this many nodes).
    pub n: usize,
    /// How the overlays are constructed ([`BuildKind::Join`] by default).
    pub build: BuildKind,
    /// Distribution of the bulk-loaded dataset.
    pub load: KeyDistribution,
    /// The link-latency topology, instantiated per repetition seed.
    pub latency: LatencyPlan,
    /// The phased open-loop workload.
    pub workload: PhasedWorkload,
    /// Timed fault events injected into the run.
    pub faults: FaultPlan,
    /// Replication degree k applied to every overlay after construction
    /// (clamped to each overlay's supported maximum).  1 — the default and
    /// every legacy plan — leaves the overlays byte-identical to the
    /// pre-replication engine.
    pub replicas: usize,
    /// Virtual-time metrics sampling for the first repetition of every
    /// overlay (`None` — every legacy plan — disables it and keeps the
    /// fixtures byte-identical).  The fault scenarios sample once per
    /// virtual second, turning their reports into dip-and-recover time
    /// series.
    pub metrics: Option<MetricsConfig>,
}

/// The scenario's network size: the profile's largest configured network.
fn scenario_n(profile: &Profile) -> usize {
    *profile
        .network_sizes
        .last()
        .expect("profile has network sizes")
}

/// `latency_under_churn` — the original template: an open-loop mix of
/// searches, range queries, inserts, joins, leaves and failures over
/// log-normal links, with 10% of the peers churning per virtual minute.
pub fn latency_under_churn_plan(profile: &Profile) -> ScenarioPlan {
    let n = scenario_n(profile);
    let duration = SimTime::from_secs(60);
    let search_rate = (profile.query_count() as f64 / duration.as_secs_f64()).max(0.2);
    // 10% of the peers churn per virtual minute, split between joins and
    // leaves; a quarter of the departures are abrupt failures (graceful on
    // overlays without a failure protocol).
    let churn_rate = (n as f64 * 0.10) / 2.0 / 60.0;
    let fail_rate = churn_rate / 4.0;
    ScenarioPlan {
        title: format!(
            "operation latency and throughput, N = {n}, 10% churn per virtual minute, \
             log-normal links (median 40ms, σ = 0.5)"
        ),
        n,
        build: BuildKind::default(),
        load: KeyDistribution::Uniform,
        latency: LatencyPlan::LogNormal {
            median: SimTime::from_millis(40),
            sigma: 0.5,
        },
        workload: PhasedWorkload::single(
            duration,
            OpRates {
                search: search_rate,
                range: search_rate / 4.0,
                insert: search_rate / 2.0,
                join: churn_rate,
                leave: churn_rate - fail_rate,
                fail: fail_rate,
            },
            KeyMix::Uniform,
        ),
        faults: FaultPlan::none(),
        replicas: 1,
        metrics: None,
    }
}

/// `flash_crowd` — a steady open-loop mix whose search, range and insert
/// keys collapse onto a hot 1% slice of the domain for the middle 20
/// virtual seconds of the run: the whole crowd hammers the few peers owning
/// the hot slice.
pub fn flash_crowd_plan(profile: &Profile) -> ScenarioPlan {
    let n = scenario_n(profile);
    let duration = SimTime::from_secs(60);
    // A denser query stream than the churn scenario: the crowd is the load.
    let search_rate = (profile.query_count() as f64 / duration.as_secs_f64() * 5.0).max(2.0);
    let hot_width = (DOMAIN_HIGH - DOMAIN_LOW) / 100;
    let mut workload = PhasedWorkload::single(
        duration,
        OpRates {
            search: search_rate,
            range: search_rate / 8.0,
            insert: search_rate / 4.0,
            ..OpRates::zero()
        },
        KeyMix::Uniform,
    );
    workload.windows.push(KeyWindow {
        from: SimTime::from_secs(20),
        until: SimTime::from_secs(40),
        keys: KeyMix::HotSlice {
            low: DOMAIN_LOW,
            high: DOMAIN_LOW + hot_width,
        },
    });
    ScenarioPlan {
        title: format!(
            "flash crowd, N = {n}: keys collapse onto the hottest 1% of the domain \
             during t = [20s, 40s), log-normal links (median 40ms, σ = 0.5)"
        ),
        n,
        build: BuildKind::default(),
        load: KeyDistribution::Uniform,
        latency: LatencyPlan::LogNormal {
            median: SimTime::from_millis(40),
            sigma: 0.5,
        },
        workload,
        faults: FaultPlan::none(),
        replicas: 1,
        metrics: None,
    }
}

/// The regional latency topology shared by the fault and degradation
/// scenarios: four regions, tight 10ms intra-region links, 60ms
/// inter-region links (both log-normal).
fn four_regions(profile: &Profile, salt: u64) -> (RegionMap, LatencyPlan) {
    let map = RegionMap::new(4, profile.seed ^ salt);
    let latency = LatencyPlan::Regional {
        map,
        intra: Box::new(LatencyPlan::LogNormal {
            median: SimTime::from_millis(10),
            sigma: 0.3,
        }),
        inter: Box::new(LatencyPlan::LogNormal {
            median: SimTime::from_millis(60),
            sigma: 0.5,
        }),
        degradations: Vec::new(),
    };
    (map, latency)
}

/// `regional_failure` — a correlated failure: at t = 20s half of region 1
/// fails *at once* (every victim shares the region, as when a data centre
/// goes dark), and a 20-second recovery window of elevated joins refills
/// the overlay before a steady closing phase.
pub fn regional_failure_plan(profile: &Profile) -> ScenarioPlan {
    let n = scenario_n(profile);
    let (map, latency) = four_regions(profile, 0x9E61);
    let phase_len = SimTime::from_secs(20);
    let search_rate = (profile.query_count() as f64 / 60.0).max(0.5);
    let steady = OpRates {
        search: search_rate,
        range: search_rate / 4.0,
        insert: search_rate / 2.0,
        ..OpRates::zero()
    };
    // Region 1 holds ~n/4 peers; killing half loses ~n/8. The recovery
    // phase replaces them over its 20 seconds.
    let recovery_join = (n as f64 / 8.0) / 20.0;
    ScenarioPlan {
        title: format!(
            "correlated regional failure, N = {n}: 50% of region 1 (of 4) fails at \
             t = 20s, joins refill during t = [20s, 40s); log-normal links \
             (intra 10ms, inter 60ms)"
        ),
        n,
        build: BuildKind::default(),
        load: KeyDistribution::Uniform,
        latency,
        workload: PhasedWorkload {
            phases: vec![
                Phase {
                    duration: phase_len,
                    rates: steady,
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: phase_len,
                    rates: OpRates {
                        join: recovery_join,
                        ..steady
                    },
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: phase_len,
                    rates: steady,
                    keys: KeyMix::Uniform,
                },
            ],
            windows: Vec::new(),
            range_selectivity: 0.001,
        },
        faults: FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(20),
            kind: FaultKind::KillRegion {
                map,
                region: 1,
                fraction: 0.5,
            },
        }])
        .with_repair(repair_policy()),
        replicas: 1,
        metrics: Some(MetricsConfig::default()),
    }
}

/// The repair timing shared by the deferred-failure scenarios: a surviving
/// replica streams the slice back in ~250ms; with no replica the slice
/// waits out a ~10s timeout-detected rebuild.
fn repair_policy() -> RepairPolicy {
    RepairPolicy {
        fast: SimTime::from_millis(250),
        slow: SimTime::from_secs(10),
    }
}

/// `cascading_failure` — two correlated waves: half of region 1 fails at
/// t = 15s and, before its repairs can finish, half of region 2 follows at
/// t = 30s.  Elevated joins refill the overlay after each wave.  Victims
/// stay dead until their timed repair runs, so the scenario measures
/// availability under compounding damage — the regime where replication
/// degree decides whether exact-match reads keep answering.
pub fn cascading_failure_plan(profile: &Profile) -> ScenarioPlan {
    let n = scenario_n(profile);
    let (map, latency) = four_regions(profile, 0xCA5C);
    let phase_len = SimTime::from_secs(15);
    let search_rate = (profile.query_count() as f64 / 60.0).max(0.5);
    let steady = OpRates {
        search: search_rate,
        range: search_rate / 4.0,
        insert: search_rate / 2.0,
        ..OpRates::zero()
    };
    // Each wave kills ~n/8 peers; the following phase replaces them.
    let recovery_join = (n as f64 / 8.0) / 15.0;
    ScenarioPlan {
        title: format!(
            "cascading regional failures, N = {n}: 50% of region 1 fails at t = 15s \
             and 50% of region 2 at t = 30s, joins refill after each wave; \
             timed repair (fast 250ms / slow 10s), log-normal links \
             (intra 10ms, inter 60ms)"
        ),
        n,
        build: BuildKind::default(),
        load: KeyDistribution::Uniform,
        latency,
        workload: PhasedWorkload {
            phases: vec![
                Phase {
                    duration: phase_len,
                    rates: steady,
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: phase_len,
                    rates: OpRates {
                        join: recovery_join,
                        ..steady
                    },
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: phase_len,
                    rates: OpRates {
                        join: recovery_join,
                        ..steady
                    },
                    keys: KeyMix::Uniform,
                },
                Phase {
                    duration: phase_len,
                    rates: steady,
                    keys: KeyMix::Uniform,
                },
            ],
            windows: Vec::new(),
            range_selectivity: 0.001,
        },
        faults: FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::from_secs(15),
                kind: FaultKind::KillRegion {
                    map,
                    region: 1,
                    fraction: 0.5,
                },
            },
            FaultEvent {
                at: SimTime::from_secs(30),
                kind: FaultKind::KillRegion {
                    map,
                    region: 2,
                    fraction: 0.5,
                },
            },
        ])
        .with_repair(repair_policy()),
        replicas: 1,
        metrics: Some(MetricsConfig::default()),
    }
}

/// `degraded_links` — the topology stays intact but the *network* does not:
/// from t = 20s the inter-region links ramp up to 5× their base latency
/// over five seconds, stay degraded until t = 45s, then recover.  Intra-
/// region traffic is unaffected; the report shows how much of each
/// overlay's routing crosses regions.
pub fn degraded_links_plan(profile: &Profile) -> ScenarioPlan {
    let n = scenario_n(profile);
    let (_, mut latency) = four_regions(profile, 0xD154);
    if let LatencyPlan::Regional { degradations, .. } = &mut latency {
        degradations.push(LinkDegradation {
            from: SimTime::from_secs(20),
            until: SimTime::from_secs(45),
            ramp: SimTime::from_secs(5),
            factor: 5.0,
        });
    }
    let search_rate = (profile.query_count() as f64 / 60.0).max(0.5);
    ScenarioPlan {
        title: format!(
            "degraded links, N = {n}: inter-region latency ramps to 5× during \
             t = [20s, 45s) (5s ramp); 4 regions, log-normal links \
             (intra 10ms, inter 60ms)"
        ),
        n,
        build: BuildKind::default(),
        load: KeyDistribution::Uniform,
        latency,
        workload: PhasedWorkload::single(
            SimTime::from_secs(60),
            OpRates {
                search: search_rate,
                range: search_rate / 4.0,
                insert: search_rate / 2.0,
                ..OpRates::zero()
            },
            KeyMix::Uniform,
        ),
        faults: FaultPlan::none(),
        replicas: 1,
        metrics: None,
    }
}

/// `skew_ramp` — a read/write mix whose key skew tightens over time: the
/// first 20 seconds draw from Zipf(0.5), the next from Zipf(0.9), the last
/// from Zipf(1.3).  Ever more of the traffic lands on ever fewer peers,
/// which is exactly the regime the load-balancing baselines were built for.
pub fn skew_ramp_plan(profile: &Profile) -> ScenarioPlan {
    let n = scenario_n(profile);
    let phase_len = SimTime::from_secs(20);
    let search_rate = (profile.query_count() as f64 / 60.0).max(0.5);
    let rates = OpRates {
        search: search_rate,
        range: search_rate / 4.0,
        insert: search_rate / 2.0,
        ..OpRates::zero()
    };
    let phase = |theta: f64| Phase {
        duration: phase_len,
        rates,
        keys: KeyMix::Zipf { theta },
    };
    ScenarioPlan {
        title: format!(
            "skew ramp, N = {n}: read/write keys tighten from Zipf(θ = 0.5) through \
             Zipf(θ = 0.9) to Zipf(θ = 1.3) in 20s phases, log-normal links \
             (median 40ms, σ = 0.5)"
        ),
        n,
        build: BuildKind::default(),
        load: KeyDistribution::Uniform,
        latency: LatencyPlan::LogNormal {
            median: SimTime::from_millis(40),
            sigma: 0.5,
        },
        workload: PhasedWorkload {
            phases: vec![phase(0.5), phase(0.9), phase(1.3)],
            windows: Vec::new(),
            range_selectivity: 0.001,
        },
        faults: FaultPlan::none(),
        replicas: 1,
        metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_plans_keep_the_pre_registry_shape() {
        let profile = Profile::smoke();
        let churn = latency_under_churn_plan(&profile);
        assert_eq!(churn.n, 80);
        assert_eq!(churn.workload.phases.len(), 1);
        assert!(churn.workload.windows.is_empty());
        assert!(churn.faults.is_empty());
        let rates = churn.workload.phases[0].rates;
        // 10% of 80 peers per minute, split between joins and departures,
        // a quarter of which are abrupt.
        let churn_rate = 80.0 * 0.10 / 2.0 / 60.0;
        assert!((rates.join - churn_rate).abs() < 1e-12);
        assert!((rates.fail - churn_rate / 4.0).abs() < 1e-12);
        assert!((rates.leave - (churn_rate - churn_rate / 4.0)).abs() < 1e-12);

        let crowd = flash_crowd_plan(&profile);
        assert_eq!(crowd.workload.phases.len(), 1);
        assert_eq!(crowd.workload.windows.len(), 1);
        let window = crowd.workload.windows[0];
        assert_eq!(window.from, SimTime::from_secs(20));
        assert_eq!(window.until, SimTime::from_secs(40));
        assert!(matches!(window.keys, KeyMix::HotSlice { .. }));
    }

    #[test]
    fn new_plans_declare_their_stress() {
        let profile = Profile::smoke();
        let regional = regional_failure_plan(&profile);
        assert_eq!(regional.workload.phases.len(), 3);
        assert_eq!(regional.faults.events().len(), 1);
        assert!(matches!(
            regional.faults.events()[0].kind,
            FaultKind::KillRegion { region: 1, .. }
        ));
        assert!(matches!(regional.latency, LatencyPlan::Regional { .. }));
        // Deferred kills: victims wait out the repair policy's delay.
        let policy = regional.faults.repair().expect("regional defers repairs");
        assert!(policy.fast < policy.slow);

        let cascading = cascading_failure_plan(&profile);
        assert_eq!(cascading.workload.phases.len(), 4);
        assert_eq!(cascading.faults.events().len(), 2);
        assert!(cascading.faults.events()[0].at < cascading.faults.events()[1].at);
        let regions: Vec<u32> = cascading
            .faults
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::KillRegion { region, .. } => region,
                other => panic!("cascading wants regional kills, got {other:?}"),
            })
            .collect();
        assert_eq!(regions, vec![1, 2], "the waves hit different regions");
        assert_eq!(cascading.faults.repair(), Some(&repair_policy()));
        assert_eq!(cascading.replicas, 1, "k stays a CLI / caller knob");

        let degraded = degraded_links_plan(&profile);
        assert!(degraded.faults.is_empty());
        match &degraded.latency {
            LatencyPlan::Regional { degradations, .. } => {
                assert_eq!(degradations.len(), 1);
                assert_eq!(degradations[0].factor, 5.0);
            }
            other => panic!("degraded_links wants a regional plan, got {other:?}"),
        }

        let skew = skew_ramp_plan(&profile);
        assert_eq!(skew.workload.phases.len(), 3);
        let thetas: Vec<f64> = skew
            .workload
            .phases
            .iter()
            .map(|p| match p.keys {
                KeyMix::Zipf { theta } => theta,
                other => panic!("skew phase wants zipf keys, got {other:?}"),
            })
            .collect();
        assert!(
            thetas.windows(2).all(|w| w[0] < w[1]),
            "skew must tighten: {thetas:?}"
        );
    }

    #[test]
    fn region_salts_differ_between_scenarios() {
        // Shared helper, different salts: the two regional scenarios must
        // not accidentally reuse one region assignment.
        let profile = Profile::smoke();
        let region_map = |plan: ScenarioPlan| match plan.latency {
            LatencyPlan::Regional { map, .. } => map,
            other => panic!("wants a regional plan, got {other:?}"),
        };
        let a = region_map(regional_failure_plan(&profile));
        let b = region_map(degraded_links_plan(&profile));
        let c = region_map(cascading_failure_plan(&profile));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
