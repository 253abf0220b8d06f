//! The generic experiment driver: which overlays to run and how to build
//! and load them.
//!
//! Every figure driver in [`crate::figures`] is written against
//! `dyn Overlay` and a list of [`OverlaySpec`]s — there is exactly **one**
//! measurement loop per experiment, not one per system.  Adding a new
//! baseline to every figure therefore means adding one [`OverlaySpec`]
//! here (and implementing [`Overlay`] for the system), nothing else.  A
//! spec states only what the built overlay cannot answer for itself: its
//! series label, its constructors, its replication bound and its link-kind
//! taxonomy.  What the overlay serves, ranges and snapshots included, is
//! asked of the overlay (`reproduce --list` probes a two-node build).
//!
//! The list a run covers is an argument: [`select_overlays`] turns the names
//! of `reproduce --overlays` into specs, and every driver takes the
//! `&[OverlaySpec]` it should loop over — so a single overlay can be run or
//! debugged in isolation without touching any driver, and two runs in one
//! process cannot see each other's selection.

use baton_chord::ChordSystem;
use baton_core::{BatonConfig, BatonSystem, LoadBalanceConfig};
use baton_d3tree::D3TreeSystem;
use baton_mtree::MTreeSystem;
use baton_net::{LinkKind, Overlay, SimRng};
use baton_workload::{runner, DatasetPlan, KeyDistribution};

use crate::profile::Profile;

/// An overlay constructor: profile, node count, seed.
type BuildFn = fn(&Profile, usize, u64) -> Box<dyn Overlay>;

/// How to build one overlay system for an experiment.
pub struct OverlaySpec {
    /// Series label of the overlay ("BATON", "Chord", …): the name every
    /// figure, scenario row and trace prints.
    pub series: &'static str,
    build: BuildFn,
    /// Direct deterministic construction, for overlays that offer one.
    /// Behaviourally equivalent to `build` but not byte-identical, so it is
    /// only taken when explicitly requested (`build: Bulk` scenario knob,
    /// perf-harness scale rows).
    bulk: Option<BuildFn>,
    /// Largest replication degree the overlay's placement rule maintains:
    /// each key lives at its routed owner plus up to `max_replication − 1`
    /// deterministic replica peers (adjacent links, ring successors or
    /// bucket siblings, depending on the overlay).
    pub max_replication: usize,
    /// The link-kind taxonomy this overlay's route recorder emits: the
    /// tagged kinds of its send sites, plus `Notify` (fire-and-forget
    /// notifications) and, for BATON, `Other` (untagged protocol sends).
    /// `--list` prints this matrix.
    pub link_kinds: &'static [LinkKind],
}

/// Parses the value of a `--threads` flag, shared by `reproduce` and
/// `serve-bench` so both agree on validation: the value is required, must
/// be an unsigned integer, and must be at least 1.  When the flag is absent
/// entirely, `reproduce` defaults to [`baton_net::default_threads`]
/// (available parallelism) and `serve-bench` to one thread.
pub fn parse_threads(value: Option<String>) -> Result<usize, String> {
    let value = value.ok_or_else(|| "--threads needs a value".to_owned())?;
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        Ok(_) => Err("--threads needs at least 1".to_owned()),
        Err(_) => Err(format!(
            "--threads needs an unsigned integer, got '{value}'"
        )),
    }
}

impl OverlaySpec {
    /// Builds an overlay of `n` nodes for the given profile and seed.
    pub fn build(&self, profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
        (self.build)(profile, n, seed)
    }

    /// `true` if this overlay registers a bulk constructor.
    pub fn supports_bulk(&self) -> bool {
        self.bulk.is_some()
    }

    /// Builds an overlay of `n` nodes through the bulk fast path, falling
    /// back to the join-by-join build for overlays without one.
    pub fn build_bulk(&self, profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
        match self.bulk {
            Some(bulk) => bulk(profile, n, seed),
            None => self.build(profile, n, seed),
        }
    }
}

fn baton_config(profile: &Profile, n: usize) -> BatonConfig {
    // Load-balancing thresholds sized for the profile's expected average
    // load so that the skew experiments can trigger balancing while the
    // uniform ones mostly do not, as in the paper.
    let avg_load = (profile.dataset_size(n) / n.max(1)).max(4);
    BatonConfig::default().with_load_balance(LoadBalanceConfig::for_average_load(avg_load))
}

/// Builds the reference overlay as the concrete [`BatonSystem`], for the
/// BATON-only figures that read its per-level access load (8(f)) and balance
/// shift sizes (8(h)).  [`reference_overlay`] boxes the same construction.
pub fn build_baton_system(profile: &Profile, n: usize, seed: u64) -> BatonSystem {
    let config = baton_config(profile, n);
    BatonSystem::build(config, seed, n).expect("building the BATON overlay cannot fail")
}

fn build_baton(profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
    Box::new(build_baton_system(profile, n, seed))
}

fn bulk_baton(profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
    let config = baton_config(profile, n);
    Box::new(
        BatonSystem::bulk_build(config, seed, n)
            .expect("bulk-building the BATON overlay cannot fail"),
    )
}

fn build_chord(_profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
    Box::new(ChordSystem::build(seed, n).expect("building the Chord ring cannot fail"))
}

fn bulk_chord(_profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
    Box::new(ChordSystem::bulk_build(seed, n).expect("bulk-building the Chord ring cannot fail"))
}

fn build_mtree(_profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
    Box::new(MTreeSystem::build(seed, n).expect("building the multiway tree cannot fail"))
}

fn build_d3tree(_profile: &Profile, n: usize, seed: u64) -> Box<dyn Overlay> {
    Box::new(D3TreeSystem::build(seed, n).expect("building the D3-Tree cannot fail"))
}

/// The system under study: BATON.  Figures 8(f)–(i) plot it alone, as the
/// paper does; an overlay selection does not apply to them.  8(f) and 8(h)
/// read BATON-only measurements, so they build through
/// [`build_baton_system`] instead of this spec.
pub fn reference_overlay() -> OverlaySpec {
    OverlaySpec {
        series: super::figures::SERIES_BATON,
        build: build_baton,
        bulk: Some(bulk_baton),
        max_replication: BatonSystem::MAX_REPLICATION,
        link_kinds: &[
            LinkKind::Parent,
            LinkKind::Child,
            LinkKind::Adjacent,
            LinkKind::RoutingTable,
            LinkKind::Notify,
            LinkKind::Other,
        ],
    }
}

/// The systems of the comparison, in series order: BATON, the paper's two
/// baselines, then the post-paper baselines.
pub fn standard_overlays() -> Vec<OverlaySpec> {
    vec![
        reference_overlay(),
        OverlaySpec {
            series: super::figures::SERIES_CHORD,
            build: build_chord,
            bulk: Some(bulk_chord),
            max_replication: ChordSystem::MAX_REPLICATION,
            link_kinds: &[LinkKind::Successor, LinkKind::Finger, LinkKind::Notify],
        },
        OverlaySpec {
            series: super::figures::SERIES_MTREE,
            build: build_mtree,
            bulk: None,
            max_replication: MTreeSystem::MAX_REPLICATION,
            link_kinds: &[
                LinkKind::Parent,
                LinkKind::Child,
                LinkKind::Neighbor,
                LinkKind::Notify,
            ],
        },
        OverlaySpec {
            series: super::figures::SERIES_D3TREE,
            build: build_d3tree,
            bulk: None,
            max_replication: D3TreeSystem::MAX_REPLICATION,
            link_kinds: &[LinkKind::Backbone, LinkKind::Bucket, LinkKind::Notify],
        },
    ]
}

/// Series names of every known overlay, in the order of
/// [`standard_overlays`].
pub fn overlay_names() -> Vec<&'static str> {
    standard_overlays().into_iter().map(|s| s.series).collect()
}

/// Resolves series names (case-insensitive, duplicates collapsed) into the
/// specs a run should cover, in registry order; an empty list selects every
/// overlay.  Returns an error naming the first unknown overlay.
pub fn select_overlays(names: &[String]) -> Result<Vec<OverlaySpec>, String> {
    let mut specs = standard_overlays();
    if let Some(unknown) = names
        .iter()
        .find(|name| !specs.iter().any(|s| s.series.eq_ignore_ascii_case(name)))
    {
        let known = overlay_names();
        return Err(format!("unknown overlay '{unknown}'; available: {known:?}"));
    }
    if !names.is_empty() {
        specs.retain(|s| names.iter().any(|name| s.series.eq_ignore_ascii_case(name)));
    }
    Ok(specs)
}

/// Bulk-loads an overlay with the profile-scaled dataset, returning the
/// inserted `(key, value)` pairs.
///
/// Works on any [`Overlay`]; the paper's `1000 × N` volume is scaled by the
/// profile's `data_scale`.
pub fn load_overlay(
    profile: &Profile,
    overlay: &mut dyn Overlay,
    distribution: KeyDistribution,
    seed: u64,
) -> Vec<(u64, u64)> {
    let data = generate_dataset(profile, overlay.node_count(), distribution, seed);
    runner::bulk_load(overlay, &data).expect("bulk load cannot fail");
    data
}

/// Like [`load_overlay`], but places the dataset directly into the owning
/// nodes' stores when the overlay has a zero-message direct path
/// ([`Overlay::load_direct`]), falling back to routed inserts otherwise.
/// Bulk-built scenario runs use this so per-repetition setup cost does not
/// swamp the workload being measured; the default join-built path never
/// takes it.
pub fn load_overlay_direct(
    profile: &Profile,
    overlay: &mut dyn Overlay,
    distribution: KeyDistribution,
    seed: u64,
) -> Vec<(u64, u64)> {
    let data = generate_dataset(profile, overlay.node_count(), distribution, seed);
    if !overlay.load_direct(&data) {
        runner::bulk_load(overlay, &data).expect("bulk load cannot fail");
    }
    data
}

/// The profile-scaled `(key, value)` dataset both load paths insert.
fn generate_dataset(
    profile: &Profile,
    node_count: usize,
    distribution: KeyDistribution,
    seed: u64,
) -> Vec<(u64, u64)> {
    let plan = DatasetPlan {
        values_per_node: 1000,
        distribution,
    }
    .scaled(profile.data_scale);
    let mut rng = SimRng::seeded(seed ^ 0xDA7A);
    plan.generate(&mut rng, node_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_overlays_cover_every_comparison_system() {
        let profile = Profile::smoke();
        let specs = standard_overlays();
        assert_eq!(specs.len(), 4);
        let mut range_capable = 0;
        for spec in &specs {
            let overlay = spec.build(&profile, 15, 7);
            assert_eq!(overlay.node_count(), 15);
            overlay.validate().unwrap();
            if overlay.capabilities().range_queries {
                range_capable += 1;
            }
        }
        // BATON, the multiway tree and the D3-Tree; Chord cannot answer
        // range queries.
        assert_eq!(range_capable, 3);
    }

    #[test]
    fn every_overlay_accepts_its_advertised_replication_range() {
        let profile = Profile::smoke();
        for spec in standard_overlays() {
            let max_k = spec.max_replication;
            assert!(max_k >= 2, "{}: k = 2 must be available", spec.series);
            let mut overlay = spec.build(&profile, 20, 11);
            for k in 1..=max_k {
                overlay
                    .set_replication(k)
                    .unwrap_or_else(|e| panic!("{} rejected k = {k}: {e}", spec.series));
            }
            assert!(
                overlay.set_replication(max_k + 1).is_err(),
                "{} accepted k beyond its advertised max {max_k}",
                spec.series
            );
        }
    }

    #[test]
    fn bulk_builds_agree_with_the_advertised_capability() {
        let profile = Profile::smoke();
        for spec in standard_overlays() {
            // build_bulk always yields a usable overlay: the fast path when
            // one is registered, the join-by-join build otherwise.
            let bulk = spec.build_bulk(&profile, 12, 5);
            assert_eq!(bulk.node_count(), 12);
            bulk.validate().unwrap();
            if spec.supports_bulk() {
                assert_eq!(bulk.stats().total_sent(), 0);
            }
        }
    }

    #[test]
    fn load_overlay_scales_with_the_profile() {
        let profile = Profile::smoke();
        for spec in standard_overlays() {
            let mut overlay = spec.build(&profile, 10, 3);
            let data = load_overlay(&profile, &mut *overlay, KeyDistribution::Uniform, 3);
            assert_eq!(data.len(), profile.dataset_size(10));
            assert_eq!(overlay.total_items(), data.len());
        }
    }

    #[test]
    fn parse_threads_rejects_zero_and_garbage() {
        assert_eq!(parse_threads(Some("1".to_owned())), Ok(1));
        assert_eq!(parse_threads(Some("16".to_owned())), Ok(16));
        assert!(parse_threads(Some("0".to_owned())).is_err());
        assert!(parse_threads(Some("-2".to_owned())).is_err());
        assert!(parse_threads(Some("two".to_owned())).is_err());
        assert!(parse_threads(None).is_err());
    }
}
