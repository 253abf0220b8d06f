//! The benchmark's contract with its driver and with later issues: names,
//! the committed `BENCHMARK.json`, the statistics rules, and repeatability
//! of every simulated metric.

use std::collections::BTreeSet;
use std::path::PathBuf;

use baton_benchmarks::catalog::{self, Clock, END_TO_END, PER_LAYER, WORKLOADS};
use baton_benchmarks::repeat::parse_metric_lines;
use baton_benchmarks::runner::{self, Options, RunResult};
use baton_benchmarks::stats::{median, percentile, quartiles, spread, supported_tail, tail};
use baton_benchmarks::workload::Scale;

fn smoke(workload: &str, seed: u64, trace: bool) -> RunResult {
    let options = Options {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    runner::run(&options).expect("a catalog workload runs")
}

fn is_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_and_units_stay_inside_the_contract_alphabet() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(seen.insert(w.name), "{} is used twice", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(is_name(m.name), "metric name {}", m.name);
        assert!(is_unit(m.unit), "unit {} of {}", m.unit, m.name);
        assert!(
            matches!(m.better, "lower" | "higher"),
            "better of {}",
            m.name
        );
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = catalog::metric("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}

#[test]
fn committed_benchmark_json_is_the_catalog() {
    let committed = include_str!("../../BENCHMARK.json");
    assert_eq!(
        committed,
        catalog::benchmark_json(),
        "regenerate with `benchmarks/run.sh --print-benchmark-json > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn every_catalog_name_is_emitted_and_simulated_metrics_repeat() {
    for w in &WORKLOADS {
        let first = smoke(w.name, 7, false);
        let again = smoke(w.name, 7, false);
        assert!(first.correct, "{} is not correct at smoke size", w.name);
        assert_eq!(first.failed, 0);
        assert!(first.attempted >= 1);

        let names: Vec<&str> = first.metrics.iter().map(|m| m.info.name).collect();
        let wanted: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, wanted, "{} end-to-end names", w.name);
        for (a, b) in first.metrics.iter().zip(&again.metrics) {
            assert!(
                a.value.is_finite() && a.value != 0.0,
                "{} {} reads {}",
                w.name,
                a.info.name,
                a.value
            );
            if a.info.clock == Clock::Sim {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "{} {} differs between two runs of one seed",
                    w.name,
                    a.info.name
                );
            }
        }

        let layers = smoke(w.name, 7, true);
        assert!(layers.correct, "{} traced run is not correct", w.name);
        let names: Vec<&str> = layers.metrics.iter().map(|m| m.info.name).collect();
        let wanted: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, wanted, "{} per-layer names", w.name);
        assert!(layers.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn result_line_is_one_json_object_with_the_four_keys() {
    let json = smoke("serve_read", 3, false).to_json();
    assert!(!json.contains('\n'));
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"metrics\":{",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    for m in &END_TO_END {
        assert!(json.contains(&format!("\"{}\":{{\"value\":", m.name)));
    }
}

#[test]
fn metric_lines_parse_back() {
    let text = "host: nproc 2\nmetric serve_read ops_per_s 1988136.41 1/s host q1=1 q3=2 n=3\n\
                metric serve_read availability 1 ratio sim exact\nresult serve_read correct=true";
    assert_eq!(
        parse_metric_lines(text),
        vec![
            ("ops_per_s".to_owned(), "1988136.41".to_owned()),
            ("availability".to_owned(), "1".to_owned())
        ]
    );
}

#[test]
fn a_tail_needs_ten_samples_beyond_it() {
    assert_eq!(supported_tail(10_000), Some(99.9));
    assert_eq!(supported_tail(9_999), Some(99.0));
    assert_eq!(supported_tail(1_000), Some(99.0));
    assert_eq!(supported_tail(999), Some(95.0));
    assert_eq!(supported_tail(200), Some(95.0));
    assert_eq!(supported_tail(199), Some(90.0));
    assert_eq!(supported_tail(40), Some(75.0));
    assert_eq!(supported_tail(39), None);

    let samples: Vec<f64> = (1..=500).map(f64::from).collect();
    // 500 samples support the 95th percentile, not the 99th.
    assert_eq!(tail(&samples, 99.0), (95.0, 475.0));
    assert_eq!(tail(&samples, 90.0), (90.0, 450.0));
    let few: Vec<f64> = (1..=16).map(f64::from).collect();
    assert_eq!(tail(&few, 99.0), (50.0, 8.0));
    assert_eq!(percentile(&samples, 50.0), 250.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn quartiles_follow_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(spread(&ten), 1.0);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn the_model_key_is_what_each_overlay_counts_by() {
    use baton_benchmarks::sut;
    use std::collections::HashMap;

    // Two distinct keys with one identifier on Chord's 2^32 ring: the
    // birthday bound puts the first such pair near 80,000 keys.
    let specs = sut::comparison_overlays();
    let chord = specs.iter().find(|s| s.series == "Chord").expect("Chord");
    let baton = specs.iter().find(|s| s.series == "BATON").expect("BATON");
    let mut ring = sut::join_build(chord, 32, 0, 7);
    let mut seen = HashMap::new();
    let (a, b) = (1u64..)
        .find_map(|key| {
            seen.insert(sut::stored_key(&*ring, key), key)
                .map(|earlier| (earlier, key))
        })
        .expect("a 32-bit identifier collides");
    assert_ne!(a, b);

    sut::insert(&mut *ring, a, 0).expect("insert");
    sut::insert(&mut *ring, b, 0).expect("insert");
    assert_eq!(sut::exact(&mut *ring, a).expect("exact").matches, 2);

    let mut tree = sut::join_build(baton, 32, 0, 7);
    assert_eq!(sut::stored_key(&*tree, a), a);
    sut::insert(&mut *tree, a, 0).expect("insert");
    sut::insert(&mut *tree, b, 0).expect("insert");
    assert_eq!(sut::exact(&mut *tree, a).expect("exact").matches, 1);
}
