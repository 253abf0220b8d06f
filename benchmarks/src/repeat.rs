//! `--repeat K`: runs K full sets, each workload in its own process, and
//! holds the spread of every end-to-end metric against its bound.

use std::collections::BTreeMap;
use std::process::Command;

use crate::catalog::{self, Clock};
use crate::stats::{median, spread};

/// The flags a set passes on to each workload process.
#[derive(Clone, Debug)]
pub struct SetOptions {
    /// Seed of the first set.
    pub seed: u64,
    /// Add the set's index to the seed, as the driver does; simulated
    /// metrics are then held to their bounds instead of to equality.
    pub vary_seed: bool,
    /// `--seconds` of each run.
    pub seconds: f64,
    /// Smoke sizes.
    pub smoke: bool,
    /// Workloads to run (all seven by default).
    pub workloads: Vec<String>,
    /// Passed through as `--out-dir`.
    pub out_dir: String,
}

/// The command that runs one workload in a process of its own.
pub fn workload_command(workload: &str, seed: u64, trace: bool, options: &SetOptions) -> Command {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", &options.out_dir]);
    if options.smoke {
        command.arg("--smoke");
    }
    command
}

/// `metric <workload> <name> <value> …` lines of one run's output, as
/// `(name, value as printed)`.
pub fn parse_metric_lines(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("metric")).then_some(())?;
            let _workload = words.next()?;
            Some((words.next()?.to_owned(), words.next()?.to_owned()))
        })
        .collect()
}

/// Runs `sets` full sets and prints, per workload and end-to-end metric,
/// the spread against the bound.  Returns `false` when a host metric's
/// spread exceeds its bound, a simulated metric differs between runs of one
/// seed, or a run fails.
pub fn run(sets: usize, options: &SetOptions) -> bool {
    // (workload, metric) -> one printed value per set.
    let mut values: BTreeMap<(String, &'static str), Vec<String>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..sets {
        let seed = options.seed + if options.vary_seed { set as u64 } else { 0 };
        for workload in &options.workloads {
            let mut command = workload_command(workload, seed, false, options);
            let output = command.output().expect("the benchmark can start itself");
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                eprintln!("set {set}: {workload} failed ({})", output.status);
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                ok = false;
            }
            for (name, value) in parse_metric_lines(&stdout) {
                if let Some(info) = catalog::END_TO_END.iter().find(|m| m.name == name) {
                    values
                        .entry((workload.clone(), info.name))
                        .or_default()
                        .push(value);
                }
            }
            eprintln!("set {set}: {workload} done");
        }
    }
    println!(
        "{:<18} {:<22} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for ((workload, name), printed) in &values {
        let info = catalog::metric(name).expect("collected by catalog name");
        let numbers: Vec<f64> = printed.iter().filter_map(|v| v.parse().ok()).collect();
        let spread = spread(&numbers);
        let verdict = if numbers.len() != sets {
            ok = false;
            "MISSING RUNS"
        } else if info.clock == Clock::Sim && !options.vary_seed {
            if printed.iter().all(|v| v == &printed[0]) {
                "identical"
            } else {
                ok = false;
                "SIMULATED METRIC DIFFERS"
            }
        } else if spread <= info.bound {
            "within bound"
        } else {
            ok = false;
            "SPREAD EXCEEDS BOUND"
        };
        println!(
            "{workload:<18} {name:<22} {:>14.6} {:>8.2}% {:>6.1}%  {verdict}",
            median(&numbers),
            spread * 100.0,
            info.bound * 100.0
        );
        // Every run made, in set order.
        println!("    runs: {}", printed.join(" "));
    }
    ok
}
