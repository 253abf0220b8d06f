//! Command line of the benchmark; `run.sh` builds and starts it.

use std::path::PathBuf;
use std::process::ExitCode;

use baton_benchmarks::catalog::{self, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use baton_benchmarks::repeat::{self, SetOptions};
use baton_benchmarks::runner::{self, Options};
use baton_benchmarks::workload::Scale;

const USAGE: &str = "\
usage: benchmarks/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                         [--smoke] [--repeat K [--vary-seed]] [--out-dir DIR]
                         [--print-benchmark-json]

  --workload NAME   run one workload in this process and print, as the last
                    line, one JSON object with its metrics; without it every
                    workload runs, each in a process of its own
  --seed N          seed all inputs are generated from (default 2005)
  --seconds S       how long one run measures (default: run_seconds of
                    BENCHMARK.json; with --smoke, one cycle)
  --trace [0|1]     0: end-to-end metrics, spans off (default);
                    1: per-layer metrics from a traced run, spans written to
                    <out-dir>/<workload>.spans.jsonl
  --smoke           all workloads at N <= 500, one cycle of one repetition
  --repeat K        K full sets; prints each end-to-end metric's spread
                    against its bound and fails when one exceeds it or a
                    simulated metric differs between runs
  --vary-seed       with --repeat: set i uses seed N + i (what the driver
                    does); simulated metrics are then held to their bounds
  --print-benchmark-json  print BENCHMARK.json as the catalog defines it";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    vary_seed: bool,
    out_dir: String,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
        vary_seed: false,
        out_dir: "benchmarks/out".to_owned(),
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !catalog::is_workload(&name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must lie in [0, 600]".to_owned());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => match argv.next() {
                Some(v) if v == "0" => args.trace = false,
                Some(v) if v == "1" => args.trace = true,
                // A bare `--trace` means 1; what followed is the next flag.
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--smoke" => args.smoke = true,
            "--repeat" => {
                let sets: usize = value("a number of sets")?
                    .parse()
                    .map_err(|_| "--repeat needs an unsigned integer".to_owned())?;
                if !(2..=100).contains(&sets) {
                    return Err("--repeat needs between 2 and 100 sets".to_owned());
                }
                args.repeat = Some(sets);
            }
            "--vary-seed" => args.vary_seed = true,
            "--out-dir" => args.out_dir = value("a directory")?,
            "--print-benchmark-json" => {
                print!("{}", catalog::benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    // A smoke run is one cycle unless told otherwise.
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { RUN_SECONDS as f64 });
    let workloads: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => WORKLOADS.iter().map(|w| w.name.to_owned()).collect(),
    };

    let set = SetOptions {
        seed: args.seed,
        vary_seed: args.vary_seed,
        seconds,
        smoke: args.smoke,
        workloads,
        out_dir: args.out_dir,
    };
    if let Some(sets) = args.repeat {
        return if repeat::run(sets, &set) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if let Some(workload) = args.workload {
        let options = Options {
            workload,
            seed: args.seed,
            seconds,
            trace: args.trace,
            scale,
            out_dir: PathBuf::from(set.out_dir),
        };
        return match runner::run(&options) {
            Ok(result) => {
                println!("{}", result.to_json());
                if result.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        };
    }

    // A full set: each workload in a process of its own, so that
    // `peak_rss_mb` is the workload's and not the set's.
    let mut all_ok = true;
    for workload in &set.workloads {
        let status = repeat::workload_command(workload, set.seed, args.trace, &set)
            .status()
            .expect("the benchmark can start itself");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
