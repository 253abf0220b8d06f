//! Writes `BENCH_perf.json`: the cost-curve (`curve_*`), scale (`scale_*`,
//! `mem_scale`) and route-anatomy (`anatomy_*`) rows — see
//! [`baton_bench::perf`].
//!
//! ```text
//! perf [--profile full|smoke] [--out PATH]
//! ```
//!
//! * `--profile full` (default): the cost curve at N = 1k/10k/100k, the
//!   million-node build and the thread comparison at N = 100,000;
//!   `--profile smoke` is the reduced run CI takes (seconds).
//! * `--out PATH`: where to write the report (default `BENCH_perf.json` in
//!   the current directory).
//!
//! Every scenario-driven row pins its own worker count (that is what
//! `scale_churn_t*` compares), so there is no thread flag.

use std::process::ExitCode;

use baton_bench::perf::{render_json, route_anatomy, run, PerfProfile};

const USAGE: &str = "usage: perf [--profile full|smoke] [--out PATH]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut profile = PerfProfile::full();
    let mut out_path = String::from("BENCH_perf.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => match args.next().as_deref().map(PerfProfile::by_name) {
                Some(Some(p)) => profile = p,
                _ => {
                    eprintln!("--profile needs one of full|smoke");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!("perf: profile {}", profile.name);
    let measurements = run(&profile);
    for m in &measurements {
        eprintln!(
            "  {:<20} {:>12.1} ms   {:>12.1} {}/s   ({})",
            m.id, m.wall_ms, m.per_second, m.unit, m.detail
        );
    }
    let anatomy = route_anatomy(&profile);
    for row in &anatomy {
        let kinds: Vec<String> = row
            .by_kind
            .iter()
            .map(|(kind, mean)| format!("{kind} {mean:.2}"))
            .collect();
        eprintln!(
            "  {:<20} {:>12} ops   {:>8.2} hops/op   ({})",
            row.id,
            row.ops,
            row.mean_hops,
            kinds.join(", ")
        );
    }
    let rendered = render_json(&profile, &measurements, &anatomy);
    if let Err(error) = std::fs::write(&out_path, &rendered) {
        eprintln!("cannot write {out_path}: {error}");
        return ExitCode::FAILURE;
    }
    eprintln!("perf: wrote {out_path}");
    ExitCode::SUCCESS
}
