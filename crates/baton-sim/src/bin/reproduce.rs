//! `reproduce` — regenerate the BATON paper's evaluation figures and the
//! time-domain scenario reports.
//!
//! ```text
//! reproduce [--figure 8a|8b|...|8i|all|none] [--scenario ID[,ID...]|all|none]
//!           [--profile quick|full|paper|smoke] [--seed N] [--threads N]
//!           [--overlays NAME[,NAME...]] [--replicas N] [--json] [--csv] [--list]
//! ```
//!
//! By default every figure is regenerated at the `quick` profile and printed
//! as text tables, followed by every scenario (latency percentiles and
//! throughput in virtual time).  `--profile full` uses the
//! paper's network sizes (1000–10,000 nodes) with a scaled-down bulk load;
//! `--profile paper` runs the publication's exact configuration (slow).
//!
//! `--list` prints every registered figure, scenario and overlay id and
//! exits — the machine-checkable catalog, so CI and users never have to grep
//! the source for valid identifiers.
//!
//! `--seed N` overrides the profile's base RNG seed for quick variance
//! spot-checks.  The committed fixtures (`tests/fixtures/*.json`) assume the
//! default seed; a run with an overridden seed will not diff clean against
//! them.
//!
//! `--threads N` caps the worker threads the scenario engine fans
//! (overlay × repetition) units across; the default is the machine's
//! available parallelism.  Results are byte-identical at any thread count —
//! aggregation runs in canonical unit order, never in completion order.
//!
//! `--overlays` narrows the comparison list (comma-separated series names,
//! case-insensitive — e.g. `--overlays D3-Tree`) so a single overlay can be
//! run or debugged in isolation; the BATON-only figures 8(f)–(i) are
//! unaffected.
//!
//! `--replicas N` sets the replication degree for scenario runs: every key
//! is held by its routed owner plus `N − 1` deterministic replica peers,
//! clamped per overlay to its advertised maximum (`--list` prints the
//! support matrix).  The default (1) is the legacy owner-only placement and
//! reproduces every committed fixture byte for byte.  Figures ignore the
//! flag.
//!
//! `--build join|bulk` selects how scenario overlays are constructed: `join`
//! (the default) builds node by node exactly as every committed fixture was
//! generated; `bulk` takes the direct deterministic fast path on overlays
//! that offer one (BATON, Chord) and falls back to `join` on the rest.
//! Figures always use the join path.
//!
//! Output modes: the default prints text tables.  `--json` emits the figure
//! array, the scenario array, or — when both are requested — one object
//! `{"figures": [...], "scenarios": [...]}`.  `--csv` prints one CSV block
//! per figure and per scenario.
//!
//! Observability: `--trace PATH` attaches the route recorder to the first
//! repetition of every overlay in every selected scenario and writes the
//! captured span trees to `PATH` — `--trace-format jsonl` (the default; one
//! span per line, validated by `--check-trace`) or `chrome` (the
//! `trace_event` format `chrome://tracing` and Perfetto load).
//! `--trace-sample N` records every Nth operation (default 1 = all); the
//! recorder holds at most 4096 finished spans per overlay (oldest evicted).
//! A hop-anatomy summary table (hops by link kind per overlay) goes to
//! stderr.  Traced runs produce byte-identical reports — the recorder
//! observes without perturbing.  `--check-trace PATH` validates a JSONL
//! dump (schema, closed link-kind enum, frontier-ordered hop times) and
//! exits.

use std::process::ExitCode;

use baton_sim::{
    figures, overlay_names, render_json, render_report, render_scenarios_json, scenario, Profile,
};

struct Options {
    figure: String,
    scenarios: Vec<String>,
    profile: Profile,
    overlays: Vec<String>,
    threads: usize,
    build: Option<scenario::BuildKind>,
    replicas: Option<usize>,
    json: bool,
    csv: bool,
    list: bool,
    trace: Option<String>,
    trace_format: TraceFormat,
    trace_sample: u64,
    check_trace: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

fn usage() -> String {
    format!(
        "usage: reproduce [--figure 8a..8i|all|none] \
         [--scenario {}|all|none (comma-separated)] \
         [--profile smoke|quick|full|paper] [--seed N] \
         [--threads N (default: available parallelism)] \
         [--overlays NAME[,NAME...]] [--build join|bulk] \
         [--replicas N] [--json] [--csv] [--list] \
         [--trace PATH] [--trace-format jsonl|chrome] \
         [--trace-sample N] [--check-trace PATH]",
        scenario::all_scenario_ids().join("|")
    )
}

/// The options, or `None` when `--help` asks for the usage text instead.
fn parse_args() -> Result<Option<Options>, String> {
    let mut figure = "all".to_owned();
    let mut scenarios = vec!["all".to_owned()];
    let mut profile = Profile::quick();
    let mut seed: Option<u64> = None;
    let mut overlays = Vec::new();
    let mut threads = baton_net::default_threads();
    let mut build = None;
    let mut replicas = None;
    let mut json = false;
    let mut csv = false;
    let mut list = false;
    let mut trace = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut trace_sample = 1u64;
    let mut check_trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--figure" | "-f" => {
                figure = args.next().ok_or("--figure needs a value")?;
            }
            "--scenario" | "-s" => {
                let value = args.next().ok_or("--scenario needs a value")?;
                scenarios = value
                    .split(',')
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
                    .collect();
                if scenarios.is_empty() {
                    return Err("--scenario needs at least one identifier".into());
                }
            }
            "--overlays" | "-o" => {
                let list = args.next().ok_or("--overlays needs a value")?;
                overlays.extend(
                    list.split(',')
                        .map(|name| name.trim().to_owned())
                        .filter(|name| !name.is_empty()),
                );
            }
            "--profile" | "-p" => {
                let name = args.next().ok_or("--profile needs a value")?;
                profile = match name.as_str() {
                    "smoke" => Profile::smoke(),
                    "quick" => Profile::quick(),
                    "full" => Profile::full(),
                    "paper" => Profile::paper(),
                    other => return Err(format!("unknown profile '{other}'")),
                };
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an unsigned integer, got '{value}'"))?,
                );
            }
            "--threads" | "-t" => {
                threads = baton_sim::parse_threads(args.next())?;
            }
            "--build" | "-b" => {
                let value = args.next().ok_or("--build needs a value")?;
                build = match value.as_str() {
                    "join" => Some(scenario::BuildKind::Join),
                    "bulk" => Some(scenario::BuildKind::Bulk),
                    other => return Err(format!("--build wants join|bulk, got '{other}'")),
                };
            }
            "--replicas" | "-r" => {
                let value = args.next().ok_or("--replicas needs a value")?;
                let k = value
                    .parse::<usize>()
                    .map_err(|_| format!("--replicas needs an unsigned integer, got '{value}'"))?;
                if k < 1 {
                    return Err("--replicas needs at least 1 (1 = owner-only placement)".into());
                }
                replicas = Some(k);
            }
            "--json" => json = true,
            "--csv" => csv = true,
            "--list" => list = true,
            "--trace" => {
                trace = Some(args.next().ok_or("--trace needs an output path")?);
            }
            "--trace-format" => {
                let value = args.next().ok_or("--trace-format needs a value")?;
                trace_format = match value.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(format!("--trace-format wants jsonl|chrome, got '{other}'"))
                    }
                };
            }
            "--trace-sample" => {
                let value = args.next().ok_or("--trace-sample needs a value")?;
                let n = value.parse::<u64>().map_err(|_| {
                    format!("--trace-sample needs an unsigned integer, got '{value}'")
                })?;
                if n == 0 {
                    return Err("--trace-sample needs at least 1 (1 = every operation)".into());
                }
                trace_sample = n;
            }
            "--check-trace" => {
                check_trace = Some(args.next().ok_or("--check-trace needs a path")?);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    // The override applies to whichever profile was selected, in any
    // argument order.
    if let Some(seed) = seed {
        profile.seed = seed;
    }
    Ok(Some(Options {
        figure,
        scenarios,
        profile,
        overlays,
        threads,
        build,
        replicas,
        json,
        csv,
        list,
        trace,
        trace_format,
        trace_sample,
        check_trace,
    }))
}

/// Resolves the `--scenario` selection into registered identifiers, or an
/// error naming the first unknown one.
fn resolve_scenarios(selection: &[String]) -> Result<Vec<&'static str>, String> {
    let known = scenario::all_scenario_ids();
    if selection.len() == 1 {
        if selection[0].eq_ignore_ascii_case("none") {
            return Ok(Vec::new());
        }
        if selection[0].eq_ignore_ascii_case("all") {
            return Ok(known);
        }
    }
    let mut ids = Vec::new();
    for wanted in selection {
        match known.iter().find(|id| id.eq_ignore_ascii_case(wanted)) {
            Some(id) => {
                if !ids.contains(id) {
                    ids.push(*id);
                }
            }
            None => return Err(format!("unknown scenario '{wanted}'; available: {known:?}")),
        }
    }
    Ok(ids)
}

fn print_catalog() {
    println!("figures:");
    for id in figures::all_figure_ids() {
        println!("  {id}");
    }
    println!("scenarios:");
    for id in scenario::all_scenario_ids() {
        println!("  {id}");
    }
    println!("overlays:");
    for name in overlay_names() {
        println!("  {name}");
    }
    println!("replication (--replicas clamps to each overlay's maximum):");
    for spec in baton_sim::standard_overlays() {
        println!("  {}: k = 1..={}", spec.series, spec.max_replication);
    }
    println!("link kinds (--trace tags every hop with one of these):");
    for spec in baton_sim::standard_overlays() {
        let kinds: Vec<&str> = spec.link_kinds.iter().map(|kind| kind.name()).collect();
        println!("  {}: {}", spec.series, kinds.join(", "));
    }
    println!("serve (lock-free snapshot reads):");
    for spec in baton_sim::standard_overlays() {
        // Asked of a two-node build: what the overlay exports and answers.
        let overlay = spec.build(&Profile::smoke(), 2, 0);
        let mut modes = Vec::new();
        if overlay.routing_snapshot().is_some() {
            modes.extend(["snapshot", "exact"]);
        }
        if overlay.capabilities().range_queries {
            modes.push("range");
        }
        println!("  {}: {}", spec.series, modes.join(", "));
    }
    println!("metrics sampling (rep-0 virtual-time series in the JSON report):");
    for spec in scenario::all_scenarios() {
        let plan = (spec.build)(&Profile::smoke());
        let status = if plan.metrics.is_some() {
            "sampled"
        } else {
            "off"
        };
        println!("  {}: {status}", spec.id);
    }
    println!("threads: {} (default)", baton_net::default_threads());
}

/// Validates a JSONL trace dump and reports the result; the `--check-trace`
/// mode runs nothing else.
fn run_check_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("--check-trace: cannot read '{path}': {err}");
            return ExitCode::FAILURE;
        }
    };
    match baton_sim::check_trace_jsonl(&text) {
        Ok(check) => {
            println!(
                "trace ok: {} span(s), {} hop(s), link kinds closed, hop times frontier-ordered",
                check.spans, check.hops
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("trace invalid: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if options.list {
        print_catalog();
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &options.check_trace {
        return run_check_trace(path);
    }
    let overlays = match baton_sim::select_overlays(&options.overlays) {
        Ok(specs) => specs,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Validate the scenario selection before any figure runs: a typo'd id
    // must not cost a full (possibly paper-profile) figure pass first.
    let scenario_ids = match resolve_scenarios(&options.scenarios) {
        Ok(ids) => ids,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let results = if options.figure.eq_ignore_ascii_case("none") {
        Vec::new()
    } else if options.figure.eq_ignore_ascii_case("all") {
        figures::run_all(&options.profile, &overlays)
    } else {
        match figures::run_figure(&options.figure, &options.profile, &overlays) {
            Some(result) => vec![result],
            None => {
                eprintln!(
                    "unknown figure '{}'; available: {:?}",
                    options.figure,
                    figures::all_figure_ids()
                );
                return ExitCode::FAILURE;
            }
        }
    };

    // A traced run captures one route recorder per overlay per scenario (the
    // first repetition) without touching the measured results; the untraced
    // path is the exact legacy code path.
    let trace_config = options
        .trace
        .as_ref()
        .map(|_| baton_net::TraceConfig::default().with_sample(options.trace_sample));
    let mut scenarios = Vec::new();
    let mut traces: Vec<(String, baton_net::TraceBuffer)> = Vec::new();
    let registry = scenario::all_scenarios();
    for id in scenario_ids {
        let spec = registry.iter().find(|s| s.id == id).expect("resolved id");
        let mut plan = (spec.build)(&options.profile);
        if let Some(build) = options.build {
            plan.build = build;
        }
        if let Some(replicas) = options.replicas {
            plan.replicas = replicas;
        }
        let (series, captured) = scenario::run_plan(
            &options.profile,
            &plan,
            &overlays,
            options.threads,
            trace_config,
        );
        for (overlay, buffer) in captured {
            traces.push((format!("{id}:{overlay}"), buffer));
        }
        scenarios.push(scenario::ScenarioResult {
            id: id.to_owned(),
            title: plan.title,
            series,
        });
    }
    if let Some(path) = &options.trace {
        let dump = match options.trace_format {
            TraceFormat::Jsonl => baton_sim::render_trace_jsonl(&traces),
            TraceFormat::Chrome => baton_sim::render_trace_chrome(&traces),
        };
        if let Err(err) = std::fs::write(path, dump) {
            eprintln!("--trace: cannot write '{path}': {err}");
            return ExitCode::FAILURE;
        }
        // The anatomy summary goes to stderr so `--json`/`--csv` stdout
        // stays machine-parseable.
        eprint!("{}", baton_sim::trace_summary_table(&traces));
        eprintln!("trace written to {path}");
    }

    if options.json {
        // A figures-only (or scenarios-only) request emits the bare array so
        // fixture diffs stay byte-stable; both together wrap in one object.
        match (results.is_empty(), scenarios.is_empty()) {
            (_, true) => println!("{}", render_json(&results)),
            (true, false) => println!("{}", render_scenarios_json(&scenarios)),
            (false, false) => println!(
                "{{\n\"figures\": {},\n\"scenarios\": {}\n}}",
                render_json(&results),
                render_scenarios_json(&scenarios)
            ),
        }
    } else if options.csv {
        for result in &results {
            println!("# Figure {}", result.id);
            println!("{}", result.to_csv());
        }
        for result in &scenarios {
            println!("# Scenario {}", result.id);
            println!("{}", result.to_csv());
        }
    } else {
        if !results.is_empty() {
            println!("{}", render_report(&results));
        }
        for result in &scenarios {
            println!("{}", result.to_table());
        }
    }
    ExitCode::SUCCESS
}
