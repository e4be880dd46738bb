//! `tacos` — command-line topology-aware collective algorithm synthesizer.
//!
//! Mirrors the paper's artifact: feed it a topology and a collective,
//! get back a synthesized algorithm and its predicted performance. Whole
//! evaluation campaigns run from declarative scenario files instead of
//! flags:
//!
//! ```text
//! tacos --topology mesh:3x3 --collective all-reduce --size 64MB
//! tacos --topology dragonfly:5x4 --collective all-gather --size 1GB \
//!       --algo ring --simulate --json
//! tacos scenario expand scenarios/size_sweep.toml
//! tacos scenario run scenarios/size_sweep.toml
//! ```

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use tacos_collective::export;
use tacos_core::SynthesisScratch;
use tacos_report::{fmt_f64, Json, Table};
use tacos_topology::parse_size;
use tacos_workload::{bandwidth_gbps, Evaluator, Point};

/// How a command ends other than in success: usage mistakes get the
/// USAGE block appended; runtime failures (a bad scenario file, failed
/// points) print only their message so it isn't buried under 70 lines of
/// flag help; `--help` prints the USAGE block and exits zero.
#[derive(Debug, PartialEq)]
enum CliError {
    Usage(String),
    Runtime(String),
    Help,
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
            CliError::Help => "",
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Help) => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

/// One flag of a subcommand: its name, the placeholder for its value
/// (`None` for a switch) and its help text. The subcommand's parser
/// accepts exactly its table's flags, and `--help` prints the rows.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

/// A flag that takes a value.
const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        help,
    }
}

/// A flag that takes none.
const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        help,
    }
}

#[rustfmt::skip]
const POINT: &[Flag] = &[
    value("--topology", "SPEC", "ring:N | fc:N | mesh:RxC | torus:XxY[xZ] | hypercube:XxYxZ |\n\
        switch:N[:dD] | switch2d:RxC | rfs:RxFxS | dragonfly:GxP | dgx1"),
    value("--collective", "P", "all-gather | reduce-scatter | all-reduce (default) |\n\
        all-to-all | gather[:ROOT] | scatter[:ROOT] | broadcast[:ROOT]"),
    value("--size", "BYTES", "e.g. 1GB, 64MB, 1KB (default 64MB)"),
    value("--chunks", "K", "chunking factor per NPU (default 1)"),
    value("--algo", "A", "tacos (default) | tacos:N | tacos:attempts=8,seed=3,... | ideal |\n\
        ring | ring-uni | direct | rhd | dbt | multitree | taccl | ...\n\
        (the scenario `algo` vocabulary; tacos:N overrides --chunks)"),
    value("--alpha", "US", "link latency in microseconds (default 0.5)"),
    value("--bw", "GBPS", "link bandwidth in GB/s (default 50)"),
    value("--seed", "N", "RNG seed (default 42)"),
    value("--attempts", "N", "best-of-N randomized synthesis (default 1)"),
    switch("--simulate", "additionally run the congestion-aware simulator"),
    switch("--json", "machine-readable output"),
    value("--export-json", "F", "write the full algorithm (transfers) as JSON to file F"),
    value("--export-xml", "F", "write the algorithm as MSCCL-style XML to file F"),
];

/// Every row applies to `scenario run` only: `scenario expand` refuses
/// each of them.
#[rustfmt::skip]
const SCENARIO: &[Flag] = &[
    value("--threads", "N", "worker threads (0 = all cores)"),
    value("--cache", "DIR", "algorithm cache directory"),
    switch("--no-cache", "disable the algorithm cache"),
    value("--output", "STEM", "write STEM.csv / STEM.json result artifacts"),
    switch("--quick", "run the scenario's [quick] reduced grid"),
    switch("--quiet", "suppress per-point progress on stderr"),
];

const DIFF: &[Flag] = &[value(
    "--tol",
    "T",
    "numeric tolerance for cell comparison (default 1e-9)",
)];

#[rustfmt::skip]
const SERVE: &[Flag] = &[
    value("--addr", "HOST:PORT", "listen address (default 127.0.0.1:7440; port 0 = ephemeral)"),
    value("--workers", "N", "synthesis worker threads (default 2)"),
    value("--queue-depth", "N", "admission queue: waiting syntheses before requests are\n\
        rejected (default 32)"),
    value("--cache-dir", "DIR", "persist the warm cache to DIR on shutdown/checkpoint and\n\
        reload it on start (matcher-version checked)"),
    value("--deadline-ms", "MS", "default per-request deadline (requests may override)"),
    value("--checkpoint-every", "SECS", "also persist the warm cache every SECS seconds\n\
        (crash-safe: temp file + fsync + atomic rename)"),
    value("--max-line-bytes", "N", "cap on one request line; longer lines get a typed\n\
        error and the connection closes (default 1048576)"),
    value("--idle-timeout-secs", "SECS", "close connections idle longer than SECS (0 = never;\n\
        default 300)"),
    value("--max-connections", "N", "concurrent connection cap; excess connections get a\n\
        typed 'rejected' with retry_after_ms (default 256)"),
    value("--retry-after-ms", "MS", "backoff hint attached to rejected responses (default 100)"),
    value("--warm-max-entries", "N", "cap on resident warm-cache entries; least-recently-used\n\
        entries are evicted on insert (default 0 = unbounded)"),
    value("--warm-max-bytes", "B", "cap on approximate warm-cache bytes, e.g. 64MB\n\
        (default 0 = unbounded); caps also apply to reloads"),
    value("--faults", "SPEC", "deterministic fault injection for chaos testing, e.g.\n\
        panic@3,stall@1:50,conn-delay@2:20,checkpoint-abort@2"),
    switch("--quiet", "suppress daemon notices on stderr"),
];

#[rustfmt::skip]
const CHAOS: &[Flag] = &[
    value("--seed", "N", "fault-plan seed (default 1); each seed is deterministic"),
    switch("--quiet", "only print the final verdict"),
];

#[rustfmt::skip]
const LINT: &[Flag] = &[
    value("--root", "DIR", "workspace root to scan (default .)"),
    switch("--fix-baseline", "rewrite lint.baseline from the current findings"),
    switch("--stats", "also print the one-line lint-stats summary"),
];

/// `--help`: the usage lines, then each flag table under its header.
const USAGE_LINES: &str = "\
usage: tacos [options]
       tacos scenario run <file.toml> [scenario options]
       tacos scenario expand <file.toml>
       tacos scenario diff <a.csv> <b.csv> [--tol 1e-9]
       tacos serve [serve options]
       tacos chaos [--seed N] [--quiet]
       tacos lint [--fix-baseline] [--stats] [--root DIR]";

#[rustfmt::skip]
const SECTIONS: [(&str, &[Flag]); 6] = [
    ("single-point options:", POINT),
    ("scenario options (override the file's [run] table):", SCENARIO),
    ("scenario diff options:", DIFF),
    ("serve options (synthesis-as-a-service daemon; line-delimited JSON over TCP):", SERVE),
    ("chaos options (drive a private daemon through a seeded fault plan and\n\
      assert its operational invariants; nonzero exit on any violation):", CHAOS),
    ("lint options (repo-native static analysis: lock-order deadlock detection,\n\
      panic-path audit, unsafe hygiene, design rules; nonzero exit on any\n\
      finding not absorbed by lint.baseline):", LINT),
];

/// The help column: a flag and its placeholder take 19 characters after
/// a 2-space indent; a wider one puts its help on the next line.
const HELP_INDENT: &str = "\n                     ";

fn usage() -> String {
    let mut out = String::from(USAGE_LINES);
    for (header, flags) in SECTIONS {
        write!(out, "\n\n{header}").unwrap();
        for flag in flags {
            let head = match flag.value {
                Some(value) => format!("{} {value}", flag.name),
                None => flag.name.to_string(),
            };
            let gap = if head.len() < 19 { "" } else { HELP_INDENT };
            let help = flag.help.replace('\n', HELP_INDENT);
            write!(out, "\n  {head:<19}{gap}{help}").unwrap();
        }
    }
    out
}

/// A subcommand's arguments, read against its flag table.
struct Args<'a> {
    /// Each flag given, with its value (`None` for a switch), in order.
    flags: Vec<(&'static str, Option<&'a str>)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Reads `args` against `table`, taking up to `positional` arguments
    /// that are not flags; `what` names an argument in errors ("serve
    /// argument").
    fn parse(
        args: &'a [String],
        what: &str,
        table: &'static [Flag],
        positional: usize,
    ) -> Result<Self, CliError> {
        let (mut flags, mut positionals) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            match table.iter().find(|flag| flag.name == arg) {
                Some(flag) => {
                    let value = match flag.value {
                        Some(_) => Some(it.next().ok_or(format!("missing value for {arg}"))?),
                        None => None,
                    };
                    flags.push((flag.name, value.map(String::as_str)));
                }
                None if !arg.starts_with('-') && positionals.len() < positional => {
                    positionals.push(arg.as_str());
                }
                None => return Err(CliError::Usage(format!("unknown {what} '{arg}'"))),
            }
        }
        Ok(Args {
            flags,
            positional: positionals,
        })
    }

    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The last value given for `name`, read by `read`. Every value given
    /// is read, so a bad one is reported even when a later one wins.
    fn value<T, E: Display>(
        &self,
        name: &str,
        read: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for (_, value) in self.flags.iter().filter(|(flag, _)| *flag == name) {
            let value = value.unwrap_or_default();
            last = Some(read(value).map_err(|e| format!("bad {name}: {e}"))?);
        }
        Ok(last)
    }

    /// Overwrites `slot` with the value given for `name`, if any.
    fn set<T: FromStr>(&self, name: &str, slot: &mut T) -> Result<(), String>
    where
        T::Err: Display,
    {
        if let Some(value) = self.value(name, str::parse)? {
            *slot = value;
        }
        Ok(())
    }

    /// The last value given for `name`, as text.
    fn text(&self, name: &str) -> Option<String> {
        self.value(name, str::parse).ok().flatten()
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("scenario") => scenario_command(&args[1..]),
        Some("serve") => serve_command(&args[1..]),
        Some("chaos") => chaos_command(&args[1..]),
        Some("lint") => lint_command(&args[1..]),
        // Legacy single-point mode: most failures are flag mistakes, so
        // they keep the usage text.
        _ => run_single_point(args),
    }
}

/// `tacos scenario run|expand <file.toml> [options]` and
/// `tacos scenario diff <a.csv> <b.csv> [--tol T]`.
fn scenario_command(args: &[String]) -> Result<(), CliError> {
    let action = args.first().ok_or_else(|| {
        CliError::Usage("scenario needs a subcommand: run | expand | diff".into())
    })?;
    match action.as_str() {
        "diff" => return scenario_diff(&args[1..]),
        "run" | "expand" => {}
        "--help" | "-h" => return Err(CliError::Help),
        _ => {
            return Err(CliError::Usage(format!(
                "unknown scenario subcommand '{action}' (expected run | expand | diff)"
            )))
        }
    }
    let p = Args::parse(&args[1..], "scenario argument", SCENARIO, 1)?;
    if let (Some((flag, _)), "expand") = (p.flags.first(), action.as_str()) {
        return Err(CliError::Usage(format!(
            "{flag} only applies to 'scenario run'; 'scenario expand' is a dry run"
        )));
    }
    let threads = p.value("--threads", str::parse)?;
    let file = p
        .positional
        .first()
        .ok_or_else(|| CliError::Usage(format!("scenario {action} needs a <file.toml>")))?;
    let full_spec = tacos_scenario::ScenarioSpec::from_file(file)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let quick = p.has("--quick");
    if quick && full_spec.quick.is_none() {
        return Err(CliError::Runtime(format!(
            "--quick: scenario '{}' declares no [quick] section",
            full_spec.name
        )));
    }
    let mut spec = if quick {
        full_spec.quick_spec().clone()
    } else {
        full_spec
    };
    if let Some(n) = threads {
        spec.run.threads = n;
    }
    // The last of `--cache DIR` and `--no-cache` wins.
    if let Some((_, dir)) = p.flags.iter().rev().find(|(f, _)| f.ends_with("-cache")) {
        spec.run.cache = dir.map(str::to_owned);
    }
    if let Some(stem) = p.text("--output") {
        spec.output = Some(stem);
    }
    spec.run.quiet |= p.has("--quiet");

    match action.as_str() {
        "expand" => {
            let points =
                tacos_scenario::expand(&spec).map_err(|e| CliError::Runtime(e.to_string()))?;
            println!("scenario : {} ({} points)", spec.name, points.len());
            if !spec.description.is_empty() {
                println!("about    : {}", spec.description);
            }
            let training = spec.evaluation.is_training();
            let mut header = vec!["#", "topology"];
            if training {
                header.push("model");
            }
            header.extend(["without", "link"]);
            if !training {
                header.extend(["collective", "size"]);
            }
            header.extend(["chunks", "algo", "seed", "attempts", "cheap"]);
            let mut t = Table::new(header);
            for p in &points {
                let mut row = vec![p.index.to_string(), p.topology.clone()];
                if training {
                    row.push(p.model.clone().unwrap_or_default());
                }
                row.extend([p.without_links.label(), p.link.to_string()]);
                if !training {
                    row.extend([p.collective.clone(), p.size_label.clone()]);
                }
                row.extend([
                    p.chunks.to_string(),
                    p.algo.clone(),
                    p.seed.to_string(),
                    p.attempts.to_string(),
                    if p.prefer_cheap_links { "on" } else { "off" }.into(),
                ]);
                t.row(row);
            }
            print!("{t}");
            Ok(())
        }
        "run" => {
            // Ctrl-C stops claiming new points; finished work is still
            // flushed to the CSV/JSON artifacts before exiting nonzero.
            tacos_core::shutdown::install();
            let summary =
                tacos_scenario::run(&spec).map_err(|e| CliError::Runtime(e.to_string()))?;
            let mut t = Table::new(vec![
                "#",
                "point",
                "npus",
                "time",
                "GB/s",
                "eff",
                "transfers",
                "cache",
            ]);
            for r in &summary.records {
                match &r.result {
                    Ok(m) => t.row(vec![
                        r.point.index.to_string(),
                        r.point.label(),
                        m.num_npus.to_string(),
                        format!("{}", m.collective_time),
                        m.bandwidth_gbps.map(fmt_f64).unwrap_or_else(|| "-".into()),
                        format!("{:.1}%", m.efficiency * 100.0),
                        m.transfers.to_string(),
                        match m.cache {
                            Some(tacos_core::CacheOutcome::Hit) => "hit".into(),
                            Some(tacos_core::CacheOutcome::Miss) => "miss".into(),
                            None => "off".into(),
                        },
                    ]),
                    // Timed-out points are not failures (the summary and
                    // exit code treat them separately); don't print a row
                    // a log grep for FAILED would catch.
                    Err(e) => t.row(vec![
                        r.point.index.to_string(),
                        r.point.label(),
                        "-".into(),
                        if e.starts_with(tacos_scenario::TIMED_OUT)
                            || e == tacos_scenario::INTERRUPTED
                        {
                            e.clone()
                        } else {
                            format!("FAILED: {e}")
                        },
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]),
                };
            }
            print!("{t}");
            println!(
                "{} points: {} generated, {} cache hits, {} failed, {} timed out, \
                 {} interrupted in {:.2}s",
                summary.records.len(),
                summary.generated,
                summary.cache_hits,
                summary.failed,
                summary.timed_out,
                summary.interrupted,
                summary.elapsed.as_secs_f64()
            );
            if let Some(stem) = &spec.output {
                if summary.has_timeline() {
                    eprintln!(
                        "(results written to {stem}.csv, {stem}.json, and {stem}.timeline.csv)"
                    );
                } else {
                    eprintln!("(results written to {stem}.csv and {stem}.json)");
                }
            }
            if summary.failed > 0 {
                return Err(CliError::Runtime(format!(
                    "{} of {} points failed",
                    summary.failed,
                    summary.records.len()
                )));
            }
            if summary.interrupted > 0 {
                return Err(CliError::Runtime(format!(
                    "interrupted: {} of {} points not executed (partial results kept)",
                    summary.interrupted,
                    summary.records.len()
                )));
            }
            Ok(())
        }
        _ => unreachable!("subcommand validated above"),
    }
}

/// `tacos serve [options]`: the synthesis-as-a-service daemon. Blocks
/// until SIGINT/SIGTERM or a client `shutdown` op, then drains workers
/// and persists the warm cache.
fn serve_command(args: &[String]) -> Result<(), CliError> {
    let p = Args::parse(args, "serve argument", SERVE, 0)?;
    let mut config = tacos_serve::DaemonConfig::default();
    p.set("--addr", &mut config.addr)?;
    p.set("--workers", &mut config.workers)?;
    p.set("--queue-depth", &mut config.queue_depth)?;
    config.cache_dir = p.text("--cache-dir").map(Into::into);
    config.default_deadline_ms = p.value("--deadline-ms", str::parse)?;
    if let Some(secs) = p.value("--checkpoint-every", str::parse)? {
        if secs == 0 {
            return Err(CliError::Usage(
                "--checkpoint-every must be at least 1 second".into(),
            ));
        }
        config.checkpoint_every = Some(Duration::from_secs(secs));
    }
    p.set("--max-line-bytes", &mut config.max_line_bytes)?;
    if let Some(secs) = p.value("--idle-timeout-secs", str::parse)? {
        config.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    p.set("--max-connections", &mut config.max_connections)?;
    p.set("--retry-after-ms", &mut config.retry_after_ms)?;
    p.set("--warm-max-entries", &mut config.warm_limits.max_entries)?;
    if let Some(bytes) = p.value("--warm-max-bytes", parse_size)? {
        config.warm_limits.max_bytes = bytes.as_u64();
    }
    if let Some(plan) = p.value("--faults", tacos_serve::FaultPlan::parse)? {
        config.faults = plan;
    }
    config.quiet = p.has("--quiet");

    tacos_core::shutdown::install();
    let quiet = config.quiet;
    let handle = tacos_serve::Daemon::spawn(config)
        .map_err(|e| CliError::Runtime(format!("failed to start daemon: {e}")))?;
    if !quiet {
        eprintln!(
            "tacos serve: listening on {} (line-delimited JSON; Ctrl-C to stop)",
            handle.addr()
        );
    }
    while !tacos_core::shutdown::requested() && !handle.stop_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = handle.stats();
    handle
        .stop()
        .map_err(|e| CliError::Runtime(format!("failed to persist warm cache: {e}")))?;
    if !quiet {
        eprintln!(
            "tacos serve: stopped after {} requests ({} cache hits, {} synthesized, \
             {} deduplicated, {} rejected, {} evicted, {} worker restarts, {} checkpoints)",
            stats.requests,
            stats.cache_hits,
            stats.synthesized,
            stats.deduplicated,
            stats.rejected,
            stats.evictions,
            stats.worker_restarts,
            stats.checkpoints
        );
    }
    Ok(())
}

/// `tacos chaos [--seed N] [--quiet]`: spawn a private daemon under a
/// seeded fault plan and assert the operational invariants — exactly one
/// typed response per request, worker panics contained to their flight,
/// torn checkpoints salvaged, oversized lines bounded, overload
/// recoverable. Nonzero exit on the first violated invariant.
fn chaos_command(args: &[String]) -> Result<(), CliError> {
    let p = Args::parse(args, "chaos argument", CHAOS, 0)?;
    let mut options = tacos_serve::ChaosOptions::default();
    p.set("--seed", &mut options.seed)?;
    options.quiet = p.has("--quiet");
    let report = tacos_serve::chaos::run(&options).map_err(|violation| {
        CliError::Runtime(format!("chaos (seed {}): {violation}", options.seed))
    })?;
    println!(
        "tacos chaos: seed {} passed — {} invariants held under plan '{}'",
        report.seed,
        report.passed.len(),
        report.plan
    );
    Ok(())
}

/// `tacos lint [--fix-baseline] [--stats] [--root DIR]`: run the
/// repo-native static analyses. Exit is nonzero when any finding is not
/// absorbed by `lint.baseline`, so CI can gate on it directly.
fn lint_command(args: &[String]) -> Result<(), CliError> {
    let p = Args::parse(args, "lint argument", LINT, 0)?;
    let root = p.text("--root").unwrap_or_else(|| ".".into());
    let fix = p.has("--fix-baseline");
    let stats = p.has("--stats");
    let opts = tacos_lint::Options::new(root.into());
    if fix {
        let n = tacos_lint::fix_baseline(&opts).map_err(CliError::Runtime)?;
        println!("tacos lint: baseline rewritten with {n} grandfathered finding(s)");
        return Ok(());
    }
    let outcome = tacos_lint::run(&opts).map_err(CliError::Runtime)?;
    print!("{}", tacos_lint::render_report(&outcome));
    if stats {
        println!("{}", tacos_lint::render_stats(&outcome));
    }
    if outcome.findings.is_empty() {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} lint finding(s) — fix them, add `// lint: allow(rule, \"reason\")` where \
             justified, or (for pre-existing debt only) run `tacos lint --fix-baseline`",
            outcome.findings.len()
        )))
    }
}

/// `tacos scenario diff <a.csv> <b.csv> [--tol T]`: column-aware compare
/// of two shaped result sets; mismatches print and exit nonzero.
fn scenario_diff(args: &[String]) -> Result<(), CliError> {
    let p = Args::parse(args, "scenario diff argument", DIFF, 2)?;
    let tol = p.value("--tol", str::parse::<f64>)?.unwrap_or(1e-9);
    if !tol.is_finite() || tol < 0.0 {
        return Err(CliError::Usage("--tol must be a finite value >= 0".into()));
    }
    let [a, b] = p.positional[..] else {
        return Err(CliError::Usage(
            "scenario diff needs <a.csv> <b.csv>".into(),
        ));
    };
    let report =
        tacos_scenario::diff_csv_files(a, b, tol).map_err(|e| CliError::Runtime(e.to_string()))?;
    if report.is_match() {
        println!("{report}");
        Ok(())
    } else {
        Err(CliError::Runtime(report.to_string()))
    }
}

/// The request the single-point flags describe, under the CLI's own
/// defaults (`mesh:3x3`, seed 42, one attempt).
fn point(p: &Args) -> Result<Point, String> {
    let mut point = Point {
        topology: "mesh:3x3".into(),
        seed: Some(42),
        attempts: Some(1),
        ..Point::default()
    };
    p.set("--topology", &mut point.topology)?;
    p.set("--collective", &mut point.collective)?;
    p.set("--size", &mut point.size)?;
    p.set("--algo", &mut point.mechanism)?;
    p.set("--alpha", &mut point.link.alpha_us)?;
    p.set("--bw", &mut point.link.bandwidth_gbps)?;
    point.seed = p.value("--seed", str::parse)?.or(point.seed);
    point.attempts = p.value("--attempts", str::parse)?.or(point.attempts);
    p.set("--chunks", &mut point.chunks)?;
    Ok(point)
}

fn run_single_point(args: &[String]) -> Result<(), CliError> {
    let p = Args::parse(args, "argument", POINT, 0)?;
    let point = point(&p)?;
    let simulate = p.has("--simulate");
    let json = p.has("--json");
    let export_json = p.text("--export-json");
    let export_xml = p.text("--export-xml");
    let (topo, pattern, size, mechanism) = point.resolve()?;

    let evaluator = Evaluator::new(&topo, &mechanism).with_simulation(simulate);
    let evaluated = evaluator
        .evaluate(pattern, size, point.chunks, &mut SynthesisScratch::new())
        .map_err(|e| e.cause())?;
    let collective_time = evaluated.time;
    let bandwidth_gbps = bandwidth_gbps(size, collective_time);
    let efficiency = evaluator.ideal().efficiency(pattern, size, collective_time);
    // The ideal bound has no schedule: it reports under its own name.
    let algorithm_name = evaluated
        .algorithm
        .as_ref()
        .map_or(mechanism.name(), |a| a.name());
    let exports: [(_, _, fn(&_) -> String); 2] = [
        (&export_json, "algorithm JSON", export::to_json),
        (&export_xml, "MSCCL-style XML", export::to_msccl_xml),
    ];
    let algo = &point.mechanism;
    for (path, what, encode) in exports {
        let Some(path) = path else { continue };
        let algorithm = evaluated
            .algorithm
            .as_ref()
            .ok_or_else(|| format!("--algo {algo} generates no algorithm to export"))?;
        std::fs::write(path, encode(algorithm)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("({what} written to {path})");
    }
    if json {
        let out = Json::obj([
            ("topology", Json::Str(topo.name().into())),
            ("num_npus", (topo.num_npus() as u64).into()),
            ("num_links", (topo.num_links() as u64).into()),
            ("collective", Json::Str(pattern.short_name().into())),
            ("size_bytes", size.as_u64().into()),
            ("algorithm", Json::Str(algorithm_name.into())),
            ("transfers", evaluated.transfers.into()),
            ("collective_time_ps", collective_time.as_ps().into()),
            ("bandwidth_gbps", bandwidth_gbps.into()),
            ("efficiency_vs_ideal", efficiency.into()),
            ("synthesis_seconds", evaluated.generate_seconds.into()),
        ]);
        println!("{out}");
    } else {
        println!("topology   : {topo}");
        println!(
            "collective : {pattern} of {size} ({} chunk(s)/NPU)",
            evaluated.chunks
        );
        println!(
            "algorithm  : {algorithm_name} ({} transfers)",
            evaluated.transfers
        );
        println!("synthesis  : {:.3}s", evaluated.generate_seconds);
        let mut t = Table::new(vec!["metric", "value"]);
        t.row(vec!["collective time".into(), format!("{collective_time}")]);
        t.row(vec![
            "bandwidth".into(),
            format!("{} GB/s", fmt_f64(bandwidth_gbps)),
        ]);
        t.row(vec![
            "efficiency vs ideal".into(),
            format!("{:.1}%", efficiency * 100.0),
        ]);
        if let Some(r) = &evaluated.sim {
            t.row(vec![
                "avg link utilization".into(),
                format!("{:.1}%", r.average_utilization() * 100.0),
            ]);
            t.row(vec!["messages simulated".into(), r.messages().to_string()]);
        }
        print!("{t}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, contents: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("tacos-cli-{tag}-{}.toml", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn scenario_expand_and_run_end_to_end() {
        let path = temp_file(
            "ok",
            r#"
[scenario]
name = "cli-test"
[sweep]
topology = ["ring:4"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["ring"]
[run]
cache = false
"#,
        );
        let p = path.to_str().unwrap().to_string();
        run(&["scenario".into(), "expand".into(), p.clone()]).unwrap();
        run(&["scenario".into(), "run".into(), p, "--quiet".into()]).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_scenario_file_is_a_readable_error() {
        // Syntax error: the message must carry a line number, not a panic.
        let path = temp_file("bad", "[scenario]\nname = \"x\"\nbad = ");
        let err = run(&[
            "scenario".into(),
            "run".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap_err();
        assert!(err.message().contains("line 3"), "got: {err}");
        let _ = std::fs::remove_file(&path);

        // Invalid spec: readable validation message.
        let path = temp_file(
            "inval",
            "[scenario]\nname = \"x\"\n[sweep]\ntopology = [\"blob:3\"]",
        );
        let err = run(&[
            "scenario".into(),
            "run".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("unknown topology kind"),
            "got: {err}"
        );
        let _ = std::fs::remove_file(&path);

        // Missing file: IO error with the path, still no panic.
        let err = run(&[
            "scenario".into(),
            "run".into(),
            "/nonexistent/scenario.toml".into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("/nonexistent/scenario.toml"),
            "got: {err}"
        );
    }

    #[test]
    fn scenario_run_exits_nonzero_on_point_failure_but_keeps_finished_rows() {
        let dir = std::env::temp_dir().join(format!("tacos-cli-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stem = dir.join("out").display().to_string();
        // rhd needs a power-of-two NPU count: one of the two points fails.
        let path = temp_file(
            "fail",
            r#"
[scenario]
name = "cli-fail"
[sweep]
topology = ["ring:3"]
collective = ["all-reduce"]
size = ["3MB"]
algo = ["ring", "rhd"]
[run]
cache = false
"#,
        );
        let err = run(&[
            "scenario".into(),
            "run".into(),
            path.to_str().unwrap().into(),
            "--quiet".into(),
            "--output".into(),
            stem.clone(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got: {err:?}");
        assert!(err.message().contains("1 of 2 points failed"), "got: {err}");
        // The completed point still landed in the artifacts.
        let csv = std::fs::read_to_string(format!("{stem}.csv")).unwrap();
        assert_eq!(csv.lines().count(), 1 + 2);
        assert!(csv
            .lines()
            .any(|l| l.contains(",ring,") && l.ends_with(',')));
        assert!(std::path::Path::new(&format!("{stem}.json")).exists());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_usage_errors() {
        assert!(run(&["scenario".into()]).is_err());
        assert!(run(&["scenario".into(), "frobnicate".into(), "x.toml".into()]).is_err());
        assert!(run(&["scenario".into(), "diff".into(), "only-one.csv".into()]).is_err());
    }

    #[test]
    fn scenario_quick_runs_the_reduced_grid() {
        let path = temp_file(
            "quick",
            r#"
[scenario]
name = "cli-quick"
[sweep]
topology = ["ring:4", "ring:8"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["ring"]
[quick]
topology = ["ring:4"]
[run]
cache = false
"#,
        );
        let p = path.to_str().unwrap().to_string();
        run(&[
            "scenario".into(),
            "run".into(),
            p.clone(),
            "--quick".into(),
            "--quiet".into(),
        ])
        .unwrap();
        // Without a [quick] section the flag is a readable error.
        let plain = temp_file(
            "noquick",
            "[scenario]\nname = \"x\"\n[sweep]\ntopology = [\"ring:4\"]\n",
        );
        let err = run(&[
            "scenario".into(),
            "run".into(),
            plain.to_str().unwrap().into(),
            "--quick".into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("declares no [quick] section"),
            "got: {err}"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&plain);
    }

    #[test]
    fn scenario_diff_compares_result_sets() {
        let dir = std::env::temp_dir().join(format!("tacos-cli-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        std::fs::write(&a, "scenario,point,bandwidth_gbps\ns,0,50\n").unwrap();
        std::fs::write(&b, "scenario,point,bandwidth_gbps\ns,0,50.0000000001\n").unwrap();
        // Within the default tolerance: match, exit zero.
        run(&[
            "scenario".into(),
            "diff".into(),
            a.display().to_string(),
            b.display().to_string(),
        ])
        .unwrap();
        // With a zero tolerance the same pair mismatches, nonzero exit,
        // readable report.
        let err = run(&[
            "scenario".into(),
            "diff".into(),
            a.display().to_string(),
            b.display().to_string(),
            "--tol".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
        assert!(err.message().contains("result sets differ"), "got: {err}");
        assert!(err.message().contains("bandwidth_gbps"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_expand_rejects_run_only_flags() {
        let path = temp_file(
            "expandflags",
            "[scenario]\nname = \"x\"\n[sweep]\ntopology = [\"ring:4\"]\n",
        );
        let p = path.to_str().unwrap().to_string();
        let err = run(&[
            "scenario".into(),
            "expand".into(),
            p.clone(),
            "--quiet".into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("only applies to 'scenario run'"),
            "got: {err}"
        );
        run(&["scenario".into(), "expand".into(), p]).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn end_to_end_tacos_run() {
        run(&[
            "--topology".into(),
            "mesh:3x3".into(),
            "--collective".into(),
            "all-gather".into(),
            "--size".into(),
            "9MB".into(),
            "--json".into(),
        ])
        .unwrap();
    }

    #[test]
    fn end_to_end_baseline_run_with_sim() {
        run(&[
            "--topology".into(),
            "ring:8".into(),
            "--algo".into(),
            "ring".into(),
            "--size".into(),
            "8MB".into(),
            "--simulate".into(),
        ])
        .unwrap();
    }

    /// Every row of every flag table: a value flag with no value, a
    /// numeric flag given a word, an unknown flag and `--help` each end
    /// the command before it acts.
    #[test]
    fn every_flag_rejects_bad_input_with_a_usage_error() {
        let prefixes: [&[&str]; 6] = [
            &[],
            &["scenario", "run"],
            &["scenario", "diff"],
            &["serve"],
            &["chaos"],
            &["lint"],
        ];
        const NUMERIC: [&str; 8] = ["N", "K", "US", "GBPS", "MS", "SECS", "T", "B"];
        for ((_, table), prefix) in SECTIONS.iter().zip(prefixes) {
            let call = |rest: &[&str]| {
                let args: Vec<String> = prefix.iter().chain(rest).map(|a| a.to_string()).collect();
                run(&args)
            };
            let unknown = call(&["--no-such-flag"]).unwrap_err();
            assert!(
                matches!(&unknown, CliError::Usage(m) if m.starts_with("unknown ")
                    && m.ends_with(" argument '--no-such-flag'")),
                "{prefix:?}: {unknown:?}"
            );
            assert_eq!(call(&["--help"]), Err(CliError::Help), "{prefix:?}");
            for flag in table.iter() {
                let Some(placeholder) = flag.value else {
                    continue;
                };
                let missing = format!("missing value for {}", flag.name);
                assert_eq!(call(&[flag.name]), Err(CliError::Usage(missing)));
                if NUMERIC.contains(&placeholder) {
                    match call(&[flag.name, "x"]) {
                        Err(CliError::Usage(m))
                            if m.starts_with(&format!("bad {}: ", flag.name)) => {}
                        other => panic!("{prefix:?} {} x: {other:?}", flag.name),
                    }
                }
            }
        }
    }

    /// The CLI and the daemon read one request the same way: a flag set
    /// and the request line that spells it, with the CLI's defaults
    /// written out, give one `Point` and resolve to one fabric, pattern,
    /// size and mechanism.
    #[test]
    fn flags_and_request_lines_read_the_same_point() {
        const DEFAULTS: &str = r#""topology":"mesh:3x3","seed":42,"attempts":1"#;
        for (flags, fields) in [
            (&[][..], DEFAULTS.to_string()),
            (
                &[
                    "--topology",
                    "torus:2x2x2",
                    "--collective",
                    "all-gather",
                    "--size",
                    "1MB",
                    "--chunks",
                    "2",
                ][..],
                r#""topology":"torus:2x2x2","collective":"all-gather","size":"1MB","chunks":2,"seed":42,"attempts":1"#
                    .to_string(),
            ),
            (
                &["--algo", "tacos:attempts=2", "--seed", "7"][..],
                r#""topology":"mesh:3x3","mechanism":"tacos:attempts=2","seed":7,"attempts":1"#
                    .to_string(),
            ),
            (
                &["--algo", "taccl", "--seed", "3"][..],
                r#""topology":"mesh:3x3","mechanism":"taccl","seed":3,"attempts":1"#.to_string(),
            ),
            (
                &["--algo", "ideal", "--alpha", "1", "--bw", "25"][..],
                format!(r#""mechanism":"ideal","alpha_us":1,"link_gbps":25,{DEFAULTS}"#),
            ),
        ] {
            let args: Vec<String> = flags.iter().map(|a| a.to_string()).collect();
            let from_flags = point(&Args::parse(&args, "argument", POINT, 0).unwrap()).unwrap();
            let line = format!("{{{fields}}}");
            let from_line = tacos_serve::Request::parse(&line).unwrap().point;
            assert_eq!(from_flags, from_line, "{flags:?} vs {line}");
            let (a, b) = (from_flags.resolve().unwrap(), from_line.resolve().unwrap());
            assert_eq!(a.0.name(), b.0.name(), "{line}");
            assert_eq!((a.1, a.2, &a.3), (b.1, b.2, &b.3), "{line}");
        }
    }
}
