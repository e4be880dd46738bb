//! The parent half: child processes, and the two self-checks built on
//! comparing sets of runs (`aa`, `sanity`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use tacos_report::Json;

use crate::metrics::END_TO_END;
use crate::stats::median;

/// The last line a child printed, parsed.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh process of this executable, echoing its
/// output, and parses the JSON object on its last line.
pub fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    slow: bool,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if slow {
        command.arg("--slow");
    }
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let mut last = String::new();
    let stdout = child.stdout.take().expect("stdout was piped");
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the {workload} child: {e}"))?;
        println!("{line}");
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the {workload} child: {e}"))?;
    let parsed = Json::parse(&last)
        .map_err(|e| format!("{workload} child ({status}) printed no result: {e}"))?;
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload} child ({status}) printed no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Report {
        correct: status.success() && parsed.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
    })
}

/// Medians of each end-to-end metric over one set of runs.
fn medians(reports: &[Report]) -> BTreeMap<&'static str, f64> {
    END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = reports.iter().map(|r| r.metrics[m.name]).collect();
            (m.name, median(&values))
        })
        .collect()
}

/// One table row per end-to-end metric, `prefix` first: both medians,
/// their relative difference, the A/A bound, and one of `verdicts` =
/// (within, beyond). Returns whether every metric stayed within its bound.
fn bounded_rows(
    prefix: &str,
    a: &[Report],
    b: &[Report],
    verdicts: (&str, &str),
    rows: &mut Vec<String>,
) -> bool {
    let (ma, mb) = (medians(a), medians(b));
    let mut all_within = true;
    for m in &END_TO_END {
        let diff = (mb[m.name] - ma[m.name]) / ma[m.name];
        let within = diff.abs() <= m.aa_bound;
        all_within &= within;
        rows.push(format!(
            "| {prefix} | {} | {:.4} | {:.4} | {:+.2}% | {} | {} |",
            m.name,
            ma[m.name],
            mb[m.name],
            diff * 100.0,
            if m.aa_bound < 1e-6 {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.aa_bound * 100.0)
            },
            if within { verdicts.0 } else { verdicts.1 }
        ));
    }
    all_within
}

/// Two interleaved sets of `runs` runs of `workload`; set B optionally
/// on the known-slower configuration.
fn two_sets(
    workload: &str,
    runs: usize,
    seed: u64,
    seconds: f64,
    slow_b: bool,
) -> Result<(Vec<Report>, Vec<Report>), String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for run in 0..runs as u64 {
        // Both sets see the same seeds, so schedule quality must repeat
        // exactly; alternate which set goes first.
        let first_a = run % 2 == 0;
        for is_a in [first_a, !first_a] {
            let report = spawn_child(workload, seed + run, seconds, false, slow_b && !is_a)?;
            if is_a { &mut a } else { &mut b }.push(report);
        }
    }
    Ok((a, b))
}

/// `bench aa`: the same code twice; every metric must agree within its
/// bound.
pub fn aa(workloads: &[&str], runs: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut all_pass = true;
    for workload in workloads {
        let (a, b) = two_sets(workload, runs, seed, seconds, false)?;
        all_pass &= a.iter().chain(&b).all(|r| r.correct);
        all_pass &= bounded_rows(workload, &a, &b, ("PASS", "FAIL"), &mut rows);
    }
    println!(
        "\nA/A: two interleaved sets of {runs} runs, seeds {seed}..{}",
        seed + runs as u64 - 1
    );
    println!("| workload | metric | median A | median B | B vs A | bound | |");
    println!("|---|---|---|---|---|---|---|");
    rows.iter().for_each(|r| println!("{r}"));
    Ok(all_pass)
}

/// A known-slower configuration the benchmark must detect.
struct SlowCheck {
    workload: &'static str,
    what: &'static str,
    metric: &'static str,
    /// The metric must worsen by at least this factor.
    at_least: f64,
    /// `--seconds` of both sides: short where the slow side is ~100x slower.
    seconds: f64,
}

const SLOW_CHECKS: [SlowCheck; 2] = [
    SlowCheck {
        workload: "synth_scale",
        what: "SynthesizerConfig::with_reference_matching(true)",
        metric: "wall_s",
        at_least: 1.3,
        seconds: 10.0,
    },
    SlowCheck {
        workload: "serve_hits",
        what: "daemon warm_limits.max_entries = 1",
        metric: "op_p50_ms",
        at_least: 10.0,
        seconds: 0.1,
    },
];

/// `bench sanity`: set B runs every workload with `--slow`. The two
/// workloads that read it must move their predicted metric; the three
/// that do not must stay within bounds.
pub fn sanity(seed: u64) -> Result<bool, String> {
    const RUNS: usize = 3;
    let mut rows = Vec::new();
    let mut all_pass = true;
    for workload in crate::workloads::NAMES {
        let check = SLOW_CHECKS.iter().find(|c| c.workload == workload);
        let seconds = check.map_or(crate::SIZED_FOR_SECONDS, |c| c.seconds);
        let (a, b) = two_sets(workload, RUNS, seed, seconds, true)?;
        all_pass &= a.iter().chain(&b).all(|r| r.correct);
        match check {
            Some(c) => {
                let (ma, mb) = (medians(&a)[c.metric], medians(&b)[c.metric]);
                let factor = mb / ma;
                let pass = factor >= c.at_least;
                all_pass &= pass;
                rows.push(format!(
                    "| {workload} | {} | {} | {ma:.4} | {mb:.4} | {factor:.2}x | >= {}x | {} |",
                    c.what,
                    c.metric,
                    c.at_least,
                    if pass { "DETECTED" } else { "MISSED" }
                ));
            }
            None => {
                let prefix = format!("{workload} | (reads no slow setting)");
                all_pass &= bounded_rows(&prefix, &a, &b, ("within bound", "MOVED"), &mut rows);
            }
        }
    }
    println!("\nsanity: set A as shipped, set B with --slow, {RUNS} interleaved runs each");
    println!("| workload | slow setting | metric | median A | median B | B vs A | expected | |");
    println!("|---|---|---|---|---|---|---|---|");
    rows.iter().for_each(|r| println!("{r}"));
    Ok(all_pass)
}
