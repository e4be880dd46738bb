//! `bench`: the one performance harness of this repository.
//!
//! ```text
//! bench run    [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//! bench aa     [--runs N] [--workload W] [--seed N] [--seconds S]
//! bench sanity [--seed N]
//! ```
//!
//! `run` executes each workload in a fresh child process, verifies its
//! outputs, and prints every metric by name with its unit; the last line
//! of each workload's output is one JSON object. See `bench/README.md`.
//! (`child` and `populate` are the processes `run` starts; not for direct use.)

mod compare;
mod eval;
mod gen;
mod harness;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::RunArgs;

/// The seed when none is given.
const DEFAULT_SEED: u64 = 1;

/// The measured-phase length the workload files are sized for; `--seconds`
/// scales their repeat counts relative to it.
const SIZED_FOR_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    slow: bool,
    /// `populate` only: the daemon's cache directory.
    dir: Option<std::path::PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or("missing command")?,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: SIZED_FOR_SECONDS,
        trace: false,
        runs: 3,
        slow: false,
        dir: None,
    };
    let mut rest = args[1..].iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            rest.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                cli.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--runs" => {
                cli.runs = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if cli.runs < 3 {
                    return Err("--runs must be at least 3".into());
                }
            }
            // Bare `--trace` traces; the driver passes `--trace 0|1`.
            "--trace" => {
                cli.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            "--slow" => cli.slow = true,
            "--dir" => cli.dir = Some(value("a directory")?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = &cli.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}' (one of {:?})",
                workloads::NAMES
            ));
        }
    }
    Ok(cli)
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    let selected: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let scale = cli.seconds / SIZED_FOR_SECONDS;
    let run_args = || -> Result<RunArgs, String> {
        Ok(RunArgs {
            workload: cli.workload.clone().ok_or("--workload is required")?,
            seed: cli.seed,
            scale,
            trace: cli.trace,
            slow: cli.slow,
        })
    };
    match cli.command.as_str() {
        // Internal: the process a workload is measured in, and the
        // daemon incarnation `serve_hits` restarts from.
        "child" => harness::run_child(&run_args()?),
        "populate" => {
            let dir = cli.dir.as_deref().ok_or("populate needs --dir")?;
            workloads::populate(&run_args()?, dir).map(|()| true)
        }
        "run" => {
            let mut all_correct = true;
            for workload in selected {
                let report =
                    compare::spawn_child(workload, cli.seed, cli.seconds, cli.trace, false)?;
                all_correct &= report.correct;
            }
            Ok(all_correct)
        }
        "aa" => compare::aa(&selected, cli.runs, cli.seed, cli.seconds),
        "sanity" => compare::sanity(cli.seed),
        other => Err(format!("unknown command '{other}' (run, aa, sanity)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
