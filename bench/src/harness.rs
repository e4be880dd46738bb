//! The measuring half of the harness: runs one workload in this (child)
//! process and prints its metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tacos_report::Json;

use crate::metrics::{self, END_TO_END};
use crate::stats::{self, Latency};
use crate::sys::{self, Stopwatch};
use crate::trace::Tracer;

/// Set-up runs this many times; `setup_s` is the median, so one slow
/// page-cache or scheduler moment does not set it.
pub const SETUP_REPS: usize = 3;

/// What one invocation of the child was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// `--seconds` over the 10 s the workload files are sized for.
    pub scale: f64,
    pub trace: bool,
    /// A known-slower program configuration (`bench sanity` only).
    pub slow: bool,
}

/// One pass over a workload's fixed op list.
#[derive(Debug, Default)]
pub struct Pass {
    /// First timed op start to last timed op end.
    pub wall: Duration,
    pub latencies_ms: Vec<f64>,
    /// Ops that errored, were rejected, or failed verification.
    pub failed: usize,
}

/// Schedule quality of one distinct key: the returned collective time
/// beside the ideal bound, both in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub time_ps: u64,
    pub ideal_ps: u64,
}

pub trait Workload {
    /// Everything before the first timed op, ending with one untimed
    /// warm-up pass. Called up to [`SETUP_REPS`] times; each call starts from
    /// scratch and leaves the state the measured pass runs on. Output
    /// verification happens here with `clock` paused.
    fn setup(&mut self, rep: usize, tr: &mut Tracer, clock: &mut Stopwatch) -> Result<(), String>;

    /// The fixed op list, closed-loop.
    fn measure(&mut self, tr: &mut Tracer) -> Result<Pass, String>;

    /// Traced runs only: times layer calls the ops reach only through
    /// another crate, outside any op.
    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// One entry per distinct key the workload asked for.
    fn quality(&self) -> &[Quality];

    /// Stops what set-up started and removes its files.
    fn teardown(&mut self);
}

/// `bench/out`: trace files and per-run scratch directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory of this process, emptied.
pub fn scratch_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = out_dir().join(format!("tmp-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

struct Timed {
    pass: Pass,
    cpu_s: f64,
}

fn timed_pass(workload: &mut dyn Workload, tr: &mut Tracer) -> Result<Timed, String> {
    let cpu_before = sys::cpu_seconds();
    let pass = workload.measure(tr)?;
    Ok(Timed {
        pass,
        cpu_s: sys::cpu_seconds() - cpu_before,
    })
}

/// Runs the workload and prints the result; `Ok(true)` when every op
/// succeeded and verified.
pub fn run_child(args: &RunArgs) -> Result<bool, String> {
    let mut workload = crate::workloads::build(args)?;
    let outcome = run_phases(workload.as_mut(), args);
    workload.teardown();
    outcome
}

fn run_phases(workload: &mut dyn Workload, args: &RunArgs) -> Result<bool, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    // A traced run reports no `setup_s`: one set-up is enough.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut clock = Stopwatch::started();
        workload.setup(rep, &mut tr, &mut clock)?;
        setup_s.push(clock.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setup_s);

    let mut untraced = Tracer::new(false, epoch);
    sys::reset_peak_rss();
    let plain = timed_pass(workload, &mut untraced)?;
    let latency = stats::summarize(&plain.pass.latencies_ms)?;
    let attempted = plain.pass.latencies_ms.len() + plain.pass.failed;
    let mut failed = plain.pass.failed;

    println!(
        "workload {}  seed {}  ops {}  failed {}  failed_share {:.6}",
        args.workload,
        args.seed,
        attempted,
        failed,
        failed as f64 / attempted as f64
    );
    println!(
        "op_tail_ms is p{} of {} samples ({} beyond it)",
        latency.tail_percentile, latency.samples, latency.beyond_tail
    );

    let metrics = if args.trace {
        let traced = timed_pass(workload, &mut tr)?;
        failed += traced.pass.failed;
        workload.probes(&mut tr)?;
        // Traced over untraced measured pass, on wall and on CPU: CPU is
        // the one to read where the traced pass runs a parallel step
        // attempt by attempt (synth_hetero) or wall is mostly waiting
        // (serve_churn).
        let over = |traced: f64, plain: f64| (traced / plain - 1.0) * 100.0;
        let layer = metrics::per_layer(
            &tr,
            over(
                traced.pass.wall.as_secs_f64(),
                plain.pass.wall.as_secs_f64(),
            ),
            over(traced.cpu_s, plain.cpu_s),
        );
        write_trace(args, &tr, &layer)?;
        layer
    } else {
        end_to_end(workload, setup_s, &plain, &latency)?
    };

    for (name, value, unit) in &metrics {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map(|m| format!("  (bound {:.0}%)", m.bound * 100.0))
            .unwrap_or_default();
        println!("{name:<28} {value:>16.4} {unit}{bound}");
    }
    let correct = failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Uint(attempted as u64)),
        ("failed", Json::Uint(failed as u64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let entry =
                            Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{line}");
    Ok(correct)
}

fn end_to_end(
    workload: &dyn Workload,
    setup_s: f64,
    plain: &Timed,
    latency: &Latency,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let quality = workload.quality();
    if quality.is_empty() || quality.iter().any(|q| q.time_ps == 0 || q.ideal_ps == 0) {
        return Err("a key returned no collective time or has no ideal bound".into());
    }
    let collective_time_us = quality.iter().map(|q| q.time_ps as f64).sum::<f64>() / 1e6;
    let ideal_ratio = (quality
        .iter()
        .map(|q| (q.time_ps as f64 / q.ideal_ps as f64).ln())
        .sum::<f64>()
        / quality.len() as f64)
        .exp();
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => setup_s,
            "wall_s" => plain.pass.wall.as_secs_f64(),
            "op_p50_ms" => latency.p50_ms,
            "op_tail_ms" => latency.tail_ms,
            "cpu_s" => plain.cpu_s,
            "peak_rss_mb" => sys::peak_rss_mb(),
            "collective_time_us" => collective_time_us,
            "ideal_ratio" => ideal_ratio,
            other => unreachable!("no reading for end-to-end metric {other}"),
        }
    };
    Ok(END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect())
}

fn write_trace(
    args: &RunArgs,
    tr: &Tracer,
    layer: &[(&'static str, f64, &'static str)],
) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    let metrics = Json::Obj(
        layer
            .iter()
            .map(|(name, value, _)| (name.to_string(), Json::Num(*value)))
            .collect(),
    );
    let doc = tr.to_json(vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::Uint(args.seed)),
        ("metrics", metrics),
    ]);
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} spans written to {}", tr.spans().len(), path.display());
    Ok(())
}
