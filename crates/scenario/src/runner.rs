//! The sharded scenario runner.
//!
//! Points are distributed over a work-stealing pool of `std::thread::scope`
//! workers (the same atomic-counter pattern as `tacos-core`'s best-of-N
//! parallel synthesis): each worker repeatedly claims the next unclaimed
//! point index, executes it end-to-end, and records the result at its
//! index, so output order is deterministic regardless of scheduling.
//!
//! Every point routes through [`AlgorithmCache`] (unless disabled):
//! TACOS syntheses under their structural fingerprint, baseline
//! generations under an algorithm-tagged fingerprint. Re-running a
//! scenario — or a different scenario whose grid overlaps — therefore
//! only generates the points not already cached, which is what makes
//! large sweeps incrementally resumable.
//!
//! ## Output shaping
//!
//! When the scenario has an `output` stem, **raw** rows (the default
//! metric layout) are streamed to `<stem>.partial.csv` as points
//! complete, in completion order — a run killed halfway keeps every
//! finished point. After the sweep the shaped `<stem>.csv` (the
//! `[report]`-selected metric columns, per-group normalization applied)
//! and the full `<stem>.json` are written and the partial file is
//! removed.

use std::borrow::Cow;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use tacos_collective::CollectivePattern;
use tacos_core::{AlgorithmCache, CacheOutcome, SynthesisScratch, SynthesizerConfig};
use tacos_report::{to_csv, Json};
use tacos_sim::{LinkLoadStats, SimReport, TimelineSegment};
use tacos_topology::{Time, Topology};
use tacos_workload::{
    bandwidth_gbps, Evaluator, Mechanism, TrainingEvaluator, TrainingReport, Workload,
};

use crate::axis::{self, Cell, Column};
use crate::error::ScenarioError;
use crate::grid::{expand, ScenarioPoint};
use crate::progress::Progress;
use crate::spec::{
    parse_pattern, select_failed_links, Evaluation, LinkAxis, ReportSettings, ScenarioSpec,
    TimelineSettings, WorkloadSettings,
};

/// The marker a timed-out point's error string starts with (see
/// `[run] timeout_s`): such rows are recorded, reported separately in
/// [`RunSummary::timed_out`], and not counted as failures.
pub const TIMED_OUT: &str = "timed_out";

/// The error string recorded for points never executed because a
/// shutdown request (SIGINT/SIGTERM via [`tacos_core::shutdown`], or a
/// programmatic [`tacos_core::shutdown::trigger`]) arrived mid-run.
/// Workers finish the point they are on, unclaimed points get
/// `interrupted` rows, and the partial CSV plus shaped outputs are still
/// written — an interrupted sweep is resumable, not lost.
pub const INTERRUPTED: &str = "interrupted";

/// Metrics measured for one successfully executed point.
#[derive(Debug, Clone)]
pub struct PointMetrics {
    /// NPU count of the instantiated topology.
    pub num_npus: usize,
    /// Completion time: the collective's for bandwidth points, the full
    /// training iteration's for `[workload]` points.
    pub collective_time: Time,
    /// Achieved bandwidth in GB/s (`total size / time`); `None` on
    /// training points (an iteration has no single payload to rate).
    pub bandwidth_gbps: Option<f64>,
    /// Fraction of the theoretical ideal bound achieved (for training
    /// points: the ideal-mechanism iteration total over this one).
    pub efficiency: f64,
    /// Chunking factor the collective actually ran with (a `tacos:N`
    /// algo variant overrides the point's `chunks` axis value; training
    /// baselines and the ideal bound run unchunked, so their rows read
    /// `1` regardless of the axis).
    pub chunks: usize,
    /// Number of transfers in the algorithm (summed over the gradient
    /// collectives on training points).
    pub transfers: u64,
    /// Wall-clock seconds synthesizing (or loading) the algorithm(s).
    pub synthesis_seconds: f64,
    /// Cache disposition; `None` when caching is disabled. A training
    /// point runs several collectives through the cache: `Hit` only when
    /// every one of them hit.
    pub cache: Option<CacheOutcome>,
    /// Whether the congestion-aware simulator produced the time.
    pub simulated: bool,
    /// Per-link load statistics when the point was simulated.
    pub link_stats: Option<LinkLoadStats>,
    /// Time-resolved views captured when the scenario has a `[timeline]`
    /// section and the point was simulated.
    pub timeline: Option<PointTimeline>,
    /// The iteration breakdown on training (`[workload]`) points.
    pub training: Option<TrainingReport>,
}

/// The time-resolved views of one simulated point, as configured by the
/// scenario's `[timeline]` section.
#[derive(Debug, Clone, Default)]
pub struct PointTimeline {
    /// Uniform utilization buckets (`timeline.buckets` of them at most).
    pub buckets: Vec<TimelineSegment>,
    /// Event-aligned span stages (when `timeline.stages` is set).
    pub stages: Vec<TimelineSegment>,
}

/// One grid point plus its execution outcome.
#[derive(Debug, Clone)]
pub struct PointRecord {
    /// The point.
    pub point: ScenarioPoint,
    /// Metrics, or a readable failure message.
    pub result: Result<PointMetrics, String>,
}

/// Aggregate outcome of a scenario run.
#[derive(Debug)]
pub struct RunSummary {
    /// Scenario name.
    pub scenario: String,
    /// Result shaping applied to the CSV output.
    pub report: ReportSettings,
    /// Whether this was a training (`[workload]`) run; selects the
    /// default metric layout.
    pub training: bool,
    /// Per-point records, in grid order.
    pub records: Vec<PointRecord>,
    /// Points whose algorithm was freshly generated this run.
    pub generated: usize,
    /// Points served from the algorithm cache.
    pub cache_hits: usize,
    /// Points that failed (not counting timeouts).
    pub failed: usize,
    /// Points abandoned by the per-point `timeout_s` budget; recorded as
    /// `timed_out` rows, reported here, and not counted in `failed`.
    pub timed_out: usize,
    /// Points never executed because a shutdown request interrupted the
    /// run; recorded as `interrupted` rows and not counted in `failed`.
    pub interrupted: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

/// A CSV header: the identity columns, the given metric columns, and a
/// trailing `error` column.
fn csv_header(columns: &[&Column]) -> Vec<String> {
    let mut header = axis::identity_header();
    header.extend(columns.iter().map(|c| c.name.to_string()));
    header.push("error".to_string());
    header
}

/// The CSV form of a cell.
fn csv(cell: Option<Cell>) -> String {
    cell.map(|c| c.to_string()).unwrap_or_default()
}

/// The identity cells of one CSV row, matching the identity header.
fn identity_cells(scenario: &str, r: &PointRecord) -> Vec<String> {
    let p = reported_point(r);
    let mut row = vec![scenario.to_string(), p.index.to_string()];
    row.extend(axis::identity(&p).into_iter().map(|(_, cell, _)| csv(cell)));
    row
}

/// One CSV row matching [`csv_header`]: identity cells, then the metric
/// cells (empty on a failed point) and the error (empty on success).
fn csv_row(
    scenario: &str,
    columns: &[&Column],
    r: &PointRecord,
    normalized: Option<f64>,
) -> Vec<String> {
    let metrics = r.result.as_ref().ok();
    let cells = columns
        .iter()
        .map(|col| csv(metrics.and_then(|m| col.cell(m, normalized))));
    let mut row = identity_cells(scenario, r);
    row.extend(cells);
    row.push(r.result.as_ref().err().cloned().unwrap_or_default());
    row
}

/// The point as its row reports it. A `tacos:N` variant executes with its
/// own chunking factor: rows carry the chunking the collective actually
/// ran with, not the axis value it overrode.
fn reported_point(r: &PointRecord) -> Cow<'_, ScenarioPoint> {
    match &r.result {
        Ok(m) if m.chunks != r.point.chunks => Cow::Owned(ScenarioPoint {
            chunks: m.chunks,
            ..r.point.clone()
        }),
        _ => Cow::Borrowed(&r.point),
    }
}

impl RunSummary {
    /// The header of [`RunSummary::csv_rows`]: the identity columns, the
    /// `[report]`-selected metric columns, and a trailing `error` column.
    pub fn csv_header(&self) -> Vec<String> {
        csv_header(&self.report.metric_columns_for(self.training))
    }

    /// All records as shaped CSV rows (header first): metric columns as
    /// selected by the scenario's `[report]` section, with the
    /// `normalized_time` column filled per `group_by` group.
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        let columns = self.report.metric_columns_for(self.training);
        let normalized = self.normalized_times();
        let rows = self.records.iter().zip(&normalized);
        std::iter::once(csv_header(&columns))
            .chain(rows.map(|(r, norm)| csv_row(&self.scenario, &columns, r, *norm)))
            .collect()
    }

    /// The `group_by` key of a point: the identity cells of the grouping
    /// axes, joined.
    fn group_key(&self, p: &ScenarioPoint) -> String {
        let cells = self.report.group_by.iter().flat_map(|a| a.cells);
        let cells = cells.map(|(_, cell)| csv(cell(p)));
        cells.collect::<Vec<_>>().join("\u{1f}")
    }

    /// Per-record `normalized_time` values: each successful point's
    /// collective time over its group's `normalize_over` row's time
    /// (exactly 1.0 on the baseline's own rows). `None` without
    /// normalization, on failed points, and in groups whose baseline row
    /// failed or was excluded. If a group somehow holds several baseline
    /// rows (a `group_by` coarser than the grid), the first in grid order
    /// is the reference.
    pub fn normalized_times(&self) -> Vec<Option<f64>> {
        let Some(baseline_algo) = &self.report.normalize_over else {
            return vec![None; self.records.len()];
        };
        let mut baselines: std::collections::HashMap<String, f64> =
            std::collections::HashMap::new();
        for r in &self.records {
            if &r.point.algo == baseline_algo {
                if let Ok(m) = &r.result {
                    baselines
                        .entry(self.group_key(&r.point))
                        .or_insert_with(|| m.collective_time.as_secs_f64());
                }
            }
        }
        self.records
            .iter()
            .map(|r| match &r.result {
                Ok(m) => baselines
                    .get(&self.group_key(&r.point))
                    .map(|&b| m.collective_time.as_secs_f64() / b),
                Err(_) => None,
            })
            .collect()
    }

    /// The full summary as a JSON value (always the complete raw metric
    /// set plus any derived values, independent of the CSV shaping).
    pub fn to_json(&self) -> Json {
        let normalized = self.normalized_times();
        let points =
            self.records
                .iter()
                .zip(&normalized)
                .map(|(r, norm)| {
                    let p = reported_point(r);
                    let mut fields = vec![("point", Json::Uint(p.index as u64))];
                    let identity = axis::identity(&p).into_iter();
                    fields.extend(identity.filter_map(|(name, cell, in_json)| {
                        cell.filter(|_| in_json).map(|c| (name, c.json()))
                    }));
                    match &r.result {
                        Ok(m) => {
                            let carried = axis::COLUMNS.iter().filter(|c| c.in_json());
                            fields.extend(carried.filter_map(|c| {
                                c.cell(m, *norm).map(|cell| (c.name, cell.json()))
                            }));
                        }
                        Err(e) => fields.push(("error", Json::Str(e.clone()))),
                    }
                    Json::obj(fields)
                })
                .collect();
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("points", Json::Arr(points)),
            ("generated", (self.generated as u64).into()),
            ("cache_hits", (self.cache_hits as u64).into()),
            ("failed", (self.failed as u64).into()),
            ("timed_out", (self.timed_out as u64).into()),
            ("interrupted", (self.interrupted as u64).into()),
            ("elapsed_seconds", self.elapsed.as_secs_f64().into()),
        ])
    }

    /// The long-format rows of the `<stem>.timeline.csv` artifact (header
    /// first): one row per timeline bucket and per span stage of every
    /// point that captured time-resolved views, joinable to the main CSV
    /// through the shared identity columns.
    pub fn timeline_rows(&self) -> Vec<Vec<String>> {
        let mut header = axis::identity_header();
        header.extend(
            [
                "kind",
                "idx",
                "start_ps",
                "end_ps",
                "busy_ps",
                "utilization",
                "active_links",
                "bytes_completed",
                "cumulative_bytes",
            ]
            .map(str::to_string),
        );
        let mut rows = vec![header];
        for r in &self.records {
            let Ok(m) = &r.result else { continue };
            let Some(tl) = &m.timeline else { continue };
            let identity = identity_cells(&self.scenario, r);
            let mut push = |kind: &str, segments: &[TimelineSegment]| {
                for seg in segments {
                    let mut row = identity.clone();
                    row.extend([
                        kind.to_string(),
                        seg.index.to_string(),
                        seg.start.as_ps().to_string(),
                        seg.end.as_ps().to_string(),
                        seg.busy.as_ps().to_string(),
                        format!("{}", seg.utilization),
                        seg.active_links.to_string(),
                        seg.bytes_completed.to_string(),
                        seg.cumulative_bytes.to_string(),
                    ]);
                    rows.push(row);
                }
            };
            push("bucket", &tl.buckets);
            push("stage", &tl.stages);
        }
        rows
    }

    /// Whether any point captured time-resolved views (i.e. whether
    /// [`RunSummary::timeline_rows`] has data rows).
    pub fn has_timeline(&self) -> bool {
        self.records.iter().any(|r| {
            r.result
                .as_ref()
                .map(|m| m.timeline.is_some())
                .unwrap_or(false)
        })
    }

    /// Writes `<stem>.csv`, `<stem>.json`, and — when timeline views were
    /// captured — `<stem>.timeline.csv`, creating parent directories.
    ///
    /// # Errors
    /// Propagates filesystem errors with the offending path.
    pub fn write_outputs(&self, stem: &str) -> Result<(), ScenarioError> {
        if let Some(parent) = std::path::Path::new(stem).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ScenarioError::io(parent.display().to_string(), e))?;
            }
        }
        let csv_path = format!("{stem}.csv");
        std::fs::write(&csv_path, to_csv(&self.csv_rows()))
            .map_err(|e| ScenarioError::io(csv_path.clone(), e))?;
        let json_path = format!("{stem}.json");
        std::fs::write(&json_path, self.to_json().to_string())
            .map_err(|e| ScenarioError::io(json_path.clone(), e))?;
        if self.has_timeline() {
            let tl_path = format!("{stem}.timeline.csv");
            std::fs::write(&tl_path, to_csv(&self.timeline_rows()))
                .map_err(|e| ScenarioError::io(tl_path.clone(), e))?;
        }
        Ok(())
    }
}

/// Streams raw result rows to `<stem>.partial.csv` as points complete,
/// so a killed run keeps every finished point. Rows are appended in
/// completion order (not grid order) and the file is removed once the
/// final outputs are written.
struct PartialCsv {
    path: std::path::PathBuf,
    file: Mutex<std::fs::File>,
}

impl PartialCsv {
    fn create(stem: &str, columns: &[&Column]) -> Result<Self, ScenarioError> {
        let path = std::path::PathBuf::from(format!("{stem}.partial.csv"));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ScenarioError::io(parent.display().to_string(), e))?;
            }
        }
        let mut file = std::fs::File::create(&path)
            .map_err(|e| ScenarioError::io(path.display().to_string(), e))?;
        file.write_all(to_csv(&[csv_header(columns)]).as_bytes())
            .map_err(|e| ScenarioError::io(path.display().to_string(), e))?;
        Ok(PartialCsv {
            path,
            file: Mutex::new(file),
        })
    }

    /// Appends one row and flushes. Best-effort: a failing disk must not
    /// abort the sweep mid-run — the final write reports errors instead.
    fn append(&self, row: Vec<String>) {
        let encoded = to_csv(&[row]);
        if let Ok(mut f) = self.file.lock() {
            let _ = f.write_all(encoded.as_bytes());
            let _ = f.flush();
        }
    }

    /// Removes the partial file after the final outputs landed.
    fn remove(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Expands and executes a scenario, sharding points across worker threads.
///
/// Point-level failures are recorded per point (and counted in
/// [`RunSummary::failed`]) rather than aborting the sweep; only setup
/// failures — an unopenable cache directory, an invalid spec — abort.
/// Callers that need a process-level failure signal (the CLI) check
/// [`RunSummary::failed`] after the outputs are written, so completed
/// points always land on disk.
///
/// # Errors
/// Returns setup errors; never point-level execution errors.
pub fn run(spec: &ScenarioSpec) -> Result<RunSummary, ScenarioError> {
    let points = expand(spec)?;
    let cache = match &spec.run.cache {
        Some(dir) => Some(AlgorithmCache::new(dir).map_err(|e| ScenarioError::io(dir.clone(), e))?),
        None => None,
    };
    // Raw rows carry the evaluation kind's default metric layout.
    let raw_columns = Column::default_layout(spec.evaluation.is_training());
    let partial = match &spec.output {
        Some(stem) => Some(PartialCsv::create(stem, &raw_columns)?),
        None => None,
    };
    let workers = if spec.run.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        spec.run.threads
    }
    .min(points.len())
    .max(1);

    let progress = Progress::new(points.len(), !spec.run.quiet);
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Option<PointRecord>>> = Mutex::new(vec![None; points.len()]);
    let started = Instant::now();

    // Every point sharing a (topology, link) axis combination reuses one
    // parsed/built Topology instead of reconstructing it per point. Built
    // lazily so a combination that only appears in failing points still
    // reports its build error per point.
    let topo_shares = TopologyShares::new(&points);
    // Detached timeout jobs need owned spec data; share one deep copy
    // across the whole run instead of cloning it per point.
    let timeout_spec: Option<std::sync::Arc<ScenarioSpec>> = spec
        .run
        .timeout_s
        .map(|_| std::sync::Arc::new(spec.clone()));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Per-worker synthesis scratch, reused across every point
                // this worker claims.
                let mut scratch = SynthesisScratch::new();
                loop {
                    // Finish the in-progress point but claim no more once
                    // a shutdown is requested; the unclaimed remainder is
                    // recorded as `interrupted` rows below.
                    if tacos_core::shutdown::requested() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let point = &points[i];
                    let result = match topo_shares.get(spec, point) {
                        Ok(topo) => match (spec.run.timeout_s, &timeout_spec) {
                            (Some(budget), Some(shared)) => execute_point_with_timeout(
                                shared,
                                point,
                                topo,
                                cache.as_ref(),
                                budget,
                            ),
                            _ => execute_point(spec, point, topo, cache.as_ref(), &mut scratch),
                        },
                        Err(e) => Err(e),
                    };
                    let note = match &result {
                        Ok(m) => format!(
                            "{} ({})",
                            m.collective_time,
                            match m.cache {
                                Some(CacheOutcome::Hit) => "cache hit",
                                _ => "generated",
                            }
                        ),
                        Err(e) => format!("FAILED: {e}"),
                    };
                    progress.complete(&point.label(), &note);
                    let record = PointRecord {
                        point: point.clone(),
                        result,
                    };
                    if let Some(partial) = &partial {
                        partial.append(csv_row(&spec.name, &raw_columns, &record, None));
                    }
                    records.lock().expect("no poisoned locks")[i] = Some(record);
                }
            });
        }
    });

    let records: Vec<PointRecord> = records
        .into_inner()
        .expect("no poisoned locks")
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            // A missing record means no worker claimed the point before
            // the shutdown request landed.
            r.unwrap_or_else(|| PointRecord {
                point: points[i].clone(),
                result: Err(INTERRUPTED.to_string()),
            })
        })
        .collect();
    let mut generated = 0;
    let mut cache_hits = 0;
    let mut failed = 0;
    let mut timed_out = 0;
    let mut interrupted = 0;
    for r in &records {
        match &r.result {
            Ok(m) if m.cache == Some(CacheOutcome::Hit) => cache_hits += 1,
            Ok(_) => generated += 1,
            Err(e) if e.starts_with(TIMED_OUT) => timed_out += 1,
            Err(e) if e == INTERRUPTED => interrupted += 1,
            Err(_) => failed += 1,
        }
    }
    let summary = RunSummary {
        scenario: spec.name.clone(),
        report: spec.report.clone(),
        training: spec.evaluation.is_training(),
        records,
        generated,
        cache_hits,
        failed,
        timed_out,
        interrupted,
        elapsed: started.elapsed(),
    };
    if let Some(stem) = &spec.output {
        summary.write_outputs(stem)?;
        if let Some(partial) = partial {
            partial.remove();
        }
    }
    Ok(summary)
}

/// The axis combination identifying one shared (possibly degraded)
/// topology: spec string, link parameters, failure value, and — for
/// count-valued failures, whose victim selection is seed-keyed — the
/// point seed.
#[derive(PartialEq)]
struct ShareKey {
    topology: String,
    link: LinkAxis,
    without_links: crate::spec::WithoutLinks,
    selection_seed: u64,
}

impl ShareKey {
    fn of(point: &ScenarioPoint) -> ShareKey {
        ShareKey {
            topology: point.topology.clone(),
            link: point.link,
            without_links: point.without_links.clone(),
            // Explicit victim lists (and the healthy value) are seed-free;
            // folding the seed in anyway would defeat sharing across a
            // seed sweep.
            selection_seed: match &point.without_links {
                crate::spec::WithoutLinks::Count(n) if *n > 0 => point.seed,
                _ => 0,
            },
        }
    }
}

/// Lazily built topologies shared by every grid point with the same
/// (topology spec, link axis, failure value[, selection seed])
/// combination — including failure injection, so victim selection and
/// the degraded rebuild run once per combination, not once per point.
struct TopologyShares {
    combos: Vec<ShareKey>,
    built: Vec<OnceLock<Result<Topology, String>>>,
}

impl TopologyShares {
    fn new(points: &[ScenarioPoint]) -> Self {
        let mut combos: Vec<ShareKey> = Vec::new();
        for p in points {
            let key = ShareKey::of(p);
            if !combos.contains(&key) {
                combos.push(key);
            }
        }
        let built = combos.iter().map(|_| OnceLock::new()).collect();
        TopologyShares { combos, built }
    }

    /// The shared topology for `point` — degraded by its `without_links`
    /// value — building it on first use.
    fn get<'a>(
        &'a self,
        spec: &ScenarioSpec,
        point: &ScenarioPoint,
    ) -> Result<&'a Topology, String> {
        let key = ShareKey::of(point);
        let idx = self
            .combos
            .iter()
            .position(|k| *k == key)
            .expect("every point's combo was registered");
        self.built[idx]
            .get_or_init(|| {
                let base = spec.build_topology(&point.topology, point.link.to_spec())?;
                if point.without_links.is_healthy() {
                    return Ok(base);
                }
                let victims = select_failed_links(&base, &point.without_links, key.selection_seed)?;
                base.without_links(&victims)
                    .map_err(|e| format!("without_links '{}': {e}", point.without_links))
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// The base synthesizer configuration of a grid point: its `seed`,
/// `attempts`, and `synth.prefer_cheap_links` axis values. `tacos:...`
/// algo variants layer their per-variant overrides on top of this.
fn base_config(point: &ScenarioPoint) -> SynthesizerConfig {
    SynthesizerConfig::default()
        .with_seed(point.seed)
        .with_attempts(point.attempts)
        .with_prefer_cheap_links(point.prefer_cheap_links)
}

/// Executes one grid point end-to-end on its (possibly degraded) shared
/// topology, dispatching on the scenario's [`Evaluation`]: a collective's
/// bandwidth, or a training iteration. Everything — synthesis, the ideal
/// bound, the simulator — sees the post-failure-injection fabric.
fn execute_point(
    spec: &ScenarioSpec,
    point: &ScenarioPoint,
    topo: &Topology,
    cache: Option<&AlgorithmCache>,
    scratch: &mut SynthesisScratch,
) -> Result<PointMetrics, String> {
    let mechanism = Mechanism::parse(&point.algo, &base_config(point))?;
    match &spec.evaluation {
        Evaluation::Bandwidth => {
            execute_bandwidth_point(spec, point, topo, &mechanism, cache, scratch)
        }
        Evaluation::Training(settings) => {
            execute_training_point(settings, point, topo, &mechanism, cache, scratch)
        }
    }
}

/// Re-runs a point in a dedicated thread and abandons it when `budget`
/// (seconds) expires, recording a `timed_out` row instead of hanging the
/// shard. The abandoned thread keeps running detached until it finishes
/// or the process exits — CPU it burns is the price of not blocking the
/// sweep — so this path only engages when `[run] timeout_s` is set.
/// `spec` is the run-wide shared copy (one deep clone per run, not per
/// point).
fn execute_point_with_timeout(
    spec: &std::sync::Arc<ScenarioSpec>,
    point: &ScenarioPoint,
    topo: &Topology,
    cache: Option<&AlgorithmCache>,
    budget: f64,
) -> Result<PointMetrics, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    let job_spec = std::sync::Arc::clone(spec);
    let job_point = point.clone();
    let job_topo = topo.clone();
    let job_cache = cache.cloned();
    std::thread::spawn(move || {
        let mut scratch = SynthesisScratch::new();
        let result = execute_point(
            &job_spec,
            &job_point,
            &job_topo,
            job_cache.as_ref(),
            &mut scratch,
        );
        // The receiver is gone when the budget expired; nothing to do.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(Duration::from_secs_f64(budget)) {
        Ok(result) => result,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            Err(format!("{TIMED_OUT} after {budget}s"))
        }
        // A dropped sender means the job thread died (panicked) — that is
        // a point failure, not a timeout: misfiling it would let a
        // crashing sweep exit 0.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(
            "point execution thread died before reporting a result (panic during \
             synthesis/generation/simulation)"
                .into(),
        ),
    }
}

/// The bandwidth evaluation: one collective through the shared pipeline
/// ([`Evaluator::evaluate`]) → completion time and link statistics,
/// framed against the ideal bound.
fn execute_bandwidth_point(
    spec: &ScenarioSpec,
    point: &ScenarioPoint,
    topo: &Topology,
    mechanism: &Mechanism,
    cache: Option<&AlgorithmCache>,
    scratch: &mut SynthesisScratch,
) -> Result<PointMetrics, String> {
    let pattern = parse_pattern(&point.collective, topo.num_npus())?;
    let evaluator = Evaluator::new(topo, mechanism)
        .with_cache(cache, &point.algo)
        .with_simulation(spec.run.simulate);
    let evaluated = evaluator
        .evaluate(pattern, point.size, point.chunks, scratch)
        .map_err(|e| e.cause())?;
    let timeline = spec.timeline.as_ref().zip(evaluated.sim.as_ref());
    Ok(PointMetrics {
        num_npus: topo.num_npus(),
        collective_time: evaluated.time,
        bandwidth_gbps: Some(bandwidth_gbps(point.size, evaluated.time)),
        efficiency: evaluator
            .ideal()
            .efficiency(pattern, point.size, evaluated.time),
        chunks: evaluated.chunks,
        transfers: evaluated.transfers,
        synthesis_seconds: evaluated.generate_seconds,
        cache: evaluated.cache,
        simulated: evaluated.sim.is_some(),
        link_stats: evaluated.sim.as_ref().map(SimReport::link_load_stats),
        timeline: timeline.map(|(settings, report)| capture_timeline(settings, report)),
        training: None,
    })
}

/// The training evaluation: one iteration of the point's workload model,
/// every gradient All-Reduce resolved through the shared pipeline
/// ([`Evaluator::evaluate`], so schedules route through the cache). The
/// breakdown accounting (parallelism pattern, compute overlap) and the
/// training chunk rule live in [`TrainingEvaluator`].
fn execute_training_point(
    settings: &WorkloadSettings,
    point: &ScenarioPoint,
    topo: &Topology,
    mechanism: &Mechanism,
    cache: Option<&AlgorithmCache>,
    scratch: &mut SynthesisScratch,
) -> Result<PointMetrics, String> {
    let model = point
        .model
        .as_deref()
        .ok_or_else(|| "training grids carry a model per point".to_string())?;
    let workload = Workload::parse(model)?;
    let training = TrainingEvaluator::new(topo)
        .with_chunks(point.chunks)
        .with_parallelism(settings.parallelism)
        .with_overlap(settings.overlap);
    let caller_chunks = training.chunks_for(mechanism);
    // What the metrics report: the chunking the gradient collectives
    // actually ran with (a `tacos:N` variant overrides the caller's).
    let mut chunks = caller_chunks;
    // One evaluator per point: its ideal bound is shared by the Ideal
    // mechanism and the efficiency framing, not rebuilt per collective.
    let evaluator = Evaluator::new(topo, mechanism).with_cache(cache, &point.algo);

    let mut transfers = 0u64;
    let mut synthesis_seconds = 0.0f64;
    // A training point runs several collectives: the cache column only
    // reads `hit` when every one of them was served from disk, and `off`
    // when any ran uncached (no cache directory, or the ideal bound).
    let mut cache_outcome = Some(CacheOutcome::Hit);
    let report = training
        .evaluate_with_times(&workload, |size| {
            let evaluated =
                evaluator.evaluate(CollectivePattern::AllReduce, size, caller_chunks, scratch)?;
            chunks = evaluated.chunks;
            transfers += evaluated.transfers;
            synthesis_seconds += evaluated.generate_seconds;
            cache_outcome = match (cache_outcome, evaluated.cache) {
                (Some(CacheOutcome::Hit), Some(outcome)) => Some(outcome),
                (Some(CacheOutcome::Miss), Some(_)) => Some(CacheOutcome::Miss),
                _ => None,
            };
            Ok(evaluated.time)
        })
        .map_err(|e| e.to_string())?;

    // The efficiency framing of paper Fig. 20: this iteration against the
    // same iteration under the theoretical bound (~94% for TACOS there).
    // Ideal points are the bound — 1.0 by construction, no re-evaluation.
    let total = report.total();
    let efficiency = if *mechanism == Mechanism::Ideal || total.is_zero() {
        1.0
    } else {
        let ideal = evaluator.ideal();
        let ideal_total = training
            .evaluate_with_times(&workload, |size| {
                Ok(ideal.collective_time(CollectivePattern::AllReduce, size))
            })
            .map_err(|e| e.to_string())?
            .total();
        ideal_total.as_secs_f64() / total.as_secs_f64()
    };

    Ok(PointMetrics {
        num_npus: topo.num_npus(),
        collective_time: total,
        bandwidth_gbps: None,
        efficiency,
        chunks,
        transfers,
        synthesis_seconds,
        cache: cache_outcome,
        simulated: false,
        link_stats: None,
        timeline: None,
        training: Some(report),
    })
}

/// Extracts the configured time-resolved views from a simulation report.
fn capture_timeline(settings: &TimelineSettings, report: &SimReport) -> PointTimeline {
    PointTimeline {
        buckets: if settings.buckets > 0 {
            report.timeline(settings.buckets)
        } else {
            Vec::new()
        },
        stages: if settings.stages {
            report.span_stages()
        } else {
            Vec::new()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use tacos_baselines::BaselineAlgorithm;
    use tacos_collective::Collective;
    use tacos_core::Synthesizer;
    use tacos_sim::Simulator;

    fn toml_spec(body: &str) -> ScenarioSpec {
        let mut spec = ScenarioSpec::from_toml_str(body).unwrap();
        spec.run.quiet = true;
        spec
    }

    #[test]
    fn runs_a_small_grid_without_cache() {
        let spec = toml_spec(
            r#"
[scenario]
name = "small"
[sweep]
topology = ["mesh:2x2"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["tacos", "ring"]
[run]
cache = false
simulate = true
threads = 2
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.records.len(), 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.generated, 2);
        assert_eq!(summary.cache_hits, 0);
        for r in &summary.records {
            let m = r.result.as_ref().unwrap();
            assert!(m.collective_time > Time::ZERO);
            assert!(m.bandwidth_gbps.unwrap() > 0.0);
            assert!(m.cache.is_none());
            assert!(m.simulated);
            let stats = m.link_stats.expect("simulated points carry link stats");
            assert!(stats.max_link_bytes > 0);
            assert!(stats.imbalance >= 1.0);
        }
    }

    #[test]
    fn point_failures_are_recorded_not_fatal() {
        // dbt requires an even number of NPUs > 2 on many topologies; a
        // 3-NPU ring makes it fail while ring succeeds.
        let spec = toml_spec(
            r#"
[scenario]
name = "mixed"
[sweep]
topology = ["ring:3"]
collective = ["all-reduce"]
size = ["3MB"]
algo = ["ring", "dbt"]
[run]
cache = false
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.records.len(), 2);
        let ok = summary.records.iter().filter(|r| r.result.is_ok()).count();
        // At least the ring baseline must succeed; if dbt also succeeds
        // the failure-accounting still holds trivially.
        assert!(ok >= 1);
        assert_eq!(summary.failed, 2 - ok);
    }

    #[test]
    fn csv_and_json_have_a_row_per_point() {
        let spec = toml_spec(
            r#"
[scenario]
name = "io"
[sweep]
topology = ["ring:4"]
size = ["1MB", "2MB"]
algo = ["ring"]
[run]
cache = false
"#,
        );
        let summary = run(&spec).unwrap();
        let rows = summary.csv_rows();
        assert_eq!(rows.len(), 1 + 2);
        assert_eq!(rows[0].len(), rows[1].len());
        let json = summary.to_json().to_string();
        assert!(json.contains("\"scenario\":\"io\""));
        assert!(json.contains("\"points\":["));
        assert!(json.contains("\"synthesis_seconds\":"));
    }

    #[test]
    fn ideal_rows_report_the_bound_without_generating_anything() {
        let spec = toml_spec(
            r#"
[scenario]
name = "ideal"
[sweep]
topology = ["ring:4"]
size = ["4MB"]
algo = ["ring", "ideal"]
[run]
cache = false
simulate = true
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 0);
        let ring = summary.records[0].result.as_ref().unwrap();
        let ideal = summary.records[1].result.as_ref().unwrap();
        assert_eq!(ideal.transfers, 0);
        assert!(!ideal.simulated);
        assert!(ideal.link_stats.is_none());
        assert!((ideal.efficiency - 1.0).abs() < 1e-12);
        assert!(ideal.collective_time <= ring.collective_time);
    }

    #[test]
    fn tacos_chunk_variant_matches_direct_synthesis() {
        let spec = toml_spec(
            r#"
[scenario]
name = "chunked"
[sweep]
topology = ["mesh:2x2"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["tacos:2"]
seed = [7]
[run]
cache = false
simulate = true
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 0);
        let got = summary.records[0].result.as_ref().unwrap();

        // Reference: the same synthesis with the chunking applied to the
        // collective directly.
        let topo = spec
            .build_topology("mesh:2x2", LinkAxis::default_paper().to_spec())
            .unwrap();
        let coll = Collective::with_chunking(
            tacos_collective::CollectivePattern::AllGather,
            4,
            2,
            tacos_topology::ByteSize::mb(4),
        )
        .unwrap();
        let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(7).with_attempts(1));
        let expected = Simulator::new()
            .simulate(&topo, synth.synthesize(&topo, &coll).unwrap().algorithm())
            .unwrap()
            .collective_time();
        assert_eq!(got.collective_time, expected);

        // The outputs report the chunking the collective actually ran
        // with (2, from `tacos:2`), not the overridden axis value (1).
        assert_eq!(got.chunks, 2);
        let rows = summary.csv_rows();
        let chunks_col = rows[0].iter().position(|h| h == "chunks").unwrap();
        assert_eq!(rows[1][chunks_col], "2");
        assert!(summary.to_json().to_string().contains("\"chunks\":2"));
    }

    #[test]
    fn shaped_csv_carries_selected_and_normalized_columns() {
        let spec = toml_spec(
            r#"
[scenario]
name = "shaped"
[sweep]
topology = ["ring:4", "mesh:2x2"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["tacos", "ring"]
[run]
cache = false
simulate = true
[report]
columns = ["bandwidth_gbps", "percent_of_ideal", "max_link_bytes", "idle_links", "imbalance"]
normalize_over = "tacos"
group_by = ["topology"]
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 0);
        let rows = summary.csv_rows();
        let header = &rows[0];
        let col = |name: &str| {
            header
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("missing column {name} in {header:?}"))
        };
        // Selected metric columns only (plus the appended normalization).
        assert!(!header.iter().any(|h| h == "collective_time_ps"));
        let (algo_c, norm_c) = (col("algo"), col("normalized_time"));
        let (pct_c, imb_c) = (col("percent_of_ideal"), col("imbalance"));
        for row in &rows[1..] {
            let norm: f64 = row[norm_c].parse().unwrap();
            if row[algo_c] == "tacos" {
                assert_eq!(norm, 1.0, "baseline rows normalize to exactly 1.0");
            } else {
                assert!(norm > 0.0);
            }
            let pct: f64 = row[pct_c].parse().unwrap();
            assert!(pct > 0.0 && pct <= 100.0, "percent_of_ideal {pct}");
            assert!(row[imb_c].parse::<f64>().unwrap() >= 1.0);
        }
    }

    #[test]
    fn failed_runs_keep_finished_rows_in_outputs_and_partial_streams() {
        let dir = std::env::temp_dir().join(format!("tacos-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stem = dir.join("mixed").display().to_string();
        let mut spec = toml_spec(
            r#"
[scenario]
name = "mixed"
[sweep]
topology = ["ring:3"]
collective = ["all-reduce"]
size = ["3MB"]
algo = ["ring", "rhd"]
[run]
cache = false
"#,
        );
        spec.output = Some(stem.clone());
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 1, "rhd needs a power-of-two NPU count");

        // Final outputs exist and carry both the finished row and the
        // failure message.
        let csv = std::fs::read_to_string(format!("{stem}.csv")).unwrap();
        assert_eq!(csv.lines().count(), 1 + 2);
        let ring_row = csv.lines().find(|l| l.contains(",ring,")).unwrap();
        // The finished row carries metrics and an empty error cell.
        assert!(ring_row.ends_with(','), "ring row has no error: {ring_row}");
        assert!(ring_row.contains(",hit,") || ring_row.contains(",off,"));
        let json = std::fs::read_to_string(format!("{stem}.json")).unwrap();
        assert!(json.contains("\"error\":"));
        // The partial stream was finalized away.
        assert!(!std::path::Path::new(&format!("{stem}.partial.csv")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 8·2^61 wraps to 0 chunks and 8·(2^61+1) to 8 where overflow
    /// checks are off (release); each is a FAILED row with the
    /// collective's own one-line reason, and the rest of the grid runs.
    #[test]
    fn a_chunks_axis_value_that_overflows_fails_its_points_only() {
        let spec = toml_spec(
            r#"
[scenario]
name = "big_chunks"
[sweep]
topology = ["ring:8"]
collective = ["all-reduce"]
size = ["1MB"]
algo = ["tacos", "ring"]
chunks = [2305843009213693952, 2305843009213693953, 1]
[run]
cache = false
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.records.len(), 6);
        assert_eq!(summary.failed, 4);
        for record in &summary.records {
            match &record.result {
                Ok(_) => assert_eq!(record.point.chunks, 1),
                Err(e) => assert_eq!(
                    *e,
                    format!(
                        "chunking factor {} over 8 NPUs exceeds the 4294967295 chunks a \
                         collective can number",
                        record.point.chunks
                    )
                ),
            }
        }
    }

    /// A chunks value that fits a chunk id but spans more (NPU, chunk)
    /// pairs than the collective bound fails its points with the
    /// collective's reason before anything is allocated.
    #[test]
    fn a_chunks_axis_value_over_the_pair_limit_fails_its_points_only() {
        let spec = toml_spec(
            r#"
[scenario]
name = "huge_chunks"
[sweep]
topology = ["ring:8"]
collective = ["all-reduce"]
size = ["1MB"]
algo = ["tacos", "ring"]
chunks = [268435456, 2]
[run]
cache = false
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.records.len(), 4);
        assert_eq!(summary.failed, 2);
        for record in &summary.records {
            match &record.result {
                Ok(_) => assert_eq!(record.point.chunks, 2),
                Err(e) => assert_eq!(
                    e,
                    "collective spans 17179869184 (NPU, chunk) pairs, over the limit of 33554432"
                ),
            }
        }
    }

    #[test]
    fn failure_axis_degrades_the_topology_per_point() {
        let spec = toml_spec(
            r#"
[scenario]
name = "failure"
[sweep]
topology = ["torus:3x3"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["ring"]
seed = [7]
without_links = [0, "3", 2]
[run]
cache = false
simulate = true
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.records.len(), 3);
        // Reference: the healthy and explicitly-degraded topologies run
        // through the same measurement path.
        let topo = spec
            .build_topology("torus:3x3", LinkAxis::default_paper().to_spec())
            .unwrap();
        let coll = Collective::all_gather(9, tacos_topology::ByteSize::mb(4)).unwrap();
        let measure = |t: &Topology| {
            let algo = BaselineAlgorithm::new(tacos_baselines::BaselineKind::Ring)
                .generate(t, &coll)
                .unwrap();
            Simulator::new()
                .simulate(t, &algo)
                .unwrap()
                .collective_time()
        };
        let healthy = &summary.records[0];
        assert_eq!(
            healthy.result.as_ref().unwrap().collective_time,
            measure(&topo)
        );
        let explicit = &summary.records[1];
        assert_eq!(explicit.point.without_links.label(), "3");
        assert_eq!(
            explicit.result.as_ref().unwrap().collective_time,
            measure(
                &topo
                    .without_links(&[tacos_topology::LinkId::new(3)])
                    .unwrap()
            )
        );
        // Count selection: deterministic for the point's seed, and the
        // degraded run matches replaying that exact victim set.
        let counted = &summary.records[2];
        let victims = select_failed_links(&topo, &counted.point.without_links, 7).unwrap();
        assert_eq!(victims.len(), 2);
        assert_eq!(
            counted.result.as_ref().unwrap().collective_time,
            measure(&topo.without_links(&victims).unwrap())
        );
        // Re-running reproduces the numbers (selection is seed-keyed).
        let again = run(&spec).unwrap();
        for (a, b) in summary.records.iter().zip(&again.records) {
            assert_eq!(
                a.result.as_ref().unwrap().collective_time,
                b.result.as_ref().unwrap().collective_time
            );
        }
        // The identity column carries the axis label.
        let rows = summary.csv_rows();
        let col = rows[0].iter().position(|h| h == "without_links").unwrap();
        assert_eq!(rows[1][col], "0");
        assert_eq!(rows[2][col], "3");
        assert_eq!(rows[3][col], "2");
    }

    #[test]
    fn timeline_artifact_is_written_and_consistent() {
        let dir = std::env::temp_dir().join(format!("tacos-timeline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stem = dir.join("tl").display().to_string();
        let mut spec = toml_spec(
            r#"
[scenario]
name = "tl"
[sweep]
topology = ["mesh:2x2"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["tacos", "ideal"]
[run]
cache = false
simulate = true
[timeline]
buckets = 8
stages = true
"#,
        );
        spec.output = Some(stem.clone());
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 0);
        assert!(summary.has_timeline());

        // The tacos point captured both views; ideal rows have none
        // (nothing is simulated for the bound).
        let tacos = summary.records[0].result.as_ref().unwrap();
        let tl = tacos.timeline.as_ref().expect("simulated point timeline");
        assert!(!tl.buckets.is_empty() && tl.buckets.len() <= 8);
        assert!(!tl.stages.is_empty());
        assert_eq!(
            tl.buckets.last().unwrap().end.as_ps(),
            tacos.collective_time.as_ps()
        );
        assert!(summary.records[1]
            .result
            .as_ref()
            .unwrap()
            .timeline
            .is_none());

        // The long CSV exists, is non-empty, and is joinable by identity.
        let text = std::fs::read_to_string(format!("{stem}.timeline.csv")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "header plus data rows");
        assert!(lines[0].starts_with("scenario,point,topology"));
        assert!(lines[0].contains("kind,idx,start_ps"));
        assert!(lines[1..]
            .iter()
            .all(|l| l.contains(",bucket,") || l.contains(",stage,")));
        assert!(lines[1..].iter().any(|l| l.contains(",stage,")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn training_points_run_through_the_training_evaluator() {
        let spec = toml_spec(
            r#"
[scenario]
name = "train"
[sweep]
topology = ["torus:2x2x2"]
chunks = [4]
algo = ["ring", "tacos:2", "ideal"]
seed = [7]
attempts = [2]
[workload]
model = ["msft_1t"]
[run]
cache = false
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 0);
        assert!(summary.training);
        assert_eq!(summary.records.len(), 3);

        // Reference: TrainingEvaluator under the same mechanisms — the
        // exact measurement path of the deleted fig20/fig21 binaries.
        let topo = spec
            .build_topology("torus:2x2x2", LinkAxis::default_paper().to_spec())
            .unwrap();
        let base = SynthesizerConfig::default().with_seed(7).with_attempts(2);
        for record in &summary.records {
            let p = &record.point;
            assert_eq!(p.model.as_deref(), Some("msft_1t"));
            let mechanism = Mechanism::parse(&p.algo, &base).unwrap();
            // `tacos:2` overrides the chunking axis for that variant
            // only; baselines and the bound run unchunked collectives.
            let chunks = match &mechanism {
                Mechanism::Tacos(m) => m.chunks.unwrap_or(p.chunks),
                _ => 1,
            };
            let evaluator = TrainingEvaluator::new(&topo).with_chunks(chunks);
            let expected = evaluator
                .evaluate(&Workload::msft_1t(), &mechanism)
                .unwrap();
            let got = record.result.as_ref().unwrap();
            assert_eq!(got.collective_time, expected.total(), "{}", p.label());
            assert_eq!(got.training.unwrap(), expected);
            assert!(got.bandwidth_gbps.is_none(), "no bandwidth on iterations");
            assert_eq!(got.chunks, chunks);
            // MSFT-1T is hybrid-parallel: both collectives are exposed.
            assert!(got.training.unwrap().input_grad_comm > Time::ZERO);
        }
        // The shaped CSV uses the training layout with the breakdown sum.
        let rows = summary.csv_rows();
        let header = &rows[0];
        assert!(header.iter().any(|h| h == "forward_ps"));
        assert!(header.iter().any(|h| h == "wg_comm_ps"));
        assert!(!header.iter().any(|h| h == "bandwidth_gbps"));
    }

    #[test]
    fn tight_timeout_records_timed_out_rows_instead_of_hanging() {
        let mut spec = toml_spec(
            r#"
[scenario]
name = "deadline"
[sweep]
topology = ["mesh:4x4"]
collective = ["all-gather"]
size = ["64MB"]
chunks = [4]
algo = ["tacos"]
attempts = [8]
[run]
cache = false
timeout_s = 0.000001
"#,
        );
        spec.run.threads = 1;
        let summary = run(&spec).unwrap();
        assert_eq!(summary.records.len(), 1);
        assert_eq!(summary.timed_out, 1, "the budget is unmeetably tight");
        assert_eq!(summary.failed, 0, "timeouts are not failures");
        let err = summary.records[0].result.as_ref().unwrap_err();
        assert!(err.starts_with(TIMED_OUT), "got: {err}");
        // The row lands in the shaped CSV with its error cell filled.
        let rows = summary.csv_rows();
        assert!(rows[1].last().unwrap().starts_with(TIMED_OUT));
    }

    #[test]
    fn generous_timeout_does_not_disturb_results() {
        let spec_text = r#"
[scenario]
name = "roomy"
[sweep]
topology = ["mesh:2x2"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["tacos", "ring"]
seed = [3]
[run]
cache = false
timeout_s = 120.0
"#;
        let spec = toml_spec(spec_text);
        assert_eq!(spec.run.timeout_s, Some(120.0));
        let summary = run(&spec).unwrap();
        assert_eq!((summary.failed, summary.timed_out), (0, 0));

        // Identical numbers to the untimed path (the job thread runs the
        // same execution).
        let mut untimed = toml_spec(spec_text);
        untimed.run.timeout_s = None;
        let reference = run(&untimed).unwrap();
        for (a, b) in summary.records.iter().zip(&reference.records) {
            assert_eq!(
                a.result.as_ref().unwrap().collective_time,
                b.result.as_ref().unwrap().collective_time
            );
        }
    }

    #[test]
    fn prefer_cheap_axis_changes_the_synthesis_config() {
        let spec = toml_spec(
            r#"
[scenario]
name = "cheap"
[sweep]
topology = ["rfs:2x2x2"]
collective = ["all-reduce"]
size = ["16MB"]
algo = ["tacos"]
seed = [11]
synth.prefer_cheap_links = [true, false]
[run]
cache = false
"#,
        );
        let summary = run(&spec).unwrap();
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.records.len(), 2);
        // Reference: direct synthesis with the prioritization toggled.
        let topo = spec
            .build_topology("rfs:2x2x2", LinkAxis::default_paper().to_spec())
            .unwrap();
        let coll =
            Collective::all_reduce(topo.num_npus(), tacos_topology::ByteSize::mb(16)).unwrap();
        for record in &summary.records {
            let config = SynthesizerConfig::default()
                .with_seed(11)
                .with_prefer_cheap_links(record.point.prefer_cheap_links);
            let expected = Synthesizer::new(config)
                .synthesize(&topo, &coll)
                .unwrap()
                .collective_time();
            assert_eq!(
                record.result.as_ref().unwrap().collective_time,
                expected,
                "{}",
                record.point.label()
            );
        }
        // The identity column carries the axis value.
        let rows = summary.csv_rows();
        let col = rows[0]
            .iter()
            .position(|h| h == "prefer_cheap_links")
            .unwrap();
        assert_eq!(rows[1][col], "true");
        assert_eq!(rows[2][col], "false");
    }

    #[test]
    fn partial_csv_survives_without_finalize() {
        // Simulates a killed run: rows are streamed and flushed per
        // completion, so the file holds them even if `remove` never runs.
        let dir = std::env::temp_dir().join(format!("tacos-partial-keep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stem = dir.join("keep").display().to_string();
        let columns = Column::default_layout(false);
        let partial = PartialCsv::create(&stem, &columns).unwrap();
        let record = PointRecord {
            point: ScenarioPoint {
                index: 0,
                topology: "ring:4".into(),
                model: None,
                link: LinkAxis::default_paper(),
                collective: "all-reduce".into(),
                size_label: "1MB".into(),
                size: tacos_topology::ByteSize::mb(1),
                chunks: 1,
                algo: "ring".into(),
                seed: 42,
                attempts: 1,
                prefer_cheap_links: true,
                without_links: crate::spec::WithoutLinks::Count(0),
            },
            result: Err("injected".into()),
        };
        partial.append(csv_row("keep", &columns, &record, None));
        // Deliberately no `remove`: the run "died" here.
        drop(partial);
        let text =
            std::fs::read_to_string(format!("{stem}.partial.csv")).expect("partial file exists");
        assert_eq!(text.lines().count(), 2, "header plus one streamed row");
        assert!(text.contains("injected"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
