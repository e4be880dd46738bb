//! The declarative scenario specification.
//!
//! A scenario file is a TOML document with up to nine parts:
//!
//! * `[scenario]` — name, description, optional `output` stem for
//!   CSV/JSON artifacts;
//! * `[sweep]` — the grid axes: `topology`, `collective`, `size`,
//!   `chunks`, `algo`, `seed`, `attempts`, `link`, the
//!   failure-injection axis `without_links` (each a list; a bare scalar
//!   is accepted as a one-element list), and the synthesizer-config
//!   sub-table `synth` (`synth.attempts` / `synth.seed` /
//!   `synth.chunks` as explicit spellings of the matching top-level
//!   axes, plus the `synth.prefer_cheap_links` on/off axis — the §IV-F
//!   low-cost-link-prioritization ablation); `crate::axis` holds the one
//!   table all of this is read from;
//! * optional `[workload]` — switches the scenario from bandwidth
//!   points to end-to-end training evaluation: a `model` axis
//!   (`gnmt|resnet50|turing_nlg|msft_1t`), the parallelization's
//!   communication pattern (`parallelism = "data" | "hybrid"`), and a
//!   compute-overlap fraction — see [`WorkloadSettings`];
//! * `[run]` — execution settings: `simulate`, `threads` (0 = all
//!   cores), `cache` (a directory string, or `false` to disable), and a
//!   per-point `timeout_s`;
//! * optional `[quick]` — reduced-grid overrides applied by
//!   `tacos scenario run --quick` (axis replacements, a `model`
//!   replacement, and optional `[[quick.exclude]]` rules), the ported
//!   bench binaries' `--quick` flags as data;
//! * optional `[report]` — result shaping: which metric columns the
//!   output CSV carries (`columns`), and per-group normalization against
//!   a baseline algorithm (`normalize_over`, `group_by`) — see
//!   [`ReportSettings`];
//! * optional `[timeline]` — time-resolved output: per-bucket
//!   utilization and per-span stage rows streamed to a second
//!   `<stem>.timeline.csv` — see [`TimelineSettings`];
//! * optional `[[exclude]]` — rules removing individual axis
//!   combinations from the grid (e.g. an algorithm that is intractable
//!   at one topology scale) — see [`ScenarioSpec::excludes`];
//! * optional `[[topologies]]` — heterogeneous networks as axis values,
//!   referenced from `sweep.topology` as `custom:<name>`: either
//!   link-by-link builder descriptions or canonical families with
//!   per-tier bandwidth overrides — see [`CustomTopologyBody`].
//!
//! ```toml
//! [scenario]
//! name = "size_sweep"
//!
//! [sweep]
//! topology = ["ring:128"]
//! collective = ["all-reduce"]
//! size = ["1KB", "1MB", "1GB"]
//! algo = ["ring", "direct"]
//! link = [{ alpha_us = 0.03, bandwidth_gbps = 150.0 }]
//!
//! [run]
//! simulate = true
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use tacos_topology::{LinkSpec, Topology};
use tacos_workload::{Parallelism, Workload};

use crate::axis::{self, declare, Axis, AxisValue, Cell, Column, Constraint, Place, Source, AXES};
use crate::error::ScenarioError;
use crate::toml::{self, Table, Value};

pub use crate::axis::SweepAxes;

/// The string-spec vocabulary lives beside the types it parses
/// (`tacos-topology`, `tacos-collective`, `tacos-workload`); re-exported
/// so scenario files, the CLI and the parity tests keep one import path.
pub use tacos_collective::parse_pattern;
pub use tacos_topology::{
    parse_size, parse_topology, select_failed_links, CustomLink, CustomTopology,
    CustomTopologyBody, LinkAxis, WithoutLinks,
};
pub use tacos_workload::parse_baseline;

impl AxisValue for WithoutLinks {
    fn parse(path: &str, v: &Value) -> Result<Self, ScenarioError> {
        match v {
            Value::Int(n) => {
                if *n < 0 {
                    return Err(ScenarioError::spec(format!("{path} counts must be >= 0")));
                }
                Ok(WithoutLinks::Count(*n as usize))
            }
            Value::Str(s) => {
                let mut ids = Vec::new();
                for part in s.split('+') {
                    let id: u32 = part.trim().parse().map_err(|e| {
                        ScenarioError::spec(format!(
                            "{path} entry '{s}': bad link id '{part}': {e}"
                        ))
                    })?;
                    if ids.contains(&id) {
                        return Err(ScenarioError::spec(format!(
                            "{path} entry '{s}' lists link {id} twice"
                        )));
                    }
                    ids.push(id);
                }
                Ok(WithoutLinks::Links(ids))
            }
            other => Err(ScenarioError::spec(format!(
                "{path} entries must be victim counts (integers) or \
                 '+'-separated link-id strings, found {}",
                other.type_name()
            ))),
        }
    }

    fn cell(&self) -> Cell {
        Cell::Str(self.label())
    }
}

/// Execution settings for the runner.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Also run the congestion-aware simulator on each point (always done
    /// for algorithms without a planned time).
    pub simulate: bool,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Cache directory for synthesized schedules; `None` disables caching.
    pub cache: Option<String>,
    /// Suppress per-point progress on stderr.
    pub quiet: bool,
    /// Per-point wall-clock budget in seconds: a point still running when
    /// it expires is recorded as a `timed_out` row instead of hanging its
    /// shard. `None` lets points run unbounded.
    pub timeout_s: Option<f64>,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            simulate: false,
            threads: 0,
            cache: Some(".tacos-cache".into()),
            quiet: false,
            timeout_s: None,
        }
    }
}

/// Result shaping declared in the `[report]` table.
///
/// ```toml
/// [report]
/// columns = ["normalized_time", "synthesis_seconds"]
/// normalize_over = "tacos"
/// group_by = ["topology"]
/// ```
#[derive(Debug, Clone)]
pub struct ReportSettings {
    /// Metric columns of the output CSV (rows of `axis::COLUMNS`), in
    /// order; `None` keeps the evaluation kind's default layout.
    pub columns: Option<Vec<&'static Column>>,
    /// Algorithm name whose collective time is the per-group 1.0 baseline
    /// of the `normalized_time` column. Must be one of `sweep.algo`.
    pub normalize_over: Option<String>,
    /// Axes whose value tuples form the normalization groups. Defaults to
    /// every non-algo axis, so each group holds exactly the algorithm
    /// variants of one sweep configuration.
    pub group_by: Vec<&'static Axis>,
}

impl Default for ReportSettings {
    fn default() -> Self {
        ReportSettings {
            columns: None,
            normalize_over: None,
            group_by: axis::listed(Place::GroupBy),
        }
    }
}

impl ReportSettings {
    /// The metric columns the output actually carries: the selected list,
    /// or the evaluation kind's default layout (bandwidth points, or the
    /// iteration breakdown under `[workload]`), with `normalized_time`
    /// appended when normalization is configured but the column was not
    /// listed explicitly.
    pub fn metric_columns_for(&self, training: bool) -> Vec<&'static Column> {
        let mut cols = self
            .columns
            .clone()
            .unwrap_or_else(|| Column::default_layout(training));
        let normalized = |c: &&Column| matches!(c.source, Source::Normalized);
        if self.normalize_over.is_some() && !cols.iter().any(normalized) {
            cols.extend(axis::COLUMNS.iter().filter(normalized));
        }
        cols
    }
}

/// Time-resolved output declared in the `[timeline]` table: the runner
/// writes a second long-format CSV (`<stem>.timeline.csv`) with
/// per-bucket utilization rows and/or per-span stage rows for every
/// simulated point.
///
/// ```toml
/// [timeline]
/// buckets = 60     # uniform utilization buckets (0 = no bucket rows)
/// stages = true    # event-aligned per-span rows (the TEN view)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSettings {
    /// Number of uniform utilization buckets per point; `0` emits no
    /// bucket rows.
    pub buckets: usize,
    /// Whether to emit event-aligned span-stage rows.
    pub stages: bool,
}

impl Default for TimelineSettings {
    fn default() -> Self {
        TimelineSettings {
            buckets: 50,
            stages: false,
        }
    }
}

/// What a grid point measures: a collective's bandwidth, or an
/// end-to-end training iteration. The scenario runner dispatches point
/// execution on this — the layer that lets the paper's training figures
/// (Figs. 20–21) be plain scenario files.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Evaluation {
    /// One collective per point: generate/synthesize the algorithm and
    /// measure its completion time (the default, without `[workload]`).
    #[default]
    Bandwidth,
    /// One training iteration per point: run the model's exposed gradient
    /// collectives under the point's mechanism and report the
    /// fwd/bwd/exposed-IG/exposed-WG breakdown.
    Training(WorkloadSettings),
}

impl Evaluation {
    /// Whether this is a training evaluation.
    pub fn is_training(&self) -> bool {
        matches!(self, Evaluation::Training(_))
    }
}

/// The `[workload]` table: end-to-end training evaluation settings.
///
/// ```toml
/// [workload]
/// model = ["gnmt", "resnet50"]   # sweep axis, like the [sweep] axes
/// parallelism = "hybrid"         # "data" drops input-gradient collectives
/// overlap = 0.0                  # fraction of each collective hidden under compute
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSettings {
    /// Workload-model tokens (`gnmt|resnet50|turing_nlg|msft_1t`); a
    /// sweep axis like the `[sweep]` ones.
    pub models: Vec<String>,
    /// The parallelization's communication pattern.
    pub parallelism: Parallelism,
    /// Fraction of each gradient collective hidden under compute
    /// (`0.0` = fully exposed, the paper's Figs. 20–21 assumption).
    pub overlap: f64,
}

/// A fully parsed, validated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (used in output rows and progress lines).
    pub name: String,
    /// Human description.
    pub description: String,
    /// Output stem; the runner writes `<stem>.csv` and `<stem>.json`.
    pub output: Option<String>,
    /// The sweep axes.
    pub sweep: SweepAxes,
    /// What each point measures (`[workload]` switches to training).
    pub evaluation: Evaluation,
    /// Execution settings.
    pub run: RunSettings,
    /// Result shaping (`[report]`).
    pub report: ReportSettings,
    /// Time-resolved output (`[timeline]`); `None` emits none.
    pub timeline: Option<TimelineSettings>,
    /// Grid-point exclusion rules (`[[exclude]]`): a grid point whose
    /// axis values satisfy **all** of a rule's constraints is removed
    /// from the expansion. Each constraint is a scalar or list of values
    /// of one axis (a list matches any of its entries).
    ///
    /// ```toml
    /// [[exclude]]
    /// # The TACCL ILP is intractable at 128 NPUs (Table V prints "-").
    /// topology = "rfs:2x4x16"
    /// algo = "taccl"
    /// ```
    pub excludes: Vec<Vec<Constraint>>,
    /// Builder-described topologies, by name.
    pub custom_topologies: BTreeMap<String, CustomTopology>,
    /// The reduced grid declared in `[quick]`, fully parsed and
    /// validated; applied by `tacos scenario run --quick` (see
    /// [`ScenarioSpec::quick_spec`]).
    pub quick: Option<Box<ScenarioSpec>>,
}

impl ScenarioSpec {
    /// Loads and validates a scenario file.
    ///
    /// # Errors
    /// IO, parse (with line numbers), or validation errors.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::io(path.display().to_string(), e))?;
        Self::from_toml_str(&text)
    }

    /// Parses and validates a scenario from TOML text.
    ///
    /// # Errors
    /// Parse (with line numbers) or validation errors.
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        let doc = toml::parse(text)?;
        Self::from_table(&doc)
    }

    fn from_table(doc: &Table) -> Result<Self, ScenarioError> {
        reject_unknown_keys(
            doc,
            "top level",
            &[
                "scenario",
                "sweep",
                "workload",
                "run",
                "report",
                "timeline",
                "exclude",
                "topologies",
                "quick",
            ],
        )?;
        let scenario = expect_table(doc, "scenario")?;
        reject_unknown_keys(scenario, "[scenario]", &["name", "description", "output"])?;
        let name = expect_str(scenario, "scenario", "name")?.to_string();
        let description = opt_str(scenario, "scenario", "description")?
            .unwrap_or_default()
            .to_string();
        let output = opt_str(scenario, "scenario", "output")?.map(str::to_string);

        let mut custom_topologies = BTreeMap::new();
        if let Some(v) = doc.get("topologies") {
            let items = v.as_array().ok_or_else(|| {
                ScenarioError::spec("'topologies' must be an array of tables ([[topologies]])")
            })?;
            for item in items {
                let t = item
                    .as_table()
                    .ok_or_else(|| ScenarioError::spec("each [[topologies]] must be a table"))?;
                let custom = parse_custom_topology(t)?;
                let label = custom.name.clone();
                if custom_topologies.insert(label.clone(), custom).is_some() {
                    return Err(ScenarioError::spec(format!(
                        "duplicate topology name '{label}'"
                    )));
                }
            }
        }

        let sweep_table = expect_table(doc, "sweep")?;
        let sweep = parse_sweep(sweep_table, &custom_topologies)?;

        let evaluation = match doc.get("workload") {
            None => Evaluation::Bandwidth,
            Some(v) => {
                let t = v.as_table().ok_or_else(|| {
                    ScenarioError::spec(format!(
                        "'workload' must be a table, found {}",
                        v.type_name()
                    ))
                })?;
                // Training points take their collective shape from the
                // model, so a collective/size axis would be dead weight
                // the outputs misleadingly report.
                for axis in AXES.iter().filter(|a| sweep_table.contains_key(a.name)) {
                    axis.reject_under_workload(&axis.path())?;
                }
                Evaluation::Training(parse_workload(t)?)
            }
        };

        let run = match doc.get("run") {
            None => RunSettings::default(),
            Some(v) => parse_run(v.as_table().ok_or_else(|| {
                ScenarioError::spec(format!("'run' must be a table, found {}", v.type_name()))
            })?)?,
        };
        if evaluation.is_training() && run.simulate {
            return Err(ScenarioError::spec(
                "run.simulate has no effect under [workload]: training \
                 evaluation simulates each gradient collective internally; \
                 remove it",
            ));
        }

        let report = match doc.get("report") {
            None => ReportSettings::default(),
            Some(v) => parse_report(v.as_table().ok_or_else(|| {
                ScenarioError::spec(format!("'report' must be a table, found {}", v.type_name()))
            })?)?,
        };
        validate_report(&report, &sweep, &run, &evaluation)?;

        let timeline = match doc.get("timeline") {
            None => None,
            Some(v) => Some(parse_timeline(v.as_table().ok_or_else(|| {
                ScenarioError::spec(format!(
                    "'timeline' must be a table, found {}",
                    v.type_name()
                ))
            })?)?),
        };
        if timeline.is_some() && evaluation.is_training() {
            return Err(ScenarioError::spec(
                "[timeline] output needs a single simulated collective per \
                 point; it is not available under [workload]",
            ));
        }
        if timeline.is_some() && !run.simulate {
            return Err(ScenarioError::spec(
                "[timeline] output is derived from the simulator's busy \
                 intervals; set run.simulate = true",
            ));
        }

        let mut excludes = Vec::new();
        if let Some(v) = doc.get("exclude") {
            let items = v.as_array().ok_or_else(|| {
                ScenarioError::spec("'exclude' must be an array of tables ([[exclude]])")
            })?;
            for item in items {
                let t = item
                    .as_table()
                    .ok_or_else(|| ScenarioError::spec("each [[exclude]] must be a table"))?;
                excludes.push(parse_exclude(t, &sweep, &evaluation)?);
            }
        }

        let quick = match doc.get("quick") {
            None => None,
            Some(v) => {
                let t = v.as_table().ok_or_else(|| {
                    ScenarioError::spec(format!("'quick' must be a table, found {}", v.type_name()))
                })?;
                let merged = merge_quick(doc, t, &evaluation)?;
                let quick_spec = Self::from_table(&merged)
                    .map_err(|e| ScenarioError::spec(format!("in [quick]: {e}")))?;
                Some(Box::new(quick_spec))
            }
        };

        let spec = ScenarioSpec {
            name,
            description,
            output,
            sweep,
            evaluation,
            run,
            report,
            timeline,
            excludes,
            custom_topologies,
            quick,
        };
        spec.validate_without_links()?;
        Ok(spec)
    }

    /// The grid this spec runs under `--quick`: the `[quick]`-reduced
    /// spec when one is declared, the full spec otherwise (callers that
    /// require a `[quick]` section — the CLI flag — check
    /// [`ScenarioSpec::quick`] themselves).
    pub fn quick_spec(&self) -> &ScenarioSpec {
        self.quick.as_deref().unwrap_or(self)
    }

    /// Validates every `without_links` axis value against every topology
    /// axis value (and, for counts, every seed) **that actually occurs in
    /// the expanded grid** — `[[exclude]]` rules can legitimately pin a
    /// failure level away from a topology that cannot survive it.
    /// Explicit victim lists must exist and keep the fabric strongly
    /// connected, and counts must admit a connected selection. Failures
    /// surface at load with the offending combination named, not mid-run.
    fn validate_without_links(&self) -> Result<(), ScenarioError> {
        if self
            .sweep
            .without_links
            .iter()
            .all(WithoutLinks::is_healthy)
        {
            return Ok(());
        }
        // Combinations surviving exclusion. An expansion error (every
        // point excluded) is not this validator's concern; it surfaces
        // identically at expand/run time.
        let Ok(points) = crate::grid::expand(self) else {
            return Ok(());
        };
        let mut combos: Vec<(&str, &WithoutLinks, u64)> = Vec::new();
        for p in &points {
            if p.without_links.is_healthy() {
                continue;
            }
            // Counts resolve per seed; explicit lists are seed-free.
            let seed = match &p.without_links {
                WithoutLinks::Links(_) => 0,
                WithoutLinks::Count(_) => p.seed,
            };
            let combo = (p.topology.as_str(), &p.without_links, seed);
            if !combos.contains(&combo) {
                combos.push(combo);
            }
        }
        let probe = LinkAxis::default_paper().to_spec();
        let mut topo_cache: BTreeMap<&str, Topology> = BTreeMap::new();
        for (topo_spec, axis, seed) in combos {
            if !topo_cache.contains_key(topo_spec) {
                let topo = self
                    .build_topology(topo_spec, probe)
                    .map_err(ScenarioError::spec)?;
                topo_cache.insert(topo_spec, topo);
            }
            let topo = &topo_cache[topo_spec];
            let victims = select_failed_links(topo, axis, seed).map_err(|e| {
                ScenarioError::spec(format!(
                    "sweep.without_links '{axis}' on topology '{topo_spec}': {e}"
                ))
            })?;
            topo.without_links(&victims).map_err(|e| {
                ScenarioError::spec(format!(
                    "sweep.without_links '{axis}' on topology '{topo_spec}': {e}"
                ))
            })?;
        }
        Ok(())
    }

    /// Builds the topology named by a `sweep.topology` entry under a link
    /// spec from the link axis.
    ///
    /// # Errors
    /// Returns a message for unknown families, bad dimensions, or invalid
    /// custom networks.
    pub fn build_topology(&self, spec: &str, link: LinkSpec) -> Result<Topology, String> {
        if let Some(name) = spec.strip_prefix("custom:") {
            return self
                .custom_topologies
                .get(name)
                .ok_or_else(|| format!("unknown custom topology '{name}'"))?
                .build();
        }
        parse_topology(spec, link)
    }
}

fn parse_custom_topology(t: &Table) -> Result<CustomTopology, ScenarioError> {
    reject_unknown_keys(
        t,
        "[[topologies]]",
        &["name", "npus", "links", "base", "alpha_us", "tier_gbps"],
    )?;
    let name = expect_str(t, "topologies", "name")?.to_string();
    if t.contains_key("base") {
        // Family form: canonical constructor + per-tier bandwidths.
        for key in ["npus", "links"] {
            if t.contains_key(key) {
                return Err(ScenarioError::spec(format!(
                    "topology '{name}': '{key}' belongs to the link-by-link form \
                     and cannot be combined with 'base'"
                )));
            }
        }
        let base = expect_str(t, "topologies", "base")?.to_string();
        let alpha_us = expect_float(t, "topologies", "alpha_us")?;
        let tiers_value = t
            .get("tier_gbps")
            .ok_or_else(|| ScenarioError::spec(format!("topology '{name}': missing tier_gbps")))?;
        let items = tiers_value.as_array().ok_or_else(|| {
            ScenarioError::spec(format!(
                "topology '{name}': tier_gbps must be a list of bandwidths"
            ))
        })?;
        let mut tier_gbps = Vec::with_capacity(items.len());
        for item in items {
            let v = item.as_float().ok_or_else(|| {
                ScenarioError::spec(format!(
                    "topology '{name}': tier_gbps entries must be numbers, found {}",
                    item.type_name()
                ))
            })?;
            if !v.is_finite() || v <= 0.0 {
                return Err(ScenarioError::spec(format!(
                    "topology '{name}': tier_gbps entries must be positive and finite"
                )));
            }
            tier_gbps.push(v);
        }
        if alpha_us < 0.0 {
            return Err(ScenarioError::spec(format!(
                "topology '{name}': alpha_us must be >= 0"
            )));
        }
        let custom = CustomTopology {
            name: name.clone(),
            body: CustomTopologyBody::Family {
                base,
                alpha_us,
                tier_gbps,
            },
        };
        // Validate eagerly so errors surface at load, not mid-run.
        custom
            .build()
            .map_err(|e| ScenarioError::spec(format!("topology '{name}': {e}")))?;
        return Ok(custom);
    }
    for key in ["alpha_us", "tier_gbps"] {
        if t.contains_key(key) {
            return Err(ScenarioError::spec(format!(
                "topology '{name}': '{key}' belongs to the family form and \
                 requires 'base'"
            )));
        }
    }
    let npus = expect_int(t, "topologies", "npus")?;
    if npus < 2 {
        return Err(ScenarioError::spec(format!(
            "topology '{name}': npus must be >= 2"
        )));
    }
    let links_value = t
        .get("links")
        .ok_or_else(|| ScenarioError::spec(format!("topology '{name}': missing [[links]]")))?;
    let items = links_value.as_array().ok_or_else(|| {
        ScenarioError::spec(format!(
            "topology '{name}': 'links' must be an array of tables"
        ))
    })?;
    let mut links = Vec::with_capacity(items.len());
    for item in items {
        let lt = item.as_table().ok_or_else(|| {
            ScenarioError::spec(format!("topology '{name}': each link must be a table"))
        })?;
        reject_unknown_keys(
            lt,
            "[[topologies.links]]",
            &["src", "dst", "alpha_us", "bandwidth_gbps", "bidi"],
        )?;
        // Range-check against npus before narrowing to u32: a silent
        // wrap would route the link to a different, valid NPU.
        let endpoint = |key: &str| -> Result<u32, ScenarioError> {
            let v = expect_int(lt, "links", key)?;
            if v >= npus {
                return Err(ScenarioError::spec(format!(
                    "topology '{name}': link {key} = {v} out of range for {npus} NPUs"
                )));
            }
            Ok(v as u32)
        };
        let link = LinkAxis {
            alpha_us: expect_float(lt, "links", "alpha_us")?,
            bandwidth_gbps: expect_float(lt, "links", "bandwidth_gbps")?,
        };
        link.check()
            .map_err(|e| ScenarioError::spec(format!("topology '{name}': link {link}: {e}")))?;
        links.push(CustomLink {
            src: endpoint("src")?,
            dst: endpoint("dst")?,
            link,
            bidi: lt.get("bidi").and_then(Value::as_bool).unwrap_or(false),
        });
    }
    let custom = CustomTopology {
        name: name.clone(),
        body: CustomTopologyBody::Links {
            npus: npus as usize,
            links,
        },
    };
    // Validate eagerly so errors surface at load, not mid-run.
    custom
        .build()
        .map_err(|e| ScenarioError::spec(format!("topology '{name}': {e}")))?;
    Ok(custom)
}

fn parse_sweep(
    t: &Table,
    customs: &BTreeMap<String, CustomTopology>,
) -> Result<SweepAxes, ScenarioError> {
    reject_unknown_keys(t, "[sweep]", &axis::keys(Place::Sweep, &["synth"]))?;
    // `[sweep] synth.*` is the synthesizer-config spelling of the grid:
    // an axis both tables accept is the same axis under either spelling
    // (declaring both is ambiguous and rejected).
    let synth = match t.get("synth") {
        None => None,
        Some(v) => {
            let st = v.as_table().ok_or_else(|| {
                ScenarioError::spec(format!(
                    "sweep.synth must be a table of synthesizer axes, found {}",
                    v.type_name()
                ))
            })?;
            reject_unknown_keys(st, "[sweep] synth", &axis::keys(Place::Synth, &[]))?;
            Some(st)
        }
    };
    let mut axes = SweepAxes::default();
    for axis in AXES
        .iter()
        .filter(|a| a.at(Place::Sweep) || a.at(Place::Synth))
    {
        let key = axis.name;
        let in_synth = synth.filter(|st| axis.at(Place::Synth) && st.contains_key(key));
        if in_synth.is_some() && axis.at(Place::Sweep) && t.contains_key(key) {
            return Err(ScenarioError::spec(format!(
                "sweep.{key} and sweep.synth.{key} name the same axis; \
                 declare one of them"
            )));
        }
        let path = format!("sweep.{key}");
        match in_synth.unwrap_or(t).get(key) {
            Some(v) => (axis.load)(&mut axes, v, &path)?,
            None => (axis.default)(&mut axes),
        }
        let labels = (axis.labels)(&axes, &Evaluation::Bandwidth);
        if labels.is_empty() {
            return Err(ScenarioError::spec(format!(
                "{path} must list at least one {key}"
            )));
        }
        // Labels identify values in CSV rows, point labels, group_by and
        // [[exclude]] matching; two values spelling the same label (a
        // victim count 1 and the explicit link list "1") would alias
        // distinct points.
        let mut seen = labels.iter().enumerate();
        if let Some((_, label)) = seen.find(|(i, label)| labels[..*i].contains(label)) {
            return Err(ScenarioError::spec(format!(
                "{path} has two values that share the label '{label}' (they are \
                 indistinguishable in outputs); drop one"
            )));
        }
    }
    for topo in &axes.topology {
        let Some(name) = topo.strip_prefix("custom:") else {
            continue;
        };
        if !customs.contains_key(name) {
            return Err(ScenarioError::spec(format!(
                "sweep.topology references unknown custom topology '{name}'"
            )));
        }
        // Custom topologies carry their own per-link specs; sweeping
        // the link axis over them would produce identical points whose
        // reported link parameters are fiction.
        if axes.link.len() > 1 {
            return Err(ScenarioError::spec(format!(
                "sweep.link has {} values but '{topo}' ignores the link axis \
                 (its links are defined in [[topologies]]); split it into a \
                 separate scenario or use a single link value",
                axes.link.len()
            )));
        }
    }
    Ok(axes)
}

fn parse_run(t: &Table) -> Result<RunSettings, ScenarioError> {
    reject_unknown_keys(
        t,
        "[run]",
        &["simulate", "threads", "cache", "quiet", "timeout_s"],
    )?;
    let mut run = RunSettings::default();
    if let Some(v) = t.get("timeout_s") {
        let secs = v
            .as_float()
            .ok_or_else(|| ScenarioError::spec("run.timeout_s must be a number of seconds"))?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(ScenarioError::spec("run.timeout_s must be > 0"));
        }
        // The runner turns it into a `Duration`, which holds ~5.8e11 years.
        std::time::Duration::try_from_secs_f64(secs)
            .map_err(|e| ScenarioError::spec(format!("run.timeout_s = {secs}: {e}")))?;
        run.timeout_s = Some(secs);
    }
    if let Some(v) = t.get("simulate") {
        run.simulate = v
            .as_bool()
            .ok_or_else(|| ScenarioError::spec("run.simulate must be a boolean"))?;
    }
    if let Some(v) = t.get("threads") {
        let n = v
            .as_int()
            .ok_or_else(|| ScenarioError::spec("run.threads must be an integer"))?;
        if n < 0 {
            return Err(ScenarioError::spec("run.threads must be >= 0"));
        }
        run.threads = n as usize;
    }
    match t.get("cache") {
        None => {}
        Some(Value::Bool(false)) => run.cache = None,
        Some(Value::Bool(true)) => {}
        Some(Value::Str(dir)) => run.cache = Some(dir.clone()),
        Some(other) => {
            return Err(ScenarioError::spec(format!(
                "run.cache must be a directory string or false, found {}",
                other.type_name()
            )))
        }
    }
    if let Some(v) = t.get("quiet") {
        run.quiet = v
            .as_bool()
            .ok_or_else(|| ScenarioError::spec("run.quiet must be a boolean"))?;
    }
    Ok(run)
}

fn parse_report(t: &Table) -> Result<ReportSettings, ScenarioError> {
    reject_unknown_keys(t, "[report]", &["columns", "normalize_over", "group_by"])?;
    let group_by = |name: &str| {
        let axis = axis::named(name).filter(|a| a.at(Place::GroupBy));
        axis.ok_or_else(|| {
            format!(
                "unknown group_by axis '{name}' (expected one of: {})",
                axis::keys(Place::GroupBy, &[]).join(", ")
            )
        })
    };
    let omitted = "to group by every non-algo axis";
    Ok(ReportSettings {
        columns: report_names(
            t,
            "columns",
            "column",
            "for the default layout",
            Column::parse,
        )?,
        normalize_over: opt_str(t, "report", "normalize_over")?.map(str::to_string),
        group_by: report_names(t, "group_by", "axis", omitted, group_by)?
            .unwrap_or_else(|| axis::listed(Place::GroupBy)),
    })
}

/// Reads `report.<key>` if present: a non-empty list of distinct names,
/// each resolved through `parse`.
fn report_names<T>(
    t: &Table,
    key: &str,
    what: &str,
    omitted: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<Vec<T>>, ScenarioError> {
    let Some(v) = t.get(key) else {
        return Ok(None);
    };
    let items = v.as_array().ok_or_else(|| {
        ScenarioError::spec(format!("report.{key} must be a list of {what} names"))
    })?;
    if items.is_empty() {
        return Err(ScenarioError::spec(format!(
            "report.{key} must not be an empty list (omit it {omitted})"
        )));
    }
    let mut parsed = Vec::with_capacity(items.len());
    for item in items {
        let name = item.as_str().ok_or_else(|| {
            ScenarioError::spec(format!(
                "report.{key} entries must be strings, found {}",
                item.type_name()
            ))
        })?;
        if items[..parsed.len()].contains(item) {
            return Err(ScenarioError::spec(format!(
                "report.{key} lists '{name}' twice"
            )));
        }
        parsed.push(parse(name).map_err(ScenarioError::spec)?);
    }
    Ok(Some(parsed))
}

/// Parses the `[workload]` table into training-evaluation settings.
fn parse_workload(t: &Table) -> Result<WorkloadSettings, ScenarioError> {
    reject_unknown_keys(t, "[workload]", &["model", "parallelism", "overlap"])?;
    let valid = |m: &String| Workload::parse(m).map(drop);
    let models: Vec<String> = match t.get("model") {
        Some(v) => declare(v, "workload.model", "[workload] needs a model", valid)?,
        None => Vec::new(),
    };
    if models.is_empty() {
        return Err(ScenarioError::spec(format!(
            "[workload] must list at least one model (one of: {})",
            Workload::TOKENS.join(", ")
        )));
    }
    let parallelism = match opt_str(t, "workload", "parallelism")? {
        None => Parallelism::default(),
        Some(s) => Parallelism::parse(s)
            .map_err(|e| ScenarioError::spec(format!("workload.parallelism: {e}")))?,
    };
    let overlap = match t.get("overlap") {
        None => 0.0,
        Some(v) => {
            let f = v
                .as_float()
                .ok_or_else(|| ScenarioError::spec("workload.overlap must be a number"))?;
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err(ScenarioError::spec(
                    "workload.overlap must be between 0.0 and 1.0",
                ));
            }
            f
        }
    };
    Ok(WorkloadSettings {
        models,
        parallelism,
        overlap,
    })
}

/// Builds the `[quick]` document: the original document with the quick
/// table's axis values replacing their `[sweep]` (or `[workload] model`)
/// counterparts. `[[exclude]]` rules are **inherited** unless the quick
/// table declares its own `[[quick.exclude]]` set, which replaces them —
/// a reduced grid must not silently lose the full grid's exclusion
/// pinning. The result re-parses through the normal validation path, so
/// a broken quick grid — including an inherited exclude that references
/// an axis value the quick grid no longer has — fails loudly at load.
fn merge_quick(
    doc: &Table,
    quick: &Table,
    evaluation: &Evaluation,
) -> Result<Table, ScenarioError> {
    reject_unknown_keys(quick, "[quick]", &axis::quick_keys())?;
    let mut merged = doc.clone();
    merged.remove("quick");
    if quick.contains_key("exclude") {
        merged.remove("exclude");
    }
    let mut sweep = match merged.remove("sweep") {
        Some(Value::Table(t)) => t,
        _ => Table::new(),
    };
    for (key, value) in quick {
        match key.as_str() {
            "exclude" => {
                merged.insert("exclude".into(), value.clone());
            }
            _ if axis::named(key).is_some_and(Axis::in_workload) => {
                if !evaluation.is_training() {
                    return Err(ScenarioError::spec(format!(
                        "quick.{key} needs a [workload] section to override"
                    )));
                }
                let mut workload = match merged.remove("workload") {
                    Some(Value::Table(t)) => t,
                    _ => Table::new(),
                };
                workload.insert(key.clone(), value.clone());
                merged.insert("workload".into(), Value::Table(workload));
            }
            "synth" => {
                // Merge per-key so a quick override of one synth axis
                // keeps the others.
                let overrides = value.as_table().ok_or_else(|| {
                    ScenarioError::spec("quick.synth must be a table of synthesizer axes")
                })?;
                let mut synth = match sweep.remove("synth") {
                    Some(Value::Table(t)) => t,
                    _ => Table::new(),
                };
                for (k, v) in overrides {
                    // The full sweep may spell an axis at top level that
                    // quick overrides via synth.* (or vice versa); drop
                    // the other spelling so the merge stays unambiguous.
                    sweep.remove(k);
                    synth.insert(k.clone(), v.clone());
                }
                sweep.insert("synth".into(), Value::Table(synth));
            }
            _ => {
                if let Some(Value::Table(synth)) = sweep.get_mut("synth") {
                    synth.remove(key);
                }
                sweep.insert(key.clone(), value.clone());
            }
        }
    }
    merged.insert("sweep".into(), Value::Table(sweep));
    Ok(merged)
}

/// Cross-field report validation: normalization needs its baseline in the
/// grid, link-traffic columns need the simulator's per-link report, and
/// breakdown columns need (only exist under) a `[workload]` section.
fn validate_report(
    report: &ReportSettings,
    sweep: &SweepAxes,
    run: &RunSettings,
    evaluation: &Evaluation,
) -> Result<(), ScenarioError> {
    if let Some(algo) = &report.normalize_over {
        if !sweep.algo.iter().any(|a| a == algo) {
            return Err(ScenarioError::spec(format!(
                "report.normalize_over '{algo}' is not one of sweep.algo \
                 (every group's normalization column would be empty)"
            )));
        }
    }
    // Under [workload], bandwidth-only comes before the simulator check:
    // simulate is forced off there, and "set run.simulate = true" would
    // be advice the [workload] validation then rejects.
    let training = evaluation.is_training();
    for col in report.columns.iter().flatten() {
        let problem = match col.source {
            Source::Normalized if report.normalize_over.is_none() => {
                "requires report.normalize_over"
            }
            Source::Payload(_) | Source::Links(_) if training => {
                "only exists for bandwidth points; it is unavailable under [workload]"
            }
            Source::Links(_) if !run.simulate => {
                "is derived from the simulator's per-link report; set run.simulate = true"
            }
            Source::Breakdown(_) if !training => {
                "is a training-breakdown value; it needs a [workload] section"
            }
            _ => continue,
        };
        return Err(ScenarioError::spec(format!(
            "report column '{}' {problem}",
            col.name
        )));
    }
    Ok(())
}

fn parse_timeline(t: &Table) -> Result<TimelineSettings, ScenarioError> {
    reject_unknown_keys(t, "[timeline]", &["buckets", "stages"])?;
    let mut timeline = TimelineSettings::default();
    if let Some(v) = t.get("buckets") {
        let n = v
            .as_int()
            .ok_or_else(|| ScenarioError::spec("timeline.buckets must be an integer"))?;
        if n < 0 {
            return Err(ScenarioError::spec("timeline.buckets must be >= 0"));
        }
        timeline.buckets = n as usize;
    }
    if let Some(v) = t.get("stages") {
        timeline.stages = v
            .as_bool()
            .ok_or_else(|| ScenarioError::spec("timeline.stages must be a boolean"))?;
    }
    if timeline.buckets == 0 && !timeline.stages {
        return Err(ScenarioError::spec(
            "[timeline] emits nothing: set buckets > 0 and/or stages = true \
             (or drop the section)",
        ));
    }
    Ok(timeline)
}

fn parse_exclude(
    t: &Table,
    sweep: &SweepAxes,
    evaluation: &Evaluation,
) -> Result<Vec<Constraint>, ScenarioError> {
    reject_unknown_keys(t, "[[exclude]]", &axis::keys(Place::Exclude, &[]))?;
    if t.is_empty() {
        return Err(ScenarioError::spec(
            "an [[exclude]] rule must constrain at least one axis \
             (an empty rule would exclude every point)",
        ));
    }
    let mut rule = Vec::new();
    for axis in axis::listed(Place::Exclude) {
        let key = axis.name;
        let Some(v) = t.get(key) else {
            continue;
        };
        let path = format!("exclude.{key}");
        if evaluation.is_training() {
            axis.reject_under_workload(&path)?;
        }
        // Every listed value must exist on its axis: a typo would
        // otherwise silently exclude nothing and run unintended points.
        // Values are written like the axis and matched by label.
        let on_axis = (axis.labels)(sweep, evaluation);
        let labels = (axis.exclude)(v, &path)?;
        if let Some(missing) = labels.iter().find(|l| !on_axis.contains(l)) {
            return Err(ScenarioError::spec(format!(
                "{path} value '{missing}' is not in {}",
                axis.path()
            )));
        }
        rule.push(Constraint { axis: key, labels });
    }
    Ok(rule)
}

/// Rejects misspelled or unsupported keys: in a declarative engine a
/// typoed axis (`seeds` for `seed`) would otherwise silently fall back to
/// its default and run a different grid than the author wrote.
fn reject_unknown_keys(t: &Table, context: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    for key in t.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::spec(format!(
                "unknown key '{key}' in {context} (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn expect_table<'a>(doc: &'a Table, key: &str) -> Result<&'a Table, ScenarioError> {
    doc.get(key)
        .ok_or_else(|| ScenarioError::spec(format!("missing [{key}] table")))?
        .as_table()
        .ok_or_else(|| ScenarioError::spec(format!("'{key}' must be a table")))
}

fn expect_str<'a>(t: &'a Table, table: &str, key: &str) -> Result<&'a str, ScenarioError> {
    t.get(key)
        .ok_or_else(|| ScenarioError::spec(format!("missing {table}.{key}")))?
        .as_str()
        .ok_or_else(|| ScenarioError::spec(format!("{table}.{key} must be a string")))
}

fn opt_str<'a>(t: &'a Table, table: &str, key: &str) -> Result<Option<&'a str>, ScenarioError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ScenarioError::spec(format!("{table}.{key} must be a string"))),
    }
}

fn expect_int(t: &Table, table: &str, key: &str) -> Result<i64, ScenarioError> {
    let v = t
        .get(key)
        .ok_or_else(|| ScenarioError::spec(format!("missing {table}.{key}")))?
        .as_int()
        .ok_or_else(|| ScenarioError::spec(format!("{table}.{key} must be an integer")))?;
    if v < 0 {
        return Err(ScenarioError::spec(format!("{table}.{key} must be >= 0")));
    }
    Ok(v)
}

pub(crate) fn expect_float(t: &Table, table: &str, key: &str) -> Result<f64, ScenarioError> {
    let v = t
        .get(key)
        .ok_or_else(|| ScenarioError::spec(format!("missing {table}.{key}")))?
        .as_float()
        .ok_or_else(|| ScenarioError::spec(format!("{table}.{key} must be a number")))?;
    // Every float in a scenario is a physical quantity; an overflowed
    // literal (e.g. 1e999 parses to inf) would otherwise panic deep in
    // the unit types instead of producing a readable error.
    if !v.is_finite() {
        return Err(ScenarioError::spec(format!(
            "{table}.{key} must be finite (got {v})"
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_topology::LinkId;

    const MINIMAL: &str = r#"
[scenario]
name = "t"

[sweep]
topology = ["mesh:2x2"]
"#;

    #[test]
    fn minimal_spec_gets_defaults() {
        let spec = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.sweep.collective, ["all-reduce"]);
        assert_eq!(spec.sweep.size, ["64MB"]);
        assert_eq!(spec.sweep.algo, ["tacos"]);
        assert_eq!(spec.sweep.chunks, [1]);
        assert_eq!(spec.sweep.seed, [42]);
        assert_eq!(spec.sweep.attempts, [1]);
        assert_eq!(spec.sweep.link, [LinkAxis::default_paper()]);
        assert_eq!(spec.run.cache.as_deref(), Some(".tacos-cache"));
        assert!(!spec.run.simulate);
    }

    #[test]
    fn scalars_accepted_as_one_element_axes() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = "ring:4"
size = "1MB"
chunks = 2
"#,
        )
        .unwrap();
        assert_eq!(spec.sweep.topology, ["ring:4"]);
        assert_eq!(spec.sweep.size, ["1MB"]);
        assert_eq!(spec.sweep.chunks, [2]);
    }

    #[test]
    fn axes_are_deduped_in_order() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4", "mesh:2x2", "ring:4"]
seed = [7, 7, 3]
"#,
        )
        .unwrap();
        assert_eq!(spec.sweep.topology, ["ring:4", "mesh:2x2"]);
        assert_eq!(spec.sweep.seed, [7, 3]);
    }

    #[test]
    fn bad_axis_values_are_rejected_at_load() {
        for (snippet, needle) in [
            ("topology = [\"blob:3\"]", "unknown topology kind"),
            (
                "topology = [\"mesh:2x2\"]\ncollective = [\"frobnicate\"]",
                "unknown collective",
            ),
            (
                "topology = [\"mesh:2x2\"]\nsize = [\"12parsecs\"]",
                "unknown size unit",
            ),
            (
                "topology = [\"mesh:2x2\"]\nalgo = [\"magic\"]",
                "unknown algorithm",
            ),
            ("topology = [\"mesh:2x2\"]\nchunks = [0]", "chunks"),
            ("topology = [\"mesh:2x2\"]\nattempts = [0]", "attempts"),
            ("topology = [\"custom:nope\"]", "unknown custom topology"),
        ] {
            let text = format!("[scenario]\nname = \"t\"\n[sweep]\n{snippet}\n");
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn empty_axis_arrays_are_rejected() {
        for axis in [
            "topology = []",
            "size = []",
            "algo = []",
            "seed = []",
            "chunks = []",
        ] {
            let text =
                format!("[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n{axis}\n");
            // The duplicate `topology` key case is a parse error; every
            // other empty axis must be a spec error. Both must fail.
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err().to_string();
            assert!(
                err.contains("must not be an empty list") || err.contains("duplicate key"),
                "axis '{axis}': got '{err}'"
            );
        }
    }

    #[test]
    fn misspelled_keys_are_rejected_not_defaulted() {
        // `seeds` instead of `seed` must not silently run the default grid.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\nseeds = [1, 2]\n",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'seeds'"),
            "got: {err}"
        );
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\ndescripton = \"typo\"\n[sweep]\ntopology = [\"ring:4\"]\n",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'descripton'"),
            "got: {err}"
        );
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n[run]\nsimulat = true\n",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'simulat'"),
            "got: {err}"
        );
    }

    #[test]
    fn run_quiet_can_be_set_in_the_file() {
        let spec = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n[run]\nquiet = true\n",
        )
        .unwrap();
        assert!(spec.run.quiet);
    }

    #[test]
    fn non_finite_link_values_are_rejected() {
        // 1e999 overflows f64 to infinity; it must be a readable spec
        // error, not a panic inside the unit types at run time. So must a
        // finite value past the picosecond clock or the f64 byte rate.
        for (link, needle) in [
            ("alpha_us = 0.5, bandwidth_gbps = 1e999", "must be finite"),
            ("alpha_us = 1e999, bandwidth_gbps = 50.0", "must be finite"),
            (
                "alpha_us = 1e300, bandwidth_gbps = 50.0",
                "alpha must be under 2^64 ps",
            ),
            (
                "alpha_us = 0.5, bandwidth_gbps = 1e300",
                "bandwidth must be finite in bytes per second",
            ),
        ] {
            let err = ScenarioSpec::from_toml_str(&format!(
                "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
                 link = [{{ {link} }}]\n"
            ))
            .unwrap_err();
            assert!(err.to_string().contains(needle), "{link}: {err}");
        }
    }

    #[test]
    fn custom_link_endpoints_do_not_wrap_through_u32() {
        // 2^32 would truncate to NPU 0 if cast before the range check.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"custom:pair\"]\n\
             [[topologies]]\nname = \"pair\"\nnpus = 2\n\
             [[topologies.links]]\nsrc = 4294967296\ndst = 1\nalpha_us = 0.5\nbandwidth_gbps = 50.0\nbidi = true\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "got: {err}");
    }

    #[test]
    fn custom_topology_rejects_multi_valued_link_axis() {
        let err = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["custom:pair"]
link = [
    { alpha_us = 0.5, bandwidth_gbps = 50.0 },
    { alpha_us = 0.5, bandwidth_gbps = 100.0 },
]
[[topologies]]
name = "pair"
npus = 2
[[topologies.links]]
src = 0
dst = 1
alpha_us = 0.5
bandwidth_gbps = 100.0
bidi = true
"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("ignores the link axis"),
            "got: {err}"
        );
    }

    #[test]
    fn missing_tables_are_reported() {
        assert!(ScenarioSpec::from_toml_str("x = 1")
            .unwrap_err()
            .to_string()
            .contains("scenario"));
        assert!(ScenarioSpec::from_toml_str("[scenario]\nname = \"t\"")
            .unwrap_err()
            .to_string()
            .contains("sweep"));
    }

    #[test]
    fn custom_topology_builds_and_is_referenced() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "hetero"

[sweep]
topology = ["custom:pair"]

[[topologies]]
name = "pair"
npus = 2

[[topologies.links]]
src = 0
dst = 1
alpha_us = 0.5
bandwidth_gbps = 100.0
bidi = true
"#,
        )
        .unwrap();
        let topo = spec
            .build_topology("custom:pair", LinkAxis::default_paper().to_spec())
            .unwrap();
        assert_eq!(topo.num_npus(), 2);
        assert_eq!(topo.num_links(), 2);
    }

    #[test]
    fn invalid_custom_topology_rejected_at_load() {
        // Link endpoint out of range for the declared NPU count.
        let err = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "bad"
[sweep]
topology = ["custom:oob"]
[[topologies]]
name = "oob"
npus = 2
[[topologies.links]]
src = 0
dst = 5
alpha_us = 0.5
bandwidth_gbps = 100.0
bidi = true
"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "got: {err}");
    }

    #[test]
    fn run_settings_parse() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4"]
[run]
simulate = true
threads = 8
cache = false
"#,
        )
        .unwrap();
        assert!(spec.run.simulate);
        assert_eq!(spec.run.threads, 8);
        assert_eq!(spec.run.cache, None);
    }

    #[test]
    fn synth_axes_parse_and_alias_the_top_level_spellings() {
        let spec = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
             synth.attempts = [1, 8]\nsynth.seed = [7]\nsynth.chunks = [2, 4]\n\
             synth.prefer_cheap_links = [true, false]\n",
        )
        .unwrap();
        assert_eq!(spec.sweep.attempts, [1, 8]);
        assert_eq!(spec.sweep.seed, [7]);
        assert_eq!(spec.sweep.chunks, [2, 4]);
        assert_eq!(spec.sweep.prefer_cheap_links, [true, false]);
        // Without the synth table the prioritization axis defaults to the
        // paper's on-setting.
        let plain = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        assert_eq!(plain.sweep.prefer_cheap_links, [true]);

        // Declaring an axis in both spellings is ambiguous.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
             attempts = [2]\nsynth.attempts = [4]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("name the same axis"), "got: {err}");
        // Typos inside the synth table are rejected like everywhere else.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
             synth.prefer_cheap = [true]\n",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'prefer_cheap'"),
            "got: {err}"
        );
    }

    #[test]
    fn workload_section_switches_to_training_evaluation() {
        let spec = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"torus:2x2x2\"]\n\
             [workload]\nmodel = [\"gnmt\", \"msft_1t\"]\nparallelism = \"data\"\noverlap = 0.25\n",
        )
        .unwrap();
        match &spec.evaluation {
            Evaluation::Training(w) => {
                assert_eq!(w.models, ["gnmt", "msft_1t"]);
                assert_eq!(w.parallelism, Parallelism::Data);
                assert_eq!(w.overlap, 0.25);
            }
            other => panic!("expected training, got {other:?}"),
        }
        assert!(spec.evaluation.is_training());
        // Bandwidth scenarios stay the default.
        assert!(!ScenarioSpec::from_toml_str(MINIMAL)
            .unwrap()
            .evaluation
            .is_training());
    }

    #[test]
    fn workload_section_is_validated() {
        let base = "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"torus:2x2x2\"]\n";
        for (snippet, needle) in [
            ("[workload]\nmodel = [\"blob\"]\n", "unknown workload model"),
            ("[workload]\n", "at least one model"),
            (
                "[workload]\nmodel = [\"gnmt\"]\nparallelism = \"frob\"\n",
                "unknown parallelism",
            ),
            (
                "[workload]\nmodel = [\"gnmt\"]\noverlap = 1.5\n",
                "between 0.0 and 1.0",
            ),
            (
                "[workload]\nmodel = [\"gnmt\"]\nmodels = [\"gnmt\"]\n",
                "unknown key 'models'",
            ),
            (
                "[workload]\nmodel = [\"gnmt\"]\n[run]\nsimulate = true\n",
                "run.simulate has no effect",
            ),
            (
                "[workload]\nmodel = [\"gnmt\"]\n[run]\nsimulate = true\n[timeline]\nbuckets = 4\n",
                "[workload]",
            ),
            (
                "[workload]\nmodel = [\"gnmt\"]\n[report]\ncolumns = [\"bandwidth_gbps\"]\n",
                "only exists for bandwidth points",
            ),
            // Training points carry no size or collective value, so a
            // rule constraining one could never fire.
            (
                "[workload]\nmodel = [\"gnmt\"]\n[[exclude]]\ntopology = \"torus:2x2x2\"\nsize = \"64MB\"\n",
                "exclude.size has no effect under [workload]",
            ),
            (
                "[workload]\nmodel = [\"gnmt\"]\n[[exclude]]\ncollective = \"all-reduce\"\n",
                "exclude.collective has no effect under [workload]",
            ),
        ] {
            let err = ScenarioSpec::from_toml_str(&format!("{base}{snippet}"))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "snippet {snippet:?}: got '{err}'");
        }
        // A collective/size axis under [workload] is dead weight.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"torus:2x2x2\"]\nsize = [\"1MB\"]\n\
             [workload]\nmodel = [\"gnmt\"]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("has no effect under [workload]"));
        // Breakdown columns need [workload].
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
             [report]\ncolumns = [\"forward_ps\"]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("[workload] section"), "got: {err}");
    }

    #[test]
    fn quick_section_builds_a_validated_reduced_grid() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:8", "ring:16"]
size = ["1MB", "1GB"]
algo = ["tacos", "ring"]
synth.attempts = [1, 8, 64]
[[exclude]]
topology = "ring:16"
algo = "ring"
[quick]
topology = ["ring:8"]
size = ["1MB"]
synth.attempts = [1, 8]
[[quick.exclude]]
topology = "ring:8"
algo = "ring"
"#,
        )
        .unwrap();
        // The full grid is untouched.
        assert_eq!(spec.sweep.topology, ["ring:8", "ring:16"]);
        assert_eq!(spec.sweep.attempts, [1, 8, 64]);
        assert_eq!(spec.excludes.len(), 1);
        // The quick grid replaces the listed axes and the exclude set,
        // keeps everything else, and validated at load.
        let quick = spec.quick.as_deref().expect("[quick] parsed");
        assert_eq!(quick.sweep.topology, ["ring:8"]);
        assert_eq!(quick.sweep.size, ["1MB"]);
        assert_eq!(quick.sweep.attempts, [1, 8]);
        assert_eq!(quick.sweep.algo, spec.sweep.algo);
        assert_eq!(quick.excludes.len(), 1);
        assert_eq!(quick.excludes[0][0].axis, "topology");
        assert_eq!(quick.excludes[0][0].labels, ["ring:8"]);
        assert!(quick.quick.is_none(), "quick does not nest");
        assert_eq!(spec.quick_spec().sweep.topology, ["ring:8"]);
        // Without [quick], quick_spec is the spec itself.
        let plain = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        assert!(plain.quick.is_none());
        assert_eq!(plain.quick_spec().name, plain.name);
    }

    #[test]
    fn quick_inherits_excludes_unless_it_restates_them() {
        // A [quick] that only reduces an unrelated axis keeps the full
        // grid's exclusion pinning.
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4", "ring:8"]
algo = ["tacos", "ring"]
attempts = [1, 8]
[[exclude]]
topology = "ring:8"
algo = "ring"
[quick]
attempts = [1]
"#,
        )
        .unwrap();
        let quick = spec.quick.as_deref().unwrap();
        assert_eq!(quick.excludes, spec.excludes, "excludes inherited");
        assert_eq!(quick.sweep.attempts, [1]);
        // An inherited exclude referencing an axis value the quick grid
        // dropped fails loudly instead of silently running extra points.
        let err = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4", "ring:8"]
algo = ["tacos", "ring"]
[[exclude]]
topology = "ring:8"
algo = "ring"
[quick]
topology = ["ring:4"]
"#,
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("in [quick]"), "got: {text}");
        assert!(text.contains("not in sweep.topology"), "got: {text}");
    }

    #[test]
    fn training_sim_column_error_does_not_point_at_run_simulate() {
        // "set run.simulate = true" would be advice the [workload]
        // validation rejects; the error must say the column is
        // unavailable under [workload] instead.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"torus:2x2x2\"]\n\
             [workload]\nmodel = [\"gnmt\"]\n\
             [report]\ncolumns = [\"avg_utilization\"]\n",
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("unavailable under [workload]"), "got: {text}");
        assert!(!text.contains("set run.simulate"), "got: {text}");
    }

    #[test]
    fn quick_section_is_validated_like_the_full_grid() {
        // A broken quick axis fails at load, prefixed so the author knows
        // which grid to fix.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:8\"]\n\
             [quick]\ntopology = [\"blob:3\"]\n",
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("in [quick]"), "got: {text}");
        assert!(text.contains("unknown topology kind"), "got: {text}");
        // quick.model needs a [workload] to override.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:8\"]\n\
             [quick]\nmodel = [\"gnmt\"]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("needs a [workload]"), "got: {err}");
        // Unknown quick keys are rejected.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:8\"]\n\
             [quick]\nthreads = 1\n",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'threads'"),
            "got: {err}"
        );
    }

    #[test]
    fn quick_model_override_replaces_the_workload_axis() {
        let spec = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"torus:2x2x2\"]\n\
             [workload]\nmodel = [\"resnet50\", \"msft_1t\"]\noverlap = 0.5\n\
             [quick]\nmodel = [\"resnet50\"]\n",
        )
        .unwrap();
        let quick = spec.quick.as_deref().unwrap();
        match (&spec.evaluation, &quick.evaluation) {
            (Evaluation::Training(full), Evaluation::Training(q)) => {
                assert_eq!(full.models, ["resnet50", "msft_1t"]);
                assert_eq!(q.models, ["resnet50"]);
                // Non-axis workload settings carry over.
                assert_eq!(q.overlap, 0.5);
            }
            other => panic!("expected training pair, got {other:?}"),
        }
    }

    #[test]
    fn timeout_setting_parses_and_rejects_nonpositive_values() {
        let spec = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
             [run]\ntimeout_s = 2.5\n",
        )
        .unwrap();
        assert_eq!(spec.run.timeout_s, Some(2.5));
        assert_eq!(
            ScenarioSpec::from_toml_str(MINIMAL).unwrap().run.timeout_s,
            None
        );
        for bad in [
            "timeout_s = 0",
            "timeout_s = -1.0",
            "timeout_s = \"x\"",
            "timeout_s = 1e20",
        ] {
            let err = ScenarioSpec::from_toml_str(&format!(
                "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n[run]\n{bad}\n"
            ))
            .unwrap_err();
            assert!(err.to_string().contains("timeout_s"), "{bad}: got {err}");
        }
    }

    #[test]
    fn metric_column_vocabulary_round_trips() {
        for col in &axis::COLUMNS {
            assert!(std::ptr::eq(Column::parse(col.name).unwrap(), col));
        }
        for training in [false, true] {
            for col in Column::default_layout(training) {
                assert!(axis::COLUMNS.iter().any(|c| std::ptr::eq(c, col)));
            }
        }
    }

    #[test]
    fn report_section_parses_and_validates() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4"]
algo = ["tacos", "ring"]
[run]
simulate = true
[report]
columns = ["bandwidth_gbps", "percent_of_ideal", "max_link_bytes"]
normalize_over = "tacos"
group_by = ["topology", "size"]
"#,
        )
        .unwrap();
        assert_eq!(spec.report.normalize_over.as_deref(), Some("tacos"));
        let group_by: Vec<&str> = spec.report.group_by.iter().map(|a| a.name).collect();
        assert_eq!(group_by, ["topology", "size"]);
        // normalized_time is appended because normalization is on.
        let columns: Vec<&str> = spec
            .report
            .metric_columns_for(false)
            .iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(
            columns,
            [
                "bandwidth_gbps",
                "percent_of_ideal",
                "max_link_bytes",
                "normalized_time",
            ]
        );
    }

    #[test]
    fn report_section_rejects_inconsistent_settings() {
        for (snippet, needle) in [
            (
                "[report]\nnormalize_over = \"direct\"",
                "not one of sweep.algo",
            ),
            (
                "[report]\ncolumns = [\"normalized_time\"]",
                "requires report.normalize_over",
            ),
            ("[report]\ncolumns = [\"max_link_bytes\"]", "run.simulate"),
            (
                "[report]\ncolumns = [\"frobnicate\"]",
                "unknown report column",
            ),
            ("[report]\ncolumns = []", "empty list"),
            (
                "[report]\ncolumns = [\"npus\", \"npus\"]",
                "lists 'npus' twice",
            ),
            ("[report]\ngroup_by = [\"algo\"]", "unknown group_by axis"),
            ("[report]\ncolumnz = [\"npus\"]", "unknown key 'columnz'"),
        ] {
            let text = format!(
                "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
                 algo = [\"tacos\", \"ring\"]\n{snippet}\n"
            );
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn without_links_axis_parses_counts_and_explicit_lists() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["torus:3x3"]
without_links = [0, 2, "1+3"]
"#,
        )
        .unwrap();
        assert_eq!(
            spec.sweep.without_links,
            [
                WithoutLinks::Count(0),
                WithoutLinks::Count(2),
                WithoutLinks::Links(vec![1, 3]),
            ]
        );
        assert_eq!(spec.sweep.without_links[2].label(), "1+3");
        assert!(spec.sweep.without_links[0].is_healthy());
        assert!(!spec.sweep.without_links[1].is_healthy());
    }

    #[test]
    fn disconnecting_without_links_fail_spec_validation_readably() {
        // A unidirectional ring cannot lose any link: the explicit victim
        // must be rejected at load with the combination named.
        let err = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring-uni:4"]
without_links = ["2"]
"#,
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("without_links '2'")
                && err.contains("ring-uni:4")
                && err.contains("strongly connected"),
            "got: {err}"
        );
        // Same for counts: no 1-link selection keeps it connected.
        let err = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring-uni:4"]
without_links = [1]
"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("no selection of 1 links"), "got: {err}");
        // Out-of-range explicit ids are a load error too.
        let err = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4"]
without_links = ["99"]
"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("out of range"), "got: {err}");
        // Malformed entries name the offending value.
        for bad in ["without_links = [\"1++2\"]", "without_links = [true]"] {
            let text =
                format!("[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n{bad}\n");
            assert!(ScenarioSpec::from_toml_str(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn excluded_without_links_combinations_are_not_validated() {
        // ring-uni:4 cannot survive any link kill, but the [[exclude]]
        // rule pins the failure level away from it — the spec must load
        // and expand to a grid without the fatal combination.
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring-uni:4", "torus:3x3"]
without_links = [0, 1]
[[exclude]]
topology = "ring-uni:4"
without_links = 1
"#,
        )
        .unwrap();
        let points = crate::grid::expand(&spec).unwrap();
        assert_eq!(points.len(), 2 * 2 - 1);
        assert!(!points
            .iter()
            .any(|p| p.topology == "ring-uni:4" && !p.without_links.is_healthy()));
    }

    #[test]
    fn ambiguous_without_links_labels_are_rejected() {
        // Count(1) and Links([1]) would both label as "1", aliasing
        // distinct grid points in outputs and group_by.
        let err = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"torus:3x3\"]\n\
             without_links = [1, \"1\"]\n",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("share the label '1'"), "got: {err}");
    }

    #[test]
    fn victim_selection_is_seed_deterministic_and_connected() {
        let topo = parse_topology("torus:3x3", LinkAxis::default_paper().to_spec()).unwrap();
        let axis = WithoutLinks::Count(3);
        let a = select_failed_links(&topo, &axis, 7).unwrap();
        let b = select_failed_links(&topo, &axis, 7).unwrap();
        assert_eq!(a, b, "same seed, same victims");
        assert_eq!(a.len(), 3);
        assert!(topo.without_links(&a).unwrap().is_strongly_connected());
        // A different seed (almost surely) picks a different set; at
        // minimum it must still admit a connected selection.
        let c = select_failed_links(&topo, &axis, 8).unwrap();
        assert!(topo.without_links(&c).unwrap().is_strongly_connected());
        // Explicit lists pass through untouched.
        let explicit = WithoutLinks::Links(vec![5, 1]);
        assert_eq!(
            select_failed_links(&topo, &explicit, 0).unwrap(),
            [LinkId::new(5), LinkId::new(1)]
        );
    }

    #[test]
    fn timeline_section_parses_and_validates() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4"]
[run]
simulate = true
[timeline]
buckets = 60
stages = true
"#,
        )
        .unwrap();
        assert_eq!(
            spec.timeline,
            Some(TimelineSettings {
                buckets: 60,
                stages: true
            })
        );
        // Default bucket count when the section only enables stages.
        let spec = ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
             [run]\nsimulate = true\n[timeline]\nstages = true\n",
        )
        .unwrap();
        assert_eq!(spec.timeline.unwrap().buckets, 50);

        for (snippet, needle) in [
            ("[timeline]\nbuckets = 8", "run.simulate"),
            (
                "[run]\nsimulate = true\n[timeline]\nbuckets = 0",
                "emits nothing",
            ),
            (
                "[run]\nsimulate = true\n[timeline]\nbucketz = 8",
                "unknown key 'bucketz'",
            ),
        ] {
            let text =
                format!("[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n{snippet}\n");
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn family_form_topologies_build_with_tier_overrides() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "hetero"
[sweep]
topology = ["custom:df", "custom:sw", "custom:rfs", "custom:flat"]

[[topologies]]
name = "df"
base = "dragonfly:5x4"
alpha_us = 0.5
tier_gbps = [400.0, 200.0]

[[topologies]]
name = "sw"
base = "switch2d:8x4"
alpha_us = 0.5
tier_gbps = [300.0, 25.0]

[[topologies]]
name = "rfs"
base = "rfs:2x4x8"
alpha_us = 0.5
tier_gbps = [200.0, 100.0, 50.0]

[[topologies]]
name = "flat"
base = "mesh:3x3"
alpha_us = 0.7
tier_gbps = [25.0]
"#,
        )
        .unwrap();
        let probe = LinkAxis::default_paper().to_spec();
        let tiers = |name: &str| {
            let topo = spec.build_topology(name, probe).unwrap();
            let mut bws: Vec<f64> = topo
                .links()
                .iter()
                .map(|l| l.spec().bandwidth().as_gbps())
                .collect();
            bws.sort_by(f64::total_cmp);
            bws.dedup();
            bws
        };
        assert_eq!(tiers("custom:df"), [200.0, 400.0]);
        assert_eq!(tiers("custom:sw"), [25.0, 300.0]);
        assert_eq!(tiers("custom:rfs"), [50.0, 100.0, 200.0]);
        assert_eq!(tiers("custom:flat"), [25.0]);
        assert_eq!(
            spec.build_topology("custom:df", probe).unwrap().num_npus(),
            20
        );
        assert_eq!(
            spec.build_topology("custom:sw", probe).unwrap().num_npus(),
            32
        );
    }

    #[test]
    fn family_form_rejects_bad_shapes() {
        for (body, needle) in [
            (
                "base = \"dragonfly:5x4\"\nalpha_us = 0.5\ntier_gbps = [400.0]",
                "2 tier(s)",
            ),
            (
                "base = \"rfs:2x4x8:4x2x1\"\nalpha_us = 0.5\ntier_gbps = [1.0, 2.0, 3.0]",
                "ratio suffix",
            ),
            (
                "base = \"mesh:3x3\"\nalpha_us = 0.5\ntier_gbps = [25.0, 50.0]",
                "1 tier(s)",
            ),
            (
                "base = \"mesh:3x3\"\nnpus = 4\nalpha_us = 0.5\ntier_gbps = [25.0]",
                "cannot be combined with 'base'",
            ),
            ("npus = 4\ntier_gbps = [25.0]", "requires 'base'"),
            (
                "base = \"mesh:3x3\"\nalpha_us = 0.5\ntier_gbps = [-1.0]",
                "positive",
            ),
        ] {
            let text = format!(
                "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"custom:x\"]\n\
                 [[topologies]]\nname = \"x\"\n{body}\n"
            );
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn oversized_topologies_are_readable_spec_errors() {
        for (topologies, needle) in [
            ("", "topology 'fc:100000' has 9999900000 links"),
            (
                "[[topologies]]\nname = \"x\"\nnpus = 1099511627776\n\
                 links = [{ src = 0, dst = 1, alpha_us = 0.5, bandwidth_gbps = 50.0 }]\n",
                "topology 'x': topology 'custom:x' has 1099511627776 NPUs",
            ),
            (
                "[[topologies]]\nname = \"x\"\nbase = \"mesh:4294967296x4294967297\"\n\
                 alpha_us = 0.5\ntier_gbps = [50.0]\n",
                "more than 2^64 NPUs, over the limit of 33554432",
            ),
        ] {
            let topology = if topologies.is_empty() {
                "fc:100000"
            } else {
                "custom:x"
            };
            let text = format!(
                "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"{topology}\"]\n{topologies}"
            );
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn exclude_rules_parse_and_reject_typos() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "t"
[sweep]
topology = ["ring:4", "mesh:2x2"]
algo = ["tacos", "taccl"]
[[exclude]]
topology = "mesh:2x2"
algo = ["taccl"]
"#,
        )
        .unwrap();
        assert_eq!(spec.excludes.len(), 1);
        // Both constraints must hold: of the 2x2 grid only mesh:2x2/taccl
        // goes.
        let survivors: Vec<(String, String)> = crate::grid::expand(&spec)
            .unwrap()
            .into_iter()
            .map(|p| (p.topology, p.algo))
            .collect();
        let pair = |topology: &str, algo: &str| (topology.to_string(), algo.to_string());
        assert_eq!(
            survivors,
            [
                pair("ring:4", "tacos"),
                pair("ring:4", "taccl"),
                pair("mesh:2x2", "tacos"),
            ]
        );

        for (snippet, needle) in [
            (
                "[[exclude]]\ntopology = \"torus:2x2\"",
                "not in sweep.topology",
            ),
            ("[[exclude]]\nalgo = \"ring\"", "not in sweep.algo"),
            ("[[exclude]]\nseed = 7", "not in sweep.seed"),
            ("[[exclude]]", "at least one axis"),
            ("[[exclude]]\nalgos = [\"taccl\"]", "unknown key 'algos'"),
            ("[[exclude]]\nalgo = []", "empty list"),
        ] {
            let text = format!(
                "[scenario]\nname = \"t\"\n[sweep]\ntopology = [\"ring:4\"]\n\
                 algo = [\"tacos\", \"taccl\"]\n{snippet}\n"
            );
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }
}
