//! The scenario grid as data: [`AXES`] describes every sweep axis once
//! and [`COLUMNS`] every `[report]` metric column once. `[sweep]` /
//! `[quick]` / `[[exclude]]` / `group_by` parsing with their
//! "expected one of" lists, grid expansion and the identity and metric
//! cells of the CSV and JSON artifacts are all read off these two
//! tables (`grid`'s module doc has the axis reference table). Adding an
//! axis is one row here, its [`SweepAxes`] and [`ScenarioPoint`] fields,
//! and the consumer that acts on the value.

use std::fmt;
use std::sync::LazyLock;

use tacos_core::{CacheOutcome, SynthesizerConfig};
use tacos_report::Json;
use tacos_sim::LinkLoadStats;
use tacos_topology::{ByteSize, Time};
use tacos_workload::{Mechanism, TrainingReport};

use crate::error::ScenarioError;
use crate::grid::ScenarioPoint;
use crate::runner::PointMetrics;
use crate::spec::{
    expect_float, parse_pattern, parse_size, parse_topology, Evaluation, LinkAxis, WithoutLinks,
};
use crate::toml::Value;

/// The `[sweep]` axes as parsed. Grid expansion is their cartesian
/// product (with the `[workload]` model axis).
#[derive(Debug, Clone, Default)]
pub struct SweepAxes {
    /// Topology spec strings (`mesh:3x3`, `custom:<name>`, ...).
    pub topology: Vec<String>,
    /// Collective pattern names (`all-reduce`, `all-gather`, ...).
    pub collective: Vec<String>,
    /// Collective sizes (`64MB`, `1GB`, ...).
    pub size: Vec<String>,
    /// Chunking factors per NPU.
    pub chunks: Vec<usize>,
    /// Algorithm names (`tacos` or any baseline).
    pub algo: Vec<String>,
    /// Base RNG seeds.
    pub seed: Vec<u64>,
    /// Best-of-N attempt counts.
    pub attempts: Vec<usize>,
    /// Link specs applied to homogeneous topology constructors.
    pub link: Vec<LinkAxis>,
    /// Failure-injection values: links to kill before each point.
    pub without_links: Vec<WithoutLinks>,
    /// Low-cost-link-prioritization settings (`synth.prefer_cheap_links`):
    /// the §IV-F ablation as a sweep axis. Default `[true]` (the paper's
    /// setting).
    pub prefer_cheap_links: Vec<bool>,
}

/// One cell of an output row, typed so the CSV (`Display`) and the JSON
/// artifact each render the value in their own form.
#[derive(Debug)]
pub(crate) enum Cell {
    Str(String),
    Int(u64),
    Bool(bool),
    Num(f64),
    /// A float the CSV prints at this many decimals (the JSON keeps full
    /// precision).
    Fixed(f64, usize),
}
use Cell::{Fixed, Int, Num, Str};

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Str(s) => f.write_str(s),
            Int(n) => write!(f, "{n}"),
            Cell::Bool(b) => write!(f, "{b}"),
            Num(v) => write!(f, "{v}"),
            Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
        }
    }
}

impl Cell {
    pub(crate) fn json(self) -> Json {
        match self {
            Str(s) => Json::Str(s),
            Int(n) => Json::Uint(n),
            Cell::Bool(b) => Json::Bool(b),
            Num(v) | Fixed(v, _) => Json::Num(v),
        }
    }
}

/// A type axis values have. `Display` is the value's label: the text
/// `[[exclude]]` rules match on and error messages quote.
pub(crate) trait AxisValue: Sized + PartialEq + fmt::Display {
    /// Parses one TOML value of the axis spelled at `path`.
    fn parse(path: &str, v: &Value) -> Result<Self, ScenarioError>;

    /// The value as an identity cell.
    fn cell(&self) -> Cell;
}

fn mismatch(path: &str, want: &str, v: &Value) -> ScenarioError {
    let found = v.type_name();
    ScenarioError::spec(format!("{path} entries must be {want}, found {found}"))
}

impl AxisValue for String {
    fn parse(path: &str, v: &Value) -> Result<Self, ScenarioError> {
        let s = v.as_str().ok_or_else(|| mismatch(path, "strings", v))?;
        Ok(s.to_string())
    }

    fn cell(&self) -> Cell {
        Str(self.clone())
    }
}

impl AxisValue for u64 {
    fn parse(path: &str, v: &Value) -> Result<Self, ScenarioError> {
        let n = v.as_int().ok_or_else(|| mismatch(path, "integers", v))?;
        u64::try_from(n).map_err(|_| ScenarioError::spec(format!("{path} entries must be >= 0")))
    }

    fn cell(&self) -> Cell {
        Int(*self)
    }
}

impl AxisValue for usize {
    fn parse(path: &str, v: &Value) -> Result<Self, ScenarioError> {
        u64::parse(path, v).map(|n| n as usize)
    }

    fn cell(&self) -> Cell {
        Int(*self as u64)
    }
}

impl AxisValue for bool {
    fn parse(path: &str, v: &Value) -> Result<Self, ScenarioError> {
        v.as_bool().ok_or_else(|| mismatch(path, "booleans", v))
    }

    fn cell(&self) -> Cell {
        Cell::Bool(*self)
    }
}

impl AxisValue for LinkAxis {
    fn parse(path: &str, v: &Value) -> Result<Self, ScenarioError> {
        let want = "tables like { alpha_us = 0.5, bandwidth_gbps = 50.0 }";
        let t = v.as_table().ok_or_else(|| mismatch(path, want, v))?;
        Ok(LinkAxis {
            alpha_us: expect_float(t, "link", "alpha_us")?,
            bandwidth_gbps: expect_float(t, "link", "bandwidth_gbps")?,
        })
    }

    fn cell(&self) -> Cell {
        Str(self.to_string())
    }
}

/// Declares an axis from the TOML value spelled at `path` — a scalar or
/// a list, deduplicated in order so axis cardinalities are exact — with
/// every value checked by `valid` (an error is the reason alone), so a
/// bad value surfaces at load. An explicitly empty list is rejected (it
/// would silently select nothing); `hint` says what omitting the key
/// does instead.
pub(crate) fn declare<T: AxisValue>(
    v: &Value,
    path: &str,
    hint: &str,
    valid: impl Fn(&T) -> Result<(), String>,
) -> Result<Vec<T>, ScenarioError> {
    let items = match v {
        Value::Array(items) if items.is_empty() => {
            return Err(ScenarioError::spec(format!(
                "{path} must not be an empty list ({hint})"
            )))
        }
        Value::Array(items) => items.iter().collect(),
        scalar => vec![scalar],
    };
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        let value = T::parse(path, item)?;
        valid(&value).map_err(|e| ScenarioError::spec(format!("{path} '{value}': {e}")))?;
        if !values.contains(&value) {
            values.push(value);
        }
    }
    Ok(values)
}

fn labels<T: fmt::Display>(values: &[T]) -> Vec<String> {
    values.iter().map(T::to_string).collect()
}

/// The places an axis name can appear; each indexes [`Axis::rank`]:
/// the identity columns of every CSV artifact, the top-level `[sweep]`
/// (and so `[quick]`) keys, the `[sweep] synth` keys, the `[[exclude]]`
/// constraints, and the `[report] group_by` keys (ranked, the default
/// grouping).
#[derive(Clone, Copy)]
pub(crate) enum Place {
    Csv,
    Sweep,
    Synth,
    Exclude,
    GroupBy,
}

/// One identity column of an axis: its name and its value on a point
/// (`None` prints an empty CSV cell and no JSON field).
type IdentityCell = (&'static str, fn(&ScenarioPoint) -> Option<Cell>);

/// One grid axis. The closures read and write the axis's own typed
/// fields; everything generic works on labels and positions.
#[derive(Debug)]
pub struct Axis {
    /// The key in scenario files, `group_by` lists and error messages.
    pub name: &'static str,
    /// 1-based position in each [`Place`]'s list; 0 = not accepted there.
    /// Row order is the nesting order and the `Csv` ranks the column
    /// order — both contract: point indices and CSV positions follow
    /// them. The other ranks only order "expected one of" messages and
    /// the default `group_by`, which no output shows.
    rank: [u8; 5],
    /// Declares the values a scenario that omits the axis gets; leaving
    /// it empty makes the axis required.
    pub(crate) default: fn(&mut SweepAxes),
    /// Declares the axis from the `[sweep]` value spelled at `path`.
    pub(crate) load: fn(&mut SweepAxes, &Value, &str) -> Result<(), ScenarioError>,
    /// The labels of the `[[exclude]]` values spelled at `path`.
    pub(crate) exclude: fn(&Value, &str) -> Result<Vec<String>, ScenarioError>,
    /// For the axes the model decides under `[workload]`: declares the
    /// one value every training point carries. `None` = stays live.
    pub(crate) under_workload: Option<fn(&mut SweepAxes)>,
    /// The labels of the declared values.
    pub(crate) labels: fn(&SweepAxes, &Evaluation) -> Vec<String>,
    /// Puts the declared value at a position on a point.
    pub(crate) place: fn(&mut ScenarioPoint, &SweepAxes, &Evaluation, usize) -> Result<(), String>,
    /// The identity columns the axis contributes to every output row.
    pub(crate) cells: &'static [IdentityCell],
    /// Whether the JSON row carries the cells (the CSV always does).
    pub(crate) in_json: fn(&ScenarioPoint) -> bool,
}

/// The row of an axis whose [`SweepAxes`] and [`ScenarioPoint`] fields
/// carry its name, its values checked by `$valid`.
macro_rules! row {
    ($field:ident, $valid:expr) => {
        Axis {
            name: stringify!($field),
            rank: [0; 5],
            default: |_| {},
            load: |s, v, path| {
                s.$field = declare(v, path, "omit it for the default", $valid)?;
                Ok(())
            },
            exclude: |v, path| {
                let hint = concat!("omit it to match any ", stringify!($field));
                // Typed like the axis, through its (empty) default field.
                let mut listed = SweepAxes::default().$field;
                listed.append(&mut declare(v, path, hint, |_| Ok(()))?);
                Ok(labels(&listed))
            },
            under_workload: None,
            labels: |s, _| labels(&s.$field),
            place: |p, s, _, i| {
                p.$field = s.$field[i].clone();
                Ok(())
            },
            cells: &[(stringify!($field), |p| Some(p.$field.cell()))],
            in_json: |_| true,
        }
    };
}

fn at_least_one(n: &usize) -> Result<(), String> {
    match n {
        0 => Err("must be >= 1".to_string()),
        _ => Ok(()),
    }
}

fn text(s: &str) -> Option<Cell> {
    Some(Str(s.to_string()))
}

/// Every grid axis, in nesting order (first row outermost). `rank` is
/// `[csv, sweep, synth, exclude, group_by]`.
pub static AXES: [Axis; 11] = [
    Axis {
        rank: [1, 1, 0, 1, 1],
        // `custom:<name>` values are checked against `[[topologies]]` by
        // the caller, which has them.
        ..row!(topology, |t: &String| match t.starts_with("custom:") {
            true => Ok(()),
            false => parse_topology(t, LinkAxis::default_paper().to_spec()).map(drop),
        })
    },
    // `[workload]` declares and validates it; a bandwidth scenario has
    // the one model-less value, labelled "".
    Axis {
        name: "model",
        rank: [2, 0, 0, 9, 2],
        default: |_| {},
        load: |_, _, _| Ok(()),
        exclude: |v, path| declare(v, path, "omit it to match any model", |_| Ok(())),
        under_workload: None,
        labels: |_, e| match e {
            Evaluation::Bandwidth => vec![String::new()],
            Evaluation::Training(w) => w.models.clone(),
        },
        place: |p, _, e, i| {
            p.model = match e {
                Evaluation::Bandwidth => None,
                Evaluation::Training(w) => Some(w.models[i].clone()),
            };
            Ok(())
        },
        cells: &[("model", |p| p.model.as_deref().and_then(text))],
        in_json: |_| true,
    },
    Axis {
        rank: [10, 9, 0, 8, 10],
        default: |s| s.without_links = vec![WithoutLinks::Count(0)],
        in_json: |p| !p.without_links.is_healthy(),
        ..row!(without_links, |_| Ok(()))
    },
    Axis {
        // Not excludable: no scenario needed it.
        rank: [11, 8, 0, 0, 3],
        default: |s| s.link = vec![LinkAxis::default_paper()],
        // Custom topologies carry their own per-link specs; reporting the
        // sweep's link axis for them would be fabricated data.
        cells: &[
            ("alpha_us", |p| {
                p.uses_link_axis().then_some(Num(p.link.alpha_us))
            }),
            ("link_gbps", |p| {
                p.uses_link_axis().then_some(Num(p.link.bandwidth_gbps))
            }),
        ],
        ..row!(link, LinkAxis::check)
    },
    Axis {
        rank: [3, 2, 0, 2, 4],
        default: |s| s.collective = vec!["all-reduce".to_string()],
        // The gradient collectives' pattern.
        under_workload: Some(|s| s.collective = vec!["all-reduce".to_string()]),
        in_json: |p| p.model.is_none(),
        // Root indices are range-checked per-topology at run time; here
        // validate against the largest representable root.
        ..row!(collective, |c: &String| parse_pattern(c, usize::MAX)
            .map(drop))
    },
    // Written out: the point carries the parsed bytes beside the label.
    Axis {
        name: "size",
        rank: [4, 3, 0, 3, 5],
        default: |s| s.size = vec!["64MB".to_string()],
        load: |s, v, path| {
            let valid = |size: &String| parse_size(size).map(drop);
            s.size = declare(v, path, "omit it for the default", valid)?;
            Ok(())
        },
        exclude: |v, path| declare(v, path, "omit it to match any size", |_| Ok(())),
        // Volumes come from the model: no label, zero bytes.
        under_workload: Some(|s| s.size = vec![String::new()]),
        labels: |s, _| s.size.clone(),
        place: |p, s, _, i| {
            p.size = match s.size[i].as_str() {
                "" => ByteSize::ZERO,
                label => parse_size(label).map_err(|e| format!("sweep.size '{label}': {e}"))?,
            };
            p.size_label = s.size[i].clone();
            Ok(())
        },
        cells: &[
            ("size", |p| text(&p.size_label)),
            ("size_bytes", |p| {
                p.model.is_none().then_some(Int(p.size.as_u64()))
            }),
        ],
        in_json: |p| p.model.is_none(),
    },
    Axis {
        rank: [5, 4, 3, 5, 6],
        default: |s| s.chunks = vec![1],
        ..row!(chunks, at_least_one)
    },
    Axis {
        // Not a group_by key: normalization compares algorithms *within*
        // a group.
        rank: [6, 5, 0, 4, 0],
        default: |s| s.algo = vec!["tacos".to_string()],
        ..row!(algo, |a: &String| {
            Mechanism::parse(a, &SynthesizerConfig::default()).map(drop)
        })
    },
    Axis {
        rank: [7, 6, 2, 6, 7],
        default: |s| s.seed = vec![42],
        ..row!(seed, |_| Ok(()))
    },
    Axis {
        rank: [8, 7, 1, 7, 8],
        default: |s| s.attempts = vec![1],
        ..row!(attempts, at_least_one)
    },
    Axis {
        rank: [9, 0, 4, 10, 9],
        default: |s| s.prefer_cheap_links = vec![true],
        ..row!(prefer_cheap_links, |_| Ok(()))
    },
];

impl Axis {
    /// Whether `place` accepts the axis.
    pub(crate) fn at(&self, place: Place) -> bool {
        self.rank[place as usize] > 0
    }

    /// Whether `[workload]`, not `[sweep]`, declares the axis.
    pub(crate) fn in_workload(&self) -> bool {
        !self.at(Place::Sweep) && !self.at(Place::Synth)
    }

    /// Where a scenario file declares the axis, for error messages.
    pub(crate) fn path(&self) -> String {
        let table = match (self.in_workload(), self.at(Place::Sweep)) {
            (true, _) => "workload",
            (false, true) => "sweep",
            (false, false) => "sweep.synth",
        };
        format!("{table}.{}", self.name)
    }

    /// Rejects the axis spelled at `path` in a `[workload]` scenario when
    /// the model decides it there.
    pub(crate) fn reject_under_workload(&self, path: &str) -> Result<(), ScenarioError> {
        match self.under_workload {
            Some(_) => Err(ScenarioError::spec(format!(
                "{path} has no effect under [workload] (gradient collectives \
                 come from the model); remove it"
            ))),
            None => Ok(()),
        }
    }
}

/// The axes `place` accepts, in its order.
pub(crate) fn listed(place: Place) -> Vec<&'static Axis> {
    let mut axes: Vec<&'static Axis> = AXES.iter().filter(|a| a.at(place)).collect();
    axes.sort_by_key(|a| a.rank[place as usize]);
    axes
}

/// The allowed-key list of `place`: its axes' names, then `extra`.
pub(crate) fn keys(place: Place, extra: &[&'static str]) -> Vec<&'static str> {
    let names = listed(place).into_iter().map(|a| a.name);
    names.chain(extra.iter().copied()).collect()
}

/// The keys `[quick]` accepts: everything `[sweep]` does, the axes
/// `[workload]` declares, and its own `[[quick.exclude]]` set.
pub(crate) fn quick_keys() -> Vec<&'static str> {
    let in_workload = AXES.iter().filter(|a| a.in_workload());
    let mut all = keys(Place::Sweep, &["synth"]);
    all.extend(in_workload.map(|a| a.name));
    all.push("exclude");
    all
}

/// Looks an axis up by name.
pub(crate) fn named(name: &str) -> Option<&'static Axis> {
    AXES.iter().find(|a| a.name == name)
}

/// One constraint of an `[[exclude]]` rule: the label of the point's
/// value on `axis` is one of `labels` (each the label of an actual value
/// of that axis).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The constrained axis's name.
    pub axis: &'static str,
    /// The labels that match.
    pub labels: Vec<String>,
}

/// The axes in CSV identity-column order.
static CSV_ORDER: LazyLock<Vec<&'static Axis>> = LazyLock::new(|| listed(Place::Csv));

/// The identity columns every CSV layout starts with.
pub(crate) fn identity_header() -> Vec<String> {
    let cells = CSV_ORDER.iter().flat_map(|a| a.cells);
    let names = ["scenario", "point"].into_iter();
    names
        .chain(cells.map(|(name, _)| *name))
        .map(str::to_string)
        .collect()
}

/// The identity cells of a point in [`identity_header`] order (after
/// `scenario` and `point`): name, value, and whether the JSON row
/// carries it.
pub(crate) fn identity(p: &ScenarioPoint) -> Vec<(&'static str, Option<Cell>, bool)> {
    let of = |a: &&'static Axis| {
        let in_json = (a.in_json)(p);
        a.cells
            .iter()
            .map(move |(name, cell)| (*name, cell(p), in_json))
    };
    CSV_ORDER.iter().flat_map(of).collect()
}

/// Where a column's value comes from — which is also what selecting the
/// column requires of the scenario.
#[derive(Debug)]
pub(crate) enum Source {
    /// Measured on every point.
    Point(fn(&PointMetrics) -> Cell),
    /// Rates a single collective payload: bandwidth points only.
    Payload(fn(&PointMetrics) -> Option<Cell>),
    /// The simulator's per-link report: needs `run.simulate`, and so
    /// bandwidth points.
    Links(fn(&LinkLoadStats) -> Cell),
    /// The training-iteration breakdown: needs `[workload]`.
    Breakdown(fn(&TrainingReport) -> Time),
    /// The per-group normalization: needs `report.normalize_over`, and is
    /// appended to the layout when that is set without listing it.
    Normalized,
}
use Source::{Breakdown, Links, Normalized, Payload, Point};

/// Member of the default bandwidth layout.
const B: u8 = 1;
/// Member of the default `[workload]` layout.
const T: u8 = 2;
/// Derived from another column: the CSV can carry it, the JSON does not.
const CSV_ONLY: u8 = 4;

/// One metric column of the shaped output CSV.
///
/// The identity columns (scenario, point index, the axis values) are
/// always present; `[report] columns` selects and orders the *metric*
/// columns that follow them. Without a `[report]` section the output
/// carries the default layout of its evaluation kind.
#[derive(Debug)]
pub struct Column {
    /// The CSV header, JSON key and `[report] columns` name.
    pub name: &'static str,
    flags: u8,
    pub(crate) source: Source,
}

const fn col(name: &'static str, flags: u8, source: Source) -> Column {
    Column {
        name,
        flags,
        source,
    }
}

/// Every metric column, in `[report] columns` vocabulary order; both
/// default layouts are subsequences of it. Times are integer picoseconds
/// (the collective's, or the whole iteration's under `[workload]`) unless
/// named otherwise; `efficiency_vs_ideal` is the fraction of the ideal
/// bound achieved (0..1).
pub static COLUMNS: [Column; 20] = [
    col("npus", B | T, Point(|m| Int(m.num_npus as u64))),
    col(
        "collective_time_ps",
        B | T,
        Point(|m| Int(m.collective_time.as_ps())),
    ),
    col(
        "collective_time_us",
        B | CSV_ONLY,
        Point(|m| Num(m.collective_time.as_micros_f64())),
    ),
    col("bandwidth_gbps", B, Payload(|m| m.bandwidth_gbps.map(Num))),
    // The four-way iteration breakdown of paper Fig. 21: compute, then
    // the *exposed* weight- and input-gradient collective time.
    col("forward_ps", T, Breakdown(|t| t.forward)),
    col("backward_ps", T, Breakdown(|t| t.backward)),
    col("wg_comm_ps", T, Breakdown(|t| t.weight_grad_comm)),
    col("ig_comm_ps", T, Breakdown(|t| t.input_grad_comm)),
    col("efficiency_vs_ideal", B | T, Point(|m| Num(m.efficiency))),
    col(
        "percent_of_ideal",
        CSV_ONLY,
        Point(|m| Num(m.efficiency * 100.0)),
    ),
    col("transfers", B, Point(|m| Int(m.transfers))),
    // Wall-clock seconds synthesizing (or loading) the algorithm.
    col(
        "synthesis_seconds",
        B | T,
        Point(|m| Num(m.synthesis_seconds)),
    ),
    col(
        "cache",
        B | T,
        Point(|m| match m.cache {
            Some(CacheOutcome::Hit) => Str("hit".into()),
            Some(CacheOutcome::Miss) => Str("miss".into()),
            None => Str("off".into()),
        }),
    ),
    // Collective time over the `normalize_over` algorithm's time within
    // the same `group_by` group (1.0 on the baseline's own rows).
    col("normalized_time", 0, Normalized),
    col("avg_utilization", 0, Links(|s| Num(s.avg_utilization))),
    col("max_link_bytes", 0, Links(|s| Int(s.max_link_bytes))),
    col("idle_links", 0, Links(|s| Int(s.idle_links as u64))),
    // Hottest-link bytes over mean link bytes (the paper Fig. 1 hot-spot
    // measure). The original heat-map experiment printed it at three
    // decimals; the CSV keeps that for readable diffs.
    col("imbalance", 0, Links(|s| Fixed(s.imbalance, 3))),
    col("compute_ps", 0, Breakdown(|t| t.compute())),
    col("comm_ps", 0, Breakdown(|t| t.comm())),
];

impl Column {
    /// Parses a `[report] columns` entry.
    pub(crate) fn parse(name: &str) -> Result<&'static Column, String> {
        COLUMNS.iter().find(|c| c.name == name).ok_or_else(|| {
            let known: Vec<&str> = COLUMNS.iter().map(|c| c.name).collect();
            let known = known.join(", ");
            format!("unknown report column '{name}' (expected one of: {known})")
        })
    }

    /// The metric columns of an unshaped run, in output order: the
    /// bandwidth layout, or under `[workload]` the iteration total, its
    /// breakdown and the run bookkeeping.
    pub(crate) fn default_layout(training: bool) -> Vec<&'static Column> {
        let member = if training { T } else { B };
        COLUMNS.iter().filter(|c| c.flags & member != 0).collect()
    }

    /// Whether the JSON row — always the complete raw metric set,
    /// independent of the CSV shaping — carries the column.
    pub(crate) fn in_json(&self) -> bool {
        self.flags & CSV_ONLY == 0
    }

    /// The value on a successful point whose `normalized_time` is
    /// `normalized`; `None` prints an empty CSV cell and no JSON field.
    pub(crate) fn cell(&self, m: &PointMetrics, normalized: Option<f64>) -> Option<Cell> {
        match self.source {
            Point(f) => Some(f(m)),
            Payload(f) => f(m),
            Links(f) => m.link_stats.as_ref().map(f),
            Breakdown(f) => m.training.as_ref().map(|t| Int(f(t).as_ps())),
            Normalized => normalized.map(Num),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names are keys: a duplicate would shadow a row.
    #[test]
    fn axis_and_column_names_are_unique() {
        for (i, axis) in AXES.iter().enumerate() {
            assert!(
                !AXES[..i].iter().any(|a| a.name == axis.name),
                "{}",
                axis.name
            );
        }
        for (i, col) in COLUMNS.iter().enumerate() {
            assert!(
                !COLUMNS[..i].iter().any(|c| c.name == col.name),
                "{}",
                col.name
            );
        }
        let cells: Vec<&str> = AXES.iter().flat_map(|a| a.cells).map(|c| c.0).collect();
        for (i, cell) in cells.iter().enumerate() {
            assert!(!cells[..i].contains(cell), "{cell}");
        }
    }

    /// A place's ranks are 1..=n with no gaps or ties, so its order is
    /// total and a row cannot silently drop out of a list.
    #[test]
    fn ranks_are_dense_per_place() {
        for place in [
            Place::Csv,
            Place::Sweep,
            Place::Synth,
            Place::Exclude,
            Place::GroupBy,
        ] {
            let ranks: Vec<u8> = listed(place)
                .iter()
                .map(|a| a.rank[place as usize])
                .collect();
            let dense: Vec<u8> = (1..=ranks.len() as u8).collect();
            assert_eq!(ranks, dense, "place {}", place as usize);
        }
    }

    /// User-facing text and CSV headers derived from the table, pinned as
    /// literals: reordering rows or ranks must not change them silently.
    #[test]
    fn derived_lists_are_pinned() {
        assert_eq!(
            identity_header().join(","),
            "scenario,point,topology,model,collective,size,size_bytes,chunks,algo,seed,\
             attempts,prefer_cheap_links,without_links,alpha_us,link_gbps"
        );
        assert_eq!(
            keys(Place::Sweep, &["synth"]).join(", "),
            "topology, collective, size, chunks, algo, seed, attempts, link, without_links, synth"
        );
        assert_eq!(
            keys(Place::Synth, &[]).join(", "),
            "attempts, seed, chunks, prefer_cheap_links"
        );
        assert_eq!(
            quick_keys().join(", "),
            "topology, collective, size, chunks, algo, seed, attempts, link, without_links, \
             synth, model, exclude"
        );
        assert_eq!(
            keys(Place::Exclude, &[]).join(", "),
            "topology, collective, size, algo, chunks, seed, attempts, without_links, model, \
             prefer_cheap_links"
        );
        assert_eq!(
            keys(Place::GroupBy, &[]).join(", "),
            "topology, model, link, collective, size, chunks, seed, attempts, \
             prefer_cheap_links, without_links"
        );
    }

    /// The nesting order is the row order; the expansion golden pins its
    /// effect, this pins the order itself.
    #[test]
    fn nesting_order_is_pinned() {
        let names: Vec<&str> = AXES.iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            [
                "topology",
                "model",
                "without_links",
                "link",
                "collective",
                "size",
                "chunks",
                "algo",
                "seed",
                "attempts",
                "prefer_cheap_links",
            ]
        );
    }

    /// The default layouts are contract (CSV headers of unshaped runs).
    #[test]
    fn default_layouts_are_pinned() {
        let names = |training| {
            let layout = Column::default_layout(training);
            layout.iter().map(|c| c.name).collect::<Vec<_>>().join(",")
        };
        assert_eq!(
            names(false),
            "npus,collective_time_ps,collective_time_us,bandwidth_gbps,efficiency_vs_ideal,\
             transfers,synthesis_seconds,cache"
        );
        assert_eq!(
            names(true),
            "npus,collective_time_ps,forward_ps,backward_ps,wg_comm_ps,ig_comm_ps,\
             efficiency_vs_ideal,synthesis_seconds,cache"
        );
    }
}
