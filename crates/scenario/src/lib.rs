//! # tacos-scenario
//!
//! The declarative scenario engine: evaluation campaigns as **data**, not
//! code.
//!
//! The TACOS paper evaluates the synthesizer over large grids of
//! (topology × collective × size × chunking × algorithm) points; this
//! repo's `tacos-bench` crate originally encoded each grid as a separate
//! hand-written binary. `tacos-scenario` replaces that pattern with TOML
//! scenario files (see `scenarios/` at the repo root):
//!
//! * [`ScenarioSpec`] — the parsed spec: a topology (any `Topology`
//!   constructor string, or a builder-described heterogeneous network
//!   under `[[topologies]]`), a collective pattern, and sweep axes
//!   (sizes, chunk counts, link specs, seeds, attempts, algorithms);
//! * [`expand`] — deterministic grid expansion: the cartesian product of
//!   the deduplicated axes, in a fixed order, with stable point indices;
//! * [`run`] — a work-stealing sharded runner that executes points across
//!   worker threads, routes every algorithm through
//!   [`tacos_core::AlgorithmCache`] so re-runs and overlapping grids are
//!   incremental, streams finished raw rows to a `<stem>.partial.csv`
//!   so killed runs keep their work, and writes CSV/JSON artifacts via
//!   `tacos-report`;
//! * [`ReportSettings`] — result shaping declared in `[report]`: metric
//!   column selection (per-link traffic stats, percent-of-ideal) and
//!   per-group normalization against a baseline algorithm
//!   (`normalize_over` / `group_by`), the layer that lets the paper's
//!   comparison figures (Fig. 1, Fig. 16, Table V) be plain scenario
//!   files.
//!
//! ```
//! use tacos_scenario::{expand, run, ScenarioSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut spec = ScenarioSpec::from_toml_str(r#"
//!     [scenario]
//!     name = "quick"
//!
//!     [sweep]
//!     topology = ["mesh:2x2"]
//!     collective = ["all-gather"]
//!     size = ["4MB"]
//!     algo = ["tacos", "ring"]
//!
//!     [run]
//!     cache = false
//! "#)?;
//! spec.run.quiet = true;
//! assert_eq!(expand(&spec)?.len(), 2);
//! let summary = run(&spec)?;
//! assert_eq!(summary.failed, 0);
//! # Ok(())
//! # }
//! ```
//!
//! The `tacos` CLI exposes this as `tacos scenario run <file.toml>` and
//! `tacos scenario expand <file.toml>` (a dry run listing the grid).

#![warn(missing_docs)]

mod axis;
mod diff;
mod error;
mod grid;
mod progress;
mod runner;
pub mod spec;
pub mod toml;

pub use diff::{diff_csv_files, diff_csv_texts, DiffReport};
pub use error::ScenarioError;
pub use grid::{expand, ScenarioPoint};
pub use progress::Progress;
pub use runner::{run, PointMetrics, PointRecord, RunSummary, INTERRUPTED, TIMED_OUT};
pub use spec::{
    parse_baseline, parse_pattern, parse_size, parse_topology, select_failed_links, CustomLink,
    CustomTopology, CustomTopologyBody, Evaluation, LinkAxis, ReportSettings, RunSettings,
    ScenarioSpec, SweepAxes, TimelineSettings, WithoutLinks, WorkloadSettings,
};
pub use tacos_workload::{Mechanism, Parallelism, SynthMechanism};
