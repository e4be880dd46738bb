//! The five workloads. Names are stable; later issues cite them.

mod grid_resume;
mod serve;
mod synth_hetero;
mod synth_scale;

use tacos_scenario::toml::{self, Table, Value};

use crate::harness::{RunArgs, Workload};

pub use serve::populate;

pub const NAMES: [&str; 5] = [
    "synth_scale",
    "synth_hetero",
    "grid_resume",
    "serve_hits",
    "serve_churn",
];

pub fn build(args: &RunArgs) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "grid_resume" => Box::new(grid_resume::GridResume::new(args)?),
        "serve_hits" => Box::new(serve::Serve::hits(args)?),
        "serve_churn" => Box::new(serve::Serve::churn(args)?),
        "synth_hetero" => Box::new(synth_hetero::SynthHetero::new(args)?),
        "synth_scale" => Box::new(synth_scale::SynthScale::new(args)?),
        other => return Err(format!("unknown workload '{other}' (one of {NAMES:?})")),
    })
}

/// A workload file (`bench/workloads/*.toml`), compiled into the binary.
pub(crate) fn parse_file(name: &str, text: &str) -> Result<Table, String> {
    toml::parse(text).map_err(|e| format!("workloads/{name}.toml: {e}"))
}

pub(crate) fn get_str<'a>(table: &'a Table, key: &str) -> Result<&'a str, String> {
    table
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("workload file: '{key}' must be a string"))
}

pub(crate) fn get_usize(table: &Table, key: &str) -> Result<usize, String> {
    table
        .get(key)
        .and_then(Value::as_int)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("workload file: '{key}' must be a non-negative integer"))
}

pub(crate) fn get_tables<'a>(table: &'a Table, key: &str) -> Result<Vec<&'a Table>, String> {
    table
        .get(key)
        .and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_table).collect())
        .ok_or_else(|| format!("workload file: '{key}' must be an array of tables"))
}

pub(crate) fn get_strs(table: &Table, key: &str) -> Result<Vec<String>, String> {
    table
        .get(key)
        .and_then(Value::as_array)
        .and_then(|items| {
            items
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .ok_or_else(|| format!("workload file: '{key}' must be an array of strings"))
}
