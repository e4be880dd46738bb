//! Deterministic expansion of sweep axes into grid points.
//!
//! Expansion is the cartesian product of the (deduplicated) axes in a
//! fixed nesting order — the row order of `axis::AXES`, first row
//! outermost — so a scenario file always produces the same points in the
//! same order, point indices are stable across runs, and cardinality is
//! exactly the product of the axis lengths minus any combinations removed
//! by `[[exclude]]` rules (indices stay dense after exclusion).
//!
//! | axis (nesting order) | type | default | accepted in |
//! |---|---|---|---|
//! | `topology` | string | required | `[sweep]` `[quick]` `[[exclude]]` `group_by` |
//! | `model` | string | required | `[workload]` `[quick]` `[[exclude]]` `group_by` |
//! | `without_links` | count or `"id+id"` | `0` | `[sweep]` `[quick]` `[[exclude]]` `group_by` |
//! | `link` | `{ alpha_us, bandwidth_gbps }` | `0.5`, `50.0` | `[sweep]` `[quick]` `group_by` |
//! | `collective` | string | `all-reduce` | `[sweep]` `[quick]` `[[exclude]]` `group_by` |
//! | `size` | string | `64MB` | `[sweep]` `[quick]` `[[exclude]]` `group_by` |
//! | `chunks` | integer | `1` | `[sweep]` (also `synth.`) `[quick]` `[[exclude]]` `group_by` |
//! | `algo` | string | `tacos` | `[sweep]` `[quick]` `[[exclude]]` |
//! | `seed` | integer | `42` | `[sweep]` (also `synth.`) `[quick]` `[[exclude]]` `group_by` |
//! | `attempts` | integer | `1` | `[sweep]` (also `synth.`) `[quick]` `[[exclude]]` `group_by` |
//! | `prefer_cheap_links` | boolean | `true` | `[sweep] synth` `[quick] synth` `[[exclude]]` `group_by` |
//!
//! Training scenarios (`[workload]`) carry no `collective`/`size` values
//! (gradient collectives come from the model) and reject both axes
//! everywhere. Of the orders an axis list can appear in, two are
//! contract: this nesting order (point indices follow it) and the CSV
//! identity-column order (topology, model, collective, size, size_bytes,
//! chunks, algo, seed, attempts, prefer_cheap_links, without_links,
//! alpha_us, link_gbps). The default `group_by` order is not: no output
//! shows it.

use std::borrow::Cow;
use std::fmt;

use tacos_topology::ByteSize;

use crate::axis::AXES;
use crate::error::ScenarioError;
use crate::spec::{LinkAxis, ScenarioSpec, WithoutLinks};

/// One fully instantiated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    /// Stable index in expansion order.
    pub index: usize,
    /// Topology spec string (`mesh:3x3`, `custom:<name>`, ...).
    pub topology: String,
    /// Workload-model token for training scenarios; `None` for
    /// bandwidth points.
    pub model: Option<String>,
    /// Link parameters for homogeneous constructors.
    pub link: LinkAxis,
    /// Collective pattern name (`all-reduce` on training points — the
    /// gradient collectives' pattern).
    pub collective: String,
    /// Human-readable size label, as written in the scenario file
    /// (empty on training points: volumes come from the model).
    pub size_label: String,
    /// Parsed collective size (zero on training points).
    pub size: ByteSize,
    /// Chunking factor per NPU.
    pub chunks: usize,
    /// Algorithm name (`tacos` or a baseline).
    pub algo: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Best-of-N attempts.
    pub attempts: usize,
    /// Low-cost-link prioritization for synthesized points.
    pub prefer_cheap_links: bool,
    /// Failure-injection value: links killed before running the point.
    pub without_links: WithoutLinks,
}

impl ScenarioPoint {
    /// Whether the link axis shapes this point's topology (builder-described
    /// `custom:` networks carry their own per-link specs instead).
    pub fn uses_link_axis(&self) -> bool {
        !self.topology.starts_with("custom:")
    }

    /// A compact display label (used in progress lines and CSV rows).
    /// Includes every axis that distinguishes the point, so labels are
    /// unique across a grid; the failure axis only appears when links
    /// are actually killed, the prioritization marker only when it is
    /// off, and training points show their model instead of a
    /// collective/size pair.
    pub fn label(&self) -> String {
        let link = if self.uses_link_axis() {
            format!("/{}", self.link)
        } else {
            String::new()
        };
        let failures = if self.without_links.is_healthy() {
            String::new()
        } else {
            format!("/f{}", self.without_links)
        };
        let payload = match &self.model {
            Some(model) => format!("m:{model}"),
            None => format!("{}/{}", self.collective, self.size_label),
        };
        let cheap = if self.prefer_cheap_links { "" } else { "/nopc" };
        format!(
            "{}{failures}{link}/{payload}/c{}/{}/s{}/a{}{cheap}",
            self.topology, self.chunks, self.algo, self.seed, self.attempts
        )
    }
}

impl fmt::Display for ScenarioPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Expands a scenario's sweep axes into the full, ordered point list,
/// dropping combinations matched by the spec's `[[exclude]]` rules.
///
/// # Errors
/// Returns a spec error if an axis value cannot be placed on a point (a
/// size string that fails to parse — normally caught at spec validation
/// already) or if the exclusion rules remove every point.
pub fn expand(spec: &ScenarioSpec) -> Result<Vec<ScenarioPoint>, ScenarioError> {
    let evaluation = &spec.evaluation;
    let mut sweep = Cow::Borrowed(&spec.sweep);
    if evaluation.is_training() {
        // The model decides these axes: one fixed value each.
        for fix in AXES.iter().filter_map(|axis| axis.under_workload) {
            fix(sweep.to_mut());
        }
    }
    let labels: Vec<_> = AXES
        .iter()
        .map(|axis| (axis.labels)(&sweep, evaluation))
        .collect();
    // Each rule, resolved against the table: the constrained axis's row
    // and the labels that match.
    let row_of = |name: &str| {
        let row = AXES.iter().position(|axis| axis.name == name);
        row.expect("rules constrain table axes")
    };
    let rules: Vec<Vec<_>> = spec
        .excludes
        .iter()
        .map(|rule| rule.iter().map(|c| (row_of(c.axis), &c.labels)).collect())
        .collect();
    let cardinality: usize = labels.iter().map(Vec::len).product();
    let mut points = Vec::with_capacity(cardinality);
    for combination in 0..cardinality {
        // Mixed radix, last axis fastest: this combination's value
        // position on each axis.
        let mut rest = combination;
        let mut chosen = [0; AXES.len()];
        for row in (0..AXES.len()).rev() {
            chosen[row] = rest % labels[row].len();
            rest /= labels[row].len();
        }
        let excluded = |rule: &Vec<(usize, &Vec<String>)>| {
            rule.iter()
                .all(|(row, matching)| matching.contains(&labels[*row][chosen[*row]]))
        };
        if rules.iter().any(excluded) {
            continue;
        }
        let mut point = ScenarioPoint {
            index: points.len(),
            topology: String::new(),
            model: None,
            link: LinkAxis::default_paper(),
            collective: String::new(),
            size_label: String::new(),
            size: ByteSize::ZERO,
            chunks: 0,
            algo: String::new(),
            seed: 0,
            attempts: 0,
            prefer_cheap_links: true,
            without_links: WithoutLinks::Count(0),
        };
        for (axis, position) in AXES.iter().zip(chosen) {
            (axis.place)(&mut point, &sweep, evaluation, position).map_err(ScenarioError::spec)?;
        }
        points.push(point);
    }
    if points.is_empty() {
        return Err(ScenarioError::spec(
            "the [[exclude]] rules remove every grid point",
        ));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn spec(sweep: &str) -> ScenarioSpec {
        ScenarioSpec::from_toml_str(&format!("[scenario]\nname = \"g\"\n[sweep]\n{sweep}\n"))
            .unwrap()
    }

    #[test]
    fn cardinality_is_product_of_axis_lengths() {
        let s = spec(
            "topology = [\"ring:4\", \"mesh:2x2\"]\n\
             collective = [\"all-gather\", \"all-reduce\"]\n\
             size = [\"1MB\", \"4MB\", \"16MB\"]\n\
             algo = [\"tacos\", \"ring\"]\n\
             seed = [1, 2]",
        );
        let points = expand(&s).unwrap();
        assert_eq!(points.len(), 2 * 2 * 3 * 2 * 2);
        // Indices are dense and ordered.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn expansion_is_deterministic_and_duplicate_free() {
        let s =
            spec("topology = [\"ring:4\", \"fc:3\"]\nsize = [\"1MB\", \"2MB\"]\nseed = [5, 6, 7]");
        let a = expand(&s).unwrap();
        let b = expand(&s).unwrap();
        assert_eq!(a, b);
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i].label(), a[j].label(), "duplicate point at {i}/{j}");
            }
        }
    }

    #[test]
    fn link_axis_points_have_distinct_labels() {
        let s = spec(
            "topology = [\"ring:4\"]\n\
             link = [\n\
                 { alpha_us = 0.5, bandwidth_gbps = 50.0 },\n\
                 { alpha_us = 0.5, bandwidth_gbps = 100.0 },\n\
             ]",
        );
        let points = expand(&s).unwrap();
        assert_eq!(points.len(), 2);
        assert_ne!(points[0].label(), points[1].label());
        assert!(
            points[0].label().contains("50GBps"),
            "got {}",
            points[0].label()
        );
    }

    #[test]
    fn exclude_rules_drop_combinations_and_keep_indices_dense() {
        let s = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "g"
[sweep]
topology = ["ring:4", "mesh:2x2"]
algo = ["tacos", "taccl"]
[[exclude]]
topology = "mesh:2x2"
algo = "taccl"
"#,
        )
        .unwrap();
        let points = expand(&s).unwrap();
        assert_eq!(points.len(), 3, "2x2 grid minus one excluded combo");
        assert!(!points
            .iter()
            .any(|p| p.topology == "mesh:2x2" && p.algo == "taccl"));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i, "indices stay dense after exclusion");
        }
    }

    #[test]
    fn excluding_every_point_is_an_error() {
        let s = ScenarioSpec::from_toml_str(
            r#"
[scenario]
name = "g"
[sweep]
topology = ["ring:4"]
[[exclude]]
topology = "ring:4"
"#,
        )
        .unwrap();
        let err = expand(&s).unwrap_err().to_string();
        assert!(err.contains("remove every grid point"), "got: {err}");
    }

    #[test]
    fn axis_order_is_stable() {
        let s = spec(
            "topology = [\"ring:4\"]\nsize = [\"1MB\", \"2MB\"]\nalgo = [\"tacos\", \"ring\"]",
        );
        let labels: Vec<String> = expand(&s).unwrap().iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            [
                "ring:4/a0.5us-50GBps/all-reduce/1MB/c1/tacos/s42/a1",
                "ring:4/a0.5us-50GBps/all-reduce/1MB/c1/ring/s42/a1",
                "ring:4/a0.5us-50GBps/all-reduce/2MB/c1/tacos/s42/a1",
                "ring:4/a0.5us-50GBps/all-reduce/2MB/c1/ring/s42/a1",
            ]
        );
    }
}
