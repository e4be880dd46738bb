//! The metric vocabulary: names, units, bounds, and how each per-layer
//! metric is read off the trace. `BENCHMARK.json` lists the same names
//! (a unit test keeps the two in step).

use crate::trace::Tracer;

/// An end-to-end metric; all are lower-is-better.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// across runs with different seeds.
    pub bound: f64,
    /// The same for `bench aa`, where both sets use the same seeds and
    /// schedule quality must repeat exactly.
    pub aa_bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        aa_bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.20,
        aa_bound: 0.20,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        bound: 0.20,
        aa_bound: 0.20,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        bound: 0.20,
        aa_bound: 0.20,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.20,
        aa_bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.20,
        aa_bound: 0.20,
    },
    EndToEnd {
        name: "collective_time_us",
        unit: "us",
        bound: 0.02,
        aa_bound: 0.0,
    },
    EndToEnd {
        name: "ideal_ratio",
        unit: "ratio",
        bound: 0.02,
        aa_bound: 1e-9,
    },
];

/// How a per-layer metric is derived from spans and counts.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Mean duration of the named span, in the unit the metric name ends
    /// with (`_us` / `_ms`).
    Mean(&'static str),
    /// Number of spans with that name.
    Spans(&'static str),
    /// A named count.
    Count(&'static str),
    /// Total nanoseconds in a span per unit of a count.
    NsPer(&'static str, &'static str),
    /// One count over another, times a scale.
    Ratio(&'static str, &'static str, f64),
    /// Computed in [`per_layer`].
    Special,
}

use Source::{Count, Mean, NsPer, Ratio, Spans, Special};

const PER_LAYER: [(&str, &str, Source); 66] = [
    ("topology.build_us", "us", Mean("topology.build")),
    ("topology.builds", "count", Spans("topology.build")),
    ("collective.build_us", "us", Mean("collective.build")),
    ("collective.encode_ms", "ms", Mean("collective.encode")),
    ("collective.decode_ms", "ms", Mean("collective.decode")),
    (
        "collective.encoded_bytes",
        "count",
        Count("collective.encoded_bytes"),
    ),
    ("ten.replay_ms", "ms", Mean("ten.replay")),
    ("ten.events", "count", Count("ten.events")),
    ("ten.ns_per_event", "ns", NsPer("ten.replay", "ten.events")),
    ("core.key_us", "us", Mean("core.key")),
    ("core.synthesize_ms", "ms", Mean("core.synthesize")),
    ("core.transfers", "count", Count("core.transfers")),
    ("core.rounds", "count", Count("core.rounds")),
    (
        "core.ns_per_transfer",
        "ns",
        NsPer("core.synthesize", "core.transfers"),
    ),
    ("core.attempts", "count", Count("core.attempts")),
    (
        "core.attempts_kept_share",
        "ratio",
        Ratio("core.attempts_kept", "core.attempts", 1.0),
    ),
    ("core.cache_store_ms", "ms", Mean("core.cache_store")),
    ("core.cache_load_ms", "ms", Mean("core.cache_load")),
    ("core.cache_hits", "count", Count("core.cache_hits")),
    ("core.cache_misses", "count", Count("core.cache_misses")),
    ("core.warm_get_us", "us", Mean("core.warm_get")),
    ("core.warm_insert_us", "us", Mean("core.warm_insert")),
    ("core.warm_save_ms", "ms", Mean("core.warm_save")),
    ("core.warm_load_ms", "ms", Mean("core.warm_load")),
    (
        "core.warm_snapshot_bytes",
        "count",
        Count("core.warm_snapshot_bytes"),
    ),
    ("sim.simulate_ms", "ms", Mean("sim.simulate")),
    ("sim.messages", "count", Count("sim.messages")),
    (
        "sim.ns_per_message",
        "ns",
        NsPer("sim.simulate", "sim.messages"),
    ),
    ("sim.plan_mismatches", "count", Count("sim.plan_mismatches")),
    ("baselines.generate_ms", "ms", Mean("baselines.generate")),
    ("baselines.generated", "count", Spans("baselines.generate")),
    ("baselines.ideal_us", "us", Mean("baselines.ideal")),
    (
        "workload.mechanism_parse_us",
        "us",
        Mean("workload.mechanism_parse"),
    ),
    (
        "workload.training_eval_ms",
        "ms",
        Mean("workload.training_eval"),
    ),
    ("scenario.parse_ms", "ms", Mean("scenario.parse")),
    ("scenario.expand_us", "us", Mean("scenario.expand")),
    ("scenario.points", "count", Count("scenario.points")),
    ("scenario.run_ms", "ms", Mean("scenario.run")),
    (
        "scenario.residual_ms",
        "ms",
        Ratio("scenario.residual_ns", "scenario.replays", 1e-6),
    ),
    ("report.json_parse_us", "us", Mean("report.json_parse")),
    ("report.json_encode_us", "us", Mean("report.json_encode")),
    ("serve.startup_ms", "ms", Mean("serve.startup")),
    ("serve.reload_ms", "ms", Mean("serve.reload")),
    ("serve.shutdown_ms", "ms", Mean("serve.shutdown")),
    ("serve.request_parse_us", "us", Mean("serve.request_parse")),
    ("serve.connect_ms", "ms", Mean("serve.connect")),
    ("serve.rt_ping_us", "us", Mean("serve.rt_ping")),
    ("serve.rt_hit_us", "us", Mean("serve.rt_hit")),
    ("serve.rt_hit_large_us", "us", Mean("serve.rt_hit_large")),
    ("serve.rt_miss_ms", "ms", Mean("serve.rt_miss")),
    ("serve.rt_dedup_ms", "ms", Mean("serve.rt_dedup")),
    ("serve.rt_ideal_us", "us", Mean("serve.rt_ideal")),
    ("serve.rt_checkpoint_ms", "ms", Mean("serve.rt_checkpoint")),
    ("serve.hit_overhead_us", "us", Special),
    ("serve.requests", "count", Count("serve.requests")),
    ("serve.cache_hits", "count", Count("serve.cache_hits")),
    ("serve.synthesized", "count", Count("serve.synthesized")),
    ("serve.deduplicated", "count", Count("serve.deduplicated")),
    ("serve.rejected", "count", Count("serve.rejected")),
    ("serve.evictions", "count", Count("serve.evictions")),
    ("serve.warm_entries", "count", Count("serve.warm_entries")),
    (
        "serve.resident_bytes",
        "count",
        Count("serve.resident_bytes"),
    ),
    (
        "serve.hit_ratio",
        "ratio",
        Ratio("serve.cache_hits", "serve.requests", 1.0),
    ),
    ("trace.overhead_pct", "%", Special),
    ("trace.cpu_overhead_pct", "%", Special),
    ("trace.coverage_pct", "%", Special),
];

/// Every per-layer metric, read off the trace. A layer the workload
/// never calls reads 0: no spans, no counts.
pub fn per_layer(
    tr: &Tracer,
    overhead_pct: f64,
    cpu_overhead_pct: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let spans = tr.aggregates();
    let total_ns = |name: &str| spans.get(name).map_or(0.0, |a| a.total_ns as f64);
    let count = |name: &str| spans.get(name).map_or(0.0, |a| a.count as f64);
    let over = |numerator: f64, denominator: f64| {
        if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        }
    };
    let mean = |span: &str, metric: &str| {
        let ns_per_unit = if metric.ends_with("_us") { 1e3 } else { 1e6 };
        over(total_ns(span), count(span)) / ns_per_unit
    };
    // Self time of every span inside an op over the ops' own time; on
    // concurrent workloads both are summed over the clients.
    let ops_ns = total_ns("op");
    let coverage_pct = if ops_ns > 0.0 {
        let op_self = spans.get("op").map_or(0.0, |a| a.self_ns as f64);
        (1.0 - op_self / ops_ns) * 100.0
    } else {
        0.0
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let value = match source {
                Mean(span) => mean(span, name),
                Spans(span) => count(span),
                Count(counter) => tr.counter(counter),
                NsPer(span, counter) => over(total_ns(span), tr.counter(counter)),
                Ratio(numerator, denominator, scale) => {
                    over(tr.counter(numerator), tr.counter(denominator)) * scale
                }
                Special => match name {
                    "serve.hit_overhead_us" => {
                        if count("serve.rt_hit") > 0.0 {
                            mean("serve.rt_hit", name) - mean("serve.rt_ping", name)
                        } else {
                            0.0
                        }
                    }
                    "trace.overhead_pct" => overhead_pct,
                    "trace.cpu_overhead_pct" => cpu_overhead_pct,
                    "trace.coverage_pct" => coverage_pct,
                    other => unreachable!("no derivation for {other}"),
                },
            };
            (name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_report::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// harness prints. Names, units and bounds must agree.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |section: &str| -> Vec<(String, String, Option<f64>)> {
            doc.get(section)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), Some(m.bound)))
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|(name, unit, _)| (name.to_string(), unit.to_string(), None))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.name == "setup_s" || m.bound < setup.bound));
        assert!(setup.bound <= 0.25);
    }
}
