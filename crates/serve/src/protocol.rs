//! The `tacos serve` wire protocol: one JSON object per line in each
//! direction.
//!
//! Requests reuse the evaluation layer's spec vocabulary wholesale — the
//! `topology`, `collective`, `size`, and `mechanism` fields accept
//! exactly the strings a scenario TOML accepts (`mesh:8x8`,
//! `all-reduce`, `64MB`, `tacos:chunks=4`), so a request is a scenario
//! point that arrives over a socket instead of a grid. Responses carry a
//! `status` discriminant (`ok`, `rejected`, `deadline`, `error`, plus
//! the control-op acknowledgements) and `ok` payloads report the same
//! metrics a scenario CSV row would.

use std::hash::{Hash, Hasher};

use tacos_report::Json;
use tacos_topology::LinkAxis;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Synthesize (or serve from cache) one collective algorithm.
    Synthesize,
    /// Report the daemon's counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Persist the warm cache to the cache directory now.
    Checkpoint,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: Option<u64>,
    /// The operation; defaults to [`Op::Synthesize`].
    pub op: Op,
    /// What to synthesize: every field the answer's content depends on.
    pub shape: Shape,
    /// Per-request deadline in milliseconds; `None` falls back to the
    /// daemon's `--deadline-ms` default (if any).
    pub deadline_ms: Option<u64>,
    /// Whether the `ok` response should embed the algorithm in the
    /// compact text format.
    pub include_algorithm: bool,
}

/// The fields of a synthesize request that decide *which* algorithm
/// answers it — its cache key, or its ideal time — as opposed to how the
/// answer is delivered (`id`, `deadline_ms`, `include_algorithm`). Two
/// requests with equal shapes resolve to the same key, which is what
/// lets the daemon resolve each shape once and look repeats up by it.
///
/// Equality and hashing compare the link's two floats by bit pattern, so
/// the relation is total (`NaN == NaN`, `0.0 != -0.0`): a shape is the
/// request as spelled, not as interpreted.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Topology spec (`mesh:3x3`, `ring:8`, ... — the scenario
    /// vocabulary). Required for synthesize requests.
    pub topology: String,
    /// Collective pattern name. Defaults to `all-reduce`.
    pub collective: String,
    /// Collective size label (`64MB`, `1.5GB`, ...). Defaults to `64MB`.
    pub size: String,
    /// Mechanism spec for [`tacos_workload::Mechanism::parse`].
    /// Defaults to `tacos`.
    pub mechanism: String,
    /// Chunking factor per NPU. Defaults to 1.
    pub chunks: usize,
    /// Link parameters for homogeneous topology constructors.
    pub link: LinkAxis,
    /// Synthesizer seed override.
    pub seed: Option<u64>,
    /// Best-of-N attempts override.
    pub attempts: Option<usize>,
    /// Low-cost-link prioritization override.
    pub prefer_cheap_links: Option<bool>,
}

impl Shape {
    /// Every field as a value with derived `Eq` and `Hash`. The
    /// destructuring is exhaustive on purpose: a new field does not
    /// compile until it is compared and hashed here.
    fn identity(&self) -> impl Eq + Hash + '_ {
        let Shape {
            topology,
            collective,
            size,
            mechanism,
            chunks,
            link: LinkAxis {
                alpha_us,
                bandwidth_gbps,
            },
            seed,
            attempts,
            prefer_cheap_links,
        } = self;
        (
            topology,
            collective,
            size,
            mechanism,
            chunks,
            alpha_us.to_bits(),
            bandwidth_gbps.to_bits(),
            seed,
            attempts,
            prefer_cheap_links,
        )
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: None,
            op: Op::Synthesize,
            shape: Shape {
                topology: String::new(),
                collective: "all-reduce".into(),
                size: "64MB".into(),
                mechanism: "tacos".into(),
                chunks: 1,
                link: LinkAxis::default_paper(),
                seed: None,
                attempts: None,
                prefer_cheap_links: None,
            },
            deadline_ms: None,
            include_algorithm: false,
        }
    }
}

impl Request {
    /// Parses one request line. Unknown fields are rejected — a typoed
    /// key silently falling back to a default would serve the wrong
    /// algorithm, so the protocol is strict.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = Json::parse(line)?;
        let obj = value
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        let mut req = Request::default();
        let shape = &mut req.shape;
        for (key, field) in obj {
            match key.as_str() {
                "id" => {
                    req.id = Some(
                        field
                            .as_u64()
                            .ok_or("'id' must be a non-negative integer")?,
                    )
                }
                "op" => {
                    let op = field.as_str().ok_or("'op' must be a string")?;
                    req.op = match op {
                        "synthesize" => Op::Synthesize,
                        "stats" => Op::Stats,
                        "ping" => Op::Ping,
                        "checkpoint" => Op::Checkpoint,
                        "shutdown" => Op::Shutdown,
                        other => return Err(format!("unknown op '{other}'")),
                    };
                }
                "topology" => {
                    shape.topology = field.as_str().ok_or("'topology' must be a string")?.into()
                }
                "collective" => {
                    shape.collective = field
                        .as_str()
                        .ok_or("'collective' must be a string")?
                        .into()
                }
                "size" => shape.size = field.as_str().ok_or("'size' must be a string")?.into(),
                "mechanism" => {
                    shape.mechanism = field.as_str().ok_or("'mechanism' must be a string")?.into()
                }
                "chunks" => {
                    let v = field
                        .as_u64()
                        .ok_or("'chunks' must be a positive integer")?;
                    if v == 0 {
                        return Err("'chunks' must be >= 1".into());
                    }
                    shape.chunks = v as usize;
                }
                "alpha_us" => {
                    shape.link.alpha_us = field.as_f64().ok_or("'alpha_us' must be a number")?
                }
                "link_gbps" => {
                    shape.link.bandwidth_gbps =
                        field.as_f64().ok_or("'link_gbps' must be a number")?
                }
                "seed" => shape.seed = Some(field.as_u64().ok_or("'seed' must be an integer")?),
                "attempts" => {
                    let v = field
                        .as_u64()
                        .ok_or("'attempts' must be a positive integer")?;
                    if v == 0 {
                        return Err("'attempts' must be >= 1".into());
                    }
                    shape.attempts = Some(v as usize);
                }
                "prefer_cheap_links" => {
                    shape.prefer_cheap_links = Some(
                        field
                            .as_bool()
                            .ok_or("'prefer_cheap_links' must be a bool")?,
                    )
                }
                "deadline_ms" => {
                    req.deadline_ms =
                        Some(field.as_u64().ok_or("'deadline_ms' must be an integer")?)
                }
                "include_algorithm" => {
                    req.include_algorithm = field
                        .as_bool()
                        .ok_or("'include_algorithm' must be a bool")?
                }
                other => return Err(format!("unknown request field '{other}'")),
            }
        }
        if req.op == Op::Synthesize && req.shape.topology.is_empty() {
            return Err("synthesize requests need a 'topology'".into());
        }
        Ok(req)
    }
}

/// The metrics payload of a successful synthesize response.
#[derive(Debug, Clone)]
pub struct OkBody {
    /// Whether the algorithm came from the warm cache.
    pub cache_hit: bool,
    /// Whether this request piggybacked on another request's in-flight
    /// synthesis (single-flight deduplication).
    pub deduplicated: bool,
    /// Collective completion time in picoseconds.
    pub collective_time_ps: u64,
    /// Achieved algorithmic bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Time this request spent waiting for synthesis, in milliseconds
    /// (zero on warm hits).
    pub synthesis_ms: f64,
    /// Number of chunk transfers in the schedule (zero for `ideal`).
    pub transfers: u64,
    /// NPU count of the topology the request named.
    pub num_npus: u64,
    /// The mechanism family that produced the algorithm.
    pub algorithm: String,
    /// The schedule in the compact text format, when requested.
    pub algorithm_compact: Option<String>,
}

/// Counter snapshot returned by the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsBody {
    /// Total requests accepted (all ops).
    pub requests: u64,
    /// Synthesize requests answered from the warm cache.
    pub cache_hits: u64,
    /// Syntheses actually executed by the worker pool.
    pub synthesized: u64,
    /// Requests that piggybacked on an in-flight synthesis.
    pub deduplicated: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests whose deadline expired while synthesis continued.
    pub deadline_expired: u64,
    /// Requests answered with an `error` status.
    pub errors: u64,
    /// Worker threads respawned after a synthesis panic killed one.
    pub worker_restarts: u64,
    /// Warm-cache checkpoints completed (periodic + `checkpoint` ops +
    /// the shutdown persist).
    pub checkpoints: u64,
    /// Entries currently in the warm cache.
    pub warm_entries: u64,
    /// Entries evicted to stay under the warm-cache caps so far
    /// (including entries trimmed while reloading a snapshot).
    pub evictions: u64,
    /// Approximate bytes of the resident warm-cache set.
    pub resident_bytes: u64,
    /// Request shapes currently held in the resolved-shape table (never
    /// more than [`crate::MAX_RESOLVED_SHAPES`]; 0 after a restart —
    /// snapshots store cache keys, not shapes).
    pub resolved_shapes: u64,
    /// Synthesize requests whose shape was found in that table, so the
    /// topology was not built nor the key derived for them. At most
    /// `requests`; a hit whose warm entry had been evicted counts here
    /// and not in `cache_hits`.
    pub resolve_hits: u64,
}

/// One response line.
#[derive(Debug, Clone)]
pub enum Response {
    /// Successful synthesize result.
    Ok(Option<u64>, OkBody),
    /// Admission control refused the request (queue full or connection
    /// cap); carries a retry-after hint in milliseconds.
    Rejected(Option<u64>, u64, String),
    /// The deadline expired; synthesis continues and will warm the cache.
    Deadline(Option<u64>, String),
    /// The request was malformed or the synthesis failed.
    Error(Option<u64>, String),
    /// Counter snapshot.
    Stats(Option<u64>, StatsBody),
    /// Liveness acknowledgement.
    Pong(Option<u64>),
    /// Warm cache persisted; carries the entry count written.
    Checkpointed(Option<u64>, u64),
    /// Shutdown acknowledged.
    ShuttingDown(Option<u64>),
}

impl Response {
    /// Encodes the response as one newline-terminated JSON line.
    pub fn line(&self) -> String {
        let mut s = self.to_json().to_string();
        s.push('\n');
        s
    }

    /// The response as a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let (id, mut pairs) = match self {
            Response::Ok(id, body) => {
                let mut pairs = vec![
                    ("status", "ok".into()),
                    ("cache_hit", Json::Bool(body.cache_hit)),
                    ("deduplicated", Json::Bool(body.deduplicated)),
                    ("collective_time_ps", body.collective_time_ps.into()),
                    ("bandwidth_gbps", body.bandwidth_gbps.into()),
                    ("synthesis_ms", body.synthesis_ms.into()),
                    ("transfers", body.transfers.into()),
                    ("num_npus", body.num_npus.into()),
                    ("algorithm", body.algorithm.as_str().into()),
                ];
                if let Some(compact) = &body.algorithm_compact {
                    pairs.push(("algorithm_compact", compact.as_str().into()));
                }
                (*id, pairs)
            }
            Response::Rejected(id, retry_after_ms, reason) => (
                *id,
                vec![
                    ("status", "rejected".into()),
                    ("retry_after_ms", (*retry_after_ms).into()),
                    ("reason", reason.as_str().into()),
                ],
            ),
            Response::Deadline(id, reason) => (
                *id,
                vec![
                    ("status", "deadline".into()),
                    ("reason", reason.as_str().into()),
                ],
            ),
            Response::Error(id, reason) => (
                *id,
                vec![
                    ("status", "error".into()),
                    ("reason", reason.as_str().into()),
                ],
            ),
            Response::Stats(id, s) => (
                *id,
                vec![
                    ("status", "stats".into()),
                    ("requests", s.requests.into()),
                    ("cache_hits", s.cache_hits.into()),
                    ("synthesized", s.synthesized.into()),
                    ("deduplicated", s.deduplicated.into()),
                    ("rejected", s.rejected.into()),
                    ("deadline_expired", s.deadline_expired.into()),
                    ("errors", s.errors.into()),
                    ("worker_restarts", s.worker_restarts.into()),
                    ("checkpoints", s.checkpoints.into()),
                    ("warm_entries", s.warm_entries.into()),
                    ("evictions", s.evictions.into()),
                    ("resident_bytes", s.resident_bytes.into()),
                    ("resolved_shapes", s.resolved_shapes.into()),
                    ("resolve_hits", s.resolve_hits.into()),
                ],
            ),
            Response::Pong(id) => (*id, vec![("status", "pong".into())]),
            Response::Checkpointed(id, entries) => (
                *id,
                vec![
                    ("status", "checkpointed".into()),
                    ("entries", (*entries).into()),
                ],
            ),
            Response::ShuttingDown(id) => (*id, vec![("status", "shutting_down".into())]),
        };
        if let Some(id) = id {
            pairs.insert(0, ("id", id.into()));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_fills_defaults() {
        let req = Request::parse(r#"{"topology":"mesh:3x3"}"#).unwrap();
        assert_eq!(req.op, Op::Synthesize);
        assert_eq!(req.shape.topology, "mesh:3x3");
        assert_eq!(req.shape.collective, "all-reduce");
        assert_eq!(req.shape.size, "64MB");
        assert_eq!(req.shape.mechanism, "tacos");
        assert_eq!(req.shape.chunks, 1);
        assert_eq!(req.shape.link.alpha_us, 0.5);
        assert_eq!(req.shape.link.bandwidth_gbps, 50.0);
        assert!(req.deadline_ms.is_none());
    }

    #[test]
    fn full_request_parses() {
        let req = Request::parse(
            r#"{"id":7,"topology":"ring:8","collective":"all-gather","size":"1.5GB",
                "mechanism":"tacos:chunks=4","chunks":2,"alpha_us":1.0,"link_gbps":25.0,
                "seed":9,"attempts":4,"prefer_cheap_links":false,"deadline_ms":500,
                "include_algorithm":true}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(7));
        assert_eq!(req.shape.mechanism, "tacos:chunks=4");
        assert_eq!(req.shape.seed, Some(9));
        assert_eq!(req.shape.attempts, Some(4));
        assert_eq!(req.shape.prefer_cheap_links, Some(false));
        assert_eq!(req.deadline_ms, Some(500));
        assert!(req.include_algorithm);
    }

    #[test]
    fn control_ops_do_not_need_a_topology() {
        for op in ["stats", "ping", "checkpoint", "shutdown"] {
            let req = Request::parse(&format!("{{\"op\":\"{op}\"}}")).unwrap();
            assert_ne!(req.op, Op::Synthesize);
        }
    }

    #[test]
    fn bad_requests_are_readable_errors() {
        for (line, needle) in [
            ("{}", "topology"),
            (r#"{"op":"fry"}"#, "unknown op"),
            (r#"{"toplogy":"mesh:3x3"}"#, "unknown request field"),
            (r#"{"topology":"mesh:3x3","chunks":0}"#, "chunks"),
            (r#"{"topology":"mesh:3x3","id":"x"}"#, "id"),
            ("[1,2]", "object"),
            ("not json", "byte"),
            (
                r#"{"topology":"ring:4","topology":"ring:8","size":"1MB"}"#,
                "duplicate field 'topology'",
            ),
            (r#"{"op":"ping","id":1,"id":1}"#, "duplicate field 'id'"),
            // 2^64 is not a u64, and must not be read as u64::MAX.
            (
                r#"{"topology":"ring:4","seed":18446744073709551616}"#,
                "'seed' must be an integer",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "'{line}' gave '{err}'");
        }
    }

    #[test]
    fn shapes_compare_by_what_was_asked_not_how() {
        use std::collections::HashSet;
        let shape = |line: &str| Request::parse(line).unwrap().shape;
        let base = shape(r#"{"topology":"ring:8","seed":3}"#);
        // Delivery fields and key order are not part of the shape; a
        // default spelled out is the default.
        for same in [
            r#"{"seed":3,"topology":"ring:8","id":9,"deadline_ms":5,"include_algorithm":true}"#,
            r#"{"topology":"ring:8","seed":3,"chunks":1,"size":"64MB","alpha_us":0.5}"#,
        ] {
            assert_eq!(shape(same), base, "{same}");
        }
        let mut seen = HashSet::from([base]);
        for different in [
            r#"{"topology":"ring:9","seed":3}"#,
            r#"{"topology":"ring:8","seed":3,"collective":"all-gather"}"#,
            r#"{"topology":"ring:8","seed":3,"size":"1MB"}"#,
            r#"{"topology":"ring:8","seed":3,"mechanism":"ring"}"#,
            r#"{"topology":"ring:8","seed":3,"chunks":2}"#,
            r#"{"topology":"ring:8","seed":3,"alpha_us":0.25}"#,
            r#"{"topology":"ring:8","seed":3,"link_gbps":25}"#,
            r#"{"topology":"ring:8","seed":4}"#,
            r#"{"topology":"ring:8"}"#,
            r#"{"topology":"ring:8","seed":3,"attempts":1}"#,
            r#"{"topology":"ring:8","seed":3,"prefer_cheap_links":true}"#,
        ] {
            assert!(seen.insert(shape(different)), "{different}");
        }
        // By bits: a NaN link is rejected later, but must not break the
        // table's `Eq` on the way there.
        let mut nan = shape(r#"{"topology":"ring:8"}"#);
        nan.link.alpha_us = f64::NAN;
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let ok = Response::Ok(
            Some(3),
            OkBody {
                cache_hit: true,
                deduplicated: false,
                collective_time_ps: 123,
                bandwidth_gbps: 42.5,
                synthesis_ms: 0.0,
                transfers: 9,
                num_npus: 9,
                algorithm: "tacos".into(),
                algorithm_compact: None,
            },
        );
        let line = ok.line();
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        let parsed = Json::parse(line.trim()).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(parsed.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("cache_hit").unwrap().as_bool(), Some(true));

        let rej = Response::Rejected(None, 100, "queue full (depth 4)".into());
        let parsed = Json::parse(rej.line().trim()).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("rejected"));
        assert_eq!(parsed.get("retry_after_ms").unwrap().as_u64(), Some(100));
        assert!(parsed.get("id").is_none());
    }
}
