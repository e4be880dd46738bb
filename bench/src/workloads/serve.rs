//! `serve_hits` and `serve_churn`: see `bench/workloads/serve_*.toml` for
//! why. Both drive an in-process `Daemon::spawn` on an ephemeral port
//! with closed-loop clients; they differ in the op (one request on a
//! persistent connection vs. one connect-8-requests-close session) and
//! in what set-up leaves in the daemon's cache.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use tacos_core::{SynthesisScratch, SynthesizerConfig, WarmCache, WarmLimits};
use tacos_report::Json;
use tacos_scenario::{parse_pattern, parse_size};
use tacos_serve::{Client, Daemon, DaemonConfig, DaemonHandle, Request, SNAPSHOT_FILE};
use tacos_workload::Workload as Model;

use super::{get_str, get_strs, get_tables, get_usize, parse_file};
use crate::eval::{self, Key};
use crate::gen::{scaled, Rng};
use crate::harness::{scratch_dir, Pass, Quality, RunArgs, Workload};
use crate::sys::Stopwatch;
use crate::trace::{Tracer, NONE};

/// One line sent to the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// A synthesize request for `keys[i]`.
    Request(usize),
    /// The `checkpoint` control op.
    Checkpoint,
    /// The `ping` control op: the protocol's floor.
    Ping,
}

/// An op is the steps one caller blocks on: a single request
/// (`serve_hits`) or a whole session (`serve_churn`).
type Op = Vec<Step>;

#[derive(Debug, Clone, PartialEq)]
struct ClientPlan {
    warmup: Vec<Op>,
    ops: Vec<Op>,
}

#[derive(Debug)]
struct Plan {
    workload: &'static str,
    keys: Vec<Key>,
    /// `keys[i]` is a 576-1024-NPU fabric (names its hit spans).
    large: Vec<bool>,
    clients: Vec<ClientPlan>,
    /// Whether a client keeps one connection for the whole pass or
    /// connects afresh for every op.
    persistent: bool,
    /// The measured daemon's `warm_limits.max_entries`; 0 is unbounded.
    max_entries: u64,
    /// Whether set-up fills the cache through a first daemon and starts
    /// the measured one from its snapshot.
    start_from_snapshot: bool,
}

/// `count` draws from `items`, as even as the count allows, in `rng` order.
fn deck(items: &[usize], count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut out: Vec<usize> = (0..count).map(|i| items[i % items.len()]).collect();
    rng.shuffle(&mut out);
    out
}

fn plan_hits(seed: u64, scale: f64) -> Result<Plan, String> {
    let doc = parse_file(
        "serve_hits",
        include_str!("../../workloads/serve_hits.toml"),
    )?;
    let mut rng = Rng::new(seed, "serve_hits");
    let size = get_str(&doc, "size")?;
    let mut keys = Vec::new();
    let mut large = Vec::new();
    // (share in percent, key indices) per class.
    let mut classes: Vec<(usize, Vec<usize>)> = Vec::new();
    for class in get_tables(&doc, "class")? {
        let mut members = Vec::new();
        for topology in get_strs(class, "topologies")? {
            for collective in get_strs(class, "collectives")? {
                members.push(keys.len());
                keys.push(Key {
                    topology: topology.clone(),
                    collective,
                    size: size.to_string(),
                    chunks: 1,
                    mechanism: get_str(class, "mechanism")?.to_string(),
                    seed: rng.synth_seed(),
                });
                large.push(get_str(class, "name")? == "large");
            }
        }
        classes.push((get_usize(class, "share")?, members));
    }
    if classes.iter().map(|(share, _)| share).sum::<usize>() != 100 {
        return Err("serve_hits: class shares must sum to 100".into());
    }
    let mixed = |count: usize, rng: &mut Rng| -> Vec<Op> {
        let mut requests: Vec<usize> = classes
            .iter()
            .flat_map(|(share, members)| deck(members, count * share / 100, rng))
            .collect();
        rng.shuffle(&mut requests);
        requests
            .into_iter()
            .map(|key| vec![Step::Request(key)])
            .collect()
    };
    let requests = scaled(get_usize(&doc, "requests_per_client")?, scale);
    let warmup = scaled(get_usize(&doc, "warmup_per_client")?, scale);
    let clients = (0..get_usize(&doc, "clients")?)
        .map(|_| ClientPlan {
            warmup: mixed(warmup, &mut rng),
            ops: mixed(requests, &mut rng),
        })
        .collect();
    Ok(Plan {
        workload: "serve_hits",
        keys,
        large,
        clients,
        persistent: true,
        max_entries: 0,
        start_from_snapshot: true,
    })
}

/// A job's 8 requests on `topology`, as (collective, bytes, mechanism).
fn job_requests() -> Vec<(&'static str, u64, &'static str)> {
    let grad = |m: Model| m.weight_grad().as_u64();
    let (small, medium, big) = (
        grad(Model::resnet50()),
        grad(Model::gnmt()),
        grad(Model::turing_nlg()),
    );
    vec![
        ("all-reduce", small, "tacos"),
        ("all-reduce", medium, "tacos"),
        ("all-reduce", big, "tacos"),
        ("all-gather", small, "tacos"),
        ("all-gather", medium, "tacos"),
        ("reduce-scatter", small, "tacos"),
        ("reduce-scatter", medium, "tacos"),
        ("all-reduce", big, "ideal"),
    ]
}

fn plan_churn(seed: u64, scale: f64) -> Result<Plan, String> {
    let doc = parse_file(
        "serve_churn",
        include_str!("../../workloads/serve_churn.toml"),
    )?;
    let mut rng = Rng::new(seed, "serve_churn");
    let chunks = get_usize(&doc, "chunks")?;
    let mut keys = Vec::new();
    // Key indices of each fabric's job.
    let mut job_of = |topology: String, rng: &mut Rng| -> Vec<usize> {
        let fabric_seed = rng.synth_seed();
        job_requests()
            .into_iter()
            .map(|(collective, bytes, mechanism)| {
                keys.push(Key {
                    topology: topology.clone(),
                    collective: collective.to_string(),
                    size: bytes.to_string(),
                    chunks,
                    mechanism: mechanism.to_string(),
                    seed: fabric_seed,
                });
                keys.len() - 1
            })
            .collect()
    };
    let hot: Vec<Vec<usize>> = get_strs(&doc, "hot")?
        .into_iter()
        .map(|t| job_of(t, &mut rng))
        .collect();
    let cold: Vec<Vec<usize>> = get_strs(&doc, "cold")?
        .into_iter()
        .map(|t| job_of(t, &mut rng))
        .collect();
    let hot_share = get_usize(&doc, "hot_share")?;
    let checkpoint_every = get_usize(&doc, "checkpoint_every")?;
    let hot_ids: Vec<usize> = (0..hot.len()).collect();
    let cold_ids: Vec<usize> = (0..cold.len()).collect();
    let sessions = |count: usize, checkpoints: bool, rng: &mut Rng| -> Vec<Op> {
        let hot_count = count * hot_share / 100;
        let mut jobs: Vec<&Vec<usize>> = deck(&hot_ids, hot_count, rng)
            .into_iter()
            .map(|i| &hot[i])
            .chain(
                deck(&cold_ids, count - hot_count, rng)
                    .into_iter()
                    .map(|i| &cold[i]),
            )
            .collect();
        rng.shuffle(&mut jobs);
        jobs.into_iter()
            .enumerate()
            .map(|(i, job)| {
                let mut order = job.clone();
                rng.shuffle(&mut order);
                let mut steps: Op = order.into_iter().map(Step::Request).collect();
                if checkpoints && (i + 1) % checkpoint_every == 0 {
                    steps.push(Step::Checkpoint);
                }
                steps
            })
            .collect()
    };
    let per_client = scaled(get_usize(&doc, "sessions_per_client")?, scale);
    let warmup = scaled(get_usize(&doc, "warmup_sessions_per_client")?, scale);
    let clients = (0..get_usize(&doc, "clients")?)
        .map(|client| ClientPlan {
            warmup: sessions(warmup, false, &mut rng),
            ops: sessions(per_client, client == 0, &mut rng),
        })
        .collect();
    Ok(Plan {
        workload: "serve_churn",
        large: vec![false; keys.len()],
        keys,
        clients,
        persistent: false,
        max_entries: get_usize(&doc, "max_entries")? as u64,
        start_from_snapshot: false,
    })
}

fn request_line(key: &Key) -> String {
    Json::obj([
        ("topology", key.topology.as_str().into()),
        ("collective", key.collective.as_str().into()),
        ("size", key.size.as_str().into()),
        ("chunks", Json::Uint(key.chunks as u64)),
        ("mechanism", key.mechanism.as_str().into()),
        ("seed", Json::Uint(key.seed)),
    ])
    .to_string()
}

const CHECKPOINT_LINE: &str = r#"{"op":"checkpoint"}"#;
const PING_LINE: &str = r#"{"op":"ping"}"#;

/// Pings per client in the traced run's `serve.rt_ping` probe.
const PROBE_PINGS: usize = 2_000;

/// What every response is checked against, shared read-only by the
/// client threads.
#[derive(Debug, Default)]
struct Oracle {
    lines: Vec<String>,
    /// The library's collective time for each key.
    expected_ps: Vec<u64>,
    /// A verified warm-hit response per key. Hits repeat it byte for
    /// byte, so the per-request check is one string comparison.
    canonical: Vec<Option<String>>,
}

impl Oracle {
    /// Whether `response` answers `step` correctly.
    fn accepts(&self, step: Step, response: &str) -> bool {
        let response = response.trim_end();
        match step {
            Step::Checkpoint => response.contains(r#""status":"checkpointed""#),
            Step::Ping => response.contains(r#""status":"pong""#),
            Step::Request(key) => match &self.canonical[key] {
                Some(line) if line == response => true,
                _ => Json::parse(response).is_ok_and(|r| {
                    r.get("status").and_then(Json::as_str) == Some("ok")
                        && r.get("collective_time_ps").and_then(Json::as_u64)
                            == Some(self.expected_ps[key])
                }),
            },
        }
    }
}

/// Names a request's round-trip span by what the daemon did.
fn span_name(plan: &Plan, step: Step, response: &str) -> &'static str {
    match step {
        Step::Checkpoint => "serve.rt_checkpoint",
        Step::Ping => "serve.rt_ping",
        Step::Request(key) if plan.keys[key].mechanism == "ideal" => "serve.rt_ideal",
        Step::Request(key) if response.contains(r#""cache_hit":true"#) => {
            if plan.large[key] {
                "serve.rt_hit_large"
            } else {
                "serve.rt_hit"
            }
        }
        Step::Request(_) if response.contains(r#""deduplicated":true"#) => "serve.rt_dedup",
        Step::Request(_) => "serve.rt_miss",
    }
}

struct ClientOutcome {
    latencies_ms: Vec<f64>,
    failed: usize,
    first_start: Instant,
    last_end: Instant,
    tracer: Tracer,
}

fn daemon_config(dir: &Path, max_entries: u64) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: Some(dir.to_path_buf()),
        warm_limits: WarmLimits {
            max_entries,
            max_bytes: 0,
        },
        quiet: true,
        ..DaemonConfig::default()
    }
}

/// `bench populate`: a daemon on `dir` synthesizes every `serve_hits` key
/// (one connection per client), checkpoints, and stops.
pub fn populate(args: &RunArgs, dir: &Path) -> Result<(), String> {
    let plan = plan_hits(args.seed, args.scale)?;
    let lines: Vec<String> = plan.keys.iter().map(request_line).collect();
    let daemon = Daemon::spawn(daemon_config(dir, 0)).map_err(|e| e.to_string())?;
    let addr = daemon.addr().to_string();
    let clients = plan.clients.len();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, lines) = (&addr, &lines);
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
                    for line in lines.iter().skip(c).step_by(clients) {
                        let response = client.call_raw(line).map_err(|e| e.to_string())?;
                        if !response.contains(r#""status":"ok""#) {
                            return Err(format!("{line}: {response}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        senders.into_iter().try_for_each(|s| {
            s.join()
                .map_err(|_| "a populating client panicked".to_string())?
        })
    })?;
    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let response = client
        .call_raw(CHECKPOINT_LINE)
        .map_err(|e| e.to_string())?;
    if !response.contains(r#""status":"checkpointed""#) {
        return Err(format!("checkpoint refused: {response}"));
    }
    drop(client);
    daemon.stop().map(|_| ()).map_err(|e| e.to_string())
}

pub struct Serve {
    plan: Plan,
    seed: u64,
    scale: f64,
    /// `bench sanity` on `serve_hits`: a one-entry cache, so every
    /// request misses and synthesizes.
    slow: bool,
    dir: PathBuf,
    daemon: Option<DaemonHandle>,
    oracle: Oracle,
    quality: Vec<Quality>,
}

impl Serve {
    pub fn hits(args: &RunArgs) -> Result<Self, String> {
        Self::new(plan_hits(args.seed, args.scale)?, args, args.slow)
    }

    pub fn churn(args: &RunArgs) -> Result<Self, String> {
        Self::new(plan_churn(args.seed, args.scale)?, args, false)
    }

    fn new(plan: Plan, args: &RunArgs, slow: bool) -> Result<Self, String> {
        let oracle = Oracle {
            lines: plan.keys.iter().map(request_line).collect(),
            expected_ps: Vec::new(),
            canonical: vec![None; plan.keys.len()],
        };
        Ok(Serve {
            dir: scratch_dir(plan.workload)?,
            plan,
            seed: args.seed,
            scale: args.scale,
            slow,
            daemon: None,
            oracle,
            quality: Vec::new(),
        })
    }

    fn addr(&self) -> Result<String, String> {
        self.daemon
            .as_ref()
            .map(|d| d.addr().to_string())
            .ok_or_else(|| "no daemon is running".to_string())
    }

    fn stop_daemon(&mut self) -> Result<(), String> {
        match self.daemon.take() {
            Some(daemon) => daemon.stop().map(|_| ()).map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }

    /// The library's answer for every key: the reference for served
    /// times, and the workload's schedule quality.
    fn consult_library(&mut self) -> Result<(), String> {
        let mut off = Tracer::off();
        let mut scratch = SynthesisScratch::new();
        self.oracle.expected_ps.clear();
        self.quality.clear();
        for key in &self.plan.keys {
            let (time, ideal) = eval::library_answer(&mut off, key, &mut scratch)?;
            self.oracle.expected_ps.push(time.as_ps());
            if key.mechanism != "ideal" {
                self.quality.push(Quality {
                    time_ps: time.as_ps(),
                    ideal_ps: ideal.as_ps(),
                });
            }
        }
        Ok(())
    }

    /// The daemon's previous incarnation, in a process of its own (as a
    /// restarted daemon's was): `bench populate` synthesizes every key,
    /// checkpoints and stops, leaving the snapshot the measured daemon
    /// starts from. In-process, its worker threads' allocator arenas would
    /// stay resident under the measured pass by an amount that depends on
    /// thread timing.
    fn populate_snapshot(&self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = std::process::Command::new(exe)
            .args(["populate", "--workload", self.plan.workload])
            .args(["--seed", &self.seed.to_string()])
            .args([
                "--seconds",
                &(self.scale * crate::SIZED_FOR_SECONDS).to_string(),
            ])
            .arg("--dir")
            .arg(&self.dir)
            .status()
            .map_err(|e| format!("spawning bench populate: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("bench populate failed ({status})"))
        }
    }

    /// Runs each client's `select`ed ops concurrently, closed loop, each
    /// client on one `persistent` connection or on a fresh one per op.
    fn run_pass<'a>(
        &'a self,
        tr: &mut Tracer,
        persistent: bool,
        select: impl Fn(&'a ClientPlan) -> &'a [Op],
    ) -> Result<Pass, String> {
        let addr = self.addr()?;
        let clients = self.plan.clients.len();
        let start_line = Barrier::new(clients);
        let outcomes = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .plan
                .clients
                .iter()
                .enumerate()
                .map(|(c, client_plan)| {
                    let mut tracer = tr.fork();
                    let (addr, start_line) = (&addr, &start_line);
                    let ops = select(client_plan);
                    scope.spawn(move || -> Result<ClientOutcome, String> {
                        let connected = persistent
                            .then(|| Client::connect(addr.as_str()))
                            .transpose();
                        // Reached whether or not the connect worked: the
                        // other clients are waiting on it.
                        start_line.wait();
                        let mut persistent = connected.map_err(|e| e.to_string())?;
                        let mut latencies_ms = Vec::with_capacity(ops.len());
                        let mut failed = 0;
                        let first_start = Instant::now();
                        for (i, op) in ops.iter().enumerate() {
                            let id = (i * clients + c) as u32;
                            let started = Instant::now();
                            let span = tracer.begin("op", id);
                            let responses =
                                self.run_op(&mut tracer, id, op, persistent.as_mut(), addr);
                            tracer.end(span);
                            let latency = started.elapsed();
                            // Verified after the op's clock stops.
                            let correct = responses.is_ok_and(|responses| {
                                op.iter()
                                    .zip(&responses)
                                    .all(|(step, r)| self.oracle.accepts(*step, r))
                            });
                            if correct {
                                latencies_ms.push(latency.as_secs_f64() * 1e3);
                            } else {
                                failed += 1;
                            }
                        }
                        Ok(ClientOutcome {
                            latencies_ms,
                            failed,
                            first_start,
                            last_end: Instant::now(),
                            tracer,
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| {
                    w.join()
                        .map_err(|_| "a client thread panicked".to_string())?
                })
                .collect::<Result<Vec<ClientOutcome>, String>>()
        })?;
        let first = outcomes.iter().map(|o| o.first_start).min();
        let last = outcomes.iter().map(|o| o.last_end).max();
        let mut pass = Pass {
            wall: first.zip(last).map(|(a, b)| b - a).unwrap_or_default(),
            ..Pass::default()
        };
        for outcome in outcomes {
            pass.latencies_ms.extend(outcome.latencies_ms);
            pass.failed += outcome.failed;
            tr.merge(outcome.tracer);
        }
        Ok(pass)
    }

    /// One op: its steps in order on one connection, each a blocking
    /// round trip.
    fn run_op(
        &self,
        tr: &mut Tracer,
        id: u32,
        op: &Op,
        persistent: Option<&mut Client>,
        addr: &str,
    ) -> Result<Vec<String>, String> {
        let mut fresh;
        let client = match persistent {
            Some(client) => client,
            None => {
                // Connected means the daemon answers on it: `connect`
                // alone returns from the kernel's backlog, before the
                // accept loop has seen the connection.
                fresh = tr
                    .span("serve.connect", id, || -> std::io::Result<Client> {
                        let mut client = Client::connect(addr)?;
                        client.call_raw(PING_LINE)?;
                        Ok(client)
                    })
                    .map_err(|e| e.to_string())?;
                &mut fresh
            }
        };
        let mut responses = Vec::with_capacity(op.len());
        for &step in op {
            let line = match step {
                Step::Request(key) => self.oracle.lines[key].as_str(),
                Step::Checkpoint => CHECKPOINT_LINE,
                Step::Ping => PING_LINE,
            };
            let span = tr.begin("serve.rt", id);
            let response = client.call_raw(line);
            if tr.enabled() {
                let name = span_name(&self.plan, step, response.as_deref().unwrap_or(""));
                tr.end_as(span, name);
            }
            responses.push(response.map_err(|e| e.to_string())?);
        }
        Ok(responses)
    }

    /// Sends every key once on one connection; with `record`, keeps each
    /// verified warm-hit response as the key's canonical line.
    fn visit_every_key(&mut self, record: bool) -> Result<(), String> {
        let mut client = Client::connect(self.addr()?.as_str()).map_err(|e| e.to_string())?;
        for key in 0..self.plan.keys.len() {
            let response = client
                .call_raw(&self.oracle.lines[key])
                .map_err(|e| e.to_string())?;
            if !self.oracle.accepts(Step::Request(key), &response) {
                return Err(format!(
                    "{:?}: wrong answer {response}",
                    self.plan.keys[key]
                ));
            }
            if record && response.contains(r#""cache_hit":true"#) {
                self.oracle.canonical[key] = Some(response.trim_end().to_string());
            }
        }
        Ok(())
    }
}

impl Workload for Serve {
    fn setup(&mut self, rep: usize, tr: &mut Tracer, clock: &mut Stopwatch) -> Result<(), String> {
        clock.excluding(|| self.stop_daemon())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        if rep == 0 {
            clock.excluding(|| self.consult_library())?;
        }
        self.oracle.canonical.iter_mut().for_each(|c| *c = None);
        let max_entries = if self.slow { 1 } else { self.plan.max_entries };
        let spawn_span = if self.plan.start_from_snapshot {
            self.populate_snapshot()?;
            "serve.reload"
        } else {
            "serve.startup"
        };
        let daemon = tr
            .span(spawn_span, NONE, || {
                Daemon::spawn(daemon_config(&self.dir, max_entries))
            })
            .map_err(|e| e.to_string())?;
        self.daemon = Some(daemon);
        let mut off = Tracer::off();
        let warmup = self.run_pass(&mut off, self.plan.persistent, |c| &c.warmup)?;
        if warmup.failed > 0 {
            return Err(format!("{} warm-up ops got a wrong answer", warmup.failed));
        }
        if self.plan.persistent && !self.slow {
            clock.excluding(|| self.visit_every_key(true))?;
        }
        Ok(())
    }

    fn measure(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        self.run_pass(tr, self.plan.persistent, |c| &c.ops)
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // The protocol's floor under the same load as the ops: every
        // client pinging at once (a lone pinger mostly measures wake-ups).
        let pings: Vec<Op> = vec![vec![Step::Ping]; PROBE_PINGS];
        let pinged = self.run_pass(tr, true, |_| pings.as_slice())?;
        if pinged.failed > 0 {
            return Err("a ping went unanswered".into());
        }
        let mut client = Client::connect(self.addr()?.as_str()).map_err(|e| e.to_string())?;

        // The request pipeline's stages, called directly per distinct key.
        for (key, line) in self.plan.keys.iter().zip(&self.oracle.lines) {
            tr.span("serve.request_parse", NONE, || Request::parse(line))?;
            let topo = eval::build_topology(tr, NONE, &key.topology)?;
            let base = SynthesizerConfig::default().with_seed(key.seed);
            let mechanism = eval::parse_mechanism(tr, NONE, &key.mechanism, &base)?;
            let pattern = parse_pattern(&key.collective, topo.num_npus())?;
            let size = parse_size(&key.size)?;
            let collective =
                eval::build_collective(tr, NONE, pattern, topo.num_npus(), key.chunks, size)?;
            if eval::cache_key(tr, NONE, &mechanism, &key.mechanism, &topo, &collective).is_none() {
                eval::ideal_time(tr, NONE, &topo, pattern, size);
            }
            let response = client.call_raw(line).map_err(|e| e.to_string())?;
            let parsed = tr.span("report.json_parse", NONE, || {
                Json::parse(response.trim_end())
            })?;
            tr.span("report.json_encode", NONE, || parsed.to_string());
        }

        // The warm cache on its own: the daemon's resident set written
        // out, read back, and re-inserted entry by entry.
        let response = tr
            .span("serve.rt_checkpoint", NONE, || {
                client.call_raw(CHECKPOINT_LINE)
            })
            .map_err(|e| e.to_string())?;
        if !self.oracle.accepts(Step::Checkpoint, &response) {
            return Err(format!("checkpoint refused: {response}"));
        }
        let snapshot = self.dir.join(SNAPSHOT_FILE);
        let bytes = std::fs::metadata(&snapshot)
            .map_err(|e| e.to_string())?
            .len();
        tr.add("core.warm_snapshot_bytes", bytes as f64);
        let loaded = tr
            .span("core.warm_load", NONE, || WarmCache::load_from(&snapshot))
            .map_err(|e| e.to_string())?;
        if !loaded.is_clean() {
            return Err("the daemon's snapshot did not load clean".into());
        }
        let copy = WarmCache::new();
        for key in loaded.cache.keys() {
            let entry = tr
                .span("core.warm_get", NONE, || loaded.cache.get(&key))
                .ok_or("a listed key is not resident")?;
            let entry = (*entry).clone();
            tr.span("core.warm_insert", NONE, || copy.insert(key, entry));
        }
        tr.span("core.warm_save", NONE, || {
            copy.save_to(self.dir.join("probe.snapshot"))
        })
        .map_err(|e| e.to_string())?;

        let stats = client.stats().map_err(|e| e.to_string())?;
        for counter in [
            "serve.requests",
            "serve.cache_hits",
            "serve.synthesized",
            "serve.deduplicated",
            "serve.rejected",
            "serve.evictions",
            "serve.warm_entries",
            "serve.resident_bytes",
        ] {
            let field = counter.trim_start_matches("serve.");
            let value = stats.get(field).and_then(Json::as_f64);
            tr.add(
                counter,
                value.ok_or_else(|| format!("stats has no '{field}'"))?,
            );
        }
        drop(client);
        if let Some(daemon) = self.daemon.take() {
            tr.span("serve.shutdown", NONE, || daemon.stop())
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn quality(&self) -> &[Quality] {
        &self.quality
    }

    fn teardown(&mut self) {
        let _ = self.stop_daemon();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rank;

    fn requests(plan: &Plan) -> Vec<usize> {
        plan.clients
            .iter()
            .flat_map(|c| &c.ops)
            .flatten()
            .filter_map(|s| match s {
                Step::Request(key) => Some(*key),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_op_lists() {
        for plan in [plan_hits, plan_churn] {
            let (a, b) = (plan(3, 0.1).unwrap(), plan(3, 0.1).unwrap());
            assert_eq!(a.keys, b.keys);
            assert_eq!(format!("{:?}", a.clients), format!("{:?}", b.clients));
            let other = plan(4, 0.1).unwrap();
            assert_ne!(a.clients, other.clients);
            assert_ne!(a.keys, other.keys, "--seed draws the synthesis seeds");
        }
    }

    /// The slowest requests are the large-fabric class by construction;
    /// it must hold the p99 rank with room on both sides, and the small
    /// class must hold the median.
    #[test]
    fn serve_hits_p99_lands_inside_the_large_class() {
        let plan = plan_hits(1, 1.0).unwrap();
        let all = requests(&plan);
        let n = all.len();
        assert_eq!(n, 260_000);
        let large = all.iter().filter(|&&k| plan.large[k]).count();
        assert_eq!(large, n / 10);
        let beyond_p99 = n - rank(n, 99);
        assert!(
            beyond_p99 >= 10 && beyond_p99 * 4 < large,
            "{beyond_p99} of {large}"
        );
        let small = all
            .iter()
            .filter(|&&k| !plan.large[k] && plan.keys[k].mechanism == "tacos")
            .count();
        assert!(small > rank(n, 50), "the median op is a small-fabric hit");
        // Every key of a class is asked for about equally often.
        let mut per_key = vec![0usize; plan.keys.len()];
        all.iter().for_each(|&k| per_key[k] += 1);
        assert!(per_key.iter().all(|&c| c > 0));
    }

    #[test]
    fn serve_churn_sessions_have_the_stated_shape() {
        let plan = plan_churn(1, 1.0).unwrap();
        assert_eq!(plan.keys.len(), 40 * 8);
        let cached = plan.keys.iter().filter(|k| k.mechanism != "ideal").count();
        assert_eq!(cached, 280);
        assert!(
            cached as u64 > 2 * plan.max_entries,
            "the key set must not fit"
        );
        let sessions: Vec<&Op> = plan.clients.iter().flat_map(|c| &c.ops).collect();
        assert_eq!(sessions.len(), 600);
        for session in &sessions {
            let requested: Vec<usize> = session
                .iter()
                .filter_map(|s| match s {
                    Step::Request(k) => Some(*k),
                    _ => None,
                })
                .collect();
            assert_eq!(requested.len(), 8);
            let fabric = &plan.keys[requested[0]].topology;
            assert!(requested.iter().all(|&k| &plan.keys[k].topology == fabric));
            assert_eq!(
                requested
                    .iter()
                    .filter(|&&k| plan.keys[k].mechanism == "ideal")
                    .count(),
                1
            );
        }
        let checkpoints = |c: &ClientPlan| {
            c.ops
                .iter()
                .flatten()
                .filter(|s| **s == Step::Checkpoint)
                .count()
        };
        assert_eq!(checkpoints(&plan.clients[0]), 6);
        assert_eq!(checkpoints(&plan.clients[1]), 0);
        // 60 % of sessions go to the first 10 (hot) fabrics.
        let hot_keys = 10 * 8;
        let hot_sessions = sessions
            .iter()
            .filter(|s| matches!(s[0], Step::Request(k) if k < hot_keys))
            .count();
        assert_eq!(hot_sessions, 360);
    }

    #[test]
    fn oracle_accepts_only_the_expected_time() {
        let oracle = Oracle {
            lines: vec![String::new()],
            expected_ps: vec![1234],
            canonical: vec![Some(r#"{"status":"ok","canonical":true}"#.to_string())],
        };
        let step = Step::Request(0);
        assert!(oracle.accepts(step, "{\"status\":\"ok\",\"canonical\":true}\n"));
        assert!(oracle.accepts(step, r#"{"status":"ok","collective_time_ps":1234}"#));
        assert!(!oracle.accepts(step, r#"{"status":"ok","collective_time_ps":1235}"#));
        assert!(!oracle.accepts(step, r#"{"status":"rejected","collective_time_ps":1234}"#));
        assert!(!oracle.accepts(step, "garbage"));
        assert!(oracle.accepts(Step::Checkpoint, r#"{"status":"checkpointed","entries":3}"#));
    }
}
