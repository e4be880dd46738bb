//! `grid_resume`: see `bench/workloads/grid_resume.toml` for why.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{AlgorithmCache, CacheOutcome, SynthesizerConfig};
use tacos_report::Json;
use tacos_scenario::{
    expand, parse_pattern, select_failed_links, Evaluation, Mechanism, RunSummary, ScenarioPoint,
    ScenarioSpec, WithoutLinks,
};
use tacos_topology::{Time, Topology};
use tacos_workload::{Parallelism, TrainingEvaluator, Workload as Model};

use super::{get_usize, parse_file};
use crate::eval;
use crate::gen::{scaled, Rng};
use crate::harness::{scratch_dir, Pass, Quality, RunArgs, Workload};
use crate::sys::Stopwatch;
use crate::trace::{Tracer, NONE};

/// The benchmark-owned scenario files, with `@SEED@`, `@CACHE@`,
/// `@OUTPUT@` and `@THREADS@` filled in at set-up.
const FILES: [(&str, &str); 9] = [
    (
        "bw_sweep",
        include_str!("../../workloads/grid/01_bw_sweep.toml"),
    ),
    (
        "tiered",
        include_str!("../../workloads/grid/02_tiered.toml"),
    ),
    (
        "failure",
        include_str!("../../workloads/grid/03_failure.toml"),
    ),
    (
        "timeline",
        include_str!("../../workloads/grid/04_timeline.toml"),
    ),
    (
        "report_norm",
        include_str!("../../workloads/grid/05_report_norm.toml"),
    ),
    (
        "training",
        include_str!("../../workloads/grid/06_training.toml"),
    ),
    (
        "chunk_sweep",
        include_str!("../../workloads/grid/07_chunk_sweep.toml"),
    ),
    (
        "collectives",
        include_str!("../../workloads/grid/08_collectives.toml"),
    ),
    (
        "dragonfly",
        include_str!("../../workloads/grid/09_dragonfly.toml"),
    ),
];

#[derive(Debug)]
struct Plan {
    /// The value of every file's `seed` axis.
    scenario_seed: u64,
    /// File indices: one untimed pass, then the measured repeats.
    warmup: Vec<usize>,
    ops: Vec<usize>,
}

fn plan(seed: u64, scale: f64) -> Result<Plan, String> {
    let doc = parse_file(
        "grid_resume",
        include_str!("../../workloads/grid_resume.toml"),
    )?;
    let mut rng = Rng::new(seed, "grid_resume");
    let scenario_seed = rng.synth_seed();
    // Files in order every repeat (see synth_scale): the seed reaches the
    // op list through the files' `seed` axis.
    let warmup: Vec<usize> = (0..FILES.len()).collect();
    let ops = (0..scaled(get_usize(&doc, "repeats")?, scale))
        .flat_map(|_| 0..FILES.len())
        .collect();
    Ok(Plan {
        scenario_seed,
        warmup,
        ops,
    })
}

fn render(template: &str, seed: u64, dir: &Path, threads: usize) -> String {
    template
        .replace("@SEED@", &seed.to_string())
        .replace("@CACHE@", &dir.join("cache").display().to_string())
        .replace("@OUTPUT@", &dir.join("results").display().to_string())
        .replace("@THREADS@", &threads.to_string())
}

pub struct GridResume {
    plan: Plan,
    dir: PathBuf,
    /// The rendered files, as the op reads them.
    texts: Vec<String>,
    /// CSV rows of each file's cold run: what every warm run must repeat.
    cold_rows: Vec<Vec<Vec<String>>>,
    quality: Vec<Quality>,
}

impl GridResume {
    pub fn new(args: &RunArgs) -> Result<Self, String> {
        Ok(GridResume {
            plan: plan(args.seed, args.scale)?,
            dir: scratch_dir("grid_resume")?,
            texts: Vec::new(),
            cold_rows: Vec::new(),
            quality: Vec::new(),
        })
    }

    /// The op: parse the file, run the grid, write its outputs.
    fn run_op(&self, tr: &mut Tracer, id: u32, text: &str) -> Result<RunSummary, String> {
        let spec = tr
            .span("scenario.parse", id, || ScenarioSpec::from_toml_str(text))
            .map_err(|e| e.to_string())?;
        let summary = tr
            .span("scenario.run", id, || tacos_scenario::run(&spec))
            .map_err(|e| e.to_string())?;
        let outcome = |wanted| {
            summary
                .records
                .iter()
                .filter(|r| r.result.as_ref().is_ok_and(|m| m.cache == Some(wanted)))
                .count() as f64
        };
        tr.add("core.cache_hits", outcome(CacheOutcome::Hit));
        tr.add("core.cache_misses", outcome(CacheOutcome::Miss));
        Ok(summary)
    }

    /// A warm run repeats the cold run's rows and generates nothing.
    fn verify_warm(&self, file: usize, summary: &RunSummary) -> Result<(), String> {
        let regenerated = summary.records.iter().any(|r| {
            r.result
                .as_ref()
                .is_ok_and(|m| m.cache == Some(CacheOutcome::Miss))
        });
        if summary.failed > 0 || regenerated {
            return Err(format!(
                "{}: warm run failed or regenerated a point",
                FILES[file].0
            ));
        }
        if summary.csv_rows() != self.cold_rows[file] {
            return Err(format!(
                "{}: warm CSV rows differ from the cold run's",
                FILES[file].0
            ));
        }
        Ok(())
    }
}

/// Schedule quality of a summary's TACOS bandwidth points.
fn tacos_quality(summary: &RunSummary) -> Vec<Quality> {
    summary
        .records
        .iter()
        .filter(|r| r.point.algo.starts_with("tacos"))
        .filter_map(|r| r.result.as_ref().ok())
        .filter(|m| m.training.is_none())
        .map(|m| {
            let time_ps = m.collective_time.as_ps();
            Quality {
                time_ps,
                // `efficiency` is ideal / measured.
                ideal_ps: (time_ps as f64 * m.efficiency).round() as u64,
            }
        })
        .collect()
}

impl Workload for GridResume {
    fn setup(&mut self, rep: usize, _tr: &mut Tracer, clock: &mut Stopwatch) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let scenarios = self.dir.join("scenarios");
        std::fs::create_dir_all(&scenarios).map_err(|e| e.to_string())?;
        self.texts = FILES
            .iter()
            .map(|(_, template)| render(template, self.plan.scenario_seed, &self.dir, 2))
            .collect();
        let mut off = Tracer::off();
        self.cold_rows.clear();
        self.quality.clear();
        for ((name, _), text) in FILES.iter().zip(&self.texts) {
            std::fs::write(scenarios.join(format!("{name}.toml")), text)
                .map_err(|e| e.to_string())?;
            // Cold: every point not shared with an earlier file synthesizes
            // or generates, and is stored.
            let cold = self.run_op(&mut off, NONE, text)?;
            if let Some(error) = cold.records.iter().find_map(|r| r.result.as_ref().err()) {
                return Err(format!("{name}: cold run failed: {error}"));
            }
            self.quality.extend(tacos_quality(&cold));
            self.cold_rows.push(cold.csv_rows());
        }
        for file in self.plan.warmup.clone() {
            let warm = self.run_op(&mut off, NONE, &self.texts[file])?;
            if rep == 0 {
                clock.excluding(|| self.verify_warm(file, &warm))?;
            }
        }
        Ok(())
    }

    fn measure(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let started = Instant::now();
        for (id, &file) in self.plan.ops.iter().enumerate() {
            let op_started = Instant::now();
            let span = tr.begin("op", id as u32);
            let outcome = self.run_op(tr, id as u32, &self.texts[file]);
            tr.end(span);
            let latency = op_started.elapsed();
            match outcome.and_then(|summary| self.verify_warm(file, &summary)) {
                Ok(()) => pass.latencies_ms.push(latency.as_secs_f64() * 1e3),
                Err(_) => pass.failed += 1,
            }
        }
        pass.wall = started.elapsed();
        Ok(pass)
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let probe_cache =
            AlgorithmCache::new(self.dir.join("probe-cache")).map_err(|e| e.to_string())?;
        for (name, template) in FILES {
            let text = render(template, self.plan.scenario_seed, &self.dir, 1);
            let spec = ScenarioSpec::from_toml_str(&text).map_err(|e| e.to_string())?;
            let run_started = Instant::now();
            tacos_scenario::run(&spec).map_err(|e| e.to_string())?;
            let run_ns = run_started.elapsed().as_nanos() as f64;

            let points = tr
                .span("scenario.expand", NONE, || expand(&spec))
                .map_err(|e| e.to_string())?;
            tr.add("scenario.points", points.len() as f64);
            let replay_started = Instant::now();
            let mut sample = None;
            for point in &points {
                if let Some(loaded) = replay_point(tr, &spec, point)? {
                    sample.get_or_insert(loaded);
                }
            }
            let direct_ns = replay_started.elapsed().as_nanos() as f64;
            tr.add("scenario.residual_ns", run_ns - direct_ns);
            tr.add("scenario.replays", 1.0);

            // One loaded schedule per file through the codec, the TEN
            // replay and a cache store.
            if let Some((topo, algo)) = sample {
                eval::probe_schedule(tr, &topo, &algo)?;
                tr.span("core.cache_store", NONE, || probe_cache.store(name, &algo))
                    .map_err(|e| e.to_string())?;
            }
            let results = self.dir.join("results").join(format!("{name}.json"));
            let written = std::fs::read_to_string(&results).map_err(|e| e.to_string())?;
            let parsed = tr.span("report.json_parse", NONE, || Json::parse(&written))?;
            tr.span("report.json_encode", NONE, || parsed.to_string());
        }
        Ok(())
    }

    fn quality(&self) -> &[Quality] {
        &self.quality
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One grid point evaluated directly against the warm cache, a span per
/// layer call: what `scenario::run` does for the point, minus the
/// runner. Returns the first schedule it loaded, for the codec probes.
fn replay_point(
    tr: &mut Tracer,
    spec: &ScenarioSpec,
    point: &ScenarioPoint,
) -> Result<Option<(Topology, CollectiveAlgorithm)>, String> {
    let cache_dir = spec
        .run
        .cache
        .as_deref()
        .ok_or("grid files set [run] cache")?;
    let cache = AlgorithmCache::new(cache_dir).map_err(|e| e.to_string())?;
    let topo = tr.span("topology.build", NONE, || -> Result<Topology, String> {
        let base = spec.build_topology(&point.topology, point.link.to_spec())?;
        if point.without_links.is_healthy() {
            return Ok(base);
        }
        let selection_seed = match point.without_links {
            WithoutLinks::Count(_) => point.seed,
            WithoutLinks::Links(_) => 0,
        };
        let victims = select_failed_links(&base, &point.without_links, selection_seed)?;
        base.without_links(&victims).map_err(|e| e.to_string())
    })?;
    let base_config = SynthesizerConfig::default()
        .with_seed(point.seed)
        .with_attempts(point.attempts)
        .with_prefer_cheap_links(point.prefer_cheap_links);
    let mechanism = eval::parse_mechanism(tr, NONE, &point.algo, &base_config)?;
    let mut sample = None;

    // Completion time of one collective under the point's mechanism,
    // its schedule read back from the cache directory.
    let mut cached_time = |tr: &mut Tracer,
                           pattern: CollectivePattern,
                           collective: &Collective|
     -> Result<Time, String> {
        let Some(key) = eval::cache_key(tr, NONE, &mechanism, &point.algo, &topo, collective)
        else {
            return Ok(eval::ideal_time(
                tr,
                NONE,
                &topo,
                pattern,
                collective.total_size(),
            ));
        };
        let algo = tr
            .span("core.cache_load", NONE, || cache.load(&key))
            .ok_or_else(|| format!("{}: {key} is not in the warm cache", point.label()))?;
        let simulate = spec.run.simulate || algo.planned_time().is_none();
        let time = if simulate {
            eval::simulate(tr, NONE, &topo, &algo)?.collective_time()
        } else {
            algo.collective_time()
        };
        if sample.is_none() && matches!(mechanism, Mechanism::Tacos(_)) {
            sample = Some((topo.clone(), algo));
        }
        Ok(time)
    };

    let n = topo.num_npus();
    match &spec.evaluation {
        Evaluation::Bandwidth => {
            let pattern = parse_pattern(&point.collective, n)?;
            let chunks = match &mechanism {
                Mechanism::Tacos(m) => m.chunks.unwrap_or(point.chunks),
                _ => point.chunks,
            };
            let collective = eval::build_collective(tr, NONE, pattern, n, chunks, point.size)?;
            cached_time(tr, pattern, &collective)?;
            eval::ideal_time(tr, NONE, &topo, pattern, point.size);
        }
        Evaluation::Training(settings) => {
            let model = Model::parse(
                point
                    .model
                    .as_deref()
                    .ok_or("training point without model")?,
            )?;
            let chunks = match &mechanism {
                Mechanism::Tacos(m) => m.chunks.unwrap_or(point.chunks),
                _ => 1,
            };
            let evaluator = TrainingEvaluator::new(&topo)
                .with_chunks(chunks)
                .with_parallelism(settings.parallelism)
                .with_overlap(settings.overlap);
            // The evaluator's exposed gradient collectives, resolved
            // first so the breakdown accounting is timed on its own.
            let mut sizes = vec![model.weight_grad()];
            if matches!(settings.parallelism, Parallelism::Hybrid) {
                sizes.extend(model.input_grad());
            }
            let pattern = CollectivePattern::AllReduce;
            let mut times = Vec::with_capacity(sizes.len());
            for size in sizes {
                let collective = eval::build_collective(tr, NONE, pattern, n, chunks, size)?;
                times.push(cached_time(tr, pattern, &collective)?);
            }
            let mut resolved = times.into_iter();
            tr.span("workload.training_eval", NONE, || {
                evaluator.evaluate_with_times(&model, |_| Ok(resolved.next().unwrap_or(Time::ZERO)))
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list_and_same_files() {
        let a = plan(5, 1.0).unwrap();
        let b = plan(5, 1.0).unwrap();
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.scenario_seed, b.scenario_seed);
        assert_ne!(a.scenario_seed, plan(6, 1.0).unwrap().scenario_seed);
        let dir = Path::new("/nowhere");
        for (_, template) in FILES {
            assert_eq!(
                render(template, a.scenario_seed, dir, 2),
                render(template, b.scenario_seed, dir, 2)
            );
        }
    }

    #[test]
    fn every_file_parses_and_names_its_own_outputs() {
        let dir = Path::new("/nowhere");
        assert_eq!(FILES.len() % 2, 1);
        for (name, template) in FILES {
            let text = render(template, 42, dir, 2);
            assert!(!text.contains('@'), "{name}: unfilled placeholder");
            let spec = ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name);
            assert_eq!(spec.run.threads, 2);
            assert_eq!(
                spec.output.as_deref(),
                Some(format!("/nowhere/results/{name}").as_str())
            );
            assert!(!expand(&spec).unwrap().is_empty());
        }
    }
}
