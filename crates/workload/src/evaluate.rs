//! The one evaluation pipeline: mechanism → schedule → time.
//!
//! The paper's evaluation rule is one sentence — a TACOS schedule carries
//! its completion time out of the TEN, a baseline schedule is timed by
//! the congestion-aware simulator, and both are framed against the ideal
//! bound — and this module is the only place that sentence is
//! implemented. The front ends compose its three steps:
//!
//! 1. **plan** ([`Mechanism::plan`]): mechanism + pattern + size + the
//!    caller's chunking → a [`Generation`] (the generator bound to its
//!    [`Collective`], which also derives the cache key), or
//!    [`Plan::Ideal`] — nothing to generate. Owns the chunk-override
//!    rule: a `tacos:N` variant runs with its own chunking factor, every
//!    other mechanism with the caller's.
//! 2. **generate** ([`Generation::generate`]): plan → schedule + time —
//!    the planned time if the schedule carries one, else a simulation.
//! 3. **evaluate** ([`Evaluator::evaluate`]): plan → optional
//!    [`AlgorithmCache`] lookup → generate → optional forced simulation
//!    → one [`Evaluated`].
//!
//! The scenario runner, [`crate::TrainingEvaluator`] and the one-shot
//! CLI call *evaluate*; the daemon calls *plan* on the connection thread
//! (the key feeds its warm cache and single-flight registry) and
//! *generate* on a worker.

use std::cell::OnceCell;
use std::time::Instant;

use tacos_baselines::{BaselineAlgorithm, IdealBound};
use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{AlgorithmCache, CacheOutcome, SynthesisScratch, Synthesizer};
use tacos_sim::{SimReport, Simulator};
use tacos_topology::{ByteSize, Time, Topology};

use crate::error::WorkloadError;
use crate::mechanism::Mechanism;

/// What a mechanism needs done before it has a time.
#[derive(Debug, Clone)]
pub enum Plan {
    /// The theoretical bound: nothing to generate, simulate or cache.
    Ideal,
    /// A schedule to generate (or load from a cache under its key).
    Generate(Generation),
}

/// A schedule generator bound to the collective it will run.
#[derive(Debug, Clone)]
pub struct Generation {
    generator: Generator,
    collective: Collective,
}

#[derive(Debug, Clone)]
enum Generator {
    Tacos(Synthesizer),
    Baseline(BaselineAlgorithm),
}

/// The outcome of evaluating one mechanism on one collective.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// Completion time of the collective.
    pub time: Time,
    /// Chunking factor the collective ran with (a `tacos:N` variant's own;
    /// the caller's otherwise, including for the ideal bound).
    pub chunks: usize,
    /// Number of transfers in the schedule (0 for the ideal bound).
    pub transfers: u64,
    /// The schedule; `None` for the ideal bound.
    pub algorithm: Option<CollectiveAlgorithm>,
    /// The simulation, when one produced `time`.
    pub sim: Option<SimReport>,
    /// Cache disposition; `None` without a cache and for the ideal bound.
    pub cache: Option<CacheOutcome>,
    /// Wall-clock seconds generating (or loading) the schedule.
    pub generate_seconds: f64,
}

impl Mechanism {
    /// Step 1: binds this mechanism to `pattern` over `num_npus` NPUs
    /// moving `size`. `chunks` is the caller's chunking factor; a
    /// `tacos:N` variant overrides it for itself only, so the paper's
    /// chunked TACOS variants can share a grid with unchunked baselines.
    ///
    /// # Errors
    /// Propagates an invalid collective description.
    pub fn plan(
        &self,
        pattern: CollectivePattern,
        num_npus: usize,
        size: ByteSize,
        chunks: usize,
    ) -> Result<Plan, WorkloadError> {
        let (generator, chunks) = match self {
            Mechanism::Ideal => return Ok(Plan::Ideal),
            Mechanism::Tacos(m) => (
                Generator::Tacos(Synthesizer::new(m.config.clone())),
                m.chunks.unwrap_or(chunks),
            ),
            Mechanism::Baseline(kind) => (
                Generator::Baseline(BaselineAlgorithm::new(kind.clone())),
                chunks,
            ),
        };
        Ok(Plan::Generate(Generation {
            generator,
            collective: Collective::with_chunking(pattern, num_npus, chunks, size)?,
        }))
    }
}

impl Generation {
    /// The structural cache key of the schedule on `topo`. TACOS
    /// syntheses are keyed by their full synthesizer configuration;
    /// baselines by `spec` (the algorithm string as the caller wrote it,
    /// e.g. `themis:64`) plus the seed a randomized baseline consumes —
    /// deterministic baselines ignore seed/attempt sweeps, so their key
    /// must too.
    pub fn cache_key(&self, spec: &str, topo: &Topology) -> String {
        match &self.generator {
            Generator::Tacos(synth) => {
                AlgorithmCache::key_with_tag("tacos", synth, topo, &self.collective)
            }
            Generator::Baseline(baseline) => AlgorithmCache::key_for_generator(
                spec,
                topo,
                &self.collective,
                baseline.kind().seed().unwrap_or(0),
            ),
        }
    }

    /// Step 2: generates the schedule and its completion time.
    ///
    /// # Errors
    /// Propagates synthesis / generation / simulation failures.
    pub fn generate(
        &self,
        topo: &Topology,
        scratch: &mut SynthesisScratch,
    ) -> Result<(CollectiveAlgorithm, Time), WorkloadError> {
        let algorithm = self.schedule(topo, scratch)?;
        let (time, _) = time_of(topo, &algorithm, false)?;
        Ok((algorithm, time))
    }

    fn schedule(
        &self,
        topo: &Topology,
        scratch: &mut SynthesisScratch,
    ) -> Result<CollectiveAlgorithm, WorkloadError> {
        Ok(match &self.generator {
            Generator::Tacos(synth) => synth
                .synthesize_with(topo, &self.collective, scratch)?
                .into_algorithm(),
            Generator::Baseline(baseline) => baseline.generate(topo, &self.collective)?,
        })
    }
}

/// Times a schedule: its planned time if it carries one (TACOS schedules
/// do) and `simulate` does not force a run, else the congestion-aware
/// simulator's, with the report.
fn time_of(
    topo: &Topology,
    algorithm: &CollectiveAlgorithm,
    simulate: bool,
) -> Result<(Time, Option<SimReport>), WorkloadError> {
    match algorithm.planned_time() {
        Some(planned) if !simulate => Ok((planned, None)),
        _ => {
            let report = Simulator::new().simulate(topo, algorithm)?;
            Ok((report.collective_time(), Some(report)))
        }
    }
}

/// Evaluates one mechanism on one fabric. Holds what is fixed per grid
/// point or request — the topology, the mechanism, the optional algorithm
/// cache, whether every schedule is simulated — and the [`IdealBound`],
/// built on first use and at most once.
#[derive(Debug)]
pub struct Evaluator<'a> {
    topo: &'a Topology,
    mechanism: &'a Mechanism,
    cache: Option<&'a AlgorithmCache>,
    spec: &'a str,
    simulate: bool,
    ideal: OnceCell<IdealBound>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator of `mechanism` on `topo`: no cache, simulation only
    /// where a schedule has no planned time.
    pub fn new(topo: &'a Topology, mechanism: &'a Mechanism) -> Self {
        Evaluator {
            topo,
            mechanism,
            cache: None,
            spec: "",
            simulate: false,
            ideal: OnceCell::new(),
        }
    }

    /// Routes every schedule through `cache` (load, else generate and
    /// store). `spec` is the mechanism as the caller wrote it — the tag
    /// baseline schedules are keyed under (see [`Generation::cache_key`]).
    #[must_use]
    pub fn with_cache(mut self, cache: Option<&'a AlgorithmCache>, spec: &'a str) -> Self {
        self.cache = cache;
        self.spec = spec;
        self
    }

    /// Also simulates schedules that carry a planned time.
    #[must_use]
    pub fn with_simulation(mut self, simulate: bool) -> Self {
        self.simulate = simulate;
        self
    }

    /// The fabric's ideal bound.
    pub fn ideal(&self) -> &IdealBound {
        self.ideal.get_or_init(|| IdealBound::new(self.topo))
    }

    /// Step 3: the completion time of `pattern` moving `size`, and
    /// everything measured on the way. `chunks` is the caller's chunking
    /// factor (see [`Mechanism::plan`]).
    ///
    /// # Errors
    /// Propagates synthesis / generation / simulation failures; cache
    /// storage failures are swallowed.
    pub fn evaluate(
        &self,
        pattern: CollectivePattern,
        size: ByteSize,
        chunks: usize,
        scratch: &mut SynthesisScratch,
    ) -> Result<Evaluated, WorkloadError> {
        let topo = self.topo;
        let plan = self
            .mechanism
            .plan(pattern, topo.num_npus(), size, chunks)?;
        let Plan::Generate(generation) = plan else {
            return Ok(Evaluated {
                time: self.ideal().collective_time(pattern, size),
                chunks,
                transfers: 0,
                algorithm: None,
                sim: None,
                cache: None,
                generate_seconds: 0.0,
            });
        };
        let started = Instant::now();
        let (algorithm, cache) = match self.cache {
            Some(cache) => {
                let key = generation.cache_key(self.spec, topo);
                let (algorithm, outcome) =
                    cache.load_or_insert_with(&key, || generation.schedule(topo, scratch))?;
                (algorithm, Some(outcome))
            }
            None => (generation.schedule(topo, scratch)?, None),
        };
        let generate_seconds = started.elapsed().as_secs_f64();
        let (time, sim) = time_of(topo, &algorithm, self.simulate)?;
        Ok(Evaluated {
            time,
            chunks: generation.collective.chunks_per_npu(),
            transfers: algorithm.len() as u64,
            algorithm: Some(algorithm),
            sim,
            cache,
            generate_seconds,
        })
    }
}

/// Achieved bandwidth in GB/s: `size / time` (infinite for a zero time).
pub fn bandwidth_gbps(size: ByteSize, time: Time) -> f64 {
    CollectiveAlgorithm::bandwidth_for(size, time) / 1e9
}
