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
//!    [`AlgorithmCache`] lookup (a hit stored at another size of the same
//!    cost shape is rescaled to this one) → generate → optional forced
//!    simulation → one [`Evaluated`].
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
    /// Step 1: binds this mechanism to `pattern` over `topo`'s NPUs
    /// moving `size`. `chunks` is the caller's chunking factor; a
    /// `tacos:N` variant overrides it for itself only, so the paper's
    /// chunked TACOS variants can share a grid with unchunked baselines.
    ///
    /// # Errors
    /// Propagates an invalid collective description, then refuses a
    /// point whose time may not fit the picosecond clock (see
    /// [`WorkloadError::OutOfClock`]), the ideal bound included.
    pub fn plan(
        &self,
        pattern: CollectivePattern,
        topo: &Topology,
        size: ByteSize,
        chunks: usize,
    ) -> Result<Plan, WorkloadError> {
        let (generator, chunks) = match self {
            Mechanism::Ideal => {
                fits_the_clock(topo, size, chunks)?;
                return Ok(Plan::Ideal);
            }
            Mechanism::Tacos(m) => (
                Generator::Tacos(Synthesizer::new(m.config.clone())),
                m.chunks.unwrap_or(chunks),
            ),
            Mechanism::Baseline(kind) => (
                Generator::Baseline(BaselineAlgorithm::new(kind.clone())),
                chunks,
            ),
        };
        // The collective's own count checks come first, so an absurd
        // chunking factor keeps its error.
        let collective = Collective::with_chunking(pattern, topo.num_npus(), chunks, size)?;
        fits_the_clock(topo, size, chunks)?;
        Ok(Plan::Generate(Generation {
            generator,
            collective,
        }))
    }
}

/// Refuses a point whose collective time may not fit a [`Time`]: when
/// one chunk's cost on the costliest link, α + ⌈size / (n·chunks)⌉ /
/// bandwidth, times 2·n²·chunks reaches 2^64 ps (computed in `f64`, so
/// the check itself cannot wrap).
///
/// That product bounds a TACOS time: the matcher commits at least one
/// postcondition per round, a collective has at most 2·n²·chunks of them
/// (an All-Reduce's two phases), and one round takes at most one chunk on
/// the costliest link. Past the clock, α + payload/β wraps where overflow
/// checks are off and a link's cost reads small. Like the 2^25 bound on a
/// topology spec (`tacos_topology::MAX_SPEC_ELEMENTS`), this is a range
/// check that keeps arithmetic exact, not a budget on how long a
/// synthesis may run.
fn fits_the_clock(topo: &Topology, size: ByteSize, chunks: usize) -> Result<(), WorkloadError> {
    let n = topo.num_npus() as f64;
    let per_chunk = (size.as_u64() as f64 / (n * chunks as f64)).ceil();
    let costliest = topo
        .links()
        .iter()
        .map(|link| {
            let spec = link.spec();
            spec.alpha().as_ps() as f64 + per_chunk * spec.beta_ps_per_byte()
        })
        .fold(0.0, f64::max);
    let bound_ps = costliest * 2.0 * n * n * chunks as f64;
    if bound_ps < CLOCK_PS {
        Ok(())
    } else {
        Err(WorkloadError::OutOfClock {
            size,
            num_npus: topo.num_npus(),
            chunks,
            bound_ps,
        })
    }
}

/// 2^64 picoseconds: one past the longest [`Time`].
const CLOCK_PS: f64 = 18_446_744_073_709_551_616.0;

impl Generation {
    /// The collective this generation runs.
    pub fn collective(&self) -> &Collective {
        &self.collective
    }

    /// The structural cache key of the schedule on `topo`. TACOS
    /// syntheses are keyed by their cost shape and full synthesizer
    /// configuration (see [`AlgorithmCache::key_with_tag`]);
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

    /// The cost quantum of this generation's chunks on `topo`
    /// ([`AlgorithmCache::cost_quantum`]): what a schedule stored under
    /// [`Generation::cache_key`] is rescaled to.
    pub fn cost_quantum(&self, topo: &Topology) -> u64 {
        AlgorithmCache::cost_quantum(topo, self.collective.chunk_size())
    }

    /// A schedule loaded from under this generation's key on `topo`,
    /// made this collective's: a TACOS entry — stored by a request of the
    /// same cost shape, possibly at another size or link spec — is
    /// rescaled in place to this collective's cost quantum. `None` when
    /// its times do not rescale (a damaged file): a miss.
    fn fit(&self, topo: &Topology, mut algo: CollectiveAlgorithm) -> Option<CollectiveAlgorithm> {
        // Baseline keys hold the exact link spec and size.
        if matches!(self.generator, Generator::Baseline(_)) {
            return Some(algo);
        }
        let (chunk, total) = (self.collective.chunk_size(), self.collective.total_size());
        let from = AlgorithmCache::stored_quantum(topo, &algo)?;
        let to = self.cost_quantum(topo);
        if from != to || algo.chunk_size() != chunk || algo.total_size() != total {
            algo.rescale(from, to, chunk, total).ok()?;
        }
        Some(algo)
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
        let plan = self.mechanism.plan(pattern, topo, size, chunks)?;
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
                match cache.load(&key).and_then(|algo| generation.fit(topo, algo)) {
                    Some(algorithm) => (algorithm, Some(CacheOutcome::Hit)),
                    None => {
                        let algorithm = generation.schedule(topo, scratch)?;
                        let _ = cache.store(&key, &algorithm);
                        (algorithm, Some(CacheOutcome::Miss))
                    }
                }
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
