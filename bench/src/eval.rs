//! Calls into the library crates, one span per layer boundary.
//!
//! Every workload goes through these helpers, so a layer's time is
//! measured around the same public function wherever it is called from.

use tacos_baselines::{BaselineAlgorithm, IdealBound};
use tacos_collective::algorithm::{validate_links, CollectiveAlgorithm};
use tacos_collective::{export, Collective, CollectivePattern};
use tacos_core::{
    AlgorithmCache, SynthesisResult, SynthesisScratch, Synthesizer, SynthesizerConfig,
};
use tacos_scenario::{parse_pattern, parse_size, parse_topology, LinkAxis, Mechanism};
use tacos_sim::{SimReport, Simulator};
use tacos_ten::{Arrival, ExpandingTen};
use tacos_topology::{ByteSize, LinkSpec, Time, Topology};

use crate::trace::Tracer;

/// The link every homogeneous constructor string is built with (the
/// paper's 0.5 us / 50 GB/s; also the wire protocol's default).
pub fn paper_link() -> LinkSpec {
    LinkAxis::default_paper().to_spec()
}

pub fn build_topology(tr: &mut Tracer, op: u32, spec: &str) -> Result<Topology, String> {
    tr.span("topology.build", op, || parse_topology(spec, paper_link()))
}

pub fn build_collective(
    tr: &mut Tracer,
    op: u32,
    pattern: CollectivePattern,
    num_npus: usize,
    chunks: usize,
    size: ByteSize,
) -> Result<Collective, String> {
    tr.span("collective.build", op, || {
        Collective::with_chunking(pattern, num_npus, chunks, size)
    })
    .map_err(|e| e.to_string())
}

/// One seeded synthesis attempt with transfer recording on.
pub fn synthesize(
    tr: &mut Tracer,
    op: u32,
    synth: &Synthesizer,
    topo: &Topology,
    collective: &Collective,
    scratch: &mut SynthesisScratch,
) -> Result<SynthesisResult, String> {
    let result = tr
        .span("core.synthesize", op, || {
            synth.synthesize_with(topo, collective, scratch)
        })
        .map_err(|e| e.to_string())?;
    tr.add("core.transfers", result.num_transfers() as f64);
    tr.add("core.rounds", result.rounds() as f64);
    Ok(result)
}

/// Best-of-N the way a caller reaches it: through `parallel.rs` when
/// untraced; attempt by attempt on this thread when traced, so each
/// attempt has its own span (same seeds `seed, seed+1, ..`, same
/// winner rule: smallest collective time, ties to the lower attempt).
pub fn synthesize_best_of(
    tr: &mut Tracer,
    op: u32,
    config: &SynthesizerConfig,
    topo: &Topology,
    collective: &Collective,
    scratch: &mut SynthesisScratch,
) -> Result<SynthesisResult, String> {
    let attempts = config.attempts();
    tr.add("core.attempts", attempts as f64);
    tr.add("core.attempts_kept", 1.0);
    if !tr.enabled() {
        return Synthesizer::new(config.clone())
            .synthesize_with(topo, collective, scratch)
            .map_err(|e| e.to_string());
    }
    let mut best: Option<SynthesisResult> = None;
    for attempt in 0..attempts as u64 {
        let single = config
            .clone()
            .with_attempts(1)
            .with_seed(config.seed().wrapping_add(attempt));
        let result = synthesize(tr, op, &Synthesizer::new(single), topo, collective, scratch)?;
        if best
            .as_ref()
            .is_none_or(|b| result.collective_time() < b.collective_time())
        {
            best = Some(result);
        }
    }
    best.ok_or_else(|| "best-of-N ran no attempt".to_string())
}

pub fn simulate(
    tr: &mut Tracer,
    op: u32,
    topo: &Topology,
    algo: &CollectiveAlgorithm,
) -> Result<SimReport, String> {
    let report = tr
        .span("sim.simulate", op, || Simulator::new().simulate(topo, algo))
        .map_err(|e| e.to_string())?;
    tr.add("sim.messages", report.messages() as f64);
    if algo
        .planned_time()
        .is_some_and(|planned| planned != report.collective_time())
    {
        tr.add("sim.plan_mismatches", 1.0);
    }
    Ok(report)
}

pub fn ideal_time(
    tr: &mut Tracer,
    op: u32,
    topo: &Topology,
    pattern: CollectivePattern,
    size: ByteSize,
) -> Time {
    tr.span("baselines.ideal", op, || {
        IdealBound::new(topo).collective_time(pattern, size)
    })
}

pub fn parse_mechanism(
    tr: &mut Tracer,
    op: u32,
    spec: &str,
    base: &SynthesizerConfig,
) -> Result<Mechanism, String> {
    tr.span("workload.mechanism_parse", op, || {
        Mechanism::parse(spec, base)
    })
}

/// The cache key of a generated schedule, as the scenario runner and the
/// daemon both derive it.
pub fn cache_key(
    tr: &mut Tracer,
    op: u32,
    mechanism: &Mechanism,
    mechanism_spec: &str,
    topo: &Topology,
    collective: &Collective,
) -> Option<String> {
    tr.span("core.key", op, || match mechanism {
        Mechanism::Tacos(m) => Some(AlgorithmCache::key_with_tag(
            "tacos",
            &Synthesizer::new(m.config.clone()),
            topo,
            collective,
        )),
        Mechanism::Baseline(kind) => Some(AlgorithmCache::key_for_generator(
            mechanism_spec,
            topo,
            collective,
            kind.seed().unwrap_or(0),
        )),
        Mechanism::Ideal => None,
    })
}

/// Mechanism → schedule → completion time, the library way: TACOS
/// schedules carry their planned time, baseline schedules are simulated.
pub fn generate(
    tr: &mut Tracer,
    op: u32,
    mechanism: &Mechanism,
    topo: &Topology,
    collective: &Collective,
    scratch: &mut SynthesisScratch,
) -> Result<(CollectiveAlgorithm, Time), String> {
    match mechanism {
        Mechanism::Tacos(m) => {
            let result = synthesize_best_of(tr, op, &m.config, topo, collective, scratch)?;
            let time = result.collective_time();
            Ok((result.into_algorithm(), time))
        }
        Mechanism::Baseline(kind) => {
            let algo = tr
                .span("baselines.generate", op, || {
                    BaselineAlgorithm::new(kind.clone()).generate(topo, collective)
                })
                .map_err(|e| e.to_string())?;
            let time = simulate(tr, op, topo, &algo)?.collective_time();
            Ok((algo, time))
        }
        Mechanism::Ideal => Err("the ideal bound generates no schedule".into()),
    }
}

/// A request or grid point in the shared string vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    pub topology: String,
    pub collective: String,
    pub size: String,
    pub chunks: usize,
    pub mechanism: String,
    pub seed: u64,
}

/// What the library answers for `key`: completion time and ideal bound.
/// The reference every served answer is checked against.
pub fn library_answer(
    tr: &mut Tracer,
    key: &Key,
    scratch: &mut SynthesisScratch,
) -> Result<(Time, Time), String> {
    let op = crate::trace::NONE;
    let topo = build_topology(tr, op, &key.topology)?;
    let pattern = parse_pattern(&key.collective, topo.num_npus())?;
    let size = parse_size(&key.size)?;
    let base = SynthesizerConfig::default().with_seed(key.seed);
    let mechanism = parse_mechanism(tr, op, &key.mechanism, &base)?;
    let ideal = ideal_time(tr, op, &topo, pattern, size);
    if mechanism == Mechanism::Ideal {
        return Ok((ideal, ideal));
    }
    let collective = build_collective(tr, op, pattern, topo.num_npus(), key.chunks, size)?;
    let (algo, time) = generate(tr, op, &mechanism, &topo, &collective, scratch)?;
    verify_schedule(&topo, &algo)?;
    Ok((time, ideal))
}

/// The three structural validators every schedule must pass.
pub fn verify_schedule(topo: &Topology, algo: &CollectiveAlgorithm) -> Result<(), String> {
    if algo.is_fully_scheduled() {
        algo.validate_contention_free()?;
        validate_links(algo, topo)?;
    }
    algo.validate_causal()
}

/// Layer probes on one schedule, outside any op: the compact codec both
/// ways and the schedule replayed through the expanding TEN.
pub fn probe_schedule(
    tr: &mut Tracer,
    topo: &Topology,
    algo: &CollectiveAlgorithm,
) -> Result<(), String> {
    let op = crate::trace::NONE;
    let text = tr.span("collective.encode", op, || export::to_compact(algo));
    tr.add("collective.encoded_bytes", text.len() as f64);
    let decoded = tr.span("collective.decode", op, || export::from_compact(&text))?;
    if decoded.len() != algo.len() || decoded.collective_time() != algo.collective_time() {
        return Err("compact codec round trip changed the schedule".into());
    }
    if algo.is_fully_scheduled() {
        let events = tr.span("ten.replay", op, || replay_through_ten(topo, algo));
        tr.add("ten.events", events as f64);
    }
    Ok(())
}

/// List-schedules the transfers in planned-start order on a fresh TEN:
/// one `occupy` per transfer, `advance_into` whenever the planned start
/// or the link is still in the future. Returns the occupy count.
fn replay_through_ten(topo: &Topology, algo: &CollectiveAlgorithm) -> u64 {
    let mut order: Vec<u32> = (0..algo.len() as u32).collect();
    order.sort_by_key(|&i| algo.transfers()[i as usize].start());
    let mut ten = ExpandingTen::new(topo, algo.chunk_size());
    ten.reset(topo, algo.chunk_size());
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut events = 0u64;
    for i in order {
        let t = &algo.transfers()[i as usize];
        let (Some(link), Some(start)) = (t.link(), t.start()) else {
            continue;
        };
        if link.index() >= topo.num_links() {
            continue;
        }
        while ten.pending() > 0 && (ten.now() < start || !ten.is_free(link)) {
            ten.advance_into(&mut arrivals);
        }
        ten.occupy(link, t.chunk());
        events += 1;
    }
    while ten.pending() > 0 {
        ten.advance_into(&mut arrivals);
    }
    events
}
