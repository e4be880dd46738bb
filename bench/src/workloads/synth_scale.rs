//! `synth_scale`: see `bench/workloads/synth_scale.toml` for why.

use std::time::Instant;

use tacos_core::{SynthesisResult, SynthesisScratch, Synthesizer, SynthesizerConfig};
use tacos_scenario::{parse_pattern, parse_size};
use tacos_topology::{ByteSize, Topology};

use super::{get_str, get_tables, get_usize, parse_file};
use crate::eval;
use crate::gen::{scaled, Rng};
use crate::harness::{Pass, Quality, RunArgs, Workload};
use crate::sys::Stopwatch;
use crate::trace::{Tracer, NONE};

#[derive(Debug, Clone, PartialEq)]
struct Config {
    topology: String,
    collective: String,
    chunks: usize,
}

/// One synthesis: a config and the seed it is synthesized under.
#[derive(Debug, Clone, PartialEq)]
struct Op {
    config: usize,
    seed: u64,
}

#[derive(Debug)]
struct Plan {
    configs: Vec<Config>,
    size: ByteSize,
    /// One op per config, run untimed at the end of set-up.
    warmup: Vec<Op>,
    ops: Vec<Op>,
}

fn plan(seed: u64, scale: f64) -> Result<Plan, String> {
    let doc = parse_file(
        "synth_scale",
        include_str!("../../workloads/synth_scale.toml"),
    )?;
    let configs = get_tables(&doc, "config")?
        .into_iter()
        .map(|t| {
            Ok(Config {
                topology: get_str(t, "topology")?.to_string(),
                collective: get_str(t, "collective")?.to_string(),
                chunks: get_usize(t, "chunks")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut rng = Rng::new(seed, "synth_scale");
    // Configs in file order every pass: the allocator's behaviour (and
    // with it peak RSS and page-fault cost) depends on the order in which
    // schedule sizes follow each other, so only the seeds vary.
    let pass = |rng: &mut Rng| -> Vec<Op> {
        (0..configs.len())
            .map(|config| Op {
                config,
                seed: rng.synth_seed(),
            })
            .collect()
    };
    let warmup = pass(&mut rng);
    let ops = (0..scaled(get_usize(&doc, "passes")?, scale))
        .flat_map(|_| pass(&mut rng))
        .collect();
    Ok(Plan {
        size: parse_size(get_str(&doc, "size")?)?,
        configs,
        warmup,
        ops,
    })
}

pub struct SynthScale {
    plan: Plan,
    /// `bench sanity`: the reference matcher, slow by design.
    reference_matching: bool,
    scratch: SynthesisScratch,
    /// Ideal bound per config, computed once in set-up.
    ideal_ps: Vec<u64>,
    quality: Vec<Quality>,
}

/// Planned == simulated is checked on warm-up schedules up to this many
/// transfers (simulating the million-transfer ones costs 0.7 s each);
/// the structural validators run on all of them.
const SIMULATE_UP_TO_TRANSFERS: u64 = 600_000;

impl SynthScale {
    pub fn new(args: &RunArgs) -> Result<Self, String> {
        Ok(SynthScale {
            plan: plan(args.seed, args.scale)?,
            reference_matching: args.slow,
            scratch: SynthesisScratch::new(),
            ideal_ps: Vec::new(),
            quality: Vec::new(),
        })
    }

    /// The op: constructor string to recorded schedule.
    fn run_op(
        &mut self,
        tr: &mut Tracer,
        id: u32,
        op: &Op,
    ) -> Result<(Topology, SynthesisResult), String> {
        let config = &self.plan.configs[op.config];
        let topo = eval::build_topology(tr, id, &config.topology)?;
        let pattern = parse_pattern(&config.collective, topo.num_npus())?;
        let collective = eval::build_collective(
            tr,
            id,
            pattern,
            topo.num_npus(),
            config.chunks,
            self.plan.size,
        )?;
        let synth = Synthesizer::new(
            SynthesizerConfig::default()
                .with_seed(op.seed)
                .with_reference_matching(self.reference_matching),
        );
        let result = eval::synthesize(tr, id, &synth, &topo, &collective, &mut self.scratch)?;
        Ok((topo, result))
    }

    fn ideal_bounds(&self) -> Result<Vec<u64>, String> {
        let mut off = Tracer::off();
        self.plan
            .configs
            .iter()
            .map(|c| {
                let topo = eval::build_topology(&mut off, NONE, &c.topology)?;
                let pattern = parse_pattern(&c.collective, topo.num_npus())?;
                Ok(eval::ideal_time(&mut off, NONE, &topo, pattern, self.plan.size).as_ps())
            })
            .collect()
    }
}

fn verify(topo: &Topology, result: &SynthesisResult) -> Result<(), String> {
    eval::verify_schedule(topo, result.algorithm())?;
    if result.num_transfers() <= SIMULATE_UP_TO_TRANSFERS {
        let mut off = Tracer::off();
        let simulated = eval::simulate(&mut off, NONE, topo, result.algorithm())?;
        if simulated.collective_time() != result.collective_time() {
            return Err(format!(
                "{}: planned {} != simulated {}",
                topo.name(),
                result.collective_time(),
                simulated.collective_time()
            ));
        }
    }
    Ok(())
}

impl Workload for SynthScale {
    fn setup(&mut self, rep: usize, _tr: &mut Tracer, clock: &mut Stopwatch) -> Result<(), String> {
        self.scratch = SynthesisScratch::new();
        if rep == 0 {
            self.ideal_ps = clock.excluding(|| self.ideal_bounds())?;
        }
        let mut off = Tracer::off();
        for op in self.plan.warmup.clone() {
            let (topo, result) = self.run_op(&mut off, NONE, &op)?;
            if rep == 0 {
                clock.excluding(|| verify(&topo, &result))?;
            }
        }
        Ok(())
    }

    fn measure(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let ops = self.plan.ops.clone();
        let mut pass = Pass::default();
        self.quality.clear();
        let started = Instant::now();
        for (id, op) in ops.iter().enumerate() {
            let op_started = Instant::now();
            let span = tr.begin("op", id as u32);
            let outcome = self.run_op(tr, id as u32, op);
            tr.end(span);
            let latency = op_started.elapsed();
            match outcome {
                Ok((_, result)) => {
                    pass.latencies_ms.push(latency.as_secs_f64() * 1e3);
                    self.quality.push(Quality {
                        time_ps: result.collective_time().as_ps(),
                        ideal_ps: self.ideal_ps[op.config],
                    });
                }
                Err(_) => pass.failed += 1,
            }
        }
        pass.wall = started.elapsed();
        Ok(pass)
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // One schedule per config through the codec and the TEN replay.
        let mut off = Tracer::off();
        for op in self.plan.warmup.clone() {
            let (topo, result) = self.run_op(&mut off, NONE, &op)?;
            eval::probe_schedule(tr, &topo, result.algorithm())?;
        }
        Ok(())
    }

    fn quality(&self) -> &[Quality] {
        &self.quality
    }

    fn teardown(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list() {
        let a = plan(7, 1.0).unwrap();
        let b = plan(7, 1.0).unwrap();
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_eq!(a.warmup, b.warmup);
        assert_ne!(a.ops, plan(8, 1.0).unwrap().ops);
    }

    #[test]
    fn every_pass_covers_every_config_once() {
        let p = plan(3, 1.0).unwrap();
        let n = p.configs.len();
        assert_eq!(
            n % 2,
            1,
            "an odd config count keeps the median inside one config"
        );
        assert_eq!(p.ops.len() % n, 0);
        for pass in p.ops.chunks(n) {
            let mut seen: Vec<usize> = pass.iter().map(|op| op.config).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
        assert!(crate::stats::tail_percentile(p.ops.len()).is_some());
    }
}
