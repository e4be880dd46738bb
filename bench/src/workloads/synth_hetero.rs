//! `synth_hetero`: see `bench/workloads/synth_hetero.toml` for why.

use std::time::Instant;

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::CollectivePattern;
use tacos_core::{SynthesisScratch, SynthesizerConfig};
use tacos_scenario::toml::{Table, Value};
use tacos_scenario::{
    parse_pattern, parse_size, select_failed_links, CustomTopology, CustomTopologyBody, Mechanism,
    SynthMechanism, WithoutLinks,
};
use tacos_topology::{ByteSize, Topology};

use super::{get_str, get_strs, get_tables, get_usize, parse_file};
use crate::eval;
use crate::gen::{scaled, Rng};
use crate::harness::{Pass, Quality, RunArgs, Workload};
use crate::sys::Stopwatch;
use crate::trace::{Tracer, NONE};

/// How a fabric is described in the workload file.
#[derive(Debug, Clone, PartialEq)]
enum Shape {
    /// A `parse_topology` constructor string on the paper link.
    Constructor(String),
    /// The scenario `[[topologies]]` family form.
    Family {
        base: String,
        alpha_us: f64,
        tier_gbps: Vec<f64>,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct Fabric {
    shape: Shape,
    /// Links removed before evaluation.
    without_links: usize,
    collective: String,
    size: ByteSize,
    chunks: usize,
    baselines: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
struct Op {
    fabric: usize,
    seed: u64,
}

#[derive(Debug)]
struct Plan {
    fabrics: Vec<Fabric>,
    attempts: usize,
    /// Seeds the degraded fabrics' victim selection. Fixed by the
    /// workload file: the fabrics are the same under every `--seed`.
    victim_seed: u64,
    warmup: Vec<Op>,
    ops: Vec<Op>,
}

fn parse_fabric(t: &Table) -> Result<Fabric, String> {
    let shape = match t.get("base") {
        Some(base) => Shape::Family {
            base: base.as_str().ok_or("'base' must be a string")?.to_string(),
            alpha_us: t
                .get("alpha_us")
                .and_then(Value::as_float)
                .ok_or("'alpha_us' must be a number")?,
            tier_gbps: t
                .get("tier_gbps")
                .and_then(Value::as_array)
                .and_then(|a| a.iter().map(Value::as_float).collect())
                .ok_or("'tier_gbps' must be an array of numbers")?,
        },
        None => Shape::Constructor(get_str(t, "topology")?.to_string()),
    };
    Ok(Fabric {
        shape,
        without_links: if t.contains_key("without_links") {
            get_usize(t, "without_links")?
        } else {
            0
        },
        collective: get_str(t, "collective")?.to_string(),
        size: parse_size(get_str(t, "size")?)?,
        chunks: get_usize(t, "chunks")?,
        baselines: get_strs(t, "baselines")?,
    })
}

fn plan(seed: u64, scale: f64) -> Result<Plan, String> {
    let doc = parse_file(
        "synth_hetero",
        include_str!("../../workloads/synth_hetero.toml"),
    )?;
    let fabrics = get_tables(&doc, "fabric")?
        .into_iter()
        .map(parse_fabric)
        .collect::<Result<Vec<_>, String>>()?;
    let mut rng = Rng::new(seed, "synth_hetero");
    // Fabrics in file order every pass (see synth_scale): only the seeds vary.
    let pass = |rng: &mut Rng| -> Vec<Op> {
        (0..fabrics.len())
            .map(|fabric| Op {
                fabric,
                seed: rng.synth_seed(),
            })
            .collect()
    };
    let warmup = pass(&mut rng);
    let ops = (0..scaled(get_usize(&doc, "passes")?, scale))
        .flat_map(|_| pass(&mut rng))
        .collect();
    Ok(Plan {
        attempts: get_usize(&doc, "attempts")?,
        victim_seed: get_usize(&doc, "victim_seed")? as u64,
        fabrics,
        warmup,
        ops,
    })
}

fn build(tr: &mut Tracer, fabric: &Fabric, victim_seed: u64) -> Result<Topology, String> {
    tr.span("topology.build", NONE, || {
        let topo = match &fabric.shape {
            Shape::Constructor(spec) => tacos_scenario::parse_topology(spec, eval::paper_link())?,
            Shape::Family {
                base,
                alpha_us,
                tier_gbps,
            } => CustomTopology {
                name: base.clone(),
                body: CustomTopologyBody::Family {
                    base: base.clone(),
                    alpha_us: *alpha_us,
                    tier_gbps: tier_gbps.clone(),
                },
            }
            .build()?,
        };
        if fabric.without_links == 0 {
            return Ok(topo);
        }
        let victims = select_failed_links(
            &topo,
            &WithoutLinks::Count(fabric.without_links),
            victim_seed,
        )?;
        topo.without_links(&victims).map_err(|e| e.to_string())
    })
}

/// Everything one evaluation produced; the measured pass keeps only the
/// times, set-up verifies the schedules.
struct Evaluation {
    tacos: CollectiveAlgorithm,
    planned_ps: u64,
    simulated_ps: u64,
    baselines: Vec<CollectiveAlgorithm>,
    ideal_ps: u64,
}

pub struct SynthHetero {
    plan: Plan,
    topologies: Vec<Topology>,
    patterns: Vec<CollectivePattern>,
    scratch: SynthesisScratch,
    quality: Vec<Quality>,
}

impl SynthHetero {
    pub fn new(args: &RunArgs) -> Result<Self, String> {
        Ok(SynthHetero {
            plan: plan(args.seed, args.scale)?,
            topologies: Vec::new(),
            patterns: Vec::new(),
            scratch: SynthesisScratch::new(),
            quality: Vec::new(),
        })
    }

    fn run_op(&mut self, tr: &mut Tracer, id: u32, op: &Op) -> Result<Evaluation, String> {
        let fabric = &self.plan.fabrics[op.fabric];
        let topo = &self.topologies[op.fabric];
        let pattern = self.patterns[op.fabric];
        let collective =
            eval::build_collective(tr, id, pattern, topo.num_npus(), fabric.chunks, fabric.size)?;
        let config = SynthesizerConfig::default()
            .with_seed(op.seed)
            .with_attempts(self.plan.attempts);
        let tacos = Mechanism::Tacos(SynthMechanism {
            config: config.clone(),
            chunks: None,
        });
        let (winner, planned) =
            eval::generate(tr, id, &tacos, topo, &collective, &mut self.scratch)?;
        let simulated = eval::simulate(tr, id, topo, &winner)?.collective_time();
        let mut baselines = Vec::with_capacity(fabric.baselines.len());
        for spec in &fabric.baselines {
            let mechanism = eval::parse_mechanism(tr, id, spec, &config)?;
            // Baselines run unchunked, as in the scenario runner's grids.
            let unchunked =
                eval::build_collective(tr, id, pattern, topo.num_npus(), 1, fabric.size)?;
            let (algo, _) =
                eval::generate(tr, id, &mechanism, topo, &unchunked, &mut self.scratch)?;
            baselines.push(algo);
        }
        let ideal = eval::ideal_time(tr, id, topo, pattern, fabric.size);
        Ok(Evaluation {
            tacos: winner,
            planned_ps: planned.as_ps(),
            simulated_ps: simulated.as_ps(),
            baselines,
            ideal_ps: ideal.as_ps(),
        })
    }

    fn verify(&self, op: &Op, evaluation: &Evaluation) -> Result<(), String> {
        let topo = &self.topologies[op.fabric];
        eval::verify_schedule(topo, &evaluation.tacos)?;
        for algo in &evaluation.baselines {
            eval::verify_schedule(topo, algo)?;
        }
        Ok(())
    }
}

impl Workload for SynthHetero {
    fn setup(&mut self, rep: usize, tr: &mut Tracer, clock: &mut Stopwatch) -> Result<(), String> {
        self.scratch = SynthesisScratch::new();
        self.topologies = self
            .plan
            .fabrics
            .iter()
            .map(|f| build(tr, f, self.plan.victim_seed))
            .collect::<Result<_, _>>()?;
        self.patterns = self
            .plan
            .fabrics
            .iter()
            .zip(&self.topologies)
            .map(|(f, topo)| parse_pattern(&f.collective, topo.num_npus()))
            .collect::<Result<_, _>>()?;
        let mut off = Tracer::off();
        for op in self.plan.warmup.clone() {
            let evaluation = self.run_op(&mut off, NONE, &op)?;
            if evaluation.planned_ps != evaluation.simulated_ps {
                return Err(format!("fabric {}: planned != simulated", op.fabric));
            }
            if rep == 0 {
                clock.excluding(|| self.verify(&op, &evaluation))?;
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
                Ok(e) if e.planned_ps == e.simulated_ps => {
                    pass.latencies_ms.push(latency.as_secs_f64() * 1e3);
                    self.quality.push(Quality {
                        time_ps: e.planned_ps,
                        ideal_ps: e.ideal_ps,
                    });
                }
                _ => pass.failed += 1,
            }
        }
        pass.wall = started.elapsed();
        Ok(pass)
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut off = Tracer::off();
        for op in self.plan.warmup.clone() {
            let evaluation = self.run_op(&mut off, NONE, &op)?;
            eval::probe_schedule(tr, &self.topologies[op.fabric], &evaluation.tacos)?;
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
        let a = plan(11, 1.0).unwrap();
        let b = plan(11, 1.0).unwrap();
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_ne!(a.ops, plan(12, 1.0).unwrap().ops);
    }

    #[test]
    fn fabrics_are_heterogeneous_and_the_count_is_odd() {
        let p = plan(1, 1.0).unwrap();
        assert_eq!(p.fabrics.len() % 2, 1);
        assert!(p.fabrics.iter().any(|f| f.without_links > 0));
        assert!(p
            .fabrics
            .iter()
            .any(|f| matches!(f.shape, Shape::Family { .. })));
        let mut off = Tracer::off();
        for f in &p.fabrics {
            let topo = build(&mut off, f, p.victim_seed).unwrap();
            assert!((8..=128).contains(&topo.num_npus()), "{}", topo.name());
            assert!(!topo.is_homogeneous() || f.without_links > 0 || topo.num_npus() <= 64);
        }
    }
}
