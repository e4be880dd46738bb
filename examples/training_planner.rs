//! Domain scenario: planning communication for a training job.
//!
//! Given a cluster (256-NPU 3D-RFS) and a model (Turing-NLG), evaluate
//! every available communication mechanism end-to-end, pick the winner,
//! and persist its synthesized schedule through the on-disk cache so the
//! job's CCL can load it at startup — the full production loop the paper
//! motivates (Fig. 3).
//!
//! ```sh
//! cargo run --release --example training_planner
//! ```

use tacos::prelude::*;
use tacos_baselines::BaselineKind;
use tacos_core::{CacheOutcome, SynthesisScratch};
use tacos_report::Table;
use tacos_workload::{Evaluator, SynthMechanism};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo =
        tacos_topology::Topology::rfs_3d(2, 4, 16, Time::from_micros(0.5), [200.0, 100.0, 50.0])?;
    let workload = Workload::turing_nlg();
    println!(
        "planning {} training on {} ({} gradient All-Reduce per step)\n",
        workload.name(),
        topo.name(),
        workload.weight_grad()
    );

    let eval = TrainingEvaluator::new(&topo).with_chunks(1);
    let tacos = Mechanism::Tacos(SynthMechanism {
        config: SynthesizerConfig::default().with_attempts(8),
        chunks: None,
    });
    let mechanisms = vec![
        Mechanism::Baseline(BaselineKind::Ring),
        Mechanism::Baseline(BaselineKind::Direct),
        Mechanism::Baseline(BaselineKind::Themis { chunks: 4 }),
        tacos.clone(),
        Mechanism::Ideal,
    ];
    let mut table = Table::new(vec!["mechanism", "exposed comm", "iteration", "vs best"]);
    let mut results = Vec::new();
    for m in &mechanisms {
        let report = eval.evaluate(&workload, m)?;
        results.push((m.name(), report));
    }
    let best_real = results
        .iter()
        .filter(|(n, _)| *n != "ideal")
        .min_by_key(|(_, r)| r.total())
        .expect("nonempty")
        .1
        .total();
    for (name, r) in &results {
        table.row(vec![
            (*name).into(),
            format!("{}", r.comm()),
            format!("{}", r.total()),
            format!("{:.2}x", r.total().as_secs_f64() / best_real.as_secs_f64()),
        ]);
    }
    print!("{table}");

    // Persist the winning TACOS schedule for the job's CCL: the same
    // evaluation pipeline, now routed through an on-disk cache.
    let cache_dir = std::env::temp_dir().join("tacos-training-planner");
    let cache = AlgorithmCache::new(&cache_dir)?;
    let evaluator = Evaluator::new(&topo, &tacos).with_cache(Some(&cache), "tacos");
    let (pattern, size) = (CollectivePattern::AllReduce, workload.weight_grad());
    let first = evaluator.evaluate(pattern, size, 1, &mut SynthesisScratch::new())?;
    println!(
        "\ncached winning schedule ({} transfers) under {}",
        first.transfers,
        cache_dir.display()
    );
    // A second evaluation hits the cache (identical schedule, no synthesis).
    let again = evaluator.evaluate(pattern, size, 1, &mut SynthesisScratch::new())?;
    assert_eq!(again.cache, Some(CacheOutcome::Hit));
    assert_eq!(first.algorithm, again.algorithm);
    println!("cache hit verified; the CCL can now load this at job start.");
    Ok(())
}
