//! Coarse wall-clock probe for the matching hot path at mesh scale.
//!
//! ```sh
//! cargo run --release -p tacos-core --example profile_matching -- \
//!     <side> <chunking> [record|norecord] [reference|event] [seed]
//! ```
//!
//! Synthesizes All-Gather on a side×side 2D mesh twice with one warm
//! scratch (the first call pays the allocations) and prints the second
//! call's duration. Useful for splitting "how much of a scenario point
//! is matching vs recording" without a system profiler; a diagnostic,
//! not a perf record (that is `bench/`).

use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{SynthesisScratch, Synthesizer, SynthesizerConfig};
use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let side: usize = args.get(1).map_or(16, |s| s.parse().unwrap());
    let chunking: usize = args.get(2).map_or(16, |s| s.parse().unwrap());
    let record = args.get(3).is_none_or(|s| s == "record");
    let reference = args.get(4).is_some_and(|s| s == "reference");
    let seed: u64 = args.get(5).map_or(1, |s| s.parse().unwrap());

    let n = side * side;
    let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(side, side, spec).unwrap();
    let coll = Collective::with_chunking(
        CollectivePattern::AllGather,
        n,
        chunking,
        ByteSize::mb(1000),
    )
    .unwrap();
    let synth = Synthesizer::new(
        SynthesizerConfig::default()
            .with_record_transfers(record)
            .with_reference_matching(reference),
    );
    let mut scratch = SynthesisScratch::new();
    let mut last = None;
    for round in 0..2 {
        let started = std::time::Instant::now();
        let result = synth
            .synthesize_seeded_with(&topo, &coll, seed, &mut scratch)
            .unwrap();
        let took = started.elapsed();
        println!(
            "run {round}: {took:?} ({} transfers, collective {} ps)",
            result.num_transfers(),
            result.collective_time().as_ps(),
        );
        last = Some(took);
    }
    println!("warm: {:?}", last.unwrap());
}
