//! Best-of-N search parity: scoring attempts unrecorded and replaying
//! only the winner must return exactly what the naive search returns —
//! record every attempt with `synthesize_seeded`, then take the argmin of
//! (collective time, attempt index).

use proptest::prelude::*;
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{SynthesisResult, Synthesizer, SynthesizerConfig};
use tacos_topology::{
    parse_topology, Bandwidth, ByteSize, LinkId, LinkSpec, NpuId, Time, Topology,
};

const FABRICS: [&str; 5] = [
    "rfs:2x2x2",
    "dragonfly:3x3",
    "switch2d:3x3:0.25",
    "rfs:2x2x3:3x2x1",
    "torus:3x3",
];

/// A heterogeneous fabric, degraded by up to two of the picked links
/// (a pick that would disconnect the fabric is skipped).
fn fabric(kind: usize, victims: &[usize]) -> Topology {
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let mut topo = parse_topology(FABRICS[kind], link).unwrap();
    for &v in victims {
        if let Ok(degraded) = topo.without_links(&[LinkId::new((v % topo.num_links()) as u32)]) {
            topo = degraded;
        }
    }
    topo
}

/// Every pattern the synthesizer dispatches on.
fn pattern(kind: usize, root: usize, n: usize) -> CollectivePattern {
    let root = NpuId::new((root % n) as u32);
    match kind {
        0 => CollectivePattern::AllGather,
        1 => CollectivePattern::ReduceScatter,
        2 => CollectivePattern::AllReduce,
        3 => CollectivePattern::AllToAll,
        4 => CollectivePattern::Broadcast { root },
        5 => CollectivePattern::Reduce { root },
        6 => CollectivePattern::Gather { root },
        _ => CollectivePattern::Scatter { root },
    }
}

/// The naive search: every attempt recorded, the first minimum kept.
fn argmin_recorded(
    config: &SynthesizerConfig,
    topo: &Topology,
    coll: &Collective,
) -> SynthesisResult {
    let single = Synthesizer::new(config.clone().with_attempts(1).with_record_transfers(true));
    (0..config.attempts() as u64)
        .map(|i| {
            single
                .synthesize_seeded(topo, coll, config.seed().wrapping_add(i))
                .unwrap()
        })
        .reduce(|best, r| {
            if r.collective_time() < best.collective_time() {
                r
            } else {
                best
            }
        })
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn best_of_equals_the_argmin_over_recorded_attempts(
        kind in 0usize..5,
        victims in prop::collection::vec(any::<usize>(), 0..3),
        pattern_kind in 0usize..8,
        root in 0usize..16,
        chunks in 1usize..3,
        attempts in 1usize..10,
        record in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let topo = fabric(kind, &victims);
        let n = topo.num_npus();
        let coll = Collective::with_chunking(
            pattern(pattern_kind, root, n),
            n,
            chunks,
            ByteSize::mb(16),
        )
        .unwrap();
        let config = SynthesizerConfig::default()
            .with_seed(seed)
            .with_attempts(attempts)
            .with_record_transfers(record);
        let best = Synthesizer::new(config.clone()).synthesize(&topo, &coll).unwrap();
        let naive = argmin_recorded(&config, &topo, &coll);
        prop_assert_eq!(best.seed(), naive.seed());
        prop_assert_eq!(best.collective_time(), naive.collective_time());
        prop_assert_eq!(best.rounds(), naive.rounds());
        prop_assert_eq!(best.num_transfers(), naive.num_transfers());
        if record {
            // Byte-identical schedules, dependency edges included.
            prop_assert_eq!(best.algorithm(), naive.algorithm());
        } else {
            prop_assert!(best.algorithm().is_empty());
            prop_assert_eq!(best.algorithm().planned_time(), Some(naive.collective_time()));
        }
    }
}
