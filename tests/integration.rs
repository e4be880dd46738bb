//! Cross-crate integration: synthesize → validate → simulate across every
//! topology family and collective pattern.

use tacos::prelude::*;
use tacos_collective::algorithm::validate_links;
use tacos_collective::CollectivePattern;
use tacos_topology::{Bandwidth, RingOrientation};

fn spec() -> LinkSpec {
    LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
}

fn every_topology() -> Vec<Topology> {
    vec![
        Topology::ring(6, spec(), RingOrientation::Unidirectional).unwrap(),
        Topology::ring(6, spec(), RingOrientation::Bidirectional).unwrap(),
        Topology::fully_connected(5, spec()).unwrap(),
        Topology::mesh_2d(3, 4, spec()).unwrap(),
        Topology::torus_2d(3, 3, spec()).unwrap(),
        Topology::torus_3d(2, 3, 2, spec()).unwrap(),
        Topology::hypercube_3d(2, 2, 3, spec()).unwrap(),
        Topology::binary_hypercube(3, spec()).unwrap(),
        Topology::switch(6, spec(), 2).unwrap(),
        Topology::switch_2d(4, 3, Time::from_micros(0.5), [300.0, 25.0]).unwrap(),
        Topology::rfs_3d(2, 3, 2, Time::from_micros(0.5), [200.0, 100.0, 50.0]).unwrap(),
        Topology::dragonfly(
            3,
            4,
            spec(),
            LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(25.0)),
        )
        .unwrap(),
        Topology::dgx1(LinkSpec::new(Time::from_micros(0.7), Bandwidth::gbps(25.0))).unwrap(),
    ]
}

/// Invariants 1–5 of DESIGN.md §6 on every topology for every pattern.
#[test]
fn synthesis_is_valid_on_every_topology() {
    let sim = Simulator::new();
    for topo in every_topology() {
        let n = topo.num_npus();
        let patterns = [
            CollectivePattern::AllGather,
            CollectivePattern::ReduceScatter,
            CollectivePattern::AllReduce,
            CollectivePattern::Broadcast {
                root: NpuId::new(0),
            },
            CollectivePattern::Reduce {
                root: NpuId::new((n - 1) as u32),
            },
        ];
        for pattern in patterns {
            let coll = Collective::with_chunking(pattern, n, 1, ByteSize::mb(n as u64)).unwrap();
            let result = Synthesizer::new(SynthesizerConfig::default().with_seed(3))
                .synthesize(&topo, &coll)
                .unwrap_or_else(|e| panic!("{}/{pattern}: {e}", topo.name()));
            let algo = result.algorithm();
            let ctx = format!("{} / {pattern}", topo.name());
            algo.validate_contention_free()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            algo.validate_causal()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            validate_links(algo, &topo).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let report = sim.simulate(&topo, algo).unwrap();
            assert_eq!(
                report.collective_time(),
                result.collective_time(),
                "{ctx}: simulated != planned"
            );
        }
    }
}

/// Postcondition check by replay: every NPU ends with exactly the chunks
/// its pattern demands.
#[test]
fn postconditions_hold_after_synthesis() {
    for topo in every_topology() {
        let n = topo.num_npus();
        let coll = Collective::all_gather(n, ByteSize::mb(n as u64)).unwrap();
        let result = Synthesizer::new(SynthesizerConfig::default().with_seed(11))
            .synthesize(&topo, &coll)
            .unwrap();
        let mut holds: Vec<std::collections::HashSet<u32>> = (0..n)
            .map(|i| std::collections::HashSet::from([i as u32]))
            .collect();
        let mut transfers: Vec<_> = result.algorithm().transfers().iter().collect();
        transfers.sort_by_key(|t| t.start());
        for t in transfers {
            assert!(
                holds[t.src().index()].contains(&t.chunk().raw()),
                "{}: chunk {} sent from {} before it arrived",
                topo.name(),
                t.chunk(),
                t.src()
            );
            holds[t.dst().index()].insert(t.chunk().raw());
        }
        for (i, h) in holds.iter().enumerate() {
            assert_eq!(h.len(), n, "{}: NPU{i} incomplete", topo.name());
        }
    }
}

/// Reduction completeness (invariant 4): for Reduce-Scatter, each chunk's
/// transfers form an in-tree spanning all NPUs rooted at its owner.
#[test]
fn reduce_scatter_trees_span_all_npus() {
    for topo in every_topology() {
        let n = topo.num_npus();
        let coll = Collective::reduce_scatter(n, ByteSize::mb(n as u64)).unwrap();
        let result = Synthesizer::new(SynthesizerConfig::default().with_seed(5))
            .synthesize(&topo, &coll)
            .unwrap();
        for chunk in 0..n as u32 {
            let senders: Vec<_> = result
                .algorithm()
                .transfers()
                .iter()
                .filter(|t| t.chunk().raw() == chunk)
                .map(|t| t.src().raw())
                .collect();
            assert_eq!(senders.len(), n - 1, "{}: chunk {chunk}", topo.name());
            let unique: std::collections::HashSet<_> = senders.iter().collect();
            assert_eq!(unique.len(), n - 1, "{}: duplicate partial", topo.name());
            assert!(
                !senders.contains(&chunk),
                "{}: owner sent its own reduction away",
                topo.name()
            );
        }
    }
}

/// All baselines simulate successfully on their supported topologies.
#[test]
fn baselines_simulate_everywhere_supported() {
    use tacos::baselines::{BaselineAlgorithm, BaselineKind, TacclConfig};
    let sim = Simulator::new();
    for topo in every_topology() {
        let n = topo.num_npus();
        let coll = Collective::all_reduce(n, ByteSize::mb(n as u64)).unwrap();
        let mut kinds = vec![
            BaselineKind::RingUnidirectional,
            BaselineKind::Ring,
            BaselineKind::RingEmbedded { max_rings: 2 },
            BaselineKind::Direct,
            BaselineKind::MultiTree,
            BaselineKind::Dbt { pipeline: 2 },
            BaselineKind::TacclLike(TacclConfig {
                node_budget: 200,
                ..Default::default()
            }),
        ];
        if n.is_power_of_two() {
            kinds.push(BaselineKind::Rhd);
        }
        if !topo.dims().is_empty() {
            kinds.push(BaselineKind::BlueConnect { chunks: 2 });
            kinds.push(BaselineKind::Themis { chunks: 2 });
        }
        for kind in kinds {
            let name = kind.name();
            let algo = BaselineAlgorithm::new(kind)
                .generate(&topo, &coll)
                .unwrap_or_else(|e| panic!("{} / {name}: {e}", topo.name()));
            let report = sim
                .simulate(&topo, &algo)
                .unwrap_or_else(|e| panic!("{} / {name}: {e}", topo.name()));
            assert!(
                report.collective_time() > Time::ZERO,
                "{} / {name}",
                topo.name()
            );
        }
    }
}

/// The ideal bound is never beaten, by anyone (invariant of §V-A).
#[test]
fn nothing_beats_the_ideal_bound() {
    use tacos::baselines::{BaselineAlgorithm, BaselineKind, IdealBound};
    let sim = Simulator::new();
    for topo in every_topology() {
        let n = topo.num_npus();
        let size = ByteSize::mb(64);
        let coll = Collective::all_reduce(n, size).unwrap();
        let bound = IdealBound::new(&topo).lower_bound(CollectivePattern::AllReduce, size);
        let tacos = Synthesizer::new(SynthesizerConfig::default().with_attempts(4))
            .synthesize(&topo, &coll)
            .unwrap()
            .collective_time();
        assert!(
            tacos >= bound,
            "{}: tacos {tacos} < bound {bound}",
            topo.name()
        );
        let ring = BaselineAlgorithm::new(BaselineKind::Ring)
            .generate(&topo, &coll)
            .unwrap();
        let ring_time = sim.simulate(&topo, &ring).unwrap().collective_time();
        assert!(
            ring_time >= bound,
            "{}: ring beats the strict bound",
            topo.name()
        );
    }
}

/// The CLI-facing facade re-exports compose (compile-level test).
#[test]
fn facade_prelude_is_complete() {
    let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(2, 2, spec).unwrap();
    let coll = Collective::all_reduce(4, ByteSize::mb(4)).unwrap();
    let result = Synthesizer::default().synthesize(&topo, &coll).unwrap();
    let report = Simulator::new()
        .simulate(&topo, result.algorithm())
        .unwrap();
    assert!(report.bandwidth_gbps() > 0.0);
    let ten = tacos::ten::ExpandingTen::new(&topo, ByteSize::mb(1));
    assert!(ten.uniform_cost());
    let _ = SimConfig::default();
    let _ = SimReport::clone(&report);
    let _ = BaselineKind::Ring;
    let _ = IdealBound::new(&topo);
    let _: BaselineAlgorithm = BaselineAlgorithm::new(BaselineKind::Direct);
    let _ = CollectiveAlgorithm::clone(result.algorithm());
    let _ = Chunk {
        id: ChunkId::new(0),
        size: ByteSize::mb(1),
    };
    let _: SynthesisResult = result;
}
