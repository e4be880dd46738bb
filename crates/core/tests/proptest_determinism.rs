//! Matching-determinism property tests: over random topologies,
//! collectives, and seeds, the optimized matcher (SoA `ChunkMatrix`
//! probes, event-driven wake index) must emit exactly the same transfer
//! sequence and collective time as the straightforward reference round
//! (`SynthesizerConfig::with_reference_matching`), which probes every
//! free link through the pre-SoA `ChunkSet` scan.
//!
//! This is the seed-for-seed parity guarantee of the event-driven
//! refactor: the wake index and the flat chunk matrix are pure
//! optimizations, invisible in the output. The reference round also
//! asserts two internal invariants every round — the wake set equals
//! `{free ∧ non-stale}` (exactly what a scan-and-skip pass would probe),
//! and a stale link never matches — so every reference synthesis in these
//! tests doubles as a per-arrival audit of the wake-index bookkeeping.

use proptest::prelude::*;
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{SynthesisScratch, Synthesizer, SynthesizerConfig};
use tacos_topology::{
    parse_size, parse_topology, Bandwidth, ByteSize, LinkSpec, RingOrientation, Time, Topology,
};

/// The collective patterns under test, instantiated for `n` NPUs.
fn collective(pattern: usize, n: usize, chunks: usize) -> Collective {
    let size = ByteSize::mb((n * chunks) as u64);
    match pattern {
        0 => Collective::with_chunking(
            tacos_collective::CollectivePattern::AllGather,
            n,
            chunks,
            size,
        )
        .unwrap(),
        1 => Collective::with_chunking(
            tacos_collective::CollectivePattern::AllReduce,
            n,
            chunks,
            size,
        )
        .unwrap(),
        2 => Collective::with_chunking(
            tacos_collective::CollectivePattern::ReduceScatter,
            n,
            chunks,
            size,
        )
        .unwrap(),
        3 => Collective::all_to_all(n, size).unwrap(),
        4 => Collective::gather(n, tacos_topology::NpuId::new(0), size).unwrap(),
        _ => Collective::scatter(n, tacos_topology::NpuId::new(0), size).unwrap(),
    }
}

fn topology(kind: usize, hetero: bool) -> Topology {
    let fast = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let slow = LinkSpec::new(Time::from_micros(1.0), Bandwidth::gbps(20.0));
    let spec = if hetero { slow } else { fast };
    match kind {
        0 => Topology::ring(4, spec, RingOrientation::Unidirectional).unwrap(),
        1 => Topology::ring(6, spec, RingOrientation::Bidirectional).unwrap(),
        2 => Topology::mesh_2d(2, 3, spec).unwrap(),
        3 => Topology::mesh_2d(3, 3, spec).unwrap(),
        4 => Topology::fully_connected(4, spec).unwrap(),
        _ => {
            // Asymmetric heterogeneous network: a bidirectional fast core
            // with a slow one-way detour (paper Fig. 9 flavor).
            let mut b = tacos_topology::TopologyBuilder::new("asym");
            b.npus(4);
            let n = tacos_topology::NpuId::new;
            b.bidi_link(n(0), n(1), fast);
            b.bidi_link(n(0), n(2), fast);
            b.link(n(2), n(3), slow);
            b.link(n(3), n(1), slow);
            b.build().unwrap()
        }
    }
}

/// A fixed grid on a larger fabric than the random ones: `mesh:4x4`
/// under the paper's link, 64 MB in 2 chunks per NPU, seeds 1 and 2, over
/// the direct (All-Gather), relay (All-to-All) and two-phase stitched
/// (All-Reduce) paths. CI also runs it in release.
#[test]
fn mesh_4x4_grid_equals_reference_oracle() {
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = parse_topology("mesh:4x4", link).unwrap();
    let size = parse_size("64MB").unwrap();
    for pattern in [
        CollectivePattern::AllGather,
        CollectivePattern::AllToAll,
        CollectivePattern::AllReduce,
    ] {
        let coll = Collective::with_chunking(pattern, topo.num_npus(), 2, size).unwrap();
        for seed in [1, 2] {
            let config = SynthesizerConfig::default().with_seed(seed);
            let optimized = Synthesizer::new(config.clone())
                .synthesize(&topo, &coll)
                .unwrap();
            let reference = Synthesizer::new(config.with_reference_matching(true))
                .synthesize(&topo, &coll)
                .unwrap();
            let case = format!("{pattern:?} seed {seed}");
            assert_eq!(
                optimized.collective_time(),
                reference.collective_time(),
                "{case}"
            );
            assert_eq!(
                optimized.num_transfers(),
                reference.num_transfers(),
                "{case}"
            );
            assert_eq!(optimized.algorithm(), reference.algorithm(), "{case}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized and reference matching produce identical schedules and
    /// collective times for every (topology, collective, seed) triple.
    #[test]
    fn optimized_matcher_equals_reference_oracle(
        topo_kind in 0usize..6,
        pattern in 0usize..6,
        chunks in 1usize..3,
        hetero in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let topo = topology(topo_kind, hetero);
        let coll = collective(pattern, topo.num_npus(), chunks);
        let optimized = Synthesizer::new(SynthesizerConfig::default())
            .synthesize_seeded(&topo, &coll, seed)
            .unwrap();
        let reference = Synthesizer::new(
            SynthesizerConfig::default().with_reference_matching(true),
        )
        .synthesize_seeded(&topo, &coll, seed)
        .unwrap();
        prop_assert_eq!(optimized.collective_time(), reference.collective_time());
        prop_assert_eq!(optimized.num_transfers(), reference.num_transfers());
        prop_assert_eq!(optimized.rounds(), reference.rounds());
        // Byte-identical transfer sequences, including dependency edges.
        prop_assert_eq!(optimized.algorithm(), reference.algorithm());
    }

    /// Wake-set invariant: after every arrival batch, the event-driven
    /// worklist must contain exactly the links the reference scan would
    /// find non-stale (free, and with an arrival at their source since
    /// their last empty probe). The reference round asserts this — plus
    /// "a stale link never matches" — before consuming its RNG, so a
    /// reference-mode synthesis either upholds the invariant on every
    /// round of every topology/pattern here or panics. Chunked patterns
    /// make rounds where only a few links wake, which is where a
    /// bookkeeping bug (a link lost off a stale list, a duplicate wake)
    /// would surface.
    #[test]
    fn wake_set_matches_reference_scan_after_every_arrival(
        topo_kind in 0usize..6,
        pattern in 0usize..6,
        chunks in 1usize..4,
        hetero in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let topo = topology(topo_kind, hetero);
        let coll = collective(pattern, topo.num_npus(), chunks);
        let result = Synthesizer::new(
            SynthesizerConfig::default().with_reference_matching(true),
        )
        .synthesize_seeded(&topo, &coll, seed);
        prop_assert!(result.is_ok());
    }

    /// Scratch reuse is invisible: a warm scratch (previously used for a
    /// different problem) yields the same result as a fresh one.
    #[test]
    fn scratch_reuse_is_deterministic(
        topo_kind in 0usize..6,
        pattern in 0usize..6,
        seed in 0u64..1000,
    ) {
        let synth = Synthesizer::new(SynthesizerConfig::default());
        let mut scratch = SynthesisScratch::new();
        // Dirty the scratch with an unrelated problem first.
        let warmup_topo = topology((topo_kind + 1) % 6, true);
        let warmup = collective((pattern + 1) % 6, warmup_topo.num_npus(), 2);
        synth
            .synthesize_seeded_with(&warmup_topo, &warmup, seed ^ 0xDEAD, &mut scratch)
            .unwrap();

        let topo = topology(topo_kind, false);
        let coll = collective(pattern, topo.num_npus(), 1);
        let warm = synth
            .synthesize_seeded_with(&topo, &coll, seed, &mut scratch)
            .unwrap();
        let fresh = synth.synthesize_seeded(&topo, &coll, seed).unwrap();
        prop_assert_eq!(warm.collective_time(), fresh.collective_time());
        prop_assert_eq!(warm.algorithm(), fresh.algorithm());
    }
}
