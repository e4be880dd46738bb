//! Cost-shape keys are exact: two requests whose per-link chunk costs are
//! proportional share one cache key, and the schedule the first one
//! stored, read back by the second through the evaluation pipeline and
//! rescaled to its cost quantum, is byte for byte the schedule a fresh
//! synthesis at the second size produces.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tacos_collective::export::to_compact;
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{AlgorithmCache, CacheOutcome, SynthesisScratch, Synthesizer, SynthesizerConfig};
use tacos_topology::{parse_topology, Bandwidth, ByteSize, LinkSpec, NpuId, Time, Topology};
use tacos_workload::{Evaluator, Mechanism};

/// Fabrics whose cost vectors are proportional across sizes and link
/// specs: every uniform family at any α, and the tiered ones at α = 0.
const UNIFORM: [&str; 8] = [
    "ring:6",
    "mesh:3x3",
    "torus:2x4",
    "hypercube:2x2x2",
    "switch:6",
    "switch:8:d2",
    "switch2d:3x3",
    "switch2d:2x4:1",
];
const TIERED: [&str; 3] = ["rfs:2x2x2", "dragonfly:3x3", "rfs:2x2x2:4x1x2"];

const SIZES: [u64; 5] = [1, 64, 1 << 10, 3 << 10, 1 << 14];

/// Two link specs per fabric kind: any α for the uniform families (every
/// link costs the same), α = 0 for the tiered ones (per-tier costs in the
/// ratio of their integer picoseconds per byte).
fn link(tiered: bool, which: usize) -> LinkSpec {
    match (tiered, which % 2) {
        (false, 0) => LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0)),
        (false, _) => LinkSpec::new(Time::from_micros(2.0), Bandwidth::gbps(12.5)),
        (true, 0) => LinkSpec::new(Time::ZERO, Bandwidth::gbps(50.0)),
        (true, _) => LinkSpec::new(Time::ZERO, Bandwidth::gbps(25.0)),
    }
}

fn pattern(kind: usize, root: usize, n: usize) -> CollectivePattern {
    match kind {
        0 => CollectivePattern::AllGather,
        1 => CollectivePattern::ReduceScatter,
        2 => CollectivePattern::AllReduce,
        3 => CollectivePattern::Broadcast {
            root: NpuId::new((root % n) as u32),
        },
        _ => CollectivePattern::AllToAll,
    }
}

fn temp_cache() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tacos-cost-shape-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(config: &SynthesizerConfig, topo: &Topology, coll: &Collective) -> String {
    AlgorithmCache::key_with_tag("tacos", &Synthesizer::new(config.clone()), topo, coll)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_rescaled_hit_is_the_fresh_synthesis(
        tiered in any::<bool>(),
        fabric in 0usize..8,
        pattern_kind in 0usize..5,
        root in 0usize..16,
        sizes in (0usize..5, 0usize..5),
        links in (0usize..2, 0usize..2),
        chunks in 1usize..3,
        seed in 0u64..1000,
        attempts in 1usize..5,
    ) {
        let name = if tiered { TIERED[fabric % TIERED.len()] } else { UNIFORM[fabric] };
        let stored_topo = parse_topology(name, link(tiered, links.0)).unwrap();
        let topo = parse_topology(name, link(tiered, links.1)).unwrap();
        let n = topo.num_npus();
        let pattern = pattern(pattern_kind, root, n);
        // Sizes in KB times a non-power-of-two factor, so chunk sizes are
        // not all powers of two.
        let size_of = |i: usize| ByteSize::bytes(SIZES[i] * 1000 + 24);
        let (stored_size, size) = (size_of(sizes.0), size_of(sizes.1));
        let config = SynthesizerConfig::default().with_seed(seed).with_attempts(attempts);
        let mechanism = Mechanism::parse("tacos", &config).unwrap();

        let stored_coll = Collective::with_chunking(pattern, n, chunks, stored_size).unwrap();
        let coll = Collective::with_chunking(pattern, n, chunks, size).unwrap();
        prop_assert_eq!(
            key(&config, &stored_topo, &stored_coll),
            key(&config, &topo, &coll),
            "{} {:?}", name, pattern
        );

        let dir = temp_cache();
        let cache = AlgorithmCache::new(&dir).unwrap();
        let mut scratch = SynthesisScratch::new();
        let stored = Evaluator::new(&stored_topo, &mechanism)
            .with_cache(Some(&cache), "tacos")
            .evaluate(pattern, stored_size, chunks, &mut scratch)
            .unwrap();
        prop_assert_eq!(stored.cache, Some(CacheOutcome::Miss));
        let hit = Evaluator::new(&topo, &mechanism)
            .with_cache(Some(&cache), "tacos")
            .evaluate(pattern, size, chunks, &mut scratch)
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(hit.cache, Some(CacheOutcome::Hit), "{} {:?} {} {} {:?} {:?}", name, pattern, stored_size, size, links, chunks);

        let fresh = Synthesizer::new(config)
            .synthesize(&topo, &coll)
            .unwrap()
            .into_algorithm();
        let rescaled = hit.algorithm.unwrap();
        prop_assert_eq!(rescaled.planned_time(), fresh.planned_time());
        prop_assert_eq!(hit.time, fresh.collective_time());
        prop_assert!(
            to_compact(&rescaled) == to_compact(&fresh),
            "{} {:?} {} -> {}: the rescaled schedule differs from a fresh synthesis",
            name, pattern, stored_size, size
        );
    }

    #[test]
    fn tiered_fabrics_with_latency_key_each_size(
        fabric in 0usize..3,
        pattern_kind in 0usize..5,
        sizes in (0usize..5, 1usize..5),
        seed in 0u64..1000,
    ) {
        let topo = parse_topology(TIERED[fabric], link(false, 0)).unwrap();
        let n = topo.num_npus();
        let pattern = pattern(pattern_kind, 0, n);
        let small = ByteSize::kb(SIZES[sizes.0]);
        let large = ByteSize::kb(SIZES[sizes.0] * (1 + SIZES[sizes.1]));
        let config = SynthesizerConfig::default().with_seed(seed);
        let key_at = |size| key(&config, &topo, &Collective::with_chunking(pattern, n, 1, size).unwrap());
        prop_assert_ne!(key_at(small), key_at(large), "{} {:?}", TIERED[fabric], pattern);
    }
}
