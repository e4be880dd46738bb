//! Eviction × single-flight: a key evicted while a dedup follower
//! waits must still be served from the leader's `Arc<WarmEntry>` handle
//! — the handle `WarmCache::insert` returns exists precisely so the
//! leader never needs a second lookup that eviction could turn into a
//! miss (and a second synthesis).

use std::sync::Arc;
use std::time::Duration;

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::Collective;
use tacos_core::{
    InFlightRegistry, Synthesizer, SynthesizerConfig, WarmCache, WarmEntry, WarmLimits,
};
use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};

fn algo() -> CollectiveAlgorithm {
    let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(2, 2, spec).unwrap();
    let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
    Synthesizer::new(SynthesizerConfig::default())
        .synthesize(&topo, &coll)
        .unwrap()
        .into_algorithm()
}

#[test]
fn a_follower_is_served_the_leaders_handle_even_after_eviction() {
    // A one-entry cache: inserting any second key evicts the first.
    let warm = WarmCache::with_limits(WarmLimits {
        max_entries: 1,
        max_bytes: 0,
    });
    let inflight: InFlightRegistry<Arc<WarmEntry>> = InFlightRegistry::new();

    // Leader claims the key; a dedup follower piles on behind it.
    let leader = inflight.begin("hot-key");
    assert!(leader.is_leader());
    let follower = inflight.begin("hot-key");
    assert!(!follower.is_leader());

    // Leader finishes synthesis and publishes through the cache,
    // keeping the returned handle (this is the daemon's `run_job` flow).
    let handle = warm.insert(
        "hot-key".into(),
        WarmEntry {
            time: Time::from_ps(777),
            algo: algo(),
            quantum: 1,
        },
    );

    // Before the follower wakes, an unrelated insert evicts the key.
    warm.insert(
        "rival-key".into(),
        WarmEntry {
            time: Time::from_ps(888),
            algo: algo(),
            quantum: 1,
        },
    );
    assert!(warm.get("hot-key").is_none(), "hot-key must be evicted");
    assert_eq!(warm.evictions(), 1);

    // The leader publishes its *handle*, not a fresh lookup: the
    // follower gets the schedule despite the eviction.
    inflight.complete("hot-key", Arc::clone(&handle));
    let served = follower
        .flight()
        .wait_timeout(Duration::from_secs(5))
        .expect("follower must be served");
    assert_eq!(served.time, Time::from_ps(777));
    assert!(
        Arc::ptr_eq(&served, &handle),
        "same schedule, no resynthesis"
    );

    // A late client that misses the cache would start a *new* flight —
    // that is a (correct) resynthesis, not a dedup violation.
    let late = inflight.begin("hot-key");
    assert!(late.is_leader(), "the completed flight is gone");
}
