//! One synthesis per cost shape, observed from outside the daemon: sizes
//! of one collective on a uniform fabric share a warm entry, every answer
//! is what the library computes for its own size, and the sharing
//! survives single-flight, checkpoints and restarts — while a tiered
//! fabric with α > 0 still synthesizes each size.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use tacos_collective::export::to_compact;
use tacos_collective::{parse_pattern, Collective};
use tacos_core::{SynthesisScratch, Synthesizer, SynthesizerConfig};
use tacos_report::Json;
use tacos_scenario::LinkAxis;
use tacos_serve::{Client, Daemon, DaemonConfig, DaemonHandle, FaultPlan};
use tacos_topology::{parse_size, parse_topology};
use tacos_workload::{Evaluator, Mechanism};

fn spawn(config: DaemonConfig) -> DaemonHandle {
    Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        quiet: true,
        ..config
    })
    .expect("daemon starts")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacos-cost-shape-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(topology: &str, size: &str, extra: &str) -> String {
    format!(r#"{{"topology":"{topology}","collective":"all-reduce","size":"{size}"{extra}}}"#)
}

fn ask(client: &mut Client, line: &str) -> Json {
    let response = client.call(line).expect("a response");
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("ok"),
        "{line}: {response}"
    );
    response
}

/// The library's answer at `size`: the reference time and, for TACOS,
/// the fresh synthesis's compact export.
fn library(topology: &str, size: &str) -> (u64, String) {
    let topo = parse_topology(topology, LinkAxis::default_paper().to_spec()).unwrap();
    let pattern = parse_pattern("all-reduce", topo.num_npus()).unwrap();
    let size = parse_size(size).unwrap();
    let config = SynthesizerConfig::default();
    let mechanism = Mechanism::parse("tacos", &config).unwrap();
    let evaluated = Evaluator::new(&topo, &mechanism)
        .evaluate(pattern, size, 1, &mut SynthesisScratch::new())
        .unwrap();
    let coll = Collective::with_chunking(pattern, topo.num_npus(), 1, size).unwrap();
    let fresh = Synthesizer::new(config).synthesize(&topo, &coll).unwrap();
    assert_eq!(evaluated.time, fresh.collective_time());
    (evaluated.time.as_ps(), to_compact(fresh.algorithm()))
}

fn time_of(response: &Json) -> u64 {
    response
        .get("collective_time_ps")
        .and_then(Json::as_u64)
        .unwrap()
}

const MESH: &str = "mesh:8x8";
const SIZES: [&str; 4] = ["1MB", "16MB", "96MB", "3GB"];

#[test]
fn sizes_on_a_uniform_fabric_share_one_synthesis_and_survive_a_restart() {
    let cache_dir = temp_dir("restart");
    let with_cache = |dir: &Path| DaemonConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..DaemonConfig::default()
    };
    let daemon = spawn(with_cache(&cache_dir));
    let mut client = Client::connect(daemon.addr()).unwrap();
    for (i, size) in SIZES[..3].iter().enumerate() {
        let (time, compact) = library(MESH, size);
        let response = ask(&mut client, &request(MESH, size, ""));
        assert_eq!(
            response.get("cache_hit").and_then(Json::as_bool),
            Some(i > 0),
            "{size}"
        );
        assert_eq!(time_of(&response), time, "{size}");
        // The schedule itself is rescaled too, on request only.
        let full = ask(
            &mut client,
            &request(MESH, size, r#","include_algorithm":true"#),
        );
        assert_eq!(time_of(&full), time, "{size}");
        assert!(
            full.get("algorithm_compact").and_then(Json::as_str) == Some(compact.as_str()),
            "{size}: the served schedule is not the fresh synthesis"
        );
    }
    let stats = daemon.stats();
    // Three time-only asks and three with the schedule: the first is
    // the one synthesis, the other five are hits, four of them rescaled.
    assert_eq!(
        (stats.synthesized, stats.cache_hits, stats.rescaled_hits),
        (1, 5, 4),
        "{stats:?}"
    );
    assert_eq!(stats.warm_entries, 1, "{stats:?}");
    let response = client.call(r#"{"op":"checkpoint"}"#).unwrap();
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("checkpointed")
    );
    daemon.stop().unwrap();

    // A fourth size after the restart is a hit on the persisted entry.
    let daemon = spawn(with_cache(&cache_dir));
    let mut client = Client::connect(daemon.addr()).unwrap();
    let (time, _) = library(MESH, SIZES[3]);
    let response = ask(&mut client, &request(MESH, SIZES[3], ""));
    assert_eq!(
        response.get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(time_of(&response), time);
    let stats = daemon.stats();
    assert_eq!(
        (stats.synthesized, stats.cache_hits, stats.rescaled_hits),
        (0, 1, 1),
        "{stats:?}"
    );
    daemon.stop().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn racing_clients_at_two_sizes_share_one_flight() {
    let daemon = spawn(DaemonConfig {
        workers: 2,
        // Hold the leader's job until the follower has joined its flight.
        faults: FaultPlan::none().with_stall(1, 300),
        ..DaemonConfig::default()
    });
    let sizes = ["2MB", "48MB"];
    let barrier = Barrier::new(2);
    let times: Vec<u64> = std::thread::scope(|scope| {
        let racers: Vec<_> = sizes
            .iter()
            .map(|size| {
                let barrier = &barrier;
                let daemon = &daemon;
                scope.spawn(move || {
                    let mut client = Client::connect(daemon.addr()).unwrap();
                    barrier.wait();
                    time_of(&ask(&mut client, &request(MESH, size, "")))
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (size, time) in sizes.iter().zip(times) {
        assert_eq!(time, library(MESH, size).0, "{size}");
    }
    let stats = daemon.stats();
    assert_eq!(
        (stats.synthesized, stats.deduplicated, stats.cache_hits),
        (1, 1, 0),
        "{stats:?}"
    );
    daemon.stop().unwrap();
}

#[test]
fn a_tiered_fabric_with_latency_synthesizes_every_size() {
    const DRAGONFLY: &str = "dragonfly:4x4";
    let daemon = spawn(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    for size in &SIZES[..3] {
        let response = ask(&mut client, &request(DRAGONFLY, size, ""));
        assert_eq!(
            response.get("cache_hit").and_then(Json::as_bool),
            Some(false),
            "{size}"
        );
        assert_eq!(time_of(&response), library(DRAGONFLY, size).0, "{size}");
    }
    let stats = daemon.stats();
    assert_eq!(
        (stats.synthesized, stats.cache_hits, stats.warm_entries),
        (3, 0, 3),
        "{stats:?}"
    );
    daemon.stop().unwrap();
}
