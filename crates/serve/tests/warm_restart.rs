//! Warm-cache persistence round-trip: persist on stop, reload on start,
//! re-serve with zero resyntheses — and reject stale or corrupted
//! snapshots with a cold start instead of a panic.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tacos_collective::CollectivePattern;
use tacos_core::{CacheOutcome, SynthesisScratch, SynthesizerConfig, WarmCache, WarmLimits};
use tacos_report::Json;
use tacos_scenario::{LinkAxis, ScenarioSpec};
use tacos_serve::{Client, Daemon, DaemonConfig, SNAPSHOT_FILE};
use tacos_topology::{parse_size, parse_topology};
use tacos_workload::{Evaluator, Mechanism, TrainingEvaluator};

const REQUEST: &str = r#"{"topology":"mesh:2x2","collective":"all-gather","size":"1MB"}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacos-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon_at(cache_dir: &Path) -> tacos_serve::DaemonHandle {
    Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(cache_dir.to_path_buf()),
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("daemon starts")
}

fn call(handle: &tacos_serve::DaemonHandle, request: &str) -> Json {
    let mut client = Client::connect_with_retry(&handle.addr().to_string(), Duration::from_secs(5))
        .expect("connect");
    client.call(request).expect("response")
}

#[test]
fn a_restarted_daemon_serves_from_the_persisted_cache() {
    let cache_dir = temp_dir("roundtrip");

    // Cold daemon: the first request synthesizes.
    let first = daemon_at(&cache_dir);
    let response = call(&first, REQUEST);
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        response.get("cache_hit").and_then(Json::as_bool),
        Some(false)
    );
    let cold_time = response.get("collective_time_ps").and_then(Json::as_u64);
    assert_eq!(first.stats().synthesized, 1);
    let persisted = first.stop().expect("clean stop");
    assert!(persisted >= 1, "stop should persist the warm entry");
    assert!(cache_dir.join(SNAPSHOT_FILE).exists());

    // Warm restart: the same request is a cache hit, zero resyntheses,
    // identical answer.
    let second = daemon_at(&cache_dir);
    let response = call(&second, REQUEST);
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        response.get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        response.get("collective_time_ps").and_then(Json::as_u64),
        cold_time
    );
    let stats = second.stats();
    assert_eq!(stats.synthesized, 0, "warm restart must not resynthesize");
    assert_eq!(stats.cache_hits, 1);
    // The snapshot holds keys, not request shapes: the hit was resolved
    // the long way, and is remembered from here on.
    assert_eq!((stats.resolve_hits, stats.resolved_shapes), (0, 1));
    second.stop().expect("clean stop");

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A snapshot written by the binary built just before the checkpoint
/// path was rewritten (bitwise CRC over a `format!`-copied record, whole
/// file built as one `String`): the table-driven, streaming build must
/// read the same container — every entry verifies and serves as a hit.
///
/// The fixture was produced by that build's `tacos serve --cache-dir`
/// answering the four requests below. It records the matcher version it
/// was written under; once `MATCHER_VERSION` moves past it, what this
/// pins is the readable cold start instead.
#[test]
fn a_snapshot_written_by_the_previous_build_reloads_as_all_hits() {
    const WRITTEN_BY_PARENT: &str = include_str!("fixtures/warm-written-by-pr14.tacos-cache");
    const REQUESTS: [&str; 4] = [
        r#"{"topology":"mesh:2x2","collective":"all-gather","size":"1MB"}"#,
        r#"{"topology":"ring:4","collective":"all-reduce","size":"4MB","seed":7}"#,
        r#"{"topology":"mesh:2x2","collective":"all-reduce","size":"1MB","mechanism":"ring"}"#,
        r#"{"topology":"fc:4","collective":"reduce-scatter","size":"2MB","chunks":2}"#,
    ];
    // What that build answered when it synthesized them.
    const TIMES_PS: [u64; 4] = [11_000_000, 82_000_000, 38_500_000, 11_000_000];

    let cache_dir = temp_dir("parent-snapshot");
    std::fs::create_dir_all(&cache_dir).unwrap();
    let snapshot = cache_dir.join(SNAPSHOT_FILE);
    std::fs::write(&snapshot, WRITTEN_BY_PARENT).unwrap();

    let same_matcher = WRITTEN_BY_PARENT
        .lines()
        .nth(1)
        .is_some_and(|line| line == format!("matcher {}", tacos_core::MATCHER_VERSION));
    if !same_matcher {
        let err = WarmCache::load_from(&snapshot).expect_err("a stale matcher must not load");
        assert!(err.to_string().contains("cold start"), "{err}");
        let _ = std::fs::remove_dir_all(&cache_dir);
        return;
    }

    let report = WarmCache::load_from(&snapshot).expect("the parent's snapshot parses");
    assert!(report.is_clean(), "{:?}", report.detail);
    assert_eq!((report.entries_expected, report.entries_loaded), (4, 4));

    let daemon = daemon_at(&cache_dir);
    for (request, time_ps) in REQUESTS.into_iter().zip(TIMES_PS) {
        let response = call(&daemon, request);
        assert_eq!(
            response.get("cache_hit").and_then(Json::as_bool),
            Some(true),
            "{request}: {response}"
        );
        assert_eq!(
            response.get("collective_time_ps").and_then(Json::as_u64),
            Some(time_ps),
            "{request}"
        );
    }
    let stats = daemon.stats();
    assert_eq!((stats.synthesized, stats.cache_hits), (0, 4), "{stats:?}");
    // Rewritten by this build, the snapshot is the same bytes.
    assert_eq!(daemon.stop().expect("clean stop"), 4);
    assert_eq!(
        std::fs::read_to_string(&snapshot).unwrap(),
        WRITTEN_BY_PARENT
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn checkpoint_persists_without_stopping() {
    let cache_dir = temp_dir("checkpoint");
    let daemon = daemon_at(&cache_dir);
    call(&daemon, REQUEST);
    let response = call(&daemon, r#"{"op":"checkpoint"}"#);
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("checkpointed")
    );
    assert_eq!(response.get("entries").and_then(Json::as_u64), Some(1));
    assert!(cache_dir.join(SNAPSHOT_FILE).exists());
    daemon.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_capped_restart_trims_the_snapshot_to_the_resident_set() {
    let cache_dir = temp_dir("capped-restart");

    // Warm three distinct keys unbounded; stop persists all three.
    let unbounded = daemon_at(&cache_dir);
    for seed in 1..=3u64 {
        let request = format!(
            r#"{{"topology":"mesh:2x2","collective":"all-gather","size":"1MB","seed":{seed}}}"#
        );
        let response = call(&unbounded, &request);
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    }
    assert_eq!(unbounded.stop().expect("clean stop"), 3);

    // Restart under a one-entry cap: the reload trims to the cap and
    // counts the trimmed entries as evictions.
    let capped = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(cache_dir.clone()),
        warm_limits: WarmLimits {
            max_entries: 1,
            max_bytes: 0,
        },
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let stats = capped.stats();
    assert_eq!(stats.warm_entries, 1, "{stats:?}");
    assert_eq!(stats.evictions, 2, "reload must trim to the cap: {stats:?}");
    assert!(stats.resident_bytes > 0, "{stats:?}");

    // Stopping writes only the resident set, which reloads clean.
    assert_eq!(capped.stop().expect("clean stop"), 1);
    let report = WarmCache::load_from(cache_dir.join(SNAPSHOT_FILE)).expect("snapshot parses");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.entries_loaded, 1);
    assert_eq!(report.cache.len(), 1);

    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn startup_sweeps_stale_checkpoint_temp_files() {
    let cache_dir = temp_dir("debris");
    std::fs::create_dir_all(&cache_dir).unwrap();
    // Debris a crashed checkpoint would leave behind: the atomic-rename
    // temp files named warm.tmp.<pid>.<seq>.
    for name in ["warm.tmp.1234.0", "warm.tmp.1234.7"] {
        std::fs::write(cache_dir.join(name), "torn half-written snapshot").unwrap();
    }

    let daemon = daemon_at(&cache_dir);
    call(&daemon, REQUEST);
    daemon.stop().expect("clean stop");

    let leftovers: Vec<String> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("warm.tmp."))
        .collect();
    assert!(leftovers.is_empty(), "debris must be swept: {leftovers:?}");
    assert!(cache_dir.join(SNAPSHOT_FILE).exists());

    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn corrupted_and_stale_snapshots_cold_start_instead_of_panicking() {
    for (tag, contents) in [
        ("corrupt", "not a snapshot at all\n".to_string()),
        ("truncated", "tacos-warm-cache v1\nmatcher".to_string()),
        (
            // A snapshot from a hypothetical future matcher: structurally
            // valid, but its schedules would be stale for this build.
            "stale",
            "tacos-warm-cache v1\nmatcher 999999\nentries 0\n".to_string(),
        ),
    ] {
        let cache_dir = temp_dir(tag);
        std::fs::create_dir_all(&cache_dir).unwrap();
        std::fs::write(cache_dir.join(SNAPSHOT_FILE), contents).unwrap();

        // Spawn must succeed (cold start, notice on stderr) and the
        // daemon must serve normally, resynthesizing from scratch.
        let daemon = daemon_at(&cache_dir);
        let response = call(&daemon, REQUEST);
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("ok"),
            "{tag}: {response:?}"
        );
        assert_eq!(
            response.get("cache_hit").and_then(Json::as_bool),
            Some(false),
            "{tag}: a bad snapshot must not produce cache hits"
        );
        assert_eq!(daemon.stats().synthesized, 1, "{tag}");
        // Stopping overwrites the bad snapshot with a valid one.
        assert!(daemon.stop().expect("clean stop") >= 1, "{tag}");
        let reloaded = daemon_at(&cache_dir);
        let response = call(&reloaded, REQUEST);
        assert_eq!(
            response.get("cache_hit").and_then(Json::as_bool),
            Some(true),
            "{tag}: the rewritten snapshot must load"
        );
        reloaded.stop().expect("clean stop");
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}

/// Cross-front-end parity: for every mechanism family, on a homogeneous
/// and a heterogeneous fabric, the library pipeline, a scenario run
/// (cold, then warm from its cache directory), a served request (miss,
/// then hit) and the training evaluator report the same evaluation.
#[test]
fn every_front_end_reports_the_same_evaluation() {
    const ALGOS: [&str; 5] = ["tacos", "tacos:4", "ring", "direct", "ideal"];
    const SIZE: &str = "16MB";
    const CHUNKS: usize = 2;
    const SEED: u64 = 7;
    for (tag, topology) in [("parity-mesh", "mesh:4x4"), ("parity-rfs", "rfs:2x2x4")] {
        let cache_dir = temp_dir(tag);
        let topo = parse_topology(topology, LinkAxis::default_paper().to_spec()).unwrap();
        let size = parse_size(SIZE).unwrap();
        let base = SynthesizerConfig::default().with_seed(SEED);

        // Scenario front end: a cold run fills the cache directory, the
        // warm re-run is served from it without a single miss.
        let mut spec = ScenarioSpec::from_toml_str(&format!(
            r#"
[scenario]
name = "{tag}"
[sweep]
topology = ["{topology}"]
collective = ["all-reduce"]
size = ["{SIZE}"]
chunks = [{CHUNKS}]
algo = {ALGOS:?}
seed = [{SEED}]
[run]
cache = "{}"
"#,
            cache_dir.join("scenario").display()
        ))
        .unwrap();
        spec.run.quiet = true;
        let cold = tacos_scenario::run(&spec).unwrap();
        let warm = tacos_scenario::run(&spec).unwrap();
        assert_eq!((cold.failed, cold.cache_hits), (0, 0), "{topology}");
        assert_eq!((warm.failed, warm.cache_hits), (0, 4), "{topology}");

        let daemon = daemon_at(&cache_dir.join("serve"));
        for (i, algo) in ALGOS.into_iter().enumerate() {
            let at = format!("{topology} {algo}");
            // Library front end: the reference.
            let mechanism = Mechanism::parse(algo, &base).unwrap();
            let evaluate = |chunks| {
                Evaluator::new(&topo, &mechanism)
                    .evaluate(
                        CollectivePattern::AllReduce,
                        size,
                        chunks,
                        &mut SynthesisScratch::new(),
                    )
                    .unwrap()
            };
            let library = evaluate(CHUNKS);

            for (summary, outcome) in [(&cold, CacheOutcome::Miss), (&warm, CacheOutcome::Hit)] {
                let record = &summary.records[i];
                assert_eq!(record.point.algo, algo);
                let m = record.result.as_ref().unwrap();
                assert_eq!(m.collective_time, library.time, "{at}");
                assert_eq!(m.chunks, library.chunks, "{at}");
                assert_eq!(m.transfers, library.transfers, "{at}");
                // The bound is computed, never cached.
                assert_eq!(m.cache, (algo != "ideal").then_some(outcome), "{at}");
            }

            // Serving front end: a miss that resolves the request's shape,
            // then two hits answered from the remembered resolution —
            // the same answer, and between themselves the same bytes.
            let request = format!(
                r#"{{"topology":"{topology}","collective":"all-reduce","size":"{SIZE}","chunks":{CHUNKS},"mechanism":"{algo}","seed":{SEED}}}"#
            );
            let mut lines = Vec::new();
            for hit in [false, true, true] {
                let mut client = Client::connect(daemon.addr()).expect("connect");
                let line = client.call_raw(&request).expect("response");
                let response = Json::parse(line.trim_end()).expect("a JSON line");
                lines.push(line);
                assert_eq!(
                    response.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "{at}: {response}"
                );
                assert_eq!(
                    response.get("cache_hit").and_then(Json::as_bool),
                    Some(hit && algo != "ideal"),
                    "{at}"
                );
                assert_eq!(
                    response.get("collective_time_ps").and_then(Json::as_u64),
                    Some(library.time.as_ps()),
                    "{at}"
                );
                assert_eq!(
                    response.get("transfers").and_then(Json::as_u64),
                    Some(library.transfers),
                    "{at}"
                );
            }
            assert_eq!(lines[1], lines[2], "{at}");

            // Training front end: the same pipeline under the training
            // chunk rule — synthesized collectives take the chunking
            // factor, baselines (and the bound) run unchunked.
            let training = TrainingEvaluator::new(&topo).with_chunks(CHUNKS);
            let expected = match mechanism {
                Mechanism::Tacos(_) => library.time,
                Mechanism::Baseline(_) | Mechanism::Ideal => evaluate(1).time,
            };
            assert_eq!(
                training.all_reduce_time(size, &mechanism).unwrap(),
                expected,
                "{at}"
            );
        }
        let stats = daemon.stats();
        assert_eq!((stats.synthesized, stats.cache_hits), (4, 8), "{topology}");
        assert_eq!(
            (stats.resolved_shapes, stats.resolve_hits),
            (5, 10),
            "{topology}"
        );
        daemon.stop().expect("clean stop");
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}
