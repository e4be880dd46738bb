//! The chaos suite: drive a live daemon under a seeded [`FaultPlan`] and
//! assert the serving layer's operational invariants hold, for several
//! seeds (`cargo test -p tacos-serve --test chaos`; CI also runs it in
//! release).
//!
//! The harness is deterministic end to end: the fault plan is derived
//! from the seed, faults fire on exact job/connection/checkpoint
//! sequence numbers, and requests are issued in a fixed order — so a
//! failing seed reproduces exactly.
//!
//! Invariants checked (one phase each):
//!
//! 1. **Worker panic containment** — a synthesis panic fails only its
//!    own flight: the leader *and* any deduplicated follower get a typed
//!    `error`, the pool returns to full strength (visible as
//!    `worker_restarts` in `stats`), and subsequent requests synthesize
//!    normally. Every request gets exactly one response (correlation ids
//!    are echoed and checked).
//! 2. **Checkpoint atomicity** — a checkpoint aborted mid-write reports
//!    a typed `error` and leaves the previous snapshot fully intact;
//!    the next checkpoint succeeds.
//! 3. **Torn-snapshot salvage** — a snapshot truncated mid-entry loads
//!    its valid prefix: a restarted daemon serves every salvaged key
//!    from cache and resynthesizes only the torn one.
//! 4. **Oversized-line protection** — a 10 MiB request line gets a typed
//!    `error` and a closed connection, with the daemon's memory
//!    footprint unaffected (checked via `/proc/self/statm` on Linux).
//! 5. **Overload & retry** — a burst against a tiny queue is partially
//!    rejected with `retry_after_ms` hints, and every request finishes
//!    `ok` within a bounded retry budget; over-cap connections get one
//!    typed `rejected` line and the slot frees when a connection closes.
//! 6. **Bounded residency under eviction** — a trace larger than
//!    `--warm-max-entries` keeps the resident set at the cap (visible as
//!    `warm_entries`/`evictions`/`resident_bytes` in `stats`), evicted
//!    keys re-synthesize to byte-identical deterministic schedules — a
//!    remembered request shape (`resolve_hits`) saves resolving it, never
//!    synthesizing it — and a checkpoint under eviction snapshots exactly
//!    the resident set.

use std::io::BufRead;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tacos_core::{WarmCache, WarmLimits};
use tacos_report::Json;
use tacos_serve::{Client, Daemon, DaemonConfig, FaultPlan, RetryPolicy, SNAPSHOT_FILE};

/// Invariants a run checks; the RSS check needs `/proc/self/statm`.
const CHECKS: usize = if cfg!(target_os = "linux") { 58 } else { 57 };

#[test]
fn the_chaos_suite_passes_for_distinct_seeds() {
    for seed in [1u64, 42] {
        let passed = run(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            passed.len(),
            CHECKS,
            "seed {seed}: expected the full check list, got {passed:?}"
        );
    }
}

#[test]
fn chaos_reports_are_deterministic_per_seed() {
    let a = run(7).expect("seed 7 passes");
    let b = run(7).expect("seed 7 passes again");
    assert_eq!(a, b);
}

#[test]
fn seeded_plans_are_deterministic_and_vary_by_seed() {
    for seed in 0..50 {
        let (plan, panic_job) = seeded_plan(seed);
        assert_eq!((plan.clone(), panic_job), seeded_plan(seed));
        assert_eq!(
            plan.job_fault(panic_job),
            (Some(Duration::from_millis(150)), true)
        );
        assert!(plan.checkpoint_aborts(2));
    }
    let distinct: std::collections::HashSet<String> =
        (0..50).map(|s| format!("{:?}", seeded_plan(s).0)).collect();
    assert!(distinct.len() > 10, "seeds should vary: {}", distinct.len());
}

/// A seed-derived plan: one synthesis panic, one stall, one delayed
/// connection, and one checkpoint abort, at seed-dependent small
/// indices; returned with the panicking job, which the harness steers a
/// follower onto. The same seed always yields the same plan.
fn seeded_plan(seed: u64) -> (FaultPlan, u64) {
    let mut state = seed;
    let mut next = || -> u64 {
        // splitmix64: cheap, well-distributed, fully deterministic.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let panic_job = 2 + next() % 3; // job 2..=4 of the chaos trace
    let stall_job = 1 + next() % 2; // job 1..=2
    let plan = FaultPlan::none()
        .with_panic(panic_job)
        // The panicking job also stalls briefly so a follower can
        // reliably join the doomed flight before it resolves.
        .with_stall(panic_job, 150)
        .with_stall(stall_job, 30 + next() % 60)
        .with_conn_delay(1 + next() % 2, 20 + next() % 40)
        .with_checkpoint_abort(2);
    (plan, panic_job)
}

/// Every invariant that held, in check order.
struct Checks {
    passed: Vec<String>,
}

impl Checks {
    fn ensure(
        &mut self,
        held: bool,
        what: &str,
        context: &dyn std::fmt::Debug,
    ) -> Result<(), String> {
        if held {
            self.passed.push(what.to_string());
            Ok(())
        } else {
            Err(format!("invariant violated: {what} (context: {context:?})"))
        }
    }
}

fn status(response: &Json) -> Option<&str> {
    response.get("status").and_then(Json::as_str)
}

fn reason(response: &Json) -> &str {
    response
        .get("reason")
        .and_then(Json::as_str)
        .unwrap_or_default()
}

fn echoed_id(response: &Json) -> Option<u64> {
    response.get("id").and_then(Json::as_u64)
}

/// A small, fast, distinct-keyed synthesize request: the seed folds
/// into the synthesizer config and thus the cache key.
fn synth_line(id: u64, seed: u64) -> String {
    format!(
        r#"{{"id":{id},"topology":"mesh:2x2","collective":"all-gather","size":"1MB","seed":{seed}}}"#
    )
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with_retry(addr, Duration::from_secs(5)).map_err(|e| format!("connect: {e}"))
}

fn call(client: &mut Client, line: &str) -> Result<Json, String> {
    client.call(line).map_err(|e| format!("call: {e}"))
}

fn temp_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("tacos-chaos-{seed}-{}", std::process::id()))
}

#[cfg(target_os = "linux")]
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

#[cfg(not(target_os = "linux"))]
fn rss_bytes() -> Option<u64> {
    None
}

/// Runs the full chaos suite under the seed's fault plan. Returns every
/// invariant that held, or the first violated one as a readable error.
fn run(seed: u64) -> Result<Vec<String>, String> {
    let (plan, panic_job) = seeded_plan(seed);
    let mut checks = Checks { passed: Vec::new() };
    let dir = temp_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);

    let result = (|| -> Result<(), String> {
        panic_and_checkpoint_phase(&plan, panic_job, &dir, &mut checks)?;
        salvage_phase(seed, &dir, &mut checks)?;
        oversized_line_phase(&mut checks)?;
        overload_phase(&mut checks)?;
        connection_cap_phase(&mut checks)?;
        eviction_phase(&dir, &mut checks)?;
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    Ok(checks.passed)
}

/// Phases 1 + 2: one daemon under the seeded plan — worker panic
/// containment, then checkpoint-abort atomicity.
fn panic_and_checkpoint_phase(
    plan: &FaultPlan,
    panic_job: u64,
    dir: &Path,
    checks: &mut Checks,
) -> Result<(), String> {
    let daemon = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 8,
        cache_dir: Some(dir.to_path_buf()),
        faults: plan.clone(),
        quiet: true,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = daemon.addr().to_string();
    let mut client = connect(&addr)?;

    // Serial distinct requests pin job indices: request i is job i.
    for i in 1..=6u64 {
        if i == panic_job {
            // A follower joins the doomed flight mid-stall on a second
            // connection: the panic must fail both, and only both.
            let follower_line = synth_line(100 + i, i);
            let follower_addr = addr.clone();
            let follower = std::thread::spawn(move || -> Result<Json, String> {
                std::thread::sleep(Duration::from_millis(40));
                let mut c = connect(&follower_addr)?;
                call(&mut c, &follower_line)
            });
            let leader = call(&mut client, &synth_line(i, i))?;
            checks.ensure(
                status(&leader) == Some("error")
                    && reason(&leader).contains("panicked")
                    && echoed_id(&leader) == Some(i),
                "a worker panic fails its own flight with a typed error",
                &leader,
            )?;
            let follower = follower.join().expect("follower thread")?;
            checks.ensure(
                status(&follower) == Some("error")
                    && reason(&follower).contains("panicked")
                    && echoed_id(&follower) == Some(100 + i),
                "a deduplicated follower of a panicked flight gets its own typed error",
                &follower,
            )?;
        } else {
            let response = call(&mut client, &synth_line(i, i))?;
            checks.ensure(
                status(&response) == Some("ok") && echoed_id(&response) == Some(i),
                "requests around an injected fault synthesize normally",
                &response,
            )?;
        }
    }

    // The supervisor must bring the pool back to strength and say so.
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.stats().worker_restarts == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    checks.ensure(
        daemon.stats().worker_restarts == 1,
        "the panicked worker is respawned and counted in stats",
        &daemon.stats().worker_restarts,
    )?;

    // The panicked key is not poisoned: re-requesting it synthesizes.
    let redo = call(&mut client, &synth_line(7, panic_job))?;
    checks.ensure(
        status(&redo) == Some("ok") && redo.get("cache_hit").and_then(Json::as_bool) == Some(false),
        "re-requesting the panicked key synthesizes on the recovered pool",
        &redo,
    )?;
    let warm = call(&mut client, &synth_line(8, 1))?;
    checks.ensure(
        status(&warm) == Some("ok") && warm.get("cache_hit").and_then(Json::as_bool) == Some(true),
        "earlier successes stayed cached across the panic",
        &warm,
    )?;
    let pong = call(&mut client, r#"{"id":9,"op":"ping"}"#)?;
    checks.ensure(
        status(&pong) == Some("pong") && echoed_id(&pong) == Some(9),
        "responses stay aligned one-to-one with requests (no strays)",
        &pong,
    )?;
    let stats = daemon.stats();
    checks.ensure(
        stats.synthesized == 6 && stats.errors == 2 && stats.rejected == 0,
        "exactly the injected flight failed: 6 syntheses, 2 typed errors",
        &(stats.synthesized, stats.errors, stats.rejected),
    )?;

    // Checkpoint atomicity: the plan aborts checkpoint attempt 2.
    let snapshot = dir.join(SNAPSHOT_FILE);
    let cp1 = call(&mut client, r#"{"id":20,"op":"checkpoint"}"#)?;
    checks.ensure(
        status(&cp1) == Some("checkpointed")
            && cp1.get("entries").and_then(Json::as_u64) == Some(6),
        "checkpoint 1 persists all six warm entries",
        &cp1,
    )?;
    let cp2 = call(&mut client, r#"{"id":21,"op":"checkpoint"}"#)?;
    checks.ensure(
        status(&cp2) == Some("error") && reason(&cp2).contains("aborted mid-write"),
        "an aborted checkpoint reports a typed error",
        &cp2,
    )?;
    let survived = WarmCache::load_from(&snapshot)
        .map_err(|e| format!("snapshot after aborted checkpoint: {e}"))?;
    checks.ensure(
        survived.is_clean() && survived.entries_loaded == 6,
        "a checkpoint killed mid-write leaves the previous snapshot intact",
        &(survived.entries_loaded, survived.salvaged),
    )?;
    let cp3 = call(&mut client, r#"{"id":22,"op":"checkpoint"}"#)?;
    checks.ensure(
        status(&cp3) == Some("checkpointed") && daemon.stats().checkpoints == 2,
        "the checkpoint after the aborted one succeeds",
        &cp3,
    )?;

    let persisted = daemon.stop().map_err(|e| format!("stop: {e}"))?;
    checks.ensure(
        persisted == 6,
        "shutdown persists the full warm cache",
        &persisted,
    )?;
    Ok(())
}

/// Phase 3: tear the snapshot inside its last entry, restart, and prove
/// the valid prefix is salvaged (cache hits) with exactly one
/// resynthesis for the torn key.
fn salvage_phase(seed: u64, dir: &Path, checks: &mut Checks) -> Result<(), String> {
    let path = dir.join(SNAPSHOT_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read snapshot: {e}"))?;

    // Walk the format (3 header lines, then length-prefixed entries) to
    // find where the last entry's record begins, and cut inside it.
    let mut offset = 0usize;
    for _ in 0..3 {
        offset += text[offset..]
            .find('\n')
            .ok_or("snapshot header truncated")?
            + 1;
    }
    let mut last_entry_start = offset;
    for _ in 0..6 {
        last_entry_start = offset;
        let header_end = offset
            + text[offset..]
                .find('\n')
                .ok_or("snapshot entry truncated")?;
        let compact_len: usize = text[offset..header_end]
            .split(' ')
            .nth(2)
            .and_then(|l| l.parse().ok())
            .ok_or("snapshot entry header unparseable")?;
        offset = header_end + 1 + compact_len;
    }
    let cut = last_entry_start + 1 + (seed as usize % 8);
    std::fs::write(&path, &text.as_bytes()[..cut]).map_err(|e| format!("truncate: {e}"))?;

    let report = WarmCache::load_from(&path).map_err(|e| format!("salvage load: {e}"))?;
    checks.ensure(
        report.salvaged && report.entries_loaded == 5 && report.entries_expected == 6,
        "a snapshot torn mid-entry salvages exactly the valid prefix",
        &(
            report.entries_loaded,
            report.entries_expected,
            &report.detail,
        ),
    )?;

    let daemon = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(dir.to_path_buf()),
        quiet: true,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("respawn: {e}"))?;
    let mut client = connect(&daemon.addr().to_string())?;
    let mut hits = 0u64;
    for i in 1..=6u64 {
        let response = call(&mut client, &synth_line(30 + i, i))?;
        checks.ensure(
            status(&response) == Some("ok"),
            "every key is servable after a salvaged restart",
            &response,
        )?;
        if response.get("cache_hit").and_then(Json::as_bool) == Some(true) {
            hits += 1;
        }
    }
    let stats = daemon.stats();
    checks.ensure(
        hits == 5 && stats.synthesized == 1,
        "salvaged keys are cache hits; only the torn key resynthesizes",
        &(hits, stats.synthesized),
    )?;
    daemon.stop().map_err(|e| format!("stop: {e}"))?;
    Ok(())
}

/// Phase 4: a 10 MiB request line is refused with a typed error, the
/// connection is closed, and daemon memory stays flat.
fn oversized_line_phase(checks: &mut Checks) -> Result<(), String> {
    let daemon = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        quiet: true,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let mut client = connect(&daemon.addr().to_string())?;

    // RSS is process-wide: runs on parallel test threads
    // must not allocate (or free) their own 10 MiB line inside another
    // suite's before/after window. Held until `oversized` is dropped.
    static RSS_WINDOW: Mutex<()> = Mutex::new(());
    let window = RSS_WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let oversized = "x".repeat(10 << 20);
    let rss_before = rss_bytes();
    let response = call(&mut client, &oversized)?;
    checks.ensure(
        status(&response) == Some("error") && reason(&response).contains("exceeds"),
        "a 10 MiB request line gets a typed error naming the cap",
        &response,
    )?;
    let followup = client.call(r#"{"op":"ping"}"#);
    checks.ensure(
        followup.is_err(),
        "the connection is closed after an oversized line",
        &followup.map(|r| r.to_string()),
    )?;
    // Let the connection thread finish and free its bounded buffer.
    std::thread::sleep(Duration::from_millis(200));
    if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
        checks.ensure(
            after.saturating_sub(before) < 8 << 20,
            "daemon RSS is unaffected by the oversized line (bounded buffering)",
            &(before, after),
        )?;
    }
    drop(oversized);
    drop(window);
    daemon.stop().map_err(|e| format!("stop: {e}"))?;
    Ok(())
}

/// Phase 5a: a burst against a tiny queue — rejections carry retry
/// hints and every request lands `ok` within the retry budget.
fn overload_phase(checks: &mut Checks) -> Result<(), String> {
    let daemon = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        retry_after_ms: 10,
        // Stall the first two jobs so the burst reliably overflows the
        // depth-1 queue.
        faults: FaultPlan::none().with_stall(1, 250).with_stall(2, 250),
        quiet: true,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = daemon.addr().to_string();
    let policy = RetryPolicy {
        max_retries: 10,
        base: Duration::from_millis(25),
        max: Duration::from_millis(300),
    };

    let barrier = Barrier::new(6);
    let outcomes: Vec<Result<(String, u32), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let addr = &addr;
                let barrier = &barrier;
                let policy = &policy;
                scope.spawn(move || -> Result<(String, u32), String> {
                    let mut client = connect(addr)?;
                    barrier.wait();
                    let call = client
                        .call_with_retry(&synth_line(50 + t, 50 + t), policy)
                        .map_err(|e| format!("retry call: {e}"))?;
                    Ok((
                        status(&call.response).unwrap_or("?").to_string(),
                        call.retries,
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst thread"))
            .collect()
    });

    let mut total_retries = 0u32;
    for outcome in &outcomes {
        let (final_status, retries) = outcome.as_ref().map_err(|e| e.clone())?;
        checks.ensure(
            final_status == "ok",
            "every burst request eventually succeeds within its retry budget",
            &(final_status, retries),
        )?;
        total_retries += retries;
    }
    let stats = daemon.stats();
    checks.ensure(
        stats.rejected >= 1 && total_retries >= 1,
        "the tiny queue rejected part of the burst and retries absorbed it",
        &(stats.rejected, total_retries),
    )?;
    daemon.stop().map_err(|e| format!("stop: {e}"))?;
    Ok(())
}

/// Phase 6: a capped daemon under a trace larger than its budget —
/// residency stays bounded, evicted keys re-synthesize to identical
/// deterministic schedules, and checkpoints persist only the resident
/// set.
fn eviction_phase(dir: &Path, checks: &mut Checks) -> Result<(), String> {
    let dir = dir.join("eviction");
    let daemon = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: Some(dir.clone()),
        warm_limits: WarmLimits {
            max_entries: 3,
            max_bytes: 0,
        },
        quiet: true,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let mut client = connect(&daemon.addr().to_string())?;

    // A trace of 8 distinct keys against a 3-entry cap; remember each
    // schedule's deterministic completion time.
    let mut times = Vec::new();
    for i in 1..=8u64 {
        let response = call(&mut client, &synth_line(60 + i, 300 + i))?;
        checks.ensure(
            status(&response) == Some("ok") && echoed_id(&response) == Some(60 + i),
            "a trace over the cap still answers every request ok",
            &response,
        )?;
        times.push(response.get("collective_time_ps").and_then(Json::as_u64));
    }
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let warm_entries = stats
        .get("warm_entries")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let evictions = stats.get("evictions").and_then(Json::as_u64).unwrap_or(0);
    checks.ensure(
        (1..=3).contains(&warm_entries)
            && evictions == 8 - warm_entries
            && stats.get("resident_bytes").and_then(Json::as_u64).is_some(),
        "residency stays at the cap and evictions are counted on the wire",
        &stats,
    )?;

    // Every evicted key re-synthesizes to the identical schedule: the
    // synthesis is deterministic per seed, so the completion time must
    // match the first pass exactly.
    for i in 1..=8u64 {
        let redo = call(&mut client, &synth_line(70 + i, 300 + i))?;
        checks.ensure(
            status(&redo) == Some("ok")
                && redo.get("collective_time_ps").and_then(Json::as_u64) == times[(i - 1) as usize],
            "an evicted key re-synthesizes to the identical deterministic schedule",
            &redo,
        )?;
    }
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let resident = stats
        .get("warm_entries")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    checks.ensure(
        (1..=3).contains(&resident)
            && stats.get("evictions").and_then(Json::as_u64).unwrap_or(0) > evictions,
        "re-serving the trace keeps residency bounded while evictions grow",
        &stats,
    )?;
    // All eight shapes were remembered by then — which spared the
    // daemon resolving them again, not synthesizing the evicted ones.
    let count = |field| stats.get(field).and_then(Json::as_u64);
    checks.ensure(
        count("resolved_shapes") == Some(8)
            && count("resolve_hits") == Some(8)
            && count("resolve_hits") <= count("requests"),
        "a remembered shape is looked up, never answered from, when its schedule is evicted",
        &stats,
    )?;

    // A checkpoint under eviction writes exactly the resident set, and
    // it reloads clean.
    let cp = call(&mut client, r#"{"id":90,"op":"checkpoint"}"#)?;
    checks.ensure(
        status(&cp) == Some("checkpointed")
            && cp.get("entries").and_then(Json::as_u64) == Some(resident),
        "a checkpoint under eviction persists only the resident set",
        &(&cp, resident),
    )?;
    let report = WarmCache::load_from(dir.join(SNAPSHOT_FILE))
        .map_err(|e| format!("snapshot after eviction: {e}"))?;
    checks.ensure(
        report.is_clean() && report.entries_loaded as u64 == resident,
        "the under-eviction snapshot reloads clean with only resident entries",
        &(report.entries_loaded, report.salvaged),
    )?;
    daemon.stop().map_err(|e| format!("stop: {e}"))?;
    Ok(())
}

/// Phase 5b: the connection cap rejects with a retry hint, and the slot
/// frees as soon as a connection closes.
fn connection_cap_phase(checks: &mut Checks) -> Result<(), String> {
    let daemon = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 2,
        retry_after_ms: 25,
        quiet: true,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = daemon.addr().to_string();

    let mut first = connect(&addr)?;
    call(&mut first, r#"{"op":"ping"}"#)?;
    let mut second = connect(&addr)?;
    call(&mut second, r#"{"op":"ping"}"#)?;

    // The third connection is told to go away — one typed line, with
    // the hint, read without sending anything.
    let third = TcpStream::connect(&addr).map_err(|e| format!("third connect: {e}"))?;
    let mut reader = std::io::BufReader::new(third);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read rejection: {e}"))?;
    let rejection = Json::parse(line.trim()).map_err(|e| format!("parse rejection: {e}"))?;
    checks.ensure(
        status(&rejection) == Some("rejected")
            && rejection.get("retry_after_ms").and_then(Json::as_u64) == Some(25)
            && reason(&rejection).contains("connection limit"),
        "an over-cap connection gets one typed rejected line with a retry hint",
        &rejection,
    )?;

    // Freeing a slot lets a retrying client in.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = false;
    while Instant::now() < deadline {
        match Client::connect(&addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call(r#"{"op":"ping"}"#).map_err(|e| e.to_string()))
        {
            Ok(response) if status(&response) == Some("pong") => {
                admitted = true;
                break;
            }
            Ok(response) if status(&response) == Some("rejected") => {
                let hint = response
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(25);
                std::thread::sleep(Duration::from_millis(hint));
            }
            Ok(response) => {
                return Err(format!("unexpected response while retrying: {response:?}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    checks.ensure(
        admitted,
        "a freed slot admits a retrying connection within its hint cadence",
        &admitted,
    )?;
    daemon.stop().map_err(|e| format!("stop: {e}"))?;
    Ok(())
}
