//! The one-shot CLI speaks the shared mechanism vocabulary: `--algo`
//! accepts everything a scenario file's `algo` axis and `tacos serve`'s
//! `mechanism` field accept, with the same chunk-override rule.

use std::process::Command;

use tacos_report::Json;

const POINT: [&str; 6] = [
    "--topology",
    "mesh:3x3",
    "--collective",
    "all-gather",
    "--size",
    "9MB",
];

/// The `--json` keys are a stable interface; the new forms add none.
const KEYS: [&str; 11] = [
    "algorithm",
    "bandwidth_gbps",
    "collective",
    "collective_time_ps",
    "efficiency_vs_ideal",
    "num_links",
    "num_npus",
    "size_bytes",
    "synthesis_seconds",
    "topology",
    "transfers",
];

fn tacos_json(extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_tacos"))
        .args(POINT)
        .args(extra)
        .arg("--json")
        .output()
        .expect("tacos binary runs");
    assert!(
        out.status.success(),
        "tacos {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json =
        Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("--json prints one object");
    match &json {
        Json::Obj(map) => assert_eq!(map.keys().map(String::as_str).collect::<Vec<_>>(), KEYS),
        other => panic!("expected an object, got {other:?}"),
    }
    json
}

fn uint(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} is not an unsigned integer in {json}"))
}

#[test]
fn algo_ideal_reports_the_bound_without_a_schedule() {
    let ideal = tacos_json(&["--algo", "ideal"]);
    assert_eq!(ideal.get("algorithm").and_then(Json::as_str), Some("ideal"));
    assert_eq!(uint(&ideal, "transfers"), 0);
    assert_eq!(
        ideal.get("efficiency_vs_ideal").and_then(Json::as_f64),
        Some(1.0)
    );
    // The bound is what every other row's efficiency is framed against.
    let tacos = tacos_json(&["--algo", "tacos"]);
    assert!(uint(&ideal, "collective_time_ps") <= uint(&tacos, "collective_time_ps"));
}

#[test]
fn algo_tacos_n_overrides_the_chunks_flag() {
    let variant = tacos_json(&["--algo", "tacos:4"]);
    let flag = tacos_json(&["--algo", "tacos", "--chunks", "4"]);
    // `tacos:4` wins over `--chunks`, exactly as it overrides a
    // scenario's `chunks` axis.
    let both = tacos_json(&["--algo", "tacos:4", "--chunks", "2"]);
    for key in ["collective_time_ps", "transfers"] {
        assert_eq!(uint(&variant, key), uint(&flag, key), "{key}");
        assert_eq!(uint(&variant, key), uint(&both, key), "{key}");
    }
    let unchunked = tacos_json(&["--algo", "tacos"]);
    assert_eq!(
        uint(&variant, "transfers"),
        4 * uint(&unchunked, "transfers")
    );
}

#[test]
fn algo_tacos_overrides_layer_on_the_seed_and_attempts_flags() {
    let variant = tacos_json(&["--algo", "tacos:attempts=8,seed=3"]);
    let flags = tacos_json(&["--algo", "tacos", "--attempts", "8", "--seed", "3"]);
    // The per-variant overrides win over contradicting flags.
    let both = tacos_json(&[
        "--algo",
        "tacos:attempts=8,seed=3",
        "--attempts",
        "1",
        "--seed",
        "42",
    ]);
    for key in ["collective_time_ps", "transfers"] {
        assert_eq!(uint(&variant, key), uint(&flags, key), "{key}");
        assert_eq!(uint(&variant, key), uint(&both, key), "{key}");
    }
}

#[test]
fn values_the_daemon_and_the_scenario_loader_reject_are_usage_errors() {
    let link = "alpha must be finite and >= 0 and bandwidth finite and > 0";
    for (flag, value, want) in [
        ("--alpha", "-1", link),
        ("--alpha", "inf", link),
        ("--bw", "0", link),
        ("--bw", "nan", link),
        ("--chunks", "0", "'chunks' must be >= 1"),
        ("--attempts", "0", "'attempts' must be >= 1"),
        // 4·2^62 wraps to 0 chunks and 4·(2^62+1) to 4 where overflow
        // checks are off (release); both are refused before they multiply.
        (
            "--chunks",
            "4611686018427387904",
            "chunks a collective can number",
        ),
        (
            "--chunks",
            "4611686018427387905",
            "chunks a collective can number",
        ),
        // α + payload/β past 2^64 ps wraps to a small time where overflow
        // checks are off, and inf B/s panics in the unit types.
        ("--alpha", "1e300", "alpha must be under 2^64 ps"),
        (
            "--bw",
            "1e300",
            "bandwidth must be finite in bytes per second",
        ),
        ("--bw", "1e-300", "past the 2^64 ps clock"),
        ("--size", "18446744073709551615B", "past the 2^64 ps clock"),
        // The reference matcher is a library oracle, not a mechanism key.
        (
            "--algo",
            "tacos:reference_matching=true",
            "unknown tacos override 'reference_matching' (expected one of: \
             chunks, attempts, seed, prefer_cheap_links)",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tacos"))
            .args(["--topology", "ring:4", flag, value, "--json"])
            .output()
            .expect("tacos binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} printed a result");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.ends_with(want),
            "{flag} {value}: {first}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

/// `--chunks` values whose chunk count fits a chunk id but whose
/// (NPU, chunk) pairs exceed the documented bound are refused up front
/// with the collective's own reason, for TACOS and for a baseline.
#[test]
fn chunks_over_the_pair_limit_are_a_usage_error() {
    for algo in ["tacos", "ring"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tacos"))
            .args(["--topology", "ring:8", "--chunks", "268435456"])
            .args(["--algo", algo, "--json"])
            .output()
            .expect("tacos binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{algo}: {stderr}");
        assert!(out.stdout.is_empty(), "{algo} printed a result");
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(
            first,
            "error: collective spans 17179869184 (NPU, chunk) pairs, over the limit of 33554432",
            "{algo}"
        );
    }
}

/// A spec string that describes an absurd fabric is one usage error, not
/// an aborted allocation. The address-space cap makes a regression fail
/// fast instead of exhausting the machine: without the size bound
/// `fc:100000` asks for a 1.6 GB link table, and a ring over links whose
/// cost wraps past 2^64 ps grows its routing table until it aborts. A
/// tier whose bandwidth overflows or rounds to zero in bytes per second
/// used to panic in the ideal bound.
#[cfg(unix)]
#[test]
fn an_oversized_topology_is_one_error_line_under_a_memory_cap() {
    let oversized = "over the limit of 33554432";
    for (args, want) in [
        ("--topology fc:100000 --algo ideal", oversized),
        (
            "--topology mesh:4294967296x4294967297 --algo ideal",
            oversized,
        ),
        ("--topology switch:100000:d99999 --algo ideal", oversized),
        (
            "--algo ring --alpha 1e300 --size 18446744073709551615B",
            "alpha must be under 2^64 ps",
        ),
        (
            "--topology rfs:2x2x2:1e300x1x1",
            "tier bandwidth 5e301 GB/s must be finite and > 0 in bytes per second",
        ),
        (
            "--topology dragonfly:4x4:1e300",
            "tier bandwidth 5e301 GB/s must be finite and > 0 in bytes per second",
        ),
        (
            "--bw 1e-300 --topology rfs:2x2x2:1e-300x1x1",
            "tier bandwidth 0e0 GB/s must be finite and > 0 in bytes per second",
        ),
    ] {
        let out = Command::new("sh")
            .arg("-c")
            // `$1` unquoted: the shell splits the row into its flags.
            .arg("ulimit -v 1500000; exec \"$0\" $1 --json")
            .arg(env!("CARGO_BIN_EXE_tacos"))
            .arg(args)
            .output()
            .expect("sh runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args}: {stderr}");
        assert!(errors[0].ends_with(want), "{args}: {stderr}");
    }
}
