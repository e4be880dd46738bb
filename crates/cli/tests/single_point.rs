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
