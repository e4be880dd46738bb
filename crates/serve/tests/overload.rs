//! Overload-protection behaviors not covered by the chaos harness: the
//! per-connection idle timeout (with its slowloris-resistant clock), the
//! request-line cap at a small, fast-to-test size, and request values
//! that must fail typed instead of panicking the connection thread.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tacos_report::Json;
use tacos_serve::{Client, Daemon, DaemonConfig};

fn spawn(config: DaemonConfig) -> tacos_serve::DaemonHandle {
    Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        quiet: true,
        ..config
    })
    .expect("daemon starts")
}

#[test]
fn idle_connections_get_a_typed_timeout_then_close() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(300)),
        ..DaemonConfig::default()
    });

    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Say nothing: the daemon must eventually send a typed error naming
    // the idle timeout, then close.
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("error"),
        "got: {line}"
    );
    let reason = response
        .get("reason")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(reason.contains("idle"), "got: {reason}");

    line.clear();
    let n = reader.read_line(&mut line).unwrap();
    assert_eq!(n, 0, "connection must be closed after the timeout");
    daemon.stop().unwrap();
}

#[test]
fn activity_resets_the_idle_clock() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(600)),
        ..DaemonConfig::default()
    });

    let mut client = Client::connect(daemon.addr()).unwrap();
    // Three pings spaced at half the timeout keep the connection alive
    // well past the raw timeout from connect.
    for i in 0..3 {
        std::thread::sleep(Duration::from_millis(300));
        let response = client
            .call(&format!("{{\"op\":\"ping\",\"id\":{i}}}"))
            .unwrap();
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("pong"),
            "ping {i} after ~{}ms total",
            300 * (i + 1)
        );
    }
    daemon.stop().unwrap();
}

#[test]
fn partial_lines_do_not_reset_the_idle_clock() {
    // Slowloris: a client dribbling bytes without ever finishing a line
    // must still be timed out — only *completed* requests reset the clock.
    let daemon = spawn(DaemonConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(400)),
        ..DaemonConfig::default()
    });

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let started = std::time::Instant::now();
    let writer = std::thread::spawn(move || {
        // One byte every 100ms, never a newline; stop after 2s.
        for _ in 0..20 {
            if stream.write_all(b"x").is_err() {
                return;
            }
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let elapsed = started.elapsed();
    writer.join().unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("error"),
        "got: {line}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "dribbled bytes kept the connection alive for {elapsed:?}"
    );
    daemon.stop().unwrap();
}

#[test]
fn a_small_line_cap_rejects_with_a_typed_error() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        max_line_bytes: 128,
        ..DaemonConfig::default()
    });

    let mut client = Client::connect(daemon.addr()).unwrap();
    let oversized = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "y".repeat(200));
    let response = client.call(&oversized).unwrap();
    assert_eq!(response.get("status").and_then(Json::as_str), Some("error"));
    let reason = response
        .get("reason")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(reason.contains("128"), "got: {reason}");

    // A fresh connection still works: the cap is per-line, not global.
    let mut fresh = Client::connect(daemon.addr()).unwrap();
    let pong = fresh.call("{\"op\":\"ping\",\"id\":1}").unwrap();
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("pong"));
    daemon.stop().unwrap();
}

#[test]
fn unusable_link_parameters_get_a_typed_error_and_keep_the_connection() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });

    let mut client = Client::connect(daemon.addr()).unwrap();
    let links = [
        (1, r#""alpha_us":-1"#, "alpha must be"),
        (2, r#""link_gbps":0"#, "alpha must be"),
        (3, r#""link_gbps":1e400"#, "alpha must be"),
        // Past the picosecond clock: α itself, inf B/s, and a payload
        // whose serialization does not fit.
        (4, r#""alpha_us":1e300"#, "alpha must be under 2^64 ps"),
        (
            5,
            r#""link_gbps":1e300"#,
            "bandwidth must be finite in bytes per second",
        ),
        (6, r#""link_gbps":1e-300"#, "past the 2^64 ps clock"),
    ];
    for (id, link, needle) in links {
        let response = client
            .call(&format!(r#"{{"id":{id},"topology":"ring:4",{link}}}"#))
            .unwrap_or_else(|e| panic!("{link}: no typed response: {e}"));
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("error"),
            "{link}: {response}"
        );
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        let reason = response
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(reason.contains(needle), "{link}: {reason}");
    }

    // The same connection survives all of them.
    let pong = client.call(r#"{"op":"ping","id":7}"#).unwrap();
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("pong"));
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("errors").and_then(Json::as_u64),
        Some(links.len() as u64)
    );
    daemon.stop().unwrap();
}

/// Three lines that used to be served wrong or not at all: a repeated
/// key was served with its last value; `2^64` was read as `u64::MAX`
/// (and answered from that seed's cache entry); a chunking factor whose
/// chunk count wraps panicked the connection thread (`8 * 2^61 = 0`
/// chunks, a division by zero) or a worker (`8 * (2^61 + 1) = 8`
/// chunks, ids out of range) where overflow checks are off.
#[test]
fn repeated_keys_and_out_of_range_integers_get_a_typed_error() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(daemon.addr()).unwrap();

    // The entry `2^64` must not be answered from.
    let max_seed = client
        .call(r#"{"topology":"ring:8","size":"1MB","seed":18446744073709551615}"#)
        .unwrap();
    assert_eq!(max_seed.get("status").and_then(Json::as_str), Some("ok"));

    let chunks = "over 8 NPUs exceeds the 4294967295 chunks a collective can number";
    let hostile = [
        (
            r#"{"topology":"ring:4","topology":"ring:8","size":"1MB"}"#,
            "duplicate field 'topology'",
        ),
        (
            r#"{"topology":"ring:8","size":"1MB","seed":18446744073709551616}"#,
            "'seed' must be an integer",
        ),
        (
            r#"{"topology":"ring:8","size":"1MB","chunks":2305843009213693952}"#,
            chunks,
        ),
        (
            r#"{"topology":"ring:8","size":"1MB","chunks":2305843009213693953}"#,
            chunks,
        ),
        (
            r#"{"topology":"ring:8","size":"1MB","collective":"all-to-all","chunks":288230376151711744}"#,
            chunks,
        ),
        (
            r#"{"topology":"ring:8","size":"1MB","mechanism":"tacos:2305843009213693953"}"#,
            chunks,
        ),
        (
            r#"{"topology":"ring:8","size":"1MB","chunks":0}"#,
            "'chunks' must be >= 1",
        ),
        // 2^64 - 1 bytes: a ring step's serialization alone is past 2^64 ps.
        (
            r#"{"topology":"ring:8","size":"18446744073709551615B"}"#,
            "past the 2^64 ps clock",
        ),
    ];
    for (line, needle) in hostile {
        let response = client
            .call(line)
            .unwrap_or_else(|e| panic!("{line}: no typed response: {e}"));
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("error"),
            "{line}: {response}"
        );
        let reason = response
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(reason.contains(needle), "{line}: {reason}");
        assert!(!reason.contains('\n'), "{line}: {reason}");
    }

    // The same connection survives all of them, no worker died, and
    // nothing but the first request was synthesized or remembered.
    let pong = client.call(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("pong"));
    let stats = daemon.stats();
    assert_eq!(stats.errors, hostile.len() as u64, "{stats:?}");
    assert_eq!(stats.worker_restarts, 0, "{stats:?}");
    assert_eq!((stats.synthesized, stats.cache_hits), (1, 0), "{stats:?}");
    assert_eq!(stats.resolved_shapes, 1, "{stats:?}");
    daemon.stop().unwrap();
}

/// A chunking factor whose chunk count fits a chunk id but whose
/// (NPU, chunk) pairs are absurd — `ring:8` at 2^28 chunks per NPU would
/// need a 64 GB provider table — is refused before anything is
/// allocated, as a one-line typed error; a tacos mechanism override is
/// bound the same way, and the connection and the worker both survive.
#[test]
fn a_collective_over_the_pair_limit_gets_a_typed_error() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(daemon.addr()).unwrap();
    let too_large = "(NPU, chunk) pairs, over the limit of 33554432";
    for line in [
        r#"{"topology":"ring:8","size":"1MB","chunks":268435456}"#,
        r#"{"topology":"ring:8","size":"1MB","mechanism":"tacos:268435456"}"#,
        r#"{"topology":"ring:8","size":"1MB","collective":"all-to-all","chunks":1048576}"#,
    ] {
        let response = client.call(line).unwrap();
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("error"),
            "{line}: {response}"
        );
        let reason = response
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(reason.ends_with(too_large), "{line}: {reason}");
        assert!(!reason.contains('\n'), "{line}: {reason}");
    }
    let ok = client
        .call(r#"{"topology":"ring:8","size":"1MB","chunks":4}"#)
        .unwrap();
    assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
    let stats = daemon.stats();
    assert_eq!(stats.errors, 3, "{stats:?}");
    assert_eq!(stats.worker_restarts, 0, "{stats:?}");
    daemon.stop().unwrap();
}

/// A topology spec whose NPU or link count is absurd — `fc:100000` would
/// ask for ten billion links, the mesh's NPU product wraps — is refused
/// while the line is resolved, before the fabric is allocated, and the
/// connection keeps answering.
#[test]
fn a_topology_over_the_size_limit_gets_a_typed_error() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(daemon.addr()).unwrap();
    let lines = [
        r#"{"topology":"fc:100000","mechanism":"ideal"}"#,
        r#"{"topology":"mesh:4294967296x4294967297"}"#,
        r#"{"topology":"switch:100000:d99999"}"#,
    ];
    for line in lines {
        let response = client.call(line).unwrap();
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("error"),
            "{line}: {response}"
        );
        let reason = response
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(
            reason.ends_with("over the limit of 33554432"),
            "{line}: {reason}"
        );
        assert!(!reason.contains('\n'), "{line}: {reason}");
    }
    let pong = client.call(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("pong"));
    let stats = daemon.stats();
    assert_eq!(stats.errors, lines.len() as u64, "{stats:?}");
    assert_eq!(stats.worker_restarts, 0, "{stats:?}");
    daemon.stop().unwrap();
}
