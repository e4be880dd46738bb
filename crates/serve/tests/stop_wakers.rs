//! The daemon's waits are blocking waits, each with a named waker; these
//! tests pin the wakers. `stop()` must return promptly from every state
//! a blocked thread can be parked in, a connection that arrives after a
//! stop request is closed unanswered, and work already queued still
//! drains before the workers leave.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tacos_core::WarmCache;
use tacos_report::Json;
use tacos_serve::{Client, Daemon, DaemonConfig, DaemonHandle, FaultPlan, SNAPSHOT_FILE};

/// Generous for a loaded CI box; the old 25 ms polls passed it too — what
/// fails it is a waker that never fires (a hang), not a slow one.
const PROMPT: Duration = Duration::from_secs(1);

fn spawn(config: DaemonConfig) -> DaemonHandle {
    Daemon::spawn(DaemonConfig {
        quiet: true,
        ..config
    })
    .expect("daemon starts")
}

fn local(config: DaemonConfig) -> DaemonHandle {
    spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
}

fn stop_promptly(daemon: DaemonHandle, what: &str) -> usize {
    let started = Instant::now();
    let persisted = daemon.stop().expect("clean stop");
    let took = started.elapsed();
    assert!(took < PROMPT, "{what}: stop() took {took:?}");
    persisted
}

fn status(response: &Json) -> Option<&str> {
    response.get("status").and_then(Json::as_str)
}

#[test]
fn stop_returns_promptly_on_a_daemon_that_never_saw_a_connection() {
    // Accept thread parked in accept(), workers on the empty queue, the
    // supervisor and the checkpointer on the stop condvar.
    let dir = temp_dir("untouched");
    let daemon = local(DaemonConfig {
        cache_dir: Some(dir.clone()),
        checkpoint_every: Some(Duration::from_secs(3600)),
        ..DaemonConfig::default()
    });
    stop_promptly(daemon, "untouched daemon");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_wakes_a_listener_bound_to_the_unspecified_address() {
    // The wake-up connect cannot target 0.0.0.0 / [::]; it must map the
    // bind address to the same family's loopback.
    let daemon = spawn(DaemonConfig {
        addr: "0.0.0.0:0".into(),
        ..DaemonConfig::default()
    });
    assert!(daemon.addr().ip().is_unspecified());
    stop_promptly(daemon, "0.0.0.0:0");

    // IPv6 may be unavailable in a sandbox; when it binds, it must stop.
    if let Ok(daemon) = Daemon::spawn(DaemonConfig {
        addr: "[::]:0".into(),
        quiet: true,
        ..DaemonConfig::default()
    }) {
        stop_promptly(daemon, "[::]:0");
    }
}

#[test]
fn stop_returns_promptly_with_workers_parked_after_serving() {
    let daemon = local(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    let response = client
        .call(r#"{"topology":"mesh:2x2","collective":"all-gather","size":"1MB"}"#)
        .unwrap();
    assert_eq!(status(&response), Some("ok"), "{response}");
    // Both workers are back in (or queued behind) the blocking recv.
    stop_promptly(daemon, "parked workers, open client connection");
}

#[test]
fn stop_returns_promptly_with_the_connection_cap_saturated() {
    let daemon = local(DaemonConfig {
        max_connections: 2,
        ..DaemonConfig::default()
    });
    let mut held: Vec<Client> = (0..2)
        .map(|_| Client::connect(daemon.addr()).unwrap())
        .collect();
    for client in &mut held {
        let pong = client.call(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(status(&pong), Some("pong"));
    }
    // The cap is full: the next client is told so, unasked, and closed...
    let extra = TcpStream::connect(daemon.addr()).unwrap();
    let mut line = String::new();
    BufReader::new(extra).read_line(&mut line).unwrap();
    let refused = Json::parse(line.trim()).unwrap();
    assert_eq!(status(&refused), Some("rejected"), "{line}");
    // ...and the wake-up self-connect still gets through to end accept().
    stop_promptly(daemon, "saturated connection cap");
}

#[test]
fn a_connection_arriving_after_shutdown_is_closed_never_answered() {
    let daemon = local(DaemonConfig::default());
    let addr = daemon.addr();
    let mut client = Client::connect(addr).unwrap();
    let response = client.call(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(status(&response), Some("shutting_down"));
    assert!(daemon.stop_requested());

    // The shutdown op has already woken the accept thread, before the
    // owner calls stop(): a late client is refused outright or accepted
    // by the kernel and dropped — it never reads a response line.
    for attempt in 0..3 {
        let Ok(mut late) = TcpStream::connect_timeout(&addr, PROMPT) else {
            continue; // refused: the listener is gone
        };
        late.set_read_timeout(Some(PROMPT)).unwrap();
        let _ = late.write_all(b"{\"op\":\"ping\"}\n");
        let mut line = String::new();
        let read = BufReader::new(late).read_line(&mut line);
        assert!(
            matches!(read, Ok(0)) || read.as_ref().is_err_and(|e| !is_timeout(e)),
            "attempt {attempt}: a post-shutdown connection got {read:?} / {line:?}"
        );
    }
    stop_promptly(daemon, "after a client shutdown op");
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[test]
fn queued_jobs_drain_before_the_workers_exit() {
    // One worker whose first job stalls for far longer than the test may
    // take: the second and third job can only sit in the queue.
    let dir = temp_dir("drain");
    let daemon = local(DaemonConfig {
        workers: 1,
        queue_depth: 4,
        cache_dir: Some(dir.clone()),
        faults: FaultPlan::none().with_stall(1, 60_000),
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(daemon.addr()).unwrap();
    for seed in 1..=3 {
        // A 1 ms deadline returns once the job is enqueued, leaving the
        // synthesis to finish on its own.
        let response = client
            .call(&format!(
                r#"{{"topology":"mesh:2x2","collective":"all-gather","size":"1MB","seed":{seed},"deadline_ms":1}}"#
            ))
            .unwrap();
        assert_eq!(status(&response), Some("deadline"), "{response}");
    }
    assert_eq!(daemon.stats().synthesized, 0, "the stall holds job 1");

    // stop() cuts the injected stall short (it waits on the stop condvar)
    // and closes the queue; the worker must still run all three jobs
    // before it sees the channel closed.
    let persisted = stop_promptly(daemon, "stalled worker, two queued jobs");
    assert_eq!(persisted, 3, "queued syntheses were dropped at shutdown");
    let report = WarmCache::load_from(dir.join(SNAPSHOT_FILE)).unwrap();
    assert!(report.is_clean(), "{:?}", report.detail);
    assert_eq!(report.entries_loaded, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacos-wakers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
