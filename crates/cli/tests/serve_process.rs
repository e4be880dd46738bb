//! The `tacos serve` *process* contract — what only the real binary under
//! real signals can show: SIGINT persists the warm cache and exits 0, a
//! restart on the same `--cache-dir` serves from it, a capped daemon
//! checkpoints only its resident set, and a SIGKILLed daemon's torn
//! snapshot is salvaged rather than discarded.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use tacos_report::Json;
use tacos_serve::{Client, SNAPSHOT_FILE};

const DEADLINE: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tacos-serve-process-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `n` requests with distinct cache keys, synthesized and baseline mixed.
/// ring:4 is uniform, so TACOS sizes share a cost shape: the seed keeps
/// each TACOS key distinct.
fn requests(n: usize) -> Vec<String> {
    (1..=n)
        .map(|mb| {
            let mechanism = if mb % 2 == 0 { "ring" } else { "tacos" };
            format!(
                r#"{{"id":{mb},"topology":"ring:4","collective":"all-gather","size":"{mb}MB","mechanism":"{mechanism}","seed":{mb}}}"#
            )
        })
        .collect()
}

/// One running `tacos serve --addr 127.0.0.1:0 --cache-dir <dir> ...`.
struct Serve {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
    /// Everything the daemon said before it started listening: the
    /// snapshot `loaded` / `salvaged` notice lives here.
    startup: String,
}

impl Serve {
    fn spawn(cache_dir: &Path, extra: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tacos"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tacos serve starts");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut startup = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).expect("daemon stderr is text") == 0 {
                let _ = child.kill();
                panic!("daemon exited before listening:\n{startup}");
            }
            if let Some((_, rest)) = line.split_once("listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
            startup.push_str(&line);
        };
        Serve {
            child,
            stderr,
            addr,
            startup,
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr.as_str()).expect("connect to the listening daemon")
    }

    /// Sends every request on one connection; all must answer `ok`.
    /// Returns how many were cache hits.
    fn serve_all(&self, requests: &[String]) -> usize {
        let mut client = self.client();
        let mut hits = 0;
        for request in requests {
            let response = client.call(request).expect("one response per request");
            assert_eq!(
                response.get("status").and_then(Json::as_str),
                Some("ok"),
                "{request} -> {response}"
            );
            if response.get("cache_hit").and_then(Json::as_bool) == Some(true) {
                hits += 1;
            }
        }
        hits
    }

    fn stat(&self, key: &str) -> u64 {
        let stats = self.client().stats().expect("stats answers");
        stats
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no '{key}' in {stats}"))
    }

    /// Waits for the exit and returns its status with the rest of stderr.
    fn exit(mut self) -> (ExitStatus, String) {
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            match self.child.try_wait().expect("wait on the daemon") {
                Some(status) => break status,
                None if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    panic!("daemon still running {DEADLINE:?} after its signal");
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        (status, rest)
    }

    /// `kill -INT`: the graceful path must persist the cache and exit 0.
    fn interrupt(self) {
        let kill = Command::new("sh")
            .args(["-c", &format!("kill -INT {}", self.child.id())])
            .status()
            .expect("sh runs");
        assert!(kill.success(), "kill -INT failed");
        let (status, rest) = self.exit();
        assert_eq!(status.code(), Some(0), "SIGINT exit: {status}\n{rest}");
    }

    /// SIGKILL: no shutdown persistence can run.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL");
        let (status, rest) = self.exit();
        assert!(!status.success(), "SIGKILL exit: {status}\n{rest}");
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // A failed assertion must not leave a daemon behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn sigint_persists_the_cache_and_a_restart_serves_it() {
    let cache_dir = temp_dir("sigint");
    let requests = requests(4);

    let cold = Serve::spawn(&cache_dir, &[]);
    assert_eq!(cold.serve_all(&requests), 0, "a cold daemon has no hits");
    cold.interrupt();
    let snapshot = std::fs::metadata(cache_dir.join(SNAPSHOT_FILE)).expect("snapshot written");
    assert!(snapshot.len() > 0);

    let warm = Serve::spawn(&cache_dir, &[]);
    assert!(warm.startup.contains("loaded 4"), "{}", warm.startup);
    assert_eq!(warm.serve_all(&requests), 4);
    assert_eq!(warm.stat("cache_hits"), 4);
    assert_eq!(
        warm.stat("synthesized"),
        0,
        "a warm restart resynthesizes nothing"
    );
    warm.interrupt();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_capped_daemon_evicts_and_its_checkpoint_reloads_clean() {
    let cache_dir = temp_dir("capped");
    let capped = ["--warm-max-entries", "4"];

    let first = Serve::spawn(&cache_dir, &capped);
    first.serve_all(&requests(8));
    assert!(
        first.stat("evictions") > 0,
        "8 keys must overrun a 4-entry cap"
    );
    assert!(first.stat("warm_entries") <= 4);
    first.interrupt();
    let snapshot = std::fs::metadata(cache_dir.join(SNAPSHOT_FILE)).expect("snapshot written");
    assert!(snapshot.len() > 0);

    // SIGINT checkpointed only the resident set: nothing to trim or salvage.
    let second = Serve::spawn(&cache_dir, &capped);
    assert!(second.startup.contains("loaded"), "{}", second.startup);
    assert!(!second.startup.contains("salvaged"), "{}", second.startup);
    second.interrupt();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn sigkill_after_a_periodic_checkpoint_leaves_a_salvageable_snapshot() {
    let cache_dir = temp_dir("sigkill");
    let requests = requests(6);

    let doomed = Serve::spawn(&cache_dir, &["--checkpoint-every", "1"]);
    doomed.serve_all(&requests);
    // Wait for the next periodic checkpoint: one counted after this read
    // was written with (nearly) all six entries resident.
    let before = doomed.stat("checkpoints");
    let deadline = Instant::now() + DEADLINE;
    while doomed.stat("checkpoints") == before {
        assert!(Instant::now() < deadline, "no periodic checkpoint landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    doomed.kill();

    // Tear the snapshot mid-entry.
    let snapshot = cache_dir.join(SNAPSHOT_FILE);
    let len = std::fs::metadata(&snapshot)
        .expect("checkpoint landed")
        .len();
    assert!(len > 0);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&snapshot)
        .unwrap()
        .set_len(len * 3 / 4)
        .unwrap();

    let restarted = Serve::spawn(&cache_dir, &[]);
    assert!(
        restarted.startup.contains("salvaged"),
        "{}",
        restarted.startup
    );
    let hits = restarted.serve_all(&requests);
    assert!(hits >= 1, "no salvaged key served as a cache hit");
    assert_eq!(
        restarted.stat("synthesized"),
        (requests.len() - hits) as u64
    );
    restarted.interrupt();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
