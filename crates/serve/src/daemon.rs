//! The serving daemon: accept loop, bounded worker pool, single-flight
//! deduplication, and warm-cache persistence.
//!
//! Threading model (std only — no async runtime):
//!
//! * one **accept thread** blocks in [`TcpListener::accept`], enforces
//!   the connection cap (over-cap clients get one typed `rejected` line
//!   with a retry hint), spawns a connection thread per client, and reaps
//!   the handles of finished ones as it goes;
//! * **connection threads** parse request lines through a bounded line
//!   reader (oversized lines get a typed `error` and the connection is
//!   closed — a client cannot make the daemon buffer unbounded input),
//!   serve warm-cache hits inline — finding the key of a request shape
//!   they have resolved before in a bounded table instead of rebuilding
//!   the topology for it — and otherwise wait on a
//!   [`Flight`](tacos_core::Flight) — one flight per cache key, so N
//!   concurrent identical requests cost exactly one synthesis. Idle
//!   connections past the timeout are closed with a typed `error`;
//! * a **bounded worker pool** executes synthesis jobs. Admission is a
//!   [`std::sync::mpsc::sync_channel`] of configurable depth: when it is
//!   full the leader's `try_send` fails and every waiter on that flight
//!   receives a typed `rejected` response instead of queueing unbounded
//!   work. A **supervisor thread** respawns workers killed by a
//!   synthesis panic (the panic fails only its own flight) and counts
//!   the restarts in `stats`;
//! * an optional **checkpoint thread** persists the warm cache every
//!   `--checkpoint-every` seconds through the same atomic
//!   temp+fsync+rename path as shutdown, so a SIGKILL loses at most one
//!   interval of entries.
//!
//! Between a client's `connect` and its answer nothing sleeps: every wait
//! is a blocking wait with a named waker. The accept thread is woken by a
//! connection; workers block on the job queue and are woken by a send or
//! by the channel closing; the supervisor, the checkpoint thread and
//! injected stalls wait on one stop [`Condvar`] (see [`ServerState::park`])
//! notified by a stop request and by a dying worker. A stop request —
//! [`DaemonHandle::stop`] after `SIGINT` (via [`tacos_core::shutdown`]), or
//! a `shutdown` op — sets the flag, notifies that condvar and wakes the
//! accept thread with a loopback self-connect; a connection accepted after
//! the flag is dropped, not served. Connection threads notice within
//! [`READ_POLL`] (their read timeout — a request wakes the read at once),
//! queued jobs drain, and the warm cache is persisted on the way out.
//!
//! All of the failure paths above are exercised deterministically by
//! [`crate::FaultPlan`] (the `--faults` flag) and asserted by
//! `tacos chaos`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tacos_baselines::IdealBound;
use tacos_collective::algorithm::rescale_time;
use tacos_collective::export::to_compact;
use tacos_core::{
    FlightEntry, InFlightRegistry, SynthesisScratch, WarmCache, WarmEntry, WarmLimits,
};
use tacos_topology::{ByteSize, Time, Topology};
use tacos_workload::{bandwidth_gbps, Generation, Plan, Point};

use crate::faults::FaultPlan;
use crate::protocol::{OkBody, Op, Request, Response, StatsBody};

/// File name of the warm-cache snapshot inside `--cache-dir`.
pub const SNAPSHOT_FILE: &str = "warm.tacos-cache";

/// Read timeout on client connections: how often an *idle* connection
/// thread checks the stop flag and its idle clock. Bounds shutdown
/// latency, never request latency — arriving bytes end the read at once.
const READ_POLL: Duration = Duration::from_millis(100);

/// Budget for the loopback self-connect that wakes the accept thread.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long the accept thread waits (on the stop condvar) after a failed
/// `accept` — descriptor exhaustion, mostly — before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// The accept thread reaps finished connection handles whenever the list
/// has grown to this length, then doubles the mark over what survived.
const REAP_FLOOR: usize = 32;

/// Per-connection line buffers shrink back to this capacity after each
/// request, so one large (but admissible) request doesn't pin its peak
/// allocation for the life of the connection.
const LINE_HIGH_WATER: usize = 16 * 1024;

/// Most request shapes the daemon remembers the resolution of; the
/// table is cleared when one more would not fit. A launcher fleet
/// re-asks tens of shapes, so this only ever binds on a client cycling
/// seeds or sizes — and caps what such a client can pin at about 2 MB.
pub const MAX_RESOLVED_SHAPES: usize = 4096;

/// Daemon configuration (the `tacos serve` flags).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 binds an ephemeral port (the bound
    /// address is reported by [`DaemonHandle::addr`]).
    pub addr: String,
    /// Synthesis worker threads.
    pub workers: usize,
    /// Admission-control queue depth: syntheses that may wait for a
    /// worker before new ones are rejected.
    pub queue_depth: usize,
    /// Directory for the warm-cache snapshot; `None` disables
    /// persistence.
    pub cache_dir: Option<PathBuf>,
    /// Default per-request deadline applied when a request does not
    /// carry its own `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Persist the warm cache at this interval (needs `cache_dir`);
    /// `None` checkpoints only on `checkpoint` ops and shutdown.
    pub checkpoint_every: Option<Duration>,
    /// Maximum request-line length; longer lines get a typed `error`
    /// and the connection is closed.
    pub max_line_bytes: usize,
    /// Close connections idle for this long; `None` never times out.
    pub idle_timeout: Option<Duration>,
    /// Maximum concurrent client connections; excess connections get
    /// one typed `rejected` line and are closed.
    pub max_connections: usize,
    /// The `retry_after_ms` hint attached to `rejected` responses.
    pub retry_after_ms: u64,
    /// Deterministic fault-injection schedule (the `--faults` flag);
    /// empty for a real daemon.
    pub faults: FaultPlan,
    /// Warm-cache residency bounds (`--warm-max-entries` /
    /// `--warm-max-bytes`); zero fields mean unbounded, the original
    /// behavior. Applied to snapshot reloads too.
    pub warm_limits: WarmLimits,
    /// Suppress stderr notices (cache load/persist messages).
    pub quiet: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:7440".into(),
            workers: 2,
            queue_depth: 32,
            cache_dir: None,
            default_deadline_ms: None,
            checkpoint_every: None,
            max_line_bytes: 1 << 20,
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections: 256,
            retry_after_ms: 100,
            faults: FaultPlan::none(),
            warm_limits: WarmLimits::default(),
            quiet: false,
        }
    }
}

/// What a flight resolves to for everyone waiting on it.
#[derive(Debug, Clone)]
enum FlightOutcome {
    /// Synthesis finished; the entry is also in the warm cache now.
    Done {
        entry: Arc<WarmEntry>,
        synthesis_ms: f64,
    },
    /// Synthesis failed (or panicked).
    Failed(String),
    /// Admission control refused the job before it ran.
    Rejected(String),
}

/// One unit of work for the worker pool. `index` is the 1-based enqueue
/// sequence number — the coordinate [`FaultPlan`] faults are keyed by.
struct Job {
    index: u64,
    key: String,
    topo: Topology,
    generation: Generation,
}

/// Everything `synthesize` derives from a request's [`Point`] before it
/// looks anything up — a pure function of the point, so it is computed
/// once per distinct point and found by the point afterwards. Holds no
/// [`Topology`]: what a repeat request needs of the fabric is its NPU
/// count and its fingerprint, which the key already contains.
#[derive(Debug)]
struct Resolved {
    answer: Answer,
    num_npus: u64,
    size: ByteSize,
    /// The chunk size and [`Generation::cost_quantum`] of the request's
    /// collective: a warm entry of the same cost shape synthesized at
    /// another quantum is rescaled to these (1 and `size` for the ideal
    /// bound, which has no schedule).
    chunk_size: ByteSize,
    quantum: u64,
    /// [`tacos_workload::Mechanism::name`] of the parsed mechanism.
    algorithm: &'static str,
}

/// Where a resolved shape's answer comes from.
#[derive(Debug)]
enum Answer {
    /// A schedule, under this warm-cache (and single-flight) key.
    Schedule(String),
    /// The ideal bound: a closed form, so the time itself.
    Ideal(Time),
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    rescaled_hits: AtomicU64,
    resolve_hits: AtomicU64,
    synthesized: AtomicU64,
    deduplicated: AtomicU64,
    rejected: AtomicU64,
    deadline_expired: AtomicU64,
    errors: AtomicU64,
    worker_restarts: AtomicU64,
    checkpoints: AtomicU64,
}

/// Decrements a liveness counter when its scope ends — however the
/// scope ends, including a panic unwinding through it — and, for a
/// worker, wakes the supervisor to replace it.
struct AliveGuard<'a> {
    count: &'a AtomicUsize,
    wake: Option<&'a ServerState>,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
        if let Some(state) = self.wake {
            state.notify_parked();
        }
    }
}

struct ServerState {
    warm: WarmCache,
    /// Points whose requests have been answered `ok`, at most
    /// [`MAX_RESOLVED_SHAPES`] of them. A leaf lock: never held while
    /// another is taken.
    resolved: RwLock<HashMap<Point, Arc<Resolved>>>,
    inflight: InFlightRegistry<FlightOutcome>,
    counters: Counters,
    stop: AtomicBool,
    /// The stop condvar and its (stateless) mutex: what the supervisor,
    /// the checkpoint thread and injected stalls park on. Everything that
    /// changes a parked thread's condition — the stop flag, a worker's
    /// death — calls [`ServerState::notify_parked`] after the change.
    parked: Mutex<()>,
    unpark: Condvar,
    /// Where a self-connect reaches the listener: the bound address, an
    /// unspecified IP mapped to the same family's loopback.
    wake_addr: SocketAddr,
    /// Set by the first stop request: whether its self-connect, which
    /// wakes the accept thread, got through (if not,
    /// [`DaemonHandle::stop`] must not wait for that thread).
    accept_woken: OnceLock<bool>,
    /// `None` once shutdown has begun and the channel is closed.
    jobs: Mutex<Option<mpsc::SyncSender<Job>>>,
    /// Enqueue sequence for jobs (fault-plan coordinate).
    job_seq: AtomicU64,
    /// Accept sequence for connections (fault-plan coordinate).
    conn_seq: AtomicU64,
    /// Attempt sequence for checkpoints (fault-plan coordinate).
    checkpoint_seq: AtomicU64,
    /// Currently-running worker threads; the supervisor respawns up to
    /// `target_workers`.
    live_workers: AtomicUsize,
    target_workers: usize,
    /// Currently-open client connections (the `max_connections` gauge).
    live_conns: AtomicUsize,
    queue_depth: usize,
    cache_dir: Option<PathBuf>,
    default_deadline_ms: Option<u64>,
    max_line_bytes: usize,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    retry_after_ms: u64,
    faults: FaultPlan,
    quiet: bool,
}

impl ServerState {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Wakes every thread in [`ServerState::park`] to re-check its
    /// condition. Taking the mutex first closes the lost-wakeup window: a
    /// parker either sees the change made before this call, or is already
    /// waiting when the notification lands.
    fn notify_parked(&self) {
        drop(self.parked.lock().unwrap_or_else(PoisonError::into_inner));
        self.unpark.notify_all();
    }

    /// Blocks until `ready()` holds or `deadline` passes, whichever is
    /// first; returns immediately when `ready()` already holds.
    fn park(&self, deadline: Option<Instant>, ready: impl Fn() -> bool) {
        let mut guard = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        while !ready() {
            guard = match deadline {
                None => self
                    .unpark
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return;
                    }
                    self.unpark
                        .wait_timeout(guard, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Begins shutdown (idempotent): sets the stop flag, wakes everything
    /// parked on the stop condvar, and — once, whoever asks first — wakes
    /// the accept thread out of `accept()` with a loopback self-connect,
    /// which it drops unserved. Returns whether that wake-up got through;
    /// a later caller waits for the first one's attempt to finish.
    fn request_stop(&self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        self.notify_parked();
        *self.accept_woken.get_or_init(|| {
            TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT)
                .map_err(|e| {
                    self.notice(&format!(
                        "could not wake the accept loop ({e}); it exits at the next connection"
                    ));
                })
                .is_ok()
        })
    }

    fn notice(&self, msg: &str) {
        if !self.quiet {
            eprintln!("tacos serve: {msg}");
        }
    }

    fn snapshot_path(&self) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join(SNAPSHOT_FILE))
    }

    /// One checkpoint attempt: persists the warm cache atomically, or —
    /// when the fault plan aborts this attempt — tears the write halfway
    /// through the temp file, proving the snapshot at the final path
    /// survives untouched.
    fn persist(&self) -> io::Result<usize> {
        let Some(path) = self.snapshot_path() else {
            return Ok(0);
        };
        let attempt = self.checkpoint_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.faults.checkpoint_aborts(attempt) {
            self.warm.save_interrupted_to(&path)?;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected fault: checkpoint {attempt} aborted mid-write"),
            ));
        }
        let written = self.warm.save_to(path)?;
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(written)
    }

    fn stats(&self) -> StatsBody {
        let c = &self.counters;
        // Its own statement, so the guard is gone before the warm
        // cache's shard locks are taken below.
        let resolved_shapes = self
            .resolved
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as u64;
        StatsBody {
            requests: c.requests.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            rescaled_hits: c.rescaled_hits.load(Ordering::Relaxed),
            synthesized: c.synthesized.load(Ordering::Relaxed),
            deduplicated: c.deduplicated.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            warm_entries: self.warm.len() as u64,
            evictions: self.warm.evictions(),
            resident_bytes: self.warm.resident_bytes(),
            resolved_shapes,
            resolve_hits: c.resolve_hits.load(Ordering::Relaxed),
        }
    }

    /// What `point` resolved to the last time a request with it was
    /// answered `ok`, if the table still has it.
    fn recall(&self, point: &Point) -> Option<Arc<Resolved>> {
        let table = self.resolved.read().unwrap_or_else(PoisonError::into_inner);
        table.get(point).cloned()
    }

    /// Remembers `point`'s resolution. A full table is cleared rather
    /// than trimmed: refilling costs each live point one ordinary
    /// resolution, which is cheaper to reason about than a second LRU.
    fn remember(&self, point: &Point, resolved: Arc<Resolved>) {
        let mut table = self
            .resolved
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if table.len() >= MAX_RESOLVED_SHAPES && !table.contains_key(point) {
            table.clear();
        }
        table.insert(point.clone(), resolved);
    }
}

/// A running daemon. Dropping the handle leaves the threads running;
/// call [`DaemonHandle::stop`] for a graceful, cache-persisting exit.
pub struct Daemon;

/// Handle to a spawned daemon: bound address, stop control, stats.
pub struct DaemonHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
    /// Returns the connection threads still running when it exits.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    supervisor: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Removes `warm.tmp.*` checkpoint debris from `dir`, returning how
/// many files went away. Snapshot writes go to a uniquely named temp
/// file that is only renamed over [`SNAPSHOT_FILE`] on success — a
/// crash (or an injected `checkpoint-abort`) mid-write leaves the torn
/// temp behind forever. Sweeping at spawn time is safe: no workers are
/// running yet, the live snapshot never matches the temp prefix, and
/// any concurrent daemon on the same directory would be using fresh
/// temp names of its own (pid + sequence).
fn sweep_checkpoint_debris(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.starts_with("warm.tmp.") && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

impl Daemon {
    /// Binds the listen socket, loads any warm-cache snapshot, and
    /// starts the accept loop, worker pool, worker supervisor, and (when
    /// configured) the periodic checkpoint thread.
    ///
    /// A snapshot written by a different matcher version — or one that
    /// is not a snapshot at all — is reported as a notice and ignored
    /// (cold start). A *torn* snapshot with a valid header is salvaged:
    /// the valid prefix of entries is loaded and a notice says how many.
    pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let warm = match &config.cache_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let swept = sweep_checkpoint_debris(dir);
                if swept > 0 && !config.quiet {
                    eprintln!(
                        "tacos serve: removed {swept} stale checkpoint temp file(s) from {}",
                        dir.display()
                    );
                }
                let path = dir.join(SNAPSHOT_FILE);
                if path.exists() {
                    match WarmCache::load_from_with_limits(&path, config.warm_limits) {
                        Ok(report) => {
                            if !config.quiet {
                                if report.salvaged {
                                    eprintln!(
                                        "tacos serve: salvaged {} of {} cached algorithms from \
                                         torn snapshot {} ({})",
                                        report.entries_loaded,
                                        report.entries_expected,
                                        path.display(),
                                        report.detail.as_deref().unwrap_or("no detail"),
                                    );
                                } else {
                                    eprintln!(
                                        "tacos serve: loaded {} cached algorithms from {}{}",
                                        report.entries_loaded,
                                        path.display(),
                                        if report.entries_evicted > 0 {
                                            format!(
                                                " ({} trimmed to the cache caps)",
                                                report.entries_evicted
                                            )
                                        } else {
                                            String::new()
                                        }
                                    );
                                }
                            }
                            report.cache
                        }
                        Err(e) => {
                            if !config.quiet {
                                eprintln!("tacos serve: {e}");
                            }
                            WarmCache::with_limits(config.warm_limits)
                        }
                    }
                } else {
                    WarmCache::with_limits(config.warm_limits)
                }
            }
            None => WarmCache::with_limits(config.warm_limits),
        };

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let wake_ip = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };

        let queue_depth = config.queue_depth.max(1);
        let target_workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let state = Arc::new(ServerState {
            warm,
            resolved: RwLock::new(HashMap::new()),
            inflight: InFlightRegistry::new(),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            parked: Mutex::new(()),
            unpark: Condvar::new(),
            wake_addr: SocketAddr::new(wake_ip, addr.port()),
            accept_woken: OnceLock::new(),
            jobs: Mutex::new(Some(tx)),
            job_seq: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            checkpoint_seq: AtomicU64::new(0),
            live_workers: AtomicUsize::new(0),
            target_workers,
            live_conns: AtomicUsize::new(0),
            queue_depth,
            cache_dir: config.cache_dir.clone(),
            default_deadline_ms: config.default_deadline_ms,
            max_line_bytes: config.max_line_bytes.max(64),
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections.max(1),
            retry_after_ms: config.retry_after_ms,
            faults: config.faults.clone(),
            quiet: config.quiet,
        });

        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(
            (0..target_workers)
                .map(|_| spawn_worker(&state, &rx))
                .collect(),
        ));

        let supervisor = {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&rx);
            let workers = Arc::clone(&workers);
            thread::spawn(move || supervisor_loop(&state, &rx, &workers))
        };

        let checkpointer = match (config.checkpoint_every, &config.cache_dir) {
            (Some(every), Some(_)) => {
                let state = Arc::clone(&state);
                Some(thread::spawn(move || checkpoint_loop(&state, every)))
            }
            (Some(_), None) => {
                if !config.quiet {
                    eprintln!("tacos serve: --checkpoint-every needs --cache-dir; ignoring");
                }
                None
            }
            _ => None,
        };

        let accept = {
            let state = Arc::clone(&state);
            thread::spawn(move || accept_loop(&listener, &state))
        };

        Ok(DaemonHandle {
            state,
            addr,
            accept: Some(accept),
            supervisor: Some(supervisor),
            checkpointer,
            workers,
        })
    }
}

impl DaemonHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a stop has been requested (a client `shutdown` op or a
    /// previous trigger); the owner should then call
    /// [`DaemonHandle::stop`].
    pub fn stop_requested(&self) -> bool {
        self.state.stopping()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StatsBody {
        self.state.stats()
    }

    /// Stops the daemon: joins the accept loop, supervisor, workers,
    /// checkpointer, and connection threads, then persists the warm
    /// cache. Returns the number of entries written (0 without a cache
    /// directory).
    pub fn stop(mut self) -> io::Result<usize> {
        let accept_woken = self.state.request_stop();
        // Closing the channel wakes the workers blocked on it; they drain
        // what is still queued, then exit.
        self.state
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let mut conns = Vec::new();
        if let Some(accept) = self.accept.take() {
            // An accept thread nothing could wake is left behind rather
            // than waited for: it owns only the listener and exits at the
            // next connection.
            if accept_woken || accept.is_finished() {
                conns = accept.join().unwrap_or_default();
            }
        }
        // The supervisor first, so nothing respawns while we drain.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for w in workers {
            let _ = w.join();
        }
        if let Some(checkpointer) = self.checkpointer.take() {
            let _ = checkpointer.join();
        }
        for c in conns {
            let _ = c.join();
        }
        let persisted = self.state.persist()?;
        if persisted > 0 {
            self.state
                .notice(&format!("persisted {persisted} cached algorithms"));
        }
        Ok(persisted)
    }
}

fn spawn_worker(state: &Arc<ServerState>, rx: &Arc<Mutex<mpsc::Receiver<Job>>>) -> JoinHandle<()> {
    // Counted before the thread exists so the supervisor never sees a
    // just-spawned worker as missing.
    state.live_workers.fetch_add(1, Ordering::Relaxed);
    let state = Arc::clone(state);
    let rx = Arc::clone(rx);
    thread::spawn(move || {
        let _alive = AliveGuard {
            count: &state.live_workers,
            wake: Some(&state),
        };
        worker_loop(&state, &rx);
    })
}

/// Keeps the worker pool at full strength: a synthesis panic kills its
/// worker thread (deliberately — the replacement gets pristine scratch
/// state), and this loop respawns it and counts the restart.
fn supervisor_loop(
    state: &Arc<ServerState>,
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if state.stopping() {
            return;
        }
        let live = state.live_workers.load(Ordering::Relaxed);
        if live < state.target_workers {
            let missing = state.target_workers - live;
            state
                .counters
                .worker_restarts
                .fetch_add(missing as u64, Ordering::Relaxed);
            state.notice(&format!(
                "worker died; respawning {missing} (pool target {})",
                state.target_workers
            ));
            let mut guard = workers.lock().unwrap_or_else(PoisonError::into_inner);
            // Reap the corpses so the handle list tracks live threads.
            let mut i = 0;
            while i < guard.len() {
                if guard.get(i).is_some_and(|w| w.is_finished()) {
                    let _ = guard.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            for _ in 0..missing {
                guard.push(spawn_worker(state, rx));
            }
        }
        state.park(None, || {
            state.stopping() || state.live_workers.load(Ordering::Relaxed) < state.target_workers
        });
    }
}

/// Persists the warm cache every `every`, waiting out the interval on
/// the stop condvar so shutdown is never blocked on it.
fn checkpoint_loop(state: &Arc<ServerState>, every: Duration) {
    loop {
        state.park(Some(Instant::now() + every), || state.stopping());
        if state.stopping() {
            return;
        }
        match state.persist() {
            Ok(written) => {
                if written > 0 {
                    state.notice(&format!("checkpoint: persisted {written} entries"));
                }
            }
            Err(e) => state.notice(&format!("checkpoint failed: {e}")),
        }
    }
}

/// Accepts until a stop request; returns the connection threads that
/// were still running when it left.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut reap_at = REAP_FLOOR;
    loop {
        let accepted = listener.accept();
        if state.stopping() {
            // Whatever just arrived — the wake-up self-connect, or a
            // client that raced the stop — is closed unanswered.
            return conns;
        }
        match accepted {
            Ok((mut stream, _)) => {
                let conn_index = state.conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
                if state.live_conns.load(Ordering::Relaxed) >= state.max_connections {
                    state.counters.requests.fetch_add(1, Ordering::Relaxed);
                    state.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    let response = Response::Rejected(
                        None,
                        state.retry_after_ms,
                        format!(
                            "connection limit reached ({} connections); retry later",
                            state.max_connections
                        ),
                    );
                    let _ = stream.write_all(response.line().as_bytes());
                    let _ = stream.flush();
                    continue; // dropping the stream closes it
                }
                state.live_conns.fetch_add(1, Ordering::Relaxed);
                let state = Arc::clone(state);
                conns.push(thread::spawn(move || {
                    connection_loop(stream, &state, conn_index)
                }));
                // A connect-per-session fleet would otherwise grow this
                // list by one dead handle per session until shutdown.
                if conns.len() >= reap_at {
                    conns.retain(|conn| !conn.is_finished());
                    reap_at = (conns.len() * 2).max(REAP_FLOOR);
                }
            }
            Err(e) => {
                state.notice(&format!("accept error: {e}"));
                state.park(Some(Instant::now() + ACCEPT_BACKOFF), || state.stopping());
            }
        }
    }
}

/// What one bounded-line read attempt produced.
enum ReadEvent {
    /// A complete line (without its newline) is in the buffer.
    Line,
    /// The peer closed the connection.
    Eof,
    /// The read timed out with no complete line; check stop/idle state.
    Idle,
    /// The line exceeded the cap before its newline arrived.
    TooLong,
    /// Unrecoverable I/O error.
    Failed,
}

/// Reads toward the next newline into `buf`, never holding more than
/// `max` bytes — the fix for the unbounded `read_line` the daemon
/// originally used, where one malicious line could grow the buffer
/// without limit.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> ReadEvent {
    let (found_newline, consumed) = {
        let available = match reader.fill_buf() {
            Ok([]) => {
                // EOF; a final unterminated line still gets served.
                return if buf.is_empty() {
                    ReadEvent::Eof
                } else {
                    ReadEvent::Line
                };
            }
            Ok(bytes) => bytes,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return ReadEvent::Idle;
            }
            Err(_) => return ReadEvent::Failed,
        };
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&available[..pos]); // lint: allow(panic, "pos came from position() on this slice")
                (true, pos + 1)
            }
            None => {
                buf.extend_from_slice(available);
                (false, available.len())
            }
        }
    };
    reader.consume(consumed);
    if buf.len() > max {
        return ReadEvent::TooLong;
    }
    if found_newline {
        ReadEvent::Line
    } else {
        // Partial data: return to the caller instead of looping so the
        // idle clock gets checked — a client trickling bytes forever
        // must not starve the timeout. The caller re-enters with the
        // same buffer, so nothing is lost; buffered bytes make the next
        // fill_buf return immediately.
        ReadEvent::Idle
    }
}

/// After rejecting an oversized line, discard whatever the client is
/// still sending (bounded by time and bytes) so the typed `error`
/// response reaches it before the close — an immediate close while the
/// peer is mid-send turns into a RST that discards our response.
fn drain_rejected_line(reader: &mut BufReader<TcpStream>) {
    const DRAIN_BUDGET_BYTES: usize = 64 << 20;
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut drained = 0usize;
    while Instant::now() < deadline && drained < DRAIN_BUDGET_BYTES {
        let consumed = match reader.fill_buf() {
            Ok([]) => return,
            Ok(bytes) => bytes.len(),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        reader.consume(consumed);
        drained += consumed;
    }
}

fn connection_loop(stream: TcpStream, state: &Arc<ServerState>, conn_index: u64) {
    let _alive = AliveGuard {
        count: &state.live_conns,
        wake: None,
    };
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let response_delay = state.faults.conn_delay(conn_index);
    let mut reader = BufReader::new(stream);
    // One reusable buffer per connection, shrunk back to a high-water
    // mark after each request so a single large request doesn't pin its
    // peak allocation for the connection's lifetime.
    let mut buf: Vec<u8> = Vec::new();
    let mut last_request = Instant::now();
    loop {
        match read_bounded_line(&mut reader, &mut buf, state.max_line_bytes) {
            ReadEvent::Line => {
                {
                    let line = String::from_utf8_lossy(&buf);
                    let trimmed = line.trim();
                    if !trimmed.is_empty() {
                        let response = handle_line(state, trimmed);
                        if let Some(delay) = response_delay {
                            thread::sleep(delay); // lint: allow(design, "fault injection: the conn-delay fault is a deliberate per-response sleep")
                        }
                        if writer.write_all(response.line().as_bytes()).is_err()
                            || writer.flush().is_err()
                        {
                            return;
                        }
                    }
                }
                buf.clear();
                if buf.capacity() > LINE_HIGH_WATER {
                    buf.shrink_to(LINE_HIGH_WATER);
                }
                last_request = Instant::now();
            }
            ReadEvent::Idle => {
                if state.stopping() {
                    return;
                }
                // Partial lines deliberately do not reset the clock: a
                // client trickling bytes forever is exactly what the
                // timeout is for.
                if let Some(idle) = state.idle_timeout {
                    if last_request.elapsed() >= idle {
                        state.counters.errors.fetch_add(1, Ordering::Relaxed);
                        let response = Response::Error(
                            None,
                            format!("connection idle for {} s; closing", idle.as_secs().max(1)),
                        );
                        let _ = writer.write_all(response.line().as_bytes());
                        let _ = writer.flush();
                        return;
                    }
                }
            }
            ReadEvent::TooLong => {
                state.counters.requests.fetch_add(1, Ordering::Relaxed);
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                let response = Response::Error(
                    None,
                    format!(
                        "request line exceeds {} bytes; closing connection",
                        state.max_line_bytes
                    ),
                );
                if writer.write_all(response.line().as_bytes()).is_ok() && writer.flush().is_ok() {
                    drain_rejected_line(&mut reader);
                }
                return;
            }
            ReadEvent::Eof | ReadEvent::Failed => return,
        }
    }
}

fn handle_line(state: &Arc<ServerState>, line: &str) -> Response {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Response::Error(None, e);
        }
    };
    match req.op {
        Op::Ping => Response::Pong(req.id),
        Op::Stats => Response::Stats(req.id, state.stats()),
        Op::Checkpoint => match state.snapshot_path() {
            Some(_) => match state.persist() {
                Ok(n) => Response::Checkpointed(req.id, n as u64),
                Err(e) => {
                    state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error(req.id, format!("checkpoint failed: {e}"))
                }
            },
            None => {
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(req.id, "daemon started without --cache-dir".into())
            }
        },
        Op::Shutdown => {
            state.request_stop();
            Response::ShuttingDown(req.id)
        }
        Op::Synthesize => match synthesize(state, &req) {
            Ok(response) => response,
            Err(e) => {
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(req.id, e)
            }
        },
    }
}

/// Answers one synthesize request. A point the table knows costs a hash
/// and a lookup before the warm cache is asked; any other — and a known
/// one whose warm entry has since been evicted — takes [`resolve_and_run`],
/// and is remembered once that has answered `ok`.
fn synthesize(state: &Arc<ServerState>, req: &Request) -> Result<Response, String> {
    if let Some(resolved) = state.recall(&req.point) {
        state.counters.resolve_hits.fetch_add(1, Ordering::Relaxed);
        match &resolved.answer {
            Answer::Ideal(time) => return Ok(Response::Ok(req.id, ok_body(&resolved, *time))),
            Answer::Schedule(key) => {
                if let Some(entry) = state.warm.get(key) {
                    return hit(state, req, &resolved, &entry);
                }
            }
        }
    }
    let (response, resolved) = resolve_and_run(state, req)?;
    if matches!(response, Response::Ok(..)) {
        state.remember(&req.point, resolved);
    }
    Ok(response)
}

/// A warm-cache hit's response (and its counts).
fn hit(
    state: &ServerState,
    req: &Request,
    resolved: &Resolved,
    entry: &WarmEntry,
) -> Result<Response, String> {
    let body = entry_body(req, resolved, entry)?;
    state.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
    if entry.quantum != resolved.quantum {
        state.counters.rescaled_hits.fetch_add(1, Ordering::Relaxed);
    }
    Ok(Response::Ok(
        req.id,
        OkBody {
            cache_hit: true,
            ..body
        },
    ))
}

/// Resolves the request's point from scratch ([`Point::resolve`], then
/// plan and key), then serves it from the warm cache or a flight.
/// Returns the resolution beside the response for the caller to
/// remember; an unresolvable point is the `Err`.
fn resolve_and_run(
    state: &Arc<ServerState>,
    req: &Request,
) -> Result<(Response, Arc<Resolved>), String> {
    let (topo, pattern, size, mechanism) = req.point.resolve()?;
    let plan = mechanism
        .plan(pattern, &topo, size, req.point.chunks)
        .map_err(|e| e.cause())?;
    let resolves_to = |answer, chunk_size, quantum| {
        Arc::new(Resolved {
            answer,
            num_npus: topo.num_npus() as u64,
            size,
            chunk_size,
            quantum,
            algorithm: mechanism.name(),
        })
    };
    let Plan::Generate(generation) = plan else {
        // The theoretical bound is a closed-form computation: answer
        // inline, no worker, no cache.
        let time = IdealBound::new(&topo).collective_time(pattern, size);
        let resolved = resolves_to(Answer::Ideal(time), size, 1);
        return Ok((Response::Ok(req.id, ok_body(&resolved, time)), resolved));
    };
    let key = generation.cache_key(&req.point.mechanism, &topo);
    let resolved = resolves_to(
        Answer::Schedule(key.clone()),
        generation.collective().chunk_size(),
        generation.cost_quantum(&topo),
    );

    if let Some(entry) = state.warm.get(&key) {
        return Ok((hit(state, req, &resolved, &entry)?, resolved));
    }

    let mut deduplicated = false;
    let flight = match state.inflight.begin(&key) {
        FlightEntry::Leader(flight) => {
            let job = Job {
                index: state.job_seq.fetch_add(1, Ordering::Relaxed) + 1,
                key: key.clone(),
                topo: topo.clone(),
                generation,
            };
            enum Admission {
                Accepted,
                QueueFull,
                Closed,
            }
            let send = state
                .jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
                .map(|tx| match tx.try_send(job) {
                    Ok(()) => Admission::Accepted,
                    Err(mpsc::TrySendError::Full(_)) => Admission::QueueFull,
                    Err(mpsc::TrySendError::Disconnected(_)) => Admission::Closed,
                });
            match send {
                Some(Admission::Accepted) => {}
                Some(Admission::QueueFull) => state.inflight.complete(
                    &key,
                    FlightOutcome::Rejected(format!(
                        "admission queue full ({} waiting syntheses); retry later",
                        state.queue_depth
                    )),
                ),
                Some(Admission::Closed) | None => state.inflight.complete(
                    &key,
                    FlightOutcome::Failed("daemon is shutting down".into()),
                ),
            }
            flight
        }
        FlightEntry::Follower(flight) => {
            deduplicated = true;
            flight
        }
    };

    let outcome = match req.deadline_ms.or(state.default_deadline_ms) {
        Some(ms) => match flight.wait_timeout(Duration::from_millis(ms)) {
            Some(outcome) => outcome,
            None => {
                state
                    .counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                return Ok((
                    Response::Deadline(
                        req.id,
                        format!(
                            "deadline of {ms} ms expired; synthesis continues and will warm \
                                 the cache"
                        ),
                    ),
                    resolved,
                ));
            }
        },
        None => loop {
            if let Some(outcome) = flight.wait_timeout(READ_POLL) {
                break outcome;
            }
            if state.stopping() {
                return Err("daemon is shutting down".into());
            }
        },
    };

    let response = match outcome {
        FlightOutcome::Done {
            entry,
            synthesis_ms,
        } => {
            if deduplicated {
                state.counters.deduplicated.fetch_add(1, Ordering::Relaxed);
            }
            Response::Ok(
                req.id,
                OkBody {
                    deduplicated,
                    synthesis_ms,
                    ..entry_body(req, &resolved, &entry)?
                },
            )
        }
        FlightOutcome::Failed(msg) => return Err(msg),
        FlightOutcome::Rejected(msg) => {
            state.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Response::Rejected(req.id, state.retry_after_ms, msg)
        }
    };
    Ok((response, resolved))
}

/// The `ok` answer for a schedule held in the warm cache, rescaled from
/// the entry's cost quantum to the request's; callers set how it got
/// there (`cache_hit` / `deduplicated` / `synthesis_ms`). A time-only
/// answer is one multiply; only `include_algorithm` copies the schedule,
/// and only when it was stored at another size.
fn entry_body(req: &Request, resolved: &Resolved, entry: &WarmEntry) -> Result<OkBody, String> {
    let time = rescale_time(entry.time, entry.quantum, resolved.quantum)
        .ok_or_else(|| format!("the collective time at {} overflows", resolved.size))?;
    let algo = &entry.algo;
    let algorithm_compact = if !req.include_algorithm {
        None
    } else if entry.quantum == resolved.quantum
        && algo.chunk_size() == resolved.chunk_size
        && algo.total_size() == resolved.size
    {
        Some(to_compact(algo))
    } else {
        let mut rescaled = algo.clone();
        rescaled.rescale(
            entry.quantum,
            resolved.quantum,
            resolved.chunk_size,
            resolved.size,
        )?;
        Some(to_compact(&rescaled))
    };
    Ok(OkBody {
        transfers: algo.len() as u64,
        algorithm_compact,
        ..ok_body(resolved, time)
    })
}

/// An `ok` answer carrying only a completion time (all the ideal bound
/// has): no schedule, freshly computed.
fn ok_body(resolved: &Resolved, time: Time) -> OkBody {
    OkBody {
        cache_hit: false,
        deduplicated: false,
        collective_time_ps: time.as_ps(),
        bandwidth_gbps: bandwidth_gbps(resolved.size, time),
        synthesis_ms: 0.0,
        transfers: 0,
        num_npus: resolved.num_npus,
        algorithm: resolved.algorithm.into(),
        algorithm_compact: None,
    }
}

fn worker_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<mpsc::Receiver<Job>>>) {
    let mut scratch = SynthesisScratch::new();
    loop {
        // Blocks in `recv` holding the receiver lock; the other idle
        // workers block on the lock. A send wakes the holder, which lets
        // go of the lock before it runs the job. `recv` fails only once
        // `stop` has closed the channel *and* the queue has drained.
        let job = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(job) = job else {
            return;
        };
        if run_job(state, job, &mut scratch) {
            // The job panicked: this thread dies so its replacement
            // starts with pristine scratch state; the supervisor
            // respawns and counts it.
            return;
        }
    }
}

/// Runs one synthesis job; returns `true` when the job panicked and the
/// worker thread should die (the flight is already completed either way
/// — a panic fails only its own flight, never a waiter).
fn run_job(state: &Arc<ServerState>, job: Job, scratch: &mut SynthesisScratch) -> bool {
    let Job {
        index,
        key,
        topo,
        generation,
    } = job;
    let (stall, injected_panic) = state.faults.job_fault(index);
    if let Some(stall) = stall {
        // On the stop condvar, so an injected stall cannot hang shutdown.
        state.park(Some(Instant::now() + stall), || state.stopping());
    }
    let started = Instant::now();
    let generated = catch_unwind(AssertUnwindSafe(|| {
        if injected_panic {
            panic!("injected fault: synthesis panic on job {index}"); // lint: allow(panic, "deliberate chaos fault, caught by the catch_unwind below")
        }
        generation.generate(&topo, scratch)
    }));
    let synthesis_ms = started.elapsed().as_secs_f64() * 1e3;
    match generated {
        Ok(Ok((algo, time))) => {
            let quantum = generation.cost_quantum(&topo);
            let entry = state.warm.insert(
                key.clone(),
                WarmEntry {
                    time,
                    algo,
                    quantum,
                },
            );
            state.counters.synthesized.fetch_add(1, Ordering::Relaxed);
            state.inflight.complete(
                &key,
                FlightOutcome::Done {
                    entry,
                    synthesis_ms,
                },
            );
            false
        }
        Ok(Err(e)) => {
            state
                .inflight
                .complete(&key, FlightOutcome::Failed(e.cause()));
            false
        }
        Err(_) => {
            state.inflight.complete(
                &key,
                FlightOutcome::Failed(
                    "synthesis panicked; the worker thread was restarted — see daemon stderr"
                        .into(),
                ),
            );
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn finished_connection_handles_are_reaped_as_sessions_come_and_go() {
        let mut daemon = Daemon::spawn(DaemonConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            quiet: true,
            ..DaemonConfig::default()
        })
        .expect("daemon starts");
        // A launcher fleet: connect, one request, close — 200 times over.
        for i in 0..200 {
            let mut client = Client::connect(daemon.addr()).expect("connect");
            let pong = client.call(&format!("{{\"op\":\"ping\",\"id\":{i}}}"));
            assert!(pong.is_ok(), "session {i}: {pong:?}");
        }
        // The accept thread hands back the handles it still holds.
        assert!(daemon.state.request_stop());
        let held = daemon
            .accept
            .take()
            .expect("accept thread handle")
            .join()
            .expect("accept thread exits cleanly");
        assert!(
            held.len() <= 2 * REAP_FLOOR,
            "200 closed sessions left {} connection handles behind",
            held.len()
        );
        daemon.stop().expect("clean stop");
    }
}
