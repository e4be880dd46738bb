//! The in-memory warm store behind `tacos serve`, with crash-safe
//! snapshot persistence and bounded residency.
//!
//! [`crate::AlgorithmCache`] is a directory of per-key `.tacos` files: a
//! batch tool's cache, paying a filesystem read and a parse per lookup.
//! A long-lived daemon serving synthesis requests wants the opposite
//! trade: every previously-served schedule resident in memory
//! ([`WarmCache`]), written out as **one** snapshot file on shutdown or
//! checkpoint and reloaded wholesale on start ([`WarmCache::save_to`] /
//! [`WarmCache::load_from`]).
//!
//! # Sharding and eviction
//!
//! The cache is split into N mutex-guarded shards (shard = FNV-1a
//! fingerprint of the key, modulo N), so concurrent inserts from the
//! worker pool contend on 1/N of the keyspace and a checkpoint
//! serializes shard-by-shard instead of freezing the whole map.
//!
//! Residency is bounded by [`WarmLimits`]: a cap on entries and/or on
//! approximate bytes (0 = unbounded, the original behavior). The global
//! budget is split exactly across shards; when a shard exceeds its
//! slice, `insert` evicts that shard's least-recently-used entries until
//! it fits again. Recency is a global atomic tick stamped on every
//! lookup and insert — no per-access list surgery, just a min-scan of
//! the (small) shard on the rare evicting insert. Because per-shard
//! budgets sum to the global cap, the resident totals can never exceed
//! the configured limits, at the cost of eviction pressure landing a
//! little unevenly when the key distribution does.
//!
//! Eviction drops the cache's *reference*; callers holding the
//! [`Arc<WarmEntry>`] that [`WarmCache::insert`] returned (the
//! single-flight leader publishing to its followers) keep serving their
//! handle untouched.
//!
//! The snapshot header records [`crate::MATCHER_VERSION`]. Cache *keys*
//! already fold the matcher version into their hash, so a stale entry
//! could never be *looked up* — but a snapshot written by an older
//! matcher would still be carried in memory forever, unreachable dead
//! weight that silently survives every restart. The header check turns
//! that into an explicit, readable [`WarmCacheError::MatcherMismatch`]
//! so the daemon logs one line and starts cold instead.
//!
//! # Crash safety
//!
//! Snapshots are written to a uniquely-named temp file, fsynced, and
//! renamed into place (with a best-effort directory fsync), so a crash
//! mid-checkpoint leaves the previous snapshot intact. Should a torn
//! file still appear at the final path — a filesystem without atomic
//! rename semantics, disk corruption, an operator's stray `truncate` —
//! the v2 format makes the damage recoverable instead of fatal: every
//! entry carries a CRC32 of its record and the file ends in an
//! entry-count trailer. [`WarmCache::load_from`] then **salvages the
//! valid prefix** (every entry up to the first torn or corrupt record)
//! rather than cold-starting, and reports what it kept in a
//! [`LoadReport`]. Snapshots contain exactly the resident set at
//! serialization time — evicted entries are gone from disk too — and
//! [`WarmCache::load_from_with_limits`] re-applies the caps on reload,
//! so a restart under a smaller budget trims rather than overshoots.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::export;
use tacos_topology::Time;

use crate::cache::MATCHER_VERSION;

/// First line of every snapshot file; v2 added per-entry CRC32 checksums
/// and the `end <count>` trailer (bumped when the container layout
/// itself changes — the matcher line tracks schedule semantics).
const SNAPSHOT_MAGIC: &str = "tacos-warm-cache v2";

/// Makes concurrent snapshot writers (periodic checkpoint thread, a
/// client `checkpoint` op, shutdown) use distinct temp files.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Shard count when entry limits don't force fewer (an entry cap below
/// this becomes the shard count, so every shard's budget is ≥ 1).
const DEFAULT_SHARDS: u64 = 16;

/// Fixed per-entry overhead charged by [`WarmCache::approx_entry_bytes`]:
/// map slot, `Arc` + bookkeeping, algorithm container.
const ENTRY_OVERHEAD_BYTES: u64 = 128;

/// Approximate in-memory size of one schedule transfer record.
const TRANSFER_BYTES: u64 = 72;

/// One warm entry: the schedule plus the completion time the daemon
/// measured for it (planned time for syntheses, simulated time for
/// baselines) — kept so a warm hit re-serves the time without
/// re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmEntry {
    /// Evaluated collective completion time.
    pub time: Time,
    /// The cached algorithm.
    pub algo: CollectiveAlgorithm,
}

/// Residency bounds for a [`WarmCache`]. Zero means unbounded — the
/// default, and the cache's original behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmLimits {
    /// Maximum resident entries (0 = unbounded).
    pub max_entries: u64,
    /// Maximum approximate resident bytes, as estimated by
    /// [`WarmCache::approx_entry_bytes`] (0 = unbounded).
    pub max_bytes: u64,
}

impl WarmLimits {
    /// `true` when neither cap is set.
    pub fn is_unbounded(&self) -> bool {
        self.max_entries == 0 && self.max_bytes == 0
    }
}

/// One resident entry plus its eviction bookkeeping.
#[derive(Debug)]
struct Resident {
    entry: Arc<WarmEntry>,
    /// [`WarmCache::approx_entry_bytes`] at insert time.
    bytes: u64,
    /// Global recency tick at the last lookup or insert.
    last_used: u64,
}

/// The mutable interior of one shard.
#[derive(Debug, Default)]
struct ShardSlab {
    entries: HashMap<String, Resident>,
    /// Sum of `bytes` over `entries`.
    bytes: u64,
}

/// One shard: its slab behind a mutex plus its immutable budget slice.
/// Budgets use `u64::MAX` (not 0) as the unbounded sentinel so the
/// eviction loop is a plain comparison.
#[derive(Debug)]
struct WarmShard {
    slab: Mutex<ShardSlab>,
    max_entries: u64,
    max_bytes: u64,
}

/// A thread-safe, sharded, size-bounded in-memory algorithm cache with
/// hit/miss/eviction counters and single-file snapshot persistence.
///
/// Keys are the same tagged structural fingerprints
/// [`crate::AlgorithmCache`] uses (`key_with_tag` / `key_for_generator`),
/// so the two layers agree on identity.
#[derive(Debug)]
pub struct WarmCache {
    shards: Box<[WarmShard]>,
    limits: WarmLimits,
    /// Global recency clock; ticks on every lookup and insert.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_entries: AtomicU64,
    resident_bytes: AtomicU64,
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache::new()
    }
}

/// What [`WarmCache::load_from`] recovered from a snapshot.
#[derive(Debug)]
pub struct LoadReport {
    /// The loaded cache (possibly a salvaged prefix of the snapshot).
    pub cache: WarmCache,
    /// Entry count the snapshot header declared.
    pub entries_expected: usize,
    /// Entries actually loaded and checksum-verified.
    pub entries_loaded: usize,
    /// Verified entries evicted again immediately because the cache's
    /// [`WarmLimits`] are smaller than the snapshot (see
    /// [`WarmCache::load_from_with_limits`]).
    pub entries_evicted: usize,
    /// `true` when the snapshot was torn or corrupt past the header and
    /// only the valid prefix was kept (or its trailer was missing).
    pub salvaged: bool,
    /// Human-readable description of what stopped a salvaged load.
    pub detail: Option<String>,
}

impl LoadReport {
    /// `true` when every declared entry loaded and the trailer verified.
    /// Cap-trimming (`entries_evicted`) does not make a load unclean —
    /// the snapshot itself was intact.
    pub fn is_clean(&self) -> bool {
        !self.salvaged
    }
}

/// Why a snapshot could not be loaded *at all*. Torn or partially
/// corrupt files past a valid header are not errors — they salvage (see
/// [`LoadReport`]). Every variant renders as one readable line; none of
/// them should ever panic the caller — a bad snapshot means a cold
/// start, not a dead daemon.
#[derive(Debug)]
pub enum WarmCacheError {
    /// The file could not be read.
    Io(PathBuf, io::Error),
    /// The file is not a warm-cache snapshot (bad or truncated header).
    /// Carries a human-readable description.
    Malformed(String),
    /// The snapshot was written by a different matcher revision; its
    /// schedules are not what the current matcher would emit.
    MatcherMismatch {
        /// Version recorded in the snapshot.
        found: u64,
        /// This build's [`crate::MATCHER_VERSION`].
        expected: u64,
    },
}

impl std::fmt::Display for WarmCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmCacheError::Io(path, e) => write!(f, "reading {}: {e}", path.display()),
            WarmCacheError::Malformed(what) => write!(f, "malformed warm-cache snapshot: {what}"),
            WarmCacheError::MatcherMismatch { found, expected } => write!(
                f,
                "warm-cache snapshot was written by matcher version {found}, this build is \
                 version {expected}: discarding stale entries (cold start)"
            ),
        }
    }
}

impl std::error::Error for WarmCacheError {}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC_TABLES[k][b]` advances byte `b` through `k` further zero
/// bytes, so eight input bytes fold into the register with eight
/// independent lookups instead of 64 dependent shift/xor steps.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc; // lint: allow(panic, "const-evaluated: an out-of-range index is a compile error")
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte]; // lint: allow(panic, "const-evaluated: an out-of-range index is a compile error")
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize]; // lint: allow(panic, "const-evaluated: an out-of-range index is a compile error")
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// One table lookup on the low byte of `value`.
#[inline(always)]
fn crc_lut(table: &[u32; 256], value: u32) -> u32 {
    table[(value & 0xFF) as usize] // lint: allow(panic, "the index is masked to 0..=255 and the table has 256 entries")
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of the
/// concatenation of `parts`, folded part by part so callers never have to
/// copy their pieces into one buffer. Table-driven (slice-by-8): this runs
/// over every entry's compact text on every `checkpoint` op, every
/// periodic checkpoint and every snapshot reload — tens of megabytes a
/// time under `tacos serve` — where a bitwise loop was the single largest
/// cost of a checkpoint.
fn crc32(parts: &[&[u8]]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for word in &mut words {
            let &[b0, b1, b2, b3, b4, b5, b6, b7] = word else {
                continue; // chunks_exact(8) yields only 8-byte slices
            };
            let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
            let hi = u32::from_le_bytes([b4, b5, b6, b7]);
            crc = crc_lut(t7, lo)
                ^ crc_lut(t6, lo >> 8)
                ^ crc_lut(t5, lo >> 16)
                ^ crc_lut(t4, lo >> 24)
                ^ crc_lut(t3, hi)
                ^ crc_lut(t2, hi >> 8)
                ^ crc_lut(t1, hi >> 16)
                ^ crc_lut(t0, hi >> 24);
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ crc_lut(t0, crc ^ u32::from(b));
        }
    }
    !crc
}

/// The per-entry checksum: CRC-32 of `"<key> <time_ps> <compact>"` — the
/// header fields a bit flip could silently alter plus the compact
/// schedule text. The byte-length field is implicitly covered — a wrong
/// length mis-splits the record and the checksum cannot match.
fn entry_crc(key: &str, time_ps: u64, compact: &str) -> u32 {
    let time = time_ps.to_string();
    crc32(&[
        key.as_bytes(),
        b" ",
        time.as_bytes(),
        b" ",
        compact.as_bytes(),
    ])
}

/// FNV-1a 64 over the key bytes — the shard selector. Stable across
/// runs, so a key always lands on the same shard of a same-shaped cache.
fn fingerprint(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Splits `total` across `n` shards so the slices sum to exactly
/// `total`: the first `total % n` shards get one extra. 0 means
/// unbounded and maps to the `u64::MAX` sentinel.
fn shard_budget(total: u64, index: u64, n: u64) -> u64 {
    if total == 0 {
        u64::MAX
    } else {
        total / n + u64::from(index < total % n)
    }
}

impl WarmCache {
    /// An empty, unbounded warm cache (the pre-eviction behavior).
    pub fn new() -> Self {
        WarmCache::with_limits(WarmLimits::default())
    }

    /// An empty warm cache bounded by `limits`. An entry cap below
    /// [`DEFAULT_SHARDS`] lowers the shard count to the cap so every
    /// shard can hold at least one entry.
    pub fn with_limits(limits: WarmLimits) -> Self {
        let shards = if limits.max_entries == 0 {
            DEFAULT_SHARDS
        } else {
            DEFAULT_SHARDS.min(limits.max_entries)
        };
        WarmCache::with_shards(limits, shards)
    }

    /// Constructor with an explicit shard count — private so production
    /// shapes stay uniform, used by tests that need a single shard to
    /// make global LRU order deterministic.
    fn with_shards(limits: WarmLimits, shard_count: u64) -> Self {
        let n = shard_count.max(1);
        let shards: Vec<WarmShard> = (0..n)
            .map(|i| WarmShard {
                slab: Mutex::new(ShardSlab::default()),
                max_entries: shard_budget(limits.max_entries, i, n),
                max_bytes: shard_budget(limits.max_bytes, i, n),
            })
            .collect();
        WarmCache {
            shards: shards.into_boxed_slice(),
            limits,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_entries: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// The configured residency bounds.
    pub fn limits(&self) -> WarmLimits {
        self.limits
    }

    /// Approximate in-memory footprint of one entry, charged against
    /// [`WarmLimits::max_bytes`]: key text, fixed per-entry overhead,
    /// and the schedule's transfer + dependency records. An estimate on
    /// purpose — the budget needs to scale with schedule size, not
    /// account for every allocator bucket.
    pub fn approx_entry_bytes(key: &str, entry: &WarmEntry) -> u64 {
        let transfers = entry.algo.transfers();
        let deps: usize = transfers.iter().map(|t| t.deps().len()).sum();
        key.len() as u64
            + ENTRY_OVERHEAD_BYTES
            + transfers.len() as u64 * TRANSFER_BYTES
            + deps as u64 * 4
    }

    fn shard_for(&self, key: &str) -> &WarmShard {
        let index = (fingerprint(key) % self.shards.len() as u64) as usize;
        &self.shards[index] // lint: allow(panic, "fingerprint is reduced modulo the shard count")
    }

    /// Looks up a key, counting the lookup as a hit or miss and
    /// refreshing the entry's recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<WarmEntry>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_for(key);
        let found = {
            let mut slab = shard.slab.lock().unwrap_or_else(PoisonError::into_inner);
            slab.entries.get_mut(key).map(|resident| {
                resident.last_used = now;
                Arc::clone(&resident.entry)
            })
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or replaces) an entry, returning the shared handle so
    /// callers can publish it without a second lookup — under eviction
    /// that second lookup could genuinely miss, so single-flight leaders
    /// must hand this handle to their followers.
    ///
    /// When the insert pushes the key's shard over its entry or byte
    /// budget, least-recently-used entries are evicted until it fits. A
    /// single entry larger than the whole byte budget is evicted
    /// immediately (the cap is strict); the returned handle still serves
    /// the in-flight requests that paid for it.
    pub fn insert(&self, key: String, entry: WarmEntry) -> Arc<WarmEntry> {
        let entry = Arc::new(entry);
        let bytes = WarmCache::approx_entry_bytes(&key, &entry);
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_for(&key);
        {
            let mut slab = shard.slab.lock().unwrap_or_else(PoisonError::into_inner);
            let replaced = slab.entries.insert(
                key,
                Resident {
                    entry: Arc::clone(&entry),
                    bytes,
                    last_used: now,
                },
            );
            slab.bytes += bytes;
            if let Some(old) = replaced {
                slab.bytes -= old.bytes;
                self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.resident_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            } else {
                self.resident_entries.fetch_add(1, Ordering::Relaxed);
                self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            while slab.entries.len() as u64 > shard.max_entries || slab.bytes > shard.max_bytes {
                let victim = slab
                    .entries
                    .iter()
                    .min_by_key(|(_, resident)| resident.last_used)
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                if let Some(gone) = slab.entries.remove(&victim) {
                    slab.bytes -= gone.bytes;
                    self.resident_entries.fetch_sub(1, Ordering::Relaxed);
                    self.resident_bytes.fetch_sub(gone.bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        entry
    }

    /// The resident keys, sorted (snapshot order). Locks one shard at a
    /// time — never the whole cache.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let slab = shard.slab.lock().unwrap_or_else(PoisonError::into_inner);
            keys.extend(slab.entries.keys().cloned());
        }
        keys.sort();
        keys
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.resident_entries.load(Ordering::Relaxed) as usize
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the configured [`WarmLimits`] so
    /// far (including entries trimmed while reloading a snapshot).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Approximate bytes of the resident set, as charged against
    /// [`WarmLimits::max_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Clones out the resident set shard-by-shard — each shard lock is
    /// held only long enough to copy its key/handle pairs, so a
    /// checkpoint never blocks writers on the other shards and never
    /// holds any lock while serializing or touching the filesystem.
    fn collect_sorted(&self) -> Vec<(String, Arc<WarmEntry>)> {
        let mut resident: Vec<(String, Arc<WarmEntry>)> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let slab = shard.slab.lock().unwrap_or_else(PoisonError::into_inner);
            resident.extend(
                slab.entries
                    .iter()
                    .map(|(key, r)| (key.clone(), Arc::clone(&r.entry))),
            );
        }
        // Deterministic order: restarts and tests see stable files.
        resident.sort_by(|a, b| a.0.cmp(&b.0));
        resident
    }

    /// Streams the resident set as snapshot text into `out` — the one
    /// serializer behind [`WarmCache::save_to`] and
    /// [`WarmCache::save_interrupted_to`]. Only one entry's compact text
    /// is alive at a time, so a checkpoint's memory cost is one schedule,
    /// not the whole snapshot. Entries evicted before this call are
    /// absent — the snapshot is exactly what is resident, never a log of
    /// everything ever inserted. Returns the number of entries written.
    ///
    /// Format, all text:
    ///
    /// ```text
    /// tacos-warm-cache v2
    /// matcher <MATCHER_VERSION>
    /// entries <count>
    /// <key> <time_ps> <compact-byte-length> <crc32-hex>
    /// <compact algorithm text, exactly that many bytes>
    /// ...
    /// end <count>
    /// ```
    fn write_snapshot(&self, out: &mut impl Write) -> io::Result<usize> {
        let resident = self.collect_sorted();
        writeln!(out, "{SNAPSHOT_MAGIC}")?;
        writeln!(out, "matcher {MATCHER_VERSION}")?;
        writeln!(out, "entries {}", resident.len())?;
        for (key, entry) in &resident {
            let compact = export::to_compact(&entry.algo);
            let time_ps = entry.time.as_ps();
            let crc = entry_crc(key, time_ps, &compact);
            writeln!(out, "{key} {time_ps} {} {crc:08x}", compact.len())?;
            out.write_all(compact.as_bytes())?;
        }
        writeln!(out, "end {}", resident.len())?;
        Ok(resident.len())
    }

    /// Creates the uniquely named temp file a snapshot is written to
    /// before it is renamed over `path` (and `path`'s directory, if it is
    /// missing).
    fn create_temp(path: &Path) -> io::Result<(PathBuf, std::fs::File)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::File::create(&tmp)?;
        Ok((tmp, file))
    }

    /// Writes the resident set to one snapshot file — atomically (unique
    /// temp file + fsync + rename + directory fsync), so a crash at any
    /// point leaves either the previous snapshot or the new one, never a
    /// torn file at the final path. Returns the number of entries
    /// written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let path = path.as_ref();
        let (tmp, file) = Self::create_temp(path)?;
        let mut out = BufWriter::new(file);
        let written = self
            .write_snapshot(&mut out)
            .and_then(|count| {
                out.flush()?;
                out.get_ref().sync_all()?;
                Ok(count)
            })
            .and_then(|count| std::fs::rename(&tmp, path).map(|()| count));
        drop(out);
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
            return written;
        }
        // Durability of the rename itself: fsync the directory. Best
        // effort — some filesystems refuse to sync a read-only dir
        // handle, and the temp-file fsync already ordered the data.
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = std::fs::File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        written
    }

    /// Fault-injection hook: simulates a crash mid-checkpoint by writing
    /// only the first half of the snapshot to a temp file and **never
    /// renaming it** — the debris a real kill would leave. The snapshot
    /// at `path` is untouched; the caller should treat the checkpoint as
    /// failed. Used by `tacos chaos` to prove checkpoint atomicity.
    pub fn save_interrupted_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut text = Vec::new();
        self.write_snapshot(&mut text)?;
        text.truncate(text.len() / 2);
        let (_, mut file) = Self::create_temp(path.as_ref())?;
        file.write_all(&text)?;
        file.sync_all()
    }

    /// [`WarmCache::load_from_with_limits`] with no caps — the loaded
    /// cache is unbounded, exactly the pre-eviction behavior.
    ///
    /// # Errors
    /// See [`WarmCache::load_from_with_limits`].
    pub fn load_from(path: impl AsRef<Path>) -> Result<LoadReport, WarmCacheError> {
        Self::load_from_with_limits(path, WarmLimits::default())
    }

    /// Loads a snapshot written by [`WarmCache::save_to`] into a cache
    /// bounded by `limits`.
    ///
    /// A snapshot with a valid header but torn or corrupt entries does
    /// **not** error: the valid prefix — every entry up to the first
    /// record that is truncated, unparseable, or fails its CRC32 — is
    /// salvaged and the [`LoadReport`] says so. A missing or mismatched
    /// `end <count>` trailer likewise marks the load salvaged (the
    /// writer never finished), while keeping everything that verified.
    ///
    /// A snapshot larger than `limits` loads clean but trims: every
    /// entry is still verified (so damage detection is unchanged), the
    /// caps evict the overflow as it inserts, and the report counts the
    /// trimmed entries in `entries_evicted`.
    ///
    /// # Errors
    /// [`WarmCacheError::MatcherMismatch`] when the snapshot was written
    /// by a different matcher revision, [`WarmCacheError::Malformed`]
    /// when the *header* is unrecognizable (not a snapshot at all),
    /// [`WarmCacheError::Io`] for filesystem errors. All are readable
    /// one-liners; callers cold-start on any of them.
    pub fn load_from_with_limits(
        path: impl AsRef<Path>,
        limits: WarmLimits,
    ) -> Result<LoadReport, WarmCacheError> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| WarmCacheError::Io(path.to_path_buf(), e))?;
        let malformed = |what: String| WarmCacheError::Malformed(what);
        fn next_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
            let (line, after) = rest.split_once('\n')?;
            *rest = after;
            Some(line)
        }

        let mut rest = text.as_str();
        let magic =
            next_line(&mut rest).ok_or_else(|| malformed("truncated before header".into()))?;
        if magic != SNAPSHOT_MAGIC {
            return Err(malformed(format!(
                "expected header '{SNAPSHOT_MAGIC}', found '{}'",
                magic.chars().take(40).collect::<String>()
            )));
        }
        let matcher_line = next_line(&mut rest)
            .ok_or_else(|| malformed("truncated before matcher version".into()))?;
        let found: u64 = matcher_line
            .strip_prefix("matcher ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| malformed(format!("bad matcher line '{matcher_line}'")))?;
        if found != MATCHER_VERSION {
            return Err(WarmCacheError::MatcherMismatch {
                found,
                expected: MATCHER_VERSION,
            });
        }
        let entries_line =
            next_line(&mut rest).ok_or_else(|| malformed("truncated before entry count".into()))?;
        let expected: usize = entries_line
            .strip_prefix("entries ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| malformed(format!("bad entries line '{entries_line}'")))?;

        // Past this point nothing errors: the header proves this is one
        // of our snapshots, so damage means salvage, not cold start.
        let cache = WarmCache::with_limits(limits);
        let mut loaded = 0usize;
        let mut detail: Option<String> = None;
        while loaded < expected {
            let i = loaded;
            // One entry: parse the header line, slice the compact text,
            // verify the checksum. Any failure tears the file here; the
            // prefix already inserted stays.
            let torn = (|| -> Result<(String, u64, &str), String> {
                let header =
                    next_line(&mut rest).ok_or_else(|| format!("entry {i}: truncated header"))?;
                let mut parts = header.split(' ');
                let (key, time_ps, len, crc) =
                    match (parts.next(), parts.next(), parts.next(), parts.next()) {
                        (Some(k), Some(t), Some(l), Some(c)) if parts.next().is_none() => (
                            k.to_string(),
                            t.parse::<u64>()
                                .map_err(|e| format!("entry {i}: time '{t}': {e}"))?,
                            l.parse::<usize>()
                                .map_err(|e| format!("entry {i}: length '{l}': {e}"))?,
                            u32::from_str_radix(c, 16)
                                .map_err(|e| format!("entry {i}: crc '{c}': {e}"))?,
                        ),
                        _ => return Err(format!("entry {i}: bad header '{header}'")),
                    };
                if len > rest.len() {
                    return Err(format!(
                        "entry {i} ('{key}') claims {len} bytes but only {} remain",
                        rest.len()
                    ));
                }
                if !rest.is_char_boundary(len) {
                    return Err(format!("entry {i} ('{key}') splits a character"));
                }
                let (compact, after) = rest.split_at(len);
                if entry_crc(&key, time_ps, compact) != crc {
                    return Err(format!("entry {i} ('{key}') failed its CRC32 check"));
                }
                rest = after;
                Ok((key, time_ps, compact))
            })();
            match torn {
                Ok((key, time_ps, compact)) => match export::from_compact(compact) {
                    Ok(algo) => {
                        cache.insert(
                            key,
                            WarmEntry {
                                time: Time::from_ps(time_ps),
                                algo,
                            },
                        );
                        loaded += 1;
                    }
                    Err(e) => {
                        detail = Some(format!("entry {i}: {e}"));
                        break;
                    }
                },
                Err(why) => {
                    detail = Some(why);
                    break;
                }
            }
        }
        let mut salvaged = detail.is_some();
        if !salvaged {
            // All declared entries verified; the trailer proves the
            // writer finished and nothing was appended after it.
            match next_line(&mut rest) {
                Some(trailer) if trailer == format!("end {expected}") && rest.is_empty() => {}
                Some(trailer) => {
                    salvaged = true;
                    detail = Some(format!("bad trailer '{trailer}'"));
                }
                None => {
                    salvaged = true;
                    detail = Some("missing 'end' trailer".into());
                }
            }
        }
        let entries_evicted = cache.evictions() as usize;
        Ok(LoadReport {
            cache,
            entries_expected: expected,
            entries_loaded: loaded,
            entries_evicted,
            salvaged,
            detail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Synthesizer, SynthesizerConfig};
    use proptest::prelude::*;
    use tacos_collective::Collective;
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

    fn entry(ps: u64) -> WarmEntry {
        WarmEntry {
            time: Time::from_ps(ps),
            algo: algo(),
        }
    }

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tacos-warm-{tag}-{}.snap", std::process::id()))
    }

    /// The bitwise CRC-32 the table-driven [`crc32`] replaced, kept as
    /// the oracle it is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// The serializer `write_snapshot` replaced — the whole snapshot as
    /// one `String`, checksummed over a `format!` copy of each record by
    /// the bitwise CRC — kept as the byte-for-byte reference.
    fn reference_snapshot(cache: &WarmCache) -> String {
        let resident = cache.collect_sorted();
        let mut out = format!(
            "{SNAPSHOT_MAGIC}\nmatcher {MATCHER_VERSION}\nentries {}\n",
            resident.len()
        );
        for (key, entry) in &resident {
            let compact = export::to_compact(&entry.algo);
            let time_ps = entry.time.as_ps();
            let crc = crc32_bitwise(format!("{key} {time_ps} {compact}").as_bytes());
            out.push_str(&format!("{key} {time_ps} {} {crc:08x}\n", compact.len()));
            out.push_str(&compact);
        }
        out.push_str(&format!("end {}\n", resident.len()));
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF43926);
        assert_eq!(crc32(&[b""]), 0);
        assert_eq!(crc32(&[]), 0);
        assert_eq!(
            crc32(&[b"The quick brown fox jumps over the lazy dog"]),
            0x414FA339
        );
        // Folding parts equals checksumming their concatenation, wherever
        // the seams fall relative to the 8-byte stride.
        assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF43926);
        assert_eq!(crc32(&[b"12345678", b"9"]), 0xCBF43926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every length 0..=64 at every start offset 0..8 (so every
        /// head/tail split of the 8-byte stride at every alignment), whole
        /// and cut into two parts, against the bitwise oracle.
        #[test]
        fn table_crc_equals_the_bitwise_oracle(
            buf in prop::collection::vec(any::<u8>(), 72..73),
            seam in 0usize..65,
        ) {
            for offset in 0..8 {
                for len in 0..=64 {
                    let bytes = &buf[offset..offset + len];
                    let expect = crc32_bitwise(bytes);
                    prop_assert_eq!(crc32(&[bytes]), expect, "offset {} len {}", offset, len);
                    let (head, tail) = bytes.split_at(seam.min(len));
                    prop_assert_eq!(crc32(&[head, tail]), expect, "offset {} len {}", offset, len);
                }
            }
        }
    }

    #[test]
    fn the_streamed_snapshot_is_byte_identical_to_the_reference_serializer() {
        let cache = WarmCache::new();
        for (i, key) in ["tacos-ag-0001", "ring-ag-0002", "k", "zz-last"]
            .into_iter()
            .enumerate()
        {
            cache.insert(key.into(), entry(1000 * i as u64 + 7));
        }
        let expect = reference_snapshot(&cache);
        let mut streamed = Vec::new();
        assert_eq!(cache.write_snapshot(&mut streamed).unwrap(), 4);
        assert_eq!(String::from_utf8(streamed).unwrap(), expect);
        // The file on disk is the same bytes, and the interrupted save is
        // exactly their first half: one serializer behind both.
        let dir = std::env::temp_dir().join(format!("tacos-warm-ident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("warm.tacos-cache");
        cache.save_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        std::fs::remove_file(&path).unwrap();
        cache.save_interrupted_to(&path).unwrap();
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(
            debris.len(),
            1,
            "one torn temp, nothing renamed: {debris:?}"
        );
        assert_eq!(
            std::fs::read(&debris[0]).unwrap(),
            &expect.as_bytes()[..expect.len() / 2]
        );
        // An empty cache is still a complete snapshot.
        let empty = WarmCache::new();
        let mut streamed = Vec::new();
        assert_eq!(empty.write_snapshot(&mut streamed).unwrap(), 0);
        assert_eq!(
            String::from_utf8(streamed).unwrap(),
            reference_snapshot(&empty)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trips() {
        let cache = WarmCache::new();
        let a = algo();
        cache.insert(
            "tacos-ag-0001".into(),
            WarmEntry {
                time: Time::from_ps(1234),
                algo: a.clone(),
            },
        );
        cache.insert(
            "ring-ag-0002".into(),
            WarmEntry {
                time: Time::from_ps(99),
                algo: a.clone(),
            },
        );
        let path = temp("rt");
        assert_eq!(cache.save_to(&path).unwrap(), 2);
        let report = WarmCache::load_from(&path).unwrap();
        assert!(report.is_clean(), "{:?}", report.detail);
        assert_eq!(report.entries_expected, 2);
        assert_eq!(report.entries_loaded, 2);
        assert_eq!(report.entries_evicted, 0);
        let back = report.cache;
        assert_eq!(back.len(), 2);
        let entry = back.get("tacos-ag-0001").unwrap();
        assert_eq!(entry.time, Time::from_ps(1234));
        assert_eq!(entry.algo, a);
        assert!(back.get("missing").is_none());
        assert_eq!(back.hits(), 1);
        assert_eq!(back.misses(), 1);
        assert_eq!(back.evictions(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn matcher_mismatch_is_a_readable_error_not_a_panic() {
        let path = temp("ver");
        std::fs::write(&path, "tacos-warm-cache v2\nmatcher 1\nentries 0\nend 0\n").unwrap();
        let err = WarmCache::load_from(&path).unwrap_err();
        assert!(matches!(
            err,
            WarmCacheError::MatcherMismatch {
                found: 1,
                expected: MATCHER_VERSION
            }
        ));
        assert!(err.to_string().contains("matcher version 1"), "{err}");
        assert!(err.to_string().contains("cold start"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unrecognizable_headers_are_readable_errors() {
        let path = temp("bad");
        for (tag, contents) in [
            ("garbage", "not a snapshot at all\n".to_string()),
            ("empty", String::new()),
            ("no-newline", "tacos-warm-cache v2".to_string()),
            // The v1 format predates checksums; its entries cannot be
            // verified, so it cold-starts like any foreign file.
            (
                "v1",
                "tacos-warm-cache v1\nmatcher 2\nentries 0\n".to_string(),
            ),
            (
                "bad-entries-line",
                format!("{SNAPSHOT_MAGIC}\nmatcher {MATCHER_VERSION}\nentries ??\n"),
            ),
        ] {
            std::fs::write(&path, contents).unwrap();
            let err = WarmCache::load_from(&path).unwrap_err();
            assert!(
                matches!(err, WarmCacheError::Malformed(_)),
                "{tag}: expected Malformed, got {err:?}"
            );
            assert!(!err.to_string().is_empty(), "{tag}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damage_past_the_header_salvages_instead_of_erroring() {
        let path = temp("salvage");
        for (tag, contents, expect_loaded) in [
            (
                "truncated-entry",
                format!(
                    "{SNAPSHOT_MAGIC}\nmatcher {MATCHER_VERSION}\nentries 1\nk 5 9999 0badc0de\nxx"
                ),
                0,
            ),
            (
                "bad-compact",
                format!(
                    "{SNAPSHOT_MAGIC}\nmatcher {MATCHER_VERSION}\nentries 1\nk 5 4 {:08x}\nnope",
                    entry_crc("k", 5, "nope")
                ),
                0,
            ),
            (
                "trailing",
                format!("{SNAPSHOT_MAGIC}\nmatcher {MATCHER_VERSION}\nentries 0\nend 0\nleftover"),
                0,
            ),
            (
                "missing-trailer",
                format!("{SNAPSHOT_MAGIC}\nmatcher {MATCHER_VERSION}\nentries 0\n"),
                0,
            ),
        ] {
            std::fs::write(&path, contents).unwrap();
            let report = WarmCache::load_from(&path)
                .unwrap_or_else(|e| panic!("{tag}: expected salvage, got error {e}"));
            assert!(report.salvaged, "{tag}");
            assert_eq!(report.entries_loaded, expect_loaded, "{tag}");
            assert!(report.detail.is_some(), "{tag}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// An entry whose checksum holds but whose text is not a transfer
    /// list tears the snapshot there: the entries before it load, the
    /// report says salvaged, and nothing panics.
    #[test]
    fn a_malformed_entry_with_a_valid_crc_tears_the_snapshot() {
        let good = export::to_compact(&algo());
        let path = temp("malformed");
        for line in crate::cache::MALFORMED_LINES {
            let bad = format!("tacos-algo v1 x 4 1000 4000 -\n{line}\n");
            let mut text = format!("{SNAPSHOT_MAGIC}\nmatcher {MATCHER_VERSION}\nentries 2\n");
            for (key, compact) in [("a", &good), ("b", &bad)] {
                let crc = entry_crc(key, 5, compact);
                text.push_str(&format!("{key} 5 {} {crc:08x}\n{compact}", compact.len()));
            }
            text.push_str("end 2\n");
            std::fs::write(&path, text).unwrap();
            let report = WarmCache::load_from(&path).unwrap();
            assert!(report.salvaged, "{line}");
            assert_eq!(report.entries_loaded, 1, "{line}");
            assert!(report.cache.get("a").is_some(), "{line}");
            assert!(
                report
                    .detail
                    .as_deref()
                    .unwrap()
                    .starts_with("entry 1: line 2: "),
                "{line}: {:?}",
                report.detail
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_byte_in_an_entry_fails_its_crc_and_tears_there() {
        let cache = WarmCache::new();
        let a = algo();
        for key in ["aaa", "bbb", "ccc"] {
            cache.insert(
                key.into(),
                WarmEntry {
                    time: Time::from_ps(7),
                    algo: a.clone(),
                },
            );
        }
        let path = temp("flip");
        cache.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the middle entry's compact text: the
        // header is 3 lines, entry records follow sorted (aaa, bbb, ccc).
        let text = String::from_utf8(bytes.clone()).unwrap();
        let bbb_header = text.find("\nbbb ").unwrap();
        let flip_at = bbb_header + 40; // somewhere inside bbb's record
        bytes[flip_at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = WarmCache::load_from(&path).unwrap();
        assert!(report.salvaged);
        assert_eq!(report.entries_loaded, 1, "{:?}", report.detail);
        assert!(report.cache.get("aaa").is_some());
        assert!(report.cache.get("bbb").is_none());
        assert!(report.cache.get("ccc").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_interrupted_save_leaves_the_previous_snapshot_intact() {
        let cache = WarmCache::new();
        cache.insert(
            "k1".into(),
            WarmEntry {
                time: Time::from_ps(1),
                algo: algo(),
            },
        );
        let dir = std::env::temp_dir().join(format!("tacos-warm-abort-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("warm.tacos-cache");
        cache.save_to(&path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // The interrupted save writes a torn temp and never renames.
        cache.insert(
            "k2".into(),
            WarmEntry {
                time: Time::from_ps(2),
                algo: algo(),
            },
        );
        cache.save_interrupted_to(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before, "snapshot mutated");
        let report = WarmCache::load_from(&path).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.entries_loaded, 1);
        // The torn temp is visible debris, never the final file.
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp."))
            .collect();
        assert_eq!(debris.len(), 1, "expected exactly one torn temp file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = WarmCache::load_from("/nonexistent/warm.snap").unwrap_err();
        assert!(matches!(err, WarmCacheError::Io(..)));
        assert!(err.to_string().contains("/nonexistent/warm.snap"));
    }

    #[test]
    fn an_entry_cap_bounds_residency_and_counts_evictions() {
        let cache = WarmCache::with_limits(WarmLimits {
            max_entries: 3,
            max_bytes: 0,
        });
        for i in 0..10 {
            cache.insert(format!("key-{i}"), entry(i));
        }
        assert!(cache.len() <= 3, "resident {} > cap 3", cache.len());
        assert!(!cache.is_empty());
        assert_eq!(cache.evictions(), 10 - cache.len() as u64);
        assert_eq!(cache.keys().len(), cache.len());
        // Unbounded counterpart keeps everything.
        let unbounded = WarmCache::new();
        for i in 0..10 {
            unbounded.insert(format!("key-{i}"), entry(i));
        }
        assert_eq!(unbounded.len(), 10);
        assert_eq!(unbounded.evictions(), 0);
    }

    #[test]
    fn a_byte_cap_bounds_resident_bytes() {
        let one = WarmCache::approx_entry_bytes("key-0", &entry(0));
        assert!(one > ENTRY_OVERHEAD_BYTES, "estimate must count transfers");
        // Room for two entries and change, one shard so LRU is global.
        let cache = WarmCache::with_shards(
            WarmLimits {
                max_entries: 0,
                max_bytes: one * 2 + one / 2,
            },
            1,
        );
        for i in 0..6 {
            cache.insert(format!("key-{i}"), entry(i));
            assert!(
                cache.resident_bytes() <= one * 2 + one / 2,
                "resident bytes {} exceed the cap after insert {i}",
                cache.resident_bytes()
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 4);
        // The survivors are the most recently inserted.
        assert!(cache.get("key-5").is_some());
        assert!(cache.get("key-4").is_some());
        assert!(cache.get("key-0").is_none());
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = WarmCache::with_shards(
            WarmLimits {
                max_entries: 2,
                max_bytes: 0,
            },
            1,
        );
        cache.insert("a".into(), entry(1));
        cache.insert("b".into(), entry(2));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), entry(3));
        assert!(cache.get("a").is_some(), "recently-used key was evicted");
        assert!(cache.get("b").is_none(), "LRU key should have been evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn a_replacing_insert_does_not_grow_residency() {
        let cache = WarmCache::with_shards(
            WarmLimits {
                max_entries: 2,
                max_bytes: 0,
            },
            1,
        );
        cache.insert("a".into(), entry(1));
        cache.insert("a".into(), entry(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get("a").unwrap().time, Time::from_ps(2));
        let one = WarmCache::approx_entry_bytes("a", &entry(2));
        assert_eq!(cache.resident_bytes(), one);
    }

    #[test]
    fn the_insert_handle_outlives_eviction() {
        // The single-flight contract: a leader's returned Arc serves its
        // followers even if the entry is evicted before they wake.
        let cache = WarmCache::with_shards(
            WarmLimits {
                max_entries: 1,
                max_bytes: 0,
            },
            1,
        );
        let handle = cache.insert("a".into(), entry(41));
        cache.insert("b".into(), entry(42));
        assert!(cache.get("a").is_none(), "a should have been evicted");
        assert_eq!(handle.time, Time::from_ps(41), "the handle still serves");
    }

    #[test]
    fn reload_respects_smaller_limits() {
        let cache = WarmCache::new();
        for i in 0..5 {
            cache.insert(format!("key-{i}"), entry(i));
        }
        let path = temp("capped-reload");
        assert_eq!(cache.save_to(&path).unwrap(), 5);
        let report = WarmCache::load_from_with_limits(
            &path,
            WarmLimits {
                max_entries: 2,
                max_bytes: 0,
            },
        )
        .unwrap();
        assert!(report.is_clean(), "cap-trimming is not damage");
        assert_eq!(report.entries_loaded, 5, "every entry is still verified");
        assert!(report.cache.len() <= 2);
        assert_eq!(report.entries_evicted, 5 - report.cache.len());
        assert_eq!(report.cache.limits().max_entries, 2);
        // A capped save writes only the resident set.
        assert_eq!(report.cache.save_to(&path).unwrap(), report.cache.len());
        let reread = WarmCache::load_from(&path).unwrap();
        assert!(reread.is_clean());
        assert_eq!(reread.entries_expected, report.cache.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_budgets_sum_exactly_to_the_caps() {
        for (total, n) in [(7u64, 3u64), (16, 16), (5, 16), (1, 1), (100, 7)] {
            let sum: u64 = (0..n).map(|i| shard_budget(total, i, n)).sum();
            assert_eq!(sum, total, "total={total} n={n}");
        }
        assert_eq!(shard_budget(0, 0, 4), u64::MAX, "0 means unbounded");
    }
}
