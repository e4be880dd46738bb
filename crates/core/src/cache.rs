//! On-disk cache of generated algorithms.
//!
//! Generation is deterministic per (topology, collective, config, seed),
//! so production deployments — like the CCLs the paper targets —
//! synthesize once per fabric and reuse the schedule. [`AlgorithmCache`]
//! stores the compact serialization (`collective::export::to_compact`)
//! under a structural fingerprint of those inputs:
//! [`AlgorithmCache::key_with_tag`] for TACOS syntheses,
//! [`AlgorithmCache::key_for_generator`] for generators without a
//! synthesizer configuration (the baselines). Lookups go through
//! [`AlgorithmCache::load`] / [`AlgorithmCache::store`] or the combined
//! [`AlgorithmCache::load_or_insert_with`]; which key a mechanism gets,
//! and when it is consulted, is decided in one place —
//! `tacos-workload`'s evaluation pipeline.

use std::io;
use std::path::{Path, PathBuf};

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::{export, Collective};
use tacos_topology::Topology;

use crate::synthesis::Synthesizer;

/// Version of the matcher's seeded-schedule semantics, folded into every
/// synthesis cache key: the same (topology, collective, seed) produces a
/// different schedule across matcher revisions, so entries from older
/// builds must not hit. 2 = PR 2's zero-allocation matching core.
/// 3 = event-driven matching's round RNG protocol: a round draws one salt
/// and sorts the worklist by salted hash instead of shuffling it, so
/// seeded schedules differ from version 2 (see PERF.md).
///
/// Public because persisted cache containers record it in their headers
/// (see [`crate::WarmCache`]): a snapshot written by a different matcher
/// revision is rejected wholesale at load with a readable error instead
/// of being carried as unreachable dead weight.
pub const MATCHER_VERSION: u64 = 3;

/// A directory of cached `.tacos` schedules.
///
/// ```no_run
/// use tacos_core::{AlgorithmCache, Synthesizer, SynthesizerConfig};
/// use tacos_collective::Collective;
/// use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = Topology::mesh_2d(4, 4, LinkSpec::new(
///     Time::from_micros(0.5), Bandwidth::gbps(50.0)))?;
/// let coll = Collective::all_reduce(16, ByteSize::mb(64))?;
/// let cache = AlgorithmCache::new(".tacos-cache")?;
/// let synth = Synthesizer::new(SynthesizerConfig::default());
/// let key = AlgorithmCache::key_with_tag("tacos", &synth, &topo, &coll);
/// // First call synthesizes and stores; later calls load from disk.
/// let (algo, _outcome) = cache.load_or_insert_with(&key, || {
///     synth.synthesize(&topo, &coll).map(|r| r.into_algorithm())
/// })?;
/// # let _ = algo;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AlgorithmCache {
    dir: PathBuf,
}

/// Whether a cached lookup was served from disk or freshly generated.
///
/// Returned by [`AlgorithmCache::load_or_insert_with`] so callers (e.g.
/// the scenario runner's resumability accounting) can distinguish
/// incremental re-runs from cold synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The algorithm was loaded from the cache directory.
    Hit,
    /// The algorithm was generated (and stored) by this call.
    Miss,
}

impl AlgorithmCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    /// Propagates filesystem errors from directory creation.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(AlgorithmCache {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Structural fingerprint of (topology, collective, synthesizer
    /// config): FNV-1a over every link's endpoints and α–β parameters,
    /// the collective's shape, and the search settings — namespaced by an
    /// algorithm tag (`"tacos"` for syntheses) so other generators can
    /// share the same cache directory without key collisions.
    pub fn key_with_tag(
        tag: &str,
        synth: &Synthesizer,
        topo: &Topology,
        collective: &Collective,
    ) -> String {
        let mut h = Fnv::new();
        // Bumped whenever the matcher's seeded-schedule semantics change
        // (e.g. PR 2's bit-granular pick rotation and salt-derived probe
        // offsets): a persistent cache dir written by an older build must
        // miss, not serve schedules the current matcher would not emit.
        h.write_u64(MATCHER_VERSION);
        h.write_bytes(tag.as_bytes());
        write_inputs(&mut h, topo, collective);
        let config = synth.config();
        h.write_u64(config.seed());
        h.write_u64(config.attempts() as u64);
        h.write_u64(u64::from(config.prefer_cheap_links()));
        format!(
            "{tag}-{}-{:016x}",
            collective.pattern().short_name(),
            h.finish()
        )
    }

    /// A fingerprint for algorithm generators that have no synthesizer
    /// configuration — the deterministic baselines. `salt` folds in
    /// whatever generator state matters (a randomized baseline's seed;
    /// 0 for fully deterministic ones), so seed/attempt sweeps don't
    /// spuriously miss on algorithms that ignore them.
    pub fn key_for_generator(
        tag: &str,
        topo: &Topology,
        collective: &Collective,
        salt: u64,
    ) -> String {
        let mut h = Fnv::new();
        // Randomized generators (the TACCL-like baseline) share the
        // bitset pick kernels whose seeded semantics MATCHER_VERSION
        // tracks, so their persisted entries must roll over with it too.
        h.write_u64(MATCHER_VERSION);
        h.write_bytes(tag.as_bytes());
        write_inputs(&mut h, topo, collective);
        h.write_u64(salt);
        format!(
            "{tag}-{}-{:016x}",
            collective.pattern().short_name(),
            h.finish()
        )
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.tacos"))
    }

    /// Loads a cached algorithm by key, if present and parseable.
    pub fn load(&self, key: &str) -> Option<CollectiveAlgorithm> {
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        export::from_compact(&text).ok()
    }

    /// Stores an algorithm under the given key.
    ///
    /// The write is atomic (temp file + rename): the compact format has no
    /// trailer, so a truncated file left by a killed process — or seen by
    /// a concurrent reader sharing the cache directory — would otherwise
    /// parse as a valid but incomplete algorithm and poison every future
    /// run of that point.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn store(&self, key: &str, algo: &CollectiveAlgorithm) -> io::Result<()> {
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{key}.tmp.{}.{seq}", std::process::id()));
        let written = (|| {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(export::to_compact(algo).as_bytes())?;
            // fsync before the rename: otherwise a crash can land the
            // rename while the data blocks have not hit disk, leaving a
            // durable *empty* cache entry in place of the old state.
            file.sync_all()
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let result = std::fs::rename(&tmp, self.path_for(key));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// The cache entry point: loads `key` if present, otherwise calls
    /// `generate`, stores its output, and reports [`CacheOutcome::Miss`].
    ///
    /// The error type is the generator's own — this is what lets the
    /// scenario runner cache baseline generators (whose errors are not
    /// [`SynthesisError`]) alongside TACOS syntheses.
    ///
    /// # Errors
    /// Propagates `generate`'s error; storage failures are swallowed.
    pub fn load_or_insert_with<E>(
        &self,
        key: &str,
        generate: impl FnOnce() -> Result<CollectiveAlgorithm, E>,
    ) -> Result<(CollectiveAlgorithm, CacheOutcome), E> {
        if let Some(algo) = self.load(key) {
            return Ok((algo, CacheOutcome::Hit));
        }
        let algo = generate()?;
        let _ = self.store(key, &algo);
        Ok((algo, CacheOutcome::Miss))
    }
}

/// Hashes the structural inputs common to every cache key: each link's
/// endpoints and α–β parameters, and the collective's shape.
fn write_inputs(h: &mut Fnv, topo: &Topology, collective: &Collective) {
    h.write_u64(topo.num_npus() as u64);
    for link in topo.links() {
        h.write_u64(u64::from(link.src().raw()) << 32 | u64::from(link.dst().raw()));
        h.write_u64(link.spec().alpha().as_ps());
        h.write_u64(link.spec().bandwidth().as_bytes_per_sec().to_bits());
    }
    h.write_bytes(collective.pattern().short_name().as_bytes());
    if let Some(root) = collective.pattern().root() {
        h.write_u64(u64::from(root.raw()));
    }
    h.write_u64(collective.num_npus() as u64);
    h.write_u64(collective.chunks_per_npu() as u64);
    h.write_u64(collective.total_size().as_u64());
}

/// Minimal FNV-1a, enough for cache fingerprints (not cryptographic).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Transfer lines `AlgorithmBuilder` would assert on, and one whose start
/// is the "unscheduled" sentinel: under a 4-NPU header, each makes a
/// cache file or snapshot entry unreadable.
#[cfg(test)]
pub(crate) const MALFORMED_LINES: [&str; 5] = [
    "0 1 0 0 C - - - -",
    "0 1 0 9 C - - - -",
    "0 1 0 1 C - - - 3",
    "0 0 0 1 C - - - -",
    "0 1 0 1 C 0 18446744073709551615 5 -",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthesizerConfig;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time};

    fn setup() -> (Topology, Collective, Synthesizer) {
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        let topo = Topology::mesh_2d(3, 3, spec).unwrap();
        let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
        let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(4));
        (topo, coll, synth)
    }

    fn key(synth: &Synthesizer, topo: &Topology, coll: &Collective) -> String {
        AlgorithmCache::key_with_tag("tacos", synth, topo, coll)
    }

    fn synthesize_cached(
        cache: &AlgorithmCache,
        synth: &Synthesizer,
        topo: &Topology,
        coll: &Collective,
    ) -> (CollectiveAlgorithm, CacheOutcome) {
        cache
            .load_or_insert_with(&key(synth, topo, coll), || {
                synth.synthesize(topo, coll).map(|r| r.into_algorithm())
            })
            .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tacos-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_round_trip_reports_miss_then_hit() {
        let (topo, coll, synth) = setup();
        let dir = temp_dir("rt");
        let cache = AlgorithmCache::new(&dir).unwrap();
        let (first, o1) = synthesize_cached(&cache, &synth, &topo, &coll);
        assert_eq!(o1, CacheOutcome::Miss);
        // One .tacos file appeared.
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1);
        // Second call loads the identical algorithm from disk.
        let (second, o2) = synthesize_cached(&cache, &synth, &topo, &coll);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_is_sensitive_to_inputs() {
        let (topo, coll, synth) = setup();
        let base = key(&synth, &topo, &coll);
        // Different seed, different key.
        let synth2 = Synthesizer::new(SynthesizerConfig::default().with_seed(5));
        assert_ne!(base, key(&synth2, &topo, &coll));
        // Different size, different key.
        let coll2 = Collective::all_gather(9, ByteSize::mb(18)).unwrap();
        assert_ne!(base, key(&synth, &topo, &coll2));
        // Different topology (one link removed), different key.
        let degraded = topo.without_link(tacos_topology::LinkId::new(0));
        assert_ne!(base, key(&synth, &degraded, &coll));
        // Same inputs, same key (stable).
        assert_eq!(base, key(&synth, &topo, &coll));
    }

    #[test]
    fn every_synthesizer_config_knob_is_in_the_key() {
        // The scenario engine sweeps synth.* axes (seed, attempts,
        // prefer_cheap_links, and chunking via the collective); a knob
        // missing from the fingerprint would serve one configuration's
        // schedule to another — a stale cross-config hit.
        let (topo, coll, _) = setup();
        let key_of = |config: SynthesizerConfig| key(&Synthesizer::new(config), &topo, &coll);
        let base_config = SynthesizerConfig::default().with_seed(4);
        let base = key_of(base_config.clone());
        assert_ne!(base, key_of(base_config.clone().with_attempts(8)));
        assert_ne!(
            base,
            key_of(base_config.clone().with_prefer_cheap_links(false))
        );
        assert_ne!(base, key_of(base_config.clone().with_seed(5)));
        // Chunking lives on the collective and is fingerprinted there.
        let chunked = Collective::with_chunking(
            tacos_collective::CollectivePattern::AllGather,
            9,
            4,
            ByteSize::mb(9),
        )
        .unwrap();
        let synth = Synthesizer::new(base_config.clone());
        assert_ne!(key(&synth, &topo, &coll), key(&synth, &topo, &chunked));
        // All four distinct configurations produce four distinct keys.
        let keys = [
            base,
            key_of(base_config.clone().with_attempts(8)),
            key_of(base_config.clone().with_prefer_cheap_links(false)),
            key_of(base_config.with_seed(5)),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn tagged_keys_namespace_the_cache() {
        let (topo, coll, synth) = setup();
        let tacos = AlgorithmCache::key_with_tag("tacos", &synth, &topo, &coll);
        let ring = AlgorithmCache::key_with_tag("ring", &synth, &topo, &coll);
        assert_ne!(tacos, ring);
        assert!(tacos.starts_with("tacos-"));
        assert!(ring.starts_with("ring-"));
    }

    #[test]
    fn generator_keys_ignore_synth_config_but_respect_salt() {
        let (topo, coll, _) = setup();
        let base = AlgorithmCache::key_for_generator("ring", &topo, &coll, 0);
        // Same inputs, same key — regardless of any synthesizer config.
        assert_eq!(
            base,
            AlgorithmCache::key_for_generator("ring", &topo, &coll, 0)
        );
        // Salt (a randomized generator's seed) changes the key.
        assert_ne!(
            base,
            AlgorithmCache::key_for_generator("ring", &topo, &coll, 7)
        );
        // Tag namespaces generators.
        assert_ne!(
            base,
            AlgorithmCache::key_for_generator("direct", &topo, &coll, 0)
        );
        // Different topology, different key.
        let degraded = topo.without_link(tacos_topology::LinkId::new(0));
        assert_ne!(
            base,
            AlgorithmCache::key_for_generator("ring", &degraded, &coll, 0)
        );
    }

    #[test]
    fn store_leaves_no_temp_files() {
        let (topo, coll, synth) = setup();
        let dir = temp_dir("atomic");
        let cache = AlgorithmCache::new(&dir).unwrap();
        let algo = synth.synthesize(&topo, &coll).unwrap().into_algorithm();
        cache.store("k", &algo).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["k.tacos"]);
        assert_eq!(cache.load("k").unwrap(), algo);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache file whose text parses but is not a transfer list is a
    /// miss: the entry is regenerated and rewritten, never a panic.
    #[test]
    fn a_malformed_entry_is_a_miss_then_a_regeneration() {
        let (topo, coll, synth) = setup();
        let dir = temp_dir("malformed");
        let cache = AlgorithmCache::new(&dir).unwrap();
        let k = key(&synth, &topo, &coll);
        for line in MALFORMED_LINES {
            std::fs::write(
                dir.join(format!("{k}.tacos")),
                format!("tacos-algo v1 x 4 1000 4000 -\n{line}\n"),
            )
            .unwrap();
            assert!(cache.load(&k).is_none(), "{line}");
            let (_, first) = synthesize_cached(&cache, &synth, &topo, &coll);
            assert_eq!(first, CacheOutcome::Miss, "{line}");
            let (_, second) = synthesize_cached(&cache, &synth, &topo, &coll);
            assert_eq!(second, CacheOutcome::Hit, "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_is_none() {
        let dir = temp_dir("miss");
        let cache = AlgorithmCache::new(&dir).unwrap();
        assert!(cache.load("nonexistent").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
