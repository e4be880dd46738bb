//! Descriptions of collective communications: who starts with which chunks
//! (precondition) and who must end with which chunks (postcondition) —
//! paper §IV-C.

use tacos_topology::{ByteSize, NpuId};

use crate::chunk::{ChunkId, ChunkSet};
use crate::error::CollectiveError;
use crate::pattern::CollectivePattern;

/// The most (NPU, chunk) pairs — `num_npus × num_chunks` — a collective
/// may span.
///
/// Synthesis keeps state per pair: a holds bit and a needs bit per NPU
/// and chunk, plus, when recording, a 4-byte providing-transfer entry. A
/// chunking factor arrives from a request line, a flag or a scenario
/// axis, so without a bound `ring:8` with 2^28 chunks per NPU would ask
/// for a 64 GB provider table before anything looked at it. 2^25 (about
/// 33.6 M pairs, a 128 MiB provider table) is twice the largest
/// legitimate case known: a 32×32 mesh with chunking factor 16, 16.8 M
/// pairs. It is the bound a topology spec's NPU and link counts are held
/// to, one constant for both.
pub const MAX_NPU_CHUNK_PAIRS: u64 = tacos_topology::MAX_SPEC_ELEMENTS;

/// A collective communication to synthesize or execute: a pattern, a
/// participant count, a payload size, and a chunking factor.
///
/// The payload (`total_size`) is the **full per-NPU buffer**: a "1 GB
/// All-Reduce" means every NPU holds a 1 GB gradient buffer. With `n` NPUs
/// and chunking factor `k`, owner-based patterns split the buffer into
/// `n·k` chunks (paper §II-A: chunking increases overlap).
///
/// ```
/// use tacos_collective::Collective;
/// use tacos_topology::ByteSize;
/// let coll = Collective::all_gather(4, ByteSize::mb(4))?;
/// assert_eq!(coll.num_chunks(), 4);
/// assert_eq!(coll.chunk_size(), ByteSize::mb(1));
/// // NPU 2 starts with chunk 2 and must end with all four chunks.
/// assert_eq!(coll.precondition(tacos_topology::NpuId::new(2)).len(), 1);
/// assert_eq!(coll.postcondition(tacos_topology::NpuId::new(2)).len(), 4);
/// # Ok::<(), tacos_collective::CollectiveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Collective {
    pattern: CollectivePattern,
    num_npus: usize,
    chunks_per_npu: usize,
    total_size: ByteSize,
    num_chunks: usize,
    chunk_size: ByteSize,
}

impl Collective {
    fn new(
        pattern: CollectivePattern,
        num_npus: usize,
        chunks_per_npu: usize,
        total_size: ByteSize,
    ) -> Result<Self, CollectiveError> {
        if num_npus < 2 {
            return Err(CollectiveError::TooFewNpus { num_npus });
        }
        if chunks_per_npu == 0 {
            return Err(CollectiveError::ZeroChunks);
        }
        if let Some(root) = pattern.root() {
            if root.index() >= num_npus {
                return Err(CollectiveError::RootOutOfRange {
                    root: root.index(),
                    num_npus,
                });
            }
        }
        let num_chunks = match pattern {
            CollectivePattern::Broadcast { .. } | CollectivePattern::Reduce { .. } => {
                Some(chunks_per_npu)
            }
            // Personalized exchange: one shard per (source, destination).
            CollectivePattern::AllToAll => num_npus
                .checked_mul(num_npus)
                .and_then(|pairs| pairs.checked_mul(chunks_per_npu)),
            _ => num_npus.checked_mul(chunks_per_npu),
        };
        // A chunking factor arrives from a request line, a flag or a
        // scenario axis; a product that wraps (or outgrows `ChunkId`'s
        // `u32`) must be an error here, not a collective whose ids
        // collide.
        let num_chunks = num_chunks.filter(|&n| u32::try_from(n).is_ok()).ok_or(
            CollectiveError::TooManyChunks {
                num_npus,
                chunks_per_npu,
            },
        )?;
        let pairs = (num_npus as u64).saturating_mul(num_chunks as u64);
        if pairs > MAX_NPU_CHUNK_PAIRS {
            return Err(CollectiveError::TooLarge {
                pairs,
                limit: MAX_NPU_CHUNK_PAIRS,
            });
        }
        if total_size.as_u64() == 0 {
            return Err(CollectiveError::SizeNotDivisible {
                size: 0,
                chunks: num_chunks as u64,
            });
        }
        // Ceiling division: tiny collectives (1 KB over 128 NPUs, Fig. 2b)
        // still get non-empty, α-dominated chunks. For All-to-All the
        // per-NPU buffer holds one shard per peer, so a chunk is
        // S/(n·k) even though there are n²·k chunks in flight globally.
        let divisor = match pattern {
            CollectivePattern::AllToAll => (num_npus * chunks_per_npu) as u64,
            _ => num_chunks as u64,
        };
        let chunk_size = ByteSize::bytes(total_size.as_u64().div_ceil(divisor));
        Ok(Collective {
            pattern,
            num_npus,
            chunks_per_npu,
            total_size,
            num_chunks,
            chunk_size,
        })
    }

    /// An All-Gather over `num_npus` NPUs with chunking factor 1.
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn all_gather(num_npus: usize, size: ByteSize) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::AllGather, num_npus, 1, size)
    }

    /// A Reduce-Scatter over `num_npus` NPUs with chunking factor 1.
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn reduce_scatter(num_npus: usize, size: ByteSize) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::ReduceScatter, num_npus, 1, size)
    }

    /// An All-Reduce over `num_npus` NPUs with chunking factor 1.
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn all_reduce(num_npus: usize, size: ByteSize) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::AllReduce, num_npus, 1, size)
    }

    /// A Broadcast from `root` with chunking factor 1 (the whole payload
    /// moves as one chunk).
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn broadcast(
        num_npus: usize,
        root: NpuId,
        size: ByteSize,
    ) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::Broadcast { root }, num_npus, 1, size)
    }

    /// A Reduce into `root` with chunking factor 1.
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn reduce(num_npus: usize, root: NpuId, size: ByteSize) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::Reduce { root }, num_npus, 1, size)
    }

    /// An All-to-All (personalized exchange) over `num_npus` NPUs with
    /// chunking factor 1: NPU `i` starts with a distinct shard for every
    /// peer and ends with every peer's shard addressed to it.
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn all_to_all(num_npus: usize, size: ByteSize) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::AllToAll, num_npus, 1, size)
    }

    /// A Gather of every NPU's shard into `root` with chunking factor 1.
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn gather(num_npus: usize, root: NpuId, size: ByteSize) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::Gather { root }, num_npus, 1, size)
    }

    /// A Scatter of the root's shards to every NPU with chunking factor 1.
    ///
    /// # Errors
    /// See [`Collective::with_chunking`].
    pub fn scatter(num_npus: usize, root: NpuId, size: ByteSize) -> Result<Self, CollectiveError> {
        Self::new(CollectivePattern::Scatter { root }, num_npus, 1, size)
    }

    /// A collective with an explicit chunking factor `k`: owner-based
    /// patterns get `n·k` chunks, All-to-All `n²·k`, rooted patterns `k`.
    ///
    /// # Errors
    /// * [`CollectiveError::TooFewNpus`] for fewer than 2 participants.
    /// * [`CollectiveError::ZeroChunks`] if `k == 0`.
    /// * [`CollectiveError::TooManyChunks`] if the chunk count does not
    ///   fit a chunk id.
    /// * [`CollectiveError::TooLarge`] if `n` times the chunk count
    ///   exceeds [`MAX_NPU_CHUNK_PAIRS`].
    /// * [`CollectiveError::RootOutOfRange`] for an invalid root.
    /// * [`CollectiveError::SizeNotDivisible`] for an empty payload.
    pub fn with_chunking(
        pattern: CollectivePattern,
        num_npus: usize,
        k: usize,
        size: ByteSize,
    ) -> Result<Self, CollectiveError> {
        Self::new(pattern, num_npus, k, size)
    }

    /// The communication pattern.
    pub fn pattern(&self) -> CollectivePattern {
        self.pattern
    }

    /// Number of participating NPUs.
    pub fn num_npus(&self) -> usize {
        self.num_npus
    }

    /// Chunking factor `k`.
    pub fn chunks_per_npu(&self) -> usize {
        self.chunks_per_npu
    }

    /// Total number of chunks in flight.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Size of each chunk.
    pub fn chunk_size(&self) -> ByteSize {
        self.chunk_size
    }

    /// The full per-NPU payload size.
    pub fn total_size(&self) -> ByteSize {
        self.total_size
    }

    /// The NPU that *owns* `chunk`: its initial holder for All-Gather, the
    /// reduction destination for Reduce-Scatter, the root for rooted
    /// patterns.
    pub fn owner(&self, chunk: ChunkId) -> NpuId {
        match self.pattern {
            CollectivePattern::Broadcast { root } | CollectivePattern::Reduce { root } => root,
            CollectivePattern::Scatter { root } => root,
            // All-to-All chunk (src·n + dst)·k + c originates at src.
            CollectivePattern::AllToAll => {
                NpuId::new((chunk.index() / (self.chunks_per_npu * self.num_npus)) as u32)
            }
            _ => NpuId::new((chunk.index() / self.chunks_per_npu) as u32),
        }
    }

    /// For All-to-All, the NPU a chunk is addressed to.
    ///
    /// # Panics
    /// Panics for other patterns.
    pub fn destination(&self, chunk: ChunkId) -> NpuId {
        assert_eq!(
            self.pattern,
            CollectivePattern::AllToAll,
            "destination() is only meaningful for All-to-All"
        );
        NpuId::new(((chunk.index() / self.chunks_per_npu) % self.num_npus) as u32)
    }

    /// The chunk ids owned by `npu` (empty for non-root NPUs of rooted
    /// patterns).
    pub fn chunks_of(&self, npu: NpuId) -> ChunkSet {
        let mut set = ChunkSet::new(self.num_chunks);
        match self.pattern {
            CollectivePattern::Broadcast { root }
            | CollectivePattern::Reduce { root }
            | CollectivePattern::Scatter { root } => {
                if npu == root {
                    set = ChunkSet::full(self.num_chunks);
                }
            }
            CollectivePattern::AllToAll => {
                let base = npu.index() * self.num_npus * self.chunks_per_npu;
                for c in base..base + self.num_npus * self.chunks_per_npu {
                    set.insert(ChunkId::new(c as u32));
                }
            }
            _ => {
                let base = npu.index() * self.chunks_per_npu;
                for c in base..base + self.chunks_per_npu {
                    set.insert(ChunkId::new(c as u32));
                }
            }
        }
        set
    }

    /// Chunks held by `npu` before the collective starts (paper Fig. 7,
    /// "precondition"). For combining patterns this is the set of *partials*
    /// the NPU contributes.
    pub fn precondition(&self, npu: NpuId) -> ChunkSet {
        match self.pattern {
            CollectivePattern::AllGather
            | CollectivePattern::Broadcast { .. }
            | CollectivePattern::AllToAll
            | CollectivePattern::Scatter { .. } => self.chunks_of(npu),
            CollectivePattern::Gather { .. } => {
                // Every NPU starts with its own shard (All-Gather layout).
                let mut set = ChunkSet::new(self.num_chunks);
                let base = npu.index() * self.chunks_per_npu;
                for c in base..base + self.chunks_per_npu {
                    set.insert(ChunkId::new(c as u32));
                }
                set
            }
            CollectivePattern::ReduceScatter
            | CollectivePattern::AllReduce
            | CollectivePattern::Reduce { .. } => ChunkSet::full(self.num_chunks),
        }
    }

    /// Chunks `npu` must hold when the collective completes (paper Fig. 7,
    /// "postcondition").
    pub fn postcondition(&self, npu: NpuId) -> ChunkSet {
        match self.pattern {
            CollectivePattern::AllGather | CollectivePattern::AllReduce => {
                ChunkSet::full(self.num_chunks)
            }
            CollectivePattern::ReduceScatter => self.chunks_of(npu),
            CollectivePattern::Broadcast { .. } => ChunkSet::full(self.num_chunks),
            CollectivePattern::Reduce { root } => {
                if npu == root {
                    ChunkSet::full(self.num_chunks)
                } else {
                    // Non-roots end with nothing: their partials are
                    // consumed by the reduction.
                    ChunkSet::new(self.num_chunks)
                }
            }
            CollectivePattern::Gather { root } => {
                if npu == root {
                    ChunkSet::full(self.num_chunks)
                } else {
                    // Non-roots keep (only) their own shard.
                    self.precondition(npu)
                }
            }
            CollectivePattern::AllToAll => {
                // NPU d must end with chunk (s·n + d)·k + c from every s.
                let mut set = self.precondition(npu);
                let k = self.chunks_per_npu;
                for s in 0..self.num_npus {
                    let base = (s * self.num_npus + npu.index()) * k;
                    for c in base..base + k {
                        set.insert(ChunkId::new(c as u32));
                    }
                }
                set
            }
            CollectivePattern::Scatter { root } => {
                if npu == root {
                    self.precondition(npu)
                } else {
                    let mut set = ChunkSet::new(self.num_chunks);
                    let base = npu.index() * self.chunks_per_npu;
                    for c in base..base + self.chunks_per_npu {
                        set.insert(ChunkId::new(c as u32));
                    }
                    set
                }
            }
        }
    }

    /// The non-combining dual used to synthesize combining collectives on
    /// the reversed topology (paper Fig. 11): Reduce-Scatter ↔ All-Gather,
    /// Reduce ↔ Broadcast.
    ///
    /// Returns `None` for All-Reduce (which decomposes into a
    /// Reduce-Scatter *phase* plus an All-Gather *phase* instead) and for
    /// patterns that are already non-combining.
    pub fn dual(&self) -> Option<Collective> {
        let dual_pattern = match self.pattern {
            CollectivePattern::ReduceScatter => CollectivePattern::AllGather,
            CollectivePattern::Reduce { root } => CollectivePattern::Broadcast { root },
            _ => return None,
        };
        Some(Collective {
            pattern: dual_pattern,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gather_conditions() {
        let c = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        assert_eq!(c.num_chunks(), 4);
        let pre = c.precondition(NpuId::new(1));
        assert_eq!(pre.len(), 1);
        assert!(pre.contains(ChunkId::new(1)));
        assert_eq!(c.postcondition(NpuId::new(1)).len(), 4);
        assert_eq!(c.owner(ChunkId::new(3)), NpuId::new(3));
    }

    #[test]
    fn chunked_all_gather() {
        let c = Collective::with_chunking(CollectivePattern::AllGather, 4, 4, ByteSize::mb(16))
            .unwrap();
        assert_eq!(c.num_chunks(), 16);
        assert_eq!(c.chunk_size(), ByteSize::mb(1));
        let pre = c.precondition(NpuId::new(2));
        assert_eq!(pre.len(), 4);
        assert!(pre.contains(ChunkId::new(8)));
        assert!(pre.contains(ChunkId::new(11)));
        assert_eq!(c.owner(ChunkId::new(11)), NpuId::new(2));
    }

    #[test]
    fn reduce_scatter_conditions() {
        let c = Collective::reduce_scatter(4, ByteSize::mb(4)).unwrap();
        assert_eq!(c.precondition(NpuId::new(0)).len(), 4);
        let post = c.postcondition(NpuId::new(2));
        assert_eq!(post.len(), 1);
        assert!(post.contains(ChunkId::new(2)));
    }

    #[test]
    fn all_reduce_conditions() {
        let c = Collective::all_reduce(4, ByteSize::mb(4)).unwrap();
        assert_eq!(c.precondition(NpuId::new(0)).len(), 4);
        assert_eq!(c.postcondition(NpuId::new(0)).len(), 4);
        assert!(c.pattern().is_combining());
    }

    #[test]
    fn broadcast_and_reduce_conditions() {
        let root = NpuId::new(1);
        let b = Collective::broadcast(4, root, ByteSize::mb(1)).unwrap();
        assert_eq!(b.num_chunks(), 1);
        assert_eq!(b.precondition(root).len(), 1);
        assert!(b.precondition(NpuId::new(0)).is_empty());
        assert_eq!(b.postcondition(NpuId::new(3)).len(), 1);

        let r = Collective::reduce(4, root, ByteSize::mb(1)).unwrap();
        assert_eq!(r.precondition(NpuId::new(0)).len(), 1);
        assert!(r.postcondition(NpuId::new(0)).is_empty());
        assert_eq!(r.postcondition(root).len(), 1);
        assert_eq!(r.owner(ChunkId::new(0)), root);
    }

    #[test]
    fn duals() {
        let rs = Collective::reduce_scatter(4, ByteSize::mb(4)).unwrap();
        let dual = rs.dual().unwrap();
        assert_eq!(dual.pattern(), CollectivePattern::AllGather);
        assert_eq!(dual.num_chunks(), 4);

        let red = Collective::reduce(4, NpuId::new(2), ByteSize::mb(1)).unwrap();
        assert_eq!(
            red.dual().unwrap().pattern(),
            CollectivePattern::Broadcast {
                root: NpuId::new(2)
            }
        );

        assert!(Collective::all_gather(4, ByteSize::mb(1))
            .unwrap()
            .dual()
            .is_none());
        assert!(Collective::all_reduce(4, ByteSize::mb(1))
            .unwrap()
            .dual()
            .is_none());
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            Collective::all_gather(1, ByteSize::mb(1)),
            Err(CollectiveError::TooFewNpus { num_npus: 1 })
        ));
        assert!(matches!(
            Collective::with_chunking(CollectivePattern::AllGather, 4, 0, ByteSize::mb(1)),
            Err(CollectiveError::ZeroChunks)
        ));
        assert!(matches!(
            Collective::broadcast(4, NpuId::new(9), ByteSize::mb(1)),
            Err(CollectiveError::RootOutOfRange {
                root: 9,
                num_npus: 4
            })
        ));
        assert!(matches!(
            Collective::all_gather(4, ByteSize::ZERO),
            Err(CollectiveError::SizeNotDivisible { .. })
        ));
    }

    /// With overflow checks off (release) these products used to wrap:
    /// 8·2^61 to 0 chunks (a division by zero), 8·(2^61+1) to 8 chunks
    /// that 8·(2^61+1) chunk ids were then indexed into.
    #[test]
    fn a_chunk_count_that_overflows_is_an_error_not_a_wrap() {
        let size = ByteSize::mb(1);
        for (pattern, num_npus, k) in [
            (CollectivePattern::AllGather, 8, 1usize << 61),
            (CollectivePattern::AllReduce, 8, (1usize << 61) + 1),
            (CollectivePattern::AllToAll, 1 << 16, 1usize << 32),
            (CollectivePattern::AllToAll, 1 << 20, 1),
            // Fits `usize`, not the `u32` of a chunk id.
            (CollectivePattern::AllGather, 8, 1usize << 29),
            (
                CollectivePattern::Broadcast {
                    root: NpuId::new(0),
                },
                4,
                1usize << 32,
            ),
        ] {
            assert_eq!(
                Collective::with_chunking(pattern, num_npus, k, size),
                Err(CollectiveError::TooManyChunks {
                    num_npus,
                    chunks_per_npu: k
                }),
                "{pattern:?} over {num_npus} NPUs, k = {k}"
            );
        }
        // The largest count a chunk id can number passes this check and
        // meets the size bound instead.
        let k = (u32::MAX / 5) as usize;
        assert_eq!(
            Collective::with_chunking(CollectivePattern::AllGather, 5, k, size),
            Err(CollectiveError::TooLarge {
                pairs: 5 * u64::from(u32::MAX),
                limit: MAX_NPU_CHUNK_PAIRS
            })
        );
    }

    /// A chunk count that fits a chunk id can still ask for absurd
    /// per-(NPU, chunk) state; the bound is inclusive and counts the
    /// pattern's own chunk count.
    #[test]
    fn collectives_over_the_pair_limit_are_rejected_before_allocating() {
        let size = ByteSize::mb(1);
        let at = |pattern, n, k| Collective::with_chunking(pattern, n, k, size);
        assert_eq!(
            at(CollectivePattern::AllGather, 8, 1 << 28),
            Err(CollectiveError::TooLarge {
                pairs: 1 << 34,
                limit: MAX_NPU_CHUNK_PAIRS
            })
        );
        // 32 NPUs × 32·2^15 chunks is exactly the limit.
        assert!(at(CollectivePattern::AllReduce, 32, 1 << 15).is_ok());
        assert!(matches!(
            at(CollectivePattern::AllReduce, 32, (1 << 15) + 1),
            Err(CollectiveError::TooLarge { .. })
        ));
        // All-to-All numbers n²·k chunks; rooted patterns k.
        assert!(at(CollectivePattern::AllToAll, 256, 1).is_ok());
        assert!(matches!(
            at(CollectivePattern::AllToAll, 512, 1),
            Err(CollectiveError::TooLarge { pairs, .. }) if pairs == 1 << 27
        ));
        let root = NpuId::new(0);
        assert!(at(CollectivePattern::Broadcast { root }, 4, 1 << 23).is_ok());
        assert!(at(CollectivePattern::Broadcast { root }, 4, (1 << 23) + 1).is_err());
        // The largest legitimate case known: a 32×32 mesh at k = 16.
        assert!(at(CollectivePattern::AllGather, 1024, 16).is_ok());
    }

    #[test]
    fn all_to_all_conditions() {
        let c = Collective::all_to_all(3, ByteSize::mb(9)).unwrap();
        assert_eq!(c.num_chunks(), 9);
        // Per-NPU buffer = 9 MB over 3 peers: 3 MB shards.
        assert_eq!(c.chunk_size(), ByteSize::mb(3));
        // NPU1 starts with chunks 3..6 (its shards for each peer).
        let pre = c.precondition(NpuId::new(1));
        assert_eq!(pre.len(), 3);
        assert!(pre.contains(ChunkId::new(3)));
        assert!(pre.contains(ChunkId::new(5)));
        // NPU1 must end with chunks addressed to it: 1, 4, 7 (+ its own).
        let post = c.postcondition(NpuId::new(1));
        assert!(post.contains(ChunkId::new(1)));
        assert!(post.contains(ChunkId::new(7)));
        assert_eq!(c.owner(ChunkId::new(7)), NpuId::new(2));
        assert_eq!(c.destination(ChunkId::new(7)), NpuId::new(1));
        assert!(c.dual().is_none());
    }

    #[test]
    fn gather_and_scatter_conditions() {
        let root = NpuId::new(0);
        let g = Collective::gather(4, root, ByteSize::mb(4)).unwrap();
        assert_eq!(g.num_chunks(), 4);
        assert_eq!(g.precondition(NpuId::new(2)).len(), 1);
        assert_eq!(g.postcondition(root).len(), 4);
        // Non-roots keep only their own shard.
        assert_eq!(g.postcondition(NpuId::new(2)).len(), 1);

        let s = Collective::scatter(4, root, ByteSize::mb(4)).unwrap();
        assert_eq!(s.precondition(root).len(), 4);
        assert!(s.precondition(NpuId::new(1)).is_empty());
        let post = s.postcondition(NpuId::new(3));
        assert_eq!(post.len(), 1);
        assert!(post.contains(ChunkId::new(3)));
        assert_eq!(s.owner(ChunkId::new(3)), root);
    }

    #[test]
    #[should_panic(expected = "only meaningful for All-to-All")]
    fn destination_panics_for_other_patterns() {
        let c = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        let _ = c.destination(ChunkId::new(0));
    }

    #[test]
    fn tiny_payload_gets_ceil_chunks() {
        // 1 KB over 128 NPUs (Fig. 2b): 8-byte chunks via ceiling division.
        let c = Collective::all_reduce(128, ByteSize::kb(1)).unwrap();
        assert_eq!(c.chunk_size(), ByteSize::bytes(8));
    }
}
