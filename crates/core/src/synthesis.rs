//! End-to-end TACOS synthesis (paper Alg. 2, Figs. 9–11).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use tacos_collective::algorithm::{AlgorithmBuilder, CollectiveAlgorithm, TransferId};
use tacos_collective::{Collective, CollectivePattern};
use tacos_ten::ExpandingTen;
use tacos_topology::{NpuId, Time, Topology};

use crate::config::SynthesizerConfig;
use crate::error::SynthesisError;
use crate::matching::RelayInfo;
use crate::scratch::SynthesisScratch;

/// Outcome of one synthesis: the algorithm plus search statistics.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    algorithm: CollectiveAlgorithm,
    collective_time: Time,
    synthesis_duration: Duration,
    rounds: usize,
    num_transfers: u64,
    seed: u64,
}

impl SynthesisResult {
    /// The synthesized collective algorithm (empty if transfer recording
    /// was disabled via
    /// [`SynthesizerConfig::with_record_transfers`]).
    pub fn algorithm(&self) -> &CollectiveAlgorithm {
        &self.algorithm
    }

    /// Consumes the result, yielding the algorithm.
    pub fn into_algorithm(self) -> CollectiveAlgorithm {
        self.algorithm
    }

    /// Predicted collective completion time.
    pub fn collective_time(&self) -> Time {
        self.collective_time
    }

    /// Wall-clock time the synthesis took (for a best-of-N search, the
    /// whole search).
    pub fn synthesis_duration(&self) -> Duration {
        self.synthesis_duration
    }

    /// Number of matching rounds (TEN time columns) executed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of link–chunk matches made (counted even when transfer
    /// recording is disabled).
    pub fn num_transfers(&self) -> u64 {
        self.num_transfers
    }

    /// The RNG seed that produced this result.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Achieved collective bandwidth: payload / completion time (the
    /// paper's evaluation metric).
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        CollectiveAlgorithm::bandwidth_for(self.algorithm.total_size(), self.collective_time)
    }
}

/// The TACOS synthesizer (paper Fig. 3b): expands a TEN over the target
/// topology and repeatedly runs utilization-maximizing matching until the
/// collective's postconditions hold.
///
/// ```
/// use tacos_core::{Synthesizer, SynthesizerConfig};
/// use tacos_collective::Collective;
/// use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
/// let mesh = Topology::mesh_2d(3, 3, spec)?;
/// let coll = Collective::all_gather(9, ByteSize::mb(9))?;
/// let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(42));
/// let result = synth.synthesize(&mesh, &coll)?;
/// assert!(result.algorithm().validate_contention_free().is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    config: SynthesizerConfig,
}

impl Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthesizerConfig) -> Self {
        Synthesizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesizerConfig {
        &self.config
    }

    /// Synthesizes a topology-aware collective algorithm for `collective`
    /// on `topo`.
    ///
    /// Dispatch (paper §IV-E):
    /// * All-Gather / Broadcast / All-to-All / Gather / Scatter — direct
    ///   matching synthesis (non-combining).
    /// * Reduce-Scatter / Reduce — synthesize the non-combining dual on the
    ///   reversed topology, then reverse time (Fig. 11).
    /// * All-Reduce — Reduce-Scatter phase followed by All-Gather phase.
    ///
    /// When [`SynthesizerConfig::attempts`] > 1 this runs that many
    /// independent randomized searches (in parallel) and returns the one
    /// with the smallest collective time.
    ///
    /// # Errors
    /// * [`SynthesisError::NpuCountMismatch`] if sizes disagree.
    /// * [`SynthesisError::Stuck`] if the topology is not strongly
    ///   connected.
    pub fn synthesize(
        &self,
        topo: &Topology,
        collective: &Collective,
    ) -> Result<SynthesisResult, SynthesisError> {
        self.synthesize_with(topo, collective, &mut SynthesisScratch::new())
    }

    /// [`Synthesizer::synthesize`] with caller-provided working memory.
    ///
    /// Callers looping over many syntheses (scenario sweeps, services)
    /// keep one [`SynthesisScratch`] per worker thread so repeated
    /// attempts reuse the matching matrix, TEN, and event buffers instead
    /// of reallocating them. Results are identical either way. When
    /// [`SynthesizerConfig::attempts`] > 1 the best-of search scores its
    /// attempts unrecorded, on the calling thread (with `scratch`) and on
    /// worker threads with their own scratch; when the config records
    /// transfers, `scratch` then replays the winning seed with recording
    /// on. [`SynthesisResult::synthesis_duration`] covers the whole
    /// search.
    ///
    /// # Errors
    /// See [`Synthesizer::synthesize`].
    pub fn synthesize_with(
        &self,
        topo: &Topology,
        collective: &Collective,
        scratch: &mut SynthesisScratch,
    ) -> Result<SynthesisResult, SynthesisError> {
        if topo.num_npus() != collective.num_npus() {
            return Err(SynthesisError::NpuCountMismatch {
                topology: topo.num_npus(),
                collective: collective.num_npus(),
            });
        }
        if self.config.attempts() == 1 {
            return self.synthesize_seeded_with(topo, collective, self.config.seed(), scratch);
        }
        let started = Instant::now();
        let mut result = crate::parallel::synthesize_best_of(self, topo, collective, scratch)?;
        result.synthesis_duration = started.elapsed();
        Ok(result)
    }

    /// One randomized synthesis with an explicit seed (deterministic).
    ///
    /// # Errors
    /// See [`Synthesizer::synthesize`].
    pub fn synthesize_seeded(
        &self,
        topo: &Topology,
        collective: &Collective,
        seed: u64,
    ) -> Result<SynthesisResult, SynthesisError> {
        self.synthesize_seeded_with(topo, collective, seed, &mut SynthesisScratch::new())
    }

    /// [`Synthesizer::synthesize_seeded`] with caller-provided working
    /// memory (see [`Synthesizer::synthesize_with`]). Deterministic: the
    /// result does not depend on the scratch's history.
    ///
    /// # Errors
    /// See [`Synthesizer::synthesize`].
    pub fn synthesize_seeded_with(
        &self,
        topo: &Topology,
        collective: &Collective,
        seed: u64,
        scratch: &mut SynthesisScratch,
    ) -> Result<SynthesisResult, SynthesisError> {
        let started = Instant::now();
        let mut result = match collective.pattern() {
            CollectivePattern::AllGather
            | CollectivePattern::Broadcast { .. }
            | CollectivePattern::AllToAll
            | CollectivePattern::Gather { .. }
            | CollectivePattern::Scatter { .. } => {
                self.synthesize_gather("tacos", topo, collective, seed, scratch)?
            }
            CollectivePattern::ReduceScatter | CollectivePattern::Reduce { .. } => {
                self.synthesize_combining(topo, collective, seed, scratch)?
            }
            CollectivePattern::AllReduce => {
                self.synthesize_all_reduce(topo, collective, seed, scratch)?
            }
        };
        result.synthesis_duration = started.elapsed();
        result.seed = seed;
        Ok(result)
    }

    /// Direct matching synthesis for non-combining patterns (Alg. 2).
    fn synthesize_gather(
        &self,
        name: &str,
        topo: &Topology,
        collective: &Collective,
        seed: u64,
        scratch: &mut SynthesisScratch,
    ) -> Result<SynthesisResult, SynthesisError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = self.config.record_transfers();
        let reference = self.config.reference_matching();
        let targets = sparse_targets(collective);
        let SynthesisScratch {
            state,
            ten,
            events,
            relay: relay_cache,
        } = scratch;
        state.reset(topo, collective, record, targets.is_some(), reference);
        // Sparse-postcondition patterns need relay routing through
        // disinterested intermediates (see matching::RelayInfo). The BFS
        // distance tables only depend on topology + targets, so best-of-N
        // attempts reuse them through the scratch.
        if let Some(targets) = targets {
            let relay = match relay_cache.take() {
                Some(r) if r.matches(topo, &targets) => r,
                _ => RelayInfo::new(topo, targets),
            };
            state.enable_relay(relay);
        }
        let ten = match ten {
            Some(t) => {
                t.reset(topo, collective.chunk_size());
                t
            }
            None => ten.insert(ExpandingTen::new(topo, collective.chunk_size())),
        };
        let mut builder = record.then(|| {
            let mut b = AlgorithmBuilder::new(
                name,
                topo.num_npus(),
                collective.chunk_size(),
                collective.total_size(),
            );
            // Every unsatisfied postcondition needs at least one transfer
            // (relay hops add more), so reserving here removes almost all
            // of the transfer list's doubling-growth copies — at mesh
            // scale the final list runs to hundreds of megabytes.
            b.reserve_transfers(state.unsatisfied());
            b
        });
        let mut rounds = 0usize;
        let mut num_transfers = 0u64;
        loop {
            if reference {
                state.run_round_reference(
                    topo,
                    ten,
                    &mut rng,
                    self.config.prefer_cheap_links(),
                    builder.as_mut(),
                    &mut num_transfers,
                );
            } else {
                state.run_round(
                    topo,
                    ten,
                    &mut rng,
                    self.config.prefer_cheap_links(),
                    builder.as_mut(),
                    &mut num_transfers,
                );
            }
            rounds += 1;
            if state.unsatisfied() == 0 && ten.pending() == 0 {
                break;
            }
            // Expand the TEN by one time column (Alg. 2's `t <- t + 1`).
            ten.advance_into(events);
            if events.is_empty() {
                return Err(SynthesisError::Stuck {
                    unsatisfied: state.unsatisfied(),
                });
            }
            for arrival in events.iter() {
                state.apply_arrival(topo, arrival);
            }
        }
        let collective_time = ten.now();
        // Hand relay metadata back for the next attempt; dense patterns
        // have none and must not wipe a cache a sparse pattern built.
        if let Some(relay) = state.take_relay() {
            *relay_cache = Some(relay);
        }
        let algorithm = match builder {
            Some(mut b) => {
                b.planned_time(collective_time);
                b.build()
            }
            None => {
                let mut b = AlgorithmBuilder::new(
                    name,
                    topo.num_npus(),
                    collective.chunk_size(),
                    collective.total_size(),
                );
                b.planned_time(collective_time);
                b.build()
            }
        };
        Ok(SynthesisResult {
            algorithm,
            collective_time,
            synthesis_duration: Duration::ZERO,
            rounds,
            num_transfers,
            seed,
        })
    }
}

/// Per-chunk final destinations for sparse-postcondition patterns, `None`
/// for the dense patterns the paper covers.
fn sparse_targets(collective: &Collective) -> Option<Vec<u32>> {
    let k = collective.chunks_per_npu();
    match collective.pattern() {
        CollectivePattern::AllToAll => Some(
            (0..collective.num_chunks())
                .map(|c| {
                    collective
                        .destination(tacos_collective::ChunkId::new(c as u32))
                        .raw()
                })
                .collect(),
        ),
        CollectivePattern::Gather { root } => Some(vec![root.raw(); collective.num_chunks()]),
        CollectivePattern::Scatter { .. } => Some(
            (0..collective.num_chunks())
                .map(|c| (c / k) as u32)
                .collect(),
        ),
        _ => None,
    }
}

impl Synthesizer {
    /// Combining collectives via reversal (paper Fig. 11): synthesize the
    /// dual on the reversed topology, then reverse the result in time.
    fn synthesize_combining(
        &self,
        topo: &Topology,
        collective: &Collective,
        seed: u64,
        scratch: &mut SynthesisScratch,
    ) -> Result<SynthesisResult, SynthesisError> {
        let dual = collective
            .dual()
            .expect("combining patterns other than All-Reduce have duals");
        let reversed_topo = topo.reversed();
        let mut result =
            self.synthesize_gather("tacos-dual", &reversed_topo, &dual, seed, scratch)?;
        if self.config.record_transfers() {
            result.algorithm = result.algorithm.time_reversed("tacos");
        }
        Ok(result)
    }

    /// All-Reduce: a Reduce-Scatter phase followed by an All-Gather phase
    /// (paper §IV-E). Both phases are synthesized independently; the
    /// All-Gather phase's initial sends depend on the Reduce-Scatter
    /// completing the corresponding chunk at its owner.
    fn synthesize_all_reduce(
        &self,
        topo: &Topology,
        collective: &Collective,
        seed: u64,
        scratch: &mut SynthesisScratch,
    ) -> Result<SynthesisResult, SynthesisError> {
        let rs_coll = Collective::with_chunking(
            CollectivePattern::ReduceScatter,
            collective.num_npus(),
            collective.chunks_per_npu(),
            collective.total_size(),
        )?;
        let ag_coll = Collective::with_chunking(
            CollectivePattern::AllGather,
            collective.num_npus(),
            collective.chunks_per_npu(),
            collective.total_size(),
        )?;
        let rs = self.synthesize_combining(topo, &rs_coll, seed, scratch)?;
        let ag =
            self.synthesize_gather("tacos-ag", topo, &ag_coll, seed.wrapping_add(1), scratch)?;
        let total_time = rs.collective_time + ag.collective_time;

        if !self.config.record_transfers() {
            let mut b = AlgorithmBuilder::new(
                "tacos",
                topo.num_npus(),
                collective.chunk_size(),
                collective.total_size(),
            );
            b.planned_time(total_time);
            return Ok(SynthesisResult {
                algorithm: b.build(),
                collective_time: total_time,
                synthesis_duration: Duration::ZERO,
                rounds: rs.rounds + ag.rounds,
                num_transfers: rs.num_transfers + ag.num_transfers,
                seed,
            });
        }

        let rs_algo = rs.algorithm();
        let ag_algo = ag.algorithm();
        let rs_time = rs.collective_time;
        let mut b = AlgorithmBuilder::new(
            "tacos",
            topo.num_npus(),
            collective.chunk_size(),
            collective.total_size(),
        );
        // Phase 1: Reduce-Scatter, as scheduled.
        for t in rs_algo.transfers() {
            b.push_scheduled(
                t.chunk(),
                t.src(),
                t.dst(),
                t.kind(),
                t.link().expect("recorded algorithms are scheduled"),
                t.start().expect("recorded algorithms are scheduled"),
                t.duration().expect("recorded algorithms are scheduled"),
                t.deps(),
            );
        }
        // Barrier dependencies: the All-Gather send of chunk `c` out of its
        // owner requires every Reduce-Scatter transfer delivering a partial
        // of `c` into the owner to have completed.
        let owner_of = |chunk: tacos_collective::ChunkId| -> NpuId { collective.owner(chunk) };
        let rs_finishers: Vec<Vec<TransferId>> = {
            let mut map = vec![Vec::new(); collective.num_chunks()];
            for (i, t) in rs_algo.transfers().iter().enumerate() {
                if t.dst() == owner_of(t.chunk()) {
                    map[t.chunk().index()].push(TransferId::new(i as u32));
                }
            }
            map
        };
        // Phase 2: All-Gather, shifted by the Reduce-Scatter's duration.
        let offset = rs_algo.len() as u32;
        for t in ag_algo.transfers() {
            let mut deps = tacos_collective::algorithm::DepList::new();
            for d in t.deps() {
                deps.push(TransferId::new(d.index() as u32 + offset));
            }
            if t.deps().is_empty() {
                // Initial send out of the owner: wait for the reduction.
                for &f in &rs_finishers[t.chunk().index()] {
                    deps.push(f);
                }
            }
            b.push_scheduled(
                t.chunk(),
                t.src(),
                t.dst(),
                t.kind(),
                t.link().expect("recorded algorithms are scheduled"),
                t.start().expect("recorded algorithms are scheduled") + rs_time,
                t.duration().expect("recorded algorithms are scheduled"),
                deps,
            );
        }
        b.planned_time(total_time);
        Ok(SynthesisResult {
            algorithm: b.build(),
            collective_time: total_time,
            synthesis_duration: Duration::ZERO,
            rounds: rs.rounds + ag.rounds,
            num_transfers: rs.num_transfers + ag.num_transfers,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_collective::algorithm::TransferKind;
    use tacos_collective::ChunkId;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, RingOrientation, Time, TopologyBuilder};

    fn spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    fn synth() -> Synthesizer {
        Synthesizer::new(SynthesizerConfig::default().with_seed(7))
    }

    fn step(chunk: ByteSize) -> Time {
        spec().cost(chunk)
    }

    /// Paper Fig. 10(a): All-Gather on FullyConnected(4) completes in one
    /// time span (the Direct algorithm), for any seed — every match is
    /// forced.
    #[test]
    fn fig10a_fully_connected_one_step() {
        let topo = Topology::fully_connected(4, spec()).unwrap();
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        for seed in 0..5 {
            let r = synth().synthesize_seeded(&topo, &coll, seed).unwrap();
            assert_eq!(r.collective_time(), step(ByteSize::mb(1)), "seed {seed}");
            assert_eq!(r.algorithm().len(), 12);
        }
    }

    /// Paper Fig. 10(b): All-Gather on a bidirectional 4-ring completes in
    /// two time spans.
    #[test]
    fn fig10b_bidirectional_ring_two_steps() {
        let topo = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        for seed in 0..5 {
            let r = synth().synthesize_seeded(&topo, &coll, seed).unwrap();
            assert_eq!(
                r.collective_time(),
                step(ByteSize::mb(1)) * 2,
                "seed {seed}"
            );
        }
    }

    /// Paper Fig. 10(c)/Fig. 9: All-Gather on an asymmetric 4-NPU topology
    /// with 6 links completes in three time spans (best-of search reaches
    /// the optimum; the bottleneck NPU has a single incoming link and
    /// needs 3 chunks).
    #[test]
    fn fig10c_asymmetric_three_steps() {
        let mut b = TopologyBuilder::new("fig10c");
        b.npus(4);
        let n = |i: u32| tacos_topology::NpuId::new(i);
        b.bidi_link(n(0), n(1), spec());
        b.bidi_link(n(0), n(2), spec());
        b.link(n(2), n(3), spec());
        b.link(n(3), n(1), spec());
        let topo = b.build().unwrap();
        assert_eq!(topo.num_links(), 6);
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        let best = Synthesizer::new(SynthesizerConfig::default().with_seed(1).with_attempts(16));
        let r = best.synthesize(&topo, &coll).unwrap();
        assert_eq!(r.collective_time(), step(ByteSize::mb(1)) * 3);
        assert!(r.algorithm().validate_contention_free().is_ok());
        assert!(r.algorithm().validate_causal().is_ok());
    }

    /// Paper Fig. 10(d)/Fig. 7: All-Gather on a unidirectional 4-ring takes
    /// n-1 = 3 time spans with every TEN edge matched.
    #[test]
    fn fig10d_unidirectional_ring_n_minus_one_steps() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        assert_eq!(r.collective_time(), step(ByteSize::mb(1)) * 3);
        // 4 links x 3 steps, all matched (maximal utilization, Fig. 7b).
        assert_eq!(r.algorithm().len(), 12);
    }

    #[test]
    fn all_gather_satisfies_postconditions() {
        let topo = Topology::mesh_2d(3, 3, spec()).unwrap();
        let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        let algo = r.algorithm();
        // Replay arrivals: every NPU must end up with all chunks.
        let mut holds: Vec<std::collections::HashSet<u32>> = (0..9)
            .map(|i| std::collections::HashSet::from([i as u32]))
            .collect();
        let mut transfers: Vec<_> = algo.transfers().iter().collect();
        transfers.sort_by_key(|t| t.start());
        for t in transfers {
            assert!(
                holds[t.src().index()].contains(&t.chunk().raw()),
                "chunk sent before held"
            );
            holds[t.dst().index()].insert(t.chunk().raw());
        }
        for h in &holds {
            assert_eq!(h.len(), 9);
        }
    }

    /// Reduce-Scatter via reversal (paper Fig. 11): every transfer is a
    /// Reduce, and for each chunk the transfer set forms an in-tree
    /// spanning all NPUs rooted at the chunk's owner.
    #[test]
    fn reduce_scatter_reversal_builds_spanning_in_trees() {
        let topo = Topology::mesh_2d(2, 3, spec()).unwrap();
        let coll = Collective::reduce_scatter(6, ByteSize::mb(6)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        let algo = r.algorithm();
        assert!(algo.validate_contention_free().is_ok());
        assert!(algo.validate_causal().is_ok());
        assert!(tacos_collective::algorithm::validate_links(algo, &topo).is_ok());
        for t in algo.transfers() {
            assert_eq!(t.kind(), TransferKind::Reduce);
        }
        for chunk in 0..6u32 {
            let owner = coll.owner(ChunkId::new(chunk));
            let hops: Vec<_> = algo
                .transfers()
                .iter()
                .filter(|t| t.chunk() == ChunkId::new(chunk))
                .collect();
            // n-1 = 5 reduction hops per chunk: each non-owner sends its
            // partial exactly once.
            assert_eq!(hops.len(), 5, "chunk {chunk}");
            let mut sent = std::collections::HashSet::new();
            for h in &hops {
                assert!(sent.insert(h.src()), "NPU sent partial twice");
                assert_ne!(h.src(), owner, "owner must not send its own chunk");
            }
        }
    }

    /// All-Reduce = Reduce-Scatter phase + All-Gather phase; on a
    /// unidirectional ring this reproduces the classic 2(n-1)-step Ring
    /// All-Reduce.
    #[test]
    fn all_reduce_on_ring_is_two_n_minus_one_steps() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let coll = Collective::all_reduce(4, ByteSize::mb(4)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        assert_eq!(r.collective_time(), step(ByteSize::mb(1)) * 6);
        let algo = r.algorithm();
        assert!(algo.validate_contention_free().is_ok());
        assert!(algo.validate_causal().is_ok());
        // RS: 12 reduce hops; AG: 12 copy hops.
        let reduces = algo
            .transfers()
            .iter()
            .filter(|t| t.kind() == TransferKind::Reduce)
            .count();
        let copies = algo
            .transfers()
            .iter()
            .filter(|t| t.kind() == TransferKind::Copy)
            .count();
        assert_eq!((reduces, copies), (12, 12));
    }

    /// Broadcast and Reduce synthesis on an asymmetric topology.
    #[test]
    fn broadcast_and_reduce() {
        let topo = Topology::mesh_2d(2, 2, spec()).unwrap();
        let root = tacos_topology::NpuId::new(0);
        let bcast = Collective::broadcast(4, root, ByteSize::mb(1)).unwrap();
        let r = synth().synthesize(&topo, &bcast).unwrap();
        // One chunk reaching 3 NPUs over a 2x2 mesh: 2 steps (diameter).
        assert_eq!(r.collective_time(), step(ByteSize::mb(1)) * 2);
        assert_eq!(r.algorithm().len(), 3);

        let red = Collective::reduce(4, root, ByteSize::mb(1)).unwrap();
        let r = synth().synthesize(&topo, &red).unwrap();
        assert_eq!(r.collective_time(), step(ByteSize::mb(1)) * 2);
        for t in r.algorithm().transfers() {
            assert_eq!(t.kind(), TransferKind::Reduce);
        }
    }

    /// Chunked collectives overlap chunks across time spans.
    #[test]
    fn chunking_overlaps() {
        let topo = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        let coll1 = Collective::all_gather(4, ByteSize::mb(8)).unwrap();
        let coll4 = Collective::with_chunking(
            tacos_collective::CollectivePattern::AllGather,
            4,
            4,
            ByteSize::mb(8),
        )
        .unwrap();
        let best = Synthesizer::new(SynthesizerConfig::default().with_seed(3).with_attempts(8));
        let t1 = best.synthesize(&topo, &coll1).unwrap().collective_time();
        let t4 = best.synthesize(&topo, &coll4).unwrap().collective_time();
        // Finer chunks pipeline better on the α-small/β-large regime.
        assert!(t4 < t1, "chunked {t4} should beat unchunked {t1}");
    }

    #[test]
    fn mismatched_sizes_rejected() {
        let topo = Topology::mesh_2d(2, 2, spec()).unwrap();
        let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
        assert!(matches!(
            synth().synthesize(&topo, &coll),
            Err(SynthesisError::NpuCountMismatch {
                topology: 4,
                collective: 9
            })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = Topology::mesh_2d(3, 3, spec()).unwrap();
        let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
        let a = synth().synthesize_seeded(&topo, &coll, 11).unwrap();
        let b = synth().synthesize_seeded(&topo, &coll, 11).unwrap();
        assert_eq!(a.algorithm(), b.algorithm());
        assert_eq!(a.num_transfers(), b.num_transfers());
    }

    #[test]
    fn record_transfers_off_keeps_time() {
        let topo = Topology::mesh_2d(3, 3, spec()).unwrap();
        let coll = Collective::all_reduce(9, ByteSize::mb(9)).unwrap();
        let with = synth().synthesize_seeded(&topo, &coll, 5).unwrap();
        let without = Synthesizer::new(SynthesizerConfig::default().with_record_transfers(false))
            .synthesize_seeded(&topo, &coll, 5)
            .unwrap();
        assert_eq!(with.collective_time(), without.collective_time());
        assert_eq!(with.num_transfers(), without.num_transfers());
        assert!(without.algorithm().is_empty());
        assert_eq!(
            without.algorithm().planned_time(),
            Some(without.collective_time())
        );
    }

    /// Heterogeneous prioritization (paper §IV-F): with a fast and a slow
    /// parallel path, preferring cheap links must not be slower.
    #[test]
    fn heterogeneous_prefers_fast_links() {
        let fast = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(100.0));
        let slow = LinkSpec::new(Time::from_micros(1.0), Bandwidth::gbps(10.0));
        let mut b = TopologyBuilder::new("hetero");
        b.npus(2);
        let n = |i: u32| tacos_topology::NpuId::new(i);
        b.link(n(0), n(1), fast);
        b.link(n(0), n(1), slow);
        b.link(n(1), n(0), fast);
        b.link(n(1), n(0), slow);
        let topo = b.build().unwrap();
        let coll = Collective::all_gather(2, ByteSize::mb(2)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        // Single chunk each way: must take the fast link (10.5 us), not the
        // slow one (101 us).
        assert_eq!(r.collective_time(), fast.cost(ByteSize::mb(1)));
    }
}

#[cfg(test)]
mod extended_pattern_tests {
    use super::*;
    use tacos_collective::ChunkId;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, RingOrientation};

    fn spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    fn synth() -> Synthesizer {
        Synthesizer::new(SynthesizerConfig::default().with_seed(9).with_attempts(4))
    }

    /// All-to-All on FullyConnected completes in one time span: every
    /// shard has a dedicated link.
    #[test]
    fn all_to_all_on_fc_is_one_step() {
        let topo = Topology::fully_connected(4, spec()).unwrap();
        let coll = Collective::all_to_all(4, ByteSize::mb(4)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        assert_eq!(r.collective_time(), spec().cost(ByteSize::mb(1)));
        assert_eq!(r.algorithm().len(), 12);
    }

    /// All-to-All delivery: every destination receives exactly the shards
    /// addressed to it, from the correct sources.
    #[test]
    fn all_to_all_delivers_addressed_shards() {
        let topo = Topology::mesh_2d(2, 2, spec()).unwrap();
        let coll = Collective::all_to_all(4, ByteSize::mb(16)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        let algo = r.algorithm();
        assert!(algo.validate_contention_free().is_ok());
        // Replay arrivals.
        let mut holds: Vec<std::collections::HashSet<u32>> = (0..4)
            .map(|i| {
                let base = (i * 4) as u32;
                (base..base + 4).collect()
            })
            .collect();
        let mut transfers: Vec<_> = algo.transfers().iter().collect();
        transfers.sort_by_key(|t| t.start());
        for t in transfers {
            assert!(holds[t.src().index()].contains(&t.chunk().raw()));
            holds[t.dst().index()].insert(t.chunk().raw());
        }
        for d in 0..4u32 {
            for s in 0..4u32 {
                let chunk = s * 4 + d;
                assert!(
                    holds[d as usize].contains(&chunk),
                    "NPU{d} missing shard from NPU{s}"
                );
            }
        }
    }

    /// Gather pulls every shard into the root over a ring in n-1 spans.
    #[test]
    fn gather_on_uni_ring() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let root = NpuId::new(0);
        let coll = Collective::gather(4, root, ByteSize::mb(4)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        // Farthest shard (NPU1's, 3 hops from 0 on the one-way ring)
        // bounds the time.
        assert_eq!(r.collective_time(), spec().cost(ByteSize::mb(1)) * 3);
        // Every transfer flows toward the root; root never sends.
        for t in r.algorithm().transfers() {
            assert_ne!(t.src(), root);
        }
    }

    /// Scatter distributes the root's shards; only needed shards move.
    #[test]
    fn scatter_on_fc_is_one_step() {
        let topo = Topology::fully_connected(4, spec()).unwrap();
        let root = NpuId::new(2);
        let coll = Collective::scatter(4, root, ByteSize::mb(4)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        assert_eq!(r.collective_time(), spec().cost(ByteSize::mb(1)));
        assert_eq!(r.algorithm().len(), 3);
        for t in r.algorithm().transfers() {
            assert_eq!(t.src(), root);
            assert_eq!(t.chunk(), ChunkId::new(t.dst().raw()));
        }
    }

    /// Scatter on a ring must route distinct shards progressively.
    #[test]
    fn scatter_respects_topology() {
        let topo = Topology::ring(6, spec(), RingOrientation::Bidirectional).unwrap();
        let coll = Collective::scatter(6, NpuId::new(0), ByteSize::mb(6)).unwrap();
        let r = synth().synthesize(&topo, &coll).unwrap();
        assert!(r.algorithm().validate_contention_free().is_ok());
        assert!(r.algorithm().validate_causal().is_ok());
        // The farthest NPU (3 hops) bounds the time.
        assert!(r.collective_time() >= spec().cost(ByteSize::mb(1)) * 3);
    }
}
