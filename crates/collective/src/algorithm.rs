//! The collective-algorithm intermediate representation (IR).
//!
//! A [`CollectiveAlgorithm`] is the common output format of the TACOS
//! synthesizer and of every baseline generator, and the common input format
//! of the congestion-aware simulator. It is a DAG of [`Transfer`]s:
//!
//! * **Scheduled** transfers (TACOS output) carry a `start`/`duration` and a
//!   concrete physical [`LinkId`]; by construction they are contention-free
//!   ([`CollectiveAlgorithm::validate_contention_free`]).
//! * **Dependency-driven** transfers (baseline output) carry only `deps`;
//!   the simulator resolves link contention (FCFS) and routes multi-hop
//!   sends — that is how a topology-unaware algorithm exhibits the
//!   over/undersubscription of paper Figs. 1–2.

use std::collections::HashMap;
use std::fmt;

use tacos_topology::{ByteSize, LinkId, NpuId, Time, Topology};

use crate::chunk::ChunkId;

/// Identifies a transfer within one [`CollectiveAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(u32);

impl TransferId {
    /// Creates a transfer id from its dense index.
    pub const fn new(index: u32) -> Self {
        TransferId(index)
    }

    /// The dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A transfer's dependency list, inline up to two entries.
///
/// Dependency lists are overwhelmingly 0–2 entries long: a scheduled
/// TACOS transfer depends on at most the transfer that delivered its
/// chunk to the source, or, for an All-Gather phase's first send, the
/// Reduce-Scatter transfers that finished reducing the chunk. Storing
/// those inline means the recording path allocates **per spilled list**
/// (rare), not per transfer — the dominant allocation of large syntheses
/// before this type existed. Longer lists (baseline generators with
/// fan-in dependencies) spill to an ordinary heap vector.
#[derive(Debug, Clone, PartialEq)]
pub enum DepList {
    /// Up to two dependencies, no heap.
    Inline {
        /// The entries; only `buf[..len]` is meaningful.
        buf: [TransferId; 2],
        /// Number of live entries (0..=2).
        len: u8,
    },
    /// Three or more dependencies.
    Spilled(Vec<TransferId>),
}

impl DepList {
    /// The empty list.
    pub const fn new() -> Self {
        DepList::Inline {
            buf: [TransferId::new(0); 2],
            len: 0,
        }
    }

    /// The dependencies as a slice.
    pub fn as_slice(&self) -> &[TransferId] {
        match self {
            DepList::Inline { buf, len } => &buf[..*len as usize],
            DepList::Spilled(v) => v,
        }
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` if there are no dependencies.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a dependency, spilling to the heap on the third entry.
    pub fn push(&mut self, id: TransferId) {
        match self {
            DepList::Inline { buf, len } => {
                if (*len as usize) < buf.len() {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(4);
                    v.extend_from_slice(&buf[..]);
                    v.push(id);
                    *self = DepList::Spilled(v);
                }
            }
            DepList::Spilled(v) => v.push(id),
        }
    }
}

impl Default for DepList {
    fn default() -> Self {
        DepList::new()
    }
}

impl From<Vec<TransferId>> for DepList {
    fn from(v: Vec<TransferId>) -> Self {
        match v[..] {
            [] => DepList::new(),
            [a] => DepList::Inline {
                buf: [a, TransferId::new(0)],
                len: 1,
            },
            [a, b] => DepList::Inline {
                buf: [a, b],
                len: 2,
            },
            _ => DepList::Spilled(v),
        }
    }
}

impl From<Option<TransferId>> for DepList {
    fn from(dep: Option<TransferId>) -> Self {
        let mut deps = DepList::new();
        if let Some(id) = dep {
            deps.push(id);
        }
        deps
    }
}

impl From<&[TransferId]> for DepList {
    fn from(ids: &[TransferId]) -> Self {
        match *ids {
            [] => DepList::new(),
            [a] => DepList::Inline {
                buf: [a, TransferId::new(0)],
                len: 1,
            },
            [a, b] => DepList::Inline {
                buf: [a, b],
                len: 2,
            },
            _ => DepList::Spilled(ids.to_vec()),
        }
    }
}

impl<const N: usize> From<[TransferId; N]> for DepList {
    fn from(ids: [TransferId; N]) -> Self {
        let mut deps = DepList::new();
        for id in ids {
            deps.push(id);
        }
        deps
    }
}

/// Whether a transfer copies data or combines it into the destination's
/// accumulator (the red vs. blue arrows of paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Forwarding: the destination stores the chunk as-is.
    Copy,
    /// Reduction: the destination adds the incoming partial to its local
    /// partial of the same chunk.
    Reduce,
}

/// One message moving across one (logical) hop: `count` consecutive base
/// chunks starting at `chunk`.
///
/// TACOS always moves single chunks (`count == 1`); baseline algorithms
/// like RHD or BlueConnect aggregate many base chunks into one message per
/// step, which the simulator costs as `α + β·(count · chunk_size)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    chunk: ChunkId,
    count: u32,
    src: NpuId,
    dst: NpuId,
    kind: TransferKind,
    // Compact schedule encoding: `Option<Time>` costs 16 bytes per field
    // and `Option<LinkId>` 8, but mesh-scale syntheses record tens of
    // millions of transfers, so the unscheduled case is a sentinel
    // instead (`u32::MAX` link / `u64::MAX` picoseconds — over 200 days,
    // unreachable for a schedule). This keeps `Transfer` at 64 bytes
    // (down from 88); the accessors below still speak `Option`.
    link: u32,
    start_ps: u64,
    duration_ps: u64,
    deps: DepList,
}

/// Sentinel for "no physical link chosen" in [`Transfer::link`].
const NO_LINK_RAW: u32 = u32::MAX;
/// Sentinel for "unscheduled" in [`Transfer::start`]/[`Transfer::duration`].
const NO_TIME_PS: u64 = u64::MAX;

impl Transfer {
    /// The first base chunk of the message.
    pub fn chunk(&self) -> ChunkId {
        self.chunk
    }

    /// Number of base chunks aggregated into this message.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Message payload given the algorithm's base chunk size.
    pub fn payload(&self, chunk_size: ByteSize) -> ByteSize {
        chunk_size * u64::from(self.count)
    }

    /// Sending NPU.
    pub fn src(&self) -> NpuId {
        self.src
    }

    /// Receiving NPU.
    pub fn dst(&self) -> NpuId {
        self.dst
    }

    /// Copy or reduce.
    pub fn kind(&self) -> TransferKind {
        self.kind
    }

    /// The physical link this transfer was scheduled on, if the generator
    /// chose one (TACOS always does; baselines leave routing to the
    /// simulator).
    pub fn link(&self) -> Option<LinkId> {
        (self.link != NO_LINK_RAW).then(|| LinkId::new(self.link))
    }

    /// Scheduled start time, if any.
    pub fn start(&self) -> Option<Time> {
        (self.start_ps != NO_TIME_PS).then(|| Time::from_ps(self.start_ps))
    }

    /// Scheduled duration, if any.
    pub fn duration(&self) -> Option<Time> {
        (self.duration_ps != NO_TIME_PS).then(|| Time::from_ps(self.duration_ps))
    }

    /// Scheduled completion time, if scheduled.
    pub fn end(&self) -> Option<Time> {
        match (self.start(), self.duration()) {
            (Some(s), Some(d)) => Some(s + d),
            _ => None,
        }
    }

    /// Transfers that must complete before this one may begin.
    pub fn deps(&self) -> &[TransferId] {
        self.deps.as_slice()
    }
}

/// A synthesized or hand-written collective algorithm: the static path of
/// each chunk (paper Fig. 3 output).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveAlgorithm {
    name: String,
    num_npus: usize,
    chunk_size: ByteSize,
    total_size: ByteSize,
    transfers: Vec<Transfer>,
    planned_time: Option<Time>,
}

impl CollectiveAlgorithm {
    /// Algorithm name (e.g. `"tacos"`, `"ring"`, `"direct"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of participating NPUs.
    pub fn num_npus(&self) -> usize {
        self.num_npus
    }

    /// Size of each chunk moved by the transfers.
    pub fn chunk_size(&self) -> ByteSize {
        self.chunk_size
    }

    /// The collective's full per-NPU payload size.
    pub fn total_size(&self) -> ByteSize {
        self.total_size
    }

    /// All transfers, indexed by [`TransferId`].
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// The transfer with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn transfer(&self, id: TransferId) -> &Transfer {
        &self.transfers[id.index()]
    }

    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// `true` if the algorithm contains no transfers.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Collective completion time the generator planned for, if any.
    /// TACOS schedules always carry one; the simulator independently
    /// confirms it.
    pub fn planned_time(&self) -> Option<Time> {
        self.planned_time
    }

    /// Planned completion time, falling back to the latest scheduled
    /// transfer end.
    pub fn collective_time(&self) -> Time {
        self.planned_time
            .or_else(|| self.transfers.iter().filter_map(Transfer::end).max())
            .unwrap_or(Time::ZERO)
    }

    /// `true` if every transfer carries a schedule (start, duration, link).
    pub fn is_fully_scheduled(&self) -> bool {
        self.transfers
            .iter()
            .all(|t| t.start().is_some() && t.duration().is_some() && t.link().is_some())
    }

    /// Groups scheduled transfers per physical link, ordered by start time.
    ///
    /// Unscheduled transfers are ignored.
    pub fn per_link_schedule(&self) -> HashMap<LinkId, Vec<TransferId>> {
        let mut map: HashMap<LinkId, Vec<TransferId>> = HashMap::new();
        for (i, t) in self.transfers.iter().enumerate() {
            if let (Some(link), Some(_)) = (t.link(), t.start()) {
                map.entry(link).or_default().push(TransferId::new(i as u32));
            }
        }
        for ids in map.values_mut() {
            ids.sort_by_key(|id| self.transfers[id.index()].start());
        }
        map
    }

    /// Checks that no two scheduled transfers overlap in time on the same
    /// physical link — the paper's congestion-freedom invariant (§IV-D:
    /// "only one chunk can be matched over a link").
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate_contention_free(&self) -> Result<(), String> {
        for (link, ids) in self.per_link_schedule() {
            let mut prev_end = Time::ZERO;
            let mut prev_id = None;
            for id in ids {
                let t = &self.transfers[id.index()];
                let start = t.start().expect("scheduled by construction");
                if start < prev_end {
                    return Err(format!(
                        "link {link}: transfer {id} starts at {start} before {} ends at {prev_end}",
                        prev_id
                            .map(|p: TransferId| p.to_string())
                            .unwrap_or_default(),
                    ));
                }
                prev_end = t.end().expect("scheduled by construction");
                prev_id = Some(id);
            }
        }
        Ok(())
    }

    /// Checks dependency causality for scheduled algorithms: every transfer
    /// starts at or after all of its dependencies end.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate_causal(&self) -> Result<(), String> {
        for (i, t) in self.transfers.iter().enumerate() {
            let Some(start) = t.start() else { continue };
            for &dep in t.deps.as_slice() {
                let dep_end = self.transfers[dep.index()]
                    .end()
                    .ok_or_else(|| format!("T{i} depends on unscheduled {dep}"))?;
                if dep_end > start {
                    return Err(format!(
                        "T{i} starts at {start} before its dependency {dep} ends at {dep_end}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The hop sequence of `chunk` as `(src, dst)` pairs in schedule order
    /// (falling back to insertion order for unscheduled algorithms).
    pub fn chunk_path(&self, chunk: ChunkId) -> Vec<(NpuId, NpuId)> {
        let mut hops: Vec<&Transfer> = self.transfers.iter().filter(|t| t.chunk == chunk).collect();
        hops.sort_by_key(|t| t.start().unwrap_or(Time::ZERO));
        hops.iter().map(|t| (t.src, t.dst)).collect()
    }

    /// Re-expresses, in place, a schedule whose times are multiples of the
    /// cost quantum `from` at the quantum `to`: every start, duration and
    /// the planned time `t` becomes `t / from × to`, and the chunk and
    /// total sizes become the given ones. A TACOS schedule's times are
    /// sums of link costs, so when the target's per-link costs are the
    /// schedule's scaled by `to / from` this is exactly the schedule
    /// synthesis would produce for the target (see
    /// `tacos_core::AlgorithmCache`).
    ///
    /// # Errors
    /// Names the first time `from` does not divide, or whose scaled value
    /// overflows; the schedule is then partly rescaled and must be
    /// dropped.
    pub fn rescale(
        &mut self,
        from: u64,
        to: u64,
        chunk_size: ByteSize,
        total_size: ByteSize,
    ) -> Result<(), String> {
        self.chunk_size = chunk_size;
        self.total_size = total_size;
        if from == to {
            return Ok(());
        }
        let scale = |ps: u64| {
            rescale_time(Time::from_ps(ps), from, to)
                .map(Time::as_ps)
                .filter(|&scaled| scaled != NO_TIME_PS)
                .ok_or_else(|| format!("{ps} ps does not rescale from quantum {from} to {to}"))
        };
        for t in &mut self.transfers {
            for ps in [&mut t.start_ps, &mut t.duration_ps] {
                if *ps != NO_TIME_PS {
                    *ps = scale(*ps)?;
                }
            }
        }
        if let Some(planned) = self.planned_time {
            self.planned_time = Some(Time::from_ps(scale(planned.as_ps())?));
        }
        Ok(())
    }

    /// Achieved collective bandwidth for a completion time: `total_size /
    /// time` (the paper's "All-Reduce bandwidth" metric, §III-A).
    pub fn bandwidth_for(total_size: ByteSize, time: Time) -> f64 {
        if time.is_zero() {
            f64::INFINITY
        } else {
            total_size.as_u64() as f64 / time.as_secs_f64()
        }
    }
}

/// `time / from × to`: a time measured in quantum `from` re-expressed in
/// quantum `to` ([`CollectiveAlgorithm::rescale`] for one time). `time`
/// itself when the quanta are equal; `None` when `from` does not divide
/// `time` or the product overflows.
pub fn rescale_time(time: Time, from: u64, to: u64) -> Option<Time> {
    if from == to {
        return Some(time);
    }
    let ps = time.as_ps();
    if from == 0 || !ps.is_multiple_of(from) {
        return None;
    }
    (ps / from).checked_mul(to).map(Time::from_ps)
}

impl fmt::Display for CollectiveAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} NPUs, {} transfers, {})",
            self.name,
            self.num_npus,
            self.transfers.len(),
            self.collective_time()
        )
    }
}

/// Incremental builder for [`CollectiveAlgorithm`] (C-BUILDER).
///
/// Dependencies may only reference transfers that were already pushed, which
/// makes the result acyclic by construction.
#[derive(Debug, Clone)]
pub struct AlgorithmBuilder {
    name: String,
    num_npus: usize,
    chunk_size: ByteSize,
    total_size: ByteSize,
    transfers: Vec<Transfer>,
    planned_time: Option<Time>,
}

impl AlgorithmBuilder {
    /// Starts building an algorithm for `num_npus` NPUs moving chunks of
    /// `chunk_size` out of a `total_size` payload.
    pub fn new(
        name: impl Into<String>,
        num_npus: usize,
        chunk_size: ByteSize,
        total_size: ByteSize,
    ) -> Self {
        AlgorithmBuilder {
            name: name.into(),
            num_npus,
            chunk_size,
            total_size,
            transfers: Vec::new(),
            planned_time: None,
        }
    }

    /// Pre-allocates room for `additional` more transfers. Generators
    /// that know the schedule size up front (or a lower bound, e.g. the
    /// number of unsatisfied postconditions) reserve once instead of
    /// growing the transfer list through repeated doubling.
    pub fn reserve_transfers(&mut self, additional: usize) {
        self.transfers.reserve(additional);
    }

    /// Number of transfers pushed so far.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// `true` if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// The transfers pushed so far, indexed by [`TransferId`].
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Reverses the pushed schedule in time, in place — the step that
    /// turns a synthesized dual into a combining collective (paper
    /// Fig. 11): every transfer's direction flips, its kind becomes
    /// [`TransferKind::Reduce`], its window `[s, e]` maps to
    /// `[total - e, total - s]`, and dependency edges invert. Transfer
    /// `i` of `n` becomes transfer `n - 1 - i`, so dependencies still
    /// reference earlier ids, and each inverted list holds its new
    /// dependents in ascending old id. Link ids are kept:
    /// [`Topology::reversed`] keeps link order, so a schedule on the
    /// reversed topology reverses onto the original one.
    ///
    /// `total` must be at least every transfer's end.
    ///
    /// # Panics
    /// Panics if a transfer is unscheduled.
    pub fn time_reverse(&mut self, total: Time) {
        let n = self.transfers.len();
        let flip = |old: usize| TransferId::new((n - 1 - old) as u32);
        // A dependency names an earlier transfer, whose own (forward)
        // list was already taken by the time a later one pushes its
        // inverted edge into it, so the lists invert without a copy.
        for b in 0..n {
            let deps = std::mem::take(&mut self.transfers[b].deps);
            for &a in deps.as_slice() {
                self.transfers[a.index()].deps.push(flip(b));
            }
        }
        self.transfers.reverse();
        for t in &mut self.transfers {
            let end = t.end().expect("time reversal requires a schedule");
            std::mem::swap(&mut t.src, &mut t.dst);
            t.kind = TransferKind::Reduce;
            t.start_ps = (total - end).as_ps();
        }
    }

    /// Pushes a dependency-driven transfer (no schedule; the simulator
    /// resolves contention and routing).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, `src == dst`, or a dependency
    /// references a not-yet-pushed transfer.
    pub fn push(
        &mut self,
        chunk: ChunkId,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        deps: impl Into<DepList>,
    ) -> TransferId {
        self.push_transfer(chunk, 1, src, dst, kind, None, None, None, deps.into())
    }

    /// Pushes a dependency-driven *aggregated* message of `count`
    /// consecutive base chunks (baseline algorithms with step-dependent
    /// message sizes, e.g. RHD).
    ///
    /// # Panics
    /// Same conditions as [`AlgorithmBuilder::push`], plus `count == 0`.
    pub fn push_counted(
        &mut self,
        chunk: ChunkId,
        count: u32,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        deps: impl Into<DepList>,
    ) -> TransferId {
        assert!(count > 0, "message must carry at least one chunk");
        self.push_transfer(chunk, count, src, dst, kind, None, None, None, deps.into())
    }

    /// Pushes a dependency-driven message pinned to a specific physical
    /// link (no schedule). Used by baselines that manually lay routes over
    /// parallel links (e.g. C-Cube on DGX-1's doubled NVLinks).
    ///
    /// # Panics
    /// Same conditions as [`AlgorithmBuilder::push`], plus `count == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn push_on_link(
        &mut self,
        chunk: ChunkId,
        count: u32,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        link: LinkId,
        deps: impl Into<DepList>,
    ) -> TransferId {
        assert!(count > 0, "message must carry at least one chunk");
        self.push_transfer(
            chunk,
            count,
            src,
            dst,
            kind,
            Some(link),
            None,
            None,
            deps.into(),
        )
    }

    /// Pushes a fully scheduled transfer (TACOS output).
    ///
    /// # Panics
    /// Same conditions as [`AlgorithmBuilder::push`].
    #[allow(clippy::too_many_arguments)]
    pub fn push_scheduled(
        &mut self,
        chunk: ChunkId,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        link: LinkId,
        start: Time,
        duration: Time,
        deps: impl Into<DepList>,
    ) -> TransferId {
        self.push_transfer(
            chunk,
            1,
            src,
            dst,
            kind,
            Some(link),
            Some(start),
            Some(duration),
            deps.into(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn push_transfer(
        &mut self,
        chunk: ChunkId,
        count: u32,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        link: Option<LinkId>,
        start: Option<Time>,
        duration: Option<Time>,
        deps: DepList,
    ) -> TransferId {
        assert!(src.index() < self.num_npus, "src {src} out of range");
        assert!(dst.index() < self.num_npus, "dst {dst} out of range");
        assert_ne!(src, dst, "transfer endpoints must differ");
        let id = TransferId::new(self.transfers.len() as u32);
        for dep in deps.as_slice() {
            assert!(dep.index() < id.index(), "dependency {dep} not yet pushed");
        }
        debug_assert!(
            start.is_none_or(|t| t.as_ps() != NO_TIME_PS)
                && duration.is_none_or(|t| t.as_ps() != NO_TIME_PS)
                && link.is_none_or(|l| l.raw() != NO_LINK_RAW),
            "schedule value collides with the unscheduled sentinel"
        );
        self.transfers.push(Transfer {
            chunk,
            count,
            src,
            dst,
            kind,
            link: link.map_or(NO_LINK_RAW, LinkId::raw),
            start_ps: start.map_or(NO_TIME_PS, Time::as_ps),
            duration_ps: duration.map_or(NO_TIME_PS, Time::as_ps),
            deps,
        });
        id
    }

    /// Records the completion time the generator planned for.
    pub fn planned_time(&mut self, time: Time) -> &mut Self {
        self.planned_time = Some(time);
        self
    }

    /// Finalizes the algorithm.
    pub fn build(self) -> CollectiveAlgorithm {
        CollectiveAlgorithm {
            name: self.name,
            num_npus: self.num_npus,
            chunk_size: self.chunk_size,
            total_size: self.total_size,
            transfers: self.transfers,
            planned_time: self.planned_time,
        }
    }
}

/// Validates that a scheduled algorithm only uses links that exist in
/// `topo` and whose endpoints match the transfer's.
///
/// # Errors
/// Returns a description of the first mismatch.
pub fn validate_links(algo: &CollectiveAlgorithm, topo: &Topology) -> Result<(), String> {
    for (i, t) in algo.transfers().iter().enumerate() {
        if let Some(link_id) = t.link() {
            if link_id.index() >= topo.num_links() {
                return Err(format!("T{i} uses nonexistent link {link_id}"));
            }
            let link = topo.link(link_id);
            if link.src() != t.src() || link.dst() != t.dst() {
                return Err(format!(
                    "T{i} ({} -> {}) scheduled on mismatching link {link_id} ({} -> {})",
                    t.src(),
                    t.dst(),
                    link.src(),
                    link.dst()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduled_pair() -> CollectiveAlgorithm {
        scheduled_pair_builder().build()
    }

    fn scheduled_pair_builder() -> AlgorithmBuilder {
        // Chunk 0: NPU0 -> NPU1 at [0, 10), then NPU1 -> NPU2 at [10, 20).
        let mut b = AlgorithmBuilder::new("test", 3, ByteSize::mb(1), ByteSize::mb(3));
        let first = b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            LinkId::new(0),
            Time::ZERO,
            Time::from_ps(10),
            vec![],
        );
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Copy,
            LinkId::new(1),
            Time::from_ps(10),
            Time::from_ps(10),
            vec![first],
        );
        b.planned_time(Time::from_ps(20));
        b
    }

    /// The out-of-place reversal [`AlgorithmBuilder::time_reverse`]
    /// replaced, kept as its oracle: build a second list, walk the first
    /// backwards into it, then invert each dependency edge in ascending
    /// order of the old dependent.
    fn time_reversed(algo: &CollectiveAlgorithm, name: impl Into<String>) -> CollectiveAlgorithm {
        let total = algo.collective_time();
        let n = algo.transfers.len();
        // New index = n - 1 - old index keeps "deps reference earlier ids".
        let flip = |old: usize| TransferId::new((n - 1 - old) as u32);
        let mut reversed: Vec<Transfer> = Vec::with_capacity(n);
        for old in (0..n).rev() {
            let t = &algo.transfers[old];
            let start = t.start().expect("time reversal requires a schedule");
            let end = t.end().expect("time reversal requires a schedule");
            reversed.push(Transfer {
                chunk: t.chunk,
                count: t.count,
                src: t.dst,
                dst: t.src,
                kind: TransferKind::Reduce,
                link: t.link,
                start_ps: (total - end).as_ps(),
                duration_ps: (end - start).as_ps(),
                deps: DepList::new(),
            });
        }
        // Invert dependency edges: old "b depends on a" becomes "a' depends
        // on b'".
        for (old_b, t) in algo.transfers.iter().enumerate() {
            for &dep_a in t.deps.as_slice() {
                let new_a = flip(dep_a.index());
                let new_b = flip(old_b);
                reversed[new_a.index()].deps.push(new_b);
            }
        }
        CollectiveAlgorithm {
            name: name.into(),
            num_npus: algo.num_npus,
            chunk_size: algo.chunk_size,
            total_size: algo.total_size,
            transfers: reversed,
            planned_time: Some(total),
        }
    }

    #[test]
    fn builder_and_accessors() {
        let a = scheduled_pair();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(a.is_fully_scheduled());
        assert_eq!(a.collective_time(), Time::from_ps(20));
        assert_eq!(a.planned_time(), Some(Time::from_ps(20)));
        let t = a.transfer(TransferId::new(1));
        assert_eq!(t.src(), NpuId::new(1));
        assert_eq!(t.end(), Some(Time::from_ps(20)));
        assert_eq!(t.deps(), &[TransferId::new(0)]);
        assert_eq!(
            a.chunk_path(ChunkId::new(0)),
            vec![
                (NpuId::new(0), NpuId::new(1)),
                (NpuId::new(1), NpuId::new(2))
            ]
        );
        assert!(format!("{a}").contains("2 transfers"));
    }

    #[test]
    fn contention_detection() {
        let a = scheduled_pair();
        assert!(a.validate_contention_free().is_ok());
        assert!(a.validate_causal().is_ok());

        // Two overlapping transfers on the same link.
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(2));
        for chunk in 0..2u32 {
            b.push_scheduled(
                ChunkId::new(chunk),
                NpuId::new(0),
                NpuId::new(1),
                TransferKind::Copy,
                LinkId::new(0),
                Time::from_ps(0),
                Time::from_ps(10),
                vec![],
            );
        }
        let bad = b.build();
        assert!(bad.validate_contention_free().is_err());
    }

    #[test]
    fn causality_detection() {
        let mut b = AlgorithmBuilder::new("bad", 3, ByteSize::mb(1), ByteSize::mb(3));
        let first = b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            LinkId::new(0),
            Time::ZERO,
            Time::from_ps(10),
            vec![],
        );
        // Starts before its dependency finishes.
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Copy,
            LinkId::new(1),
            Time::from_ps(5),
            Time::from_ps(10),
            vec![first],
        );
        assert!(b.build().validate_causal().is_err());
    }

    #[test]
    fn time_reversal_flips_everything() {
        let mut b = scheduled_pair_builder();
        b.time_reverse(Time::from_ps(20));
        let r = b.build();
        assert_eq!(r.len(), 2);
        assert_eq!(r.collective_time(), Time::from_ps(20));
        // The last forward transfer becomes the first reversed transfer.
        let t0 = r.transfer(TransferId::new(0));
        assert_eq!(t0.src(), NpuId::new(2));
        assert_eq!(t0.dst(), NpuId::new(1));
        assert_eq!(t0.kind(), TransferKind::Reduce);
        assert_eq!(t0.start(), Some(Time::ZERO));
        let t1 = r.transfer(TransferId::new(1));
        assert_eq!(t1.src(), NpuId::new(1));
        assert_eq!(t1.dst(), NpuId::new(0));
        assert_eq!(t1.start(), Some(Time::from_ps(10)));
        // Dependency edge inverted: the second reversed transfer depends on
        // the first.
        assert_eq!(t1.deps(), &[TransferId::new(0)]);
        assert!(r.validate_causal().is_ok());
        assert!(r.validate_contention_free().is_ok());
        assert_eq!(
            r.transfers(),
            time_reversed(&scheduled_pair(), "test").transfers()
        );
    }

    proptest::proptest! {
        /// On random scheduled DAGs with 0–4 dependencies per transfer
        /// (spilled lists included), the in-place reversal gives the
        /// oracle's transfers exactly, dependency order included.
        #[test]
        fn in_place_reversal_matches_the_oracle(
            raw in proptest::prop::collection::vec(
                (
                    0u32..8,
                    0u32..6,
                    0u32..5,
                    0u64..50,
                    1u64..20,
                    proptest::prop::collection::vec(proptest::any::<u32>(), 0..5),
                ),
                0..40,
            ),
            slack in 0u64..30,
        ) {
            let mut b = AlgorithmBuilder::new("fwd", 6, ByteSize::mb(1), ByteSize::mb(6));
            let mut total = Time::ZERO;
            for (i, (chunk, src, hop, start, duration, deps)) in raw.into_iter().enumerate() {
                let deps: Vec<TransferId> = if i == 0 {
                    Vec::new()
                } else {
                    deps.iter().map(|&d| TransferId::new(d % i as u32)).collect()
                };
                let (start, duration) = (Time::from_ps(start), Time::from_ps(duration));
                total = total.max(start + duration);
                b.push_scheduled(
                    ChunkId::new(chunk),
                    NpuId::new(src),
                    NpuId::new((src + 1 + hop) % 6),
                    TransferKind::Copy,
                    LinkId::new(chunk + src),
                    start,
                    duration,
                    deps,
                );
            }
            let total = total + Time::from_ps(slack);
            b.planned_time(total);
            let want = time_reversed(&b.clone().build(), "fwd");
            b.time_reverse(total);
            let got = b.build();
            proptest::prop_assert_eq!(got.transfers(), want.transfers());
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "not yet pushed")]
    fn forward_dependency_rejected() {
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(2));
        b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![TransferId::new(5)],
        );
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_transfer_rejected() {
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(2));
        b.push(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
    }

    #[test]
    fn dep_list_inlines_up_to_two_and_spills_beyond() {
        let mut deps = DepList::new();
        assert!(deps.is_empty());
        assert_eq!(deps.as_slice(), &[]);
        deps.push(TransferId::new(7));
        deps.push(TransferId::new(9));
        assert!(matches!(deps, DepList::Inline { len: 2, .. }));
        assert_eq!(deps.as_slice(), &[TransferId::new(7), TransferId::new(9)]);
        deps.push(TransferId::new(11));
        assert!(matches!(deps, DepList::Spilled(_)));
        assert_eq!(deps.len(), 3);
        assert_eq!(
            deps.as_slice(),
            &[TransferId::new(7), TransferId::new(9), TransferId::new(11)]
        );

        // Conversions match push-built lists at every length.
        for n in 0..5u32 {
            let ids: Vec<TransferId> = (0..n).map(TransferId::new).collect();
            let from_vec = DepList::from(ids.clone());
            assert_eq!(from_vec.as_slice(), &ids[..], "len {n}");
        }
        assert_eq!(
            DepList::from(Some(TransferId::new(3))).as_slice(),
            &[TransferId::new(3)]
        );
        assert!(DepList::from(None).is_empty());
        assert_eq!(
            DepList::from([TransferId::new(1), TransferId::new(2)]).len(),
            2
        );
    }

    #[test]
    fn rescale_is_exact_or_refused() {
        // Quantum 5 → 7: every time is a multiple of 5, so each maps
        // exactly, and the sizes become the target's.
        let mut a = scheduled_pair();
        a.rescale(5, 7, ByteSize::kb(7), ByteSize::kb(21)).unwrap();
        let times: Vec<_> = a.transfers().iter().map(|t| (t.start(), t.end())).collect();
        let ps = |v| Some(Time::from_ps(v));
        assert_eq!(times, [(ps(0), ps(14)), (ps(14), ps(28))]);
        assert_eq!(a.planned_time(), ps(28));
        assert_eq!(
            (a.chunk_size(), a.total_size()),
            (ByteSize::kb(7), ByteSize::kb(21))
        );
        // Equal quanta only re-size.
        let mut same = scheduled_pair();
        same.rescale(3, 3, ByteSize::kb(2), ByteSize::kb(6))
            .unwrap();
        assert_eq!(same.collective_time(), Time::from_ps(20));
        assert_eq!(same.chunk_size(), ByteSize::kb(2));
        // A time the source quantum does not divide, and a product that
        // overflows, are refused rather than rounded or wrapped.
        assert!(scheduled_pair()
            .rescale(3, 7, ByteSize::kb(1), ByteSize::kb(3))
            .is_err());
        assert!(scheduled_pair()
            .rescale(1, u64::MAX, ByteSize::kb(1), ByteSize::kb(3))
            .is_err());
        assert_eq!(rescale_time(Time::from_ps(9), 3, 3), Some(Time::from_ps(9)));
        assert_eq!(rescale_time(Time::from_ps(9), 0, 3), None);
    }

    #[test]
    fn bandwidth_metric() {
        let bw = CollectiveAlgorithm::bandwidth_for(ByteSize::gb(1), Time::from_millis(20.0));
        assert!((bw - 50e9).abs() < 1.0);
        assert!(CollectiveAlgorithm::bandwidth_for(ByteSize::gb(1), Time::ZERO).is_infinite());
    }
}
