//! The congestion-aware analytical network simulator (paper §V-C).
//!
//! Models exactly what the paper's ASTRA-sim backend models, at first
//! order: every link has a message queue and processes **one message at a
//! time** (`α + β·size` each), first-come-first-served; contending messages
//! therefore serialize — the mechanism behind the oversubscription heat
//! maps of Figs. 1 and 15b. Transfers between NPUs that share no physical
//! link are routed over static α–β-shortest paths (store-and-forward per
//! hop), which is how topology-unaware baselines like Direct-on-a-Ring pay
//! for their assumptions. Messages contending for a link are served in
//! planned-start order when the algorithm carries a schedule, so a
//! scheduled transfer is never served before, or out of order with, its
//! plan.
//!
//! # Plan replay
//!
//! A schedule that already is a valid execution of this model needs no
//! simulation: its report can be read off the plan. [`Simulator::simulate`]
//! first checks, in one pass over the transfers in index order, that
//!
//! 1. every transfer is scheduled (link, start and duration all set);
//! 2. its link exists and joins the transfer's own source and destination;
//! 3. its duration is exactly `link.cost(payload)`, and positive;
//! 4. it starts no earlier than each of its dependencies ends;
//! 5. it starts no earlier than the previous transfer on its link ends,
//!    each link's transfers being read in index order.
//!
//! These are SCCL's conditions for a valid schedule — causal,
//! link-exclusive, timed by α–β — and a TACOS schedule meets them by
//! construction (the time-expanded network matches one chunk per link per
//! span, §IV-D). When they hold, the engine below would run every transfer
//! at its planned start. By induction over time: a transfer's dependencies
//! have finished by its planned start (check 4), so it is released exactly
//! then; checks 3 and 5 make the starts on each link strictly increasing
//! in index order with each predecessor finished by the next start, and no
//! later transfer on the link is released earlier, so the link is idle
//! with an empty queue and the message starts at once and lasts its
//! planned duration. Hence the collective time is the latest planned end,
//! each link carries its transfers' payloads for their durations, and
//! there is one message per transfer. If any check fails the engine runs,
//! so malformed plans still get the engine's answer or its
//! [`SimError::BadLink`]. Unscheduled (baseline) algorithms fail check 1
//! on their first transfer and always take the engine.
//!
//! # The event engine
//!
//! A discrete-event loop over flat tables: per-transfer payload, planned
//! start and outstanding-dependency count, CSR arrays of each transfer's
//! hops and dependents, and per-link busy-until times and priority queues.
//! Events are ordered by (time, creation order). Three queues hold them
//! and together give exactly that order: releases of transfers without
//! dependencies come from one array sorted by release time (created first,
//! so they win ties); later events due in the future go to a binary heap;
//! events due at the current instant — the next hop of a routed message,
//! a dependent released by a completion — go to a FIFO behind the heap's
//! events of that instant. A message that reaches an idle link with an
//! empty queue starts without touching the link's queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_topology::routing::{route_path, RoutingTable};
use tacos_topology::{ByteSize, LinkId, Time, Topology};

use crate::error::SimError;
use crate::report::{BusyInterval, SimReport};

/// How multi-hop routed messages pay the per-message latency α.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteModel {
    /// α is charged once (on the first hop); later hops cost only the
    /// serialization delay β·size. This matches the paper's analytical
    /// backend, where Direct on a 128-NPU Ring *wins* for 1 KB collectives
    /// (Fig. 2b) — long paths are latency-cheap but still occupy every
    /// link they cross.
    #[default]
    CutThrough,
    /// Every hop pays the full `α + β·size` (store-and-forward).
    StoreAndForward,
}

/// Simulator options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimConfig {
    route_model: RouteModel,
}

impl SimConfig {
    /// How routed multi-hop messages pay α.
    pub fn route_model(&self) -> RouteModel {
        self.route_model
    }

    /// Returns the config with a different multi-hop cost model.
    #[must_use]
    pub fn with_route_model(mut self, model: RouteModel) -> Self {
        self.route_model = model;
        self
    }
}

/// Discrete-event, link-granularity network simulator.
///
/// ```
/// use tacos_sim::Simulator;
/// use tacos_core::{Synthesizer, SynthesizerConfig};
/// use tacos_collective::Collective;
/// use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
/// let mesh = Topology::mesh_2d(3, 3, spec)?;
/// let coll = Collective::all_gather(9, ByteSize::mb(9))?;
/// let algo = Synthesizer::default().synthesize(&mesh, &coll)?.into_algorithm();
/// let report = Simulator::new().simulate(&mesh, &algo)?;
/// // Simulating a TACOS schedule reproduces its planned time exactly.
/// assert_eq!(report.collective_time(), algo.collective_time());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// A simulator with default configuration.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// A simulator with explicit configuration.
    pub fn with_config(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates `algo` on `topo` and reports completion time, per-link
    /// traffic, and utilization. A plan that passes the replay checks of
    /// the module docs is read off directly; anything else runs the
    /// event engine.
    ///
    /// # Errors
    /// * [`SimError::NpuCountMismatch`] if the algorithm was generated for
    ///   a different NPU count.
    /// * [`SimError::Unroutable`] if an unscheduled transfer's destination
    ///   is unreachable.
    /// * [`SimError::BadLink`] if a scheduled transfer's link does not
    ///   match its endpoints.
    pub fn simulate(
        &self,
        topo: &Topology,
        algo: &CollectiveAlgorithm,
    ) -> Result<SimReport, SimError> {
        if topo.num_npus() != algo.num_npus() {
            return Err(SimError::NpuCountMismatch {
                topology: topo.num_npus(),
                algorithm: algo.num_npus(),
            });
        }
        if let Some(report) = replay(topo, algo) {
            return Ok(report);
        }
        Engine::new(topo, algo, self.config.route_model)?.run(algo)
    }
}

/// The report of a plan that passes every replay check of the module
/// docs, built from the plan alone; `None` if any check fails.
pub(crate) fn replay(topo: &Topology, algo: &CollectiveAlgorithm) -> Option<SimReport> {
    let transfers = algo.transfers();
    let num_links = topo.num_links();
    let mut ends: Vec<Time> = Vec::with_capacity(transfers.len());
    let mut link_free = vec![Time::ZERO; num_links];
    let mut link_bytes = vec![0u64; num_links];
    let mut link_busy = vec![Time::ZERO; num_links];
    let mut intervals: Vec<BusyInterval> = Vec::with_capacity(transfers.len());
    let mut in_start_order = true;
    let mut collective_time = Time::ZERO;
    for t in transfers {
        let (link_id, start, duration) = (t.link()?, t.start()?, t.duration()?);
        let l = link_id.index();
        if l >= num_links {
            return None;
        }
        let link = topo.link(link_id);
        let payload = t.payload(algo.chunk_size());
        let end = start + duration;
        if link.src() != t.src()
            || link.dst() != t.dst()
            || duration.is_zero()
            || duration != link.cost(payload)
            || start < link_free[l]
            || t.deps().iter().any(|d| ends[d.index()] > start)
        {
            return None;
        }
        link_free[l] = end;
        ends.push(end);
        link_bytes[l] += payload.as_u64();
        link_busy[l] += duration;
        in_start_order &= intervals.last().is_none_or(|prev| prev.start <= start);
        intervals.push(BusyInterval {
            link: link_id,
            start,
            duration,
            bytes: payload.as_u64(),
        });
        collective_time = collective_time.max(end);
    }
    if !in_start_order {
        intervals.sort_by_key(|iv| iv.start);
    }
    Some(SimReport::new(
        collective_time,
        link_bytes,
        link_busy,
        intervals,
        transfers.len() as u64,
        algo.total_size(),
    ))
}

/// One hop of one transfer: the transfer and the hop's index in the CSR
/// hop table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Message {
    transfer: u32,
    hop: u32,
}

/// A message becomes eligible at its hop's link, or that link finishes
/// transmitting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Release(Message),
    Complete(Message),
}

/// Marks a transfer without a planned start in [`Engine::planned`]; it
/// also sorts such messages after every planned one in a link queue.
const UNPLANNED: u64 = u64::MAX;

/// When a transfer whose inputs are ready at `ready` is released: not
/// before its planned start, if it has one.
fn release_at(planned: u64, ready: u64) -> u64 {
    match planned {
        UNPLANNED => ready,
        p => p.max(ready),
    }
}

/// The event engine's state, all in flat tables (times in picoseconds).
pub(crate) struct Engine<'a> {
    topo: &'a Topology,
    cut_through: bool,
    /// Per transfer: payload bytes, planned start, unfinished dependencies.
    payload: Vec<u64>,
    planned: Vec<u64>,
    waiting_on: Vec<u32>,
    /// CSR: transfer `t`'s hops are `hop_link[hop_start[t]..hop_start[t + 1]]`.
    hop_start: Vec<u32>,
    hop_link: Vec<u32>,
    /// CSR: transfer `t`'s dependents, in index order.
    dependent_start: Vec<u32>,
    dependents: Vec<u32>,
    /// Per link: when the current message ends, and the waiting messages
    /// keyed by (planned start, release order).
    busy_until: Vec<u64>,
    queue: Vec<BinaryHeap<Reverse<(u64, u64, Message)>>>,
    released: u64,
    /// Releases of dependency-free transfers, by release time.
    initial: Vec<u32>,
    next_initial: usize,
    /// Future events keyed by (time, creation order); events due now.
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    created: u64,
    due_now: VecDeque<Event>,
    now: u64,
    link_bytes: Vec<u64>,
    link_busy: Vec<Time>,
    intervals: Vec<BusyInterval>,
}

impl<'a> Engine<'a> {
    /// Resolves every transfer into its hops and builds the tables.
    pub(crate) fn new(
        topo: &'a Topology,
        algo: &CollectiveAlgorithm,
        route_model: RouteModel,
    ) -> Result<Self, SimError> {
        let transfers = algo.transfers();
        let n = transfers.len();
        let table = transfers
            .iter()
            .any(|t| t.link().is_none())
            .then(|| RoutingTable::new(topo, algo.chunk_size()));
        let mut hop_start = Vec::with_capacity(n + 1);
        let mut hop_link = Vec::with_capacity(n);
        hop_start.push(0u32);
        for (i, t) in transfers.iter().enumerate() {
            match t.link() {
                Some(link_id) => {
                    if link_id.index() >= topo.num_links() {
                        return Err(SimError::BadLink {
                            transfer: i,
                            reason: format!("link {link_id} does not exist"),
                        });
                    }
                    let link = topo.link(link_id);
                    if link.src() != t.src() || link.dst() != t.dst() {
                        return Err(SimError::BadLink {
                            transfer: i,
                            reason: format!(
                                "endpoints {} -> {} do not match link {} -> {}",
                                t.src(),
                                t.dst(),
                                link.src(),
                                link.dst()
                            ),
                        });
                    }
                    hop_link.push(link_id.raw());
                }
                None => {
                    let table = table.as_ref().expect("built when needed");
                    let path =
                        route_path(topo, table, t.src(), t.dst()).ok_or(SimError::Unroutable {
                            src: t.src().index(),
                            dst: t.dst().index(),
                        })?;
                    debug_assert!(!path.is_empty());
                    hop_link.extend(path.iter().map(|l| l.raw()));
                }
            }
            hop_start.push(hop_link.len() as u32);
        }

        let mut dependent_start = vec![0u32; n + 1];
        for t in transfers {
            for d in t.deps() {
                dependent_start[d.index() + 1] += 1;
            }
        }
        for i in 0..n {
            dependent_start[i + 1] += dependent_start[i];
        }
        let mut fill = dependent_start.clone();
        let mut dependents = vec![0u32; dependent_start[n] as usize];
        for (i, t) in transfers.iter().enumerate() {
            for d in t.deps() {
                dependents[fill[d.index()] as usize] = i as u32;
                fill[d.index()] += 1;
            }
        }

        let planned: Vec<u64> = transfers
            .iter()
            .map(|t| t.start().map_or(UNPLANNED, Time::as_ps))
            .collect();
        let waiting_on: Vec<u32> = transfers.iter().map(|t| t.deps().len() as u32).collect();
        let mut initial: Vec<u32> = (0..n as u32)
            .filter(|&i| waiting_on[i as usize] == 0)
            .collect();
        initial.sort_by_key(|&i| release_at(planned[i as usize], 0));

        let num_links = topo.num_links();
        Ok(Engine {
            topo,
            cut_through: route_model == RouteModel::CutThrough,
            payload: transfers
                .iter()
                .map(|t| t.payload(algo.chunk_size()).as_u64())
                .collect(),
            planned,
            waiting_on,
            intervals: Vec::with_capacity(hop_link.len()),
            hop_start,
            hop_link,
            dependent_start,
            dependents,
            busy_until: vec![0; num_links],
            queue: (0..num_links).map(|_| BinaryHeap::new()).collect(),
            released: 0,
            initial,
            next_initial: 0,
            heap: BinaryHeap::new(),
            created: 0,
            due_now: VecDeque::new(),
            now: 0,
            link_bytes: vec![0; num_links],
            link_busy: vec![Time::ZERO; num_links],
        })
    }

    /// Runs every event and reports.
    pub(crate) fn run(mut self, algo: &CollectiveAlgorithm) -> Result<SimReport, SimError> {
        let mut completed = 0usize;
        while let Some(event) = self.next_event() {
            match event {
                Event::Release(msg) => self.release(msg),
                Event::Complete(msg) => {
                    let t = msg.transfer as usize;
                    if msg.hop + 1 < self.hop_start[t + 1] {
                        // Store-and-forward: the next hop is ready now.
                        self.due_now.push_back(Event::Release(Message {
                            transfer: msg.transfer,
                            hop: msg.hop + 1,
                        }));
                    } else {
                        completed += 1;
                        for k in self.dependent_start[t]..self.dependent_start[t + 1] {
                            let d = self.dependents[k as usize];
                            self.waiting_on[d as usize] -= 1;
                            if self.waiting_on[d as usize] == 0 {
                                let at = release_at(self.planned[d as usize], self.now);
                                self.push(at, Event::Release(self.first_hop(d)));
                            }
                        }
                    }
                    // The link just freed up; serve the next queued message.
                    self.serve(self.hop_link[msg.hop as usize] as usize);
                }
            }
        }
        debug_assert_eq!(
            completed,
            algo.len(),
            "dependency deadlock: {completed} of {} transfers completed",
            algo.len()
        );
        let messages = self.intervals.len() as u64;
        Ok(SimReport::new(
            Time::from_ps(self.now),
            self.link_bytes,
            self.link_busy,
            self.intervals,
            messages,
            algo.total_size(),
        ))
    }

    /// The next event in (time, creation order), advancing the clock. At
    /// equal times the initial releases were created first, then the
    /// heap's events (created before the clock reached them), then those
    /// due now (created at this instant).
    fn next_event(&mut self) -> Option<Event> {
        let heap_time = self.heap.peek().map(|Reverse((time, ..))| *time);
        if let Some(&i) = self.initial.get(self.next_initial) {
            let time = release_at(self.planned[i as usize], 0);
            if heap_time.is_none_or(|h| time <= h) && (self.due_now.is_empty() || time == self.now)
            {
                self.next_initial += 1;
                self.now = time;
                return Some(Event::Release(self.first_hop(i)));
            }
        }
        if let Some(time) = heap_time {
            if self.due_now.is_empty() || time == self.now {
                let Reverse((_, _, event)) = self.heap.pop().expect("peeked");
                self.now = time;
                return Some(event);
            }
        }
        self.due_now.pop_front()
    }

    fn push(&mut self, time: u64, event: Event) {
        if time == self.now {
            self.due_now.push_back(event);
        } else {
            self.created += 1;
            self.heap.push(Reverse((time, self.created, event)));
        }
    }

    fn first_hop(&self, transfer: u32) -> Message {
        Message {
            transfer,
            hop: self.hop_start[transfer as usize],
        }
    }

    /// A message arrives at its hop's link: start it if the link is idle
    /// with nobody waiting, otherwise queue it by planned start, then
    /// release order.
    fn release(&mut self, msg: Message) {
        let l = self.hop_link[msg.hop as usize] as usize;
        self.link_bytes[l] += self.payload[msg.transfer as usize];
        if self.busy_until[l] <= self.now && self.queue[l].is_empty() {
            self.start(msg, l);
        } else {
            self.released += 1;
            let key = (self.planned[msg.transfer as usize], self.released, msg);
            self.queue[l].push(Reverse(key));
            self.serve(l);
        }
    }

    /// Starts the link's best queued message if the link is idle.
    fn serve(&mut self, l: usize) {
        if self.busy_until[l] <= self.now {
            if let Some(Reverse((_, _, msg))) = self.queue[l].pop() {
                self.start(msg, l);
            }
        }
    }

    /// Transmits `msg` on link `l` from now: α + β·payload, where cut-through
    /// routing skips α on every hop after the first.
    fn start(&mut self, msg: Message, l: usize) {
        let link = self.topo.link(LinkId::new(l as u32));
        let bytes = self.payload[msg.transfer as usize];
        let mut cost = link.cost(ByteSize::bytes(bytes));
        if self.cut_through && msg.hop != self.hop_start[msg.transfer as usize] {
            cost -= link.spec().alpha();
        }
        let done = self.now + cost.as_ps();
        self.busy_until[l] = done;
        self.link_busy[l] += cost;
        self.intervals.push(BusyInterval {
            link: LinkId::new(l as u32),
            start: Time::from_ps(self.now),
            duration: cost,
            bytes,
        });
        self.push(done, Event::Complete(msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_collective::algorithm::{AlgorithmBuilder, TransferKind};
    use tacos_collective::ChunkId;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, NpuId, RingOrientation};

    fn spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    #[test]
    fn single_transfer_costs_alpha_beta() {
        let topo = Topology::ring(2, spec(), RingOrientation::Bidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("one", 2, ByteSize::mb(1), ByteSize::mb(1));
        b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(20.5));
        assert_eq!(report.messages(), 1);
        assert_eq!(report.link_bytes().iter().sum::<u64>(), 1_000_000);
    }

    #[test]
    fn contention_serializes_fcfs() {
        // Two chunks want the same link at t=0: the second waits.
        let topo = Topology::ring(2, spec(), RingOrientation::Bidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("two", 2, ByteSize::mb(1), ByteSize::mb(2));
        for c in 0..2u32 {
            b.push(
                ChunkId::new(c),
                NpuId::new(0),
                NpuId::new(1),
                TransferKind::Copy,
                vec![],
            );
        }
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(41.0));
    }

    #[test]
    fn multi_hop_routing_cost_models() {
        // Unidirectional 4-ring: 0 -> 2 must take two hops.
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("hop", 4, ByteSize::mb(1), ByteSize::mb(1));
        b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(2),
            TransferKind::Copy,
            vec![],
        );
        let algo = b.build();
        // Cut-through (default): alpha once + 2x serialization.
        let report = Simulator::new().simulate(&topo, &algo).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(40.5));
        assert_eq!(report.messages(), 2);
        // Store-and-forward: full cost per hop.
        let snf = Simulator::with_config(
            SimConfig::default().with_route_model(RouteModel::StoreAndForward),
        )
        .simulate(&topo, &algo)
        .unwrap();
        assert_eq!(snf.collective_time(), Time::from_micros(41.0));
    }

    #[test]
    fn dependencies_sequence_transfers() {
        let topo = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("dep", 4, ByteSize::mb(1), ByteSize::mb(1));
        let first = b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
        // Different link, but must wait for `first`.
        b.push(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Copy,
            vec![first],
        );
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(41.0));
    }

    #[test]
    fn unroutable_is_detected() {
        let mut tb = tacos_topology::TopologyBuilder::new("oneway");
        tb.npus(2);
        tb.link(NpuId::new(0), NpuId::new(1), spec());
        let topo = tb.build().unwrap();
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(1));
        b.push(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(0),
            TransferKind::Copy,
            vec![],
        );
        assert!(matches!(
            Simulator::new().simulate(&topo, &b.build()),
            Err(SimError::Unroutable { src: 1, dst: 0 })
        ));
    }

    #[test]
    fn bad_link_is_detected() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("bad", 4, ByteSize::mb(1), ByteSize::mb(1));
        // Link 1 is 1 -> 2, not 0 -> 1.
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            tacos_topology::LinkId::new(1),
            Time::ZERO,
            Time::from_micros(20.5),
            vec![],
        );
        assert!(matches!(
            Simulator::new().simulate(&topo, &b.build()),
            Err(SimError::BadLink { transfer: 0, .. })
        ));
    }

    #[test]
    fn mismatched_npus_rejected() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let b = AlgorithmBuilder::new("empty", 8, ByteSize::mb(1), ByteSize::mb(1));
        assert!(matches!(
            Simulator::new().simulate(&topo, &b.build()),
            Err(SimError::NpuCountMismatch {
                topology: 4,
                algorithm: 8
            })
        ));
    }

    #[test]
    fn empty_algorithm_is_instant() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let b = AlgorithmBuilder::new("empty", 4, ByteSize::mb(1), ByteSize::mb(1));
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::ZERO);
    }

    /// Invariant 5 of DESIGN.md: simulating a TACOS schedule reproduces the
    /// planned collective time exactly.
    #[test]
    fn tacos_schedule_replays_exactly() {
        use tacos_core::{Synthesizer, SynthesizerConfig};
        let topo = Topology::mesh_2d(3, 3, spec()).unwrap();
        for seed in [1u64, 7, 42] {
            let coll = tacos_collective::Collective::all_reduce(9, ByteSize::mb(9)).unwrap();
            let result = Synthesizer::new(SynthesizerConfig::default().with_seed(seed))
                .synthesize(&topo, &coll)
                .unwrap();
            let report = Simulator::new()
                .simulate(&topo, result.algorithm())
                .unwrap();
            assert_eq!(
                report.collective_time(),
                result.collective_time(),
                "seed {seed}"
            );
        }
    }
}
