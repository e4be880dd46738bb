//! Event-driven expanding TEN for arbitrary (heterogeneous) topologies
//! (paper §IV-F, Fig. 12).
//!
//! With heterogeneous α–β costs the TEN's time axis is no longer uniform:
//! each link `l` carrying a chunk occupies `[t, t + cost(l))`, and new time
//! "columns" appear at chunk-arrival instants. [`ExpandingTen`] maintains
//! exactly the state the synthesizer's matching loop needs:
//!
//! * the current synthesis time `now`,
//! * per-link `busy_until` (one chunk per link at a time — congestion
//!   freedom),
//! * the pending arrival events.
//!
//! On a homogeneous topology the event times degenerate to the uniform
//! steps `k · cost` of the paper's materialized TEN (Fig. 7), which is
//! unit-tested below.
//!
//! # The arrival queue: one FIFO per link cost
//!
//! A chunk matched onto link `l` at time `now` arrives at `now + cost(l)`,
//! and `now` never decreases. So arrivals over links of the **same** cost
//! are pushed in nondecreasing time order, and a plain FIFO pops them in
//! time order with no sifting. [`ExpandingTen::reset`] groups the links
//! into one class per distinct chunk cost, each with a FIFO. A small
//! min-heap holds one `(head time, class)` entry per non-empty FIFO, and
//! [`ExpandingTen::advance_into`] drains every class whose head is due at
//! the heap's minimum.
//!
//! With `K` distinct costs, `occupy` is O(1) plus an O(log K) heap push
//! when its class was empty, and a column costs O(log K) per class it
//! drains plus O(1) per arrival. A uniform fabric is one class: the heap
//! holds at most one entry. A fabric where every link has its own cost
//! has one heap entry per chunk in flight, which is what a single
//! `(time, link)` heap costs.
//!
//! Within one column, arrivals come out class by class rather than in
//! link order. That order is unobservable: holdings are sets, and the
//! matcher re-sorts its worklist every round. A test-only oracle
//! (`oracle.rs`) queues every event in one `(time, link)` heap; a
//! proptest checks `now`, `pending` and each column's arrival multiset
//! against it.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use tacos_collective::ChunkId;
use tacos_topology::{ByteSize, LinkId, NpuId, Time, Topology};

/// A chunk arriving at an NPU — the synthesizer processes these to update
/// preconditions when advancing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant.
    pub time: Time,
    /// The delivered chunk.
    pub chunk: ChunkId,
    /// The link that carried it.
    pub link: LinkId,
    /// Sending NPU.
    pub src: NpuId,
    /// Receiving NPU (now holds `chunk`).
    pub dst: NpuId,
}

/// Event-driven expanding time-expanded network.
///
/// ```
/// use tacos_topology::{Bandwidth, ByteSize, LinkId, LinkSpec, RingOrientation, Time, Topology};
/// use tacos_collective::ChunkId;
/// use tacos_ten::ExpandingTen;
/// let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
/// let ring = Topology::ring(4, spec, RingOrientation::Unidirectional)?;
/// let mut ten = ExpandingTen::new(&ring, ByteSize::mb(1));
/// assert!(ten.is_free(LinkId::new(0)));
/// let arrive = ten.occupy(LinkId::new(0), ChunkId::new(0));
/// assert_eq!(arrive, spec.cost(ByteSize::mb(1)));
/// let events = ten.advance();
/// assert_eq!(events.len(), 1);
/// assert_eq!(ten.now(), arrive);
/// # Ok::<(), tacos_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExpandingTen {
    link_cost: Vec<Time>,
    link_src: Vec<NpuId>,
    link_dst: Vec<NpuId>,
    busy_until: Vec<Time>,
    now: Time,
    // Cost class of each link: the rank of its chunk cost among the
    // fabric's distinct costs.
    link_class: Vec<u32>,
    // The distinct chunk costs, ascending (index = class). `reset` sorts
    // the link costs in place here, so regrouping allocates nothing.
    class_cost: Vec<Time>,
    // One arrival FIFO per class, `(arrival time, link)` in push order,
    // which is time order (module docs). Each holds one slot per link of
    // its class — the congestion-freedom maximum — so `occupy` never
    // reallocates mid-synthesis.
    fifos: Vec<VecDeque<(Time, u32)>>,
    // Min-heap of `(head arrival time, class)`: exactly one entry per
    // non-empty FIFO.
    heads: BinaryHeap<Reverse<(Time, u32)>>,
    in_flight: Vec<Option<ChunkId>>,
    pending: usize,
}

impl ExpandingTen {
    /// Creates the TEN at `t = 0` with per-link costs `α + β·chunk_size`.
    pub fn new(topo: &Topology, chunk_size: ByteSize) -> Self {
        let mut ten = ExpandingTen {
            link_cost: Vec::new(),
            link_src: Vec::new(),
            link_dst: Vec::new(),
            busy_until: Vec::new(),
            now: Time::ZERO,
            link_class: Vec::new(),
            class_cost: Vec::new(),
            fifos: Vec::new(),
            heads: BinaryHeap::new(),
            in_flight: Vec::new(),
            pending: 0,
        };
        ten.reset(topo, chunk_size);
        ten
    }

    /// Rebuilds the TEN for a (possibly different) topology at `t = 0`,
    /// reusing every existing allocation. This is what lets best-of-N
    /// synthesis attempts and scenario grid points share one TEN arena
    /// instead of reallocating per attempt.
    pub fn reset(&mut self, topo: &Topology, chunk_size: ByteSize) {
        let links = topo.links();
        self.link_cost.clear();
        self.link_cost
            .extend(links.iter().map(|l| l.cost(chunk_size)));
        self.link_src.clear();
        self.link_src.extend(links.iter().map(|l| l.src()));
        self.link_dst.clear();
        self.link_dst.extend(links.iter().map(|l| l.dst()));
        self.busy_until.clear();
        self.busy_until.resize(links.len(), Time::ZERO);
        self.now = Time::ZERO;
        self.in_flight.clear();
        self.in_flight.resize(links.len(), None);
        self.pending = 0;

        // Sorted costs: each run of equal costs is one class, and the
        // run's length is the most chunks that class can have in flight.
        self.class_cost.clear();
        self.class_cost.extend_from_slice(&self.link_cost);
        self.class_cost.sort_unstable();
        let mut classes = 0;
        for run in self.class_cost.chunk_by(|a, b| a == b) {
            if classes == self.fifos.len() {
                self.fifos.push(VecDeque::new());
            }
            let fifo = &mut self.fifos[classes];
            fifo.clear();
            // After `clear`, `reserve` guarantees capacity >= the run.
            fifo.reserve(run.len());
            classes += 1;
        }
        self.fifos.truncate(classes);
        self.class_cost.dedup();
        self.link_class.clear();
        self.link_class.extend(self.link_cost.iter().map(|cost| {
            self.class_cost
                .binary_search(cost)
                .expect("every link cost is one of the class costs") as u32
        }));
        self.heads.clear();
        self.heads.reserve(classes);
    }

    /// The current synthesis time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// `true` when every link has the same chunk cost (homogeneous
    /// fabrics: one cost class): cost-prioritized matching degenerates to
    /// a no-op sort the caller can skip.
    pub fn uniform_cost(&self) -> bool {
        self.fifos.len() <= 1
    }

    /// Transmission cost of one chunk over `link`.
    pub fn link_cost(&self, link: LinkId) -> Time {
        self.link_cost[link.index()]
    }

    /// `true` if `link` can accept a chunk at the current time.
    pub fn is_free(&self, link: LinkId) -> bool {
        self.busy_until[link.index()] <= self.now
    }

    /// Matches `chunk` onto `link` starting now; returns the arrival time.
    ///
    /// # Panics
    /// Panics if the link is still busy (the caller must check
    /// [`ExpandingTen::is_free`] — one chunk per link at a time).
    pub fn occupy(&mut self, link: LinkId, chunk: ChunkId) -> Time {
        let idx = link.index();
        assert!(
            self.busy_until[idx] <= self.now,
            "link {link} is busy until {}",
            self.busy_until[idx]
        );
        let arrive = self.now + self.link_cost[idx];
        self.busy_until[idx] = arrive;
        self.in_flight[idx] = Some(chunk);
        let class = self.link_class[idx];
        let fifo = &mut self.fifos[class as usize];
        if fifo.is_empty() {
            self.heads.push(Reverse((arrive, class)));
        }
        fifo.push_back((arrive, link.raw()));
        self.pending += 1;
        arrive
    }

    /// Number of chunks currently in flight.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Advances time to the next arrival instant and returns every arrival
    /// happening exactly then (the next TEN "column"). Returns an empty
    /// vector if nothing is in flight.
    pub fn advance(&mut self) -> Vec<Arrival> {
        let mut events = Vec::new();
        self.advance_into(&mut events);
        events
    }

    /// [`ExpandingTen::advance`], draining into a caller-provided buffer
    /// (cleared first) so the synthesis loop reuses one arrival vector
    /// across every round instead of allocating per column. `out` is left
    /// empty if nothing is in flight.
    pub fn advance_into(&mut self, out: &mut Vec<Arrival>) {
        out.clear();
        let Some(&Reverse((t, _))) = self.heads.peek() else {
            return;
        };
        self.now = t;
        while let Some(mut head) = self.heads.peek_mut() {
            let Reverse((due, class)) = *head;
            if due > t {
                break;
            }
            let fifo = &mut self.fifos[class as usize];
            while let Some(&(time, link_raw)) = fifo.front() {
                if time > t {
                    break;
                }
                fifo.pop_front();
                let idx = link_raw as usize;
                let chunk = self.in_flight[idx]
                    .take()
                    .expect("every queued arrival has an in-flight chunk");
                out.push(Arrival {
                    time,
                    chunk,
                    link: LinkId::new(link_raw),
                    src: self.link_src[idx],
                    dst: self.link_dst[idx],
                });
            }
            // Re-key the class by its new head in place (one sift), or
            // drop it once its FIFO is empty.
            match fifo.front() {
                Some(&(next, _)) => *head = Reverse((next, class)),
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        self.pending -= out.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_topology::{Bandwidth, LinkSpec, NpuId, TopologyBuilder};

    fn hetero_pair() -> Topology {
        // Paper Fig. 12(a)-style heterogeneous 3-NPU topology.
        let fast = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(100.0));
        let slow = LinkSpec::new(Time::from_micros(1.0), Bandwidth::gbps(70.0));
        let mut b = TopologyBuilder::new("fig12");
        b.npus(3);
        b.link(NpuId::new(0), NpuId::new(1), fast);
        b.link(NpuId::new(1), NpuId::new(0), fast);
        b.link(NpuId::new(1), NpuId::new(2), slow);
        b.link(NpuId::new(2), NpuId::new(1), slow);
        b.build().unwrap()
    }

    #[test]
    fn heterogeneous_event_times() {
        let topo = hetero_pair();
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        // Fast link: 0.5 + 10 = 10.5 us. Slow: 1.0 + 14.2857.. us.
        let fast_arrive = ten.occupy(LinkId::new(0), ChunkId::new(0));
        let slow_arrive = ten.occupy(LinkId::new(2), ChunkId::new(1));
        assert_eq!(fast_arrive, Time::from_micros(10.5));
        assert!(slow_arrive > fast_arrive);
        assert_eq!(ten.pending(), 2);

        // First column: the fast arrival only.
        let events = ten.advance();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].chunk, ChunkId::new(0));
        assert_eq!(events[0].dst, NpuId::new(1));
        assert_eq!(ten.now(), fast_arrive);
        // The fast link is free again; the slow one still busy.
        assert!(ten.is_free(LinkId::new(0)));
        assert!(!ten.is_free(LinkId::new(2)));

        // Second column: the slow arrival.
        let events = ten.advance();
        assert_eq!(events.len(), 1);
        assert_eq!(ten.now(), slow_arrive);
        assert_eq!(ten.pending(), 0);
        assert!(ten.advance().is_empty());
    }

    #[test]
    fn homogeneous_degenerates_to_uniform_steps() {
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        let topo =
            Topology::ring(4, spec, tacos_topology::RingOrientation::Unidirectional).unwrap();
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        let step = spec.cost(ByteSize::mb(1));
        // Occupy all four links; all arrive in the same column.
        for l in 0..4 {
            ten.occupy(LinkId::new(l), ChunkId::new(l));
        }
        let events = ten.advance();
        assert_eq!(events.len(), 4);
        assert_eq!(ten.now(), step);
        // Next round lands exactly at 2*step: the uniform TEN grid.
        ten.occupy(LinkId::new(0), ChunkId::new(9));
        let events = ten.advance();
        assert_eq!(events.len(), 1);
        assert_eq!(ten.now(), step * 2);
    }

    /// Paper Fig. 7: the unidirectional 4-ring All-Gather matches every
    /// TEN edge in each of its 3 uniform time spans, one column per span.
    #[test]
    fn fig7_ring_all_gather_fills_every_column() {
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        let ring =
            Topology::ring(4, spec, tacos_topology::RingOrientation::Unidirectional).unwrap();
        let step = spec.cost(ByteSize::mb(1));
        let mut ten = ExpandingTen::new(&ring, ByteSize::mb(1));
        for s in 0..3u32 {
            assert_eq!(ten.now(), step * u64::from(s));
            for l in 0..4u32 {
                // At span s, NPU i forwards chunk (i - s) mod 4 to i + 1.
                let link = ring.out_links(NpuId::new(l))[0];
                ten.occupy(link, ChunkId::new((l + 4 - s) % 4));
            }
            let column = ten.advance();
            assert_eq!(column.len(), 4, "span {s} uses every link");
            assert!(column.iter().all(|a| a.time == step * u64::from(s + 1)));
        }
        assert_eq!(ten.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "is busy until")]
    fn double_occupy_panics() {
        let topo = hetero_pair();
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        ten.occupy(LinkId::new(0), ChunkId::new(0));
        ten.occupy(LinkId::new(0), ChunkId::new(1));
    }

    #[test]
    fn reset_reuses_without_stale_state() {
        let hetero = hetero_pair();
        let mut ten = ExpandingTen::new(&hetero, ByteSize::mb(1));
        assert!(!ten.uniform_cost());
        ten.occupy(LinkId::new(0), ChunkId::new(0));
        ten.occupy(LinkId::new(2), ChunkId::new(1));
        ten.advance();

        // Rebuild for a different (homogeneous) topology while a chunk is
        // still in flight: time, busy state, and every queue must all be
        // back to zero.
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        let ring =
            Topology::ring(4, spec, tacos_topology::RingOrientation::Unidirectional).unwrap();
        ten.reset(&ring, ByteSize::mb(1));
        assert!(ten.uniform_cost());
        assert_eq!(ten.now(), Time::ZERO);
        assert_eq!(ten.pending(), 0);
        assert!(ten.advance().is_empty());
        for l in 0..4 {
            assert!(ten.is_free(LinkId::new(l)));
        }
        let arrive = ten.occupy(LinkId::new(0), ChunkId::new(0));
        assert_eq!(arrive, spec.cost(ByteSize::mb(1)));
    }

    #[test]
    fn advance_into_reuses_buffer_and_clears_it() {
        let topo = hetero_pair();
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        let mut events = vec![Arrival {
            time: Time::ZERO,
            chunk: ChunkId::new(9),
            link: LinkId::new(0),
            src: NpuId::new(0),
            dst: NpuId::new(1),
        }];
        ten.occupy(LinkId::new(0), ChunkId::new(0));
        ten.advance_into(&mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].chunk, ChunkId::new(0));
        // Nothing in flight: buffer is cleared, not appended to.
        ten.advance_into(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn simultaneous_arrivals_batched() {
        let topo = hetero_pair();
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        // Two fast links in opposite directions: same cost, same column.
        ten.occupy(LinkId::new(0), ChunkId::new(0));
        ten.occupy(LinkId::new(1), ChunkId::new(1));
        let events = ten.advance();
        assert_eq!(events.len(), 2);
        let chunks: Vec<u32> = events.iter().map(|e| e.chunk.raw()).collect();
        assert!(chunks.contains(&0) && chunks.contains(&1));
    }

    /// Two classes due at once: one column drains both FIFOs, and a class
    /// whose FIFO still holds a later arrival stays indexed by it.
    #[test]
    fn one_column_drains_every_class_due_then() {
        // Chunk costs 10 us (fast) and 20 us (slow).
        let fast = LinkSpec::new(Time::ZERO, Bandwidth::gbps(100.0));
        let slow = LinkSpec::new(Time::ZERO, Bandwidth::gbps(50.0));
        let mut b = TopologyBuilder::new("two-costs");
        b.npus(3);
        b.bidi_link(NpuId::new(0), NpuId::new(1), fast);
        b.bidi_link(NpuId::new(0), NpuId::new(2), slow);
        let topo = b.build().unwrap();
        let us = Time::from_micros;
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        assert_eq!(ten.occupy(LinkId::new(2), ChunkId::new(0)), us(20.0));
        assert_eq!(ten.occupy(LinkId::new(0), ChunkId::new(1)), us(10.0));
        assert_eq!(ten.advance().len(), 1);
        // At t = 10 the slow FIFO gets a second entry, due after the
        // next column.
        assert_eq!(ten.occupy(LinkId::new(3), ChunkId::new(2)), us(30.0));
        assert_eq!(ten.occupy(LinkId::new(0), ChunkId::new(3)), us(20.0));
        let events = ten.advance();
        assert_eq!(ten.now(), us(20.0));
        let mut links: Vec<u32> = events.iter().map(|e| e.link.raw()).collect();
        links.sort_unstable();
        assert_eq!(links, [0, 2]);
        assert_eq!(ten.pending(), 1);
        let events = ten.advance();
        assert_eq!((ten.now(), events.len()), (us(30.0), 1));
        assert_eq!(events[0].link, LinkId::new(3));
        assert_eq!(ten.pending(), 0);
    }
}
