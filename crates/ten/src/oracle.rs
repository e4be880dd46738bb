//! Test-only oracle for [`ExpandingTen`]'s arrival queue: every event in
//! one `(time, link)` min-heap, which needs no argument about push order,
//! and the proptest holding the per-cost FIFOs to its observable
//! behaviour.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use tacos_collective::ChunkId;
use tacos_topology::{
    Bandwidth, ByteSize, LinkId, LinkSpec, NpuId, Time, Topology, TopologyBuilder,
};

use crate::expanding::{Arrival, ExpandingTen};

/// An expanding TEN whose arrivals all go through one binary heap.
struct HeapTen {
    link_cost: Vec<Time>,
    link_src: Vec<NpuId>,
    link_dst: Vec<NpuId>,
    busy_until: Vec<Time>,
    now: Time,
    queue: BinaryHeap<Reverse<(Time, u32)>>,
    in_flight: Vec<Option<ChunkId>>,
}

impl HeapTen {
    fn new(topo: &Topology, chunk_size: ByteSize) -> Self {
        let links = topo.links();
        HeapTen {
            link_cost: links.iter().map(|l| l.cost(chunk_size)).collect(),
            link_src: links.iter().map(|l| l.src()).collect(),
            link_dst: links.iter().map(|l| l.dst()).collect(),
            busy_until: vec![Time::ZERO; links.len()],
            now: Time::ZERO,
            queue: BinaryHeap::new(),
            in_flight: vec![None; links.len()],
        }
    }

    fn is_free(&self, link: LinkId) -> bool {
        self.busy_until[link.index()] <= self.now
    }

    fn occupy(&mut self, link: LinkId, chunk: ChunkId) -> Time {
        let idx = link.index();
        assert!(self.is_free(link));
        let arrive = self.now + self.link_cost[idx];
        self.busy_until[idx] = arrive;
        self.in_flight[idx] = Some(chunk);
        self.queue.push(Reverse((arrive, link.raw())));
        arrive
    }

    fn advance(&mut self) -> Vec<Arrival> {
        let mut out = Vec::new();
        let Some(&Reverse((t, _))) = self.queue.peek() else {
            return out;
        };
        self.now = t;
        while let Some(&Reverse((time, link_raw))) = self.queue.peek() {
            if time > t {
                break;
            }
            self.queue.pop();
            let idx = link_raw as usize;
            out.push(Arrival {
                time,
                chunk: self.in_flight[idx].take().unwrap(),
                link: LinkId::new(link_raw),
                src: self.link_src[idx],
                dst: self.link_dst[idx],
            });
        }
        out
    }
}

/// A random fabric whose links draw their spec from a palette of
/// `distinct` specs with pairwise different chunk costs (one of them
/// zero-cost when `zero` is set).
fn fabric(npus: usize, links: &[(usize, usize, usize)], distinct: usize, zero: bool) -> Topology {
    let palette: Vec<LinkSpec> = (0..distinct)
        .map(|i| {
            if zero && i == 0 {
                LinkSpec::new(Time::ZERO, Bandwidth::gbps(1e18))
            } else {
                LinkSpec::new(Time::from_micros(0.25 * i as f64), Bandwidth::gbps(50.0))
            }
        })
        .collect();
    let mut b = TopologyBuilder::new("random");
    b.npus(npus);
    for (i, &(src, hop, pick)) in links.iter().enumerate() {
        // Every spec appears once before any repeats, so the fabric has
        // exactly `distinct` cost classes.
        let spec = palette[if i < distinct { i } else { pick % distinct }];
        let dst = (src + 1 + hop % (npus - 1)) % npus;
        b.link(NpuId::new(src as u32), NpuId::new(dst as u32), spec);
    }
    b.build().unwrap()
}

fn sorted(mut events: Vec<Arrival>) -> Vec<Arrival> {
    events.sort_unstable_by_key(|e| e.link.raw());
    events
}

/// Replays `ops` on both queues and compares them after every step. An
/// op `< 3` of 4 occupies the `pick`-th free link (if any); the rest
/// advance one column.
fn replay(ten: &mut ExpandingTen, topo: &Topology, chunk_size: ByteSize, ops: &[(u8, usize)]) {
    let mut oracle = HeapTen::new(topo, chunk_size);
    let links = topo.num_links();
    for (step, &(op, pick)) in ops.iter().enumerate() {
        // A zero-cost link reads as free while its chunk is still in
        // flight; like the matcher, never put a second chunk on it.
        let free: Vec<LinkId> = (0..links as u32)
            .map(LinkId::new)
            .filter(|&l| oracle.is_free(l) && oracle.in_flight[l.index()].is_none())
            .collect();
        if op % 4 < 3 && !free.is_empty() {
            let link = free[pick % free.len()];
            let chunk = ChunkId::new(step as u32);
            assert_eq!(ten.occupy(link, chunk), oracle.occupy(link, chunk));
        } else {
            assert_eq!(
                sorted(ten.advance()),
                sorted(oracle.advance()),
                "step {step}"
            );
        }
        assert_eq!(ten.now(), oracle.now, "step {step}");
        assert_eq!(ten.pending(), oracle.queue.len(), "step {step}");
        for l in (0..links as u32).map(LinkId::new) {
            assert_eq!(ten.is_free(l), oracle.is_free(l), "step {step}");
        }
    }
    while ten.pending() > 0 {
        assert_eq!(sorted(ten.advance()), sorted(oracle.advance()));
        assert_eq!(ten.now(), oracle.now);
    }
    assert!(oracle.advance().is_empty() && ten.advance().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-cost FIFOs and the single heap agree on every observable:
    /// arrival times, `now`, `pending`, link freedom and each column's
    /// arrival multiset, for fabrics with one class up to one class per
    /// link. Each case replays two fabrics on one TEN, so `reset` between
    /// differently-grouped fabrics is covered too.
    #[test]
    fn per_cost_fifos_match_the_heap(
        npus in 2usize..7,
        links in prop::collection::vec((0usize..6, 0usize..6, 0usize..16), 1..14),
        distinct_pick in 0usize..16,
        all_distinct in any::<bool>(),
        zero in any::<bool>(),
        ops in prop::collection::vec((any::<u8>(), any::<usize>()), 0..160),
        second in prop::collection::vec((0usize..6, 0usize..6, 0usize..16), 1..14),
        ops2 in prop::collection::vec((any::<u8>(), any::<usize>()), 0..80),
    ) {
        let links: Vec<_> = links.into_iter().map(|(s, h, p)| (s % npus, h, p)).collect();
        let distinct = if all_distinct { links.len() } else { 1 + distinct_pick % links.len() };
        let topo = fabric(npus, &links, distinct, zero);
        let chunk = ByteSize::mb(1);
        let mut ten = ExpandingTen::new(&topo, chunk);
        prop_assert_eq!(ten.uniform_cost(), distinct == 1);
        replay(&mut ten, &topo, chunk, &ops);

        let second: Vec<_> = second.into_iter().map(|(s, h, p)| (s % npus, h, p)).collect();
        let topo = fabric(npus, &second, second.len(), false);
        ten.reset(&topo, chunk);
        replay(&mut ten, &topo, chunk, &ops2);
    }
}
