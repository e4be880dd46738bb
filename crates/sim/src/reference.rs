//! The event engine as it was before the flat tables: one `Vec` per
//! transfer, every event through one heap. Kept as the oracle the engine
//! and plan replay are checked against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_topology::routing::{route_path, RoutingTable};
use tacos_topology::{LinkId, Time, Topology};

use crate::error::SimError;
use crate::report::{BusyInterval, SimReport};
use crate::simulator::{RouteModel, SimConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Message {
    transfer: u32,
    hop: u32,
}

/// Queue priority: planned start (or MAX), ready time, sequence.
type Priority = (u64, u64, u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Release(Message),
    Complete(Message, LinkId),
}

struct LinkState {
    busy_until: Time,
    pending: BinaryHeap<Reverse<(Priority, Message)>>,
}

struct EngineState {
    links: Vec<LinkState>,
    link_bytes: Vec<u64>,
    link_busy: Vec<Time>,
    intervals: Vec<BusyInterval>,
    events: BinaryHeap<Reverse<(Time, u64, Event)>>,
    seq: u64,
    messages: u64,
}

impl EngineState {
    fn try_start(
        &mut self,
        link_id: LinkId,
        now: Time,
        cost_of: impl Fn(Message, LinkId) -> (Time, u64),
    ) {
        let ls = &mut self.links[link_id.index()];
        if ls.busy_until <= now {
            if let Some(Reverse((_, msg))) = ls.pending.pop() {
                let (cost, bytes) = cost_of(msg, link_id);
                let done = now + cost;
                ls.busy_until = done;
                self.link_busy[link_id.index()] += cost;
                self.intervals.push(BusyInterval {
                    link: link_id,
                    start: now,
                    duration: cost,
                    bytes,
                });
                self.seq += 1;
                self.events
                    .push(Reverse((done, self.seq, Event::Complete(msg, link_id))));
                self.messages += 1;
            }
        }
    }

    fn push_event(&mut self, time: Time, event: Event) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, event)));
    }
}

/// What `Simulator::with_config(config).simulate(topo, algo)` returned
/// before plan replay and the flat engine.
pub(crate) fn simulate(
    config: &SimConfig,
    topo: &Topology,
    algo: &CollectiveAlgorithm,
) -> Result<SimReport, SimError> {
    if topo.num_npus() != algo.num_npus() {
        return Err(SimError::NpuCountMismatch {
            topology: topo.num_npus(),
            algorithm: algo.num_npus(),
        });
    }
    let chunk_size = algo.chunk_size();
    let transfers = algo.transfers();

    let needs_routing = transfers.iter().any(|t| t.link().is_none());
    let table = needs_routing.then(|| RoutingTable::new(topo, chunk_size));
    let mut hops: Vec<Vec<LinkId>> = Vec::with_capacity(transfers.len());
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
                hops.push(vec![link_id]);
            }
            None => {
                let table = table.as_ref().expect("built when needed");
                let path =
                    route_path(topo, table, t.src(), t.dst()).ok_or(SimError::Unroutable {
                        src: t.src().index(),
                        dst: t.dst().index(),
                    })?;
                hops.push(path);
            }
        }
    }

    let mut deps_remaining: Vec<u32> = transfers.iter().map(|t| t.deps().len() as u32).collect();
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); transfers.len()];
    for (i, t) in transfers.iter().enumerate() {
        for d in t.deps() {
            dependents[d.index()].push(i as u32);
        }
    }
    let planned: Vec<Option<Time>> = transfers.iter().map(|t| t.start()).collect();
    let release_time = |msg: Message, ready: Time| -> Time {
        if msg.hop == 0 {
            planned[msg.transfer as usize].map_or(ready, |p| p.max(ready))
        } else {
            ready
        }
    };
    let cut_through = config.route_model() == RouteModel::CutThrough;
    let cost_of = |msg: Message, link_id: LinkId| -> (Time, u64) {
        let link = topo.link(link_id);
        let payload = transfers[msg.transfer as usize].payload(chunk_size);
        let full = link.cost(payload);
        let cost = if cut_through && msg.hop > 0 {
            full - link.spec().alpha()
        } else {
            full
        };
        (cost, payload.as_u64())
    };

    let mut engine = EngineState {
        links: (0..topo.num_links())
            .map(|_| LinkState {
                busy_until: Time::ZERO,
                pending: BinaryHeap::new(),
            })
            .collect(),
        link_bytes: vec![0u64; topo.num_links()],
        link_busy: vec![Time::ZERO; topo.num_links()],
        intervals: Vec::new(),
        events: BinaryHeap::new(),
        seq: 0,
        messages: 0,
    };
    for (i, &remaining) in deps_remaining.iter().enumerate() {
        if remaining == 0 && !hops[i].is_empty() {
            let msg = Message {
                transfer: i as u32,
                hop: 0,
            };
            engine.push_event(release_time(msg, Time::ZERO), Event::Release(msg));
        }
    }

    let mut clock = Time::ZERO;
    while let Some(Reverse((time, _, event))) = engine.events.pop() {
        clock = clock.max(time);
        match event {
            Event::Release(msg) => {
                let link_id = hops[msg.transfer as usize][msg.hop as usize];
                engine.seq += 1;
                let prio: Priority = (
                    planned[msg.transfer as usize].map_or(u64::MAX, Time::as_ps),
                    time.as_ps(),
                    engine.seq,
                );
                engine.links[link_id.index()]
                    .pending
                    .push(Reverse((prio, msg)));
                let payload = transfers[msg.transfer as usize].payload(chunk_size);
                engine.link_bytes[link_id.index()] += payload.as_u64();
                engine.try_start(link_id, time, cost_of);
            }
            Event::Complete(msg, link_id) => {
                let t_idx = msg.transfer as usize;
                if (msg.hop as usize) + 1 < hops[t_idx].len() {
                    let next = Message {
                        transfer: msg.transfer,
                        hop: msg.hop + 1,
                    };
                    engine.push_event(time, Event::Release(next));
                } else {
                    for d in std::mem::take(&mut dependents[t_idx]) {
                        deps_remaining[d as usize] -= 1;
                        if deps_remaining[d as usize] == 0 {
                            let msg = Message {
                                transfer: d,
                                hop: 0,
                            };
                            engine.push_event(release_time(msg, time), Event::Release(msg));
                        }
                    }
                }
                engine.try_start(link_id, time, cost_of);
            }
        }
    }

    Ok(SimReport::new(
        clock,
        engine.link_bytes,
        engine.link_busy,
        engine.intervals,
        engine.messages,
        algo.total_size(),
    ))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use tacos_collective::algorithm::{
        AlgorithmBuilder, CollectiveAlgorithm, TransferId, TransferKind,
    };
    use tacos_collective::{ChunkId, Collective, CollectivePattern};
    use tacos_core::{Synthesizer, SynthesizerConfig};
    use tacos_topology::{
        Bandwidth, ByteSize, LinkId, LinkSpec, NpuId, RingOrientation, Time, Topology,
        TopologyBuilder,
    };

    use super::simulate as reference;
    use crate::simulator::{replay, Engine};
    use crate::{RouteModel, SimConfig, SimError, Simulator};

    /// A xorshift stream, so one `u64` drives a whole generated case.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn paper_spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    /// A strongly connected random fabric: a one-way ring backbone over
    /// a random permutation (so some sends need several hops) plus random
    /// extra links, α and β drawn from a few values so that events tie.
    fn random_fabric(n: usize, next: &mut impl FnMut() -> u64) -> Topology {
        let mut b = TopologyBuilder::new(format!("random{n}"));
        b.npus(n);
        let spec = |r: u64| {
            LinkSpec::new(
                Time::from_nanos(100.0 * (r % 4) as f64),
                Bandwidth::gbps(25.0 * (1 + (r >> 8) % 3) as f64),
            )
        };
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        for i in 0..n {
            let r = next();
            b.link(NpuId::new(perm[i]), NpuId::new(perm[(i + 1) % n]), spec(r));
        }
        for _ in 0..next() % (2 * n as u64) {
            let src = (next() % n as u64) as u32;
            let dst = (src + 1 + (next() % (n as u64 - 1)) as u32) % n as u32;
            let r = next();
            b.link(NpuId::new(src), NpuId::new(dst), spec(r));
        }
        b.build().expect("a ring backbone is strongly connected")
    }

    /// Up to three dependencies on earlier transfers.
    fn random_deps(i: usize, next: &mut impl FnMut() -> u64) -> Vec<TransferId> {
        if i == 0 {
            return Vec::new();
        }
        (0..next() % 4)
            .map(|_| TransferId::new((next() % i as u64) as u32))
            .collect()
    }

    /// A baseline-shaped algorithm: unscheduled sends between random NPUs
    /// (routed, often over several hops), aggregated messages, sends
    /// pinned to a link, and random dependencies.
    fn random_baseline(topo: &Topology, transfers: usize, seed: u64) -> CollectiveAlgorithm {
        let mut next = stream(seed);
        let n = topo.num_npus();
        let mut b =
            AlgorithmBuilder::new("random", n, ByteSize::kb(64), ByteSize::kb(64 * n as u64));
        for i in 0..transfers {
            let deps = random_deps(i, &mut next);
            let chunk = ChunkId::new((next() % 8) as u32);
            let count = 1 + (next() % 3) as u32;
            let kind = if next().is_multiple_of(2) {
                TransferKind::Copy
            } else {
                TransferKind::Reduce
            };
            if next().is_multiple_of(4) {
                let link = topo.links()[(next() % topo.num_links() as u64) as usize];
                b.push_on_link(chunk, count, link.src(), link.dst(), kind, link.id(), deps);
            } else {
                let src = (next() % n as u64) as u32;
                let dst = (src + 1 + (next() % (n as u64 - 1)) as u32) % n as u32;
                b.push_counted(chunk, count, NpuId::new(src), NpuId::new(dst), kind, deps);
            }
        }
        b.build()
    }

    /// A scheduled algorithm whose plan is usually *not* valid: random
    /// links, starts and deps, durations equal to the link cost or off by
    /// one. The engine serves it in planned-start order.
    fn random_plan(topo: &Topology, transfers: usize, seed: u64) -> CollectiveAlgorithm {
        let mut next = stream(seed);
        let n = topo.num_npus();
        let chunk = ByteSize::kb(64);
        let mut b = AlgorithmBuilder::new("plan", n, chunk, ByteSize::kb(64 * n as u64));
        for i in 0..transfers {
            let deps = random_deps(i, &mut next);
            let link = topo.links()[(next() % topo.num_links() as u64) as usize];
            let cost = link.cost(chunk);
            let start = cost * (next() % 6) / 2;
            let duration = if next().is_multiple_of(3) {
                cost + Time::from_ps(1)
            } else {
                cost
            };
            b.push_scheduled(
                ChunkId::new((next() % 8) as u32),
                link.src(),
                link.dst(),
                TransferKind::Copy,
                link.id(),
                start,
                duration,
                deps,
            );
        }
        b.build()
    }

    fn config(store_and_forward: bool) -> SimConfig {
        SimConfig::default().with_route_model(if store_and_forward {
            RouteModel::StoreAndForward
        } else {
            RouteModel::CutThrough
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Baselines never replay, and the flat engine reproduces the
        /// reference bit for bit, interval order included.
        #[test]
        fn the_engine_equals_the_reference_on_baselines(
            n in 2usize..9,
            transfers in 0usize..60,
            seed in any::<u64>(),
            store_and_forward in any::<bool>(),
        ) {
            let mut next = stream(seed);
            let topo = random_fabric(n, &mut next);
            let algo = random_baseline(&topo, transfers, next());
            let config = config(store_and_forward);
            prop_assert!(transfers == 0 || replay(&topo, &algo).is_none());
            let expected = reference(&config, &topo, &algo).unwrap();
            let got = Simulator::with_config(config).simulate(&topo, &algo).unwrap();
            prop_assert_eq!(got, expected);
        }

        /// On scheduled algorithms the engine honours planned-start order
        /// exactly as the reference does; when such a plan happens to pass
        /// the replay checks, replay agrees up to the order of equal starts.
        #[test]
        fn the_engine_equals_the_reference_on_arbitrary_plans(
            n in 2usize..7,
            transfers in 1usize..40,
            seed in any::<u64>(),
        ) {
            let mut next = stream(seed);
            let topo = random_fabric(n, &mut next);
            let algo = random_plan(&topo, transfers, next());
            let config = SimConfig::default();
            let expected = reference(&config, &topo, &algo).unwrap();
            let engine = Engine::new(&topo, &algo, RouteModel::CutThrough).unwrap().run(&algo).unwrap();
            prop_assert_eq!(&engine, &expected);
            let got = Simulator::new().simulate(&topo, &algo).unwrap();
            if replay(&topo, &algo).is_none() {
                prop_assert_eq!(got, expected);
            } else {
                prop_assert_eq!(got.with_sorted_intervals(), expected.with_sorted_intervals());
            }
        }
    }

    /// A TACOS schedule on a homogeneous, heterogeneous or degraded fabric.
    fn synthesized(
        fabric: u64,
        pattern: u64,
        chunks: usize,
        seed: u64,
    ) -> Option<(Topology, CollectiveAlgorithm)> {
        let mut next = stream(seed);
        let topo = match fabric {
            0 => match next() % 4 {
                0 => Topology::ring(
                    2 + (next() % 7) as usize,
                    paper_spec(),
                    RingOrientation::Bidirectional,
                ),
                1 => Topology::mesh_2d(
                    2 + (next() % 3) as usize,
                    2 + (next() % 3) as usize,
                    paper_spec(),
                ),
                2 => Topology::torus_2d(3, 2 + (next() % 3) as usize, paper_spec()),
                _ => Topology::fully_connected(2 + (next() % 5) as usize, paper_spec()),
            }
            .ok()?,
            1 => random_fabric(3 + (next() % 8) as usize, &mut next),
            _ => {
                let healthy = Topology::torus_2d(3, 3, paper_spec()).ok()?;
                let victim = healthy.links()[(next() % healthy.num_links() as u64) as usize].id();
                healthy.without_links(&[victim]).ok()?
            }
        };
        let pattern = match pattern {
            0 => CollectivePattern::AllGather,
            1 => CollectivePattern::ReduceScatter,
            _ => CollectivePattern::AllReduce,
        };
        let n = topo.num_npus();
        let collective =
            Collective::with_chunking(pattern, n, chunks, ByteSize::mb(n as u64)).ok()?;
        let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(seed));
        let algo = synth.synthesize(&topo, &collective).ok()?.into_algorithm();
        Some((topo, algo))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every TACOS schedule takes plan replay, and replay equals the
        /// reference on every field, intervals as a multiset in
        /// nondecreasing start order.
        #[test]
        fn tacos_schedules_replay_to_the_reference(
            fabric in 0u64..3,
            pattern in 0u64..3,
            chunks in 1usize..3,
            seed in any::<u64>(),
        ) {
            // A degraded fabric that lost its connectivity has no schedule.
            let Some((topo, algo)) = synthesized(fabric, pattern, chunks, seed) else {
                continue;
            };
            prop_assert!(replay(&topo, &algo).is_some(), "{} did not replay", topo.name());
            let expected = reference(&SimConfig::default(), &topo, &algo).unwrap();
            let got = Simulator::new().simulate(&topo, &algo).unwrap();
            prop_assert_eq!(got.collective_time(), algo.collective_time());
            prop_assert!(got.intervals().windows(2).all(|w| w[0].start <= w[1].start));
            prop_assert_eq!(got.with_sorted_intervals(), expected.with_sorted_intervals());
        }
    }

    /// A two-NPU, one-way ring: link 0 is 0 -> 1, link 1 is 1 -> 0.
    fn pair() -> Topology {
        Topology::ring(2, paper_spec(), RingOrientation::Unidirectional).unwrap()
    }

    fn cost() -> Time {
        paper_spec().cost(ByteSize::mb(1))
    }

    /// One scheduled transfer: src, dst, link, start, duration, deps.
    type Row = (u32, u32, u32, Time, Time, Vec<TransferId>);

    /// A plan on [`pair`], one transfer per row.
    fn plan(rows: &[Row]) -> CollectiveAlgorithm {
        let mut b = AlgorithmBuilder::new("plan", 2, ByteSize::mb(1), ByteSize::mb(2));
        for (chunk, (src, dst, link, start, duration, deps)) in rows.iter().enumerate() {
            b.push_scheduled(
                ChunkId::new(chunk as u32),
                NpuId::new(*src),
                NpuId::new(*dst),
                TransferKind::Copy,
                LinkId::new(*link),
                *start,
                *duration,
                deps.clone(),
            );
        }
        b.build()
    }

    /// Each replay check, broken once: the plan reaches the engine, and
    /// the answer is the reference's.
    #[test]
    fn each_failed_replay_check_reaches_the_engine() {
        let topo = pair();
        let c = cost();
        let first = TransferId::new(0);
        let cases = [
            (
                "overlap on one link",
                plan(&[
                    (0, 1, 0, Time::ZERO, c, vec![]),
                    (0, 1, 0, c / 2, c, vec![]),
                ]),
            ),
            (
                "start before a dependency ends",
                plan(&[
                    (0, 1, 0, Time::ZERO, c, vec![]),
                    (1, 0, 1, c / 2, c, vec![first]),
                ]),
            ),
            (
                "duration is not the link cost",
                plan(&[
                    (0, 1, 0, Time::ZERO, c - Time::from_ps(1), vec![]),
                    (1, 0, 1, c, c, vec![first]),
                ]),
            ),
            (
                "link does not exist",
                plan(&[(0, 1, 7, Time::ZERO, c, vec![])]),
            ),
            (
                "link joins other NPUs",
                plan(&[(0, 1, 1, Time::ZERO, c, vec![])]),
            ),
        ];
        for (what, algo) in &cases {
            assert!(replay(&topo, algo).is_none(), "{what}: replayed");
            let got = Simulator::new().simulate(&topo, algo);
            assert_eq!(got, reference(&SimConfig::default(), &topo, algo), "{what}");
        }
        assert!(matches!(
            Simulator::new().simulate(&topo, &cases[3].1),
            Err(SimError::BadLink { transfer: 0, .. })
        ));
        // The overlap serializes; the early dependent waits for its input.
        let overlap = Simulator::new().simulate(&topo, &cases[0].1).unwrap();
        assert_eq!(overlap.collective_time(), c * 2);
        let early = Simulator::new().simulate(&topo, &cases[1].1).unwrap();
        assert_eq!(early.collective_time(), c * 2);
    }

    /// The same plan with every check passing replays, back to back on
    /// one link and across a dependency.
    #[test]
    fn a_valid_plan_replays() {
        let topo = pair();
        let c = cost();
        let algo = plan(&[
            (0, 1, 0, Time::ZERO, c, vec![]),
            (0, 1, 0, c, c, vec![]),
            (1, 0, 1, c * 2, c, vec![TransferId::new(1)]),
        ]);
        let replayed = replay(&topo, &algo).expect("valid plan");
        assert_eq!(replayed.collective_time(), c * 3);
        assert_eq!(
            replayed,
            reference(&SimConfig::default(), &topo, &algo).unwrap()
        );
    }
}
