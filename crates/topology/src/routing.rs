//! Static shortest-path routing.
//!
//! Topology-unaware baseline algorithms (e.g. Direct on a Ring) must send
//! between NPUs that share no physical link; the congestion-aware simulator
//! routes such messages over α–β-shortest paths computed here. Ties are
//! broken deterministically (smallest link id) so simulations are
//! reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ids::{LinkId, NpuId};
use crate::topology::Topology;
use crate::units::{ByteSize, Time};

/// Dijkstra from `src`: cost of the cheapest path to every NPU for messages
/// of `size` (cost per hop = `α + β·size`). Unreachable NPUs get
/// [`Time::MAX`].
pub fn shortest_path_times(topo: &Topology, src: NpuId, size: ByteSize) -> Vec<Time> {
    let mut dist = vec![Time::MAX; topo.num_npus()];
    dist[src.index()] = Time::ZERO;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((Time::ZERO, src)));
    while let Some(Reverse((d, node))) = heap.pop() {
        if d > dist[node.index()] {
            continue;
        }
        for &lid in topo.out_links(node) {
            let link = topo.link(lid);
            let next = d + link.cost(size);
            if next < dist[link.dst().index()] {
                dist[link.dst().index()] = next;
                heap.push(Reverse((next, link.dst())));
            }
        }
    }
    dist
}

/// Per-destination next-hop table over α–β-shortest paths.
///
/// `RoutingTable` stores, for every `(current, destination)` pair, the link
/// to take next. It is computed once per (topology, message size) and reused
/// by the simulator for every routed message.
///
/// ```
/// use tacos_topology::{Bandwidth, ByteSize, LinkSpec, NpuId, RingOrientation, Time, Topology};
/// use tacos_topology::routing::{route_path, RoutingTable};
/// let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
/// let ring = Topology::ring(4, spec, RingOrientation::Unidirectional)?;
/// let table = RoutingTable::new(&ring, ByteSize::mb(1));
/// // On a unidirectional 4-ring the way from NPU3 to NPU1 is 3 -> 0 -> 1.
/// let path = route_path(&ring, &table, NpuId::new(3), NpuId::new(1)).unwrap();
/// assert_eq!(path.len(), 2);
/// # Ok::<(), tacos_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    num_npus: usize,
    /// `next[dst][cur]` = link leaving `cur` toward `dst` (`u32::MAX` = none).
    next: Vec<Vec<u32>>,
}

impl RoutingTable {
    /// Builds the table for messages of `size` bytes.
    pub fn new(topo: &Topology, size: ByteSize) -> Self {
        let n = topo.num_npus();
        let mut next = vec![vec![u32::MAX; n]; n];
        // `cost_row[cur]` = total path cost from `cur` to the current `dst`.
        let mut cost_row = vec![Time::MAX; n];
        // Reverse Dijkstra from every destination, relaxing over in-links.
        for dst in topo.npus() {
            let next_row = &mut next[dst.index()];
            cost_row.fill(Time::MAX);
            cost_row[dst.index()] = Time::ZERO;
            let mut heap = BinaryHeap::new();
            heap.push(Reverse((Time::ZERO, dst)));
            while let Some(Reverse((d, node))) = heap.pop() {
                if d > cost_row[node.index()] {
                    continue;
                }
                for &lid in topo.in_links(node) {
                    let link = topo.link(lid);
                    let source = link.src();
                    let cand = d + link.cost(size);
                    let cur = cost_row[source.index()];
                    // Deterministic tie-break: keep the smaller link id.
                    if cand < cur || (cand == cur && lid.raw() < next_row[source.index()]) {
                        cost_row[source.index()] = cand;
                        next_row[source.index()] = lid.raw();
                        if cand < cur {
                            heap.push(Reverse((cand, source)));
                        }
                    }
                }
            }
        }
        RoutingTable { num_npus: n, next }
    }

    /// The next link to take from `cur` toward `dst`, or `None` if `dst` is
    /// unreachable (or `cur == dst`).
    pub fn next_hop(&self, cur: NpuId, dst: NpuId) -> Option<LinkId> {
        let raw = self.next[dst.index()][cur.index()];
        (raw != u32::MAX && cur != dst).then(|| LinkId::new(raw))
    }

    /// Number of NPUs this table was built for.
    pub fn num_npus(&self) -> usize {
        self.num_npus
    }
}

/// Full link sequence from `src` to `dst` using `table`, resolving link
/// endpoints through `topo`.
///
/// Returns `None` if `dst` is unreachable from `src`.
pub fn route_path(
    topo: &Topology,
    table: &RoutingTable,
    src: NpuId,
    dst: NpuId,
) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    let mut path = Vec::new();
    let mut cur = src;
    while cur != dst {
        let link = table.next_hop(cur, dst)?;
        if path.len() > topo.num_npus() {
            return None; // defensive: would indicate a routing loop
        }
        path.push(link);
        cur = topo.link(link).dst();
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::topology::TopologyBuilder;
    use crate::units::Bandwidth;

    fn spec(alpha_us: f64, gbps: f64) -> LinkSpec {
        LinkSpec::new(Time::from_micros(alpha_us), Bandwidth::gbps(gbps))
    }

    fn uni_ring(n: usize) -> Topology {
        let mut b = TopologyBuilder::new("ring");
        b.npus(n);
        for i in 0..n {
            b.link(
                NpuId::new(i as u32),
                NpuId::new(((i + 1) % n) as u32),
                spec(0.5, 50.0),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn dijkstra_on_ring() {
        let t = uni_ring(4);
        let d = shortest_path_times(&t, NpuId::new(0), ByteSize::ZERO);
        assert_eq!(d[0], Time::ZERO);
        assert_eq!(d[1], Time::from_micros(0.5));
        assert_eq!(d[2], Time::from_micros(1.0));
        assert_eq!(d[3], Time::from_micros(1.5));
    }

    #[test]
    fn unreachable_is_max() {
        let mut b = TopologyBuilder::new("disc");
        b.npus(3);
        b.link(NpuId::new(0), NpuId::new(1), spec(0.5, 50.0));
        let t = b.build().unwrap();
        let d = shortest_path_times(&t, NpuId::new(0), ByteSize::ZERO);
        assert_eq!(d[2], Time::MAX);
    }

    #[test]
    fn routing_table_paths() {
        let t = uni_ring(4);
        let table = RoutingTable::new(&t, ByteSize::mb(1));
        let path = route_path(&t, &table, NpuId::new(3), NpuId::new(1)).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(t.link(path[0]).src(), NpuId::new(3));
        assert_eq!(t.link(path[0]).dst(), NpuId::new(0));
        assert_eq!(t.link(path[1]).dst(), NpuId::new(1));
        assert_eq!(
            route_path(&t, &table, NpuId::new(2), NpuId::new(2)),
            Some(vec![])
        );
    }

    #[test]
    fn routing_prefers_cheap_links() {
        // 0 -> 1 directly over a slow link, or 0 -> 2 -> 1 over fast links.
        let mut b = TopologyBuilder::new("detour");
        b.npus(3);
        b.link(NpuId::new(0), NpuId::new(1), spec(10.0, 50.0));
        b.link(NpuId::new(0), NpuId::new(2), spec(0.5, 50.0));
        b.link(NpuId::new(2), NpuId::new(1), spec(0.5, 50.0));
        let t = b.build().unwrap();
        // For tiny messages the two-hop detour (1 µs) beats 10 µs direct.
        let table = RoutingTable::new(&t, ByteSize::ZERO);
        let path = route_path(&t, &table, NpuId::new(0), NpuId::new(1)).unwrap();
        assert_eq!(path.len(), 2);
        // For huge messages serialization dominates; direct single hop wins.
        let table = RoutingTable::new(&t, ByteSize::gb(1));
        let path = route_path(&t, &table, NpuId::new(0), NpuId::new(1)).unwrap();
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn routing_cost_matches_dijkstra() {
        let t = uni_ring(5);
        let table = RoutingTable::new(&t, ByteSize::kb(1));
        for src in t.npus() {
            let d = shortest_path_times(&t, src, ByteSize::kb(1));
            for dst in t.npus() {
                let route = route_path(&t, &table, src, dst).unwrap();
                let cost = route
                    .iter()
                    .fold(Time::ZERO, |c, &l| c + t.link(l).cost(ByteSize::kb(1)));
                assert_eq!(cost, d[dst.index()]);
            }
        }
    }

    #[test]
    fn unreachable_path_is_none() {
        let mut b = TopologyBuilder::new("disc");
        b.npus(2);
        b.link(NpuId::new(0), NpuId::new(1), spec(0.5, 50.0));
        let t = b.build().unwrap();
        let table = RoutingTable::new(&t, ByteSize::ZERO);
        assert!(route_path(&t, &table, NpuId::new(1), NpuId::new(0)).is_none());
        assert_eq!(table.next_hop(NpuId::new(1), NpuId::new(0)), None);
    }
}
