//! The theoretical ideal collective performance bound (paper §V-A):
//!
//! ```text
//! Ideal = CollectiveSize · factor / min_{N ∈ NPUs}(BW_N) + Diameter
//! ```
//!
//! where `factor = 2(n-1)/n` for All-Reduce and `(n-1)/n` for All-Gather /
//! Reduce-Scatter (each NPU must inject/eject that fraction of the
//! payload), `BW_N` is the bottleneck NPU injection/ejection bandwidth, and
//! `Diameter` is the α-only latency for the farthest pair.

use tacos_collective::CollectivePattern;
use tacos_topology::{ByteSize, Time, Topology};

/// Computes the paper's ideal lower bound for collective time and
/// bandwidth on a topology.
///
/// ```
/// use tacos_baselines::IdealBound;
/// use tacos_collective::CollectivePattern;
/// use tacos_topology::{Bandwidth, ByteSize, LinkSpec, RingOrientation, Time, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
/// let ring = Topology::ring(64, spec, RingOrientation::Bidirectional)?;
/// let ideal = IdealBound::new(&ring);
/// let t = ideal.collective_time(CollectivePattern::AllReduce, ByteSize::gb(1));
/// assert!(t > Time::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IdealBound {
    num_npus: usize,
    min_bw_bytes_per_sec: f64,
    in_bw: Vec<f64>,
    out_bw: Vec<f64>,
    diameter: Time,
}

impl IdealBound {
    /// Precomputes the bound's topology terms (bottleneck NPU bandwidth and
    /// latency diameter).
    pub fn new(topo: &Topology) -> Self {
        IdealBound {
            num_npus: topo.num_npus(),
            min_bw_bytes_per_sec: topo.min_npu_bandwidth().as_bytes_per_sec(),
            in_bw: topo
                .npus()
                .map(|v| topo.ejection_bandwidth(v).as_bytes_per_sec())
                .collect(),
            out_bw: topo
                .npus()
                .map(|v| topo.injection_bandwidth(v).as_bytes_per_sec())
                .collect(),
            diameter: topo.diameter_latency(),
        }
    }

    /// The α-only network diameter used by the bound.
    pub fn diameter(&self) -> Time {
        self.diameter
    }

    /// The serialization factor of a pattern: `2(n-1)/n` for All-Reduce,
    /// `(n-1)/n` for All-Gather and Reduce-Scatter, `1` for rooted
    /// patterns (the whole payload crosses the root's port).
    pub fn pattern_factor(&self, pattern: CollectivePattern) -> f64 {
        let n = self.num_npus as f64;
        match pattern {
            CollectivePattern::AllReduce => 2.0 * (n - 1.0) / n,
            CollectivePattern::AllGather
            | CollectivePattern::ReduceScatter
            | CollectivePattern::AllToAll => (n - 1.0) / n,
            CollectivePattern::Broadcast { .. }
            | CollectivePattern::Reduce { .. }
            | CollectivePattern::Gather { .. }
            | CollectivePattern::Scatter { .. } => 1.0,
        }
    }

    /// The paper's ideal collective time for `size` bytes: bottleneck
    /// serialization **plus** diameter (§V-A's formula, used for every
    /// efficiency figure).
    ///
    /// Note that the sum is slightly conservative rather than a strict
    /// lower bound — serialization and propagation can partially overlap;
    /// use [`IdealBound::lower_bound`] for invariant checks.
    pub fn collective_time(&self, pattern: CollectivePattern, size: ByteSize) -> Time {
        self.serialization(pattern, size) + self.diameter
    }

    /// A strict lower bound on collective time: the **maximum** of the
    /// tight per-NPU serialization bound and the latency diameter (each is
    /// individually unbeatable; their sum, the paper's reporting formula,
    /// is not, and the reporting formula also uses the looser
    /// min(in, out) bandwidth for patterns where only one direction
    /// bottlenecks).
    ///
    /// Per pattern, the serialization term is the worst per-NPU obligation:
    /// All-Gather receivers must *eject* `(n-1)/n·S`; Reduce-Scatter
    /// senders must *inject* `(n-1)/n·S`; All-Reduce NPUs must do both
    /// (overlappable, so the max, not the sum); rooted patterns bind the
    /// non-root NPUs.
    pub fn lower_bound(&self, pattern: CollectivePattern, size: ByteSize) -> Time {
        let n = self.num_npus as f64;
        let s = size.as_u64() as f64;
        let frac = (n - 1.0) / n * s;
        let min_excl = |bws: &[f64], excl: Option<usize>| -> f64 {
            bws.iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != excl)
                .map(|(_, &b)| b)
                .fold(f64::INFINITY, f64::min)
        };
        let seconds = match pattern {
            CollectivePattern::AllGather => frac / min_excl(&self.in_bw, None),
            CollectivePattern::ReduceScatter => frac / min_excl(&self.out_bw, None),
            CollectivePattern::AllReduce => {
                let per_npu = self
                    .in_bw
                    .iter()
                    .zip(&self.out_bw)
                    .map(|(&i, &o)| i.min(o))
                    .fold(f64::INFINITY, f64::min);
                frac / per_npu
            }
            CollectivePattern::AllToAll => {
                // Every NPU both injects and ejects (n-1)/n · S.
                let per_npu = self
                    .in_bw
                    .iter()
                    .zip(&self.out_bw)
                    .map(|(&i, &o)| i.min(o))
                    .fold(f64::INFINITY, f64::min);
                frac / per_npu
            }
            CollectivePattern::Broadcast { root } => s / min_excl(&self.in_bw, Some(root.index())),
            CollectivePattern::Reduce { root } => s / min_excl(&self.out_bw, Some(root.index())),
            // The root must eject (Gather) or inject (Scatter) the whole
            // payload minus its own shard.
            CollectivePattern::Gather { root } => frac / self.in_bw[root.index()],
            CollectivePattern::Scatter { root } => frac / self.out_bw[root.index()],
        };
        Time::from_secs_f64(seconds).max(self.diameter)
    }

    fn serialization(&self, pattern: CollectivePattern, size: ByteSize) -> Time {
        Time::from_secs_f64(
            size.as_u64() as f64 * self.pattern_factor(pattern) / self.min_bw_bytes_per_sec,
        )
    }

    /// Maximum achievable collective bandwidth (`size / ideal time`) in
    /// bytes/s.
    pub fn bandwidth_bytes_per_sec(&self, pattern: CollectivePattern, size: ByteSize) -> f64 {
        let t = self.collective_time(pattern, size);
        if t.is_zero() {
            f64::INFINITY
        } else {
            size.as_u64() as f64 / t.as_secs_f64()
        }
    }

    /// Efficiency of a measured collective time against the bound
    /// (`ideal / measured`, so 1.0 is optimal).
    pub fn efficiency(&self, pattern: CollectivePattern, size: ByteSize, measured: Time) -> f64 {
        if measured.is_zero() {
            return 1.0;
        }
        self.collective_time(pattern, size).as_secs_f64() / measured.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_topology::{Bandwidth, LinkSpec, RingOrientation};

    fn spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    #[test]
    fn ring_bound_terms() {
        let ring = Topology::ring(8, spec(), RingOrientation::Bidirectional).unwrap();
        let ideal = IdealBound::new(&ring);
        // Bidirectional ring: 2 x 50 GB/s per NPU; diameter 4 hops.
        assert_eq!(ideal.min_bw_bytes_per_sec, 100e9);
        assert_eq!(ideal.diameter(), Time::from_micros(2.0));
    }

    #[test]
    fn all_reduce_bound_value() {
        let ring = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        let ideal = IdealBound::new(&ring);
        // factor = 2*3/4 = 1.5; 1 GB * 1.5 / 100 GB/s = 15 ms + 1 us.
        let t = ideal.collective_time(CollectivePattern::AllReduce, ByteSize::gb(1));
        assert_eq!(t, Time::from_millis(15.0) + Time::from_micros(1.0));
    }

    #[test]
    fn factors() {
        let ring = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        let ideal = IdealBound::new(&ring);
        assert_eq!(ideal.pattern_factor(CollectivePattern::AllReduce), 1.5);
        assert_eq!(ideal.pattern_factor(CollectivePattern::AllGather), 0.75);
        assert_eq!(ideal.pattern_factor(CollectivePattern::ReduceScatter), 0.75);
    }

    #[test]
    fn ring_algorithm_approaches_bound_for_large_sizes() {
        use crate::ring::ring_bidirectional;
        use tacos_collective::Collective;
        use tacos_sim::Simulator;
        let ring = Topology::ring(8, spec(), RingOrientation::Bidirectional).unwrap();
        let ideal = IdealBound::new(&ring);
        let coll = Collective::all_reduce(8, ByteSize::gb(1)).unwrap();
        let algo = ring_bidirectional(&ring, &coll).unwrap();
        let measured = Simulator::new()
            .simulate(&ring, &algo)
            .unwrap()
            .collective_time();
        let eff = ideal.efficiency(CollectivePattern::AllReduce, ByteSize::gb(1), measured);
        // The Ring algorithm on its preferred topology is near-optimal for
        // bandwidth-bound sizes (paper reports 99.6%).
        assert!(eff > 0.95, "efficiency {eff}");
        assert!(eff <= 1.0 + 1e-9, "bound violated: {eff}");
    }

    #[test]
    fn tacos_never_beats_the_bound() {
        use tacos_collective::Collective;
        use tacos_core::{Synthesizer, SynthesizerConfig};
        let mesh = Topology::mesh_2d(3, 3, spec()).unwrap();
        let ideal = IdealBound::new(&mesh);
        let coll = Collective::all_gather(9, ByteSize::mb(90)).unwrap();
        let result = Synthesizer::new(SynthesizerConfig::default().with_attempts(4))
            .synthesize(&mesh, &coll)
            .unwrap();
        let bound = ideal.lower_bound(CollectivePattern::AllGather, ByteSize::mb(90));
        assert!(
            result.collective_time() >= bound,
            "strict bound violated: {} < {bound}",
            result.collective_time()
        );
    }

    #[test]
    fn lower_bound_is_max_of_terms() {
        let ring = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        let ideal = IdealBound::new(&ring);
        // Tiny payload: diameter dominates.
        let lb = ideal.lower_bound(CollectivePattern::AllGather, ByteSize::bytes(8));
        assert_eq!(lb, ideal.diameter());
        // Huge payload: serialization dominates, and the paper's sum is
        // strictly larger than the strict bound.
        let big = ByteSize::gb(1);
        let lb = ideal.lower_bound(CollectivePattern::AllGather, big);
        let sum = ideal.collective_time(CollectivePattern::AllGather, big);
        assert!(lb < sum);
        // On the symmetric ring the tight per-NPU in-bandwidth equals the
        // reporting bandwidth, so the sum is exactly bound + diameter.
        assert_eq!(sum, lb + ideal.diameter());
    }

    #[test]
    fn lower_bound_uses_direction_specific_bandwidth() {
        // NPU1 has a huge in-pipe but a tiny out-pipe: All-Gather is bound
        // by everyone's *ejection*, so the tiny out-link must not tighten
        // the All-Gather bound (NPU1 only forwards its own shard).
        use tacos_topology::{NpuId, TopologyBuilder};
        let fast = LinkSpec::new(Time::from_micros(0.1), Bandwidth::gbps(100.0));
        let slow = LinkSpec::new(Time::from_micros(0.1), Bandwidth::gbps(1.0));
        let mut b = TopologyBuilder::new("lopsided");
        b.npus(3);
        b.link(NpuId::new(0), NpuId::new(1), fast);
        b.link(NpuId::new(2), NpuId::new(1), fast);
        b.link(NpuId::new(1), NpuId::new(0), slow);
        b.link(NpuId::new(1), NpuId::new(2), slow);
        b.link(NpuId::new(0), NpuId::new(2), fast);
        b.link(NpuId::new(2), NpuId::new(0), fast);
        let topo = b.build().unwrap();
        let ideal = IdealBound::new(&topo);
        let size = ByteSize::mb(300);
        let ag = ideal.lower_bound(CollectivePattern::AllGather, size);
        let rs = ideal.lower_bound(CollectivePattern::ReduceScatter, size);
        // Ejection bound: slowest in-side is NPU0/NPU2 at 101 GB/s
        // (one fast + one slow link) receiving 200 MB.
        assert_eq!(ag, Time::from_secs_f64(200e6 / 101e9));
        // Injection bound: NPU1 must push 200 MB through 2 GB/s -> 100 ms.
        assert_eq!(rs, Time::from_millis(100.0));
        // The out-starved NPU1 must NOT tighten the All-Gather bound.
        assert!(ag < Time::from_millis(10.0));
    }
}
