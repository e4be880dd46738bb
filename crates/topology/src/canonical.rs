//! Canonical single-fabric topologies evaluated in the paper (Table IV):
//! Ring, FullyConnected, 2D/3D Torus, 2D Mesh, 3D "Hypercube" (a 3D grid
//! without wraparound), and unwound Switch fabrics.

use crate::error::TopologyError;
use crate::hierarchical::{multi_dim, Dim, DimKind};
use crate::ids::NpuId;
use crate::link::LinkSpec;
use crate::topology::{Topology, TopologyBuilder};

/// Whether a ring carries traffic one way or both ways.
///
/// The paper's baseline "Ring" algorithm and topology are bidirectional
/// (footnote 3); the unidirectional variant appears in Figs. 7 and 10(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingOrientation {
    /// Each NPU links only to its successor `(i+1) mod n`.
    Unidirectional,
    /// Each NPU links to both neighbors.
    Bidirectional,
}

impl Topology {
    /// A ring of `n` NPUs.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if `n < 2`.
    pub fn ring(
        n: usize,
        spec: LinkSpec,
        orientation: RingOrientation,
    ) -> Result<Topology, TopologyError> {
        if n < 2 {
            return Err(TopologyError::UnsupportedShape {
                reason: format!("ring requires at least 2 NPUs, got {n}"),
            });
        }
        let mut b = TopologyBuilder::new(format!("Ring({n})"));
        b.npus(n);
        if n == 2 {
            // The degenerate 2-ring is a single bidirectional connection in
            // either orientation.
            b.bidi_link(NpuId::new(0), NpuId::new(1), spec);
            return b.build();
        }
        for i in 0..n {
            let src = NpuId::new(i as u32);
            let dst = NpuId::new(((i + 1) % n) as u32);
            b.link(src, dst, spec);
            if orientation == RingOrientation::Bidirectional {
                b.link(dst, src, spec);
            }
        }
        b.build()
    }

    /// A fully connected topology: a dedicated link between every ordered
    /// NPU pair.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if `n < 2`.
    pub fn fully_connected(n: usize, spec: LinkSpec) -> Result<Topology, TopologyError> {
        if n < 2 {
            return Err(TopologyError::UnsupportedShape {
                reason: format!("fully connected requires at least 2 NPUs, got {n}"),
            });
        }
        let mut b = TopologyBuilder::new(format!("FullyConnected({n})"));
        b.npus(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b.link(NpuId::new(i as u32), NpuId::new(j as u32), spec);
                }
            }
        }
        b.build()
    }

    /// A 2D mesh (`rows × cols`, bidirectional neighbor links, **no**
    /// wraparound) — asymmetric: border NPUs have lower degree (Table IV).
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if either side is < 2.
    pub fn mesh_2d(rows: usize, cols: usize, spec: LinkSpec) -> Result<Topology, TopologyError> {
        require_side("2D mesh", rows)?;
        require_side("2D mesh", cols)?;
        multi_dim(
            format!("Mesh2D({rows}x{cols})"),
            &[
                Dim::new(DimKind::Mesh, cols, spec),
                Dim::new(DimKind::Mesh, rows, spec),
            ],
        )
    }

    /// A 2D torus (`rows × cols`, bidirectional neighbor links **with**
    /// wraparound) — symmetric.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if either side is < 2.
    pub fn torus_2d(rows: usize, cols: usize, spec: LinkSpec) -> Result<Topology, TopologyError> {
        require_side("2D torus", rows)?;
        require_side("2D torus", cols)?;
        multi_dim(
            format!("Torus2D({rows}x{cols})"),
            &[
                Dim::new(DimKind::Ring, cols, spec),
                Dim::new(DimKind::Ring, rows, spec),
            ],
        )
    }

    /// A 3D torus (`x × y × z`, rings along every dimension) — symmetric.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if any side is < 2.
    pub fn torus_3d(
        x: usize,
        y: usize,
        z: usize,
        spec: LinkSpec,
    ) -> Result<Topology, TopologyError> {
        require_side("3D torus", x)?;
        require_side("3D torus", y)?;
        require_side("3D torus", z)?;
        multi_dim(
            format!("Torus3D({x}x{y}x{z})"),
            &[
                Dim::new(DimKind::Ring, x, spec),
                Dim::new(DimKind::Ring, y, spec),
                Dim::new(DimKind::Ring, z, spec),
            ],
        )
    }

    /// The paper's "3D Hypercube": a 3D grid without wraparound (lines along
    /// every dimension) — asymmetric, like the 2D mesh (Table IV lists both
    /// as asymmetric; the 5×5×5 instance of §VI-B.6 is only meaningful for a
    /// grid, not a binary hypercube).
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if any side is < 2.
    pub fn hypercube_3d(
        x: usize,
        y: usize,
        z: usize,
        spec: LinkSpec,
    ) -> Result<Topology, TopologyError> {
        require_side("3D hypercube", x)?;
        require_side("3D hypercube", y)?;
        require_side("3D hypercube", z)?;
        multi_dim(
            format!("Hypercube3D({x}x{y}x{z})"),
            &[
                Dim::new(DimKind::Mesh, x, spec),
                Dim::new(DimKind::Mesh, y, spec),
                Dim::new(DimKind::Mesh, z, spec),
            ],
        )
    }

    /// A classic binary hypercube with `2^dims` NPUs (each NPU links to the
    /// `dims` NPUs whose index differs in one bit). Provided for RHD-style
    /// experiments beyond the paper's grids.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if `dims == 0` or `dims > 20`.
    pub fn binary_hypercube(dims: u32, spec: LinkSpec) -> Result<Topology, TopologyError> {
        if dims == 0 || dims > 20 {
            return Err(TopologyError::UnsupportedShape {
                reason: format!("binary hypercube dims must be in 1..=20, got {dims}"),
            });
        }
        let n = 1usize << dims;
        let mut b = TopologyBuilder::new(format!("BinaryHypercube({dims})"));
        b.npus(n);
        for i in 0..n {
            for d in 0..dims {
                let j = i ^ (1 << d);
                // Each unordered pair is visited twice; add each direction once.
                b.link(NpuId::new(i as u32), NpuId::new(j as u32), spec);
            }
        }
        b.build()
    }

    /// An `n`-NPU switch fabric unwound into point-to-point links with the
    /// given `degree` (paper §IV-G, Fig. 13): NPU `i` links to
    /// `(i+1), …, (i+degree) (mod n)`, each at `1/degree` of the port
    /// bandwidth; α is unchanged.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if `n < 2` or
    /// `degree ∉ 1..n`.
    pub fn switch(n: usize, port_spec: LinkSpec, degree: u32) -> Result<Topology, TopologyError> {
        if n < 2 {
            return Err(TopologyError::UnsupportedShape {
                reason: format!("switch requires at least 2 NPUs, got {n}"),
            });
        }
        if degree == 0 || degree as usize >= n {
            return Err(TopologyError::UnsupportedShape {
                reason: format!("switch unwinding degree must be in 1..{n}, got {degree}"),
            });
        }
        let shared = port_spec.share_bandwidth(degree);
        let mut b = TopologyBuilder::new(format!("Switch({n},d={degree})"));
        b.npus(n);
        for i in 0..n {
            for d in 1..=degree as usize {
                b.link(
                    NpuId::new(i as u32),
                    NpuId::new(((i + d) % n) as u32),
                    shared,
                );
            }
        }
        b.build()
    }
}

pub(crate) fn require_side(what: &str, side: usize) -> Result<(), TopologyError> {
    if side < 2 {
        Err(TopologyError::UnsupportedShape {
            reason: format!("{what} requires every side >= 2, got {side}"),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Bandwidth, ByteSize, Time};

    fn spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    #[test]
    fn unidirectional_ring() {
        let t = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        assert_eq!(t.num_links(), 4);
        assert!(t.has_link(NpuId::new(3), NpuId::new(0)));
        assert!(!t.has_link(NpuId::new(0), NpuId::new(3)));
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn bidirectional_ring() {
        let t = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        assert_eq!(t.num_links(), 8);
        assert!(t.is_degree_symmetric());
    }

    #[test]
    fn two_npu_bidirectional_ring_has_two_links() {
        let t = Topology::ring(2, spec(), RingOrientation::Bidirectional).unwrap();
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    fn ring_rejects_singleton() {
        assert!(Topology::ring(1, spec(), RingOrientation::Bidirectional).is_err());
    }

    #[test]
    fn fully_connected_counts() {
        let t = Topology::fully_connected(4, spec()).unwrap();
        assert_eq!(t.num_links(), 12);
        assert_eq!(t.degree_range(), (3, 3));
        assert_eq!(t.diameter_latency(), Time::from_micros(0.5));
    }

    #[test]
    fn mesh_2d_is_asymmetric() {
        let t = Topology::mesh_2d(3, 3, spec()).unwrap();
        assert_eq!(t.num_npus(), 9);
        // 2 * (rows*(cols-1) + cols*(rows-1)) = 2 * (6 + 6) = 24.
        assert_eq!(t.num_links(), 24);
        assert_eq!(t.degree_range(), (2, 4)); // corners 2, center 4
        assert!(!t.is_degree_symmetric());
        assert!(t.is_strongly_connected());
        assert_eq!(t.name(), "Mesh2D(3x3)");
    }

    #[test]
    fn torus_2d_is_symmetric() {
        let t = Topology::torus_2d(3, 3, spec()).unwrap();
        assert_eq!(t.num_links(), 36);
        assert!(t.is_degree_symmetric());
    }

    #[test]
    fn torus_3d_shape() {
        let t = Topology::torus_3d(2, 2, 2, spec()).unwrap();
        assert_eq!(t.num_npus(), 8);
        // Each dimension: 4 groups of 2 -> single bidi pair = 2 links each.
        assert_eq!(t.num_links(), 24);
        assert!(t.is_degree_symmetric());
    }

    #[test]
    fn hypercube_3d_is_grid_without_wraparound() {
        let t = Topology::hypercube_3d(4, 4, 4, spec()).unwrap();
        assert_eq!(t.num_npus(), 64);
        // Per dimension: 16 lines x 3 internal pairs x 2 dirs = 96; x3 dims.
        assert_eq!(t.num_links(), 288);
        assert!(!t.is_degree_symmetric());
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn binary_hypercube_shape() {
        let t = Topology::binary_hypercube(3, spec()).unwrap();
        assert_eq!(t.num_npus(), 8);
        assert_eq!(t.num_links(), 24);
        assert!(t.has_link(NpuId::new(0), NpuId::new(4)));
        assert!(t.is_degree_symmetric());
    }

    #[test]
    fn switch_unwinding_fig13() {
        // Paper Fig. 13: 4-NPU switch at 120 GB/s.
        let port = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(120.0));
        for (degree, links, gbps) in [(1u32, 4usize, 120.0), (2, 8, 60.0), (3, 12, 40.0)] {
            let t = Topology::switch(4, port, degree).unwrap();
            assert_eq!(t.num_links(), links, "degree {degree}");
            let l = t
                .best_link_between(NpuId::new(0), NpuId::new(1), ByteSize::ZERO)
                .unwrap();
            assert_eq!(l.spec().bandwidth().as_gbps(), gbps, "degree {degree}");
            assert_eq!(l.spec().alpha(), Time::from_micros(0.5));
            assert!(t.is_strongly_connected());
        }
    }

    #[test]
    fn switch_rejects_bad_degree() {
        assert!(Topology::switch(4, spec(), 0).is_err());
        assert!(Topology::switch(4, spec(), 4).is_err());
    }
}
