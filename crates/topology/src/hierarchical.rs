//! Multi-dimensional hierarchical topologies (paper §V-B, Table IV).
//!
//! AI clusters compose connectivity patterns per dimension: the paper's
//! **3D-RFS** is Ring × FullyConnected × Switch with per-dimension link
//! bandwidths; the **2D Switch** is Switch × Switch. NPU `i` is addressed by
//! mixed-radix coordinates (dimension 0 varies fastest); within a dimension,
//! NPUs that agree on all other coordinates form a *group* wired with that
//! dimension's [`DimKind`].
//!
//! Dimension metadata is retained on the built [`Topology`] so that
//! dimension-aware baselines (BlueConnect, Themis) can schedule per
//! dimension.

use std::fmt;

use crate::canonical::require_side;
use crate::error::TopologyError;
use crate::ids::NpuId;
use crate::link::LinkSpec;
use crate::topology::{Topology, TopologyBuilder};

/// Connectivity pattern of one dimension of a hierarchical topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DimKind {
    /// Bidirectional ring (each member connects to both neighbors).
    Ring,
    /// All-to-all point-to-point links.
    FullyConnected,
    /// Switch fabric, unwound into point-to-point links (paper §IV-G). The
    /// `degree` field selects the unwinding; bandwidth is divided by it.
    Switch {
        /// Unwinding degree `d`: each member gets `d` outgoing links to the
        /// next `d` members (mod group size), each at `1/d` of the port
        /// bandwidth.
        degree: u32,
    },
    /// Linear array without wraparound (mesh dimension).
    Mesh,
}

impl fmt::Display for DimKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimKind::Ring => write!(f, "Ring"),
            DimKind::FullyConnected => write!(f, "FC"),
            DimKind::Switch { degree } => write!(f, "Switch(d={degree})"),
            DimKind::Mesh => write!(f, "Mesh"),
        }
    }
}

/// One dimension of a hierarchical topology: a connectivity pattern, a group
/// size, and the α–β parameters of that dimension's links.
#[derive(Debug, Clone, PartialEq)]
pub struct Dim {
    kind: DimKind,
    size: usize,
    spec: LinkSpec,
}

impl Dim {
    /// Creates a dimension description.
    ///
    /// # Panics
    /// Panics if `size < 2` (a dimension must have at least two members) or
    /// if a switch unwinding degree is zero or ≥ the group size.
    pub fn new(kind: DimKind, size: usize, spec: LinkSpec) -> Self {
        assert!(size >= 2, "dimension size must be at least 2, got {size}");
        if let DimKind::Switch { degree } = kind {
            assert!(
                degree >= 1 && (degree as usize) < size,
                "switch unwinding degree must be in 1..size"
            );
        }
        Dim { kind, size, spec }
    }

    /// The connectivity pattern.
    pub fn kind(&self) -> DimKind {
        self.kind
    }

    /// Number of NPUs along this dimension.
    pub fn size(&self) -> usize {
        self.size
    }

    /// α–β parameters of this dimension's links (for switches, the *port*
    /// spec before unwinding divides the bandwidth).
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} ({})", self.kind, self.size, self.spec)
    }
}

/// Wires one dimension group (the NPUs in `members`, ordered by their
/// coordinate along the dimension) into `builder` according to `dim`.
fn wire_group(builder: &mut TopologyBuilder, members: &[NpuId], dim: &Dim) {
    let k = members.len();
    match dim.kind() {
        DimKind::Ring => {
            // Bidirectional ring; the degenerate 2-ring is a single
            // bidirectional connection, not a doubled one.
            if k == 2 {
                builder.bidi_link(members[0], members[1], *dim.spec());
            } else {
                for i in 0..k {
                    builder.link(members[i], members[(i + 1) % k], *dim.spec());
                    builder.link(members[(i + 1) % k], members[i], *dim.spec());
                }
            }
        }
        DimKind::FullyConnected => {
            for i in 0..k {
                for j in 0..k {
                    if i != j {
                        builder.link(members[i], members[j], *dim.spec());
                    }
                }
            }
        }
        DimKind::Switch { degree } => {
            let shared = dim.spec().share_bandwidth(degree);
            for i in 0..k {
                for d in 1..=degree as usize {
                    builder.link(members[i], members[(i + d) % k], shared);
                }
            }
        }
        DimKind::Mesh => {
            for i in 0..k - 1 {
                builder.bidi_link(members[i], members[i + 1], *dim.spec());
            }
        }
    }
}

/// Builds a hierarchical topology from per-dimension descriptions.
///
/// NPU count is the product of dimension sizes. Dimension 0 varies fastest
/// in the NPU index (ASTRA-sim convention).
///
/// # Errors
/// Returns [`TopologyError::BadDimensions`] if `dims` is empty.
///
/// ```
/// use tacos_topology::{multi_dim, Bandwidth, Dim, DimKind, LinkSpec, Time};
/// // The paper's 3D-RFS: Ring(2) x FC(4) x Switch(8), [200,100,50] GB/s.
/// let alpha = Time::from_micros(0.5);
/// let topo = multi_dim("3D-RFS", &[
///     Dim::new(DimKind::Ring, 2, LinkSpec::new(alpha, Bandwidth::gbps(200.0))),
///     Dim::new(DimKind::FullyConnected, 4, LinkSpec::new(alpha, Bandwidth::gbps(100.0))),
///     Dim::new(DimKind::Switch { degree: 1 }, 8, LinkSpec::new(alpha, Bandwidth::gbps(50.0))),
/// ])?;
/// assert_eq!(topo.num_npus(), 64);
/// # Ok::<(), tacos_topology::TopologyError>(())
/// ```
pub fn multi_dim(name: impl Into<String>, dims: &[Dim]) -> Result<Topology, TopologyError> {
    if dims.is_empty() {
        return Err(TopologyError::BadDimensions {
            reason: "at least one dimension is required".into(),
        });
    }
    let num_npus: usize = dims.iter().map(Dim::size).product();
    let mut builder = TopologyBuilder::new(name);
    builder.npus(num_npus);
    for dim in dims {
        builder.dim(dim.clone());
    }

    // For each dimension, iterate over all groups: fix the coordinates of
    // the other dimensions, vary this one.
    let sizes: Vec<usize> = dims.iter().map(Dim::size).collect();
    let strides: Vec<usize> = {
        let mut s = Vec::with_capacity(dims.len());
        let mut acc = 1;
        for size in &sizes {
            s.push(acc);
            acc *= size;
        }
        s
    };
    for (d, dim) in dims.iter().enumerate() {
        let group_count = num_npus / sizes[d];
        // Enumerate base indices: all NPUs whose coordinate along d is 0.
        let mut bases = Vec::with_capacity(group_count);
        for npu in 0..num_npus {
            if (npu / strides[d]).is_multiple_of(sizes[d]) {
                bases.push(npu);
            }
        }
        debug_assert_eq!(bases.len(), group_count);
        for base in bases {
            let members: Vec<NpuId> = (0..sizes[d])
                .map(|c| NpuId::new((base + c * strides[d]) as u32))
                .collect();
            wire_group(&mut builder, &members, dim);
        }
    }
    builder.build()
}

impl Topology {
    /// The paper's **3D-RFS** topology: Ring × FullyConnected × Switch with
    /// per-dimension bandwidths (§VI-B.1, Table V). `alpha` applies to every
    /// dimension.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if a side is below 2.
    pub fn rfs_3d(
        ring: usize,
        fc: usize,
        switch: usize,
        alpha: crate::units::Time,
        bandwidths_gbps: [f64; 3],
    ) -> Result<Topology, TopologyError> {
        for side in [ring, fc, switch] {
            require_side("3D-RFS", side)?;
        }
        multi_dim(
            format!("3D-RFS({ring}x{fc}x{switch})"),
            &[
                Dim::new(
                    DimKind::Ring,
                    ring,
                    LinkSpec::new(alpha, crate::units::Bandwidth::gbps(bandwidths_gbps[0])),
                ),
                Dim::new(
                    DimKind::FullyConnected,
                    fc,
                    LinkSpec::new(alpha, crate::units::Bandwidth::gbps(bandwidths_gbps[1])),
                ),
                Dim::new(
                    DimKind::Switch { degree: 1 },
                    switch,
                    LinkSpec::new(alpha, crate::units::Bandwidth::gbps(bandwidths_gbps[2])),
                ),
            ],
        )
    }

    /// The paper's **2D Switch** topology (§VI-B.1): Switch × Switch with
    /// per-dimension bandwidths.
    ///
    /// # Errors
    /// [`TopologyError::UnsupportedShape`] if a side is below 2.
    pub fn switch_2d(
        d0: usize,
        d1: usize,
        alpha: crate::units::Time,
        bandwidths_gbps: [f64; 2],
    ) -> Result<Topology, TopologyError> {
        require_side("2D switch", d0)?;
        require_side("2D switch", d1)?;
        multi_dim(
            format!("2DSwitch({d0}x{d1})"),
            &[
                Dim::new(
                    DimKind::Switch { degree: 1 },
                    d0,
                    LinkSpec::new(alpha, crate::units::Bandwidth::gbps(bandwidths_gbps[0])),
                ),
                Dim::new(
                    DimKind::Switch { degree: 1 },
                    d1,
                    LinkSpec::new(alpha, crate::units::Bandwidth::gbps(bandwidths_gbps[1])),
                ),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Bandwidth, Time};

    fn spec(gbps: f64) -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(gbps))
    }

    #[test]
    fn dim_accessors() {
        let d = Dim::new(DimKind::Ring, 4, spec(50.0));
        assert_eq!(d.kind(), DimKind::Ring);
        assert_eq!(d.size(), 4);
        assert_eq!(format!("{d}"), "Ringx4 (α=500.000ns 1/β=50.00GB/s)");
    }

    #[test]
    #[should_panic(expected = "dimension size")]
    fn dim_rejects_tiny() {
        let _ = Dim::new(DimKind::Ring, 1, spec(50.0));
    }

    #[test]
    fn ring_dim_wiring() {
        let t = multi_dim("r4", &[Dim::new(DimKind::Ring, 4, spec(50.0))]).unwrap();
        assert_eq!(t.num_npus(), 4);
        assert_eq!(t.num_links(), 8); // bidirectional 4-ring
        assert!(t.has_link(NpuId::new(0), NpuId::new(1)));
        assert!(t.has_link(NpuId::new(1), NpuId::new(0)));
        assert!(t.has_link(NpuId::new(3), NpuId::new(0)));
        assert!(!t.has_link(NpuId::new(0), NpuId::new(2)));
    }

    #[test]
    fn two_member_ring_is_single_bidi() {
        let t = multi_dim("r2", &[Dim::new(DimKind::Ring, 2, spec(50.0))]).unwrap();
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    fn fc_dim_wiring() {
        let t = multi_dim("fc4", &[Dim::new(DimKind::FullyConnected, 4, spec(50.0))]).unwrap();
        assert_eq!(t.num_links(), 12);
        assert!(t.has_link(NpuId::new(0), NpuId::new(3)));
    }

    #[test]
    fn switch_dim_unwinding_degree_divides_bandwidth() {
        let t = multi_dim(
            "sw4",
            &[Dim::new(DimKind::Switch { degree: 2 }, 4, spec(120.0))],
        )
        .unwrap();
        assert_eq!(t.num_links(), 8); // 4 NPUs x degree 2
        let link = t
            .best_link_between(NpuId::new(0), NpuId::new(1), crate::units::ByteSize::ZERO)
            .unwrap();
        assert_eq!(link.spec().bandwidth().as_gbps(), 60.0);
        assert!(t.has_link(NpuId::new(0), NpuId::new(2)));
        assert!(!t.has_link(NpuId::new(0), NpuId::new(3)));
    }

    #[test]
    fn mesh_dim_has_no_wraparound() {
        let t = multi_dim("m4", &[Dim::new(DimKind::Mesh, 4, spec(50.0))]).unwrap();
        assert_eq!(t.num_links(), 6);
        assert!(!t.has_link(NpuId::new(3), NpuId::new(0)));
    }

    #[test]
    fn rfs_3d_shape() {
        // Paper Table V: 2x4x8 = 64 NPUs per 8-node config... (2x4 node, 8 switch).
        let t = Topology::rfs_3d(2, 4, 8, Time::from_micros(0.5), [200.0, 100.0, 50.0]).unwrap();
        assert_eq!(t.num_npus(), 64);
        assert!(t.is_strongly_connected());
        assert_eq!(t.dims().len(), 3);
        assert!(!t.is_homogeneous());
        // Coordinates roundtrip.
        for npu in t.npus() {
            let c = t.coords(npu);
            assert_eq!(t.npu_at(&c), npu);
        }
    }

    #[test]
    fn switch_2d_shape() {
        // Paper §VI-B.1: 2D Switch (8x4) with [300, 25] GB/s.
        let t = Topology::switch_2d(8, 4, Time::from_micros(0.5), [300.0, 25.0]).unwrap();
        assert_eq!(t.num_npus(), 32);
        assert!(t.is_strongly_connected());
        // Dimension-0 switch unwound degree 1: NPU0 -> NPU1 at 300 GB/s.
        let l = t
            .best_link_between(NpuId::new(0), NpuId::new(1), crate::units::ByteSize::ZERO)
            .unwrap();
        assert_eq!(l.spec().bandwidth().as_gbps(), 300.0);
        // Dimension-1 switch: NPU0 -> NPU8 at 25 GB/s.
        let l = t
            .best_link_between(NpuId::new(0), NpuId::new(8), crate::units::ByteSize::ZERO)
            .unwrap();
        assert_eq!(l.spec().bandwidth().as_gbps(), 25.0);
    }

    #[test]
    fn empty_dims_rejected() {
        assert!(matches!(
            multi_dim("none", &[]),
            Err(TopologyError::BadDimensions { .. })
        ));
    }

    #[test]
    fn coords_mixed_radix_order() {
        let t = multi_dim(
            "grid",
            &[
                Dim::new(DimKind::Ring, 2, spec(50.0)),
                Dim::new(DimKind::Ring, 3, spec(50.0)),
            ],
        )
        .unwrap();
        // Dimension 0 varies fastest: NPU index 5 = (1, 2).
        assert_eq!(t.coords(NpuId::new(5)), vec![1, 2]);
        assert_eq!(t.npu_at(&[1, 2]), NpuId::new(5));
    }
}
