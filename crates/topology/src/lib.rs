//! # tacos-topology
//!
//! Network topology substrate for the TACOS collective-algorithm
//! synthesizer (MICRO 2024 reproduction).
//!
//! A [`Topology`] is a directed multigraph of NPUs and α–β-cost links.
//! Every topology evaluated in the paper is available as a constructor:
//!
//! | Paper topology (Table IV) | Constructor |
//! |---|---|
//! | Ring | [`Topology::ring`] |
//! | FullyConnected | [`Topology::fully_connected`] |
//! | 2D/3D Torus | [`Topology::torus_2d`], [`Topology::torus_3d`] |
//! | 2D Mesh | [`Topology::mesh_2d`] |
//! | 3D Hypercube (grid) | [`Topology::hypercube_3d`] |
//! | Switch (unwound, §IV-G) | [`Topology::switch`] |
//! | 2D Switch | [`Topology::switch_2d`] |
//! | 3D Ring-FC-Switch | [`Topology::rfs_3d`] |
//! | DragonFly | [`Topology::dragonfly`] |
//! | DGX-1 (C-Cube target) | [`Topology::dgx1`] |
//!
//! Arbitrary heterogeneous/asymmetric networks are built with
//! [`TopologyBuilder`]; hierarchical compositions with [`multi_dim`].
//! The spec vocabulary the front ends share lives here too: spec strings
//! (`mesh:3x3`, `rfs:2x4x8:4x2x1`) go through [`parse_topology`], custom
//! fabrics through [`CustomTopology`] (both held to
//! [`MAX_SPEC_ELEMENTS`]), and degraded ones through
//! [`select_failed_links`].
//!
//! ```
//! use tacos_topology::{Bandwidth, LinkSpec, Time, Topology};
//! let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
//! let mesh = Topology::mesh_2d(3, 3, spec)?;
//! assert_eq!(mesh.num_npus(), 9);
//! assert!(mesh.is_strongly_connected());
//! # Ok::<(), tacos_topology::TopologyError>(())
//! ```

#![warn(missing_docs)]

mod canonical;
mod dgx1;
mod dragonfly;
mod error;
mod hierarchical;
mod ids;
mod link;
mod parse;
pub mod routing;
mod topology;
mod units;

pub use canonical::RingOrientation;
pub use error::TopologyError;
pub use hierarchical::{multi_dim, Dim, DimKind};
pub use ids::{LinkId, NpuId};
pub use link::{Link, LinkSpec};
pub use parse::{
    parse_topology, select_failed_links, CustomLink, CustomTopology, CustomTopologyBody, LinkAxis,
    WithoutLinks, MAX_SPEC_ELEMENTS,
};
pub use routing::RoutingTable;
pub use topology::{Topology, TopologyBuilder};
pub use units::{parse_size, Bandwidth, ByteSize, Time};
