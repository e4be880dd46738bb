//! Broken fixture for the one-topology-vocabulary rule: a front-end crate
//! building a tiered fabric itself instead of through the spec parser.

pub fn tiers(alpha: Time) -> Result<Topology, TopologyError> {
    Topology::rfs_3d(2, 4, 8, alpha, [200.0, 100.0, 50.0])
}
