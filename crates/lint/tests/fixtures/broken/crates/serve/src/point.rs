//! Broken fixture for the one-request-point rule: a single-request front
//! end building a request's fabric itself instead of through `Point`.

pub fn fabric(spec: &str, link: LinkSpec) -> Result<Topology, String> {
    tacos_topology::parse_topology(spec, link)
}
