//! Broken fixture for the one-evaluation-pipeline rule: a front-end crate
//! simulating a schedule itself instead of calling the shared pipeline.

pub fn time(topo: &Topology, algo: &Algo) -> Time {
    Simulator::new().simulate(topo, algo).collective_time()
}
