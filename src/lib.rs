//! # TACOS: Topology-Aware Collective Algorithm Synthesizer
//!
//! A full reproduction of *"TACOS: Topology-Aware Collective Algorithm
//! Synthesizer for Distributed Machine Learning"* (MICRO 2024,
//! arXiv:2304.05301). This facade crate re-exports every subsystem of the
//! workspace under one roof:
//!
//! * [`topology`] — NPU/link network model with α–β link costs, every
//!   topology evaluated in the paper (Ring, FullyConnected, Mesh, Torus,
//!   Hypercube-style 3D mesh, Switch with unwinding, DragonFly, 3D-RFS,
//!   DGX-1), and a builder for arbitrary heterogeneous/asymmetric networks.
//! * [`collective`] — collective communication patterns (All-Gather,
//!   Reduce-Scatter, All-Reduce, Broadcast, Reduce, …), the chunk model, and
//!   the [`collective::algorithm::CollectiveAlgorithm`] IR shared by the
//!   synthesizer, the baselines, and the simulator.
//! * [`ten`] — the Time-expanded Network (paper §IV-A) in the
//!   event-driven expanding form the synthesizer runs on.
//! * [`synthesizer`] — the paper's contribution: utilization-maximizing
//!   link–chunk matching (Alg. 1) and end-to-end synthesis (Alg. 2).
//! * [`sim`] — the congestion-aware analytical network simulator used to
//!   evaluate synthesized and baseline algorithms (paper §V-C).
//! * [`baselines`] — Ring, Direct, RHD, DBT, BlueConnect, Themis,
//!   MultiTree, C-Cube, a TACCL-like bounded-optimal search, and the
//!   theoretical ideal bound.
//! * [`workload`] — the shared evaluation vocabulary
//!   ([`workload::Mechanism`]: baseline / TACOS config / ideal bound), the
//!   one evaluation pipeline every front end composes
//!   ([`workload::Evaluator`]: plan → cache lookup → generate → time), and
//!   end-to-end training models (GNMT, ResNet-50, Turing-NLG, MSFT-1T)
//!   with exposed-communication accounting.
//! * [`report`] — ASCII tables, heat maps, CSV/JSON writers and the
//!   polynomial fits used by the scalability analysis.
//! * [`scenario`] — the declarative scenario engine: whole evaluation
//!   campaigns described as TOML sweep files (topology × collective ×
//!   size × chunking × link × seed grids), expanded deterministically and
//!   executed by a work-stealing sharded runner that routes every point
//!   through the algorithm cache, so re-runs and overlapping grids are
//!   incremental. Run them with `tacos scenario run <file.toml>`; the
//!   checked-in files under `scenarios/` reproduce all sixteen paper
//!   figure/table/ablation experiments — the evaluation lives entirely
//!   in data, and new sweeps should be scenario files too.
//!
//! ## Quickstart
//!
//! Synthesize an All-Reduce for a 2D mesh and measure its bandwidth:
//!
//! ```
//! use tacos::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 5x5 2D mesh, 0.5 us link latency, 50 GB/s links.
//! let topo = Topology::mesh_2d(5, 5, LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0)))?;
//! let collective = Collective::all_reduce(topo.num_npus(), ByteSize::mib(64))?;
//! let synthesizer = Synthesizer::new(SynthesizerConfig::default().with_seed(42));
//! let algorithm = synthesizer.synthesize(&topo, &collective)?;
//! println!("All-Reduce finishes in {}", algorithm.collective_time());
//! # Ok(())
//! # }
//! ```

pub use tacos_baselines as baselines;
pub use tacos_collective as collective;
pub use tacos_core as synthesizer;
pub use tacos_report as report;
pub use tacos_scenario as scenario;
pub use tacos_sim as sim;
pub use tacos_ten as ten;
pub use tacos_topology as topology;
pub use tacos_workload as workload;

/// Commonly used types, re-exported for `use tacos::prelude::*`.
pub mod prelude {
    pub use tacos_baselines::{BaselineAlgorithm, BaselineKind, IdealBound};
    pub use tacos_collective::{
        algorithm::CollectiveAlgorithm, Chunk, ChunkId, Collective, CollectivePattern,
    };
    pub use tacos_core::{AlgorithmCache, SynthesisResult, Synthesizer, SynthesizerConfig};
    pub use tacos_scenario::ScenarioSpec;
    pub use tacos_sim::{SimConfig, SimReport, Simulator};
    pub use tacos_topology::{
        Bandwidth, ByteSize, LinkId, LinkSpec, NpuId, Time, Topology, TopologyBuilder,
    };
    pub use tacos_workload::{Mechanism, TrainingEvaluator, Workload};
}
