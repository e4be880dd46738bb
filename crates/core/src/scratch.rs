//! Reusable synthesis working memory.
//!
//! One synthesis attempt needs a matching state (the SoA chunk matrix,
//! the event-driven wake index and its per-NPU stale lists, the sorted
//! round order, provider table), an expanding TEN (per-link costs, busy
//! times, the per-cost arrival FIFOs), and an arrival-event buffer. None
//! of these depend on the seed — only on the topology/collective shape — so a
//! best-of-N search or a scenario sweep re-allocating them per attempt
//! spends a meaningful share of its time in the allocator.
//! [`SynthesisScratch`] owns all of them and is rebuilt in place by each
//! attempt.
//!
//! Callers that run many syntheses hold one scratch per worker thread and
//! pass it to [`crate::Synthesizer::synthesize_seeded_with`] (or
//! [`crate::Synthesizer::synthesize_with`]); one-shot callers can ignore
//! it — the plain entry points create a transient scratch internally.

use tacos_ten::{Arrival, ExpandingTen};

use crate::matching::{MatchState, RelayInfo};

/// Working memory for repeated syntheses; see the module docs.
///
/// ```
/// use tacos_core::{Synthesizer, SynthesisScratch, SynthesizerConfig};
/// use tacos_collective::Collective;
/// use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
/// let mesh = Topology::mesh_2d(3, 3, spec)?;
/// let coll = Collective::all_gather(9, ByteSize::mb(9))?;
/// let synth = Synthesizer::new(SynthesizerConfig::default());
/// let mut scratch = SynthesisScratch::new();
/// let a = synth.synthesize_seeded_with(&mesh, &coll, 1, &mut scratch)?;
/// let b = synth.synthesize_seeded_with(&mesh, &coll, 1, &mut scratch)?;
/// assert_eq!(a.algorithm(), b.algorithm()); // reuse does not change results
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct SynthesisScratch {
    pub(crate) state: MatchState,
    pub(crate) ten: Option<ExpandingTen>,
    pub(crate) events: Vec<Arrival>,
    /// Relay metadata cached across attempts: rebuilding the per-target
    /// BFS distance rows (one flat row per distinct target) is the
    /// dominant per-attempt setup cost for sparse-postcondition patterns,
    /// and attempts only differ by seed, so the flattened table is keyed
    /// by topology fingerprint + chunk-destination map and handed back
    /// after each attempt.
    pub(crate) relay: Option<RelayInfo>,
}

impl SynthesisScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        SynthesisScratch::default()
    }
}
