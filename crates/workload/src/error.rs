//! Error type for workload evaluation.

use std::error::Error;
use std::fmt;

use tacos_baselines::BaselineError;
use tacos_collective::CollectiveError;
use tacos_core::SynthesisError;
use tacos_sim::SimError;
use tacos_topology::ByteSize;

/// Errors produced while evaluating a training workload.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkloadError {
    /// Collective description failed.
    Collective(CollectiveError),
    /// Baseline generation failed.
    Baseline(BaselineError),
    /// TACOS synthesis failed.
    Synthesis(SynthesisError),
    /// Simulation failed.
    Sim(SimError),
    /// The point's time may not fit the picosecond clock: `bound_ps`,
    /// the bound [`crate::Mechanism::plan`] computes, reaches 2^64.
    OutOfClock {
        /// The collective size.
        size: ByteSize,
        /// NPUs in the fabric.
        num_npus: usize,
        /// The chunking factor the collective would run with.
        chunks: usize,
        /// The bound, in picoseconds.
        bound_ps: f64,
    },
}

impl WorkloadError {
    /// The underlying failure's message without this layer's prefix —
    /// what the single-collective front ends (scenario bandwidth rows,
    /// the one-shot CLI, `tacos serve`) report.
    pub fn cause(&self) -> String {
        self.source()
            .map_or_else(|| self.to_string(), ToString::to_string)
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Collective(e) => write!(f, "collective error: {e}"),
            WorkloadError::Baseline(e) => write!(f, "baseline error: {e}"),
            WorkloadError::Synthesis(e) => write!(f, "synthesis error: {e}"),
            WorkloadError::Sim(e) => write!(f, "simulation error: {e}"),
            WorkloadError::OutOfClock {
                size,
                num_npus,
                chunks,
                bound_ps,
            } => write!(
                f,
                "{size} over {num_npus} NPUs in {chunks} chunk(s) each may take \
                 {bound_ps:.2e} ps, past the 2^64 ps clock"
            ),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Collective(e) => Some(e),
            WorkloadError::Baseline(e) => Some(e),
            WorkloadError::Synthesis(e) => Some(e),
            WorkloadError::Sim(e) => Some(e),
            WorkloadError::OutOfClock { .. } => None,
        }
    }
}

impl From<CollectiveError> for WorkloadError {
    fn from(e: CollectiveError) -> Self {
        WorkloadError::Collective(e)
    }
}

impl From<BaselineError> for WorkloadError {
    fn from(e: BaselineError) -> Self {
        WorkloadError::Baseline(e)
    }
}

impl From<SynthesisError> for WorkloadError {
    fn from(e: SynthesisError) -> Self {
        WorkloadError::Synthesis(e)
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: WorkloadError = CollectiveError::ZeroChunks.into();
        assert!(e.to_string().contains("collective error"));
        assert_eq!(e.cause(), CollectiveError::ZeroChunks.to_string());
        assert!(std::error::Error::source(&e).is_some());
        let e: WorkloadError = SimError::Unroutable { src: 0, dst: 1 }.into();
        assert!(e.to_string().contains("simulation error"));
    }
}
