//! Deterministic fault injection for the serving daemon: a test seam.
//!
//! A [`FaultPlan`] is a *schedule* of failures keyed by monotone
//! sequence numbers the daemon assigns anyway — the Nth synthesis job
//! enqueued, the Nth connection accepted, the Nth checkpoint attempted.
//! Pure index lookups make the same plan reproduce the same failures on
//! every run, which is what lets the chaos suite (`tests/chaos.rs`)
//! assert exact invariants (restart counters, which flight errored,
//! which checkpoint aborted) instead of probabilistic ones.
//!
//! Plans are built only by tests, through [`DaemonConfig::faults`]; a
//! real daemon runs [`FaultPlan::none`].
//!
//! [`DaemonConfig::faults`]: crate::DaemonConfig::faults

use std::time::Duration;

/// A deterministic schedule of injected failures. All indices are
/// **1-based**: `with_panic(3)` fails the third job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Jobs (by enqueue order) whose synthesis panics.
    panic_jobs: Vec<u64>,
    /// Jobs (by enqueue order) that stall before synthesis, with the
    /// stall length in milliseconds.
    stall_jobs: Vec<(u64, u64)>,
    /// Connections (by accept order) whose responses are delayed, with
    /// the delay in milliseconds per response.
    conn_delays: Vec<(u64, u64)>,
    /// Checkpoints (by attempt order) aborted mid-write: the snapshot
    /// write stops halfway through the temp file and never renames.
    checkpoint_aborts: Vec<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default for a real daemon).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The fault, if any, scheduled for the `index`th enqueued job
    /// (1-based). A job listed both as a panic and a stall stalls first,
    /// then panics — so followers have time to join the doomed flight.
    pub fn job_fault(&self, index: u64) -> (Option<Duration>, bool) {
        let stall = self
            .stall_jobs
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, ms)| Duration::from_millis(*ms));
        let panics = self.panic_jobs.contains(&index);
        (stall, panics)
    }

    /// The response delay, if any, scheduled for the `index`th accepted
    /// connection (1-based).
    pub fn conn_delay(&self, index: u64) -> Option<Duration> {
        self.conn_delays
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, ms)| Duration::from_millis(*ms))
    }

    /// Whether the `index`th checkpoint attempt (1-based) aborts
    /// mid-write.
    pub fn checkpoint_aborts(&self, index: u64) -> bool {
        self.checkpoint_aborts.contains(&index)
    }

    /// Schedules a synthesis panic on the `index`th job.
    pub fn with_panic(mut self, index: u64) -> Self {
        self.panic_jobs.push(index);
        self
    }

    /// Schedules a pre-synthesis stall on the `index`th job.
    pub fn with_stall(mut self, index: u64, ms: u64) -> Self {
        self.stall_jobs.push((index, ms));
        self
    }

    /// Schedules a per-response delay on the `index`th connection.
    pub fn with_conn_delay(mut self, index: u64, ms: u64) -> Self {
        self.conn_delays.push((index, ms));
        self
    }

    /// Schedules a mid-write abort on the `index`th checkpoint.
    pub fn with_checkpoint_abort(mut self, index: u64) -> Self {
        self.checkpoint_aborts.push(index);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_are_by_one_based_index() {
        let plan = FaultPlan::none()
            .with_panic(3)
            .with_stall(3, 200)
            .with_conn_delay(2, 50);
        assert_eq!(plan.job_fault(1), (None, false));
        assert_eq!(
            plan.job_fault(3),
            (Some(Duration::from_millis(200)), true),
            "a job can stall then panic"
        );
        assert_eq!(plan.conn_delay(1), None);
        assert_eq!(plan.conn_delay(2), Some(Duration::from_millis(50)));
        assert!(!plan.checkpoint_aborts(1));
        assert!(FaultPlan::none()
            .with_checkpoint_abort(2)
            .checkpoint_aborts(2));
    }
}
