//! Deterministic fault injection for the serving daemon.
//!
//! A [`FaultPlan`] is a *schedule* of failures keyed by monotone
//! sequence numbers the daemon assigns anyway — the Nth synthesis job
//! enqueued, the Nth connection accepted, the Nth checkpoint attempted.
//! Pure index lookups make the same plan reproduce the same failures on
//! every run, which is what lets `tacos chaos` assert exact invariants
//! (restart counters, which flight errored, which checkpoint aborted)
//! instead of probabilistic ones.
//!
//! Plans come from two places: a spec string on the `--faults` flag
//! (`panic@3,stall@5:200,conn-delay@2:50,checkpoint-abort@1`) for
//! hand-driven experiments, and [`FaultPlan::from_seed`] for chaos runs
//! that want variety across seeds without giving up determinism.

use std::fmt;
use std::time::Duration;

/// A deterministic schedule of injected failures. All indices are
/// **1-based** — "panic@3" fails the third job — matching how operators
/// count and making `@0` a parse error instead of a silent no-op.
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

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self == &FaultPlan::default()
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

    /// Parses the `--faults` spec: comma-separated clauses, each one of
    ///
    /// ```text
    /// panic@<job>               synthesis panic on the Nth job
    /// stall@<job>:<ms>          stall the Nth job for <ms> before synthesis
    /// conn-delay@<conn>:<ms>    delay every response on the Nth connection
    /// checkpoint-abort@<n>      abort the Nth checkpoint mid-write
    /// ```
    ///
    /// # Errors
    /// A readable message naming the offending clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, args) = clause
                .split_once('@')
                .ok_or_else(|| format!("fault clause '{clause}' is missing '@<index>'"))?;
            let index = |s: &str| -> Result<u64, String> {
                match s.parse::<u64>() {
                    Ok(0) => Err(format!("fault clause '{clause}': indices are 1-based")),
                    Ok(i) => Ok(i),
                    Err(e) => Err(format!("fault clause '{clause}': bad index '{s}': {e}")),
                }
            };
            let indexed_ms = |s: &str| -> Result<(u64, u64), String> {
                let (i, ms) = s
                    .split_once(':')
                    .ok_or_else(|| format!("fault clause '{clause}' wants '@<index>:<ms>'"))?;
                Ok((
                    index(i)?,
                    ms.parse::<u64>()
                        .map_err(|e| format!("fault clause '{clause}': bad ms '{ms}': {e}"))?,
                ))
            };
            match kind {
                "panic" => plan.panic_jobs.push(index(args)?),
                "stall" => plan.stall_jobs.push(indexed_ms(args)?),
                "conn-delay" => plan.conn_delays.push(indexed_ms(args)?),
                "checkpoint-abort" => plan.checkpoint_aborts.push(index(args)?),
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (expected panic, stall, conn-delay, or \
                         checkpoint-abort)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// A seed-derived plan for chaos runs: one synthesis panic, one
    /// stall, one delayed connection, and one checkpoint abort, at
    /// seed-dependent small indices. Deterministic — the same seed
    /// always yields the same plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || -> u64 {
            // splitmix64: cheap, well-distributed, fully deterministic.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let panic_job = 2 + next() % 3; // job 2..=4 of the chaos trace
        let stall_job = 1 + next() % 2; // job 1..=2
        FaultPlan::default()
            .with_panic(panic_job)
            // The panicking job also stalls briefly so a follower can
            // reliably join the doomed flight before it resolves.
            .with_stall(panic_job, 150)
            .with_stall(stall_job, 30 + next() % 60)
            .with_conn_delay(1 + next() % 2, 20 + next() % 40)
            .with_checkpoint_abort(2)
    }

    /// The 1-based index of the job scheduled to panic, if any (the
    /// chaos harness steers a follower onto that flight).
    pub fn first_panic_job(&self) -> Option<u64> {
        self.panic_jobs.iter().copied().min()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clauses: Vec<String> = Vec::new();
        for i in &self.panic_jobs {
            clauses.push(format!("panic@{i}"));
        }
        for (i, ms) in &self.stall_jobs {
            clauses.push(format!("stall@{i}:{ms}"));
        }
        for (i, ms) in &self.conn_delays {
            clauses.push(format!("conn-delay@{i}:{ms}"));
        }
        for i in &self.checkpoint_aborts {
            clauses.push(format!("checkpoint-abort@{i}"));
        }
        write!(f, "{}", clauses.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_display() {
        let spec = "panic@3,stall@5:200,conn-delay@2:50,checkpoint-abort@1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn lookups_are_by_one_based_index() {
        let plan = FaultPlan::parse("panic@3,stall@3:200,conn-delay@2:50").unwrap();
        assert_eq!(plan.job_fault(1), (None, false));
        assert_eq!(
            plan.job_fault(3),
            (Some(Duration::from_millis(200)), true),
            "a job can stall then panic"
        );
        assert_eq!(plan.conn_delay(1), None);
        assert_eq!(plan.conn_delay(2), Some(Duration::from_millis(50)));
        assert!(!plan.checkpoint_aborts(1));
        assert_eq!(plan.first_panic_job(), Some(3));
    }

    #[test]
    fn bad_specs_are_readable_errors() {
        for bad in [
            "panic",             // no index
            "panic@0",           // 1-based
            "panic@x",           // not a number
            "stall@3",           // missing ms
            "frobnicate@1",      // unknown kind
            "conn-delay@1:fast", // bad ms
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
        // Empty clauses and whitespace are tolerated.
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_vary_by_seed() {
        for seed in 0..50 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            assert!(a.first_panic_job().is_some());
            assert!(a.checkpoint_aborts(2));
        }
        let distinct: std::collections::HashSet<String> = (0..50)
            .map(|s| FaultPlan::from_seed(s).to_string())
            .collect();
        assert!(distinct.len() > 10, "seeds should vary: {}", distinct.len());
    }
}
