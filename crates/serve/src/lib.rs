//! # tacos-serve
//!
//! Synthesis-as-a-service: the paper's synthesizer wrapped in a
//! long-lived daemon (`tacos serve`) so repeated collective-algorithm
//! requests — the pattern a training-cluster scheduler produces —
//! amortize synthesis cost across clients and process restarts.
//!
//! The daemon is plain std: a blocking accept loop, a bounded
//! synthesis worker pool with admission control and a panic-respawning
//! supervisor, single-flight deduplication of concurrent identical
//! requests (one synthesis, N responses), a bounded table of resolved
//! request shapes (a repeat request is answered without rebuilding its
//! topology or re-deriving its key), per-request deadlines,
//! overload protection (bounded request lines, idle timeouts, a
//! connection cap with `retry_after_ms` hints), and a crash-safe warm
//! cache persisted to disk with per-entry checksums and periodic
//! checkpoints. The wire protocol is one JSON object per line in each
//! direction; see [`protocol`].
//!
//! [`faults`] is a test seam: deterministic fault injection, which the
//! chaos suite (`cargo test -p tacos-serve --test chaos`) drives to
//! assert the daemon's operational invariants.

#![warn(missing_docs)]

mod client;
mod daemon;
pub mod faults;
pub mod protocol;

pub use client::{Client, RetriedCall, RetryPolicy};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle, MAX_RESOLVED_SHAPES, SNAPSHOT_FILE};
pub use faults::FaultPlan;
pub use protocol::{OkBody, Op, Request, Response, StatsBody};
