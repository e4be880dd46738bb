//! # tacos-workload
//!
//! The shared evaluation vocabulary plus end-to-end distributed training
//! models for the paper's §VI-D evaluation: GNMT, ResNet-50, and
//! Turing-NLG on 3D-RFS clusters (Fig. 20) and ResNet-50 / MSFT-1T on a
//! 1,024-NPU 3D Torus (Fig. 21).
//!
//! A [`Mechanism`] is the one answer every evaluation layer shares for
//! "how is a collective executed": a baseline generator, a TACOS
//! synthesis under a concrete `SynthesizerConfig`, or the theoretical
//! ideal bound — parseable from the same algorithm spec strings the
//! scenario engine's `algo` axis and the CLI's `--algo` flag use. A
//! [`Point`] is one single-collective request as the one-shot CLI and
//! `tacos serve` spell it; [`Point::resolve`] is the one place its
//! fields are checked and turned into a fabric, a pattern, a size and a
//! mechanism.
//!
//! A [`Workload`] carries per-iteration compute times and exposed gradient
//! collective volumes; [`TrainingEvaluator`] runs the gradient All-Reduce
//! under any [`Mechanism`] and reports the iteration breakdown
//! (fwd / bwd / exposed input-gradient / exposed weight-gradient), with
//! the communication pattern ([`Parallelism`]) and a compute-overlap
//! fraction as knobs.

#![warn(missing_docs)]

mod error;
mod evaluate;
mod mechanism;
mod models;
mod point;
mod training;

pub use error::WorkloadError;
pub use evaluate::{bandwidth_gbps, Evaluated, Evaluator, Generation, Plan};
pub use mechanism::{parse_baseline, Mechanism, SynthMechanism};
pub use models::Workload;
pub use point::Point;
pub use training::{Parallelism, TrainingEvaluator, TrainingReport};
