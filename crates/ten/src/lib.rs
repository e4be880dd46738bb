//! # tacos-ten
//!
//! The Time-expanded Network (TEN) that TACOS brings to the
//! distributed-ML domain (paper §IV-A/B, Figs. 6–7, 12), in the
//! event-driven form the synthesizer's matching loop runs on:
//! [`ExpandingTen`] works over arbitrary (heterogeneous) topologies. Time
//! columns appear at chunk-arrival events; per-link `busy_until` enforces
//! the one-chunk-per-link congestion-freedom invariant. On a homogeneous
//! topology the columns fall on the uniform steps of the paper's
//! materialized TEN (Fig. 7).

#![warn(missing_docs)]

mod expanding;
#[cfg(test)]
mod oracle;

pub use expanding::{Arrival, ExpandingTen};
