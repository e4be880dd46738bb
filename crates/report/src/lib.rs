//! # tacos-report
//!
//! Output utilities for the TACOS experiment harness: aligned ASCII
//! tables, minimal CSV/JSON encoders (see DESIGN.md §2 for why
//! `serde_json` is not used), and the least-squares fits behind the
//! Fig. 19 scalability claim.

#![warn(missing_docs)]

mod fit;
mod output;
mod parse;
mod table;

pub use fit::{fit_power, Fit};
pub use output::{to_csv, Json};
pub use table::{fmt_f64, Table};
