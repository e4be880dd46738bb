//! # tacos-collective
//!
//! Collective communication substrate for the TACOS reproduction: the chunk
//! model, collective patterns and their pre/postconditions (paper Fig. 4 and
//! §IV-C), and the [`algorithm::CollectiveAlgorithm`] intermediate
//! representation shared by the synthesizer, the baseline generators, and
//! the congestion-aware simulator.
//!
//! ```
//! use tacos_collective::{Collective, CollectivePattern};
//! use tacos_topology::ByteSize;
//!
//! // A 1 GB All-Reduce across 64 NPUs, split 4 ways per NPU (256 chunks).
//! let coll = Collective::with_chunking(
//!     CollectivePattern::AllReduce, 64, 4, ByteSize::gb(1))?;
//! assert_eq!(coll.num_chunks(), 256);
//! # Ok::<(), tacos_collective::CollectiveError>(())
//! ```

#![warn(missing_docs)]

pub mod algorithm;
mod bits;
mod chunk;
mod collective;
mod error;
pub mod export;
mod matrix;
mod pattern;

pub use chunk::{ChunkId, ChunkSet};
pub use collective::{Collective, MAX_NPU_CHUNK_PAIRS};
pub use error::CollectiveError;
pub use matrix::ChunkMatrix;
pub use pattern::{parse_pattern, CollectivePattern};

/// A chunk with its size, used in documentation and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// The chunk's identifier.
    pub id: ChunkId,
    /// The chunk's payload size.
    pub size: tacos_topology::ByteSize,
}
