//! Error type for collective construction.

use std::error::Error;
use std::fmt;

/// Errors produced while describing a collective communication.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CollectiveError {
    /// Collectives need at least two participants.
    TooFewNpus {
        /// Number of NPUs requested.
        num_npus: usize,
    },
    /// The chunking factor must be at least 1.
    ZeroChunks,
    /// The chunking factor asks for more chunks than a [`crate::ChunkId`]
    /// can number.
    TooManyChunks {
        /// Number of participating NPUs.
        num_npus: usize,
        /// The offending chunking factor.
        chunks_per_npu: usize,
    },
    /// The collective spans more (NPU, chunk) pairs than
    /// [`crate::MAX_NPU_CHUNK_PAIRS`]: synthesizing it would allocate
    /// per-pair state no request should be able to ask for.
    TooLarge {
        /// `num_npus × num_chunks` of the requested collective.
        pairs: u64,
        /// The limit it exceeds.
        limit: u64,
    },
    /// A rooted collective referenced a root outside `0..num_npus`.
    RootOutOfRange {
        /// The offending root index.
        root: usize,
        /// Number of participating NPUs.
        num_npus: usize,
    },
    /// The collective payload is too small to split into the requested
    /// number of chunks.
    SizeNotDivisible {
        /// Total payload bytes.
        size: u64,
        /// Requested number of chunks.
        chunks: u64,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::TooFewNpus { num_npus } => {
                write!(f, "collective requires at least 2 NPUs, got {num_npus}")
            }
            CollectiveError::ZeroChunks => {
                write!(f, "chunking factor must be at least 1")
            }
            CollectiveError::TooManyChunks {
                num_npus,
                chunks_per_npu,
            } => {
                write!(
                    f,
                    "chunking factor {chunks_per_npu} over {num_npus} NPUs exceeds the {} chunks a \
                     collective can number",
                    u32::MAX
                )
            }
            CollectiveError::TooLarge { pairs, limit } => {
                write!(
                    f,
                    "collective spans {pairs} (NPU, chunk) pairs, over the limit of {limit}"
                )
            }
            CollectiveError::RootOutOfRange { root, num_npus } => {
                write!(f, "root {root} out of range for {num_npus} NPUs")
            }
            CollectiveError::SizeNotDivisible { size, chunks } => {
                write!(
                    f,
                    "payload of {size} bytes cannot be split into {chunks} chunks"
                )
            }
        }
    }
}

impl Error for CollectiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CollectiveError::TooFewNpus { num_npus: 1 }
            .to_string()
            .contains("at least 2"));
        assert!(CollectiveError::ZeroChunks
            .to_string()
            .contains("chunking factor"));
        assert!(CollectiveError::TooManyChunks {
            num_npus: 8,
            chunks_per_npu: 1 << 61
        }
        .to_string()
        .contains("chunking factor 2305843009213693952 over 8 NPUs"));
        assert_eq!(
            CollectiveError::TooLarge {
                pairs: 1 << 34,
                limit: 1 << 25
            }
            .to_string(),
            "collective spans 17179869184 (NPU, chunk) pairs, over the limit of 33554432"
        );
        assert!(CollectiveError::RootOutOfRange {
            root: 4,
            num_npus: 2
        }
        .to_string()
        .contains("root 4"));
        assert!(CollectiveError::SizeNotDivisible { size: 3, chunks: 7 }
            .to_string()
            .contains("cannot be split"));
    }
}
