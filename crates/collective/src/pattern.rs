//! Collective communication patterns (paper Fig. 4, Table III).

use std::fmt;

use tacos_topology::NpuId;

/// The communication pattern of a collective (paper §II-A).
///
/// Parallelization strategies map onto these patterns (Table III): data
/// parallelism needs All-Reduce; FSDP/ZeRO need Reduce-Scatter + All-Gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectivePattern {
    /// Every NPU starts with its own shard and ends with all shards.
    AllGather,
    /// Every NPU starts with a full buffer; NPU `i` ends with the global
    /// reduction of shard `i`.
    ReduceScatter,
    /// Reduce-Scatter followed by All-Gather: every NPU ends with the full
    /// globally-reduced buffer.
    AllReduce,
    /// The root's buffer is replicated to every NPU.
    Broadcast {
        /// The NPU whose data is distributed.
        root: NpuId,
    },
    /// Every NPU's buffer is combined into the root.
    Reduce {
        /// The NPU receiving the reduction.
        root: NpuId,
    },
    /// Every NPU sends a distinct shard to every other NPU (the
    /// many-to-many personalized exchange behind expert and sequence
    /// parallelism).
    AllToAll,
    /// Every NPU's shard is collected (uncombined) at the root.
    Gather {
        /// The NPU receiving all shards.
        root: NpuId,
    },
    /// The root's buffer is partitioned and shard `i` delivered to NPU `i`.
    Scatter {
        /// The NPU distributing the shards.
        root: NpuId,
    },
}

impl CollectivePattern {
    /// `true` if this pattern combines data (requires reduction trees, which
    /// TACOS synthesizes on the reversed topology — paper Fig. 11).
    pub fn is_combining(&self) -> bool {
        matches!(
            self,
            CollectivePattern::ReduceScatter
                | CollectivePattern::AllReduce
                | CollectivePattern::Reduce { .. }
        )
    }

    /// `true` if the pattern carries a root NPU.
    pub fn root(&self) -> Option<NpuId> {
        match self {
            CollectivePattern::Broadcast { root }
            | CollectivePattern::Reduce { root }
            | CollectivePattern::Gather { root }
            | CollectivePattern::Scatter { root } => Some(*root),
            _ => None,
        }
    }

    /// Short lowercase name, e.g. for CLI arguments and file names.
    pub fn short_name(&self) -> &'static str {
        match self {
            CollectivePattern::AllGather => "all-gather",
            CollectivePattern::ReduceScatter => "reduce-scatter",
            CollectivePattern::AllReduce => "all-reduce",
            CollectivePattern::Broadcast { .. } => "broadcast",
            CollectivePattern::Reduce { .. } => "reduce",
            CollectivePattern::AllToAll => "all-to-all",
            CollectivePattern::Gather { .. } => "gather",
            CollectivePattern::Scatter { .. } => "scatter",
        }
    }
}

impl fmt::Display for CollectivePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectivePattern::AllGather => write!(f, "All-Gather"),
            CollectivePattern::ReduceScatter => write!(f, "Reduce-Scatter"),
            CollectivePattern::AllReduce => write!(f, "All-Reduce"),
            CollectivePattern::Broadcast { root } => write!(f, "Broadcast(root={root})"),
            CollectivePattern::Reduce { root } => write!(f, "Reduce(root={root})"),
            CollectivePattern::AllToAll => write!(f, "All-to-All"),
            CollectivePattern::Gather { root } => write!(f, "Gather(root={root})"),
            CollectivePattern::Scatter { root } => write!(f, "Scatter(root={root})"),
        }
    }
}

/// Parses a collective pattern name, optionally rooted (`broadcast:3`).
///
/// # Errors
/// Returns a message for unknown patterns or out-of-range roots.
pub fn parse_pattern(s: &str, num_npus: usize) -> Result<CollectivePattern, String> {
    let (name, root) = match s.split_once(':') {
        Some((name, root)) => {
            let root: usize = root
                .parse()
                .map_err(|e| format!("bad root '{root}': {e}"))?;
            if root >= num_npus {
                return Err(format!("root {root} out of range for {num_npus} NPUs"));
            }
            (name, NpuId::new(root as u32))
        }
        None => (s, NpuId::new(0)),
    };
    match name {
        "all-gather" | "allgather" | "ag" => Ok(CollectivePattern::AllGather),
        "reduce-scatter" | "reducescatter" | "rs" => Ok(CollectivePattern::ReduceScatter),
        "all-reduce" | "allreduce" | "ar" => Ok(CollectivePattern::AllReduce),
        "all-to-all" | "alltoall" | "a2a" => Ok(CollectivePattern::AllToAll),
        "broadcast" | "bcast" => Ok(CollectivePattern::Broadcast { root }),
        "reduce" => Ok(CollectivePattern::Reduce { root }),
        "gather" => Ok(CollectivePattern::Gather { root }),
        "scatter" => Ok(CollectivePattern::Scatter { root }),
        other => Err(format!("unknown collective '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_patterns() {
        assert_eq!(
            parse_pattern("ar", 4).unwrap(),
            CollectivePattern::AllReduce
        );
        assert_eq!(
            parse_pattern("all-gather", 4).unwrap(),
            CollectivePattern::AllGather
        );
        assert_eq!(
            parse_pattern("a2a", 4).unwrap(),
            CollectivePattern::AllToAll
        );
        assert_eq!(
            parse_pattern("gather:2", 4).unwrap(),
            CollectivePattern::Gather {
                root: NpuId::new(2)
            }
        );
        assert_eq!(
            parse_pattern("scatter", 4).unwrap(),
            CollectivePattern::Scatter {
                root: NpuId::new(0)
            }
        );
        assert!(parse_pattern("gather:9", 4).is_err());
        assert!(parse_pattern("frobnicate", 4).is_err());
    }

    #[test]
    fn combining_classification() {
        assert!(!CollectivePattern::AllGather.is_combining());
        assert!(CollectivePattern::ReduceScatter.is_combining());
        assert!(CollectivePattern::AllReduce.is_combining());
        assert!(!CollectivePattern::Broadcast {
            root: NpuId::new(0)
        }
        .is_combining());
        assert!(CollectivePattern::Reduce {
            root: NpuId::new(0)
        }
        .is_combining());
    }

    #[test]
    fn new_patterns_are_non_combining_and_rooted() {
        assert!(!CollectivePattern::AllToAll.is_combining());
        assert!(!CollectivePattern::Gather {
            root: NpuId::new(1)
        }
        .is_combining());
        assert!(!CollectivePattern::Scatter {
            root: NpuId::new(1)
        }
        .is_combining());
        assert_eq!(CollectivePattern::AllToAll.root(), None);
        assert_eq!(
            CollectivePattern::Gather {
                root: NpuId::new(2)
            }
            .root(),
            Some(NpuId::new(2))
        );
        assert_eq!(CollectivePattern::AllToAll.short_name(), "all-to-all");
        assert_eq!(format!("{}", CollectivePattern::AllToAll), "All-to-All");
        assert_eq!(
            format!(
                "{}",
                CollectivePattern::Scatter {
                    root: NpuId::new(0)
                }
            ),
            "Scatter(root=NPU0)"
        );
    }

    #[test]
    fn names() {
        assert_eq!(CollectivePattern::AllGather.short_name(), "all-gather");
        assert_eq!(format!("{}", CollectivePattern::AllReduce), "All-Reduce");
        assert_eq!(
            format!(
                "{}",
                CollectivePattern::Broadcast {
                    root: NpuId::new(2)
                }
            ),
            "Broadcast(root=NPU2)"
        );
    }
}
