//! Percentiles and the tail rule.
//!
//! Percentiles are nearest-rank (no interpolation): a workload's op list
//! is a handful of cost classes, and an interpolated percentile that
//! falls between two classes would move with the noise of both. Workload
//! sizes are chosen so the reported ranks land inside a class.

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
pub fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99/p95/p90 with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it; `None` when even p90 has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99, 95, 90]
        .into_iter()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Latency summary of one workload's ops.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    pub tail_percentile: u32,
    pub tail_ms: f64,
    pub beyond_tail: usize,
}

/// Summarises op latencies (milliseconds). Errors when the op count is
/// too small to support any tail.
pub fn summarize(latencies_ms: &[f64]) -> Result<Latency, String> {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p = tail_percentile(n)
        .ok_or_else(|| format!("{n} ops cannot support a p90 with {TAIL_MIN_BEYOND} beyond it"))?;
    Ok(Latency {
        samples: n,
        p50_ms: percentile(&sorted, 50),
        tail_percentile: p,
        tail_ms: percentile(&sorted, p),
        beyond_tail: n - rank(n, p),
    })
}

/// Median of a small set of repeated measurements (mean of the middle
/// pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_never_interpolates() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50), 2.0);
        assert_eq!(percentile(&sorted, 51), 3.0);
        assert_eq!(percentile(&sorted, 100), 4.0);
        assert_eq!(percentile(&sorted, 1), 1.0);
    }

    #[test]
    fn tail_rule_picks_the_highest_supported_percentile() {
        // The op counts the five workloads actually produce.
        assert_eq!(tail_percentile(130), Some(90)); // 13 beyond p90, 6 beyond p95
        assert_eq!(tail_percentile(132), Some(90));
        assert_eq!(tail_percentile(600), Some(95)); // 30 beyond p95, 6 beyond p99
        assert_eq!(tail_percentile(150_000), Some(99));
        assert_eq!(tail_percentile(1_000), Some(99)); // exactly 10 beyond
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(100), Some(90)); // exactly 10 beyond
        assert_eq!(tail_percentile(99), None);
    }

    #[test]
    fn summary_reports_rank_values_and_sample_counts() {
        let ms: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&ms).unwrap();
        assert_eq!(s.samples, 200);
        assert_eq!(s.p50_ms, 100.0);
        assert_eq!(s.tail_percentile, 95);
        assert_eq!(s.tail_ms, 190.0);
        assert_eq!(s.beyond_tail, 10);
        assert!(summarize(&ms[..50]).is_err());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
