//! Simulation results: collective time, per-link traffic, utilization.

use tacos_topology::{ByteSize, LinkId, Time, Topology};

/// Aggregate per-link load statistics of one simulation — the summary
/// numbers under the paper Fig. 1 heat maps: how hot the hottest link
/// ran, how many links sat idle, and how skewed the load was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoadStats {
    /// Total bytes carried by the hottest link.
    pub max_link_bytes: u64,
    /// Number of links that carried zero bytes (undersubscription).
    pub idle_links: usize,
    /// Mean bytes per link (idle links included).
    pub mean_link_bytes: f64,
    /// Total bytes carried over all links (multi-hop transfers count once
    /// per hop).
    pub total_bytes: u64,
    /// Hottest-link bytes over mean link bytes (oversubscription; 0.0
    /// when no link carried traffic).
    pub imbalance: f64,
    /// Mean link utilization over the collective (0..1).
    pub avg_utilization: f64,
}

/// One contiguous busy period of a link (a message transmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyInterval {
    /// The link that was busy.
    pub link: LinkId,
    /// Transmission start.
    pub start: Time,
    /// Transmission duration.
    pub duration: Time,
    /// Payload bytes of the transmission.
    pub bytes: u64,
}

/// One segment of a time-resolved view of a simulation: either a uniform
/// bucket of [`SimReport::timeline`] or an event-aligned span of
/// [`SimReport::span_stages`].
///
/// Segments partition `[0, collective_time]` exactly: `start` of the
/// first is zero, `end` of the last is the collective time, and each
/// `end` equals the next `start`. Busy time is split across segments at
/// picosecond granularity, so summing `busy` over all segments of either
/// view reproduces the report's total link busy time exactly. Bytes are
/// attributed to the segment in which their transmission *completes*, so
/// the final `cumulative_bytes` equals the sum of
/// [`SimReport::link_bytes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSegment {
    /// Segment index within its view.
    pub index: usize,
    /// Segment start (inclusive).
    pub start: Time,
    /// Segment end (exclusive, except the final segment).
    pub end: Time,
    /// Link busy time inside the segment, summed over links.
    pub busy: Time,
    /// `busy / (num_links * (end - start))`, in `[0, 1]`.
    pub utilization: f64,
    /// Number of distinct links busy at any point inside the segment.
    pub active_links: usize,
    /// Payload bytes whose transmission completed inside the segment.
    pub bytes_completed: u64,
    /// Running total of `bytes_completed` up to and including this
    /// segment.
    pub cumulative_bytes: u64,
}

/// Everything the experiments need from one simulation run.
///
/// * [`SimReport::collective_time`] — when the last chunk arrived.
/// * [`SimReport::link_bytes`] — total payload per link (the heat maps of
///   paper Figs. 1 and 15b).
/// * [`SimReport::utilization_timeline`] — fraction of links busy over
///   normalized time (paper Figs. 16b and 18).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct SimReport {
    collective_time: Time,
    link_bytes: Vec<u64>,
    link_busy: Vec<Time>,
    intervals: Vec<BusyInterval>,
    messages: u64,
    total_size: ByteSize,
}

impl SimReport {
    pub(crate) fn new(
        collective_time: Time,
        link_bytes: Vec<u64>,
        link_busy: Vec<Time>,
        intervals: Vec<BusyInterval>,
        messages: u64,
        total_size: ByteSize,
    ) -> Self {
        SimReport {
            collective_time,
            link_bytes,
            link_busy,
            intervals,
            messages,
            total_size,
        }
    }

    /// Simulated collective completion time.
    pub fn collective_time(&self) -> Time {
        self.collective_time
    }

    /// Achieved collective bandwidth: payload ÷ completion time (the
    /// paper's evaluation metric).
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        if self.collective_time.is_zero() {
            f64::INFINITY
        } else {
            self.total_size.as_u64() as f64 / self.collective_time.as_secs_f64()
        }
    }

    /// Same bandwidth in decimal GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_bytes_per_sec() / 1e9
    }

    /// Total bytes carried by each link (indexed by [`LinkId`]).
    pub fn link_bytes(&self) -> &[u64] {
        &self.link_bytes
    }

    /// Total busy time of each link.
    pub fn link_busy(&self) -> &[Time] {
        &self.link_busy
    }

    /// One busy interval per message, in nondecreasing start order.
    ///
    /// Messages that start at the same instant appear in the event
    /// engine's processing order when the engine ran, and in transfer
    /// index order when the report was replayed from a link-exclusive
    /// plan (see the simulator's module docs), so the order of equal
    /// starts is not part of the contract. [`SimReport::timeline`],
    /// [`SimReport::span_stages`] and the per-link totals only sum
    /// integers over the intervals and do not depend on it;
    /// [`SimReport::utilization_timeline`] sums floats, so its values may
    /// differ in the last bits between the two orders.
    pub fn intervals(&self) -> &[BusyInterval] {
        &self.intervals
    }

    /// The report with its intervals in (start, link, duration, bytes)
    /// order, for comparing reports as multisets of intervals.
    #[cfg(test)]
    pub(crate) fn with_sorted_intervals(mut self) -> Self {
        self.intervals
            .sort_by_key(|iv| (iv.start, iv.link, iv.duration, iv.bytes));
        self
    }

    /// Number of point-to-point messages simulated (multi-hop transfers
    /// count once per hop).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Utilization of one link: busy time ÷ collective time.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        if self.collective_time.is_zero() {
            return 0.0;
        }
        self.link_busy[link.index()].as_secs_f64() / self.collective_time.as_secs_f64()
    }

    /// Mean utilization across all links (the per-topology bar of paper
    /// Fig. 15b).
    pub fn average_utilization(&self) -> f64 {
        if self.link_busy.is_empty() || self.collective_time.is_zero() {
            return 0.0;
        }
        let total: f64 = self.link_busy.iter().map(|t| t.as_secs_f64()).sum();
        total / (self.link_busy.len() as f64 * self.collective_time.as_secs_f64())
    }

    /// Network utilization over time: `bins` equal slices of the collective
    /// duration, each holding the fraction of link-time spent busy
    /// (paper Figs. 16b and 18).
    pub fn utilization_timeline(&self, bins: usize) -> Vec<f64> {
        assert!(bins > 0, "at least one bin required");
        let mut out = vec![0.0f64; bins];
        let total_ps = self.collective_time.as_ps();
        if total_ps == 0 || self.link_busy.is_empty() {
            return out;
        }
        let bin_width = total_ps as f64 / bins as f64;
        for iv in &self.intervals {
            let s = iv.start.as_ps() as f64;
            let e = (iv.start + iv.duration).as_ps() as f64;
            let first = ((s / bin_width) as usize).min(bins - 1);
            let last = ((e / bin_width) as usize).min(bins - 1);
            for (off, slot) in out[first..=last].iter_mut().enumerate() {
                let b_start = (first + off) as f64 * bin_width;
                let b_end = b_start + bin_width;
                let overlap = (e.min(b_end) - s.max(b_start)).max(0.0);
                *slot += overlap;
            }
        }
        let denom = bin_width * self.link_bytes.len() as f64;
        for v in &mut out {
            *v /= denom;
        }
        out
    }

    /// Aggregate load statistics over all links (the Fig. 1 summary
    /// metrics, as computed by the original heat-map experiment).
    pub fn link_load_stats(&self) -> LinkLoadStats {
        let max = self.link_bytes.iter().copied().max().unwrap_or(0);
        let idle = self.link_bytes.iter().filter(|&&b| b == 0).count();
        let total = self.link_bytes.iter().sum::<u64>();
        let mean = if self.link_bytes.is_empty() {
            0.0
        } else {
            total as f64 / self.link_bytes.len() as f64
        };
        LinkLoadStats {
            max_link_bytes: max,
            idle_links: idle,
            mean_link_bytes: mean,
            total_bytes: total,
            imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            avg_utilization: self.average_utilization(),
        }
    }

    /// The network-utilization timeline as `bins` uniform buckets (the
    /// curves of paper Figs. 16b and 18, with exact byte accounting).
    ///
    /// Buckets partition `[0, collective_time]`; when the collective is
    /// shorter than `bins` picoseconds, coinciding bucket boundaries are
    /// merged and fewer segments come back. Returns an empty vector for a
    /// zero-time (empty) simulation.
    ///
    /// # Panics
    /// Panics if `bins` is zero.
    pub fn timeline(&self, bins: usize) -> Vec<TimelineSegment> {
        assert!(bins > 0, "at least one bucket required");
        let total = self.collective_time.as_ps();
        if total == 0 {
            return Vec::new();
        }
        let mut boundaries = Vec::with_capacity(bins + 1);
        for i in 0..=bins {
            let b = (u128::from(total) * i as u128 / bins as u128) as u64;
            if boundaries.last() != Some(&b) {
                boundaries.push(b);
            }
        }
        self.segments_at(&boundaries)
    }

    /// The event-aligned time spans of the simulation: one segment per
    /// interval between consecutive transmission start/end events — the
    /// per-span view of the paper's TEN drawings (Fig. 10), generalized to
    /// heterogeneous event times (Fig. 12). On a homogeneous topology
    /// running a synthesized schedule these are exactly the TEN's uniform
    /// time spans.
    pub fn span_stages(&self) -> Vec<TimelineSegment> {
        let total = self.collective_time.as_ps();
        if total == 0 {
            return Vec::new();
        }
        let mut boundaries: Vec<u64> = Vec::with_capacity(2 * self.intervals.len() + 2);
        boundaries.push(0);
        boundaries.push(total);
        for iv in &self.intervals {
            boundaries.push(iv.start.as_ps());
            boundaries.push((iv.start + iv.duration).as_ps());
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        self.segments_at(&boundaries)
    }

    /// Splits the recorded busy intervals over the given strictly
    /// increasing boundary list (first 0, last the collective time).
    fn segments_at(&self, boundaries: &[u64]) -> Vec<TimelineSegment> {
        let n_seg = boundaries.len().saturating_sub(1);
        if n_seg == 0 {
            return Vec::new();
        }
        let mut busy_ps = vec![0u64; n_seg];
        let mut bytes = vec![0u64; n_seg];
        // (segment, link) pairs for distinct-active-link counting; total
        // size is the number of interval/segment overlaps.
        let mut active: Vec<(u32, u32)> = Vec::new();
        // The segment whose half-open range [b_i, b_{i+1}) contains `t`
        // (`t == total` maps to the last segment).
        let seg_of = |t: u64| -> usize {
            boundaries
                .partition_point(|&b| b <= t)
                .saturating_sub(1)
                .min(n_seg - 1)
        };
        for iv in &self.intervals {
            let s = iv.start.as_ps();
            let e = (iv.start + iv.duration).as_ps();
            // Bytes land where the transmission completes (end-inclusive).
            let completes = boundaries
                .partition_point(|&b| b < e)
                .saturating_sub(1)
                .min(n_seg - 1);
            bytes[completes] += iv.bytes;
            let mut i = seg_of(s);
            while i < n_seg && boundaries[i] < e {
                let overlap = e.min(boundaries[i + 1]) - s.max(boundaries[i]);
                if overlap > 0 {
                    busy_ps[i] += overlap;
                    active.push((i as u32, iv.link.index() as u32));
                }
                i += 1;
            }
        }
        active.sort_unstable();
        active.dedup();
        let mut active_counts = vec![0usize; n_seg];
        for &(seg, _) in &active {
            active_counts[seg as usize] += 1;
        }
        let num_links = self.link_bytes.len();
        let mut cumulative = 0u64;
        (0..n_seg)
            .map(|i| {
                cumulative += bytes[i];
                let width = boundaries[i + 1] - boundaries[i];
                let capacity = width as f64 * num_links as f64;
                TimelineSegment {
                    index: i,
                    start: Time::from_ps(boundaries[i]),
                    end: Time::from_ps(boundaries[i + 1]),
                    busy: Time::from_ps(busy_ps[i]),
                    utilization: if capacity > 0.0 {
                        busy_ps[i] as f64 / capacity
                    } else {
                        0.0
                    },
                    active_links: active_counts[i],
                    bytes_completed: bytes[i],
                    cumulative_bytes: cumulative,
                }
            })
            .collect()
    }

    /// Aggregates per-link bytes into an `n × n` source/destination matrix
    /// (parallel links summed) — the cells of paper Fig. 1. Cells without a
    /// physical link are `None`.
    pub fn bytes_matrix(&self, topo: &Topology) -> Vec<Vec<Option<u64>>> {
        let n = topo.num_npus();
        let mut m = vec![vec![None; n]; n];
        for link in topo.links() {
            let cell = &mut m[link.src().index()][link.dst().index()];
            *cell = Some(cell.unwrap_or(0) + self.link_bytes[link.id().index()]);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        // Two links; link 0 busy [0,50) and [50,100); link 1 busy [0,25).
        SimReport::new(
            Time::from_ps(100),
            vec![200, 50],
            vec![Time::from_ps(100), Time::from_ps(25)],
            vec![
                BusyInterval {
                    link: LinkId::new(0),
                    start: Time::ZERO,
                    duration: Time::from_ps(50),
                    bytes: 100,
                },
                BusyInterval {
                    link: LinkId::new(0),
                    start: Time::from_ps(50),
                    duration: Time::from_ps(50),
                    bytes: 100,
                },
                BusyInterval {
                    link: LinkId::new(1),
                    start: Time::ZERO,
                    duration: Time::from_ps(25),
                    bytes: 50,
                },
            ],
            3,
            ByteSize::bytes(250),
        )
    }

    #[test]
    fn utilization_metrics() {
        let r = report();
        assert_eq!(r.link_utilization(LinkId::new(0)), 1.0);
        assert_eq!(r.link_utilization(LinkId::new(1)), 0.25);
        assert!((r.average_utilization() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn timeline_bins() {
        let r = report();
        let tl = r.utilization_timeline(4);
        // Bins of 25 ps: [0,25): both links busy => 1.0; others: only link 0.
        assert!((tl[0] - 1.0).abs() < 1e-9);
        assert!((tl[1] - 0.5).abs() < 1e-9);
        assert!((tl[2] - 0.5).abs() < 1e-9);
        assert!((tl[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn link_load_stats_summarize_the_heatmap() {
        let r = report();
        let s = r.link_load_stats();
        assert_eq!(s.max_link_bytes, 200);
        assert_eq!(s.idle_links, 0);
        assert!((s.mean_link_bytes - 125.0).abs() < 1e-12);
        assert_eq!(s.total_bytes, 250);
        assert!((s.imbalance - 1.6).abs() < 1e-12);
        assert!((s.avg_utilization - 0.625).abs() < 1e-12);
    }

    #[test]
    fn timeline_segments_partition_and_conserve() {
        let r = report();
        let tl = r.timeline(4);
        assert_eq!(tl.len(), 4);
        // Exact partition of [0, 100] ps.
        assert_eq!(tl[0].start, Time::ZERO);
        assert_eq!(tl[3].end, Time::from_ps(100));
        for w in tl.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // [0,25): both links busy; link 1's 50 bytes complete at t=25,
        // the end of bucket 0.
        assert_eq!(tl[0].busy, Time::from_ps(50));
        assert_eq!(tl[0].active_links, 2);
        assert!((tl[0].utilization - 1.0).abs() < 1e-12);
        assert_eq!(tl[0].bytes_completed, 50);
        // [25,50): only link 0; its first message completes at t=50.
        assert_eq!(tl[1].active_links, 1);
        assert_eq!(tl[1].bytes_completed, 100);
        assert!((tl[1].utilization - 0.5).abs() < 1e-12);
        // Busy time is conserved exactly; cumulative bytes end at the
        // link-bytes total.
        let busy: u64 = tl.iter().map(|s| s.busy.as_ps()).sum();
        assert_eq!(busy, 100 + 25);
        assert_eq!(tl.last().unwrap().cumulative_bytes, 250);
    }

    #[test]
    fn span_stages_align_to_events() {
        let r = report();
        let spans = r.span_stages();
        // Event times: 0, 25, 50, 100 -> three spans.
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].end, Time::from_ps(25));
        assert_eq!(spans[1].end, Time::from_ps(50));
        assert_eq!(spans[2].end, Time::from_ps(100));
        assert!((spans[0].utilization - 1.0).abs() < 1e-12);
        assert!((spans[1].utilization - 0.5).abs() < 1e-12);
        assert!((spans[2].utilization - 0.5).abs() < 1e-12);
        assert_eq!(spans[0].active_links, 2);
        assert_eq!(spans[2].active_links, 1);
        let busy: u64 = spans.iter().map(|s| s.busy.as_ps()).sum();
        assert_eq!(busy, 125);
        assert_eq!(spans.last().unwrap().cumulative_bytes, 250);
    }

    #[test]
    fn empty_report_has_no_timeline() {
        let r = SimReport::new(Time::ZERO, vec![0, 0], vec![], vec![], 0, ByteSize::ZERO);
        assert!(r.timeline(8).is_empty());
        assert!(r.span_stages().is_empty());
    }

    #[test]
    fn bandwidth() {
        let r = report();
        // 250 bytes / 100 ps = 2.5e12 B/s.
        assert!((r.bandwidth_bytes_per_sec() - 2.5e12).abs() < 1.0);
        assert_eq!(r.messages(), 3);
    }
}
