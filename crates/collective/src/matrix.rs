//! A structure-of-arrays chunk-state matrix: many [`ChunkSet`]-shaped rows
//! in **one contiguous word buffer**.
//!
//! The synthesizer's matching inner loop asks, per free link, *"is there a
//! chunk the source holds that the destination still needs?"* With
//! per-NPU `Vec<ChunkSet>` state every probe chases two heap pointers into
//! unrelated allocations. `ChunkMatrix` stores all rows back-to-back with
//! a fixed row stride, so the `holds(src) ∩ needs(dst)` probe is a
//! word-wise AND over two slices of the same flat buffer — no per-NPU heap
//! objects, cache-friendly, and trivially resettable for scratch reuse.
//!
//! [`ChunkSet`] remains the public single-row type; [`ChunkMatrix::load_row`]
//! and [`ChunkMatrix::row_to_set`] convert between the two.
//!
//! The row/probe semantics here sit under the matcher whose behavior is
//! fingerprinted by `MATCHER_VERSION` (tacos-core's cache module) — a
//! change to probe results requires bumping that constant.

use crate::bits;
use crate::chunk::{ChunkId, ChunkSet};

/// A dense `rows × capacity` bit matrix of chunk sets in one flat buffer.
///
/// ```
/// use tacos_collective::{ChunkId, ChunkMatrix};
/// let mut m = ChunkMatrix::new(4, 128);
/// m.insert(0, ChunkId::new(100));
/// m.insert(1, ChunkId::new(100));
/// assert_eq!(m.pick_intersection(0, 1, 0), Some(ChunkId::new(100)));
/// assert_eq!(m.pick_intersection(0, 2, 0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMatrix {
    words: Vec<u64>,
    /// One bit per word of each row, set iff the word is non-zero — kept
    /// *exact* (cleared when a word empties) so the summary-guided
    /// kernels return precisely what a full scan would while loading
    /// only words populated on both sides of an AND. At mesh-benchmark
    /// scale (16K chunks = 256 words per row) a whole row's summary is
    /// four words, so a probe against a nearly-drained needs row costs a
    /// handful of loads instead of 256.
    summary: Vec<u64>,
    /// Words per row (`capacity.div_ceil(64)`).
    stride: usize,
    /// Summary words per row (`stride.div_ceil(64)`).
    sum_stride: usize,
    /// Chunks per row.
    capacity: usize,
    rows: usize,
}

impl Default for ChunkMatrix {
    fn default() -> Self {
        ChunkMatrix::new(0, 0)
    }
}

impl ChunkMatrix {
    /// An all-empty matrix of `rows` sets, each holding chunks
    /// `0..capacity`.
    pub fn new(rows: usize, capacity: usize) -> Self {
        let stride = capacity.div_ceil(64);
        let sum_stride = stride.div_ceil(64);
        ChunkMatrix {
            words: vec![0; rows * stride],
            summary: vec![0; rows * sum_stride],
            stride,
            sum_stride,
            capacity,
            rows,
        }
    }

    /// Clears and reshapes the matrix in place, reusing the existing
    /// allocation whenever it is large enough.
    pub fn reset(&mut self, rows: usize, capacity: usize) {
        self.stride = capacity.div_ceil(64);
        self.sum_stride = self.stride.div_ceil(64);
        self.capacity = capacity;
        self.rows = rows;
        self.words.clear();
        self.words.resize(rows * self.stride, 0);
        self.summary.clear();
        self.summary.resize(rows * self.sum_stride, 0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Chunks per row.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The words of row `r`.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// The block-summary words of row `r`.
    fn sum_row(&self, r: usize) -> &[u64] {
        &self.summary[r * self.sum_stride..(r + 1) * self.sum_stride]
    }

    /// Hints the cache lines a [`ChunkMatrix::pick_intersection`] of rows
    /// `ra`/`rb` starting at `start_bit` will touch first: both rows'
    /// summary words and the data words holding `start_bit`. Callers that
    /// know the *next* probe while executing the current one issue this to
    /// overlap the (hash-randomized, therefore cache-hostile) row fetches
    /// with useful work. Purely a hint — no-op on non-x86_64 targets.
    #[inline]
    pub fn prefetch_probe(&self, ra: usize, rb: usize, start_bit: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let word = (start_bit / 64).min(self.stride.saturating_sub(1));
            // SAFETY: `_mm_prefetch` is a pure cache hint with no memory
            // access semantics — it cannot fault even on a wild pointer.
            // The offsets are in-bounds anyway: `ra`/`rb` are row indices
            // (< rows), `word < stride`, and both vecs are sized
            // rows*stride / rows*sum_stride.
            unsafe {
                _mm_prefetch(
                    self.summary.as_ptr().add(ra * self.sum_stride) as *const i8,
                    _MM_HINT_T0,
                );
                _mm_prefetch(
                    self.summary.as_ptr().add(rb * self.sum_stride) as *const i8,
                    _MM_HINT_T0,
                );
                _mm_prefetch(
                    self.words.as_ptr().add(ra * self.stride + word) as *const i8,
                    _MM_HINT_T0,
                );
                _mm_prefetch(
                    self.words.as_ptr().add(rb * self.stride + word) as *const i8,
                    _MM_HINT_T0,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (ra, rb, start_bit);
        }
    }

    /// Recomputes row `r`'s word summary from its words.
    fn rebuild_summary(&mut self, r: usize) {
        for si in 0..self.sum_stride {
            let mut s = 0u64;
            for bit in 0..64 {
                let w = si * 64 + bit;
                if w >= self.stride {
                    break;
                }
                if self.words[r * self.stride + w] != 0 {
                    s |= 1 << bit;
                }
            }
            self.summary[r * self.sum_stride + si] = s;
        }
    }

    /// Copies `set` into row `r`.
    ///
    /// # Panics
    /// Panics if the set's capacity differs from the matrix's.
    pub fn load_row(&mut self, r: usize, set: &ChunkSet) {
        assert_eq!(set.capacity(), self.capacity, "capacity mismatch");
        self.row_mut(r).copy_from_slice(set.as_words());
        self.rebuild_summary(r);
    }

    /// Extracts row `r` as an owned [`ChunkSet`].
    pub fn row_to_set(&self, r: usize) -> ChunkSet {
        ChunkSet::from_words(self.row(r).to_vec(), self.capacity)
    }

    /// Adds `chunk` to row `r`; returns `true` if newly inserted.
    ///
    /// # Panics
    /// Panics if `chunk` is outside the capacity.
    pub fn insert(&mut self, r: usize, chunk: ChunkId) -> bool {
        assert!(chunk.index() < self.capacity, "chunk {chunk} out of range");
        let (w, b) = (chunk.index() / 64, chunk.index() % 64);
        let word = &mut self.words[r * self.stride + w];
        let was = *word & (1 << b) != 0;
        *word |= 1 << b;
        self.summary[r * self.sum_stride + w / 64] |= 1 << (w % 64);
        !was
    }

    /// Removes `chunk` from row `r`; returns `true` if it was present.
    pub fn remove(&mut self, r: usize, chunk: ChunkId) -> bool {
        if chunk.index() >= self.capacity {
            return false;
        }
        let (w, b) = (chunk.index() / 64, chunk.index() % 64);
        let word = &mut self.words[r * self.stride + w];
        let was = *word & (1 << b) != 0;
        *word &= !(1 << b);
        if was && *word == 0 {
            // The word emptied: the summary stays exact.
            self.summary[r * self.sum_stride + w / 64] &= !(1 << (w % 64));
        }
        was
    }

    /// Membership test in row `r`.
    pub fn contains(&self, r: usize, chunk: ChunkId) -> bool {
        chunk.index() < self.capacity
            && self.words[r * self.stride + chunk.index() / 64] & (1 << (chunk.index() % 64)) != 0
    }

    /// Number of chunks in row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place row difference: `row dst \= row src`.
    pub fn subtract_rows(&mut self, dst: usize, src: usize) {
        for w in 0..self.stride {
            let s = self.words[src * self.stride + w];
            self.words[dst * self.stride + w] &= !s;
        }
        self.rebuild_summary(dst);
    }

    /// Copies row `src` over row `dst`.
    pub fn copy_rows(&mut self, dst: usize, src: usize) {
        for w in 0..self.stride {
            self.words[dst * self.stride + w] = self.words[src * self.stride + w];
        }
        for s in 0..self.sum_stride {
            self.summary[dst * self.sum_stride + s] = self.summary[src * self.sum_stride + s];
        }
    }

    /// Picks one chunk from `row ra ∩ row rb`, scanning circularly from bit
    /// offset `start_bit` (same semantics as
    /// [`ChunkSet::pick_intersection`]).
    ///
    /// The scan is dispatched on the word summaries: ANDing the two
    /// rows' summaries (a handful of words) counts the co-populated
    /// words up front, so an intersection with no candidate words — the
    /// common case for a matcher probe on a link with nothing new to
    /// offer — returns without touching the rows at all. A sparse
    /// candidate set (the late-game shape, where one NPU's needs row is
    /// nearly drained) is scanned summary-guided, jumping straight
    /// between candidate words; a dense one uses the blocked linear
    /// kernels, which are cheaper per word. The picked chunk is
    /// identical on every path.
    pub fn pick_intersection(&self, ra: usize, rb: usize, start_bit: usize) -> Option<ChunkId> {
        let (a, b) = (self.row(ra), self.row(rb));
        let (sa, sb) = (self.sum_row(ra), self.sum_row(rb));
        let cand: u32 = sa.iter().zip(sb).map(|(&x, &y)| (x & y).count_ones()).sum();
        if cand == 0 {
            return None;
        }
        if cand as usize * 3 >= self.stride {
            if !bits::any_and(a, b) {
                return None;
            }
            bits::pick_and(a, b, start_bit).map(ChunkId::new)
        } else {
            bits::pick_and_summary(a, b, sa, sb, start_bit).map(ChunkId::new)
        }
    }

    /// Picks one chunk from `row ra \ row minus` satisfying `pred`,
    /// scanning circularly from bit offset `start_bit` (same semantics as
    /// [`ChunkSet::pick_excluding_where`]).
    pub fn pick_excluding_where(
        &self,
        ra: usize,
        minus: usize,
        start_bit: usize,
        mut pred: impl FnMut(ChunkId) -> bool,
    ) -> Option<ChunkId> {
        let sa = self.sum_row(ra);
        let cand: u32 = sa.iter().map(|&x| x.count_ones()).sum();
        if cand == 0 {
            return None;
        }
        if cand as usize * 3 >= self.stride {
            bits::pick_diff_where(self.row(ra), self.row(minus), start_bit, |bit| {
                pred(ChunkId::new(bit))
            })
            .map(ChunkId::new)
        } else {
            bits::pick_diff_where_summary(self.row(ra), self.row(minus), sa, start_bit, |bit| {
                pred(ChunkId::new(bit))
            })
            .map(ChunkId::new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_independent() {
        let mut m = ChunkMatrix::new(3, 100);
        assert!(m.insert(0, ChunkId::new(5)));
        assert!(!m.insert(0, ChunkId::new(5)));
        assert!(m.insert(1, ChunkId::new(5)));
        assert!(m.contains(0, ChunkId::new(5)));
        assert!(m.contains(1, ChunkId::new(5)));
        assert!(!m.contains(2, ChunkId::new(5)));
        assert!(m.remove(0, ChunkId::new(5)));
        assert!(!m.remove(0, ChunkId::new(5)));
        assert_eq!(m.row_len(0), 0);
        assert_eq!(m.row_len(1), 1);
    }

    #[test]
    fn conversions_round_trip() {
        let mut set = ChunkSet::new(130);
        set.extend([ChunkId::new(0), ChunkId::new(64), ChunkId::new(129)]);
        let mut m = ChunkMatrix::new(2, 130);
        m.load_row(1, &set);
        assert_eq!(m.row_to_set(1), set);
        assert!(m.row_to_set(0).is_empty());
    }

    #[test]
    fn subtract_and_copy() {
        let mut m = ChunkMatrix::new(2, 64);
        for c in [1u32, 2, 3] {
            m.insert(0, ChunkId::new(c));
        }
        m.insert(1, ChunkId::new(2));
        m.subtract_rows(0, 1);
        assert!(!m.contains(0, ChunkId::new(2)));
        assert_eq!(m.row_len(0), 2);
        m.copy_rows(1, 0);
        assert_eq!(m.row_to_set(1), m.row_to_set(0));
    }

    #[test]
    fn picks_match_chunkset_semantics() {
        let mut m = ChunkMatrix::new(2, 256);
        let mut a = ChunkSet::new(256);
        let mut b = ChunkSet::new(256);
        for i in (0..256).step_by(7) {
            m.insert(0, ChunkId::new(i));
            a.insert(ChunkId::new(i));
        }
        for i in (0..256).step_by(11) {
            m.insert(1, ChunkId::new(i));
            b.insert(ChunkId::new(i));
        }
        for start in 0..512 {
            assert_eq!(
                m.pick_intersection(0, 1, start),
                a.pick_intersection(&b, start),
                "start {start}"
            );
            assert_eq!(
                m.pick_excluding_where(0, 1, start, |c| c.raw() % 3 == 0),
                a.pick_excluding_where(&b, start, |c| c.raw() % 3 == 0),
                "start {start}"
            );
        }
    }

    /// Removals that empty a whole block must keep picks exact: the
    /// summary has to stop advertising the block, and picks through a
    /// matrix that has churned (insert → remove → reinsert, subtract,
    /// copy) must still agree with `ChunkSet` at every start offset.
    #[test]
    fn summary_stays_exact_under_churn() {
        let capacity = 600; // 10 words: two full blocks + a 2-word tail
        let mut m = ChunkMatrix::new(2, capacity);
        let mut a = ChunkSet::new(capacity);
        let mut b = ChunkSet::new(capacity);
        for i in (0..capacity).step_by(3) {
            m.insert(0, ChunkId::new(i as u32));
            a.insert(ChunkId::new(i as u32));
            m.insert(1, ChunkId::new(i as u32));
            b.insert(ChunkId::new(i as u32));
        }
        // Empty row 1's middle block entirely, plus the tail.
        for i in 256..512 {
            m.remove(1, ChunkId::new(i));
            b.remove(ChunkId::new(i));
        }
        for i in 512..600 {
            m.remove(1, ChunkId::new(i));
            b.remove(ChunkId::new(i));
        }
        for start in 0..2 * capacity {
            assert_eq!(
                m.pick_intersection(0, 1, start),
                a.pick_intersection(&b, start),
                "start {start}"
            );
            assert_eq!(
                m.pick_excluding_where(0, 1, start, |c| c.raw() % 2 == 0),
                a.pick_excluding_where(&b, start, |c| c.raw() % 2 == 0),
                "start {start}"
            );
        }
        // Fully drained row: no intersection, and reinsertion revives it.
        for i in 0..256 {
            m.remove(1, ChunkId::new(i));
        }
        assert_eq!(m.pick_intersection(0, 1, 17), None);
        m.insert(1, ChunkId::new(300));
        assert_eq!(m.pick_intersection(0, 1, 0), Some(ChunkId::new(300)));
        // subtract_rows and copy_rows keep the summary exact too.
        let mut c = ChunkMatrix::new(2, capacity);
        for i in (0..capacity).step_by(5) {
            c.insert(0, ChunkId::new(i as u32));
        }
        for i in (0..capacity).step_by(10) {
            c.insert(1, ChunkId::new(i as u32));
        }
        c.subtract_rows(0, 1);
        assert_eq!(c.pick_intersection(0, 1, 0), None);
        c.copy_rows(0, 1);
        assert_eq!(c.row_to_set(0), c.row_to_set(1));
        assert!(c.pick_intersection(0, 1, 0).is_some());
    }

    #[test]
    fn reset_reshapes_and_clears() {
        let mut m = ChunkMatrix::new(2, 128);
        m.insert(0, ChunkId::new(0));
        m.reset(4, 64);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.capacity(), 64);
        assert_eq!(m.stride(), 1);
        for r in 0..4 {
            assert_eq!(m.row_len(r), 0);
        }
    }

    #[test]
    fn zero_capacity_rows_pick_nothing() {
        let m = ChunkMatrix::new(2, 0);
        assert_eq!(m.pick_intersection(0, 1, 3), None);
    }
}
