//! Word-slice scan kernels shared by [`crate::ChunkSet`] (one row) and
//! [`crate::ChunkMatrix`] (many rows in one flat buffer).
//!
//! Both picking kernels scan **circularly from an arbitrary bit offset**,
//! not just a word offset: the previous word-granular rotation always
//! resolved ties within the starting word toward the lowest set bit
//! (`trailing_zeros`), biasing "random" chunk selection toward low chunk
//! ids whenever several candidates shared a word. Rotating at bit
//! granularity makes every member of the scanned set reachable as the
//! first pick for some starting offset.
//!
//! The circular scan is structured as **two contiguous ranges** (start
//! word to the end, then the wrapped prefix) processed in fixed-width
//! 4×u64 blocks with an OR-reduced "any candidate in this block?" test
//! and a scalar tail. The block test is a straight-line AND/OR over
//! adjacent words — no modular indexing, no per-word branches — which
//! the compiler autovectorizes (one 256-bit lane per block); only a
//! non-empty block pays for the bit-granular resolution. [`any_and`] is
//! the standalone form of that block test, used by the matcher as an
//! early-exit pre-check before the full rotation.

//! These kernels decide *which* chunk a matcher probe picks, so their
//! tie-breaking is part of the matching semantics fingerprinted by
//! `MATCHER_VERSION` (tacos-core's cache module): changing scan order
//! here requires bumping that constant.

/// `true` if `a & b` has any set bit. Slices must have equal length.
///
/// The block-level "any candidate?" pre-check: 4-word AND/OR blocks with
/// per-block early exit and a scalar tail. Unlike the picking kernels it
/// never rotates, so an all-empty intersection — the common case for a
/// stale matcher probe — is one linear, autovectorizable pass.
pub(crate) fn any_and(a: &[u64], b: &[u64]) -> bool {
    let n = a.len();
    let mut w = 0;
    while w + 4 <= n {
        let or =
            (a[w] & b[w]) | (a[w + 1] & b[w + 1]) | (a[w + 2] & b[w + 2]) | (a[w + 3] & b[w + 3]);
        if or != 0 {
            return true;
        }
        w += 4;
    }
    while w < n {
        if a[w] & b[w] != 0 {
            return true;
        }
        w += 1;
    }
    false
}

/// First word index in `lo..hi` where `a[w] & b[w] != 0`, scanning in
/// 4-word OR-reduced blocks with a scalar tail.
fn first_and_word(a: &[u64], b: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let (a, b) = (&a[lo..hi], &b[lo..hi]);
    let n = a.len();
    let mut w = 0;
    while w + 4 <= n {
        let or =
            (a[w] & b[w]) | (a[w + 1] & b[w + 1]) | (a[w + 2] & b[w + 2]) | (a[w + 3] & b[w + 3]);
        if or != 0 {
            // The block has a candidate; resolve to its first word.
            for k in w..w + 4 {
                if a[k] & b[k] != 0 {
                    return Some(lo + k);
                }
            }
        }
        w += 4;
    }
    while w < n {
        if a[w] & b[w] != 0 {
            return Some(lo + w);
        }
        w += 1;
    }
    None
}

/// Picks the first set bit of `a & b`, scanning circularly from
/// `start_bit`. Slices must have equal length.
pub(crate) fn pick_and(a: &[u64], b: &[u64], start_bit: usize) -> Option<u32> {
    let n = a.len();
    if n == 0 {
        return None;
    }
    let s = start_bit % (n * 64);
    let (w0, b0) = (s / 64, (s % 64) as u32);
    let head = u64::MAX << b0; // bits >= b0 within the starting word
    let and = (a[w0] & b[w0]) & head;
    if and != 0 {
        return Some((w0 * 64) as u32 + and.trailing_zeros());
    }
    // The circular scan unrolled into two contiguous block-scanned
    // ranges: start word (exclusive) to the end, then the wrapped
    // prefix, then the low bits of the start word.
    for (lo, hi) in [(w0 + 1, n), (0, w0)] {
        if let Some(w) = first_and_word(a, b, lo, hi) {
            return Some((w * 64) as u32 + (a[w] & b[w]).trailing_zeros());
        }
    }
    let and = (a[w0] & b[w0]) & !head;
    (and != 0).then(|| (w0 * 64) as u32 + and.trailing_zeros())
}

/// `first_and_word` guided by per-row word summaries: `sa`/`sb` hold one
/// bit per word of `a`/`b` (bit set iff the word is non-zero), so only
/// words populated on *both* sides are ever loaded — a run of words
/// empty on either side costs one AND + `trailing_zeros`. Returns the
/// same word the unguided scan would.
fn first_and_word_summary(
    a: &[u64],
    b: &[u64],
    sa: &[u64],
    sb: &[u64],
    lo: usize,
    hi: usize,
) -> Option<usize> {
    let mut w = lo;
    while w < hi {
        let (si, bit) = (w / 64, (w % 64) as u32);
        let s = sa[si] & sb[si] & (u64::MAX << bit);
        if s == 0 {
            // No co-populated word in the rest of this summary word:
            // jump past the 64 data words it covers.
            w = (si + 1) * 64;
            continue;
        }
        let cand = si * 64 + s.trailing_zeros() as usize;
        if cand >= hi {
            return None;
        }
        if a[cand] & b[cand] != 0 {
            return Some(cand);
        }
        w = cand + 1;
    }
    None
}

/// Summary-guided [`pick_and`]: identical result, but both circular
/// ranges skip words either summary marks empty. Handles the empty
/// intersection itself (returns `None` after one pass over the
/// co-populated words), so callers need no separate emptiness pre-check.
pub(crate) fn pick_and_summary(
    a: &[u64],
    b: &[u64],
    sa: &[u64],
    sb: &[u64],
    start_bit: usize,
) -> Option<u32> {
    let n = a.len();
    if n == 0 {
        return None;
    }
    let s = start_bit % (n * 64);
    let (w0, b0) = (s / 64, (s % 64) as u32);
    let head = u64::MAX << b0; // bits >= b0 within the starting word
    let and = (a[w0] & b[w0]) & head;
    if and != 0 {
        return Some((w0 * 64) as u32 + and.trailing_zeros());
    }
    for (lo, hi) in [(w0 + 1, n), (0, w0)] {
        if let Some(w) = first_and_word_summary(a, b, sa, sb, lo, hi) {
            return Some((w * 64) as u32 + (a[w] & b[w]).trailing_zeros());
        }
    }
    let and = (a[w0] & b[w0]) & !head;
    (and != 0).then(|| (w0 * 64) as u32 + and.trailing_zeros())
}

/// `diff_where_in_range` guided by `a`'s word summary (the `minus` side
/// is complemented, so only `a`'s population can gate a word).
fn diff_where_summary_range(
    a: &[u64],
    minus: &[u64],
    sa: &[u64],
    lo: usize,
    hi: usize,
    pred: &mut impl FnMut(u32) -> bool,
) -> Option<u32> {
    let mut w = lo;
    while w < hi {
        let (si, bit) = (w / 64, (w % 64) as u32);
        let s = sa[si] & (u64::MAX << bit);
        if s == 0 {
            w = (si + 1) * 64;
            continue;
        }
        let cand = si * 64 + s.trailing_zeros() as usize;
        if cand >= hi {
            return None;
        }
        if let Some(found) = first_where(a[cand] & !minus[cand], cand, pred) {
            return Some(found);
        }
        w = cand + 1;
    }
    None
}

/// Summary-guided [`pick_diff_where`]: identical result, skipping words
/// where `a` is empty.
pub(crate) fn pick_diff_where_summary(
    a: &[u64],
    minus: &[u64],
    sa: &[u64],
    start_bit: usize,
    mut pred: impl FnMut(u32) -> bool,
) -> Option<u32> {
    let n = a.len();
    if n == 0 {
        return None;
    }
    let s = start_bit % (n * 64);
    let (w0, b0) = (s / 64, (s % 64) as u32);
    let head = u64::MAX << b0; // bits >= b0 within the starting word
    if let Some(bit) = first_where((a[w0] & !minus[w0]) & head, w0, &mut pred) {
        return Some(bit);
    }
    for (lo, hi) in [(w0 + 1, n), (0, w0)] {
        if let Some(bit) = diff_where_summary_range(a, minus, sa, lo, hi, &mut pred) {
            return Some(bit);
        }
    }
    first_where((a[w0] & !minus[w0]) & !head, w0, &mut pred)
}

/// First bit of `a & !minus` in words `lo..hi` satisfying `pred`,
/// scanning in 4-word OR-reduced blocks with a scalar tail. A block (or
/// word) whose candidates are all rejected by `pred` does not stop the
/// scan.
fn diff_where_in_range(
    a: &[u64],
    minus: &[u64],
    lo: usize,
    hi: usize,
    pred: &mut impl FnMut(u32) -> bool,
) -> Option<u32> {
    let n = hi - lo;
    let mut w = 0;
    while w + 4 <= n {
        let (j, k, l, m) = (lo + w, lo + w + 1, lo + w + 2, lo + w + 3);
        let or = (a[j] & !minus[j]) | (a[k] & !minus[k]) | (a[l] & !minus[l]) | (a[m] & !minus[m]);
        if or != 0 {
            for x in j..=m {
                if let Some(bit) = first_where(a[x] & !minus[x], x, pred) {
                    return Some(bit);
                }
            }
        }
        w += 4;
    }
    while w < n {
        let x = lo + w;
        if let Some(bit) = first_where(a[x] & !minus[x], x, pred) {
            return Some(bit);
        }
        w += 1;
    }
    None
}

/// Picks the first bit of `a & !minus` satisfying `pred`, scanning
/// circularly from `start_bit`. Slices must have equal length.
pub(crate) fn pick_diff_where(
    a: &[u64],
    minus: &[u64],
    start_bit: usize,
    mut pred: impl FnMut(u32) -> bool,
) -> Option<u32> {
    let n = a.len();
    if n == 0 {
        return None;
    }
    let s = start_bit % (n * 64);
    let (w0, b0) = (s / 64, (s % 64) as u32);
    let head = u64::MAX << b0; // bits >= b0 within the starting word
    if let Some(bit) = first_where((a[w0] & !minus[w0]) & head, w0, &mut pred) {
        return Some(bit);
    }
    for (lo, hi) in [(w0 + 1, n), (0, w0)] {
        if let Some(bit) = diff_where_in_range(a, minus, lo, hi, &mut pred) {
            return Some(bit);
        }
    }
    first_where((a[w0] & !minus[w0]) & !head, w0, &mut pred)
}

/// Lowest set bit of `word` (at word index `w`) passing `pred`, as a
/// global bit index.
fn first_where(mut word: u64, w: usize, pred: &mut impl FnMut(u32) -> bool) -> Option<u32> {
    while word != 0 {
        let b = word.trailing_zeros();
        word &= word - 1;
        let bit = (w * 64) as u32 + b;
        if pred(bit) {
            return Some(bit);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_rotation_reaches_every_member() {
        // Two candidates in the same word: word-granular rotation could
        // only ever pick bit 3 first; bit-granular rotation must reach
        // bit 40 when starting past 3.
        let a = [(1u64 << 3) | (1u64 << 40)];
        let b = [u64::MAX];
        assert_eq!(pick_and(&a, &b, 0), Some(3));
        assert_eq!(pick_and(&a, &b, 4), Some(40));
        assert_eq!(pick_and(&a, &b, 41), Some(3)); // wraps
    }

    #[test]
    fn wrap_revisits_low_bits_of_start_word() {
        let a = [1u64 << 2, 0];
        let b = [u64::MAX, u64::MAX];
        // Start in word 0 past bit 2: scan word 1, then wrap to bit 2.
        assert_eq!(pick_and(&a, &b, 10), Some(2));
    }

    #[test]
    fn diff_where_respects_pred_and_minus() {
        let a = [0b1111u64];
        let minus = [0b0001u64];
        assert_eq!(pick_diff_where(&a, &minus, 0, |_| true), Some(1));
        assert_eq!(pick_diff_where(&a, &minus, 0, |b| b >= 3), Some(3));
        assert_eq!(pick_diff_where(&a, &minus, 2, |_| true), Some(2));
        assert_eq!(pick_diff_where(&a, &minus, 0, |_| false), None);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(pick_and(&[], &[], 7), None);
        assert_eq!(pick_diff_where(&[], &[], 7, |_| true), None);
    }

    #[test]
    fn any_and_agrees_with_pick_and() {
        // Sparse patterns across block boundaries, tails of every length.
        for words in [1usize, 3, 4, 5, 7, 8, 11, 16] {
            for hot in 0..words * 64 {
                let mut a = vec![0u64; words];
                a[hot / 64] = 1 << (hot % 64);
                let b = vec![u64::MAX; words];
                assert!(any_and(&a, &b), "words={words} hot={hot}");
                assert_eq!(pick_and(&a, &b, 0), Some(hot as u32));
                assert!(!any_and(&a, &vec![0u64; words]));
            }
        }
        assert!(!any_and(&[], &[]));
    }

    /// Exact word summary of a word slice (1 bit per word), as
    /// `ChunkMatrix` maintains it.
    fn summarize(words: &[u64]) -> Vec<u64> {
        let mut s = vec![0u64; words.len().div_ceil(64).max(1)];
        for (i, &w) in words.iter().enumerate() {
            if w != 0 {
                s[i / 64] |= 1 << (i % 64);
            }
        }
        s
    }

    /// The summary-guided kernels must return exactly what the unguided
    /// ones do, for every start offset, slice length, and sparsity —
    /// including slices whose summaries are mostly zero (the late-game
    /// needs-row shape the guidance exists for).
    #[test]
    fn summary_kernels_match_unguided() {
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for words in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 20] {
            for sparsity in 0..3 {
                let thin = |mut w: u64, n: u32| -> u64 {
                    for _ in 0..n {
                        w &= w.rotate_left(17);
                    }
                    w
                };
                let a: Vec<u64> = (0..words)
                    .map(|i| {
                        if i % 3 == 1 && sparsity > 0 {
                            0 // whole blocks empty on one side
                        } else {
                            thin(next(), sparsity)
                        }
                    })
                    .collect();
                let b: Vec<u64> = (0..words)
                    .map(|i| if i % 4 == 2 { 0 } else { thin(next(), 1) })
                    .collect();
                let (sa, sb) = (summarize(&a), summarize(&b));
                for start in 0..words * 64 {
                    assert_eq!(
                        pick_and_summary(&a, &b, &sa, &sb, start),
                        pick_and(&a, &b, start),
                        "words={words} sparsity={sparsity} start={start}"
                    );
                    for modulo in 0..3 {
                        assert_eq!(
                            pick_diff_where_summary(&a, &b, &sa, start, |c| c % 3 == modulo),
                            pick_diff_where(&a, &b, start, |c| c % 3 == modulo),
                            "words={words} sparsity={sparsity} start={start}"
                        );
                    }
                }
            }
        }
        assert_eq!(pick_and_summary(&[], &[], &[0], &[0], 5), None);
    }

    /// The block-scanned circular kernels must match a naive
    /// bit-at-a-time rotation exactly, for every start offset and slice
    /// length (incl. non-multiple-of-4 tails and the wrapped head word).
    #[test]
    fn blocked_scan_matches_naive_rotation() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            // Small xorshift so the test is self-contained.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for words in [1usize, 2, 3, 4, 5, 6, 7, 9, 13] {
            let a: Vec<u64> = (0..words).map(|_| next() & next() & next()).collect();
            let b: Vec<u64> = (0..words).map(|_| next() & next()).collect();
            let bits = words * 64;
            let naive_and = |start: usize| -> Option<u32> {
                (0..bits).map(|i| ((start + i) % bits) as u32).find(|&bit| {
                    a[bit as usize / 64] & b[bit as usize / 64] & (1 << (bit % 64)) != 0
                })
            };
            let naive_diff = |start: usize, modulo: u32| -> Option<u32> {
                (0..bits).map(|i| ((start + i) % bits) as u32).find(|&bit| {
                    a[bit as usize / 64] & !b[bit as usize / 64] & (1 << (bit % 64)) != 0
                        && bit % 3 == modulo
                })
            };
            for start in 0..bits {
                assert_eq!(pick_and(&a, &b, start), naive_and(start), "words={words}");
                for modulo in 0..3 {
                    assert_eq!(
                        pick_diff_where(&a, &b, start, |c| c % 3 == modulo),
                        naive_diff(start, modulo),
                        "words={words} start={start}"
                    );
                }
            }
        }
    }
}
