//! The seeded generator behind every op list.
//!
//! The program under test sees only generated inputs; the same `--seed`
//! yields a byte-identical op list (unit-tested per workload).

/// splitmix64: tiny, dependency-free, and good enough to order and
/// sample op lists.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per workload by `stream`.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A synthesis seed: small enough to survive the wire protocol's
    /// JSON numbers exactly.
    pub fn synth_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `base` repetitions scaled by `--seconds` over the 10 s the workload
/// files are sized for; at least one.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
    }

    #[test]
    fn shuffle_is_a_permutation_and_below_stays_in_range() {
        let mut r = Rng::new(9, "t");
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn scaling_rounds_and_never_reaches_zero() {
        assert_eq!(scaled(10, 1.0), 10);
        assert_eq!(scaled(10, 0.25), 3);
        assert_eq!(scaled(10, 0.01), 1);
        assert_eq!(scaled(75_000, 0.1), 7_500);
    }
}
