//! A tiny deterministic PRNG (xorshift64*), shared by the in-repo
//! property-test harness and the load generators.
//!
//! Determinism is load-bearing here: a failing property case and a
//! load run's arrival schedule replay from the seed alone, so the
//! generator must be fully specified by its seed with no platform or
//! scheduling dependence. `xorshift64*` (Vigna, "An experimental
//! exploration of Marsaglia's xorshift generators") is small, fast, and
//! passes the statistical tests that matter at the scales we sample.

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. A zero seed is remapped to a
    /// fixed odd constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value uniform in `[0, bound)`; `0` when `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift reduction; the tiny modulo bias is irrelevant for
        // simulation fault sampling but the result is still deterministic.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `usize` in `[lo, hi)`. `lo` when the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + self.next_below((hi - lo) as u64) as usize
    }

    /// A Bernoulli draw with probability `num / den` (saturating).
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        if den == 0 {
            return false;
        }
        self.next_below(den) < num
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::new(43);
        assert_ne!(XorShift64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn bounds_respected() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            let v = r.next_below(13);
            assert!(v < 13);
            let u = r.usize_in(5, 9);
            assert!((5..9).contains(&u));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.next_below(0), 0);
        assert_eq!(r.usize_in(3, 3), 3);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }
}
