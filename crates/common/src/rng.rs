//! Deterministic pseudo-random number generation.
//!
//! Everything random in this workspace — synthetic workload streams, clock
//! jitter, PLL lock times — must be exactly reproducible so that experiment
//! tables can be regenerated bit-for-bit. We therefore use a small,
//! well-understood generator (SplitMix64, Steele et al., OOPSLA 2014) under
//! our own control rather than an external crate whose stream could change
//! across versions.

use std::fmt;

/// The Weyl increment SplitMix64 adds to its state once per draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic 64-bit PRNG (SplitMix64).
///
/// Not cryptographically secure; statistically solid for simulation use and
/// extremely fast (one multiply-xor-shift chain per draw).
///
/// # Example
///
/// ```
/// use gals_common::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds give independent
    /// streams for practical simulation purposes.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives a child generator from this one, for giving each subsystem
    /// its own stream. `salt` distinguishes siblings derived from the same
    /// parent.
    #[inline]
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        let base = self.next_u64();
        SplitMix64::new(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the stream past `n` draws in O(1), exactly as if
    /// [`SplitMix64::next_u64`] had been called `n` times and the values
    /// discarded. The state is a Weyl counter that gains a fixed
    /// increment per draw and the output mix never feeds back into it,
    /// so the jump is one wrapping multiply-add.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift rejection-free mapping (Lemire); tiny bias is
        // irrelevant at simulation scale and keeps the stream cheap.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Geometric-ish draw: number of failures before a success with success
    /// probability `p`, capped at `cap`. Used for dependence distances and
    /// reuse distances in workload generation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    #[inline]
    pub fn next_geometric(&mut self, p: f64, cap: u64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1]: {p}");
        if p >= 1.0 {
            return 0;
        }
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        let g = (u.ln() / (1.0 - p).ln()).floor() as u64;
        g.min(cap)
    }

    /// Sample from a normal distribution via Box–Muller (single value;
    /// the pair's second value is discarded to keep state small).
    #[inline]
    pub fn next_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }
}

impl fmt::Debug for SplitMix64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hide the raw state from casual debug output; it is an
        // implementation detail, but never print an empty representation.
        f.debug_struct("SplitMix64").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(0xDEADBEEF);
        let mut b = SplitMix64::new(0xDEADBEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn next_range_inclusive() {
        let mut r = SplitMix64::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.next_range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_is_calibrated() {
        let mut r = SplitMix64::new(13);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "{frac}");
    }

    #[test]
    fn geometric_mean_close_to_expectation() {
        let mut r = SplitMix64::new(17);
        let p = 0.2;
        let n = 100_000;
        let total: u64 = (0..n).map(|_| r.next_geometric(p, 1_000)).sum();
        let mean = total as f64 / n as f64;
        // E[failures before success] = (1-p)/p = 4.
        assert!((mean - 4.0).abs() < 0.1, "{mean}");
    }

    #[test]
    fn geometric_respects_cap() {
        let mut r = SplitMix64::new(19);
        for _ in 0..10_000 {
            assert!(r.next_geometric(0.01, 5) <= 5);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SplitMix64::new(23);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = SplitMix64::new(31);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn skip_matches_discarded_draws() {
        for n in [0u64, 1, 2, 1000] {
            let mut drawn = SplitMix64::new(0x5EED);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut skipped = SplitMix64::new(0x5EED);
            skipped.skip(n);
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn skips_compose_additively_with_wraparound() {
        for (a, b) in [(3u64, 4u64), (1000, 0), (u64::MAX, 5), (1 << 63, 1 << 63)] {
            let mut split = SplitMix64::new(77);
            split.skip(a);
            split.skip(b);
            let mut whole = SplitMix64::new(77);
            whole.skip(a.wrapping_add(b));
            assert!(split == whole, "skip({a}) + skip({b})");
            assert_eq!(split.next_u64(), whole.next_u64());
        }
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", SplitMix64::new(1)).is_empty());
    }
}
