//! Deterministic random numbers for workload variation.
//!
//! Every run of every experiment is seeded, so results are exactly
//! reproducible. [`DetRng`] wraps `rand`'s `SmallRng` and adds the small
//! set of helpers the workload models need (jitter around a mean,
//! uniform spans, Bernoulli draws).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// A seeded random-number generator with duration-oriented helpers.
///
/// # Example
///
/// ```
/// use neon_sim::{DetRng, SimDuration};
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// let mean = SimDuration::from_micros(100);
/// assert_eq!(a.jittered(mean, 0.2), b.jittered(mean, 0.2));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; used to give each task its
    /// own stream so that adding a task never perturbs another's draws.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let seed = self.inner.random::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from(seed)
    }

    /// A duration jittered uniformly in `[mean*(1-spread), mean*(1+spread)]`.
    ///
    /// `spread` is clamped to `[0, 1]`. With `spread == 0` the mean is
    /// returned unchanged (and the generator state is *not* advanced, so
    /// zero-jitter workloads are insensitive to draw order).
    #[inline]
    pub fn jittered(&mut self, mean: SimDuration, spread: f64) -> SimDuration {
        let spread = spread.clamp(0.0, 1.0);
        if spread == 0.0 || mean.is_zero() {
            return mean;
        }
        let factor = 1.0 + self.inner.random_range(-spread..=spread);
        mean.mul_f64(factor)
    }

    /// A duration uniform in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "uniform: lo > hi");
        if lo == hi {
            return lo;
        }
        SimDuration::from_nanos(self.inner.random_range(lo.as_nanos()..=hi.as_nanos()))
    }

    /// A Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return false;
        }
        if p == 1.0 {
            return true;
        }
        self.inner.random_range(0.0..1.0) < p
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.inner.random_range(0..n)
    }

    /// A raw 64-bit draw (for seeding subordinate structures).
    pub fn raw(&mut self) -> u64 {
        self.inner.random()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.raw(), b.raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..32).filter(|_| a.raw() == b.raw()).count();
        assert!(same < 4, "streams should be essentially independent");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = DetRng::seed_from(9);
        let mut root2 = DetRng::seed_from(9);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        assert_eq!(c1.raw(), c2.raw());
        let mut d1 = root1.fork(2);
        assert_ne!(c1.raw(), d1.raw());
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = DetRng::seed_from(3);
        let mean = SimDuration::from_micros(100);
        for _ in 0..1000 {
            let d = rng.jittered(mean, 0.25);
            assert!(d >= SimDuration::from_micros(75), "{d} below band");
            assert!(d <= SimDuration::from_micros(125), "{d} above band");
        }
    }

    #[test]
    fn zero_jitter_returns_mean_exactly() {
        let mut rng = DetRng::seed_from(3);
        let mean = SimDuration::from_micros(42);
        assert_eq!(rng.jittered(mean, 0.0), mean);
    }

    #[test]
    fn uniform_bounds_inclusive() {
        let mut rng = DetRng::seed_from(5);
        let lo = SimDuration::from_nanos(10);
        let hi = SimDuration::from_nanos(12);
        for _ in 0..200 {
            let d = rng.uniform(lo, hi);
            assert!(d >= lo && d <= hi);
        }
        assert_eq!(rng.uniform(lo, lo), lo);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = DetRng::seed_from(13);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }

    #[test]
    fn index_in_range() {
        let mut rng = DetRng::seed_from(17);
        for _ in 0..100 {
            assert!(rng.index(5) < 5);
        }
    }
}
