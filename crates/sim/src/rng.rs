//! Seeded randomness for reproducible simulations.
//!
//! All stochastic model elements (worker start-up jitter, rebalance command
//! jitter, routing hash salts) draw from a single [`SimRng`] so an entire
//! experiment is a pure function of its seed.

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random source for the simulation.
///
/// # Examples
///
/// ```
/// use flowmig_sim::{SimDuration, SimRng};
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// let lo = SimDuration::from_secs(5);
/// let hi = SimDuration::from_secs(35);
/// assert_eq!(a.duration_between(lo, hi), b.duration_between(lo, hi));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { inner: SmallRng::seed_from_u64(seed), seed }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator; used to give subsystems
    /// their own streams so adding draws in one subsystem does not perturb
    /// another.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let child_seed =
            self.inner.random::<u64>().wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(label);
        SimRng::seed_from(child_seed)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn index(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        self.inner.random_range(lo..hi)
    }

    /// Uniform random `u64` (e.g. for message ids).
    pub fn id(&mut self) -> u64 {
        // Never return zero: zero is the XOR-ledger identity and Storm also
        // avoids it for tuple ids.
        loop {
            let v = self.inner.random::<u64>();
            if v != 0 {
                return v;
            }
        }
    }

    /// Uniform duration in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "inverted duration range");
        if lo == hi {
            return lo;
        }
        let span = hi.as_micros() - lo.as_micros();
        SimDuration::from_micros(lo.as_micros() + self.inner.random_range(0..=span))
    }

    /// Duration jittered uniformly by `±fraction` around `base`
    /// (e.g. `jittered(7s, 0.05)` is uniform in `[6.65s, 7.35s]`). A zero
    /// `base` returns zero without drawing.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or greater than 1.
    pub fn jittered(&mut self, base: SimDuration, fraction: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        let b = base.as_micros() as f64;
        let lo = (b * (1.0 - fraction)) as u64;
        let hi = (b * (1.0 + fraction)) as u64;
        self.duration_between(SimDuration::from_micros(lo), SimDuration::from_micros(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.id(), b.id());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.id() == b.id()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_parent_usage() {
        let mut parent1 = SimRng::seed_from(99);
        let child1 = parent1.fork(1);
        let mut parent2 = SimRng::seed_from(99);
        let child2 = parent2.fork(1);
        assert_eq!(child1.seed(), child2.seed());
    }

    #[test]
    fn duration_between_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        let lo = SimDuration::from_millis(100);
        let hi = SimDuration::from_millis(200);
        for _ in 0..1000 {
            let d = rng.duration_between(lo, hi);
            assert!(d >= lo && d <= hi, "{d} out of range");
        }
    }

    #[test]
    fn degenerate_range_returns_exact_value() {
        let mut rng = SimRng::seed_from(4);
        let d = SimDuration::from_secs(7);
        assert_eq!(rng.duration_between(d, d), d);
    }

    #[test]
    fn jitter_brackets_base() {
        let mut rng = SimRng::seed_from(5);
        let base = SimDuration::from_secs(7);
        for _ in 0..1000 {
            let d = rng.jittered(base, 0.1);
            assert!(d.as_secs_f64() >= 6.29 && d.as_secs_f64() <= 7.71);
        }
    }

    #[test]
    fn jittering_zero_returns_zero_without_a_draw() {
        // The engine jitters every service time, a sink's zero included:
        // that must not move the stream.
        let mut rng = SimRng::seed_from(8);
        let mut fresh = SimRng::seed_from(8);
        for fraction in [0.0, 0.2, 1.0] {
            assert_eq!(rng.jittered(SimDuration::ZERO, fraction), SimDuration::ZERO);
        }
        assert_eq!(rng.id(), fresh.id(), "the generator drew nothing");
    }

    #[test]
    fn ids_are_never_zero() {
        let mut rng = SimRng::seed_from(6);
        assert!((0..10_000).all(|_| rng.id() != 0));
    }
}
