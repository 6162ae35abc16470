//! Deterministic randomness.
//!
//! Every stochastic decision in the simulator (bit-error draws, picker
//! tie-breaks, peer behaviour jitter) flows from a single `u64` experiment
//! seed through [`SimRng`]. Component streams are derived with
//! [`SimRng::fork`], so adding a new consumer of randomness in one module
//! does not perturb the draws seen by another — the property that keeps
//! regression tests on full experiment outputs stable.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! state-seeded through SplitMix64. No external crates: the workspace
//! builds in a fully offline environment, and a ~30-line PRNG whose
//! sequence we control end-to-end is also what makes the parallel sweep
//! harness byte-reproducible across machines and toolchain updates.

/// A seedable random-number generator with simulation-oriented helpers.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 finalizer; used to expand seeds and decorrelate forked
/// stream seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl SimRng {
    /// Creates a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state with SplitMix64,
        // as the xoshiro authors recommend. A SplitMix64 stream never
        // yields four consecutive zeros, so the state is always valid.
        let mut s = splitmix64(seed);
        let mut state = [0u64; 4];
        for w in &mut state {
            s = splitmix64(s);
            *w = s;
        }
        SimRng { state, seed }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream for a named component.
    ///
    /// Forks with the same `(seed, stream)` pair always produce the same
    /// sequence, regardless of how much the parent has been used.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ splitmix64(stream.wrapping_add(1))))
    }

    /// Next 64 uniformly random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fills a byte slice with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform integer in `[0, bound)` via the widening-multiply method
    /// (bias ≤ 2⁻⁶⁴·bound, far below anything an experiment can observe).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform sample from a range, e.g. `rng.range(0..10)`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: Sample,
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for memoryless inter-arrival processes (peer churn, jittered
    /// timers). Returns zero for non-positive means.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF; 1-u avoids ln(0).
        let u: f64 = self.unit();
        -mean * (1.0 - u).ln()
    }

    /// Picks a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.range(0..items.len());
            Some(&items[i])
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0..=i);
            items.swap(i, j);
        }
    }

    /// Multiplicative jitter: a uniform sample from
    /// `[base·(1−spread), base·(1+spread)]`.
    pub fn jitter(&mut self, base: f64, spread: f64) -> f64 {
        let spread = spread.clamp(0.0, 1.0);
        if spread == 0.0 {
            return base;
        }
        base * (1.0 + self.range(-spread..=spread))
    }
}

/// Types [`SimRng::range`] can sample uniformly.
pub trait Sample: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`
    /// (`inclusive = true`). Callers guarantee a non-empty range.
    fn sample_between(rng: &mut SimRng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn sample_between(rng: &mut SimRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                // Span arithmetic in u64 handles negative bounds too
                // (two's-complement subtraction gives the distance).
                let span = (hi as u64).wrapping_sub(lo as u64);
                let span = if inclusive {
                    if span == u64::MAX {
                        // Full domain: a raw draw is already uniform.
                        return rng.next_u64() as $t;
                    }
                    span + 1
                } else {
                    span
                };
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for f64 {
    fn sample_between(rng: &mut SimRng, lo: Self, hi: Self, _inclusive: bool) -> Self {
        // The closed/half-open distinction is measure-zero for floats.
        lo + rng.unit() * (hi - lo)
    }
}

impl Sample for f32 {
    fn sample_between(rng: &mut SimRng, lo: Self, hi: Self, _inclusive: bool) -> Self {
        lo + rng.unit() as f32 * (hi - lo)
    }
}

/// Range shapes [`SimRng::range`] accepts.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut SimRng) -> T;
}

impl<T: Sample> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: Sample> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

crate::snap_struct!(SimRng {
    state,
    seed,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_parent_usage() {
        let parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        // Burn some draws on parent2 before forking.
        for _ in 0..50 {
            parent2.next_u64();
        }
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        for _ in 0..20 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn fork_streams_differ() {
        let root = SimRng::new(9);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(0);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_is_calibrated() {
        let mut rng = SimRng::new(123);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exp_mean_is_plausible() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exp(2.0)).sum();
        let mean = sum / n as f64;
        assert!((1.9..2.1).contains(&mean), "mean={mean}");
        assert_eq!(rng.exp(0.0), 0.0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(77);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn jitter_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let x = rng.jitter(100.0, 0.1);
            assert!((90.0..=110.0).contains(&x));
        }
        assert_eq!(rng.jitter(5.0, 0.0), 5.0);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SimRng::new(1);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert!(rng.choose(&[42]).is_some());
    }

    #[test]
    fn range_signed_and_unsigned_bounds() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let x: i64 = rng.range(-5i64..=5);
            assert!((-5..=5).contains(&x));
            let y: u8 = rng.range(0..=u8::MAX);
            let _ = y; // full domain must not panic
            let z: usize = rng.range(3..4);
            assert_eq!(z, 3);
        }
    }

    #[test]
    fn range_covers_both_endpoints_inclusive() {
        let mut rng = SimRng::new(21);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.range(0usize..=3)] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen={seen:?}");
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = SimRng::new(33);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SimRng::new(8);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
