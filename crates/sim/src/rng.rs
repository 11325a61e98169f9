//! Seeded randomness and the distribution samplers the workloads use.
//!
//! All randomness in the workspace flows through [`SimRng`] so a single seed
//! reproduces an entire experiment. The samplers are implemented directly
//! (inverse-CDF / Box–Muller / rejection-free Zipf) to avoid extra
//! dependencies and to keep their behaviour stable across `rand` versions.

use crate::invariant::Fold;

/// splitmix64 step — used only to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ core (Blackman & Vigna). Implemented in-tree so the stream
/// is owned by this workspace: no external crate version bump can ever shift
/// experiment results.
#[derive(Clone)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256PlusPlus { s }
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

/// Deterministic random source for one simulation run.
pub struct SimRng {
    inner: Xoshiro256PlusPlus,
}

impl SimRng {
    /// Create from a 64-bit seed. The same seed always yields the same stream.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream (e.g. one per workload generator)
    /// so adding a generator does not perturb the others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(s)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's widening-multiply reduction.
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over empty range");
        let wide = (self.inner.next_u64() as u128) * (n as u128);
        (wide >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "int_range over empty range");
        let span = hi - lo;
        let wide = (self.inner.next_u64() as u128) * (span as u128);
        lo + (wide >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential with the given mean (inter-arrival times of a Poisson
    /// process). Mean must be positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Guard against ln(0).
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Lognormal parameterized by the *target* median and a shape sigma:
    /// `exp(N(ln median, sigma))`.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        (self.std_normal() * sigma + median.ln()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Raw u64 (for hashing salts).
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Fold the generator state (`inner`) into a digest. Two runs whose RNG
    /// streams have diverged produce different folds even if every sampled
    /// value happened to agree so far.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { inner } = self;
        for word in inner.s {
            f.write_u64(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_of_sibling_count() {
        // The first fork's stream must not change when more forks are taken.
        let mut parent1 = SimRng::seed(7);
        let mut child_a = parent1.fork(1);
        let seq_a: Vec<u64> = (0..8).map(|_| child_a.u64()).collect();

        let mut parent2 = SimRng::seed(7);
        let mut child_b = parent2.fork(1);
        let _extra = parent2.fork(2);
        let seq_b: Vec<u64> = (0..8).map(|_| child_b.u64()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::seed(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SimRng::seed(8);
        for _ in 0..100 {
            let s = rng.sample_indices(20, 8);
            assert_eq!(s.len(), 8);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8);
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(9);
        assert!(!(0..1000).any(|_| rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }
}
