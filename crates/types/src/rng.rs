//! Deterministic pseudo-randomness for the simulators.
//!
//! Every stochastic effect in the workspace (launch-overhead jitter, queue
//! noise, fault-arrival spread) draws from [`Xoshiro256`], seeded explicitly
//! so that a (workload, config, seed) triple always reproduces the same
//! trace. The generator is a from-scratch xoshiro256** implementation — no
//! external RNG crate is needed at this layer.

/// SplitMix64 step, used to expand a single `u64` seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** deterministic generator.
///
/// ```
/// use hcc_types::rng::Xoshiro256;
/// let mut a = Xoshiro256::seed_from_u64(7);
/// let mut b = Xoshiro256::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator from a single word via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn next_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be non-empty");
        // Multiplicative range reduction (Lemire); slight bias is fine for
        // simulation jitter.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Multiplicative jitter factor uniform in `[1 - frac, 1 + frac]`.
    ///
    /// A `frac` of `0.0` returns exactly `1.0`; values are clamped so the
    /// factor is always positive.
    pub fn jitter(&mut self, frac: f64) -> f64 {
        let frac = frac.clamp(0.0, 0.95);
        1.0 - frac + 2.0 * frac * self.next_f64()
    }

    /// Heavy-tailed spike: returns `Some(multiplier)` with probability `p`,
    /// where the multiplier is uniform in `[lo, hi]`. Models the occasional
    /// long launch/hypercall the paper's CDFs show in their right tails
    /// (Fig. 11a).
    pub fn spike(&mut self, p: f64, lo: f64, hi: f64) -> Option<f64> {
        if self.next_f64() < p.clamp(0.0, 1.0) {
            Some(lo + (hi - lo) * self.next_f64())
        } else {
            None
        }
    }

    /// Two approximately log-normal factors with median 1.0 and shapes
    /// `sigma_a` and `sigma_b`, each built from a 12-sum uniform
    /// approximation of a Gaussian.
    ///
    /// The 24 underlying uniforms are consumed in order and each 12-sum
    /// accumulates sequentially, so the pair is bit-identical to two
    /// single draws. One call serves the launch hot path's gap+KLO pair.
    pub fn lognormal_pair(&mut self, sigma_a: f64, sigma_b: f64) -> (f64, f64) {
        let mut sum_a = 0.0f64;
        for _ in 0..12 {
            sum_a += self.next_f64();
        }
        let mut sum_b = 0.0f64;
        for _ in 0..12 {
            sum_b += self.next_f64();
        }
        (
            (sigma_a * (sum_a - 6.0)).exp(),
            (sigma_b * (sum_b - 6.0)).exp(),
        )
    }

    /// Fork an independent, deterministic child generator (e.g. one per
    /// engine) derived from the parent stream.
    pub fn fork(&mut self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Xoshiro256::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(r.next_range(7) < 7);
        }
    }

    #[test]
    fn jitter_centered_and_bounded() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let j = r.jitter(0.2);
            assert!((0.8..=1.2).contains(&j));
            sum += j;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean jitter {mean}");
    }

    #[test]
    fn jitter_zero_is_identity() {
        let mut r = Xoshiro256::seed_from_u64(5);
        assert_eq!(r.jitter(0.0), 1.0);
    }

    #[test]
    fn spike_probability_roughly_holds() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let hits = (0..100_000)
            .filter(|_| r.spike(0.05, 2.0, 10.0).is_some())
            .count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.05).abs() < 0.01, "spike rate {rate}");
    }

    /// One log-normal draw from a 12-sum Gaussian: the reference
    /// `lognormal_pair` is held to.
    fn lognormal(r: &mut Xoshiro256, sigma: f64) -> f64 {
        let gauss: f64 = (0..12).map(|_| r.next_f64()).sum::<f64>() - 6.0;
        (sigma * gauss).exp()
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut r = Xoshiro256::seed_from_u64(13);
        let mut vals: Vec<f64> = (0..5_001)
            .flat_map(|_| {
                let (a, b) = r.lognormal_pair(0.3, 0.3);
                [a, b]
            })
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[5_000];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn lognormal_pair_is_bit_identical_to_two_draws() {
        let mut a = Xoshiro256::seed_from_u64(21);
        let mut b = Xoshiro256::seed_from_u64(21);
        for _ in 0..1_000 {
            let (x, y) = a.lognormal_pair(0.5, 0.22);
            let x2 = lognormal(&mut b, 0.5);
            let y2 = lognormal(&mut b, 0.22);
            assert_eq!(x.to_bits(), x2.to_bits());
            assert_eq!(y.to_bits(), y2.to_bits());
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut parent1 = Xoshiro256::seed_from_u64(99);
        let mut parent2 = Xoshiro256::seed_from_u64(99);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), parent1.next_u64());
    }
}
