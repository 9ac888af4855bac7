//! From-scratch samplers for the distributions the paper's workloads use.
//!
//! * [`Normal`] — Marsaglia polar method (building block for Gamma);
//! * [`Gamma`] — Marsaglia–Tsang squeeze method; parameterized either by
//!   (shape, scale) or by (mean, std-dev) as the paper's `UpdateStdDev`
//!   knob does;
//! * [`Zipf`] — ranked power-law `P(i) ∝ 1/(i+1)^θ` with cumulative-table
//!   inversion for sampling (θ = 0 is uniform; the paper sweeps θ ∈ [0, 1.6]);
//! * [`Pareto`] — heavy-tailed object sizes (the paper's §5.3 uses shape
//!   1.1, mean 1.0, citing Krishnamurthy & Rexford);
//! * [`Exponential`] — inter-arrival times of Poisson processes.
//!
//! All samplers draw from a caller-owned [`SplitMix64`], so callers
//! control seeding and stream independence.

use freshen_core::rng::SplitMix64;

/// Standard normal sampler using the Marsaglia polar method.
///
/// Caches the second variate of each generated pair.
#[derive(Debug, Clone, Default)]
pub struct Normal {
    spare: Option<f64>,
}

impl Normal {
    /// Create a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw one standard-normal variate.
    pub fn sample(&mut self, rng: &mut SplitMix64) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u = rng.range(-1.0, 1.0);
            let v = rng.range(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * factor);
                return u * factor;
            }
        }
    }
}

/// Gamma(shape `k`, scale `θ`) sampler — Marsaglia & Tsang (2000).
///
/// Mean `kθ`, variance `kθ²`. The paper draws per-object change rates from
/// a Gamma with a configured mean and standard deviation, so
/// [`Gamma::with_mean_std`] maps `(m, σ) → (k = m²/σ², θ = σ²/m)`.
#[derive(Debug, Clone)]
pub struct Gamma {
    shape: f64,
    scale: f64,
    normal: Normal,
}

impl Gamma {
    /// Create from shape and scale. Both must be positive and finite.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite parameters.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape.is_finite() && shape > 0.0, "shape must be positive");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        Gamma {
            shape,
            scale,
            normal: Normal::new(),
        }
    }

    /// Create from a target mean and standard deviation (both positive).
    pub fn with_mean_std(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        assert!(
            std_dev.is_finite() && std_dev > 0.0,
            "std_dev must be positive"
        );
        let shape = (mean / std_dev) * (mean / std_dev);
        let scale = std_dev * std_dev / mean;
        Gamma::new(shape, scale)
    }

    /// Distribution shape `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Distribution scale `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Distribution mean `kθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// Draw one variate.
    pub fn sample(&mut self, rng: &mut SplitMix64) -> f64 {
        if self.shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
            let u: f64 = loop {
                let u = rng.next_f64();
                if u > 0.0 {
                    break u;
                }
            };
            return self.sample_shape_ge1(self.shape + 1.0, rng)
                * u.powf(1.0 / self.shape)
                * self.scale;
        }
        self.sample_shape_ge1(self.shape, rng) * self.scale
    }

    /// Unit-scale Marsaglia–Tsang for shape ≥ 1.
    fn sample_shape_ge1(&mut self, shape: f64, rng: &mut SplitMix64) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal.sample(rng);
            let t = 1.0 + c * x;
            if t <= 0.0 {
                continue;
            }
            let v = t * t * t;
            let u = rng.next_f64();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

/// Zipf distribution over ranks `0..n`: `P(i) ∝ 1/(i+1)^θ`.
///
/// `θ = 0` is uniform; larger θ concentrates mass on low ranks. The paper
/// cites Padmanabhan & Qiu for θ as high as 1.6 on busy web sites.
#[derive(Debug, Clone)]
pub struct Zipf {
    probs: Vec<f64>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a Zipf over `n` ranks with skew `theta ≥ 0`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be non-negative"
        );
        let mut probs: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        // Guard against float drift in the last bucket.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { probs, cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no ranks (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The probability vector (sums to 1; rank 0 is the most popular).
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Draw one rank by CDF inversion (binary search, `O(log n)`).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.len() - 1),
            Err(i) => i.min(self.len() - 1),
        }
    }
}

/// Pareto distribution: `P(X > x) = (x_m/x)^a` for `x ≥ x_m`.
///
/// Mean `a·x_m/(a−1)` for `a > 1`. The paper's object sizes use shape
/// `a = 1.1` scaled to mean 1.0, so [`Pareto::with_mean`] handles that
/// mapping: `x_m = mean·(a−1)/a`.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    shape: f64,
    scale: f64,
}

impl Pareto {
    /// Create from shape `a > 0` and scale (minimum value) `x_m > 0`.
    ///
    /// # Panics
    /// Panics on non-positive parameters.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape.is_finite() && shape > 0.0, "shape must be positive");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        Pareto { shape, scale }
    }

    /// Create with a target mean; requires `shape > 1` (otherwise the mean
    /// diverges).
    ///
    /// # Panics
    /// Panics when `shape ≤ 1` or `mean ≤ 0`.
    pub fn with_mean(shape: f64, mean: f64) -> Self {
        assert!(shape > 1.0, "mean is infinite for shape <= 1");
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Pareto::new(shape, mean * (shape - 1.0) / shape)
    }

    /// Distribution shape `a`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Distribution scale (minimum value) `x_m`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Analytic mean (`∞` represented as `f64::INFINITY` for `a ≤ 1`).
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }

    /// Draw one variate by inverse transform: `x_m / U^{1/a}`.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        let u: f64 = loop {
            let u = rng.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        self.scale / u.powf(1.0 / self.shape)
    }
}

/// Exponential distribution with the given rate (mean `1/rate`). Used for
/// Poisson-process inter-arrival times in the simulator.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create with rate `> 0`.
    ///
    /// # Panics
    /// Panics on a non-positive rate.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Exponential { rate }
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draw one variate: `−ln(U)/rate`.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        let u: f64 = loop {
            let u = rng.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev, variance};

    fn rng(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed)
    }

    const N: usize = 200_000;

    #[test]
    fn normal_moments() {
        let mut r = rng(1);
        let mut n = Normal::new();
        let xs: Vec<f64> = (0..N).map(|_| n.sample(&mut r)).collect();
        assert!(mean(&xs).abs() < 0.01, "mean {}", mean(&xs));
        assert!((std_dev(&xs) - 1.0).abs() < 0.01, "std {}", std_dev(&xs));
    }

    #[test]
    fn normal_symmetry() {
        let mut r = rng(2);
        let mut n = Normal::new();
        let pos = (0..N).filter(|_| n.sample(&mut r) > 0.0).count();
        let frac = pos as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn gamma_moments_shape_ge1() {
        let mut r = rng(3);
        let mut g = Gamma::new(4.0, 0.5); // mean 2, var 1
        let xs: Vec<f64> = (0..N).map(|_| g.sample(&mut r)).collect();
        assert!((mean(&xs) - 2.0).abs() < 0.02, "mean {}", mean(&xs));
        assert!((variance(&xs) - 1.0).abs() < 0.05, "var {}", variance(&xs));
    }

    #[test]
    fn gamma_moments_shape_lt1() {
        let mut r = rng(4);
        let mut g = Gamma::new(0.5, 2.0); // mean 1, var 2
        let xs: Vec<f64> = (0..N).map(|_| g.sample(&mut r)).collect();
        assert!((mean(&xs) - 1.0).abs() < 0.03, "mean {}", mean(&xs));
        assert!((variance(&xs) - 2.0).abs() < 0.15, "var {}", variance(&xs));
    }

    #[test]
    fn gamma_with_mean_std_parameterization() {
        let g = Gamma::with_mean_std(2.0, 1.0);
        assert!((g.shape() - 4.0).abs() < 1e-12);
        assert!((g.scale() - 0.5).abs() < 1e-12);
        assert!((g.mean() - 2.0).abs() < 1e-12);
        // Exponential special case: σ = m ⇒ shape 1.
        let e = Gamma::with_mean_std(2.0, 2.0);
        assert!((e.shape() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_all_positive() {
        let mut r = rng(5);
        let mut g = Gamma::new(0.3, 1.0);
        assert!((0..10_000).all(|_| g.sample(&mut r) > 0.0));
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn gamma_rejects_bad_shape() {
        Gamma::new(0.0, 1.0);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for &p in z.probabilities() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_probabilities_normalized_and_decreasing() {
        for theta in [0.4, 0.8, 1.2, 1.6] {
            let z = Zipf::new(1000, theta);
            let sum: f64 = z.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            for w in z.probabilities().windows(2) {
                assert!(w[0] > w[1], "Zipf probs strictly decreasing");
            }
        }
    }

    #[test]
    fn zipf_theta1_ratio() {
        // θ=1: p(0)/p(1) = 2.
        let z = Zipf::new(100, 1.0);
        let p = z.probabilities();
        assert!((p[0] / p[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_matches_probabilities() {
        let z = Zipf::new(10, 1.0);
        let mut r = rng(6);
        let mut counts = [0usize; 10];
        for _ in 0..N {
            counts[z.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / N as f64;
            let exp = z.probabilities()[i];
            assert!((emp - exp).abs() < 0.01, "rank {i}: emp {emp} vs exp {exp}");
        }
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.0);
        assert_eq!(z.probabilities(), &[1.0]);
        let mut r = rng(7);
        assert_eq!(z.sample(&mut r), 0);
    }

    #[test]
    fn pareto_mean_parameterization() {
        let p = Pareto::with_mean(1.1, 1.0);
        assert!((p.mean() - 1.0).abs() < 1e-12);
        assert!((p.scale() - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_samples_at_least_scale() {
        let p = Pareto::new(2.0, 3.0);
        let mut r = rng(8);
        assert!((0..10_000).all(|_| p.sample(&mut r) >= 3.0));
    }

    #[test]
    fn pareto_sample_mean_near_analytic() {
        // Use a shape with finite variance so the sample mean converges.
        let p = Pareto::with_mean(3.0, 1.0);
        let mut r = rng(9);
        let xs: Vec<f64> = (0..N).map(|_| p.sample(&mut r)).collect();
        assert!((mean(&xs) - 1.0).abs() < 0.02, "mean {}", mean(&xs));
    }

    #[test]
    fn pareto_heavy_tail_shape_1_1() {
        // For a=1.1 most mass is tiny but rare huge values appear: the
        // median is far below the mean.
        let p = Pareto::with_mean(1.1, 1.0);
        let mut r = rng(10);
        let xs: Vec<f64> = (0..N).map(|_| p.sample(&mut r)).collect();
        let med = crate::stats::quantile(&xs, 0.5);
        assert!(med < 0.25, "median {med} should be well below the mean 1.0");
    }

    #[test]
    #[should_panic(expected = "mean is infinite")]
    fn pareto_with_mean_rejects_shape_le1() {
        Pareto::with_mean(1.0, 1.0);
    }

    #[test]
    fn exponential_moments() {
        let e = Exponential::new(4.0);
        let mut r = rng(11);
        let xs: Vec<f64> = (0..N).map(|_| e.sample(&mut r)).collect();
        assert!((mean(&xs) - 0.25).abs() < 0.005, "mean {}", mean(&xs));
        assert!((std_dev(&xs) - 0.25).abs() < 0.01);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let mut a = rng(99);
        let mut b = rng(99);
        let mut ga = Gamma::new(2.0, 1.0);
        let mut gb = Gamma::new(2.0, 1.0);
        for _ in 0..100 {
            assert_eq!(ga.sample(&mut a), gb.sample(&mut b));
        }
    }
}
