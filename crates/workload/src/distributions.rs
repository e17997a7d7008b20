//! Random-variate samplers used by the workload generators.
//!
//! The paper draws VM inter-arrivals from a Poisson process, lifetimes from
//! an exponential distribution and pairwise data volumes from a log-normal
//! distribution. We implement the samplers directly on top of [`rand::Rng`]
//! (inverse-CDF for the exponential, Knuth/normal-approximation for the
//! Poisson, Box–Muller for the normal) instead of depending on `rand_distr`,
//! keeping the dependency set to the crates available offline.

use rand::Rng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// # Examples
///
/// ```
/// use geoplace_workload::distributions::Exponential;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let exp = Exponential::new(0.5).unwrap();
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates a sampler with the given rate `lambda > 0`.
    ///
    /// # Errors
    ///
    /// Returns `None` if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Option<Self> {
        (rate > 0.0 && rate.is_finite()).then_some(Exponential { rate })
    }

    /// Creates a sampler with the given mean (`1/lambda`).
    pub fn with_mean(mean: f64) -> Option<Self> {
        (mean > 0.0 && mean.is_finite()).then(|| Exponential { rate: 1.0 / mean })
    }

    /// The distribution mean `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws one variate by inverse-CDF transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Uniform in (0, 1]: avoid ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.rate
    }
}

/// Standard-normal sampler via the Box–Muller transform.
///
/// Stateless: draws two uniforms per variate (the second Box–Muller output
/// is discarded so that sampling stays independent of call history, which
/// keeps the procedural trace generation reproducible).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Uniforms in (0,1] and [0,1).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal distribution `N(mean, sigma²)`.
///
/// # Examples
///
/// ```
/// use geoplace_workload::distributions::Normal;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let n = Normal::new(10.0, 2.0).unwrap();
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a sampler; `sigma` must be non-negative and finite.
    ///
    /// # Errors
    ///
    /// Returns `None` on invalid parameters.
    pub fn new(mean: f64, sigma: f64) -> Option<Self> {
        (sigma >= 0.0 && sigma.is_finite() && mean.is_finite()).then_some(Normal { mean, sigma })
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }
}

/// Log-normal distribution parameterized by the *arithmetic* mean of the
/// variate and the variance `sigma²` of the underlying normal.
///
/// The paper generates pairwise data volumes "by a log-normal distribution
/// with the mean of 10 MB and uniform variance selection in the range
/// [1, 4]" — i.e. the log-space variance is itself drawn uniformly from
/// `[1, 4]` per pair. [`LogNormal::with_arithmetic_mean`] solves
/// `mu = ln(m) − sigma²/2` so that `E[X] = m` regardless of the variance
/// chosen.
///
/// # Examples
///
/// ```
/// use geoplace_workload::distributions::LogNormal;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let d = LogNormal::with_arithmetic_mean(10.0, 1.0).unwrap();
/// let x = d.sample(&mut rng);
/// assert!(x > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a sampler from log-space parameters.
    ///
    /// # Errors
    ///
    /// Returns `None` if `sigma` is negative or parameters are non-finite.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma >= 0.0 && sigma.is_finite() && mu.is_finite()).then_some(LogNormal { mu, sigma })
    }

    /// Creates a sampler whose *arithmetic* mean is `mean`, with log-space
    /// variance `variance` (the paper's "uniform variance in \[1,4\]").
    ///
    /// # Errors
    ///
    /// Returns `None` if `mean <= 0` or `variance < 0`.
    pub fn with_arithmetic_mean(mean: f64, variance: f64) -> Option<Self> {
        if mean.is_nan() || mean <= 0.0 || variance < 0.0 || !variance.is_finite() {
            return None;
        }
        let sigma = variance.sqrt();
        let mu = mean.ln() - variance / 2.0;
        Some(LogNormal { mu, sigma })
    }

    /// Arithmetic mean `E[X] = exp(mu + sigma²/2)`.
    pub fn arithmetic_mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Poisson distribution with rate `lambda`.
///
/// Uses Knuth's product-of-uniforms method for `lambda < 30` and a
/// rounded-normal approximation above (adequate for arrival counts).
///
/// # Examples
///
/// ```
/// use geoplace_workload::distributions::Poisson;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let p = Poisson::new(3.0).unwrap();
/// let k = p.sample(&mut rng);
/// assert!(k < 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a sampler with rate `lambda >= 0`.
    ///
    /// # Errors
    ///
    /// Returns `None` on negative or non-finite rates.
    pub fn new(lambda: f64) -> Option<Self> {
        (lambda >= 0.0 && lambda.is_finite()).then_some(Poisson { lambda })
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draws one count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth: multiply uniforms until the product drops below e^-λ.
            let limit = (-self.lambda).exp();
            let mut k = 0u32;
            let mut product: f64 = rng.gen();
            while product > limit {
                k += 1;
                product *= rng.gen::<f64>();
            }
            k
        } else {
            // Normal approximation N(λ, λ), adequate for large rates.
            let x = self.lambda + self.lambda.sqrt() * standard_normal(rng);
            x.round().max(0.0) as u32
        }
    }
}

/// Weighted categorical choice over a small option set.
///
/// Used for the VM memory-size distribution (2/4/8 GB at 60/30/10 %) and
/// the BER probability table.
///
/// # Examples
///
/// ```
/// use geoplace_workload::distributions::WeightedChoice;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let sizes = WeightedChoice::new(vec![(2.0, 0.6), (4.0, 0.3), (8.0, 0.1)]).unwrap();
/// let s = *sizes.sample(&mut rng);
/// assert!(s == 2.0 || s == 4.0 || s == 8.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedChoice<T> {
    options: Vec<(T, f64)>,
    total: f64,
}

impl<T> WeightedChoice<T> {
    /// Creates a chooser from `(value, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns `None` if the list is empty, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new(options: Vec<(T, f64)>) -> Option<Self> {
        if options.is_empty() {
            return None;
        }
        if options.iter().any(|(_, w)| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = options.iter().map(|(_, w)| w).sum();
        (total > 0.0).then_some(WeightedChoice { options, total })
    }

    /// Draws a reference to one of the options.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        let mut target = rng.gen::<f64>() * self.total;
        for (value, weight) in &self.options {
            if target < *weight {
                return value;
            }
            target -= weight;
        }
        // Floating-point slack: fall back to the last option.
        &self.options.last().expect("non-empty by construction").0
    }

    /// The option values and weights.
    pub fn options(&self) -> &[(T, f64)] {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = rng(11);
        let d = Exponential::with_mean(8.0).unwrap();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 8.0).abs() < 0.25, "sampled mean {mean}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_none());
        assert!(Exponential::new(-1.0).is_none());
        assert!(Exponential::new(f64::NAN).is_none());
        assert!(Exponential::with_mean(0.0).is_none());
    }

    #[test]
    fn normal_moments_match() {
        let mut r = rng(12);
        let d = Normal::new(5.0, 2.0).unwrap();
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn lognormal_arithmetic_mean_is_invariant_of_variance() {
        for variance in [1.0, 2.5, 4.0] {
            let d = LogNormal::with_arithmetic_mean(10.0, variance).unwrap();
            assert!((d.arithmetic_mean() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lognormal_sampled_mean_close_to_target() {
        let mut r = rng(13);
        let d = LogNormal::with_arithmetic_mean(10.0, 1.0).unwrap();
        let n = 60_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.6, "sampled mean {mean}");
    }

    #[test]
    fn lognormal_rejects_nonpositive_mean() {
        assert!(LogNormal::with_arithmetic_mean(0.0, 1.0).is_none());
        assert!(LogNormal::with_arithmetic_mean(-3.0, 1.0).is_none());
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut r = rng(14);
        let d = Poisson::new(3.0).unwrap();
        let n = 30_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "sampled mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approx() {
        let mut r = rng(15);
        let d = Poisson::new(200.0).unwrap();
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 2.0, "sampled mean {mean}");
    }

    #[test]
    fn poisson_zero_rate_always_zero() {
        let mut r = rng(16);
        let d = Poisson::new(0.0).unwrap();
        assert!((0..100).all(|_| d.sample(&mut r) == 0));
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut r = rng(17);
        let d = WeightedChoice::new(vec![("a", 0.6), ("b", 0.3), ("c", 0.1)]).unwrap();
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match *d.sample(&mut r) {
                "a" => counts[0] += 1,
                "b" => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        let fraction = |c: usize| c as f64 / n as f64;
        assert!((fraction(counts[0]) - 0.6).abs() < 0.02);
        assert!((fraction(counts[1]) - 0.3).abs() < 0.02);
        assert!((fraction(counts[2]) - 0.1).abs() < 0.02);
    }

    #[test]
    fn weighted_choice_rejects_degenerate_inputs() {
        assert!(WeightedChoice::<u8>::new(vec![]).is_none());
        assert!(WeightedChoice::new(vec![(1u8, -1.0)]).is_none());
        assert!(WeightedChoice::new(vec![(1u8, 0.0)]).is_none());
        assert!(WeightedChoice::new(vec![(1u8, f64::INFINITY)]).is_none());
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let d = LogNormal::with_arithmetic_mean(10.0, 2.0).unwrap();
        let a: Vec<f64> = {
            let mut r = rng(99);
            (0..16).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(99);
            (0..16).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
