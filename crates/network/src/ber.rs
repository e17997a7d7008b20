//! Bit-error-rate model of the wide-area links.
//!
//! The paper's global links "experience a BER that is chosen randomly from
//! the following distribution: 54 % probability of 10⁻⁶, 20 % of 10⁻⁵,
//! 15 % of 10⁻⁴, 10 % of 10⁻³ and 1 % of 10⁻²". A BER of `b` degrades the
//! effective bandwidth to `(1 − b_loss) · B_bb` because corrupted frames
//! must be resent (Algorithm 1, line 2).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Discrete BER distribution.
///
/// # Examples
///
/// ```
/// use geoplace_network::ber::BerDistribution;
/// use rand::SeedableRng;
///
/// let ber = BerDistribution::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let b = ber.sample(&mut rng);
/// assert!(b >= 1e-6 && b <= 1e-2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BerDistribution {
    /// `(ber, probability)` pairs; probabilities sum to 1.
    entries: Vec<(f64, f64)>,
}

impl BerDistribution {
    /// Creates a distribution from `(ber, probability)` entries.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities do not sum to ~1 or any entry is
    /// negative — this is a static configuration error.
    pub fn new(entries: Vec<(f64, f64)>) -> Self {
        assert!(!entries.is_empty(), "empty BER distribution");
        let total: f64 = entries.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "BER probabilities sum to {total}"
        );
        assert!(
            entries
                .iter()
                .all(|&(b, p)| (0.0..=1.0).contains(&b) && p >= 0.0),
            "invalid BER entry"
        );
        BerDistribution { entries }
    }

    /// The paper's distribution.
    pub fn paper_default() -> Self {
        BerDistribution::new(vec![
            (1e-6, 0.54),
            (1e-5, 0.20),
            (1e-4, 0.15),
            (1e-3, 0.10),
            (1e-2, 0.01),
        ])
    }

    /// A zero-error distribution (for closed-form latency tests).
    pub fn error_free() -> Self {
        BerDistribution::new(vec![(0.0, 1.0)])
    }

    /// Draws a BER for one transmission time step.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut target: f64 = rng.gen();
        for &(ber, p) in &self.entries {
            if target < p {
                return ber;
            }
            target -= p;
        }
        self.entries.last().expect("non-empty").0
    }

    /// Expected BER (for analytic sanity checks).
    pub fn mean(&self) -> f64 {
        self.entries.iter().map(|&(b, p)| b * p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_distribution_matches_frequencies() {
        let d = BerDistribution::paper_default();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mut worst = 0usize;
        let mut best = 0usize;
        for _ in 0..n {
            let b = d.sample(&mut rng);
            if b == 1e-2 {
                worst += 1;
            }
            if b == 1e-6 {
                best += 1;
            }
        }
        assert!((worst as f64 / n as f64 - 0.01).abs() < 0.005);
        assert!((best as f64 / n as f64 - 0.54).abs() < 0.01);
    }

    #[test]
    fn mean_matches_closed_form() {
        let d = BerDistribution::paper_default();
        let expected = 1e-6 * 0.54 + 1e-5 * 0.20 + 1e-4 * 0.15 + 1e-3 * 0.10 + 1e-2 * 0.01;
        assert!((d.mean() - expected).abs() < 1e-15);
    }

    #[test]
    fn error_free_always_zero() {
        let d = BerDistribution::error_free();
        let mut rng = StdRng::seed_from_u64(6);
        assert!((0..100).all(|_| d.sample(&mut rng) == 0.0));
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_probabilities_panic() {
        let _ = BerDistribution::new(vec![(1e-6, 0.5), (1e-3, 0.2)]);
    }
}
