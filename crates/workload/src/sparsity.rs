//! Tuning of the screened correlation rows.
//!
//! The paper's global phase is pairwise at heart: CPU-load repulsion and
//! data-correlation attraction are defined over *every* VM pair (Eq. 5).
//! Evaluating every pair is O(n²) per slot and intractable at the
//! production-scale fleets the roadmap targets. Real correlation
//! structure, however, is sparse — most VM pairs neither communicate nor
//! peak-coincide meaningfully — so from a crossover size on, the
//! per-slot [`crate::cpucorr::CpuCorrelationMatrix`] keeps screened
//! top-k rows plus a far-field baseline instead of complete exact rows.
//!
//! [`SparsityConfig`] is the single knob bundle: the engine uses it to
//! pick the builder and to tune the screen. Both builders fill the same
//! CSR rows, and the force layout runs one loop over whichever it is
//! handed: its grid far field switches on with a positive baseline.

use serde::{Deserialize, Serialize};

/// Knobs of the screened correlation rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparsityConfig {
    /// Neighbors retained per VM in screened CPU-correlation rows.
    pub top_k: usize,
    /// Fleet size from which correlation rows are screened: complete
    /// exact rows below it, screened top-k rows at or above it.
    /// `usize::MAX` forces exact rows (exactness tests), `0` screened
    /// rows (agreement tests and the screened digest tier at small fleet
    /// sizes).
    pub dense_crossover: usize,
    /// Resolution of the peak-time candidate screen: VMs are bucketed by
    /// the tick of their window peak; top-k candidates are drawn from the
    /// nearest buckets (coincident peaks ⇒ high repulsion).
    pub peak_buckets: usize,
    /// Cap on exact pair evaluations per VM during the top-k search.
    pub candidates_per_vm: usize,
    /// Pairs sampled (deterministically) to estimate the far-field
    /// baseline correlation.
    pub baseline_samples: usize,
}

impl Default for SparsityConfig {
    fn default() -> Self {
        SparsityConfig {
            top_k: 32,
            dense_crossover: 512,
            peak_buckets: 36,
            candidates_per_vm: 128,
            baseline_samples: 2048,
        }
    }
}

impl SparsityConfig {
    /// True when a fleet of `n` VMs should get screened rows under this
    /// configuration.
    pub fn use_sparse(&self, n: usize) -> bool {
        n >= self.dense_crossover
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_crosses_over_at_threshold() {
        let config = SparsityConfig::default();
        assert!(!config.use_sparse(config.dense_crossover - 1));
        assert!(config.use_sparse(config.dense_crossover));
    }
}
