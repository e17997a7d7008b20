//! Tuning of the sparse slot pipeline.
//!
//! The paper's global phase is pairwise at heart: CPU-load repulsion and
//! data-correlation attraction are defined over *every* VM pair (Eq. 5).
//! Materializing them densely is O(n²) per slot and intractable at the
//! production-scale fleets the roadmap targets. Real correlation
//! structure, however, is sparse — most VM pairs neither communicate nor
//! peak-coincide meaningfully — so above a crossover size the pipeline
//! switches to top-k neighbor graphs plus a far-field approximation.
//!
//! [`SparsityConfig`] is the single knob bundle: the engine uses it to
//! pick the per-slot [`crate::cpucorr::CpuCorrelationMatrix`]
//! representation, and the force layout follows whatever representation
//! it is handed.

use serde::{Deserialize, Serialize};

/// Knobs of the sparse approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparsityConfig {
    /// Neighbors retained per VM in the sparse CPU-correlation graph.
    pub top_k: usize,
    /// Fleet size from which the pipeline goes sparse: dense below it,
    /// sparse at or above it. `usize::MAX` forces the exact dense
    /// matrices (exactness tests), `0` the sparse top-k graphs
    /// (agreement tests at small fleet sizes).
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
    /// True when a fleet of `n` VMs should use the sparse representation
    /// under this configuration.
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
