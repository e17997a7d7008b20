//! Deterministic value-noise helpers shared by the PV cloud model.
//!
//! Same SplitMix64 construction as the workload traces
//! ([`geoplace_types::hash`]): noise is a pure function of
//! `(seed, index)` so the weather is reproducible and needs no stored
//! state.

use geoplace_types::hash::hash_to_unit;

/// Piecewise-linear value noise over a lattice of spacing `lattice` steps,
/// in `[0, 1)`.
pub(crate) fn smooth_noise(seed: u64, step: u64, lattice: u64) -> f64 {
    let k = step / lattice;
    let frac = (step % lattice) as f64 / lattice as f64;
    let a = hash_to_unit(seed, k);
    let b = hash_to_unit(seed, k + 1);
    a + (b - a) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hash_in_range() {
        for n in 0..512 {
            let v = hash_to_unit(7, n);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn smooth_noise_is_continuous_across_lattice() {
        // Values one step apart must differ by at most 1/lattice of the
        // knot delta — i.e. no jumps bigger than 1.0/lattice × range.
        let lattice = 60;
        for step in 0..10_000u64 {
            let a = smooth_noise(3, step, lattice);
            let b = smooth_noise(3, step + 1, lattice);
            assert!((a - b).abs() <= 1.0 / lattice as f64 + 1e-12);
        }
    }

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(smooth_noise(9, 1234, 60), smooth_noise(9, 1234, 60));
    }
}
