//! Tier-1 gates of the sparse slot pipeline:
//!
//! * dense ↔ sparse placement-quality agreement at repro fleet scale,
//!   measured the only statistically honest way — as a paired multi-seed
//!   mean. Per-seed totals of the closed simulation loop are chaotic (a
//!   perturbed RNG seed alone moves the weekly cost total by ±5–10%,
//!   dense vs dense), so per-seed deltas measure weather, not the
//!   approximation; the paired mean cancels the sign-alternating chaos
//!   and exposes any systematic bias of the sparse path.
//! * same-seed bitwise determinism of the sparse path.
//! * the ≈10,000-VM stress scenario completing a full one-day horizon.

use geoplace_bench::scenario::{dense_sparse_pair, run_policy, run_proposed_with, PolicyKind};
use geoplace_bench::Scale;
use geoplace_core::ProposedConfig;
use geoplace_dcsim::metrics::Totals;

/// The dense and the sparse side's totals over one repro world.
fn paired_run(seed: u64, horizon: u32) -> (Totals, Totals) {
    let mut base = Scale::Repro.config(seed);
    base.horizon_slots = horizon;
    let (dense, sparse) = dense_sparse_pair(&base);
    // Same ProposedConfig on both sides — the paired comparison isolates
    // the sparse correlation/layout approximation, nothing else.
    let totals = |config| run_proposed_with(&config, ProposedConfig::default()).totals();
    (totals(dense), totals(sparse))
}

#[test]
fn dense_and_sparse_pipelines_agree_within_two_percent() {
    const SEEDS: [u64; 8] = [7, 11, 23, 42, 77, 101, 131, 999];
    const HORIZON: u32 = 24;
    let mut dense = (0.0f64, 0.0f64, 0.0f64);
    let mut sparse = (0.0f64, 0.0f64, 0.0f64);
    for &seed in &SEEDS {
        let (d, s) = paired_run(seed, HORIZON);
        dense = (
            dense.0 + d.cost_eur,
            dense.1 + d.energy_gj,
            dense.2 + d.mean_response_s,
        );
        sparse = (
            sparse.0 + s.cost_eur,
            sparse.1 + s.energy_gj,
            sparse.2 + s.mean_response_s,
        );
    }
    let rel = |a: f64, b: f64| (b / a - 1.0).abs();
    assert!(
        rel(dense.0, sparse.0) < 0.02,
        "cost paired mean diverges {:.2}%: {:.2} vs {:.2}",
        rel(dense.0, sparse.0) * 100.0,
        dense.0,
        sparse.0
    );
    assert!(
        rel(dense.1, sparse.1) < 0.02,
        "energy paired mean diverges {:.2}%: {:.3} vs {:.3}",
        rel(dense.1, sparse.1) * 100.0,
        dense.1,
        sparse.1
    );
    assert!(
        rel(dense.2, sparse.2) < 0.02,
        "QoS (mean response) paired mean diverges {:.2}%: {:.1} vs {:.1}",
        rel(dense.2, sparse.2) * 100.0,
        dense.2,
        sparse.2
    );
}

#[test]
fn sparse_pipeline_is_bitwise_deterministic() {
    let run = || {
        let mut config = Scale::Bench.config(13);
        config.horizon_slots = 6;
        config.sparsity.dense_crossover = 0;
        run_policy(&config, PolicyKind::Proposed)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same-seed sparse runs must be identical");
}

#[test]
fn stress_scenario_completes_one_day() {
    let config = Scale::Stress.config(42);
    assert_eq!(config.horizon_slots, 24, "stress horizon is one day");
    let report = run_policy(&config, PolicyKind::Proposed);
    assert_eq!(report.hourly.len(), 24, "must finish every slot");
    let totals = report.totals();
    assert!(
        totals.energy_gj.is_finite() && totals.energy_gj > 0.0,
        "energy {}",
        totals.energy_gj
    );
    assert!(totals.cost_eur.is_finite() && totals.cost_eur > 0.0);
    let peak_vms = report.hourly.iter().map(|h| h.active_vms).max().unwrap();
    assert!(
        peak_vms >= 8_000,
        "stress run must actually be stress-scale, peaked at {peak_vms} VMs"
    );
}
