//! Tier-1 gates of the deterministic multi-core executor, built on the
//! same paired harness as the dense↔sparse agreement gate: the *same
//! seed* is driven through the full closed simulation loop once per
//! worker-thread count, and the reports must agree **bit for bit** —
//! not statistically. Chunk boundaries are functions of the arena and
//! partials fold in chunk order, so `threads ∈ {1, 2, 8}` walking
//! different schedules must land on the identical `Totals` (cost,
//! energy, QoS) and identical hourly series.

mod common;

use common::run_checked;
use geoplace_bench::scenario::{run_proposed_with, PolicyKind};
use geoplace_bench::Scale;
use geoplace_core::ProposedConfig;
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_types::Parallelism;

/// One full day-scale run with both the engine's and the policy's
/// kernels pinned to `threads` workers.
fn day_run(seed: u64, sparse: bool, threads: usize) -> SimulationReport {
    let mut config = Scale::Bench.config(seed);
    config.horizon_slots = 24;
    config.parallelism = Parallelism::Threads(threads);
    if sparse {
        config.sparsity.dense_crossover = 0;
    }
    let proposed = ProposedConfig {
        parallelism: Parallelism::Threads(threads),
        ..ProposedConfig::default()
    };
    run_proposed_with(&config, proposed)
}

/// Multi-seed paired sweep: per seed, every thread count must reproduce
/// the single-thread report exactly — cost, energy and QoS totals down
/// to the last bit, plus the full hourly and per-DC series.
fn assert_thread_invariance(sparse: bool) {
    const SEEDS: [u64; 3] = [7, 42, 999];
    for &seed in &SEEDS {
        let reference = day_run(seed, sparse, 1);
        for threads in [2usize, 8] {
            let report = day_run(seed, sparse, threads);
            let (t, r) = (report.totals(), reference.totals());
            assert_eq!(
                t.cost_eur.to_bits(),
                r.cost_eur.to_bits(),
                "sparse={sparse} seed={seed} t={threads}: cost diverged"
            );
            assert_eq!(
                t.energy_gj.to_bits(),
                r.energy_gj.to_bits(),
                "sparse={sparse} seed={seed} t={threads}: energy diverged"
            );
            assert_eq!(
                t.mean_response_s.to_bits(),
                r.mean_response_s.to_bits(),
                "sparse={sparse} seed={seed} t={threads}: QoS diverged"
            );
            assert_eq!(
                report, reference,
                "sparse={sparse} seed={seed} t={threads}: full report diverged"
            );
        }
    }
}

#[test]
fn day_scale_dense_is_thread_count_invariant() {
    assert_thread_invariance(false);
}

#[test]
fn day_scale_sparse_is_thread_count_invariant() {
    assert_thread_invariance(true);
}

#[test]
fn stress_scale_is_thread_count_invariant() {
    // Two slots of the ≈10k-VM scenario — enough to cross every parallel
    // kernel (sparse CSR build, grid force layout, per-DC fan-out) at
    // real fleet size without the full-day runtime. Both slots check
    // the incrementally maintained observation against a rebuild.
    let run = |threads: usize| {
        let mut config = Scale::Stress.config(42);
        config.horizon_slots = 2;
        config.parallelism = Parallelism::Threads(threads);
        run_checked(&config, PolicyKind::Proposed)
    };
    let reference = run(1);
    for threads in [2usize, 8] {
        assert_eq!(run(threads), reference, "stress t={threads}");
    }
}
