//! The incremental-pipeline equivalence contract (tier-1 gate).
//!
//! The engine maintains the policy's inputs — the observed utilization
//! windows and the traffic CSR — across slots from the fleet's churn
//! delta. The contract is that on every slot they equal a from-scratch
//! rebuild from the fleet, which
//! [`assert_observation_matches_rebuild`](geoplace_dcsim::testkit::assert_observation_matches_rebuild)
//! checks. These tests run that check on every slot of the
//! scenario-preset registry and of proptest-generated churn-heavy
//! fleets, at thread counts {1, 2, 8}.

mod common;

use common::run_checked;
use geoplace_bench::scenario::{
    golden_digests_path, parse_golden_file, quick_matrix_config, PolicyKind,
};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_types::Parallelism;
use proptest::prelude::*;

fn run_at(config: &ScenarioConfig, kind: PolicyKind, threads: usize) -> SimulationReport {
    let mut config = config.clone();
    config.parallelism = Parallelism::Threads(threads);
    run_checked(&config, kind)
}

/// Every scenario preset × every policy at seed 41, the quick-matrix
/// seed the stepper suite does not drive: every slot matches the
/// rebuild, and every report its committed golden digest.
#[test]
fn incremental_matches_from_scratch_across_all_presets() {
    let content = std::fs::read_to_string(golden_digests_path()).expect("committed goldens");
    let goldens = parse_golden_file(&content);
    for spec in geoplace_scenarios::registry() {
        let config = quick_matrix_config(&spec, 41);
        for policy in PolicyKind::ALL {
            let key = format!("{}\t{}\t41", spec.name, policy.name());
            assert_eq!(
                Some(&run_at(&config, policy, 1).digest()),
                goldens.get(&key),
                "{key}"
            );
        }
    }
}

/// The churn-storm preset — the heaviest structural-delta load — at
/// worker-thread counts {1, 2, 8}: every slot matches the rebuild and
/// every thread count digests identically.
#[test]
fn incremental_is_thread_invariant_under_churn_storm() {
    let spec = geoplace_scenarios::presets::named("churn_storm").expect("registered preset");
    let config = quick_matrix_config(&spec, 42);
    for policy in [PolicyKind::Proposed, PolicyKind::NetAware] {
        let reference = run_at(&config, policy, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                run_at(&config, policy, threads).digest(),
                reference.digest(),
                "{}: {threads} threads diverged",
                policy.name()
            );
        }
    }
}

proptest! {
    // Each case runs 3 whole simulations; keep the case count tight —
    // the deterministic preset sweep above covers breadth, this covers
    // arbitrary churn shapes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Churn-heavy random fleets: every slot matches the rebuild, and
    /// the digests agree at thread counts {1, 2, 8}.
    #[test]
    fn incremental_equivalence_on_random_churn_fleets(
        seed in 0u64..1000,
        initial_groups in 4u32..40,
        groups_per_slot in 0.5f64..6.0,
        mean_lifetime in 1.0f64..8.0,
        horizon in 3u32..7,
    ) {
        let mut config = ScenarioConfig::scaled(seed);
        config.horizon_slots = horizon;
        config.fleet.arrivals.seed = seed ^ 0xC0DE;
        config.fleet.arrivals.initial_groups = initial_groups;
        config.fleet.arrivals.groups_per_slot = groups_per_slot;
        config.fleet.arrivals.mean_lifetime_slots = mean_lifetime;
        let reference = run_at(&config, PolicyKind::Proposed, 1);
        for threads in [2usize, 8] {
            prop_assert_eq!(
                run_at(&config, PolicyKind::Proposed, threads).digest(),
                reference.digest(),
                "{} threads diverged (seed {})",
                threads,
                seed
            );
        }
    }
}
