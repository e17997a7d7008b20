//! Property-based tests of the network substrate.

use geoplace_network::ber::BerDistribution;
use geoplace_network::latency::LatencyModel;
use geoplace_network::migration::{latency_constraint_for_qos, Migration, MigrationPlan};
use geoplace_network::response::evaluate_slot;
use geoplace_network::topology::Topology;
use geoplace_network::traffic::TrafficMatrix;
use geoplace_types::units::{Gigabytes, Megabytes, Seconds};
use geoplace_types::{DcId, VmId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_model() -> LatencyModel {
    LatencyModel::new(
        Topology::paper_default().unwrap(),
        BerDistribution::paper_default(),
    )
}

fn clean_model() -> LatencyModel {
    LatencyModel::new(
        Topology::paper_default().unwrap(),
        BerDistribution::error_free(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm 1 terminates with a finite latency for any volume/seed,
    /// and error-free transmission matches the closed form exactly.
    #[test]
    fn algorithm1_terminates_and_matches_closed_form(volume in 0.0f64..5.0e6, seed in 0u64..200) {
        let noisy = paper_model();
        let clean = clean_model();
        let mut rng = StdRng::seed_from_u64(seed);
        let t = noisy.global_data_latency(Megabytes(volume), &mut rng);
        prop_assert!(t.0.is_finite() && t.0 >= 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let t_clean = clean.global_data_latency(Megabytes(volume), &mut rng);
        let closed_form = volume * 8.0e6 / 100.0e9;
        prop_assert!((t_clean.0 - closed_form).abs() < 1e-6);
    }

    /// Traffic-matrix accounting: incoming/outgoing sums are consistent
    /// with the total.
    #[test]
    fn traffic_sums_consistent(
        cells in proptest::collection::vec((0u16..3, 0u16..3, 0.0f64..1.0e5), 0..30),
    ) {
        let mut matrix = TrafficMatrix::new(3);
        for (from, to, vol) in cells {
            matrix.add(DcId(from), DcId(to), Megabytes(vol));
        }
        let total_in: f64 = (0..3).map(|d| matrix.incoming(DcId(d)).0).sum();
        let total_out: f64 = (0..3).map(|d| matrix.outgoing(DcId(d)).0).sum();
        prop_assert!((total_in - total_out).abs() < 1e-6);
        prop_assert!((matrix.total_inter_dc().0 - total_in).abs() < 1e-6);
        prop_assert!(matrix.max_link().0 <= total_in + 1e-6);
    }

    /// A committed migration plan never exceeds the budget it was built
    /// with, measured post-hoc at any destination.
    #[test]
    fn migration_plan_respects_budget(
        migrations in proptest::collection::vec((0u16..3, 0u16..3, 1.0f64..8.0), 1..40),
        qos in 0.9f64..0.999,
        seed in 0u64..100,
    ) {
        let model = clean_model();
        let budget = latency_constraint_for_qos(qos);
        let mut plan = MigrationPlan::new(3);
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, (from, to, gb)) in migrations.into_iter().enumerate() {
            let migration = Migration {
                vm: VmId(i as u32),
                from: DcId(from),
                to: DcId(to),
                size: Gigabytes(gb),
            };
            plan.try_add(migration, &model, budget, &mut rng);
        }
        // Error-free network: latency is deterministic — re-evaluate.
        for dest in 0..3u16 {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let latency = model.total_latency(DcId(dest), plan.volumes(), &mut rng);
            prop_assert!(latency.0 <= budget.0 + 1e-6, "dest {dest}: {latency} > {budget}");
        }
    }

    /// Response evaluation covers every DC and is non-negative.
    #[test]
    fn response_covers_all_dcs(
        cells in proptest::collection::vec((0u16..3, 0u16..3, 0.0f64..1.0e5), 0..20),
        seed in 0u64..100,
    ) {
        let model = paper_model();
        let mut traffic = TrafficMatrix::new(3);
        for (from, to, vol) in cells {
            traffic.add(DcId(from), DcId(to), Megabytes(vol));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let response = evaluate_slot(&model, &traffic, &mut rng);
        prop_assert_eq!(response.per_dc.len(), 3);
        for &(_, t) in &response.per_dc {
            prop_assert!(t.0 >= 0.0 && t.0.is_finite());
        }
        prop_assert!(response.worst().0 >= response.mean().0 - 1e-9);
    }

    /// Adding intra-DC volume increases (or keeps) the response latency
    /// but never the migration latency (Eq. 1 ignores the diagonal).
    #[test]
    fn diagonal_affects_response_not_migration(volume in 1.0f64..1.0e6) {
        let model = clean_model();
        let mut base = TrafficMatrix::new(3);
        base.add(DcId(0), DcId(1), Megabytes(1000.0));
        let mut with_diag = base.clone();
        with_diag.add(DcId(1), DcId(1), Megabytes(volume));
        let mut rng = StdRng::seed_from_u64(5);
        let t_total_base = model.total_latency(DcId(1), &base, &mut rng);
        let t_total_diag = model.total_latency(DcId(1), &with_diag, &mut rng);
        prop_assert!((t_total_base.0 - t_total_diag.0).abs() < 1e-9);
        let r_base = model.response_latency(DcId(1), &base, &mut rng);
        let r_diag = model.response_latency(DcId(1), &with_diag, &mut rng);
        prop_assert!(r_diag.0 > r_base.0);
    }

    /// QoS → budget mapping is monotone decreasing in QoS.
    #[test]
    fn qos_budget_monotone(qos_a in 0.5f64..1.0, delta in 0.0f64..0.4) {
        let qos_b = (qos_a + delta).min(1.0);
        let budget_a = latency_constraint_for_qos(qos_a);
        let budget_b = latency_constraint_for_qos(qos_b);
        prop_assert!(budget_b.0 <= budget_a.0 + 1e-12);
    }

    /// Propagation latency obeys the triangle structure of the paper
    /// sites (direct never slower than the physical lower bound).
    #[test]
    fn propagation_positive_between_distinct_sites(a in 0u16..3, b in 0u16..3) {
        let model = paper_model();
        let t = model.propagation(DcId(a), DcId(b));
        if a == b {
            prop_assert_eq!(t, Seconds(0.0));
        } else {
            prop_assert!(t.0 > 0.0);
            prop_assert!(t.0 < 0.1, "intra-Europe propagation below 100 ms");
        }
    }
}
