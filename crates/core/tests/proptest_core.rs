//! Property-based tests of the placement algorithms.

use geoplace_core::force::{ForceLayout, ForceLayoutConfig, Point};
use geoplace_core::kmeans::kmeans;
use geoplace_core::local::{allocate, LocalAllocConfig};
use geoplace_core::migrate::{revise_migrations, VmPlacementInput};
use geoplace_core::testutil::SnapshotFixture;
use geoplace_network::ber::BerDistribution;
use geoplace_network::latency::LatencyModel;
use geoplace_network::topology::Topology;
use geoplace_types::units::{Gigabytes, Joules, Seconds};
use geoplace_types::{DcId, Exec, VmArena, VmId};
use geoplace_workload::cpucorr::CpuCorrelationMatrix;
use geoplace_workload::datacorr::{DataCorrelation, DataCorrelationConfig};
use geoplace_workload::window::UtilizationWindows;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The force layout produces finite coordinates for any windows.
    #[test]
    fn force_layout_finite_for_any_windows(
        rows in proptest::collection::vec(proptest::collection::vec(0.02f32..1.0, 12), 2..12),
        alpha in 0.0f64..1.0,
        seed in 0u64..50,
    ) {
        let windows = UtilizationWindows::from_rows(
            rows.into_iter().enumerate().map(|(i, w)| (VmId(i as u32), w)).collect(),
        );
        let cpu = CpuCorrelationMatrix::compute(&windows);
        let data = DataCorrelation::new(DataCorrelationConfig::default());
        let arena = VmArena::from_ids(windows.ids());
        let traffic = data.traffic_graph(&arena);
        let config = ForceLayoutConfig { alpha, ..ForceLayoutConfig::default() };
        let mut layout = ForceLayout::new(config, seed);
        let points = layout.update(&arena, &cpu, &traffic, Exec::serial()).to_vec();
        for p in &points {
            prop_assert!(p.x.is_finite() && p.y.is_finite());
        }
        prop_assert!(layout.last_iterations() <= layout.config().max_iterations);
    }

    /// k-means always returns a complete assignment, and cluster loads
    /// never exceed caps when a feasible packing exists (uniform loads,
    /// generous caps).
    #[test]
    fn kmeans_complete_and_capped(
        points in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..40),
        k in 1usize..4,
    ) {
        let points: Vec<Point> = points.into_iter().map(|(x, y)| Point { x, y }).collect();
        let n = points.len();
        let loads = vec![Joules(1.0); n];
        // Generous caps: everything fits with slack.
        let caps = vec![Joules(n as f64 + 1.0); k];
        let result = kmeans(&points, &loads, &caps, None, Exec::serial());
        prop_assert_eq!(result.assignment.len(), n);
        for &c in &result.assignment {
            prop_assert!(c < k);
        }
        for load in &result.cluster_load {
            prop_assert!(load.0 <= n as f64 + 1.0 + 1e-9);
        }
        let total: f64 = result.cluster_load.iter().map(|l| l.0).sum();
        prop_assert!((total - n as f64).abs() < 1e-9);
    }

    /// The local allocator places every VM exactly once and never opens
    /// more servers than allowed.
    #[test]
    fn local_allocation_complete(
        utils in proptest::collection::vec(0.05f32..1.0, 1..24),
        max_servers in 1u32..30,
    ) {
        let n = utils.len();
        let rows: Vec<(u32, Vec<f32>)> = utils
            .iter()
            .enumerate()
            .map(|(i, &u)| (i as u32, vec![u; 8]))
            .collect();
        let fixture = SnapshotFixture::new(rows, vec![2; n]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let positions: Vec<usize> = (0..n).collect();
        let out = allocate(&positions, &snapshot, &model, max_servers, LocalAllocConfig::default());
        prop_assert!(out.len() <= max_servers as usize);
        let mut seen = std::collections::HashSet::new();
        for server in &out {
            for vm in &server.vms {
                prop_assert!(seen.insert(*vm), "{vm} placed twice");
            }
        }
        prop_assert_eq!(seen.len(), n);
    }

    /// Migration revision places every VM, and with an error-free network
    /// the committed plan verifies against the budget post-hoc.
    #[test]
    fn migration_revision_sound(
        spec in proptest::collection::vec((0u16..3, 0u16..3, 0.5f64..4.0, any::<bool>()), 1..30),
        budget_s in 0.0f64..200.0,
        seed in 0u64..50,
    ) {
        let latency = LatencyModel::new(
            Topology::paper_default().unwrap(),
            BerDistribution::error_free(),
        );
        let centroids = vec![
            Point { x: 0.0, y: 0.0 },
            Point { x: 10.0, y: 0.0 },
            Point { x: 0.0, y: 10.0 },
        ];
        let vms: Vec<VmPlacementInput> = spec
            .iter()
            .enumerate()
            .map(|(i, &(prev, target, load, is_new))| VmPlacementInput {
                vm: VmId(i as u32),
                prev: if is_new { None } else { Some(DcId(prev)) },
                target: DcId(target),
                position: Point { x: f64::from(i as u32 % 13), y: f64::from(i as u32 % 7) },
                load: Joules(load),
                size: Gigabytes(2.0),
            })
            .collect();
        let caps = vec![Joules(20.0); 3];
        let mut rng = StdRng::seed_from_u64(seed);
        let result = revise_migrations(&vms, &centroids, &caps, &latency, Seconds(budget_s), &mut rng);
        // Everyone placed.
        for vm in &vms {
            prop_assert!(result.dc_of.contains_key(&vm.vm));
        }
        // Existing VMs either stayed or appear in the plan.
        for vm in &vms {
            if let Some(prev) = vm.prev {
                let now = result.dc_of[&vm.vm];
                if now != prev {
                    prop_assert!(
                        result.plan.migrations().iter().any(|m| m.vm == vm.vm),
                        "{} moved without a plan entry", vm.vm
                    );
                }
            }
        }
        // Post-hoc budget check (deterministic network).
        for dest in 0..3u16 {
            let mut rng = StdRng::seed_from_u64(seed + 99);
            let t = latency.total_latency(DcId(dest), result.plan.volumes(), &mut rng);
            prop_assert!(t.0 <= budget_s + 1e-6);
        }
    }

    /// Warm-started k-means with unchanged inputs is stable: assignments
    /// do not change when re-run from its own centroids.
    #[test]
    fn kmeans_warm_start_stable(
        points in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..24),
    ) {
        let points: Vec<Point> = points.into_iter().map(|(x, y)| Point { x, y }).collect();
        let loads = vec![Joules(1.0); points.len()];
        let caps = vec![Joules(points.len() as f64 + 1.0); 3];
        let first = kmeans(&points, &loads, &caps, None, Exec::serial());
        let second = kmeans(&points, &loads, &caps, Some(&first.centroids), Exec::serial());
        prop_assert_eq!(first.assignment, second.assignment);
    }
}
