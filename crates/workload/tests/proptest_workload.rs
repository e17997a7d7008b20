//! Property-based tests of the workload substrate.
#![allow(clippy::field_reassign_with_default)]

use geoplace_types::time::{Tick, TimeSlot, TICKS_PER_SLOT};
use geoplace_types::{VmArena, VmId};
use geoplace_workload::arrivals::{ArrivalConfig, ArrivalProcess};
use geoplace_workload::cpucorr::{peak_coincidence, pearson, CpuCorrelationMatrix};
use geoplace_workload::datacorr::{DataCorrelation, DataCorrelationConfig};
use geoplace_workload::distributions::{Exponential, LogNormal, Normal, Poisson, WeightedChoice};
use geoplace_workload::fleet::{FleetConfig, VmFleet};
use geoplace_workload::sparsity::SparsityConfig;
use geoplace_workload::trace::{TraceKind, TraceParams, VmTrace};
use geoplace_workload::window::UtilizationWindows;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exponential_samples_are_non_negative(mean in 0.1f64..1000.0, seed in 0u64..500) {
        let d = Exponential::with_mean(mean).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn poisson_counts_are_bounded_for_small_rates(lambda in 0.0f64..20.0, seed in 0u64..500) {
        let d = Poisson::new(lambda).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let k = d.sample(&mut rng);
            // 20σ above the mean is astronomically unlikely.
            prop_assert!((f64::from(k)) < lambda + 20.0 * lambda.sqrt() + 20.0);
        }
    }

    #[test]
    fn lognormal_mean_parameterization_holds(mean in 0.5f64..100.0, variance in 0.0f64..4.0) {
        let d = LogNormal::with_arithmetic_mean(mean, variance).unwrap();
        prop_assert!((d.arithmetic_mean() - mean).abs() / mean < 1e-9);
    }

    #[test]
    fn normal_is_symmetric_under_seed_pairs(mu in -50.0f64..50.0, sigma in 0.0f64..10.0) {
        let d = Normal::new(mu, sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mean: f64 = (0..4000).map(|_| d.sample(&mut rng)).sum::<f64>() / 4000.0;
        prop_assert!((mean - mu).abs() < 1.0 + sigma / 4.0);
    }

    #[test]
    fn weighted_choice_only_returns_members(weights in proptest::collection::vec(0.01f64..10.0, 1..6), seed in 0u64..100) {
        let options: Vec<(usize, f64)> =
            weights.iter().enumerate().map(|(i, &w)| (i, w)).collect();
        let n = options.len();
        let chooser = WeightedChoice::new(options).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(*chooser.sample(&mut rng) < n);
        }
    }

    #[test]
    fn trace_utilization_always_bounded(
        seed in 0u64..5000,
        base in 0.0f64..0.9,
        amplitude in 0.0f64..0.9,
        phase in 0.0f64..24.0,
        tick in 0u64..1_000_000,
    ) {
        let trace = VmTrace::new(
            TraceParams {
                kind: TraceKind::WebServing,
                base,
                amplitude,
                phase_hours: phase,
                noise_sigma: 0.05,
                burst_duty: 0.0,
                burst_level: 0.0,
            },
            seed,
        );
        let u = trace.utilization_at(Tick(tick));
        prop_assert!((0.0..=1.0).contains(&u), "u={u}");
    }

    #[test]
    fn trace_window_matches_pointwise_samples(seed in 0u64..1000, slot in 0u32..336) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = TraceParams::sample(TraceKind::Batch, &mut rng);
        let trace = VmTrace::new(params, seed);
        let window = trace.window(TimeSlot(slot));
        prop_assert_eq!(window.len(), TICKS_PER_SLOT);
        let first_tick = TimeSlot(slot).start_tick();
        for (k, &w) in window.iter().enumerate().step_by(97) {
            let direct = trace.utilization_at(Tick(first_tick.0 + k as u64)) as f32;
            prop_assert!((w - direct).abs() < 1e-6);
        }
    }

    #[test]
    fn peak_coincidence_stays_in_unit_interval(
        a in proptest::collection::vec(0.0f32..1.0, 8..32),
    ) {
        let b: Vec<f32> = a.iter().rev().copied().collect();
        let peak_a = a.iter().copied().fold(0.0f32, f32::max);
        let peak_b = peak_a; // reversed has the same peak
        let c = peak_coincidence(&a, &b, peak_a, peak_b);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn pearson_is_symmetric_and_bounded(
        a in proptest::collection::vec(0.0f32..1.0, 16),
        b in proptest::collection::vec(0.0f32..1.0, 16),
    ) {
        let ab = pearson(&a, &b);
        let ba = pearson(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }

    #[test]
    fn fleet_active_set_matches_vm_windows(seed in 0u64..40, slots in 1u32..12) {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 6;
        config.arrivals.groups_per_slot = 1.0;
        config.arrivals.mean_lifetime_slots = 4.0;
        config.arrivals.seed = seed;
        let mut fleet = VmFleet::new(config).unwrap();
        fleet.advance_to(TimeSlot(slots));
        for &vm in fleet.active() {
            prop_assert!(fleet.vm(vm).unwrap().is_active_at(TimeSlot(slots)));
        }
        let windows = fleet.windows(TimeSlot(slots));
        prop_assert_eq!(windows.len(), fleet.active().len());
    }

    #[test]
    fn datacorr_attraction_matrix_is_negative_semidefinite_entrywise(
        groups in 1u32..6,
        size in 2u32..5,
        seed in 0u64..100,
    ) {
        let mut config = ArrivalConfig::default();
        config.initial_groups = groups;
        config.group_size_range = (size, size);
        config.seed = seed;
        let mut process = ArrivalProcess::new(config).unwrap();
        let vms = process.initial_population();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = DataCorrelation::new(DataCorrelationConfig::default());
        data.connect_arrivals(&vms, &vms, &mut rng);
        let ids: Vec<VmId> = vms.iter().map(|v| v.id()).collect();
        let matrix = data.directed_attraction_matrix(&ids);
        for &value in &matrix {
            prop_assert!((-1.0..=0.0).contains(&value), "attraction {value}");
        }
    }

    #[test]
    fn correlation_matrix_symmetric_for_any_windows(
        rows in proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, 8), 2..8),
    ) {
        let windows = UtilizationWindows::from_rows(
            rows.into_iter().enumerate().map(|(i, w)| (VmId(i as u32), w)).collect(),
        );
        let m = CpuCorrelationMatrix::compute(&windows);
        for i in 0..m.len() {
            prop_assert!((m.at(i, i) - 1.0).abs() < 1e-6);
            for j in 0..m.len() {
                prop_assert!((m.at(i, j) - m.at(j, i)).abs() < 1e-6);
                prop_assert!((0.0..=1.0).contains(&m.at(i, j)));
            }
        }
    }

    /// The sparse view keeps every dense invariant: symmetry, unit
    /// diagonal, values in (0, 1] — and every retained edge carries the
    /// exact dense weight.
    #[test]
    fn sparse_correlation_invariants_hold(
        rows in proptest::collection::vec(proptest::collection::vec(0.02f32..1.0, 16), 3..16),
        top_k in 1usize..6,
        peak_buckets in 2usize..10,
        candidates in 6usize..24,
    ) {
        let windows = UtilizationWindows::from_rows(
            rows.into_iter().enumerate().map(|(i, w)| (VmId(i as u32 * 3), w)).collect(),
        );
        let dense = CpuCorrelationMatrix::compute(&windows);
        let config = SparsityConfig {
            top_k,
            peak_buckets,
            candidates_per_vm: candidates,
            baseline_samples: 256,
            ..SparsityConfig::default()
        };
        let sparse = CpuCorrelationMatrix::compute_sparse(&windows, &config);
        let n = sparse.len();
        prop_assert!(sparse.is_sparse());
        prop_assert!(sparse.baseline() > 0.0 && sparse.baseline() <= 1.0);
        for i in 0..n {
            prop_assert!((sparse.at(i, i) - 1.0).abs() < 1e-6);
            prop_assert!(sparse.neighbors(i).len() <= top_k);
            for j in 0..n {
                let v = sparse.at(i, j);
                prop_assert!(v > 0.0 && v <= 1.0, "({i},{j}) = {v}");
                prop_assert!((v - sparse.at(j, i)).abs() < 1e-9, "asymmetric at ({i},{j})");
            }
            for &(j, w) in sparse.neighbors(i) {
                prop_assert!(
                    (w - dense.at(i, j as usize)).abs() < 1e-6,
                    "retained edge ({i},{j}) disagrees with dense: {w} vs {}",
                    dense.at(i, j as usize)
                );
            }
        }
    }

    /// Fleets smaller than the retention budget (`n < top_k`): every
    /// pair survives into the retained lists, the far-field debias is
    /// degenerate (no pair is outside the graph), and the baseline must
    /// still be a finite value in (0, 1] — the regression guard for the
    /// garbage-baseline `else` branch of the sparse build.
    #[test]
    fn sparse_baseline_is_sane_when_topk_exceeds_fleet(
        rows in proptest::collection::vec(proptest::collection::vec(0.02f32..1.0, 12), 2..8),
        top_k in 8usize..40,
        baseline_samples in 1usize..64,
    ) {
        let n = rows.len();
        prop_assert!(n < top_k);
        let windows = UtilizationWindows::from_rows(
            rows.into_iter().enumerate().map(|(i, w)| (VmId(i as u32), w)).collect(),
        );
        let config = SparsityConfig {
            top_k,
            candidates_per_vm: top_k,
            peak_buckets: 4,
            baseline_samples,
            ..SparsityConfig::default()
        };
        let sparse = CpuCorrelationMatrix::compute_sparse(&windows, &config);
        let baseline = sparse.baseline();
        prop_assert!(
            baseline.is_finite() && baseline > 0.0 && baseline <= 1.0,
            "n={n} top_k={top_k}: degenerate baseline {baseline}"
        );
        // Every retained row holds the full fleet, and the view stays a
        // valid correlation everywhere.
        for i in 0..n {
            prop_assert_eq!(sparse.neighbors(i).len(), n - 1, "row {} incomplete", i);
            for j in 0..n {
                let v = sparse.at(i, j);
                prop_assert!(v.is_finite() && v > 0.0 && v <= 1.0, "({},{}) = {}", i, j, v);
            }
        }
    }

    /// With the candidate budget covering the whole fleet and k ≥ n−1,
    /// the sparse graph degenerates to the dense matrix exactly.
    #[test]
    fn sparse_with_full_budget_equals_dense(
        rows in proptest::collection::vec(proptest::collection::vec(0.02f32..1.0, 12), 2..10),
    ) {
        let n = rows.len();
        let windows = UtilizationWindows::from_rows(
            rows.into_iter().enumerate().map(|(i, w)| (VmId(i as u32), w)).collect(),
        );
        let dense = CpuCorrelationMatrix::compute(&windows);
        let config = SparsityConfig {
            top_k: n,
            candidates_per_vm: n * n,
            peak_buckets: 4,
            baseline_samples: 64,
            ..SparsityConfig::default()
        };
        let sparse = CpuCorrelationMatrix::compute_sparse(&windows, &config);
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    (sparse.at(i, j) - dense.at(i, j)).abs() < 1e-6,
                    "({i},{j}): {} vs {}", sparse.at(i, j), dense.at(i, j)
                );
            }
        }
    }

    /// The arena-indexed traffic CSR agrees with the dense directed
    /// attraction matrix on every stored edge, and rows never reference
    /// VMs outside the arena.
    #[test]
    fn traffic_graph_agrees_with_dense_attraction(
        groups in 1u32..6,
        size in 2u32..5,
        seed in 0u64..100,
    ) {
        let mut config = ArrivalConfig::default();
        config.initial_groups = groups;
        config.group_size_range = (size, size);
        config.seed = seed;
        let mut process = ArrivalProcess::new(config).unwrap();
        let vms = process.initial_population();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = DataCorrelation::new(DataCorrelationConfig::default());
        data.connect_arrivals(&vms, &vms, &mut rng);
        let ids: Vec<VmId> = vms.iter().map(|v| v.id()).collect();
        let arena = VmArena::from_ids(&ids);
        let graph = data.traffic_graph(&arena);
        let n = ids.len();
        let dense = data.directed_attraction_matrix(&ids);
        prop_assert_eq!(graph.edge_count(), data.pair_count() * 2);
        for i in 0..n {
            for edge in graph.row(i) {
                let j = edge.target as usize;
                prop_assert!(j < n);
                prop_assert!(
                    (graph.attraction_in(edge) - dense[j * n + i]).abs() < 1e-12,
                    "edge ({i},{j})"
                );
            }
        }
    }

    /// Flash-crowd bursts never exceed their configured peak concurrency:
    /// at every slot, the count of concurrently active burst-spawned VMs
    /// stays within `peak_vms`, whatever the rate, lifetime or window.
    #[test]
    fn burst_concurrency_never_exceeds_peak(
        seed in 0u64..200,
        rate in 0.5f64..15.0,
        lifetime in 0.5f64..8.0,
        start in 1u32..6,
        duration in 1u32..12,
        peak in 1u32..40,
    ) {
        let mut config = ArrivalConfig::default();
        config.seed = seed;
        config.groups_per_slot = 0.0; // all post-slot-0 arrivals are burst VMs
        config.initial_groups = 0;
        config.bursts = vec![geoplace_workload::arrivals::BurstConfig {
            start_slot: start,
            duration_slots: duration,
            groups_per_slot: rate,
            mean_lifetime_slots: lifetime,
            peak_vms: peak,
        }];
        let mut process = ArrivalProcess::new(config).unwrap();
        let mut spawned = Vec::new();
        for s in 1..=(start + duration + 4) {
            spawned.extend(process.arrivals_for(TimeSlot(s)));
        }
        let horizon = spawned.iter().map(|vm| vm.departure().0).max().unwrap_or(0);
        for s in 0..=horizon {
            let active = spawned.iter().filter(|vm| vm.is_active_at(TimeSlot(s))).count();
            prop_assert!(
                active as u32 <= peak,
                "slot {s}: {active} active burst VMs > peak {peak}"
            );
        }
    }

    /// Heterogeneous fleet mixes apportion any total into per-class
    /// counts that sum to the requested VM count exactly, with every
    /// class within one seat of its exact proportional quota.
    #[test]
    fn fleet_mix_apportion_sums_exactly(
        weights in proptest::collection::vec(0.0f64..10.0, 1..7),
        total in 0u32..5000,
    ) {
        use geoplace_workload::mix::{FleetMix, VmClass};
        // Guarantee at least one positive weight so the mix validates.
        let mut weights = weights;
        if weights.iter().all(|w| *w == 0.0) {
            weights[0] = 1.0;
        }
        let mix = FleetMix {
            classes: weights
                .iter()
                .map(|&w| VmClass { kind: TraceKind::Batch, memory_gb: 4.0, weight: w })
                .collect(),
        };
        prop_assert!(mix.validate().is_ok());
        let counts = mix.apportion(total);
        prop_assert_eq!(counts.len(), weights.len());
        prop_assert_eq!(counts.iter().sum::<u32>(), total);
        let weight_sum: f64 = weights.iter().sum();
        for (count, weight) in counts.iter().zip(&weights) {
            let quota = f64::from(total) * weight / weight_sum;
            prop_assert!(
                (f64::from(*count) - quota).abs() < 1.0 + 1e-9,
                "count {count} vs quota {quota}"
            );
        }
    }

    /// The fleet's active id list stays strictly sorted (and duplicate
    /// free) through arbitrary arrival/departure sequences — the engine's
    /// `assignment.retain` binary-searches it, and the whole incremental
    /// pipeline assumes id-ordered structures.
    #[test]
    fn active_set_stays_sorted_under_arbitrary_churn(
        seed in 0u64..500,
        initial_groups in 0u32..20,
        groups_per_slot in 0.0f64..6.0,
        mean_lifetime in 1.0f64..10.0,
        advances in proptest::collection::vec(1u32..4, 1..12),
    ) {
        let mut config = FleetConfig::default();
        config.arrivals.seed = seed;
        config.arrivals.initial_groups = initial_groups;
        config.arrivals.groups_per_slot = groups_per_slot;
        config.arrivals.mean_lifetime_slots = mean_lifetime;
        let mut fleet = VmFleet::new(config).unwrap();
        let mut slot = 0u32;
        prop_assert!(fleet.active().windows(2).all(|p| p[0] < p[1]));
        for step in advances {
            slot += step;
            let delta = fleet.advance_to(TimeSlot(slot));
            prop_assert!(
                fleet.active().windows(2).all(|p| p[0] < p[1]),
                "active set unsorted after advancing to slot {slot}"
            );
            // Departed ids must be gone, arrived ids present (unless they
            // already departed again within a multi-boundary advance).
            for gone in &delta.departed {
                prop_assert!(fleet.active().binary_search(gone).is_err());
            }
            for vm in &delta.arrived {
                let still_active = fleet.vm(*vm).unwrap().is_active_at(TimeSlot(slot));
                prop_assert_eq!(fleet.active().binary_search(vm).is_ok(), still_active);
            }
        }
    }

    /// One traffic graph refilled across churn (multi-boundary jumps,
    /// and an arena that shrinks to nothing) equals a fresh build every
    /// time, and every row holds exactly its VM's in-arena pairs with the
    /// map's directed rates, sorted by neighbor id.
    #[test]
    fn traffic_graph_refill_equals_fresh_build_under_churn(
        seed in 0u64..300,
        initial_groups in 1u32..16,
        groups_per_slot in 0.0f64..5.0,
        mean_lifetime in 1.0f64..8.0,
        jumps in proptest::collection::vec(1u32..4, 1..8),
    ) {
        use geoplace_workload::graph::TrafficGraph;
        let mut config = FleetConfig::default();
        config.arrivals.seed = seed;
        config.arrivals.initial_groups = initial_groups;
        config.arrivals.groups_per_slot = groups_per_slot;
        config.arrivals.mean_lifetime_slots = mean_lifetime;
        let mut fleet = VmFleet::new(config).unwrap();
        let mut graph = TrafficGraph::default();
        let mut slot = 0u32;
        for jump in jumps {
            slot += jump;
            fleet.advance_to(TimeSlot(slot));
            let data = fleet.data_correlation();
            for arena in [VmArena::from_ids(fleet.active()), VmArena::default()] {
                graph.refill(data, &arena);
                prop_assert_eq!(&graph, &data.traffic_graph(&arena), "slot {}", slot);
                let in_arena = data
                    .iter()
                    .filter(|&(lo, hi, _)| arena.contains(lo) && arena.contains(hi))
                    .count();
                prop_assert_eq!(graph.edge_count(), in_arena * 2);
                for i in 0..graph.len() {
                    let vm = arena.id(i as u32);
                    let row = graph.row(i);
                    for pair in row.windows(2) {
                        prop_assert!(arena.id(pair[0].target) < arena.id(pair[1].target));
                    }
                    for edge in row {
                        prop_assert_eq!(
                            data.directed_rates(vm, arena.id(edge.target)),
                            Some((edge.out_rate, edge.in_rate))
                        );
                    }
                }
            }
        }
    }
}
