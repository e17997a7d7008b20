//! The assembled two-phase multi-objective placement policy — the paper's
//! contribution.
//!
//! Per slot:
//!
//! 1. **Force layout** (Eq. 5–7): CPU-load repulsion vs. data-correlation
//!    attraction positions every VM in the 2D plane (warm-started from the
//!    previous slot).
//! 2. **Capacity caps**: per-DC energy budgets from battery, PV forecast,
//!    grid price and the last-value demand predictor.
//! 3. **Modified k-means**: capacity-capped clustering of the plane into
//!    one cluster per DC, warm-started from the previous centroids.
//! 4. **Migration revision** (Algorithm 2): turns the desired clustering
//!    into latency-feasible migrations; infeasible movers stay put.
//! 5. **Local phase**: correlation-aware FFD packs each DC's VMs onto the
//!    minimum number of servers and picks per-server DVFS levels.

use crate::caps::{compute_caps, CapsConfig};
use crate::force::{ForceLayout, ForceLayoutConfig, Point};
use crate::kmeans::kmeans;
use crate::local::{allocate, LocalAllocConfig};
use crate::migrate::{revise_migrations, VmPlacementInput};
use geoplace_dcsim::decision::PlacementDecision;
use geoplace_dcsim::policy::GlobalPolicy;
use geoplace_dcsim::snapshot::SystemSnapshot;
use geoplace_types::snap::{SnapReader, SnapWriter};
use geoplace_types::units::Joules;
use geoplace_types::{DcId, Error, Result, VmId};
use geoplace_workload::cpucorr::{CorrelationMetric, CpuCorrelationMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Tuning of the full pipeline.
///
/// # Examples
///
/// ```
/// use geoplace_core::ProposedConfig;
/// let mut config = ProposedConfig::default();
/// config.alpha = 0.7; // favour performance (attraction) over energy
/// assert!(config.alpha > 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProposedConfig {
    /// Energy/performance weighting factor α of Eq. 5.
    pub alpha: f64,
    /// Force-layout iteration cap.
    pub max_force_iterations: usize,
    /// Capacity-cap tuning.
    pub caps: CapsConfig,
    /// Local-allocation tuning.
    pub local: LocalAllocConfig,
    /// Seed for the policy's internal randomness (BER draws during
    /// migration checks).
    pub seed: u64,
    /// Pairwise statistic behind the repulsion force. The engine supplies
    /// the paper's peak-coincidence matrix; selecting
    /// [`CorrelationMetric::Pearson`] makes the policy recompute the
    /// matrix from the observed windows (comparison variant).
    pub repulsion_metric: CorrelationMetric,
}

impl Default for ProposedConfig {
    fn default() -> Self {
        ProposedConfig {
            alpha: 0.5,
            max_force_iterations: 50,
            caps: CapsConfig::default(),
            local: LocalAllocConfig::default(),
            seed: 0xC0FFEE,
            repulsion_metric: CorrelationMetric::PeakCoincidence,
        }
    }
}

/// The paper's two-phase multi-objective VM placement policy.
///
/// Its kernels (force accumulation, k-means distances, the per-DC
/// packing fan-out) run on the engine's thread budget, the
/// [`SystemSnapshot::exec`] of each slot.
///
/// # Examples
///
/// ```
/// use geoplace_core::{ProposedConfig, ProposedPolicy};
/// use geoplace_dcsim::config::ScenarioConfig;
/// use geoplace_dcsim::engine::{Scenario, Simulator};
///
/// let mut config = ScenarioConfig::scaled(5);
/// config.horizon_slots = 2;
/// let mut policy = ProposedPolicy::new(ProposedConfig::default());
/// let report = Simulator::new(Scenario::build(&config)?).run(&mut policy);
/// assert_eq!(report.policy, "Proposed");
/// # Ok::<(), geoplace_types::Error>(())
/// ```
#[derive(Debug)]
pub struct ProposedPolicy {
    config: ProposedConfig,
    layout: ForceLayout,
    prev_centroids: Option<Vec<Point>>,
    rng: StdRng,
    /// Per-slot VM energy estimates, refilled in place every decide —
    /// the policy allocates nothing proportional to the fleet in the
    /// steady state.
    loads: Vec<Joules>,
    /// Migration-revision inputs, refilled in place every decide.
    inputs: Vec<VmPlacementInput>,
}

impl ProposedPolicy {
    /// Creates the policy.
    pub fn new(config: ProposedConfig) -> Self {
        let layout_config = ForceLayoutConfig {
            alpha: config.alpha,
            max_iterations: config.max_force_iterations,
            ..ForceLayoutConfig::default()
        };
        ProposedPolicy {
            layout: ForceLayout::new(layout_config, config.seed),
            rng: StdRng::seed_from_u64(config.seed ^ 0x9E37),
            prev_centroids: None,
            config,
            loads: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &ProposedConfig {
        &self.config
    }

    /// Iterations used by the most recent force-layout run (diagnostic).
    pub fn last_force_iterations(&self) -> usize {
        self.layout.last_iterations()
    }
}

impl GlobalPolicy for ProposedPolicy {
    fn name(&self) -> &'static str {
        "Proposed"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let ids = snapshot.vm_ids();
        let n = ids.len();
        let n_dcs = snapshot.dc_count();
        let exec = snapshot.exec;
        let mut decision = PlacementDecision::new(n_dcs);
        if n == 0 {
            return decision;
        }

        // Phase 1, step 1: attraction/repulsion layout over the arena.
        let points = match self.config.repulsion_metric {
            CorrelationMetric::PeakCoincidence => {
                self.layout
                    .update(snapshot.arena, snapshot.cpu_corr, snapshot.traffic, exec)
            }
            CorrelationMetric::Pearson if snapshot.cpu_corr.is_degenerate() => {
                // The bootstrap observation is all-zero: no metric is
                // computable from it, so both ablation arms share the
                // canonical degenerate matrix — recomputing Pearson over
                // zero windows would hand the layout a structurally
                // different (and representation-dependent) input.
                self.layout
                    .update(snapshot.arena, snapshot.cpu_corr, snapshot.traffic, exec)
            }
            CorrelationMetric::Pearson => {
                // Mirror the engine's dense/sparse choice so the ablation
                // compares metrics, not representations.
                let pearson = match snapshot.cpu_corr.sparsity() {
                    Some(sparsity) => CpuCorrelationMatrix::compute_sparse_exec(
                        snapshot.windows,
                        CorrelationMetric::Pearson,
                        sparsity,
                        exec,
                    ),
                    None => CpuCorrelationMatrix::compute_exec(
                        snapshot.windows,
                        CorrelationMetric::Pearson,
                        exec,
                    ),
                };
                self.layout
                    .update(snapshot.arena, &pearson, snapshot.traffic, exec)
            }
        };

        // Step 2: capacity caps + capacity-capped k-means.
        let caps = compute_caps(snapshot.dcs, self.config.caps);
        self.loads.clear();
        self.loads
            .extend((0..n).map(|i| snapshot.vm_slot_energy(i)));
        // Normalize the VM loads so they sum to the fleet's last-value
        // total energy — the caps partition that total, and without this
        // the dynamic-only VM energies are a fraction of it, the caps
        // never bind, and k-means degenerates to plain nearest-centroid
        // (losing all price/renewable awareness).
        let reference: f64 = snapshot.dcs.iter().map(|d| d.last_total_energy.0).sum();
        let raw_total: f64 = self.loads.iter().map(|l| l.0).sum();
        if reference > 0.0 && raw_total > 0.0 {
            let scale = reference / raw_total;
            for load in &mut self.loads {
                *load = *load * scale;
            }
        }
        let loads = &self.loads;
        let clustering = kmeans(points, loads, &caps, self.prev_centroids.as_deref(), exec);
        self.prev_centroids = Some(clustering.centroids.clone());

        // Step 3: migration revision under the latency constraint.
        self.inputs.clear();
        self.inputs.extend((0..n).map(|i| VmPlacementInput {
            vm: ids[i],
            prev: snapshot.prev_dc.get(&ids[i]).copied(),
            target: DcId(clustering.assignment[i] as u16),
            position: points[i],
            load: loads[i],
            size: snapshot.vm_memory[i],
        }));
        let revised = revise_migrations(
            &self.inputs,
            &clustering.centroids,
            &caps,
            snapshot.latency,
            snapshot.migration_budget,
            &mut self.rng,
        );

        // Phase 2: correlation-aware local allocation, one DC per worker
        // (chunk = one DC: each packing is an independent pure function
        // of its member set, collected back in DC order).
        let local_config = self.config.local;
        let revised_ref = &revised;
        let per_dc = exec.map_chunks_sized(n_dcs, 1, |range| {
            range
                .map(|dc_index| {
                    let dc = DcId(dc_index as u16);
                    let members: Vec<usize> = (0..n)
                        .filter(|&i| revised_ref.dc_of[&ids[i]] == dc)
                        .collect();
                    allocate(
                        &members,
                        snapshot,
                        &snapshot.dcs[dc_index].power_model,
                        snapshot.dcs[dc_index].servers,
                        local_config,
                    )
                })
                .collect::<Vec<_>>()
        });
        for (dc_index, assignments) in per_dc.into_iter().flatten().enumerate() {
            let dc = DcId(dc_index as u16);
            for assignment in assignments {
                decision.push(dc, assignment);
            }
        }
        decision
    }

    /// Serializes the warm-start state `decide` carries across slots: the
    /// migration-check RNG, the previous k-means centroids, and the force
    /// layout's VM positions. `loads`/`inputs` are per-decide scratch,
    /// rebuilt rather than saved.
    fn save_state(&self, w: &mut SnapWriter) {
        for word in self.rng.state() {
            w.write_u64(word);
        }
        match &self.prev_centroids {
            None => w.write_bool(false),
            Some(centroids) => {
                w.write_bool(true);
                w.write_u32(centroids.len() as u32);
                for c in centroids {
                    w.write_f64(c.x);
                    w.write_f64(c.y);
                }
            }
        }
        let count = self.layout.positions().count();
        w.write_u32(count as u32);
        for (vm, p) in self.layout.positions() {
            w.write_u32(vm.0);
            w.write_f64(p.x);
            w.write_f64(p.y);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<()> {
        let state = [r.read_u64()?, r.read_u64()?, r.read_u64()?, r.read_u64()?];
        let prev_centroids = if r.read_bool()? {
            let count = r.read_u32()? as usize;
            let mut centroids = Vec::with_capacity(count);
            for _ in 0..count {
                centroids.push(Point {
                    x: r.read_f64()?,
                    y: r.read_f64()?,
                });
            }
            Some(centroids)
        } else {
            None
        };
        let count = r.read_u32()? as usize;
        let mut positions = std::collections::BTreeMap::new();
        let mut last: Option<u32> = None;
        for _ in 0..count {
            let at = r.offset();
            let vm = r.read_u32()?;
            if last.is_some_and(|prev| prev >= vm) {
                return Err(Error::snapshot(
                    "policy",
                    at,
                    format!(
                        "layout position ids must be strictly increasing, got {vm} after {last:?}"
                    ),
                ));
            }
            last = Some(vm);
            let x = r.read_f64()?;
            let y = r.read_f64()?;
            positions.insert(VmId(vm), Point { x, y });
        }
        self.rng = StdRng::from_state(state);
        self.prev_centroids = prev_centroids;
        self.layout.set_positions(positions);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::SnapshotFixture;
    use geoplace_types::VmId;
    use geoplace_workload::datacorr::{DataCorrelation, DataCorrelationConfig};

    fn diurnal(phase: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|t| {
                let x = (t + phase) % len;
                0.15 + 0.7 * (-((x as f32 - len as f32 / 2.0).powi(2)) / 18.0).exp()
            })
            .collect()
    }

    fn fixture(n: usize) -> SnapshotFixture {
        let rows: Vec<(u32, Vec<f32>)> = (0..n as u32)
            .map(|i| (i, diurnal((i as usize * 7) % 24, 24)))
            .collect();
        SnapshotFixture::new(rows, vec![2; n])
    }

    #[test]
    fn decision_covers_every_vm() {
        let fixture = fixture(24);
        let snapshot = fixture.snapshot();
        let mut policy = ProposedPolicy::new(ProposedConfig::default());
        let decision = policy.decide(&snapshot);
        let active: Vec<VmId> = snapshot.vm_ids().to_vec();
        decision
            .validate(&active, &[50, 50, 50], &[2, 2, 2])
            .expect("proposed decision must be structurally valid");
    }

    #[test]
    fn empty_fleet_produces_empty_decision() {
        let fixture = SnapshotFixture::new(vec![], vec![]);
        let snapshot = fixture.snapshot();
        let mut policy = ProposedPolicy::new(ProposedConfig::default());
        let decision = policy.decide(&snapshot);
        assert_eq!(decision.vm_count(), 0);
    }

    #[test]
    fn policy_is_deterministic() {
        let run = || {
            let fixture = fixture(16);
            let snapshot = fixture.snapshot();
            let mut policy = ProposedPolicy::new(ProposedConfig::default());
            policy.decide(&snapshot)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pearson_ablation_shares_the_bootstrap_matrix() {
        // Slot 0 hands the policy the canonical degenerate matrix; the
        // Pearson arm must consume it as-is instead of recomputing over
        // the zero observation (which would reintroduce representation
        // dependence). End-to-end: the ablation variant runs through the
        // engine bootstrap, and at slot 0 both metric arms make the same
        // decision — zero information admits no metric difference.
        use geoplace_dcsim::config::ScenarioConfig;
        use geoplace_dcsim::engine::{Scenario, Simulator};
        let mut config = ScenarioConfig::scaled(7);
        config.horizon_slots = 1;
        let run = |metric: CorrelationMetric| {
            let mut policy = ProposedPolicy::new(ProposedConfig {
                repulsion_metric: metric,
                ..ProposedConfig::default()
            });
            Simulator::new(Scenario::build(&config).unwrap()).run(&mut policy)
        };
        let peak = run(CorrelationMetric::PeakCoincidence);
        let pearson = run(CorrelationMetric::Pearson);
        assert_eq!(peak.hourly.len(), 1);
        assert_eq!(
            peak.digest(),
            pearson.digest(),
            "the slot-0 bootstrap decision must be metric-independent"
        );
    }

    #[test]
    fn migrations_respect_prev_assignment_when_budget_zero() {
        let fixture = fixture(12).with_prev(&[(0, 0), (1, 0), (2, 1), (3, 2)]);
        let mut snapshot = fixture.snapshot();
        snapshot.migration_budget = geoplace_types::units::Seconds(0.0);
        let mut policy = ProposedPolicy::new(ProposedConfig::default());
        let decision = policy.decide(&snapshot);
        let dc_of = decision.dc_of();
        // With a zero budget no existing VM may move.
        assert_eq!(dc_of[&VmId(0)], geoplace_types::DcId(0));
        assert_eq!(dc_of[&VmId(1)], geoplace_types::DcId(0));
        assert_eq!(dc_of[&VmId(2)], geoplace_types::DcId(1));
        assert_eq!(dc_of[&VmId(3)], geoplace_types::DcId(2));
    }

    #[test]
    fn heavy_data_pairs_colocate() {
        // 6 VMs, pair (0,1) exchanges heavy traffic; flat CPU loads.
        let rows: Vec<(u32, Vec<f32>)> = (0..6u32)
            .map(|i| (i, vec![0.3 + 0.01 * i as f32; 24]))
            .collect();
        let mut data = DataCorrelation::new(DataCorrelationConfig {
            cross_links_per_vm: 0,
        });
        // Fabricate traffic through a fleet-independent route: connect via
        // public API by abusing connect_arrivals with two fake specs is
        // heavy; instead use attraction through many evolve steps — not
        // needed: simply rely on the force layout pulling talkers together
        // via directed_attraction_matrix, which reads pairs created by
        // connect_arrivals. Build two one-group specs:
        let mut fleet_config = geoplace_workload::fleet::FleetConfig::default();
        fleet_config.arrivals.initial_groups = 1;
        fleet_config.arrivals.group_size_range = (2, 2);
        fleet_config.arrivals.seed = 1;
        let fleet = geoplace_workload::fleet::VmFleet::new(fleet_config).unwrap();
        let specs: Vec<_> = [VmId(0), VmId(1)]
            .iter()
            .map(|&v| fleet.vm(v).unwrap().clone())
            .collect();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        data.connect_arrivals(&specs, &specs, &mut rng);

        let fixture = SnapshotFixture::new(rows, vec![2; 6]).with_data(data);
        let snapshot = fixture.snapshot();
        let mut policy = ProposedPolicy::new(ProposedConfig {
            alpha: 0.9, // strongly favour attraction
            ..ProposedConfig::default()
        });
        let decision = policy.decide(&snapshot);
        let dc_of = decision.dc_of();
        assert_eq!(
            dc_of[&VmId(0)],
            dc_of[&VmId(1)],
            "heavily communicating pair should land in the same DC"
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_for_proposed() {
        // The full warm-start surface (layout positions, centroids, RNG)
        // round-trips through the codec: resuming at slot 3 reproduces
        // the uninterrupted 6-slot digest, under both repulsion metrics —
        // the Pearson arm recomputes its matrix from the first
        // observation after the restore, as it does every slot.
        use geoplace_dcsim::checkpoint::{checkpoint_with_policy, restore_with_policy};
        use geoplace_dcsim::config::ScenarioConfig;
        use geoplace_dcsim::engine::{Scenario, Simulator};
        use geoplace_dcsim::stepper::SlotStepper;
        use geoplace_types::snap::Checkpoint;
        use geoplace_workload::source::SyntheticSource;
        for metric in [
            CorrelationMetric::PeakCoincidence,
            CorrelationMetric::Pearson,
        ] {
            let mut config = ScenarioConfig::scaled(9);
            config.horizon_slots = 6;
            let policy_config = ProposedConfig {
                repulsion_metric: metric,
                ..ProposedConfig::default()
            };
            let reference = Simulator::new(Scenario::build(&config).unwrap())
                .run(&mut ProposedPolicy::new(policy_config));
            let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
            let mut policy = ProposedPolicy::new(policy_config);
            let mut source = SyntheticSource;
            for _ in 0..3 {
                stepper.advance_world(&mut source).unwrap();
                let d = policy.decide(&stepper.observe());
                stepper.apply(d).unwrap();
            }
            let ck = checkpoint_with_policy(&stepper, &policy).unwrap();
            let ck = Checkpoint::decode(&ck.encode()).unwrap();
            let mut resumed = SlotStepper::new(Scenario::build(&config).unwrap());
            let mut fresh = ProposedPolicy::new(policy_config);
            restore_with_policy(&mut resumed, &mut fresh, &ck).unwrap();
            while !resumed.is_done() {
                resumed.advance_world(&mut source).unwrap();
                let d = fresh.decide(&resumed.observe());
                resumed.apply(d).unwrap();
            }
            let report = resumed.into_report(fresh.name());
            assert_eq!(report.digest(), reference.digest(), "{metric:?}");
            assert_eq!(report, reference, "{metric:?}");
        }
    }

    #[test]
    fn respects_server_limits() {
        // 40 heavy VMs on 3 DCs × 50 servers: decision must stay in range.
        let rows: Vec<(u32, Vec<f32>)> = (0..40u32).map(|i| (i, vec![0.9; 24])).collect();
        let fixture = SnapshotFixture::new(rows, vec![8; 40]);
        let snapshot = fixture.snapshot();
        let mut policy = ProposedPolicy::new(ProposedConfig::default());
        let decision = policy.decide(&snapshot);
        let active: Vec<VmId> = snapshot.vm_ids().to_vec();
        assert!(decision
            .validate(&active, &[50, 50, 50], &[2, 2, 2])
            .is_ok());
    }
}
