//! Ener-aware — the energy-minimizing comparator (Kim et al., DATE 2013;
//! the paper's ref \[5\]).
//!
//! "The Ener-aware approach first uses the FFD clustering heuristic,
//! placing VMs into the first DC in which its load capacity fits, and
//! then packs the VMs into the minimal number of active servers based on
//! the CPU-load correlation" — plus DVFS. Globally blind to prices,
//! renewables and batteries ("it cannot efficiently cluster and dispatch
//! VMs for right DCs based on available renewable energy, battery status
//! and grid price"), but locally the strongest consolidator.

use crate::common::dc_core_capacity;
use geoplace_core::local::{allocate, LocalAllocConfig};
use geoplace_dcsim::decision::PlacementDecision;
use geoplace_dcsim::policy::GlobalPolicy;
use geoplace_dcsim::snapshot::SystemSnapshot;
use geoplace_types::DcId;

/// The correlation-aware consolidation baseline.
///
/// # Examples
///
/// ```
/// use geoplace_baselines::EnerAwarePolicy;
/// use geoplace_dcsim::policy::GlobalPolicy;
/// assert_eq!(EnerAwarePolicy::new().name(), "Ener-aware");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnerAwarePolicy {
    local: LocalAllocConfig,
}

impl EnerAwarePolicy {
    /// Creates the policy with the standard local-allocation tuning.
    pub fn new() -> Self {
        EnerAwarePolicy {
            local: LocalAllocConfig::default(),
        }
    }
}

impl GlobalPolicy for EnerAwarePolicy {
    fn name(&self) -> &'static str {
        "Ener-aware"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let n = snapshot.vm_count();
        let n_dcs = snapshot.dc_count();
        let mut decision = PlacementDecision::new(n_dcs);
        if n == 0 {
            return decision;
        }

        // Global FFD over DCs in fixed order: first DC whose remaining
        // physical capacity fits the VM's peak.
        let mut vm_order: Vec<(usize, f64)> = (0..n).map(|i| (i, snapshot.peak_load(i))).collect();
        vm_order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite peaks")
                .then(a.0.cmp(&b.0))
        });
        let capacities: Vec<f64> = (0..n_dcs)
            .map(|dc| dc_core_capacity(snapshot.dcs[dc].servers, &snapshot.dcs[dc].power_model))
            .collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_dcs];
        let mut used = vec![0.0f64; n_dcs];
        for &(pos, peak) in &vm_order {
            let dc = (0..n_dcs)
                .find(|&dc| used[dc] + peak <= capacities[dc])
                .unwrap_or(0);
            members[dc].push(pos);
            used[dc] += peak;
        }

        // Local phase: the correlation-aware allocator with DVFS — this
        // *is* ref \[5\]'s contribution, shared with the Proposed policy.
        for (dc_index, positions) in members.iter().enumerate() {
            let dc = DcId(dc_index as u16);
            for assignment in allocate(
                positions,
                snapshot,
                &snapshot.dcs[dc_index].power_model,
                snapshot.dcs[dc_index].servers,
                self.local,
            ) {
                decision.push(dc, assignment);
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoplace_core::testutil::SnapshotFixture;
    use geoplace_types::VmId;

    fn rows(n: u32) -> Vec<(u32, Vec<f32>)> {
        (0..n)
            .map(|i| {
                let phase = (i % 4) as usize;
                let mut w = vec![0.1f32; 8];
                w[phase * 2] = 0.8;
                w[phase * 2 + 1] = 0.8;
                (i, w)
            })
            .collect()
    }

    #[test]
    fn everything_goes_to_the_first_dc_when_it_fits() {
        let fixture = SnapshotFixture::new(rows(20), vec![2; 20]);
        let snapshot = fixture.snapshot();
        let mut policy = EnerAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let dc_of = decision.dc_of();
        assert!(snapshot.vm_ids().iter().all(|vm| dc_of[vm] == DcId(0)));
    }

    #[test]
    fn overflow_cascades_to_the_next_dc() {
        // DC0 shrunk to 2 servers (capacity 2 × 7.2 = 14.4 cores); thirty
        // 4-core VMs at 0.8 peak (3.2 cores) need ~96 cores.
        let fixture = SnapshotFixture::new(
            (0..30u32).map(|i| (i, vec![0.8f32; 8])).collect(),
            vec![4; 30],
        )
        .with_servers(0, 2);
        let snapshot = fixture.snapshot();
        let mut policy = EnerAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let dc_of = decision.dc_of();
        let count = |dc: u16| {
            snapshot
                .vm_ids()
                .iter()
                .filter(|vm| dc_of[*vm] == DcId(dc))
                .count()
        };
        assert!(count(0) <= 4, "tiny DC0 must not take everything");
        assert!(count(1) > 0, "overflow must reach DC1");
    }

    #[test]
    fn local_phase_uses_dvfs() {
        // Light loads → at least one server should run at the low level.
        let fixture = SnapshotFixture::new(
            (0..6u32).map(|i| (i, vec![0.3f32; 8])).collect(),
            vec![2; 6],
        );
        let snapshot = fixture.snapshot();
        let mut policy = EnerAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let low = decision
            .dc_assignments(DcId(0))
            .iter()
            .any(|s| s.freq == geoplace_dcsim::power::FreqLevel(0));
        assert!(low, "light servers should downclock");
    }

    #[test]
    fn decision_is_valid() {
        let fixture = SnapshotFixture::new(rows(40), vec![4; 40]);
        let snapshot = fixture.snapshot();
        let mut policy = EnerAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let active: Vec<VmId> = snapshot.vm_ids().to_vec();
        assert!(decision
            .validate(&active, &[50, 50, 50], &[2, 2, 2])
            .is_ok());
    }
}
