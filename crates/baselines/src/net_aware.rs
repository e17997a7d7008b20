//! Net-aware — the network-balancing comparator (Biran et al.,
//! CCGRID 2012; the paper's ref \[6\], "GH" heuristic).
//!
//! "The goal of Net-aware is to balance the network across DCs" while
//! keeping communicating VMs together. We reproduce the GH (greedy
//! heuristic) shape: group VMs into *communication components* (connected
//! components over the heavy data-correlation pairs), then greedily place
//! whole components onto the DC with the lowest relative load, biggest
//! first. Components never split, so chatty VMs stay co-located and the
//! load (and with it the residual inter-DC traffic) spreads evenly.
//! Prices, renewables and energy-optimal packing are out of scope —
//! "this algorithm does not consider the electricity price diversities
//! and neglects an energy-efficient management".

use crate::common::{dc_core_capacity, plain_ffd, UnionFind};
use geoplace_dcsim::decision::PlacementDecision;
use geoplace_dcsim::policy::GlobalPolicy;
use geoplace_dcsim::snapshot::SystemSnapshot;
use geoplace_types::DcId;
use std::collections::BTreeMap;

/// The load/network-balancing baseline.
///
/// # Examples
///
/// ```
/// use geoplace_baselines::NetAwarePolicy;
/// use geoplace_dcsim::policy::GlobalPolicy;
/// assert_eq!(NetAwarePolicy::new().name(), "Net-aware");
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetAwarePolicy;

impl NetAwarePolicy {
    /// Creates the policy; it packs at the shared
    /// [`UTILIZATION_THRESHOLD`](geoplace_core::local::UTILIZATION_THRESHOLD).
    pub fn new() -> Self {
        NetAwarePolicy
    }
}

impl GlobalPolicy for NetAwarePolicy {
    fn name(&self) -> &'static str {
        "Net-aware"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let n = snapshot.vm_count();
        let n_dcs = snapshot.dc_count();
        let mut decision = PlacementDecision::new(n_dcs);
        if n == 0 {
            return decision;
        }
        // Communication components: union VMs joined by pairs whose total
        // rate clears the mean (filters the thin cross-application links,
        // keeps the heavy intra-application mesh). The arena-indexed CSR
        // traffic graph already carries each pair once with both rates —
        // no per-policy id→index map needed.
        let mut pairs: Vec<(usize, usize, f64)> = snapshot
            .traffic
            .pairs(snapshot.arena)
            .map(|(i, edge)| (i as usize, edge.target as usize, edge.total()))
            .collect();
        pairs.sort_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1)) // deterministic union order
        });
        let mean_rate = if pairs.is_empty() {
            0.0
        } else {
            pairs.iter().map(|p| p.2).sum::<f64>() / pairs.len() as f64
        };
        let mut components = UnionFind::new(n);
        for &(i, j, rate) in &pairs {
            if rate >= mean_rate {
                components.union(i, j);
            }
        }
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            groups.entry(components.find(i)).or_default().push(i);
        }
        // Biggest total load first; deterministic tiebreak by root index.
        let mut group_list: Vec<(usize, Vec<usize>, f64)> = groups
            .into_iter()
            .map(|(root, members)| {
                let load: f64 = members.iter().map(|&i| snapshot.peak_load(i)).sum();
                (root, members, load)
            })
            .collect();
        group_list.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("finite loads")
                .then(a.0.cmp(&b.0))
        });

        // Greedy balance: each component to the DC with the lowest
        // *absolute* assigned load, subject to physical capacity — GH
        // balances the load (and thereby the network) across DCs; it does
        // not weight by DC size, prices or energy sources, which is
        // exactly the blindness the paper's evaluation exposes.
        let capacities: Vec<f64> = (0..n_dcs)
            .map(|dc| dc_core_capacity(snapshot.dcs[dc].servers, &snapshot.dcs[dc].power_model))
            .collect();
        let mut members_by_dc: Vec<Vec<usize>> = vec![Vec::new(); n_dcs];
        let mut used = vec![0.0f64; n_dcs];
        for (_, members, load) in &group_list {
            let dc = (0..n_dcs)
                .filter(|&dc| used[dc] + load <= capacities[dc])
                .min_by(|&a, &b| {
                    (used[a] + load)
                        .partial_cmp(&(used[b] + load))
                        .expect("finite loads")
                        .then(a.cmp(&b))
                })
                .unwrap_or_else(|| {
                    // All DCs nominally full: least-loaded absorbs.
                    (0..n_dcs)
                        .min_by(|&a, &b| {
                            used[a]
                                .partial_cmp(&used[b])
                                .expect("finite")
                                .then(a.cmp(&b))
                        })
                        .expect("at least one DC")
                });
            members_by_dc[dc].extend_from_slice(members);
            used[dc] += load;
        }

        for (dc_index, positions) in members_by_dc.iter().enumerate() {
            let dc = DcId(dc_index as u16);
            for assignment in plain_ffd(
                positions,
                snapshot,
                &snapshot.dcs[dc_index].power_model,
                snapshot.dcs[dc_index].servers,
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
    use geoplace_workload::datacorr::{DataCorrelation, DataCorrelationConfig};
    use geoplace_workload::fleet::{FleetConfig, VmFleet};
    use rand::SeedableRng;

    fn flat_rows(n: u32) -> Vec<(u32, Vec<f32>)> {
        (0..n)
            .map(|i| (i, vec![0.5 + 0.001 * i as f32; 8]))
            .collect()
    }

    /// Traffic where ids {0..k} form one chatty application.
    fn group_traffic(k: u32) -> DataCorrelation {
        let mut fleet_config = FleetConfig::default();
        fleet_config.arrivals.initial_groups = 1;
        fleet_config.arrivals.group_size_range = (k, k);
        fleet_config.arrivals.seed = 13;
        let fleet = VmFleet::new(fleet_config).unwrap();
        let specs: Vec<_> = (0..k).map(|i| fleet.vm(VmId(i)).unwrap().clone()).collect();
        let mut data = DataCorrelation::new(DataCorrelationConfig {
            cross_links_per_vm: 0,
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        data.connect_arrivals(&specs, &specs, &mut rng);
        data
    }

    #[test]
    fn chatty_component_stays_together() {
        let fixture = SnapshotFixture::new(flat_rows(12), vec![2; 12]).with_data(group_traffic(4));
        let snapshot = fixture.snapshot();
        let mut policy = NetAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let dc_of = decision.dc_of();
        let home = dc_of[&VmId(0)];
        for vm in 1..4u32 {
            assert_eq!(dc_of[&VmId(vm)], home, "component split at vm{vm}");
        }
    }

    #[test]
    fn load_is_balanced_relative_to_capacity() {
        // 60 equal singleton VMs over 3 equal DCs → ~20 each.
        let fixture = SnapshotFixture::new(flat_rows(60), vec![2; 60]);
        let snapshot = fixture.snapshot();
        let mut policy = NetAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let dc_of = decision.dc_of();
        for dc in 0..3u16 {
            let count = snapshot
                .vm_ids()
                .iter()
                .filter(|vm| dc_of[*vm] == DcId(dc))
                .count();
            assert!(
                (15..=25).contains(&count),
                "dc{dc} got {count} of 60 — not balanced"
            );
        }
    }

    #[test]
    fn balancing_is_absolute_until_capacity_blocks() {
        // A 1-server DC2 (7.2 cores at threshold) can hold at most 7 of
        // the 1-core-equivalent VMs; the rest balances over DC0/DC1 —
        // absolute balancing would have wanted 20 in DC2 but capacity
        // forbids it.
        let fixture = SnapshotFixture::new(flat_rows(60), vec![2; 60]).with_servers(2, 1);
        let snapshot = fixture.snapshot();
        let mut policy = NetAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let dc_of = decision.dc_of();
        let count = |dc: u16| {
            snapshot
                .vm_ids()
                .iter()
                .filter(|vm| dc_of[*vm] == DcId(dc))
                .count()
        };
        assert!(
            count(2) <= 7,
            "capacity must bound tiny DC2, got {}",
            count(2)
        );
        let diff = (count(0) as i64 - count(1) as i64).abs();
        assert!(
            diff <= 2,
            "DC0/DC1 must stay balanced, got {} vs {}",
            count(0),
            count(1)
        );
    }

    #[test]
    fn decision_is_valid() {
        let fixture = SnapshotFixture::new(flat_rows(30), vec![4; 30]).with_data(group_traffic(6));
        let snapshot = fixture.snapshot();
        let mut policy = NetAwarePolicy::new();
        let decision = policy.decide(&snapshot);
        let active: Vec<VmId> = snapshot.vm_ids().to_vec();
        assert!(decision
            .validate(&active, &[50, 50, 50], &[2, 2, 2])
            .is_ok());
    }

    #[test]
    fn empty_fleet() {
        let fixture = SnapshotFixture::new(vec![], vec![]);
        let snapshot = fixture.snapshot();
        assert_eq!(NetAwarePolicy::new().decide(&snapshot).vm_count(), 0);
    }
}
