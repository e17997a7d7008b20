//! Helpers shared by the baseline policies.

use geoplace_core::local::UTILIZATION_THRESHOLD;
use geoplace_dcsim::decision::ServerAssignment;
use geoplace_dcsim::power::ServerPowerModel;
use geoplace_dcsim::snapshot::SystemSnapshot;

/// Plain first-fit-decreasing packing by *individual peak reservation* —
//  the conventional consolidation the paper's baselines [6], [17] use:
/// a server accepts a VM while the sum of the residents' individual peaks
/// stays below capacity. No correlation awareness, no DVFS (servers run at
/// the top frequency).
pub fn plain_ffd(
    positions: &[usize],
    snapshot: &SystemSnapshot<'_>,
    model: &ServerPowerModel,
    max_servers: u32,
) -> Vec<ServerAssignment> {
    if positions.is_empty() || max_servers == 0 {
        return Vec::new();
    }
    let capacity = model.capacity_cores(model.max_level()) * UTILIZATION_THRESHOLD;
    let mut order: Vec<(usize, f64)> = positions
        .iter()
        .map(|&p| (p, snapshot.peak_load(p)))
        .collect();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite peaks")
            .then(a.0.cmp(&b.0))
    });

    struct Bin {
        reserved: f64,
        vms: Vec<usize>,
    }
    let mut bins: Vec<Bin> = Vec::new();
    for &(pos, peak) in &order {
        let slot = bins.iter().position(|bin| bin.reserved + peak <= capacity);
        let index = match slot {
            Some(index) => index,
            None if (bins.len() as u32) < max_servers => {
                bins.push(Bin {
                    reserved: 0.0,
                    vms: Vec::new(),
                });
                bins.len() - 1
            }
            None => bins
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.reserved
                        .partial_cmp(&b.reserved)
                        .expect("finite reservations")
                })
                .map(|(i, _)| i)
                .expect("max_servers >= 1"),
        };
        bins[index].reserved += peak;
        bins[index].vms.push(pos);
    }
    bins.into_iter()
        .enumerate()
        .map(|(index, bin)| ServerAssignment {
            server: index as u32,
            freq: model.max_level(),
            vms: bin.vms.iter().map(|&p| snapshot.vm_ids()[p]).collect(),
        })
        .collect()
}

/// Physical compute capacity of a DC in top-frequency core-equivalents,
/// derated by the packing threshold.
pub fn dc_core_capacity(servers: u32, model: &ServerPowerModel) -> f64 {
    f64::from(servers) * model.capacity_cores(model.max_level()) * UTILIZATION_THRESHOLD
}

/// Disjoint-set union over dense indices (used by Net-aware to find
/// communication components).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s set (path-halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoplace_core::testutil::SnapshotFixture;

    #[test]
    fn plain_ffd_reserves_individual_peaks() {
        // Two anti-correlated 4-core VMs: combined window peak is small,
        // but plain FFD reserves 3.8 + 3.8 = 7.6 > 7.2 → two servers.
        let fixture = SnapshotFixture::new(
            vec![
                (0, vec![0.95, 0.95, 0.05, 0.05]),
                (1, vec![0.05, 0.05, 0.95, 0.95]),
            ],
            vec![4, 4],
        );
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = plain_ffd(&[0, 1], &snapshot, &model, 10);
        assert_eq!(out.len(), 2, "peak reservation must refuse to pair them");
        // The correlation-aware allocator pairs them (see geoplace-core).
        let smart = geoplace_core::local::allocate(
            &[0, 1],
            &snapshot,
            &model,
            10,
            geoplace_core::local::LocalAllocConfig::default(),
        );
        assert_eq!(smart.len(), 1);
    }

    #[test]
    fn plain_ffd_runs_at_top_frequency() {
        let fixture = SnapshotFixture::new(vec![(0, vec![0.2; 4])], vec![2]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = plain_ffd(&[0], &snapshot, &model, 10);
        assert_eq!(out[0].freq, model.max_level());
    }

    #[test]
    fn plain_ffd_overflow_complete() {
        let fixture = SnapshotFixture::new(
            (0..5u32).map(|i| (i, vec![0.9f32; 4])).collect(),
            vec![8; 5],
        );
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = plain_ffd(&[0, 1, 2, 3, 4], &snapshot, &model, 2);
        assert_eq!(out.len(), 2);
        let total: usize = out.iter().map(|s| s.vms.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn union_find_components() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(3));
        assert_eq!(uf.find(2), 2);
        uf.union(1, 2);
        assert_eq!(uf.find(0), uf.find(2));
    }

    #[test]
    fn dc_capacity_scales_with_servers() {
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let c = dc_core_capacity(100, &model);
        assert!((c - 100.0 * 8.0 * UTILIZATION_THRESHOLD).abs() < 1e-9);
    }
}
