//! Local phase — correlation-aware VM-to-server allocation with DVFS.
//!
//! "We use only CPU-load correlation to allocate VMs to the minimum number
//! of servers […]. Hence, we base our implementation on the best algorithm
//! \[5\] for VMs allocation" — Kim et al., DATE 2013. The key idea of that
//! allocator: instead of reserving each VM's *individual* peak (sum of
//! peaks ≫ real demand when peaks do not coincide), check the **combined
//! window peak** of the candidate server's residents plus the new VM. Two
//! anti-correlated VMs then pack into capacity a peak-reservation scheme
//! would refuse — the CPU-load correlation is consumed directly through
//! the 5 s windows.
//!
//! Placement is first-fit over servers in creation order with VMs sorted
//! by decreasing peak load (FFD); afterwards each server's DVFS level is
//! the lowest frequency whose capacity still covers the server's combined
//! peak ("the optimal frequency for each server is computed").

use geoplace_dcsim::decision::ServerAssignment;
use geoplace_dcsim::power::ServerPowerModel;
use geoplace_dcsim::snapshot::SystemSnapshot;
use serde::{Deserialize, Serialize};

/// Fraction of a server's top-frequency capacity the combined peak may
/// use (safety margin against observation error) — shared by every
/// policy's packer.
pub const UTILIZATION_THRESHOLD: f64 = 0.9;

/// Tuning of the local allocator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalAllocConfig {
    /// Cap on *window-scan* fit probes per VM. A candidate server whose
    /// resident peak plus the VM's peak fits the capacity is accepted
    /// without scanning (sum of peaks bounds the combined peak from
    /// above); only servers failing that cheap test cost a full window
    /// scan, and after `probe_limit` of those the remaining candidates
    /// are judged on the cheap bound alone. `usize::MAX` reproduces the
    /// exact first-fit behavior; stress-scale runs bound it to stay
    /// O(n·(servers + limit·w)).
    pub probe_limit: usize,
}

impl Default for LocalAllocConfig {
    fn default() -> Self {
        LocalAllocConfig {
            probe_limit: usize::MAX,
        }
    }
}

struct OpenServer {
    aggregate: Vec<f32>,
    peak: f32,
    vms: Vec<usize>,
}

/// Allocates the VMs at `positions` (dense window-row indices of one DC's
/// cluster) onto at most `max_servers` servers, returning the per-server
/// assignments with their DVFS levels.
///
/// If every server is full, the least-loaded server absorbs the overflow —
/// the decision must stay complete; the engine's power model clamps an
/// overloaded server at full power, which is the physically honest
/// consequence.
pub fn allocate(
    positions: &[usize],
    snapshot: &SystemSnapshot<'_>,
    model: &ServerPowerModel,
    max_servers: u32,
    config: LocalAllocConfig,
) -> Vec<ServerAssignment> {
    if positions.is_empty() || max_servers == 0 {
        return Vec::new();
    }
    let width = snapshot.windows.width();
    let capacity = model.capacity_cores(model.max_level()) * UTILIZATION_THRESHOLD;

    // FFD: biggest predicted peak first (ties broken by position for
    // determinism).
    let mut order: Vec<(usize, f64)> = positions
        .iter()
        .map(|&p| (p, snapshot.peak_load(p)))
        .collect();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite peaks")
            .then(a.0.cmp(&b.0))
    });

    let mut servers: Vec<OpenServer> = Vec::new();
    for &(pos, vm_peak) in &order {
        let load = snapshot.load_window(pos);
        let mut chosen: Option<usize> = None;
        let mut probes = 0usize;
        for (index, server) in servers.iter().enumerate() {
            // Sum of peaks bounds the combined window peak from above: if
            // it fits, the window scan would accept too — take it free.
            if f64::from(server.peak) + vm_peak <= capacity {
                chosen = Some(index);
                break;
            }
            // Peak sums overlap the capacity: only a full window scan can
            // tell whether the peaks actually coincide — the expensive
            // probe the limit meters. Count the in-flight probe first,
            // then compare inclusively: exactly `probe_limit` scans run
            // in full before the cheap bound takes over, an in-flight
            // probe is never abandoned, and `usize::MAX` reproduces the
            // unbounded first-fit scan exactly (all of which the
            // regression tests below pin down).
            probes += 1;
            if probes > config.probe_limit {
                continue;
            }
            let combined_peak = server
                .aggregate
                .iter()
                .zip(load.iter())
                .map(|(a, b)| a + b)
                .fold(0.0f32, f32::max);
            if f64::from(combined_peak) <= capacity {
                chosen = Some(index);
                break;
            }
        }
        let index = match chosen {
            Some(index) => index,
            None if (servers.len() as u32) < max_servers => {
                servers.push(OpenServer {
                    aggregate: vec![0.0; width],
                    peak: 0.0,
                    vms: Vec::new(),
                });
                servers.len() - 1
            }
            None => servers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.peak.partial_cmp(&b.peak).expect("finite peaks"))
                .map(|(i, _)| i)
                .expect("max_servers >= 1"),
        };
        let server = &mut servers[index];
        for (aggregate, l) in server.aggregate.iter_mut().zip(load.iter()) {
            *aggregate += l;
        }
        server.peak = server.aggregate.iter().copied().fold(0.0f32, f32::max);
        server.vms.push(pos);
    }

    servers
        .into_iter()
        .enumerate()
        .map(|(index, server)| {
            // Lowest frequency whose capacity covers the peak with the
            // same threshold margin.
            let freq = model
                .min_level_for(f64::from(server.peak), 1.0 / UTILIZATION_THRESHOLD)
                .unwrap_or(model.max_level());
            ServerAssignment {
                server: index as u32,
                freq,
                vms: server.vms.iter().map(|&p| snapshot.vm_ids()[p]).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::SnapshotFixture;
    use geoplace_dcsim::power::FreqLevel;

    /// Anti-correlated pair: peaks in different halves of the window.
    fn anti_pair() -> Vec<(u32, Vec<f32>)> {
        vec![
            (0, vec![0.9, 0.9, 0.05, 0.05]),
            (1, vec![0.05, 0.05, 0.9, 0.9]),
        ]
    }

    /// Correlated pair: coincident peaks.
    fn co_pair() -> Vec<(u32, Vec<f32>)> {
        vec![
            (0, vec![0.9, 0.9, 0.05, 0.05]),
            (1, vec![0.9, 0.9, 0.05, 0.05]),
        ]
    }

    #[test]
    fn anticorrelated_vms_share_a_server() {
        // 8 vCPUs each at 0.9 peak → individual peaks 7.2; combined peak
        // 7.6 ≤ 8 × 0.9 = 7.2? No — use 4-core VMs: peaks 3.6 each,
        // combined 3.8 ≤ 7.2 fits one server.
        let fixture = SnapshotFixture::new(anti_pair(), vec![4, 4]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = allocate(&[0, 1], &snapshot, &model, 10, LocalAllocConfig::default());
        assert_eq!(out.len(), 1, "anti-correlated pair must consolidate");
        assert_eq!(out[0].vms.len(), 2);
    }

    #[test]
    fn correlated_vms_split_servers() {
        let fixture = SnapshotFixture::new(co_pair(), vec![4, 4]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = allocate(&[0, 1], &snapshot, &model, 10, LocalAllocConfig::default());
        // Combined peak 7.2 > 7.2? combined = 0.9·4 + 0.9·4 = 7.2, capacity
        // 8 × 0.9 = 7.2 → fits exactly at equality... use 0.95 loads to
        // clear the boundary.
        let fixture =
            SnapshotFixture::new(vec![(0, vec![0.95; 4]), (1, vec![0.95; 4])], vec![4, 4]);
        let snapshot = fixture.snapshot();
        let strict = allocate(&[0, 1], &snapshot, &model, 10, LocalAllocConfig::default());
        assert_eq!(strict.len(), 2, "coincident peaks must split");
        drop(out);
    }

    #[test]
    fn dvfs_drops_frequency_on_light_servers() {
        // One 2-core VM at 0.5 → peak 1.0 ≤ 6.956 × … → the 2.0 GHz level
        // suffices.
        let fixture = SnapshotFixture::new(vec![(0, vec![0.5, 0.5, 0.5, 0.5])], vec![2]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = allocate(&[0], &snapshot, &model, 10, LocalAllocConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].freq, FreqLevel(0), "light server should downclock");
    }

    #[test]
    fn heavy_server_keeps_top_frequency() {
        let fixture = SnapshotFixture::new(vec![(0, vec![0.95; 4])], vec![8]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = allocate(&[0], &snapshot, &model, 10, LocalAllocConfig::default());
        assert_eq!(out[0].freq, model.max_level());
    }

    #[test]
    fn overflow_lands_on_least_loaded_server() {
        // Three 8-core VMs at full blast but only 2 servers allowed.
        let rows: Vec<(u32, Vec<f32>)> = (0..3).map(|i| (i, vec![0.95f32; 4])).collect();
        let fixture = SnapshotFixture::new(rows, vec![8, 8, 8]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let out = allocate(
            &[0, 1, 2],
            &snapshot,
            &model,
            2,
            LocalAllocConfig::default(),
        );
        assert_eq!(out.len(), 2, "cannot exceed max_servers");
        let total: usize = out.iter().map(|s| s.vms.len()).sum();
        assert_eq!(total, 3, "every VM must land somewhere");
    }

    #[test]
    fn empty_input_allocates_nothing() {
        let fixture = SnapshotFixture::new(vec![(0, vec![0.5; 4])], vec![2]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        assert!(allocate(&[], &snapshot, &model, 10, LocalAllocConfig::default()).is_empty());
        assert!(allocate(&[0], &snapshot, &model, 0, LocalAllocConfig::default()).is_empty());
    }

    #[test]
    fn allocation_is_deterministic() {
        let rows: Vec<(u32, Vec<f32>)> = (0..12)
            .map(|i| (i, (0..8).map(|t| ((i + t) % 5) as f32 * 0.2).collect()))
            .collect();
        let fixture = SnapshotFixture::new(rows, vec![2; 12]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let positions: Vec<usize> = (0..12).collect();
        let a = allocate(
            &positions,
            &snapshot,
            &model,
            20,
            LocalAllocConfig::default(),
        );
        let b = allocate(
            &positions,
            &snapshot,
            &model,
            20,
            LocalAllocConfig::default(),
        );
        assert_eq!(a, b);
    }

    /// Reference first-fit with *no* probe metering at all: every
    /// candidate server gets the full window scan. `probe_limit =
    /// usize::MAX` must reproduce this placement exactly — the
    /// regression guard for the probe-boundary accounting.
    fn unbounded_reference(
        positions: &[usize],
        snapshot: &geoplace_dcsim::snapshot::SystemSnapshot<'_>,
        model: &geoplace_dcsim::power::ServerPowerModel,
        max_servers: u32,
    ) -> Vec<ServerAssignment> {
        let width = snapshot.windows.width();
        let capacity = model.capacity_cores(model.max_level()) * UTILIZATION_THRESHOLD;
        let mut order: Vec<(usize, f64)> = positions
            .iter()
            .map(|&p| (p, snapshot.peak_load(p)))
            .collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let mut servers: Vec<OpenServer> = Vec::new();
        for &(pos, _) in &order {
            let load = snapshot.load_window(pos);
            let chosen = servers.iter().position(|server| {
                let combined_peak = server
                    .aggregate
                    .iter()
                    .zip(load.iter())
                    .map(|(a, b)| a + b)
                    .fold(0.0f32, f32::max);
                f64::from(combined_peak) <= capacity
            });
            let index = match chosen {
                Some(index) => index,
                None if (servers.len() as u32) < max_servers => {
                    servers.push(OpenServer {
                        aggregate: vec![0.0; width],
                        peak: 0.0,
                        vms: Vec::new(),
                    });
                    servers.len() - 1
                }
                None => servers
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.peak.partial_cmp(&b.peak).unwrap())
                    .map(|(i, _)| i)
                    .unwrap(),
            };
            let server = &mut servers[index];
            for (aggregate, l) in server.aggregate.iter_mut().zip(load.iter()) {
                *aggregate += l;
            }
            server.peak = server.aggregate.iter().copied().fold(0.0f32, f32::max);
            server.vms.push(pos);
        }
        servers
            .into_iter()
            .enumerate()
            .map(|(index, server)| ServerAssignment {
                server: index as u32,
                freq: model
                    .min_level_for(f64::from(server.peak), 1.0 / UTILIZATION_THRESHOLD)
                    .unwrap_or(model.max_level()),
                vms: server.vms.iter().map(|&p| snapshot.vm_ids()[p]).collect(),
            })
            .collect()
    }

    #[test]
    fn max_probe_limit_matches_unbounded_scan_at_stress_scale() {
        // A few hundred VMs with staggered diurnal peaks — enough open
        // servers that the probe counter runs deep into the scan.
        let n = 240usize;
        let rows: Vec<(u32, Vec<f32>)> = (0..n as u32)
            .map(|i| {
                let phase = (i as usize * 7) % 48;
                let row = (0..48)
                    .map(|t| {
                        let x = ((t + 48 - phase) % 48) as f32;
                        0.1 + 0.85 * (-(x - 24.0).powi(2) / 40.0).exp()
                    })
                    .collect();
                (i, row)
            })
            .collect();
        let fixture = SnapshotFixture::new(rows, vec![4; n]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let positions: Vec<usize> = (0..n).collect();
        let config = LocalAllocConfig {
            probe_limit: usize::MAX,
        };
        let bounded = allocate(&positions, &snapshot, &model, 400, config);
        let reference = unbounded_reference(&positions, &snapshot, &model, 400);
        assert_eq!(
            bounded, reference,
            "probe_limit = usize::MAX must reproduce the unbounded window scan"
        );
        assert_eq!(
            bounded.iter().map(|s| s.vms.len()).sum::<usize>(),
            n,
            "every VM placed"
        );
    }

    #[test]
    fn probe_limit_boundary_scans_exactly_limit_candidates() {
        // VMs 0/1 peak together (cheap bound and scan both refuse the
        // pair); VM 2 is anti-correlated and fits VM 0's server — but
        // only a window scan can prove it (its peak *sum* overflows).
        // probe_limit = 0 must therefore strand VM 2 on a third server,
        // while probe_limit = 1 must run that first in-flight probe to
        // completion and consolidate — pinning the boundary semantics
        // the count-first form makes explicit.
        let rows = vec![
            (0, vec![0.95, 0.95, 0.05, 0.05]),
            (1, vec![0.95, 0.95, 0.05, 0.05]),
            (2, vec![0.05, 0.05, 0.9, 0.9]),
        ];
        let fixture = SnapshotFixture::new(rows, vec![4, 4, 4]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let allocate_with = |limit: usize| {
            allocate(
                &[0, 1, 2],
                &snapshot,
                &model,
                10,
                LocalAllocConfig { probe_limit: limit },
            )
        };
        assert_eq!(
            allocate_with(0).len(),
            3,
            "probe_limit 0 must skip every window scan"
        );
        assert_eq!(
            allocate_with(1).len(),
            2,
            "the first in-flight probe must run to completion"
        );
    }

    #[test]
    fn uses_fewer_servers_than_peak_reservation() {
        // Six pairwise anti-correlated 4-core VMs: peak reservation needs
        // ⌈6×3.8/7.2⌉ = 4 servers; window-aware packing needs 3 (pairs).
        let mut rows = Vec::new();
        for i in 0..6u32 {
            let window: Vec<f32> = if i % 2 == 0 {
                vec![0.95, 0.95, 0.05, 0.05]
            } else {
                vec![0.05, 0.05, 0.95, 0.95]
            };
            rows.push((i, window));
        }
        let fixture = SnapshotFixture::new(rows, vec![4; 6]);
        let snapshot = fixture.snapshot();
        let model = geoplace_dcsim::power::ServerPowerModel::xeon_e5410();
        let positions: Vec<usize> = (0..6).collect();
        let out = allocate(
            &positions,
            &snapshot,
            &model,
            10,
            LocalAllocConfig::default(),
        );
        assert!(
            out.len() <= 3,
            "correlation-aware packing should pair them, got {}",
            out.len()
        );
    }
}
