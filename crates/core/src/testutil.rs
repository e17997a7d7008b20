//! Snapshot fixtures for unit tests (hidden from docs; also used by the
//! baselines crate's tests).

use geoplace_dcsim::power::ServerPowerModel;
use geoplace_dcsim::snapshot::{DcInfo, SystemSnapshot};
use geoplace_energy::price::PriceLevel;
use geoplace_network::ber::BerDistribution;
use geoplace_network::latency::LatencyModel;
use geoplace_network::topology::Topology;
use geoplace_types::time::TimeSlot;
use geoplace_types::units::{EurosPerKwh, Gigabytes, Joules, Seconds};
use geoplace_types::{DcId, Exec, VmArena, VmId};
use geoplace_workload::cpucorr::CpuCorrelationMatrix;
use geoplace_workload::datacorr::{DataCorrelation, DataCorrelationConfig};
use geoplace_workload::graph::TrafficGraph;
use geoplace_workload::window::UtilizationWindows;
use std::collections::BTreeMap;

/// Owns every structure a [`SystemSnapshot`] borrows, so tests can
/// fabricate snapshots from raw utilization rows.
#[derive(Debug)]
pub struct SnapshotFixture {
    windows: UtilizationWindows,
    arena: VmArena,
    cores: Vec<u32>,
    memory: Vec<Gigabytes>,
    cpu: CpuCorrelationMatrix,
    data: DataCorrelation,
    traffic: TrafficGraph,
    prev: BTreeMap<VmId, DcId>,
    dcs: Vec<DcInfo>,
    latency: LatencyModel,
    slot: TimeSlot,
    budget: Seconds,
}

impl SnapshotFixture {
    /// Builds a fixture over `(vm_id, window)` rows with the given vCPU
    /// counts; three paper-site DCs of 50 servers each, error-free
    /// network, 72 s migration budget.
    pub fn new(rows: Vec<(u32, Vec<f32>)>, cores: Vec<u32>) -> Self {
        assert_eq!(rows.len(), cores.len(), "rows/cores mismatch");
        let windows =
            UtilizationWindows::from_rows(rows.into_iter().map(|(id, w)| (VmId(id), w)).collect());
        let arena = VmArena::from_ids(windows.ids());
        let cpu = CpuCorrelationMatrix::compute(&windows);
        let data = DataCorrelation::new(DataCorrelationConfig::default());
        let traffic = data.traffic_graph(&arena);
        let memory = cores.iter().map(|&c| Gigabytes(f64::from(c))).collect();
        let dcs = (0..3u16)
            .map(|i| DcInfo {
                id: DcId(i),
                servers: 50,
                power_model: ServerPowerModel::xeon_e5410(),
                battery_available: Joules(1e8),
                battery_headroom: Joules(0.0),
                pv_forecast: Joules(0.0),
                pv_forecast_day: Joules(0.0),
                battery_day: Joules(1e8),
                price: EurosPerKwh(0.10),
                price_level: PriceLevel::High,
                relative_price: 0.5,
                avg_relative_price: 0.5,
                last_it_energy: Joules(0.0),
                last_total_energy: Joules(0.0),
                pue: 1.2,
                outaged: false,
            })
            .collect();
        SnapshotFixture {
            windows,
            arena,
            cores,
            memory,
            cpu,
            data,
            traffic,
            prev: BTreeMap::new(),
            dcs,
            latency: LatencyModel::new(
                Topology::paper_default().expect("paper topology"),
                BerDistribution::error_free(),
            ),
            slot: TimeSlot(1),
            budget: Seconds(72.0),
        }
    }

    /// Sets previous-slot DC assignments.
    pub fn with_prev(mut self, pairs: &[(u32, u16)]) -> Self {
        self.prev = pairs.iter().map(|&(vm, dc)| (VmId(vm), DcId(dc))).collect();
        self
    }

    /// Replaces the traffic structure (and rebuilds the slot graph).
    pub fn with_data(mut self, data: DataCorrelation) -> Self {
        self.traffic = data.traffic_graph(&self.arena);
        self.data = data;
        self
    }

    /// The windows the fixture was built over.
    pub fn windows(&self) -> &UtilizationWindows {
        &self.windows
    }

    /// Overrides one DC's absolute tariff.
    pub fn with_price(mut self, dc: usize, eur_per_kwh: f64) -> Self {
        self.dcs[dc].price = EurosPerKwh(eur_per_kwh);
        self
    }

    /// Overrides one DC's server count.
    pub fn with_servers(mut self, dc: usize, servers: u32) -> Self {
        self.dcs[dc].servers = servers;
        self
    }

    /// Borrows the fixture as a [`SystemSnapshot`].
    pub fn snapshot(&self) -> SystemSnapshot<'_> {
        SystemSnapshot {
            slot: self.slot,
            windows: &self.windows,
            arena: &self.arena,
            vm_cores: &self.cores,
            vm_memory: &self.memory,
            cpu_corr: &self.cpu,
            traffic: &self.traffic,
            data: &self.data,
            prev_dc: &self.prev,
            dcs: &self.dcs,
            latency: &self.latency,
            migration_budget: self.budget,
            exec: Exec::serial(),
        }
    }
}
