//! The system state a global policy observes at a slot boundary.
//!
//! Per the paper (Sect. IV-A): "at each time slot T, first the global
//! controller receives the VMs' loads from the previous time interval
//! [T−1, T), data communications, renewable forecast, available battery
//! energy and grid price from each DC; all of them are non-stationary
//! parameters that change dynamically."

use crate::power::ServerPowerModel;
use geoplace_energy::price::PriceLevel;
use geoplace_network::latency::LatencyModel;
use geoplace_types::time::TimeSlot;
use geoplace_types::units::{EurosPerKwh, Gigabytes, Joules, Seconds};
use geoplace_types::{DcId, Exec, VmArena, VmId};
use geoplace_workload::cpucorr::CpuCorrelationMatrix;
use geoplace_workload::datacorr::DataCorrelation;
use geoplace_workload::graph::TrafficGraph;
use geoplace_workload::window::UtilizationWindows;
use std::collections::BTreeMap;

/// Per-DC facts a policy may use.
#[derive(Debug, Clone)]
pub struct DcInfo {
    /// The DC's id.
    pub id: DcId,
    /// Number of physical servers.
    pub servers: u32,
    /// Server hardware model (identical across the paper's DCs).
    pub power_model: ServerPowerModel,
    /// Battery energy available for discharge right now.
    pub battery_available: Joules,
    /// Battery charge headroom.
    pub battery_headroom: Joules,
    /// WCMA forecast of PV energy for the upcoming slot.
    pub pv_forecast: Joules,
    /// WCMA forecast of PV energy over the coming 24 h.
    pub pv_forecast_day: Joules,
    /// Energy one full daily battery cycle can deliver (usable capacity
    /// after the DoD floor and discharge losses).
    pub battery_day: Joules,
    /// Grid tariff during the upcoming slot.
    pub price: EurosPerKwh,
    /// Tariff level during the upcoming slot.
    pub price_level: PriceLevel,
    /// This DC's price relative to the fleet (0 = cheapest, 1 = dearest)
    /// during the upcoming slot.
    pub relative_price: f64,
    /// This DC's *day-averaged* tariff relative to the fleet (0 = cheapest
    /// on average, 1 = dearest). Placements live for many hours, so the
    /// capacity caps weight the daily landscape, not just the next hour.
    pub avg_relative_price: f64,
    /// IT energy consumed during the previous slot (last-value predictor).
    pub last_it_energy: Joules,
    /// Total (IT × PUE) energy consumed during the previous slot.
    pub last_total_energy: Joules,
    /// PUE expected for the upcoming slot.
    pub pue: f64,
    /// Whether the DC is down for the upcoming slot (a `DcOutage`
    /// window is active). Its `servers` count is already collapsed to
    /// the one-server rollback floor; placements targeting it will be
    /// force-evacuated, so policies should route around it.
    pub outaged: bool,
}

/// Everything a [`crate::policy::GlobalPolicy`] sees when deciding slot `T`.
#[derive(Debug)]
pub struct SystemSnapshot<'a> {
    /// The slot being decided.
    pub slot: TimeSlot,
    /// Observed 5 s utilization windows of interval `[T−1, T)` for every
    /// active VM (for slot 0: the slot-0 window as bootstrap estimate).
    pub windows: &'a UtilizationWindows,
    /// Dense per-slot index of the active VM set, in `windows` row order —
    /// built once at slot assembly so every policy shares one id→index
    /// mapping.
    pub arena: &'a VmArena,
    /// vCPU count per VM, aligned with `windows` rows.
    pub vm_cores: &'a [u32],
    /// Memory (= migration image size) per VM, aligned with `windows` rows.
    pub vm_memory: &'a [Gigabytes],
    /// Pairwise CPU-load correlation over the observation window (dense
    /// or sparse top-k, per the scenario's sparsity configuration).
    pub cpu_corr: &'a CpuCorrelationMatrix,
    /// Arena-indexed CSR adjacency of the slot's communicating pairs.
    pub traffic: &'a TrafficGraph,
    /// Pairwise bidirectional traffic structure (id-keyed volume queries).
    pub data: &'a DataCorrelation,
    /// Where each VM ran during the previous slot (absent for new VMs and
    /// at slot 0).
    pub prev_dc: &'a BTreeMap<VmId, DcId>,
    /// Per-DC facts.
    pub dcs: &'a [DcInfo],
    /// The latency model (topology, BER) for migration checks.
    pub latency: &'a LatencyModel,
    /// Hard migration latency budget (2 % of the slot at QoS 98 %).
    pub migration_budget: Seconds,
    /// The engine's thread budget (resolved from
    /// [`ScenarioConfig::parallelism`](crate::config::ScenarioConfig::parallelism)),
    /// for the policy's own kernels — so engine and policy share one
    /// budget, and no policy needs a thread knob of its own.
    pub exec: Exec,
}

impl<'a> SystemSnapshot<'a> {
    /// Active VM ids in window-row order.
    pub fn vm_ids(&self) -> &[VmId] {
        self.windows.ids()
    }

    /// Number of active VMs.
    pub fn vm_count(&self) -> usize {
        self.windows.len()
    }

    /// Number of DCs.
    pub fn dc_count(&self) -> usize {
        self.dcs.len()
    }

    /// The *load* window of the VM at a dense position: utilization scaled
    /// by its vCPU count, in core-equivalents.
    pub fn load_window(&self, pos: usize) -> Vec<f32> {
        let cores = self.vm_cores[pos] as f32;
        self.windows.row_at(pos).iter().map(|u| u * cores).collect()
    }

    /// Peak load (core-equivalents) of the VM at a dense position.
    pub fn peak_load(&self, pos: usize) -> f64 {
        let cores = self.vm_cores[pos] as f64;
        self.windows
            .row_at(pos)
            .iter()
            .copied()
            .fold(0.0f32, f32::max) as f64
            * cores
    }

    /// Mean load (core-equivalents) of the VM at a dense position.
    pub fn mean_load(&self, pos: usize) -> f64 {
        let row = self.windows.row_at(pos);
        if row.is_empty() {
            return 0.0;
        }
        let mean: f64 = row.iter().map(|&u| u as f64).sum::<f64>() / row.len() as f64;
        mean * self.vm_cores[pos] as f64
    }

    /// Approximate IT energy (J) one VM adds over a full slot at the top
    /// frequency: mean load × per-core dynamic power × 3600 s. Used for
    /// capacity-cap bookkeeping (idle power is accounted separately).
    pub fn vm_slot_energy(&self, pos: usize) -> Joules {
        let model = &self.dcs[0].power_model;
        let top = model.max_level();
        let per_core =
            (model.levels()[top.0].full.0 - model.levels()[top.0].idle.0) / model.cores() as f64;
        Joules(self.mean_load(pos) * per_core * 3600.0)
    }
}
