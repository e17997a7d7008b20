//! Scenario configuration — Table I of the paper plus workload and
//! network knobs.

use crate::events::EventTimeline;
use crate::pue::SiteClimate;
use geoplace_types::{Error, Parallelism, Result};
use geoplace_workload::fleet::FleetConfig;
use geoplace_workload::sparsity::SparsityConfig;
use serde::{Deserialize, Serialize};

/// Static description of one data center.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcConfig {
    /// Site name (e.g. "Lisbon").
    pub name: String,
    /// Number of servers (Table I: 1500/1000/500).
    pub servers: u32,
    /// Rooms per DC (Table I: 10; used for reporting granularity).
    pub rooms: u32,
    /// PV array size in kWp (Table I: 150/100/50).
    pub pv_kwp: f64,
    /// Battery capacity in kWh (Table I: 960/720/480).
    pub battery_kwh: f64,
    /// Site latitude (drives PV yield).
    pub latitude_deg: f64,
    /// Site longitude (drives distances).
    pub longitude_deg: f64,
    /// Offset from simulation base time in hours.
    pub timezone_offset_hours: i32,
    /// Daily mean outside temperature, °C (drives the PUE).
    pub climate_mean_c: f64,
    /// Daily temperature swing (half peak-to-trough), °C.
    pub climate_amplitude_c: f64,
    /// Off-peak tariff, EUR/kWh.
    pub price_off_peak: f64,
    /// Peak tariff, EUR/kWh.
    pub price_peak: f64,
    /// Local peak-tariff window `[start, end)` hours.
    pub peak_hours: (u32, u32),
}

impl DcConfig {
    /// The site climate model derived from this config.
    pub fn climate(&self) -> SiteClimate {
        SiteClimate {
            mean_c: self.climate_mean_c,
            amplitude_c: self.climate_amplitude_c,
            timezone_offset_hours: self.timezone_offset_hours,
        }
    }
}

/// Full scenario configuration.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::config::ScenarioConfig;
/// let paper = ScenarioConfig::paper(1);
/// assert_eq!(paper.dcs.len(), 3);
/// assert_eq!(paper.dcs[0].servers, 1500);
/// assert!(paper.validate().is_ok());
///
/// let scaled = ScenarioConfig::scaled(1);
/// assert!(scaled.dcs[0].servers < 200);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// The data centers (Table I).
    pub dcs: Vec<DcConfig>,
    /// Number of hourly slots to simulate (the paper: one week = 168).
    pub horizon_slots: u32,
    /// QoS level for the migration latency constraint (paper: 0.98).
    pub qos: f64,
    /// Workload parameters.
    pub fleet: FleetConfig,
    /// Master seed (weather, BER draws, policy RNGs).
    pub seed: u64,
    /// Dense↔sparse selection and approximation knobs of the per-slot
    /// correlation pipeline.
    pub sparsity: SparsityConfig,
    /// Multiplier on the paper's link capacities (10 Gb/s local,
    /// 100 Gb/s backbone). Scaled-up fleets ship proportionally more
    /// inter-DC data; without fatter pipes the response-time model
    /// saturates into meaninglessness.
    pub link_scale: f64,
    /// Worker threads for every per-slot kernel: the engine's
    /// (correlation CSR builds, the per-DC interval simulation) and,
    /// through [`SystemSnapshot::exec`](crate::snapshot::SystemSnapshot::exec),
    /// the policy's. The executor's determinism contract makes every
    /// setting produce bit-identical reports.
    pub parallelism: Parallelism,
    /// Deterministic slot-indexed perturbations (capacity derates,
    /// price spikes, PV droughts) the engine applies during the run;
    /// empty for the paper's stationary regime.
    pub timeline: EventTimeline,
}

impl ScenarioConfig {
    /// The paper's evaluation setup: Table I fleet, one-week horizon,
    /// QoS 98 %, ~1,200 concurrently active VMs.
    pub fn paper(seed: u64) -> Self {
        let mut fleet = FleetConfig::default();
        // Steady state ≈ groups/slot × mean group size (3.5) × mean
        // lifetime (48) ≈ 1,200 VMs.
        fleet.arrivals.groups_per_slot = 7.0;
        fleet.arrivals.mean_lifetime_slots = 48.0;
        fleet.arrivals.group_size_range = (1, 6);
        fleet.arrivals.initial_groups = 343;
        fleet.arrivals.seed = seed;
        ScenarioConfig {
            dcs: paper_dcs(),
            horizon_slots: 168,
            qos: 0.98,
            fleet,
            seed,
            sparsity: SparsityConfig::default(),
            link_scale: 1.0,
            parallelism: Parallelism::Auto,
            timeline: EventTimeline::default(),
        }
    }

    /// The scaling stress setup: the same three sites grown ~8× to
    /// ≈10,000 concurrently active VMs over one simulated day. Only
    /// tractable through the sparse slot pipeline, which the default
    /// [`dense_crossover`](geoplace_workload::sparsity::SparsityConfig::dense_crossover)
    /// selects at this fleet size.
    pub fn stress(seed: u64) -> Self {
        let mut config = ScenarioConfig::paper(seed);
        for dc in &mut config.dcs {
            dc.servers *= 8;
            dc.pv_kwp *= 8.0;
            dc.battery_kwh *= 8.0;
        }
        config.horizon_slots = 24;
        // Steady state ≈ groups/slot × mean group size (3.5) × mean
        // lifetime (48) ≈ 10,000 VMs.
        config.fleet.arrivals.groups_per_slot = 59.0;
        config.fleet.arrivals.initial_groups = 2857;
        config.link_scale = 8.0;
        // Leaner approximation knobs: at n ≈ 10⁴ the exact-probe budget
        // dominates the slot step; 64 candidates per VM still cover the
        // peak-coincident neighborhood.
        config.sparsity.top_k = 24;
        config.sparsity.candidates_per_vm = 64;
        config
    }

    /// A laptop-scale variant for tests and quick runs: the same
    /// three sites at 1/10 fleet size, one simulated day, ~100 VMs.
    pub fn scaled(seed: u64) -> Self {
        let mut config = ScenarioConfig::paper(seed);
        for dc in &mut config.dcs {
            dc.servers /= 10;
            dc.pv_kwp /= 10.0;
            dc.battery_kwh /= 10.0;
        }
        config.horizon_slots = 24;
        config.fleet.arrivals.groups_per_slot = 1.2;
        config.fleet.arrivals.mean_lifetime_slots = 24.0;
        config.fleet.arrivals.group_size_range = (1, 4);
        config.fleet.arrivals.initial_groups = 40;
        config
    }

    /// Checks global consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.dcs.len() < 2 {
            return Err(Error::invalid_config("need at least two DCs"));
        }
        if self.horizon_slots == 0 {
            return Err(Error::invalid_config("horizon must be at least one slot"));
        }
        if !(0.0..1.0).contains(&(1.0 - self.qos)) || self.qos <= 0.0 {
            return Err(Error::invalid_config("qos must be in (0, 1]"));
        }
        for dc in &self.dcs {
            if dc.servers == 0 {
                return Err(Error::invalid_config(format!(
                    "{} has zero servers",
                    dc.name
                )));
            }
            if dc.pv_kwp < 0.0 || dc.battery_kwh <= 0.0 {
                return Err(Error::invalid_config(format!(
                    "{} has invalid energy sources",
                    dc.name
                )));
            }
            if dc.price_peak < dc.price_off_peak {
                return Err(Error::invalid_config(format!(
                    "{} peak price below off-peak",
                    dc.name
                )));
            }
        }
        if self.link_scale <= 0.0 || !self.link_scale.is_finite() {
            return Err(Error::invalid_config("link_scale must be finite positive"));
        }
        self.timeline.validate(self.dcs.len())?;
        self.fleet.arrivals.validate()
    }
}

/// Table I plus the site data the paper implies (coordinates, climates,
/// two-level tariffs with regional diversity).
pub fn paper_dcs() -> Vec<DcConfig> {
    vec![
        DcConfig {
            name: "Lisbon".into(),
            servers: 1500,
            rooms: 10,
            pv_kwp: 150.0,
            battery_kwh: 960.0,
            latitude_deg: 38.72,
            longitude_deg: -9.14,
            timezone_offset_hours: 0,
            climate_mean_c: 19.0,
            climate_amplitude_c: 6.0,
            price_off_peak: 0.10,
            price_peak: 0.30,
            peak_hours: (8, 22),
        },
        DcConfig {
            name: "Zurich".into(),
            servers: 1000,
            rooms: 10,
            pv_kwp: 100.0,
            battery_kwh: 720.0,
            latitude_deg: 47.37,
            longitude_deg: 8.54,
            timezone_offset_hours: 1,
            climate_mean_c: 12.0,
            climate_amplitude_c: 7.0,
            price_off_peak: 0.055,
            price_peak: 0.22,
            peak_hours: (6, 22),
        },
        DcConfig {
            name: "Helsinki".into(),
            servers: 500,
            rooms: 10,
            pv_kwp: 50.0,
            battery_kwh: 480.0,
            latitude_deg: 60.17,
            longitude_deg: 24.94,
            timezone_offset_hours: 2,
            climate_mean_c: 7.0,
            climate_amplitude_c: 5.0,
            price_off_peak: 0.07,
            price_peak: 0.14,
            peak_hours: (7, 20),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_one() {
        let c = ScenarioConfig::paper(0);
        assert_eq!(c.dcs.len(), 3);
        let lisbon = &c.dcs[0];
        assert_eq!(
            (lisbon.servers, lisbon.pv_kwp, lisbon.battery_kwh),
            (1500, 150.0, 960.0)
        );
        let zurich = &c.dcs[1];
        assert_eq!(
            (zurich.servers, zurich.pv_kwp, zurich.battery_kwh),
            (1000, 100.0, 720.0)
        );
        let helsinki = &c.dcs[2];
        assert_eq!(
            (helsinki.servers, helsinki.pv_kwp, helsinki.battery_kwh),
            (500, 50.0, 480.0)
        );
        assert_eq!(c.horizon_slots, 168);
        assert_eq!(c.qos, 0.98);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_config_is_valid_and_smaller() {
        let c = ScenarioConfig::scaled(0);
        assert!(c.validate().is_ok());
        assert_eq!(c.dcs[0].servers, 150);
        assert!(c.horizon_slots <= 48);
        assert!(c.fleet.arrivals.expected_population() < 200.0);
    }

    #[test]
    fn validation_catches_violations() {
        let mut c = ScenarioConfig::scaled(0);
        c.dcs.truncate(1);
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::scaled(0);
        c.horizon_slots = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::scaled(0);
        c.qos = 0.0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::scaled(0);
        c.dcs[0].servers = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::scaled(0);
        c.dcs[1].price_peak = 0.01;
        assert!(c.validate().is_err());
    }

    #[test]
    fn stress_config_targets_ten_thousand_vms() {
        let c = ScenarioConfig::stress(0);
        assert!(c.validate().is_ok());
        assert_eq!(c.dcs[0].servers, 12_000);
        assert_eq!(c.horizon_slots, 24);
        let expected = c.fleet.arrivals.expected_population();
        assert!(
            (9_000.0..11_500.0).contains(&expected),
            "expected ≈10k VMs, got {expected}"
        );
        // The stress fleet must sit above the dense crossover so Auto
        // picks the sparse pipeline.
        assert!(c.sparsity.use_sparse(expected as usize));
    }

    #[test]
    fn regional_price_diversity_exists() {
        let dcs = paper_dcs();
        let cheapest = dcs
            .iter()
            .map(|d| d.price_off_peak)
            .fold(f64::MAX, f64::min);
        let dearest = dcs.iter().map(|d| d.price_peak).fold(0.0, f64::max);
        assert!(dearest / cheapest > 2.0, "tariff diversity too small");
    }

    #[test]
    fn climates_favor_the_north() {
        let dcs = paper_dcs();
        assert!(dcs[2].climate_mean_c < dcs[0].climate_mean_c);
    }
}
