//! Per-DC runtime state owned by the simulation engine.

use crate::config::DcConfig;
use crate::power::ServerPowerModel;
use crate::pue::{PueModel, SiteClimate};
use geoplace_energy::battery::Battery;
use geoplace_energy::forecast::WcmaForecaster;
use geoplace_energy::price::PriceSchedule;
use geoplace_energy::pv::{PvArray, Site};
use geoplace_types::time::TimeSlot;
use geoplace_types::units::{EurosPerKwh, Joules, KilowattHours};
use geoplace_types::{DcId, Result};

/// A data center's mutable runtime state: energy sources, forecaster and
/// the energy bookkeeping the capacity caps feed on.
#[derive(Debug, Clone)]
pub struct DataCenter {
    /// The DC's id.
    pub id: DcId,
    /// Static configuration.
    pub config: DcConfig,
    /// Server hardware (identical across DCs in the paper).
    pub power_model: ServerPowerModel,
    /// The PV array.
    pub pv: PvArray,
    /// The battery bank.
    pub battery: Battery,
    /// The site tariff.
    pub price: PriceSchedule,
    /// The site climate (drives the PUE).
    pub climate: SiteClimate,
    /// The WCMA renewable forecaster.
    pub forecaster: WcmaForecaster,
    /// IT energy consumed during the previous slot.
    pub last_it_energy: Joules,
    /// Total (IT × PUE) energy consumed during the previous slot.
    pub last_total_energy: Joules,
}

impl DataCenter {
    /// Builds runtime state from a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`geoplace_types::Error::InvalidConfig`] when the config's
    /// battery or tariff parameters are invalid.
    pub fn build(id: DcId, config: DcConfig, seed: u64) -> Result<Self> {
        let site = Site {
            latitude_deg: config.latitude_deg,
            timezone_offset_hours: config.timezone_offset_hours,
        };
        let pv = PvArray::new(config.pv_kwp, site, seed ^ (0xC10D << id.index()));
        let battery = Battery::new(KilowattHours(config.battery_kwh), 0.5)?;
        let price = PriceSchedule::new(
            EurosPerKwh(config.price_off_peak),
            EurosPerKwh(config.price_peak),
            config.peak_hours.0..config.peak_hours.1,
            config.timezone_offset_hours,
        )?;
        let climate = config.climate();
        Ok(DataCenter {
            id,
            power_model: ServerPowerModel::xeon_e5410(),
            pv,
            battery,
            price,
            climate,
            forecaster: WcmaForecaster::new(4, 3),
            last_it_energy: Joules::ZERO,
            last_total_energy: Joules::ZERO,
            config,
        })
    }

    /// The PUE expected during `slot`.
    pub fn pue_at(&self, slot: TimeSlot) -> f64 {
        PueModel::pue(&self.climate, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::paper_dcs;

    #[test]
    fn build_all_paper_dcs() {
        for (i, config) in paper_dcs().into_iter().enumerate() {
            let dc = DataCenter::build(DcId(i as u16), config, 7).unwrap();
            assert!(dc.battery.capacity().0 > 0.0);
            assert!(dc.pue_at(TimeSlot(0)) >= 1.0);
        }
    }

    #[test]
    fn pue_varies_over_the_day() {
        let config = paper_dcs().remove(0);
        let dc = DataCenter::build(DcId(0), config, 7).unwrap();
        let night = dc.pue_at(TimeSlot(4));
        let afternoon = dc.pue_at(TimeSlot(15));
        assert!(afternoon > night);
    }

    #[test]
    fn batteries_start_full() {
        let config = paper_dcs().remove(2);
        let dc = DataCenter::build(DcId(2), config, 7).unwrap();
        assert!((dc.battery.soc_fraction() - 1.0).abs() < 1e-12);
    }
}
