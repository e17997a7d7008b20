//! Time-varying PUE (Power Usage Effectiveness) with free cooling.
//!
//! The paper uses "a time-varying PUE model, as in \[20\]" (Kim et al.,
//! *Free cooling-aware dynamic power management for green datacenters*,
//! HPCS 2012): when the outside air is cold the DC cools for almost free
//! (PUE ≈ 1.1); as temperature rises, mechanical chillers ramp the PUE up.
//! Each site gets a diurnal sinusoidal temperature around a site-specific
//! mean, so the *northern* DC is structurally cheaper to cool — one of the
//! geo-diversity levers the global controller can exploit.

use geoplace_types::time::TimeSlot;
use serde::{Deserialize, Serialize};

/// Diurnal outside-temperature model of one site.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::pue::SiteClimate;
/// use geoplace_types::time::TimeSlot;
///
/// let helsinki = SiteClimate { mean_c: 7.0, amplitude_c: 5.0, timezone_offset_hours: 2 };
/// let t_night = helsinki.temperature_c(TimeSlot(1));
/// let t_day = helsinki.temperature_c(TimeSlot(12));
/// assert!(t_day > t_night);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteClimate {
    /// Daily mean temperature in °C.
    pub mean_c: f64,
    /// Half peak-to-trough swing in °C.
    pub amplitude_c: f64,
    /// Site offset from simulation base time.
    pub timezone_offset_hours: i32,
}

impl SiteClimate {
    /// Outside temperature at `slot`: a sinusoid peaking at 15:00 local.
    pub fn temperature_c(&self, slot: TimeSlot) -> f64 {
        let local = slot.local_hour(self.timezone_offset_hours) as f64;
        let angle = (local - 15.0) / 24.0 * std::f64::consts::TAU;
        self.mean_c + self.amplitude_c * angle.cos()
    }
}

/// The free-cooling PUE curve of ref \[20\]:
/// `PUE(T) = BASE + RAMP · σ((T − THRESHOLD_C) / WIDTH_C)`, shared by
/// every DC.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::pue::PueModel;
/// assert!(PueModel::pue_at_temperature(0.0) < PueModel::pue_at_temperature(30.0));
/// assert!(PueModel::pue_at_temperature(-10.0) >= 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PueModel;

impl PueModel {
    /// PUE with pure free cooling (fans, pumps, power distribution).
    pub const BASE: f64 = 1.12;
    /// Extra overhead when chillers run flat out.
    pub const RAMP: f64 = 0.18;
    /// Temperature at the half-way point of the chiller ramp, °C.
    pub const THRESHOLD_C: f64 = 18.0;
    /// Ramp width, °C.
    pub const WIDTH_C: f64 = 4.0;

    /// The PUE at a given outside temperature.
    pub fn pue_at_temperature(temp_c: f64) -> f64 {
        let x = (temp_c - Self::THRESHOLD_C) / Self::WIDTH_C;
        Self::BASE + Self::RAMP * sigmoid(x)
    }

    /// The PUE of a site at a slot.
    pub fn pue(climate: &SiteClimate, slot: TimeSlot) -> f64 {
        Self::pue_at_temperature(climate.temperature_c(slot))
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pue_is_bounded() {
        for t in -30..50 {
            let v = PueModel::pue_at_temperature(t as f64);
            assert!(
                (PueModel::BASE..=PueModel::BASE + PueModel::RAMP).contains(&v),
                "PUE {v} at {t}°C"
            );
        }
    }

    #[test]
    fn pue_monotone_in_temperature() {
        let mut prev = 0.0;
        for t in -30..50 {
            let v = PueModel::pue_at_temperature(t as f64);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn cold_site_beats_warm_site() {
        let helsinki = SiteClimate {
            mean_c: 7.0,
            amplitude_c: 5.0,
            timezone_offset_hours: 2,
        };
        let lisbon = SiteClimate {
            mean_c: 19.0,
            amplitude_c: 6.0,
            timezone_offset_hours: 0,
        };
        let avg = |c: &SiteClimate| -> f64 {
            (0..24u32)
                .map(|h| PueModel::pue(c, TimeSlot(h)))
                .sum::<f64>()
                / 24.0
        };
        assert!(avg(&helsinki) < avg(&lisbon));
    }

    #[test]
    fn temperature_peaks_mid_afternoon_local() {
        let site = SiteClimate {
            mean_c: 15.0,
            amplitude_c: 8.0,
            timezone_offset_hours: 0,
        };
        let hottest = (0..24u32)
            .max_by(|&a, &b| {
                site.temperature_c(TimeSlot(a))
                    .partial_cmp(&site.temperature_c(TimeSlot(b)))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(hottest, 15);
    }

    #[test]
    fn night_cooling_lowers_pue() {
        let site = SiteClimate {
            mean_c: 18.0,
            amplitude_c: 6.0,
            timezone_offset_hours: 0,
        };
        let night = PueModel::pue(&site, TimeSlot(3));
        let afternoon = PueModel::pue(&site, TimeSlot(15));
        assert!(night < afternoon);
    }
}
