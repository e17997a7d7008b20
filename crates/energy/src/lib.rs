//! Energy substrate for green geo-distributed data centers.
//!
//! Everything the paper's DCs need besides servers:
//!
//! * [`pv`] — photovoltaic arrays with a clear-sky + stochastic-cloud model;
//! * [`forecast`] — the WCMA renewable forecaster (ref \[21\] of the paper);
//! * [`battery`] — lithium-ion banks with a 50 % depth-of-discharge floor;
//! * [`price`] — two-level tariffs with per-site time zones;
//! * [`green`] — the rule-based 5 s green controller that compensates
//!   forecast error by steering PV, battery and grid power.
//!
//! Transient perturbations of these series (tariff spikes, PV
//! droughts) are not modelled here: the engine's event timeline
//! resolves them into per-slot factors that scale the base series.
//!
//! # Examples
//!
//! ```
//! use geoplace_energy::prelude::*;
//! use geoplace_types::time::Tick;
//! use geoplace_types::units::{EurosPerKwh, KilowattHours, Seconds, Watts};
//!
//! let pv = PvArray::new(150.0, Site { latitude_deg: 38.7, timezone_offset_hours: 0 }, 1);
//! let tariff = PriceSchedule::new(EurosPerKwh(0.08), EurosPerKwh(0.20), 8..22, 0)?;
//! let mut battery = Battery::new(KilowattHours(960.0), 0.5)?;
//! let controller = GreenController::default();
//!
//! let tick = Tick(12 * 720); // noon
//! let outcome = controller.step(
//!     pv.power_at(tick),
//!     Watts(120_000.0),
//!     tariff.level(tick.slot()),
//!     &mut battery,
//!     Seconds(5.0),
//! );
//! assert!(outcome.is_physical());
//! # Ok::<(), geoplace_types::Error>(())
//! ```

pub mod battery;
pub mod forecast;
pub mod green;
mod noise;
pub mod price;
pub mod pv;

pub use battery::Battery;
pub use forecast::WcmaForecaster;
pub use green::{GreenController, GreenOutcome};
pub use price::{PriceLevel, PriceSchedule};
pub use pv::{PvArray, Site};

/// Convenient bulk import.
pub mod prelude {
    pub use crate::battery::Battery;
    pub use crate::forecast::WcmaForecaster;
    pub use crate::green::{GreenController, GreenOutcome};
    pub use crate::price::{PriceLevel, PriceSchedule};
    pub use crate::pv::{PvArray, Site};
}
