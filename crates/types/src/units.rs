//! Physical-unit newtypes used throughout the simulator.
//!
//! The simulator mixes energies (server power integration, battery capacity,
//! capacity caps), data volumes (correlation matrices, migration sizes) and
//! rates (link bandwidths). Newtypes keep Joules from being added to
//! Megabytes, a real risk in a codebase where both are `f64`s at heart.
//!
//! All types are plain `f64` wrappers with `pub` inner values — they are
//! passive quantities in the C-struct spirit, so direct field access is the
//! intended API — plus arithmetic impls for the operations that are
//! dimensionally meaningful.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            pub fn clamp(self, lo: $name, hi: $name) -> $name {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// True if the quantity is a finite number (not NaN/inf).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $suffix)
            }
        }
    };
}

unit!(
    /// Instantaneous electrical power in watts.
    ///
    /// # Examples
    ///
    /// ```
    /// use geoplace_types::units::Watts;
    /// let p = Watts(100.0) + Watts(50.0);
    /// assert_eq!(p, Watts(150.0));
    /// ```
    Watts,
    "W"
);
unit!(
    /// Energy in joules (the paper expresses DC capacity caps in joules).
    Joules,
    "J"
);
unit!(
    /// Energy in kilowatt-hours (battery capacities in Table I use kWh).
    KilowattHours,
    "kWh"
);
unit!(
    /// Data volume in megabytes (data-correlation volumes use MB).
    Megabytes,
    "MB"
);
unit!(
    /// Data volume in gigabytes (VM memory footprints are 2/4/8 GB).
    Gigabytes,
    "GB"
);
unit!(
    /// A duration in seconds (latencies, migration budgets).
    Seconds,
    "s"
);
unit!(
    /// Money in euros (operational cost of grid energy).
    Euros,
    "EUR"
);

impl Watts {
    /// Integrates this constant power over a duration, yielding energy.
    ///
    /// # Examples
    ///
    /// ```
    /// use geoplace_types::units::{Joules, Watts};
    /// assert_eq!(Watts(10.0).energy_over_seconds(5.0), Joules(50.0));
    /// ```
    pub fn energy_over_seconds(self, seconds: f64) -> Joules {
        Joules(self.0 * seconds)
    }

    /// Integrates this constant power over a [`Seconds`] duration.
    pub fn energy_over(self, duration: Seconds) -> Joules {
        self.energy_over_seconds(duration.0)
    }
}

impl Joules {
    /// Converts to kilowatt-hours (1 kWh = 3.6 MJ).
    pub fn to_kilowatt_hours(self) -> KilowattHours {
        KilowattHours(self.0 / 3.6e6)
    }
}

impl KilowattHours {
    /// Converts to joules (1 kWh = 3.6 MJ).
    pub fn to_joules(self) -> Joules {
        Joules(self.0 * 3.6e6)
    }
}

impl Megabytes {
    /// Converts to bits (1 MB = 8·10⁶ bits, decimal convention as used for
    /// link bandwidths).
    pub fn to_bits(self) -> f64 {
        self.0 * 8.0e6
    }
}

impl Gigabytes {
    /// Converts to megabytes.
    pub fn to_megabytes(self) -> Megabytes {
        Megabytes(self.0 * 1000.0)
    }

    /// Converts to bits (decimal convention).
    pub fn to_bits(self) -> f64 {
        self.0 * 8.0e9
    }
}

/// Link bandwidth in gigabits per second.
///
/// Kept separate from the data-volume types so that `volume / bandwidth`
/// is the only way to obtain a transfer duration.
///
/// # Examples
///
/// ```
/// use geoplace_types::units::{Gigabytes, GigabitsPerSecond};
/// let link = GigabitsPerSecond(10.0);
/// let t = link.transfer_time_gb(Gigabytes(10.0));
/// assert!((t.0 - 8.0).abs() < 1e-9); // 80 Gbit over 10 Gb/s
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct GigabitsPerSecond(pub f64);

impl GigabitsPerSecond {
    /// Bits moved per second.
    pub fn bits_per_second(self) -> f64 {
        self.0 * 1.0e9
    }

    /// Time to push a [`Gigabytes`] volume through this link.
    pub fn transfer_time_gb(self, volume: Gigabytes) -> Seconds {
        Seconds(volume.to_bits() / self.bits_per_second())
    }

    /// Time to push a [`Megabytes`] volume through this link.
    pub fn transfer_time_mb(self, volume: Megabytes) -> Seconds {
        Seconds(volume.to_bits() / self.bits_per_second())
    }

    /// Volume (in megabytes) this link moves in one second.
    pub fn megabytes_per_second(self) -> Megabytes {
        Megabytes(self.bits_per_second() / 8.0e6)
    }
}

impl Mul<f64> for GigabitsPerSecond {
    type Output = GigabitsPerSecond;
    fn mul(self, rhs: f64) -> GigabitsPerSecond {
        GigabitsPerSecond(self.0 * rhs)
    }
}

impl fmt::Display for GigabitsPerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} Gb/s", self.0)
    }
}

/// Price of grid electricity in euros per kilowatt-hour.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct EurosPerKwh(pub f64);

impl EurosPerKwh {
    /// Cost of buying `energy` at this price.
    pub fn cost_of(self, energy: KilowattHours) -> Euros {
        Euros(self.0 * energy.0)
    }
}

impl fmt::Display for EurosPerKwh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} EUR/kWh", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_integrates_to_energy() {
        let e = Watts(246.0).energy_over_seconds(3600.0);
        assert!((e.0 - 246.0 * 3600.0).abs() < 1e-6);
        assert!((e.to_kilowatt_hours().0 - 0.246).abs() < 1e-9);
    }

    #[test]
    fn kwh_joule_roundtrip() {
        let kwh = KilowattHours(960.0);
        let back = kwh.to_joules().to_kilowatt_hours();
        assert!((back.0 - 960.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_transfer_times() {
        // An 8 GB VM over a 100 Gb/s backbone: 64 Gbit / 100 Gb/s = 0.64 s.
        let t = GigabitsPerSecond(100.0).transfer_time_gb(Gigabytes(8.0));
        assert!((t.0 - 0.64).abs() < 1e-12);
        // 10 MB over 10 Gb/s = 80e6 / 10e9 = 8 ms.
        let t = GigabitsPerSecond(10.0).transfer_time_mb(Megabytes(10.0));
        assert!((t.0 - 0.008).abs() < 1e-12);
    }

    #[test]
    fn unit_arithmetic_is_dimensional() {
        let ratio = Joules(50.0) / Joules(100.0);
        assert!((ratio - 0.5).abs() < 1e-12);
        let scaled = Megabytes(10.0) * 3.0;
        assert_eq!(scaled, Megabytes(30.0));
        let sum: Joules = [Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(sum, Joules(3.0));
    }

    #[test]
    fn price_costs_energy() {
        let bill = EurosPerKwh(0.20).cost_of(KilowattHours(10.0));
        assert!((bill.0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_and_minmax() {
        assert_eq!(Watts(5.0).clamp(Watts(0.0), Watts(3.0)), Watts(3.0));
        assert_eq!(Joules(-1.0).max(Joules::ZERO), Joules::ZERO);
        assert_eq!(Seconds(2.0).min(Seconds(1.0)), Seconds(1.0));
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(Watts(1.0).to_string(), "1.000 W");
        assert_eq!(GigabitsPerSecond(100.0).to_string(), "100.000 Gb/s");
    }
}
