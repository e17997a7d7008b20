//! Server power model: Intel Xeon E5410 with two DVFS levels.
//!
//! The paper targets "an Intel Xeon E5410 server consisting of 8 cores and
//! two frequency levels (2.0 GHz and 2.3 GHz)" and uses the power model of
//! Pedram et al. (ref \[19\]) — an affine function of utilization per
//! frequency level. An idle (VM-less) server is powered off and draws
//! nothing; consolidation saves the idle power, which is why packing onto
//! few servers matters.

use geoplace_types::units::Watts;
use geoplace_types::{Error, Result};
use serde::{Deserialize, Serialize};

/// Index into a server's DVFS table (0 = lowest frequency).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FreqLevel(pub usize);

/// One DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core frequency in GHz.
    pub ghz: f64,
    /// Power when powered on but unloaded.
    pub idle: Watts,
    /// Power at 100 % utilization of this level's capacity.
    pub full: Watts,
}

/// DVFS table plus core count of a server model.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::power::{FreqLevel, ServerPowerModel};
///
/// let model = ServerPowerModel::xeon_e5410();
/// assert_eq!(model.levels().len(), 2);
/// // Full speed: 8 cores at the top frequency.
/// assert_eq!(model.capacity_cores(model.max_level()), 8.0);
/// // The lower level trades capacity for power.
/// assert!(model.capacity_cores(FreqLevel(0)) < 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerPowerModel {
    cores: u32,
    /// Operating points sorted by ascending frequency.
    levels: Vec<OperatingPoint>,
}

impl ServerPowerModel {
    /// Creates a model from operating points (sorted ascending by GHz).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the table is empty, unsorted, or
    /// has non-positive frequencies / negative powers.
    pub fn new(cores: u32, levels: Vec<OperatingPoint>) -> Result<Self> {
        if cores == 0 {
            return Err(Error::invalid_config("server must have at least one core"));
        }
        if levels.is_empty() {
            return Err(Error::invalid_config("DVFS table must not be empty"));
        }
        for pair in levels.windows(2) {
            if pair[0].ghz >= pair[1].ghz {
                return Err(Error::invalid_config(
                    "DVFS table must be sorted by frequency",
                ));
            }
        }
        for point in &levels {
            if point.ghz <= 0.0 || point.idle.0 < 0.0 || point.full.0 < point.idle.0 {
                return Err(Error::invalid_config("invalid DVFS operating point"));
            }
        }
        Ok(ServerPowerModel { cores, levels })
    }

    /// The paper's target: Xeon E5410, 8 cores, 2.0 GHz and 2.3 GHz.
    ///
    /// Wattages follow the affine model family of ref \[19\] for this
    /// platform: 2.3 GHz idles at 166 W and peaks at 246 W; 2.0 GHz idles
    /// at 141 W and peaks at 209 W.
    pub fn xeon_e5410() -> Self {
        ServerPowerModel::new(
            8,
            vec![
                OperatingPoint {
                    ghz: 2.0,
                    idle: Watts(141.0),
                    full: Watts(209.0),
                },
                OperatingPoint {
                    ghz: 2.3,
                    idle: Watts(166.0),
                    full: Watts(246.0),
                },
            ],
        )
        .expect("static table is valid")
    }

    /// Physical core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The DVFS table.
    pub fn levels(&self) -> &[OperatingPoint] {
        &self.levels
    }

    /// The highest operating point.
    pub fn max_level(&self) -> FreqLevel {
        FreqLevel(self.levels.len() - 1)
    }

    /// Compute capacity at a level, in *core-equivalents of the top
    /// frequency*: `cores · f_level / f_max`. VM demand is expressed in the
    /// same unit, so a fit check is `Σ demand ≤ capacity_cores(level)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn capacity_cores(&self, level: FreqLevel) -> f64 {
        let top = self.levels.last().expect("non-empty").ghz;
        self.cores as f64 * self.levels[level.0].ghz / top
    }

    /// Electrical power at `level` under `load_cores` core-equivalents of
    /// demand (clamped to the level's capacity).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn power(&self, level: FreqLevel, load_cores: f64) -> Watts {
        let point = self.levels[level.0];
        let capacity = self.capacity_cores(level);
        let utilization = (load_cores / capacity).clamp(0.0, 1.0);
        point.idle + (point.full - point.idle) * utilization
    }

    /// The lowest level whose capacity covers `load_cores` with the given
    /// headroom factor (e.g. 1.0 = exact fit); `None` if even the top
    /// level cannot.
    pub fn min_level_for(&self, load_cores: f64, headroom: f64) -> Option<FreqLevel> {
        (0..self.levels.len())
            .map(FreqLevel)
            .find(|&l| load_cores * headroom <= self.capacity_cores(l))
    }

    /// Energy-optimal frequency selection as in ref \[5\]: run at the lowest
    /// frequency that still covers the *peak* demand, because a lower
    /// operating point strictly dominates on power.
    pub fn dvfs_select(&self, peak_load_cores: f64) -> FreqLevel {
        self.min_level_for(peak_load_cores, 1.0)
            .unwrap_or(self.max_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5410_table_matches_paper() {
        let m = ServerPowerModel::xeon_e5410();
        assert_eq!(m.cores(), 8);
        assert_eq!(m.levels()[0].ghz, 2.0);
        assert_eq!(m.levels()[1].ghz, 2.3);
    }

    #[test]
    fn capacity_scales_with_frequency() {
        let m = ServerPowerModel::xeon_e5410();
        assert_eq!(m.capacity_cores(FreqLevel(1)), 8.0);
        let low = m.capacity_cores(FreqLevel(0));
        assert!((low - 8.0 * 2.0 / 2.3).abs() < 1e-12);
    }

    #[test]
    fn power_is_affine_and_monotone() {
        let m = ServerPowerModel::xeon_e5410();
        let top = m.max_level();
        assert_eq!(m.power(top, 0.0), Watts(166.0));
        assert_eq!(m.power(top, 8.0), Watts(246.0));
        let half = m.power(top, 4.0);
        assert!((half.0 - 206.0).abs() < 1e-9);
        // Monotone in load.
        assert!(m.power(top, 2.0).0 < m.power(top, 6.0).0);
        // Load beyond capacity clamps at full power.
        assert_eq!(m.power(top, 100.0), Watts(246.0));
    }

    #[test]
    fn lower_level_saves_power_at_same_load() {
        let m = ServerPowerModel::xeon_e5410();
        let load = 4.0;
        let p_low = m.power(FreqLevel(0), load);
        let p_high = m.power(FreqLevel(1), load);
        assert!(p_low.0 < p_high.0, "low {p_low} vs high {p_high}");
    }

    #[test]
    fn dvfs_select_picks_lowest_adequate() {
        let m = ServerPowerModel::xeon_e5410();
        // 6.9 cores fits in 2.0 GHz capacity (6.956).
        assert_eq!(m.dvfs_select(6.9), FreqLevel(0));
        // 7.5 cores needs the top level.
        assert_eq!(m.dvfs_select(7.5), FreqLevel(1));
        // Overload: top level anyway.
        assert_eq!(m.dvfs_select(9.0), FreqLevel(1));
    }

    #[test]
    fn min_level_accounts_for_headroom() {
        let m = ServerPowerModel::xeon_e5410();
        // 6.5 cores with 10 % headroom needs 7.15 > 6.956 → top level.
        assert_eq!(m.min_level_for(6.5, 1.1), Some(FreqLevel(1)));
        assert_eq!(m.min_level_for(6.5, 1.0), Some(FreqLevel(0)));
        assert_eq!(m.min_level_for(9.0, 1.0), None);
    }

    #[test]
    fn construction_validates() {
        let p = |ghz, idle, full| OperatingPoint {
            ghz,
            idle: Watts(idle),
            full: Watts(full),
        };
        assert!(ServerPowerModel::new(0, vec![p(2.0, 100.0, 200.0)]).is_err());
        assert!(ServerPowerModel::new(8, vec![]).is_err());
        assert!(ServerPowerModel::new(8, vec![p(2.3, 1.0, 2.0), p(2.0, 1.0, 2.0)]).is_err());
        assert!(ServerPowerModel::new(8, vec![p(2.0, 200.0, 100.0)]).is_err());
        assert!(ServerPowerModel::new(8, vec![p(-1.0, 1.0, 2.0)]).is_err());
    }
}
