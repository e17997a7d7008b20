//! Renewable-energy forecasting — WCMA (Weather-Conditioned Moving
//! Average).
//!
//! The paper "implemented the algorithm in \[21\]" (Bergonzini, Brunelli,
//! Benini: *Comparison of energy intake prediction algorithms for systems
//! powered by photovoltaic harvesters*). The best-performing algorithm in
//! that comparison is WCMA: the prediction for the next slot is the mean of
//! the same slot over the past `D` days, scaled by a *GAP* factor that
//! measures how today's sky compares with the historical mean over the last
//! `K` slots:
//!
//! ```text
//! E(d, t+1) = MD(d, t+1) · GAP_K(d, t)
//! MD(d, t)  = mean of E(d−D..d, t)
//! GAP_K     = Σ_k w_k · E(d, t−k)/MD(d, t−k)   (recent samples, weighted)
//! ```

use geoplace_types::time::{TimeSlot, SLOTS_PER_DAY};
use geoplace_types::units::Joules;
use serde::{Deserialize, Serialize};

/// Weather-Conditioned Moving Average forecaster for per-slot PV energy.
///
/// # Examples
///
/// ```
/// use geoplace_energy::forecast::WcmaForecaster;
/// use geoplace_types::{time::TimeSlot, units::Joules};
///
/// let mut wcma = WcmaForecaster::new(4, 3);
/// // Feed two identical sunny days; the day-3 prediction must match.
/// for day in 0..2u32 {
///     for hour in 0..24u32 {
///         let e = if (8..18).contains(&hour) { 100.0 } else { 0.0 };
///         wcma.observe(TimeSlot(day * 24 + hour), Joules(e));
///     }
/// }
/// let noon_forecast = wcma.forecast(TimeSlot(2 * 24 + 12));
/// assert!((noon_forecast.0 - 100.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WcmaForecaster {
    /// Number of past days in the moving average (`D`).
    days: usize,
    /// Number of recent slots in the GAP window (`K`).
    gap_window: usize,
    /// Ring buffer of per-day, per-slot-of-day observed energies.
    history: Vec<Vec<f64>>,
    /// Observations of the current (incomplete) day.
    today: Vec<f64>,
    /// How many full days have been recorded.
    full_days: usize,
    /// Slot-of-day expected next by `observe`.
    cursor: usize,
}

impl WcmaForecaster {
    /// Creates a forecaster averaging over `days` past days with a GAP
    /// window of `gap_window` slots. Both are clamped to at least 1.
    pub fn new(days: usize, gap_window: usize) -> Self {
        let days = days.max(1);
        WcmaForecaster {
            days,
            gap_window: gap_window.max(1),
            history: Vec::with_capacity(days),
            today: vec![f64::NAN; SLOTS_PER_DAY],
            full_days: 0,
            cursor: 0,
        }
    }

    /// Records the energy observed during `slot`.
    ///
    /// Slots must be fed in order; gaps are tolerated (they stay NaN and
    /// are skipped by the averages).
    pub fn observe(&mut self, slot: TimeSlot, energy: Joules) {
        let slot_of_day = slot.hour_of_day() as usize;
        // Day rollover — archive today's record.
        if slot_of_day < self.cursor {
            self.roll_day();
        }
        self.today[slot_of_day] = energy.0.max(0.0);
        self.cursor = slot_of_day;
    }

    fn roll_day(&mut self) {
        if self.history.len() == self.days {
            self.history.remove(0);
        }
        self.history.push(std::mem::replace(
            &mut self.today,
            vec![f64::NAN; SLOTS_PER_DAY],
        ));
        self.full_days += 1;
    }

    /// Mean of the observed energies for `slot_of_day` over the recorded
    /// days; `None` when no history exists yet.
    fn historical_mean(&self, slot_of_day: usize) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0;
        for day in &self.history {
            let v = day[slot_of_day];
            if v.is_finite() {
                sum += v;
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// The GAP factor: how today's recent slots compare with history
    /// (1.0 = average weather, <1 overcast, >1 clearer than usual).
    fn gap(&self) -> f64 {
        let mut weighted = 0.0;
        let mut weights = 0.0;
        let mut examined = 0;
        let mut slot_of_day = self.cursor as isize;
        while examined < self.gap_window && slot_of_day >= 0 {
            let idx = slot_of_day as usize;
            let observed = self.today[idx];
            if observed.is_finite() {
                if let Some(mean) = self.historical_mean(idx) {
                    // Skip night slots: 0/0 carries no weather information.
                    if mean > 1e-9 {
                        // Linearly decaying weights: the most recent slot
                        // counts most.
                        let w = (self.gap_window - examined) as f64;
                        weighted += w * (observed / mean);
                        weights += w;
                    }
                }
            }
            examined += 1;
            slot_of_day -= 1;
        }
        if weights > 0.0 {
            (weighted / weights).clamp(0.1, 3.0)
        } else {
            1.0
        }
    }

    /// Forecasts the energy of `slot` (normally the slot about to begin).
    ///
    /// Falls back to persistence (the last finite observation) while fewer
    /// than one full day of history exists, and to zero with no data at
    /// all.
    pub fn forecast(&self, slot: TimeSlot) -> Joules {
        let slot_of_day = slot.hour_of_day() as usize;
        match self.historical_mean(slot_of_day) {
            Some(mean) => Joules((mean * self.gap()).max(0.0)),
            None => {
                // Persistence fallback: last finite observation today.
                let last = self.today[..=self.cursor.min(SLOTS_PER_DAY - 1)]
                    .iter()
                    .rev()
                    .find(|v| v.is_finite());
                Joules(last.copied().unwrap_or(0.0))
            }
        }
    }

    /// Number of complete days recorded so far.
    pub fn recorded_days(&self) -> usize {
        self.full_days
    }
}

impl geoplace_types::snap::Snapshot for WcmaForecaster {
    /// Saves the observation history. Rows are stored by exact `f64` bit
    /// pattern so the NaN gap markers round-trip unchanged.
    fn save_state(&self, w: &mut geoplace_types::snap::SnapWriter) {
        w.write_u32(self.history.len() as u32);
        for day in &self.history {
            for &v in day {
                w.write_f64(v);
            }
        }
        for &v in &self.today {
            w.write_f64(v);
        }
        w.write_u64(self.full_days as u64);
        w.write_u32(self.cursor as u32);
    }

    fn restore_state(
        &mut self,
        r: &mut geoplace_types::snap::SnapReader<'_>,
    ) -> geoplace_types::Result<()> {
        let at = r.offset();
        let days = r.read_u32()? as usize;
        if days > self.days {
            return Err(geoplace_types::Error::snapshot(
                "dcs",
                at,
                format!(
                    "forecaster history of {days} days exceeds the configured window of {}",
                    self.days
                ),
            ));
        }
        let mut history = Vec::with_capacity(days);
        for _ in 0..days {
            let mut day = vec![0.0f64; SLOTS_PER_DAY];
            for v in &mut day {
                *v = r.read_f64()?;
            }
            history.push(day);
        }
        let mut today = vec![0.0f64; SLOTS_PER_DAY];
        for v in &mut today {
            *v = r.read_f64()?;
        }
        let full_days = r.read_u64()? as usize;
        let at = r.offset();
        let cursor = r.read_u32()? as usize;
        if cursor >= SLOTS_PER_DAY {
            return Err(geoplace_types::Error::snapshot(
                "dcs",
                at,
                format!("forecaster cursor {cursor} is past the {SLOTS_PER_DAY}-slot day"),
            ));
        }
        self.history = history;
        self.today = today;
        self.full_days = full_days;
        self.cursor = cursor;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clear-sky bell curve used by the tests: strictly zero at night.
    fn bell(hour: u32) -> f64 {
        if !(6..=18).contains(&hour) {
            return 0.0;
        }
        let x = (hour as f64 - 12.0) / 4.0;
        (1000.0 * (-x * x).exp()).floor()
    }

    fn feed_day(wcma: &mut WcmaForecaster, day: u32, scale: f64) {
        for hour in 0..SLOTS_PER_DAY as u32 {
            wcma.observe(
                TimeSlot(day * SLOTS_PER_DAY as u32 + hour),
                Joules(bell(hour) * scale),
            );
        }
    }

    #[test]
    fn repeating_weather_is_predicted_exactly() {
        let mut wcma = WcmaForecaster::new(3, 4);
        for day in 0..3 {
            feed_day(&mut wcma, day, 1.0);
        }
        for hour in 6..20u32 {
            let f = wcma.forecast(TimeSlot(3 * 24 + hour));
            assert!(
                (f.0 - bell(hour)).abs() < 1e-6,
                "hour {hour}: forecast {f} vs {}",
                bell(hour)
            );
        }
    }

    #[test]
    fn gap_scales_for_overcast_morning() {
        let mut wcma = WcmaForecaster::new(3, 4);
        for day in 0..3 {
            feed_day(&mut wcma, day, 1.0);
        }
        // Day 3: a 50 % overcast morning up to 11:00.
        for hour in 0..12u32 {
            wcma.observe(TimeSlot(3 * 24 + hour), Joules(bell(hour) * 0.5));
        }
        let noon = wcma.forecast(TimeSlot(3 * 24 + 12));
        // Forecast should be scaled near 50 % of the historical mean.
        assert!(
            (noon.0 - bell(12) * 0.5).abs() < bell(12) * 0.15,
            "noon forecast {noon} vs scaled {}",
            bell(12) * 0.5
        );
    }

    #[test]
    fn night_slots_forecast_zero() {
        let mut wcma = WcmaForecaster::new(2, 3);
        for day in 0..2 {
            feed_day(&mut wcma, day, 1.0);
        }
        assert_eq!(wcma.forecast(TimeSlot(2 * 24 + 2)).0, 0.0);
    }

    #[test]
    fn persistence_fallback_before_history() {
        let mut wcma = WcmaForecaster::new(3, 3);
        wcma.observe(TimeSlot(9), Joules(640.0));
        let f = wcma.forecast(TimeSlot(10));
        assert_eq!(f.0, 640.0);
        // With nothing at all: zero.
        let empty = WcmaForecaster::new(3, 3);
        assert_eq!(empty.forecast(TimeSlot(10)).0, 0.0);
    }

    #[test]
    fn day_count_rolls_correctly() {
        let mut wcma = WcmaForecaster::new(2, 3);
        assert_eq!(wcma.recorded_days(), 0);
        for day in 0..4 {
            feed_day(&mut wcma, day, 1.0);
        }
        // 3 rollovers happened (day 3 still in progress at the end of the
        // loop? No: feeding day d+1's slot 0 rolls day d — the 4th day's
        // record is complete but not yet rolled).
        assert_eq!(wcma.recorded_days(), 3);
    }

    #[test]
    fn gap_is_clamped_against_sensor_spikes() {
        let mut wcma = WcmaForecaster::new(2, 2);
        for day in 0..2 {
            feed_day(&mut wcma, day, 1.0);
        }
        // Absurd spike at 11:00 on day 2.
        for hour in 0..11u32 {
            wcma.observe(TimeSlot(2 * 24 + hour), Joules(bell(hour)));
        }
        wcma.observe(TimeSlot(2 * 24 + 11), Joules(bell(11) * 1000.0));
        let noon = wcma.forecast(TimeSlot(2 * 24 + 12));
        assert!(noon.0 <= bell(12) * 3.0 + 1e-9, "GAP clamp failed: {noon}");
    }

    #[test]
    fn forecast_is_never_negative() {
        let mut wcma = WcmaForecaster::new(2, 2);
        feed_day(&mut wcma, 0, 1.0);
        feed_day(&mut wcma, 1, 1.0);
        for hour in 0..24u32 {
            assert!(wcma.forecast(TimeSlot(2 * 24 + hour)).0 >= 0.0);
        }
    }
}
