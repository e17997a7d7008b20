//! Simulation metrics: per-slot records, weekly totals, histograms.
//!
//! One [`SimulationReport`] per policy run carries everything needed to
//! regenerate the paper's Figures 1–6: hourly cost and energy series
//! (Figs. 1–2), response-time samples (Fig. 3) and the summary totals the
//! trade-off plots project (Figs. 4–6).

use geoplace_types::hash::Fnv64;
use serde::{Deserialize, Serialize};

/// Metrics of one hourly slot, aggregated over all DCs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HourlyRecord {
    /// The slot.
    pub slot: u32,
    /// Grid cost in EUR.
    pub cost_eur: f64,
    /// IT energy in J.
    pub it_energy_j: f64,
    /// Total energy (IT × PUE) in J — what Fig. 2 plots.
    pub total_energy_j: f64,
    /// Energy bought from the grid in J.
    pub grid_energy_j: f64,
    /// PV energy consumed (directly or via battery) in J.
    pub pv_used_j: f64,
    /// PV energy wasted (battery full) in J.
    pub pv_curtailed_j: f64,
    /// Battery energy delivered to loads in J.
    pub battery_discharge_j: f64,
    /// Inter-DC migrations *executed* at the slot boundary (within the
    /// QoS latency budget).
    pub migrations: u32,
    /// Volume moved by those migrations, GB.
    pub migration_volume_gb: f64,
    /// Migrations the policy wanted but the engine rejected because they
    /// could not complete within the QoS budget — the VM stayed in its
    /// previous DC.
    pub migration_overruns: u32,
    /// Worst-case response time across destination DCs, seconds.
    pub response_worst_s: f64,
    /// Mean response time across destination DCs, seconds.
    pub response_mean_s: f64,
    /// Powered-on servers.
    pub active_servers: u32,
    /// Active VMs.
    pub active_vms: u32,
}

/// Scalar summary of a run — the quantities Figs. 4–6 compare.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Totals {
    /// Total grid cost, EUR.
    pub cost_eur: f64,
    /// Total energy, GJ (Fig. 2 reports 55–67 GJ at paper scale).
    pub energy_gj: f64,
    /// Total grid energy, GJ.
    pub grid_energy_gj: f64,
    /// Worst response-time sample of the run, s.
    pub worst_response_s: f64,
    /// Mean of the per-slot worst-case response times, s.
    pub mean_response_s: f64,
    /// 95th percentile of response samples, s (SLA-style tail metric).
    pub p95_response_s: f64,
    /// Total migrations.
    pub migrations: u64,
    /// Total migration volume, GB.
    pub migration_volume_gb: f64,
    /// Migrations that blew the latency budget.
    pub migration_overruns: u64,
    /// Mean number of powered-on servers.
    pub mean_active_servers: f64,
}

/// Full result of one policy run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Policy display name.
    pub policy: String,
    /// One record per simulated slot.
    pub hourly: Vec<HourlyRecord>,
    /// Response-time samples: one per `(slot, destination DC)` pair —
    /// the population whose PDF is Fig. 3.
    pub response_samples: Vec<f64>,
    /// Per-DC total energy in GJ (diagnostic).
    pub per_dc_energy_gj: Vec<f64>,
}

impl SimulationReport {
    /// Creates an empty report for a policy.
    pub fn new(policy: impl Into<String>, n_dcs: usize) -> Self {
        SimulationReport {
            policy: policy.into(),
            hourly: Vec::new(),
            response_samples: Vec::new(),
            per_dc_energy_gj: vec![0.0; n_dcs],
        }
    }

    /// Scalar totals over the whole run.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for h in &self.hourly {
            t.cost_eur += h.cost_eur;
            t.energy_gj += h.total_energy_j / 1e9;
            t.grid_energy_gj += h.grid_energy_j / 1e9;
            t.migrations += u64::from(h.migrations);
            t.migration_volume_gb += h.migration_volume_gb;
            t.migration_overruns += u64::from(h.migration_overruns);
            t.mean_active_servers += f64::from(h.active_servers);
            t.worst_response_s = t.worst_response_s.max(h.response_worst_s);
        }
        let n = self.hourly.len().max(1) as f64;
        t.mean_active_servers /= n;
        t.mean_response_s = self.hourly.iter().map(|h| h.response_worst_s).sum::<f64>() / n;
        t.p95_response_s = percentile(&self.response_samples, 0.95);
        t
    }

    /// The hourly cost series (Fig. 1 raw data).
    pub fn hourly_cost(&self) -> Vec<f64> {
        self.hourly.iter().map(|h| h.cost_eur).collect()
    }

    /// The hourly total-energy series in GJ (Fig. 2 raw data).
    pub fn hourly_energy_gj(&self) -> Vec<f64> {
        self.hourly.iter().map(|h| h.total_energy_j / 1e9).collect()
    }

    /// Record one finished slot.
    pub fn push_hour(&mut self, record: HourlyRecord) {
        self.hourly.push(record);
    }

    /// Renders the hourly records as CSV (header + one row per slot) —
    /// the raw data behind Figs. 1–2, ready for external plotting.
    ///
    /// # Examples
    ///
    /// ```
    /// use geoplace_dcsim::metrics::{HourlyRecord, SimulationReport};
    /// let mut report = SimulationReport::new("Proposed", 3);
    /// report.push_hour(HourlyRecord { slot: 0, cost_eur: 1.5, ..Default::default() });
    /// let csv = report.to_csv();
    /// assert!(csv.starts_with("slot,cost_eur"));
    /// assert!(csv.lines().count() == 2);
    /// ```
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "slot,cost_eur,it_energy_j,total_energy_j,grid_energy_j,pv_used_j,\
             pv_curtailed_j,battery_discharge_j,migrations,migration_volume_gb,\
             migration_overruns,response_worst_s,response_mean_s,active_servers,active_vms\n",
        );
        for h in &self.hourly {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                h.slot,
                h.cost_eur,
                h.it_energy_j,
                h.total_energy_j,
                h.grid_energy_j,
                h.pv_used_j,
                h.pv_curtailed_j,
                h.battery_discharge_j,
                h.migrations,
                h.migration_volume_gb,
                h.migration_overruns,
                h.response_worst_s,
                h.response_mean_s,
                h.active_servers,
                h.active_vms,
            ));
        }
        out
    }

    /// Renders the response samples as a one-column CSV (Fig. 3 raw data).
    pub fn response_samples_csv(&self) -> String {
        let mut out = String::from("response_s\n");
        for sample in &self.response_samples {
            out.push_str(&format!("{sample}\n"));
        }
        out
    }

    /// Canonical 64-bit digest of the *entire* report — policy name,
    /// every hourly field (exact `f64` bit patterns), every response
    /// sample and the per-DC energy vector.
    ///
    /// Two reports digest equal iff they are bit-identical, which makes
    /// this the currency of the golden-regression matrix: same scenario,
    /// policy and seed must reproduce the committed digest on any
    /// machine and at any [`Parallelism`](geoplace_types::Parallelism)
    /// setting (the executor's determinism contract).
    pub fn digest64(&self) -> u64 {
        let mut hash = Fnv64::new();
        hash.write_bytes(self.policy.as_bytes());
        hash.write_u64(self.hourly.len() as u64);
        for h in &self.hourly {
            hash.write_u64(u64::from(h.slot));
            hash.write_f64(h.cost_eur);
            hash.write_f64(h.it_energy_j);
            hash.write_f64(h.total_energy_j);
            hash.write_f64(h.grid_energy_j);
            hash.write_f64(h.pv_used_j);
            hash.write_f64(h.pv_curtailed_j);
            hash.write_f64(h.battery_discharge_j);
            hash.write_u64(u64::from(h.migrations));
            hash.write_f64(h.migration_volume_gb);
            hash.write_u64(u64::from(h.migration_overruns));
            hash.write_f64(h.response_worst_s);
            hash.write_f64(h.response_mean_s);
            hash.write_u64(u64::from(h.active_servers));
            hash.write_u64(u64::from(h.active_vms));
        }
        hash.write_u64(self.response_samples.len() as u64);
        for &sample in &self.response_samples {
            hash.write_f64(sample);
        }
        hash.write_u64(self.per_dc_energy_gj.len() as u64);
        for &energy in &self.per_dc_energy_gj {
            hash.write_f64(energy);
        }
        hash.finish()
    }

    /// [`SimulationReport::digest64`] rendered as 16 lowercase hex
    /// digits — the form committed to the golden files.
    pub fn digest(&self) -> String {
        format!("{:016x}", self.digest64())
    }
}

/// `q`-th percentile (0..1) of a sample set by linear interpolation;
/// 0.0 for empty input.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A fixed-bin histogram for the Fig. 3 probability-density plot.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::metrics::Histogram;
/// let h = Histogram::from_samples(&[0.1, 0.2, 0.2, 0.9], 10, 1.0);
/// let pdf = h.pdf();
/// assert_eq!(pdf.len(), 10);
/// assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    max_value: f64,
    total: u64,
}

impl Histogram {
    /// Bins `samples` into `bins` equal-width bins over `[0, max_value]`;
    /// values above `max_value` land in the last bin.
    pub fn from_samples(samples: &[f64], bins: usize, max_value: f64) -> Self {
        let bins = bins.max(1);
        let mut counts = vec![0u64; bins];
        for &s in samples {
            let idx = if max_value <= 0.0 {
                0
            } else {
                (((s / max_value) * bins as f64).floor() as usize).min(bins - 1)
            };
            counts[idx] += 1;
        }
        Histogram {
            counts,
            max_value,
            total: samples.len() as u64,
        }
    }

    /// Normalized bin probabilities (sum 1; all zeros for no samples).
    pub fn pdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Bin centers matching [`Histogram::pdf`].
    pub fn bin_centers(&self) -> Vec<f64> {
        let width = self.max_value / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| (i as f64 + 0.5) * width)
            .collect()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cost: f64, energy: f64, response: f64) -> HourlyRecord {
        HourlyRecord {
            cost_eur: cost,
            total_energy_j: energy,
            response_worst_s: response,
            ..HourlyRecord::default()
        }
    }

    #[test]
    fn totals_aggregate_hours() {
        let mut r = SimulationReport::new("test", 3);
        r.push_hour(record(10.0, 2e9, 5.0));
        r.push_hour(record(20.0, 3e9, 9.0));
        let t = r.totals();
        assert!((t.cost_eur - 30.0).abs() < 1e-9);
        assert!((t.energy_gj - 5.0).abs() < 1e-9);
        assert!((t.worst_response_s - 9.0).abs() < 1e-9);
        assert!((t.mean_response_s - 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_has_zero_totals() {
        let r = SimulationReport::new("empty", 2);
        let t = r.totals();
        assert_eq!(t.cost_eur, 0.0);
        assert_eq!(t.energy_gj, 0.0);
        assert_eq!(t.p95_response_s, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&s, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&s, 1.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_bins_and_normalizes() {
        let h = Histogram::from_samples(&[0.05, 0.15, 0.15, 0.95, 2.0], 10, 1.0);
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        // 0.95 and the out-of-range 2.0 both land in the last bin.
        assert_eq!(counts[9], 2);
        assert!((h.pdf().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bin_centers_cover_range() {
        let h = Histogram::from_samples(&[0.5], 4, 1.0);
        assert_eq!(h.bin_centers(), vec![0.125, 0.375, 0.625, 0.875]);
    }

    #[test]
    fn hourly_series_extract() {
        let mut r = SimulationReport::new("s", 1);
        r.push_hour(record(5.0, 1e9, 1.0));
        r.push_hour(record(7.0, 2e9, 2.0));
        assert_eq!(r.hourly_cost(), vec![5.0, 7.0]);
        assert_eq!(r.hourly_energy_gj(), vec![1.0, 2.0]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = SimulationReport::new("s", 1);
        r.push_hour(record(5.0, 1e9, 1.0));
        r.push_hour(record(7.0, 2e9, 2.0));
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let columns = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        }
        assert!(lines[1].contains('5'));
    }

    #[test]
    fn response_csv_one_sample_per_line() {
        let mut r = SimulationReport::new("s", 1);
        r.response_samples = vec![1.5, 2.5];
        let csv = r.response_samples_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("2.5"));
    }

    #[test]
    fn digest_separates_any_field_change() {
        let mut base = SimulationReport::new("p", 2);
        base.push_hour(record(5.0, 1e9, 1.0));
        base.response_samples = vec![0.5];
        base.per_dc_energy_gj = vec![1.0, 2.0];

        let reference = base.digest();
        assert_eq!(reference.len(), 16);
        assert_eq!(reference, base.digest(), "digest must be a pure function");

        let mut renamed = base.clone();
        renamed.policy = "q".into();
        assert_ne!(renamed.digest(), reference);

        let mut tweaked = base.clone();
        tweaked.hourly[0].cost_eur += 1e-12;
        assert_ne!(tweaked.digest(), reference, "bit-level sensitivity");

        let mut sampled = base.clone();
        sampled.response_samples.push(0.5);
        assert_ne!(sampled.digest(), reference);

        let mut energy = base.clone();
        energy.per_dc_energy_gj[1] = 2.5;
        assert_ne!(energy.digest(), reference);
    }

    #[test]
    fn digest_is_a_stable_function_not_a_hasher_artifact() {
        // Pin one concrete digest: if the hash constants or the field
        // serialization order ever change, this literal changes — and
        // with it every committed golden file, which must then be
        // regenerated deliberately (see crates/bench/tests/golden/).
        let report = SimulationReport::new("Proposed", 3);
        assert_eq!(report.digest(), "7c0e272c383a5e20");
        assert_eq!(report.digest(), format!("{:016x}", report.digest64()));
    }
}
