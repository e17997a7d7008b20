//! Procedural per-VM CPU-utilization traces at 5-second resolution.
//!
//! The paper samples the utilization of a real data center every 5 s for one
//! day and extends it to 7 days "by adding statistical variance with the
//! same mean as the original traces". Real traces are proprietary, so this
//! module generates *deterministic, procedural* traces with the same
//! structure:
//!
//! * **Web-serving** VMs follow a diurnal sine-like load curve — VMs serving
//!   the same user population share the curve's *phase*, which is exactly
//!   what produces high CPU-load correlation (coincident peaks);
//! * **Batch** (MapReduce-style) VMs run rectangular job bursts scheduled
//!   pseudo-randomly, giving fast-changing, weakly-correlated load;
//! * **HPC** VMs hold a steady high utilization with small noise.
//!
//! A trace is a pure function of `(seed, tick)`; nothing is stored, so a
//! week of 5 s samples for thousands of VMs costs no memory. The one-day
//! template is stretched to a week through per-day scale factors with mean
//! 1.0, mirroring the paper's extension procedure.

use geoplace_types::hash::hash_to_unit;
use geoplace_types::time::{Tick, TimeSlot, SLOTS_PER_DAY, TICKS_PER_SLOT};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of days the one-day template is extended to.
pub const TRACE_DAYS: usize = 7;

/// Lattice spacing (in ticks) of the smooth value-noise component: one knot
/// per minute of simulated time.
const NOISE_LATTICE_TICKS: u64 = 12;

/// Floor utilization of a powered-on VM (OS background activity).
pub const MIN_UTILIZATION: f64 = 0.02;

/// Application archetype of a VM, driving the shape of its CPU trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// Client-facing scale-out service with a diurnal load curve.
    WebServing,
    /// Throughput batch jobs with rectangular on/off bursts.
    Batch,
    /// Long-running steady high-utilization computation.
    Hpc,
}

impl TraceKind {
    /// Every kind in tag order.
    const ALL: [TraceKind; 3] = [TraceKind::WebServing, TraceKind::Batch, TraceKind::Hpc];

    /// The kind's byte in checkpoints and trace fingerprints: 0, 1 or 2.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The kind a [`TraceKind::tag`] byte stands for.
    pub fn from_tag(tag: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(usize::from(tag)).copied()
    }

    /// The kind's name in trace files and the serve protocol: `web`,
    /// `batch` or `hpc`.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::WebServing => "web",
            TraceKind::Batch => "batch",
            TraceKind::Hpc => "hpc",
        }
    }

    /// The kind a [`TraceKind::name`] stands for.
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// Parameters of one procedural trace.
///
/// # Examples
///
/// ```
/// use geoplace_workload::trace::{TraceKind, TraceParams, VmTrace};
/// use geoplace_types::time::Tick;
///
/// let params = TraceParams {
///     kind: TraceKind::WebServing,
///     base: 0.2,
///     amplitude: 0.5,
///     phase_hours: 14.0,
///     noise_sigma: 0.03,
///     burst_duty: 0.0,
///     burst_level: 0.0,
/// };
/// let trace = VmTrace::new(params, 42);
/// let u = trace.utilization_at(Tick(100));
/// assert!((0.0..=1.0).contains(&u));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceParams {
    /// Archetype selecting the template shape.
    pub kind: TraceKind,
    /// Baseline utilization in `[0, 1]`.
    pub base: f64,
    /// Diurnal amplitude (web-serving) in `[0, 1]`.
    pub amplitude: f64,
    /// Local hour at which the diurnal curve peaks.
    pub phase_hours: f64,
    /// Standard deviation of the additive noise.
    pub noise_sigma: f64,
    /// Fraction of job windows that are active (batch).
    pub burst_duty: f64,
    /// Utilization level during an active burst (batch).
    pub burst_level: f64,
}

impl TraceParams {
    /// Draws realistic parameters for the given archetype.
    pub fn sample<R: Rng + ?Sized>(kind: TraceKind, rng: &mut R) -> Self {
        match kind {
            TraceKind::WebServing => TraceParams {
                kind,
                base: rng.gen_range(0.10..0.25),
                amplitude: rng.gen_range(0.35..0.60),
                // Two dominant service populations: business-hours peak and
                // evening peak; a shared phase is what creates CPU-load
                // correlated VM pairs.
                phase_hours: [10.0, 14.0, 20.0][rng.gen_range(0..3usize)]
                    + rng.gen_range(-1.0..1.0),
                noise_sigma: rng.gen_range(0.02..0.06),
                burst_duty: 0.0,
                burst_level: 0.0,
            },
            TraceKind::Batch => TraceParams {
                kind,
                base: rng.gen_range(0.05..0.15),
                amplitude: 0.0,
                phase_hours: 0.0,
                noise_sigma: rng.gen_range(0.02..0.05),
                burst_duty: rng.gen_range(0.25..0.6),
                burst_level: rng.gen_range(0.55..0.95),
            },
            TraceKind::Hpc => TraceParams {
                kind,
                base: rng.gen_range(0.55..0.8),
                amplitude: 0.0,
                phase_hours: 0.0,
                noise_sigma: rng.gen_range(0.01..0.04),
                burst_duty: 0.0,
                burst_level: 0.0,
            },
        }
    }
}

/// A deterministic procedural utilization trace.
///
/// Utilization is a pure function of the tick; two [`VmTrace`]s constructed
/// with the same parameters and seed yield identical samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmTrace {
    params: TraceParams,
    seed: u64,
    /// Per-day multiplicative factors (mean 1.0) that extend the one-day
    /// template to a week, per the paper's procedure.
    day_factors: [f64; TRACE_DAYS],
}

impl VmTrace {
    /// Creates a trace from explicit parameters and a seed.
    pub fn new(params: TraceParams, seed: u64) -> Self {
        let mut factors = [0.0f64; TRACE_DAYS];
        // Deterministic per-day variance with mean exactly 1.0: draw raw
        // factors, then normalize their mean (the paper keeps "the same
        // mean as the original traces").
        let mut sum = 0.0;
        for (day, factor) in factors.iter_mut().enumerate() {
            let z = hash_to_symmetric(seed ^ 0xDA11_FAC7, day as u64);
            *factor = 1.0 + 0.12 * z;
            sum += *factor;
        }
        let mean = sum / TRACE_DAYS as f64;
        for factor in &mut factors {
            *factor /= mean;
        }
        VmTrace {
            params,
            seed,
            day_factors: factors,
        }
    }

    /// The trace parameters.
    pub fn params(&self) -> &TraceParams {
        &self.params
    }

    /// The trace seed. `VmTrace::new(*trace.params(), trace.seed())`
    /// reconstructs this trace exactly — what checkpointing relies on to
    /// avoid serializing any samples.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// CPU utilization in `[MIN_UTILIZATION, 1]` at the given tick.
    pub fn utilization_at(&self, tick: Tick) -> f64 {
        let slot = tick.slot();
        let day = (slot.day() as usize) % TRACE_DAYS;
        let hour = slot.hour_of_day() as f64 + tick.tick_in_slot() as f64 / TICKS_PER_SLOT as f64;

        let template = match self.params.kind {
            TraceKind::WebServing => {
                // Diurnal raised-cosine peaking at `phase_hours`.
                let angle =
                    (hour - self.params.phase_hours) / SLOTS_PER_DAY as f64 * std::f64::consts::TAU;
                self.params.base + self.params.amplitude * 0.5 * (1.0 + angle.cos())
            }
            TraceKind::Batch => {
                // Rectangular bursts: 15-minute job windows activated
                // pseudo-randomly with probability `burst_duty`.
                const WINDOW_TICKS: u64 = 180; // 15 min
                let window = tick.0 / WINDOW_TICKS;
                let active = hash_to_unit(self.seed ^ 0xB0B5_7E11, window) < self.params.burst_duty;
                if active {
                    self.params.burst_level
                } else {
                    self.params.base
                }
            }
            TraceKind::Hpc => self.params.base,
        };

        // Smooth value-noise (1-minute lattice, linear interpolation) plus
        // white measurement noise; both deterministic in (seed, tick).
        let smooth = {
            let k = tick.0 / NOISE_LATTICE_TICKS;
            let frac = (tick.0 % NOISE_LATTICE_TICKS) as f64 / NOISE_LATTICE_TICKS as f64;
            let a = hash_to_symmetric(self.seed, k);
            let b = hash_to_symmetric(self.seed, k + 1);
            a + (b - a) * frac
        };
        let white = hash_to_symmetric(self.seed ^ 0x5EED_F00D, tick.0);

        let u = template * self.day_factors[day]
            + self.params.noise_sigma * (0.8 * smooth + 0.2 * white);
        u.clamp(MIN_UTILIZATION, 1.0)
    }

    /// The 5 s utilization window of one slot (`TICKS_PER_SLOT` samples),
    /// which is what the correlation analyses and the allocation fit checks
    /// consume.
    pub fn window(&self, slot: TimeSlot) -> Vec<f32> {
        slot.ticks()
            .map(|t| self.utilization_at(t) as f32)
            .collect()
    }

    /// [`VmTrace::window`] into a caller-owned buffer — the incremental
    /// slot pipeline refills persistent window matrices in place instead
    /// of collecting one fresh `Vec` per VM per slot.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != TICKS_PER_SLOT`.
    pub fn window_into(&self, slot: TimeSlot, out: &mut [f32]) {
        assert_eq!(out.len(), TICKS_PER_SLOT, "window buffer width mismatch");
        for (sample, tick) in out.iter_mut().zip(slot.ticks()) {
            *sample = self.utilization_at(tick) as f32;
        }
    }

    /// Mean utilization over one slot.
    pub fn slot_mean(&self, slot: TimeSlot) -> f64 {
        let sum: f64 = slot.ticks().map(|t| self.utilization_at(t)).sum();
        sum / TICKS_PER_SLOT as f64
    }
}

/// Hash `(seed, n)` to a uniform float in `[-1, 1)`.
fn hash_to_symmetric(seed: u64, n: u64) -> f64 {
    2.0 * hash_to_unit(seed, n) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn web(seed: u64, phase: f64) -> VmTrace {
        VmTrace::new(
            TraceParams {
                kind: TraceKind::WebServing,
                base: 0.15,
                amplitude: 0.5,
                phase_hours: phase,
                noise_sigma: 0.03,
                burst_duty: 0.0,
                burst_level: 0.0,
            },
            seed,
        )
    }

    #[test]
    fn kind_codes_round_trip_and_keep_their_bytes() {
        let codes = [
            (TraceKind::WebServing, "web"),
            (TraceKind::Batch, "batch"),
            (TraceKind::Hpc, "hpc"),
        ];
        for (tag, (kind, name)) in codes.into_iter().enumerate() {
            assert_eq!(usize::from(kind.tag()), tag, "{kind:?}");
            assert_eq!(kind.name(), name);
            assert_eq!(TraceKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(TraceKind::from_name(name), Some(kind));
        }
        assert_eq!(TraceKind::from_tag(3), None);
        assert_eq!(TraceKind::from_name("Web"), None);
    }

    #[test]
    fn utilization_bounded() {
        let trace = web(7, 14.0);
        for t in 0..(2 * TICKS_PER_SLOT as u64) {
            let u = trace.utilization_at(Tick(t * 37));
            assert!((MIN_UTILIZATION..=1.0).contains(&u), "u={u} at t={t}");
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let a = web(123, 10.0);
        let b = web(123, 10.0);
        for t in [0u64, 55, 719, 720, 100_000] {
            assert_eq!(a.utilization_at(Tick(t)), b.utilization_at(Tick(t)));
        }
    }

    #[test]
    fn diurnal_peak_is_near_phase_hour() {
        let trace = web(5, 14.0);
        // Mean over the 14:00 slot should dominate the 02:00 slot on day 0.
        let peak_slot = trace.slot_mean(TimeSlot(14));
        let trough_slot = trace.slot_mean(TimeSlot(2));
        assert!(
            peak_slot > trough_slot + 0.3,
            "peak {peak_slot} vs trough {trough_slot}"
        );
    }

    #[test]
    fn day_factors_have_unit_mean() {
        let trace = web(99, 12.0);
        let mean: f64 = trace.day_factors.iter().sum::<f64>() / TRACE_DAYS as f64;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn week_extension_keeps_mean_close() {
        // Mean of day 3 should track the day-0 mean within the variance knob.
        let trace = web(21, 12.0);
        let day_mean = |day: u32| -> f64 {
            (0..SLOTS_PER_DAY as u32)
                .map(|h| trace.slot_mean(TimeSlot(day * SLOTS_PER_DAY as u32 + h)))
                .sum::<f64>()
                / SLOTS_PER_DAY as f64
        };
        let d0 = day_mean(0);
        let d3 = day_mean(3);
        assert!((d0 - d3).abs() / d0 < 0.30, "d0={d0} d3={d3}");
    }

    #[test]
    fn batch_trace_switches_levels() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = TraceParams::sample(TraceKind::Batch, &mut rng);
        let trace = VmTrace::new(params, 77);
        // Scan one full day: with 15-minute job windows and duty in
        // [0.25, 0.6] at least one burst and one idle window must occur.
        let mut lo = f32::MAX;
        let mut hi = 0.0f32;
        for slot in 0..SLOTS_PER_DAY as u32 {
            for u in trace.window(TimeSlot(slot)) {
                lo = lo.min(u);
                hi = hi.max(u);
            }
        }
        // Rectangular bursts must produce a clearly bimodal range.
        assert!(hi - lo > 0.3, "range [{lo},{hi}] too flat for batch");
    }

    #[test]
    fn hpc_trace_is_flat_and_high() {
        let mut rng = StdRng::seed_from_u64(2);
        let params = TraceParams::sample(TraceKind::Hpc, &mut rng);
        let trace = VmTrace::new(params, 88);
        let window = trace.window(TimeSlot(5));
        let mean: f32 = window.iter().sum::<f32>() / window.len() as f32;
        let max_dev = window
            .iter()
            .map(|u| (u - mean).abs())
            .fold(0.0f32, f32::max);
        assert!(mean > 0.45, "hpc mean {mean}");
        assert!(max_dev < 0.15, "hpc deviation {max_dev}");
    }

    #[test]
    fn window_length_matches_slot() {
        let trace = web(3, 12.0);
        assert_eq!(trace.window(TimeSlot(9)).len(), TICKS_PER_SLOT);
    }

    #[test]
    fn same_phase_web_vms_peak_together() {
        let a = web(1, 14.0);
        let b = web(2, 14.0);
        let c = web(3, 2.0); // anti-phase
        let peak_a = argmax_slot(&a);
        let peak_b = argmax_slot(&b);
        let peak_c = argmax_slot(&c);
        let circular_distance = |x: i32, y: i32| {
            let d = (x - y).rem_euclid(24);
            d.min(24 - d)
        };
        assert!(circular_distance(peak_a, peak_b) <= 2);
        assert!(circular_distance(peak_a, peak_c) >= 8);
    }

    fn argmax_slot(trace: &VmTrace) -> i32 {
        (0..SLOTS_PER_DAY as u32)
            .max_by(|&x, &y| {
                trace
                    .slot_mean(TimeSlot(x))
                    .partial_cmp(&trace.slot_mean(TimeSlot(y)))
                    .unwrap()
            })
            .unwrap() as i32
    }

    #[test]
    fn hash_to_unit_is_in_range_and_spread() {
        let values: Vec<f64> = (0..1000).map(|n| hash_to_unit(42, n)).collect();
        assert!(values.iter().all(|v| (0.0..1.0).contains(v)));
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
