//! Declarative world specifications that lower into [`ScenarioConfig`].
//!
//! A [`WorldSpec`] is a *delta* over a base scenario: it rescales the
//! arrival process, swaps in a heterogeneous fleet mix, shapes the week
//! with per-day rate factors, and schedules perturbations. Engine
//! perturbations (derates, tariff spikes, PV droughts, outages,
//! partitions, cascades) are [`EngineEvent`]s that land on the
//! configuration's [`EventTimeline`](geoplace_dcsim::events::EventTimeline)
//! unchanged; fleet perturbations (flash crowds, correlated-batch
//! cohorts) are [`WorldEvent`]s that lower into the arrival process's
//! burst/cohort knobs.
//!
//! Specs are **scale-free**: crowd sizes and cohort sizes are fractions
//! of the base world's expected population, so the same named preset
//! stresses a 100-VM bench world and a 10,000-VM stress world in
//! proportion. Lowering is pure — `spec.apply(base)` is a function of
//! its inputs, with no RNG and no ambient state.

use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::events::EngineEvent;
use geoplace_workload::arrivals::{BurstConfig, CohortConfig, ScriptedArrival};
use geoplace_workload::mix::FleetMix;

/// One scheduled perturbation of the fleet, sized against the base
/// world's population.
///
/// Slot indices are absolute; presets keep their windows inside the
/// first day so every scale (including shortened CI horizons) sees
/// them. Fleet-shaped magnitudes are fractions of the base world's
/// expected VM population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldEvent {
    /// Flash crowd: short-lived web groups pour in over a window,
    /// admission-capped at a fraction of the base population.
    FlashCrowd {
        /// First slot of the crowd.
        start_slot: u32,
        /// Crowd duration in slots.
        duration_slots: u32,
        /// Burst arrival rate as a multiple of the base group rate.
        rate_mult: f64,
        /// Mean lifetime of crowd VMs, slots.
        mean_lifetime_slots: f64,
        /// Concurrency cap as a fraction of the expected population.
        peak_fraction: f64,
    },
    /// Correlated-batch cohort: one fully meshed application group of
    /// `fraction` × expected-population batch VMs at a fixed slot.
    Cohort {
        /// Arrival slot (>= 1).
        slot: u32,
        /// Cohort size as a fraction of the expected population.
        fraction: f64,
        /// Fixed lifetime of every member, slots.
        lifetime_slots: u32,
    },
}

/// A named, composable world specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldSpec {
    /// Registry name (`--scenario NAME`).
    pub name: &'static str,
    /// One-line description of what the world stresses.
    pub stresses: &'static str,
    /// Qualitative policy ranking the world is expected to produce
    /// (documentation for the matrix report and the README table).
    pub expected_ranking: &'static str,
    /// Multiplier on the base group arrival rate.
    pub arrival_rate_scale: f64,
    /// Multiplier on the base mean VM lifetime.
    pub lifetime_scale: f64,
    /// Heterogeneous fleet composition (empty = the paper's fleet).
    pub mix: FleetMix,
    /// Per-day arrival-rate factors (empty = a flat week).
    pub day_rate_factors: Vec<f64>,
    /// Scheduled fleet perturbations.
    pub events: Vec<WorldEvent>,
    /// Scheduled engine perturbations, pushed onto the configuration's
    /// event timeline unchanged.
    pub timeline: Vec<EngineEvent>,
    /// Trace-scripted arrivals appended to the synthetic stream (empty
    /// = purely synthetic; filled by trace-replay worlds).
    pub scripted: Vec<ScriptedArrival>,
}

impl WorldSpec {
    /// A spec that changes nothing — the paper's world under a new name.
    pub fn baseline(
        name: &'static str,
        stresses: &'static str,
        expected_ranking: &'static str,
    ) -> Self {
        WorldSpec {
            name,
            stresses,
            expected_ranking,
            arrival_rate_scale: 1.0,
            lifetime_scale: 1.0,
            mix: FleetMix::default(),
            day_rate_factors: Vec::new(),
            events: Vec::new(),
            timeline: Vec::new(),
            scripted: Vec::new(),
        }
    }

    /// Lowers the spec onto a base configuration (typically one of the
    /// harness scales). Pure and deterministic: same spec + same base →
    /// identical `ScenarioConfig`, hence identical reports.
    pub fn apply(&self, mut config: ScenarioConfig) -> ScenarioConfig {
        // The fleet-shaped magnitudes anchor on the *base* population,
        // before this spec's own rescaling.
        let base_population = config.fleet.arrivals.expected_population();
        let base_rate = config.fleet.arrivals.groups_per_slot;
        {
            let arrivals = &mut config.fleet.arrivals;
            arrivals.groups_per_slot *= self.arrival_rate_scale;
            arrivals.mean_lifetime_slots *= self.lifetime_scale;
            // Keep the slot-0 population on the rescaled steady state
            // (Little's law: rate × lifetime).
            arrivals.initial_groups = (f64::from(arrivals.initial_groups)
                * self.arrival_rate_scale
                * self.lifetime_scale)
                .round()
                .max(1.0) as u32;
            arrivals.mix = self.mix.clone();
            arrivals.day_rate_factors = self.day_rate_factors.clone();
        }
        for event in &self.events {
            match *event {
                WorldEvent::FlashCrowd {
                    start_slot,
                    duration_slots,
                    rate_mult,
                    mean_lifetime_slots,
                    peak_fraction,
                } => config.fleet.arrivals.bursts.push(BurstConfig {
                    start_slot,
                    duration_slots,
                    groups_per_slot: base_rate * rate_mult,
                    mean_lifetime_slots,
                    peak_vms: ((base_population * peak_fraction).round() as u32).max(1),
                }),
                WorldEvent::Cohort {
                    slot,
                    fraction,
                    lifetime_slots,
                } => config.fleet.arrivals.cohorts.push(CohortConfig {
                    slot,
                    vms: ((base_population * fraction).round() as u32).max(2),
                    lifetime_slots,
                }),
            }
        }
        for &event in &self.timeline {
            config.timeline.push(event);
        }
        config
            .fleet
            .arrivals
            .scripted
            .extend(self.scripted.iter().copied());
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoplace_dcsim::events::{EventKind, EventTimeline};

    #[test]
    fn baseline_spec_is_the_identity() {
        let base = ScenarioConfig::paper(7);
        let spec = WorldSpec::baseline("noop", "nothing", "paper order");
        assert_eq!(spec.apply(base.clone()), base);
    }

    #[test]
    fn rate_and_lifetime_scales_preserve_steady_state() {
        let base = ScenarioConfig::paper(7);
        let mut spec = WorldSpec::baseline("churny", "churn", "-");
        spec.arrival_rate_scale = 4.0;
        spec.lifetime_scale = 0.25;
        let config = spec.apply(base.clone());
        assert!(config.validate().is_ok());
        let before = base.fleet.arrivals.expected_population();
        let after = config.fleet.arrivals.expected_population();
        assert!((before - after).abs() / before < 1e-9);
        assert_eq!(
            config.fleet.arrivals.initial_groups,
            base.fleet.arrivals.initial_groups
        );
    }

    #[test]
    fn fleet_events_scale_with_the_base_population() {
        let mut spec = WorldSpec::baseline("crowds", "bursts", "-");
        spec.events = vec![
            WorldEvent::FlashCrowd {
                start_slot: 3,
                duration_slots: 4,
                rate_mult: 6.0,
                mean_lifetime_slots: 2.0,
                peak_fraction: 0.4,
            },
            WorldEvent::Cohort {
                slot: 2,
                fraction: 0.1,
                lifetime_slots: 6,
            },
        ];
        let small = spec.apply(ScenarioConfig::scaled(1));
        let large = spec.apply(ScenarioConfig::paper(1));
        assert!(small.validate().is_ok() && large.validate().is_ok());
        let small_peak = small.fleet.arrivals.bursts[0].peak_vms;
        let large_peak = large.fleet.arrivals.bursts[0].peak_vms;
        assert!(
            large_peak > small_peak * 5,
            "peaks must track the fleet: {small_peak} vs {large_peak}"
        );
        assert!(large.fleet.arrivals.cohorts[0].vms > small.fleet.arrivals.cohorts[0].vms);
    }

    #[test]
    fn engine_events_land_on_the_timeline() {
        let mut spec = WorldSpec::baseline("dark", "drought", "-");
        let event = |dc, start_slot, end_slot, kind| EngineEvent {
            dc,
            start_slot,
            end_slot,
            kind,
        };
        spec.timeline = vec![
            event(None, 0, 48, EventKind::PvDerate { factor: 0.2 }),
            event(Some(1), 6, 18, EventKind::PriceSpike { factor: 3.0 }),
            event(Some(0), 4, 10, EventKind::CapacityDerate { factor: 0.5 }),
        ];
        let config = spec.apply(ScenarioConfig::scaled(1));
        assert!(config.validate().is_ok());
        assert_eq!(config.timeline, EventTimeline::new(spec.timeline.clone()));
        assert!(config.fleet.arrivals.bursts.is_empty());
    }

    #[test]
    fn failure_events_and_scripts_lower_onto_the_config() {
        use geoplace_workload::trace::TraceKind;
        let mut spec = WorldSpec::baseline("failing", "outages", "-");
        spec.timeline = vec![
            EngineEvent {
                dc: Some(0),
                start_slot: 4,
                end_slot: 7,
                kind: EventKind::DcOutage,
            },
            EngineEvent {
                dc: Some(1),
                start_slot: 5,
                end_slot: 9,
                kind: EventKind::NetworkPartition { factor: 0.3 },
            },
            EngineEvent {
                dc: Some(0),
                start_slot: 8,
                end_slot: 10,
                kind: EventKind::CascadeDerate {
                    factor: 0.6,
                    lag_slots: 1,
                },
            },
        ];
        spec.scripted = vec![ScriptedArrival {
            slot: 2,
            memory_gb: 4.0,
            lifetime_slots: 6,
            kind: TraceKind::WebServing,
            trace_seed: 9,
        }];
        let config = spec.apply(ScenarioConfig::scaled(1));
        assert!(config.validate().is_ok());
        assert_eq!(config.timeline.events().len(), 3);
        assert!(config
            .timeline
            .events()
            .iter()
            .any(|e| e.kind == EventKind::DcOutage && e.dc == Some(0)));
        assert_eq!(config.fleet.arrivals.scripted.len(), 1);
        assert_eq!(config.fleet.arrivals.scripted[0].slot, 2);
    }
}
