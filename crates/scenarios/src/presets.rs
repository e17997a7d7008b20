//! The named stress-world registry.
//!
//! Eight presets, each a [`WorldSpec`] delta over whatever base scale
//! the caller picks (`--paper`, the default repro scale, `--bench`,
//! `--stress`). Event windows open inside the quick-matrix horizon
//! (the first 12 slots) so the shortened CI/golden runs exercise every
//! preset, not just the long-form ones; fleet-shaped magnitudes are
//! population fractions so the same preset stresses every scale in
//! proportion.

use crate::world::{WorldEvent, WorldSpec};
use geoplace_dcsim::events::{EngineEvent, EventKind};
use geoplace_workload::mix::{FleetMix, VmClass};
use geoplace_workload::trace::TraceKind;

/// `paper` — the unperturbed reproduction world.
pub fn paper() -> WorldSpec {
    WorldSpec::baseline(
        "paper",
        "nothing: the paper's stationary diurnal regime (control row)",
        "Proposed < Ener < Pri < Net on cost; Proposed best on response",
    )
}

/// `flash_crowd` — a compound incident: a big short-lived web crowd
/// hits while the largest DC is partially derated for maintenance,
/// followed by an evening aftershock.
pub fn flash_crowd() -> WorldSpec {
    let mut spec = WorldSpec::baseline(
        "flash_crowd",
        "admission-capped arrival bursts + a concurrent capacity derate",
        "correlation-aware packing should absorb the crowd; Ener-aware churns",
    );
    spec.events = vec![
        WorldEvent::FlashCrowd {
            start_slot: 4,
            duration_slots: 4,
            rate_mult: 10.0,
            mean_lifetime_slots: 2.5,
            peak_fraction: 0.35,
        },
        WorldEvent::FlashCrowd {
            start_slot: 10,
            duration_slots: 2,
            rate_mult: 5.0,
            mean_lifetime_slots: 1.5,
            peak_fraction: 0.15,
        },
    ];
    spec.timeline = vec![EngineEvent {
        dc: Some(0),
        start_slot: 3,
        end_slot: 9,
        kind: EventKind::CapacityDerate { factor: 0.6 },
    }];
    spec
}

/// `weekly_seasonal` — a shaped business week: weekday peaks, a quiet
/// weekend, shorter lifetimes so the population actually follows the
/// rate curve instead of averaging it away.
pub fn weekly_seasonal() -> WorldSpec {
    let mut spec = WorldSpec::baseline(
        "weekly_seasonal",
        "non-stationary arrivals: weekday/weekend rate seasonality",
        "rankings hold, but gaps narrow on the idle weekend",
    );
    spec.day_rate_factors = vec![1.3, 1.3, 1.25, 1.2, 1.1, 0.45, 0.35];
    spec.lifetime_scale = 0.6;
    spec.arrival_rate_scale = 1.0 / 0.6; // keep the weekday steady state
    spec
}

/// `hetero_fleet` — swarms of small web VMs next to fat HPC and batch
/// footprints: the packer sees wildly uneven items, the correlation
/// clustering sees mixed archetypes.
pub fn hetero_fleet() -> WorldSpec {
    let mut spec = WorldSpec::baseline(
        "hetero_fleet",
        "heterogeneous VM footprints/archetypes (1–8 GB, web/batch/HPC)",
        "bin-packing quality dominates; Pri-aware overpacks cheap sites",
    );
    spec.mix = FleetMix {
        classes: vec![
            VmClass {
                kind: TraceKind::WebServing,
                memory_gb: 1.0,
                weight: 0.40,
            },
            VmClass {
                kind: TraceKind::WebServing,
                memory_gb: 2.0,
                weight: 0.25,
            },
            VmClass {
                kind: TraceKind::Batch,
                memory_gb: 4.0,
                weight: 0.20,
            },
            VmClass {
                kind: TraceKind::Hpc,
                memory_gb: 8.0,
                weight: 0.15,
            },
        ],
    };
    spec
}

/// `churn_storm` — the same steady-state population sustained by 4× the
/// arrivals at 1/4 the lifetime, plus two correlated-batch cohorts
/// slamming in: placement decisions go stale within hours.
pub fn churn_storm() -> WorldSpec {
    let mut spec = WorldSpec::baseline(
        "churn_storm",
        "4x arrival churn at constant population + correlated-batch cohorts",
        "migration budgets bind; latency-blind movers pay in overruns",
    );
    spec.arrival_rate_scale = 4.0;
    spec.lifetime_scale = 0.25;
    spec.events = vec![
        WorldEvent::Cohort {
            slot: 3,
            fraction: 0.08,
            lifetime_slots: 8,
        },
        WorldEvent::Cohort {
            slot: 9,
            fraction: 0.12,
            lifetime_slots: 6,
        },
    ];
    spec
}

/// `green_drought` — a long overcast front kills most PV while the
/// greenest site's tariff spikes: the green controller's arbitrage and
/// every energy-aware placement signal degrade at once.
pub fn green_drought() -> WorldSpec {
    let mut spec = WorldSpec::baseline(
        "green_drought",
        "fleet-wide PV drought + a tariff spike on the cheapest site",
        "Ener/Pri-aware lose their edge; cost gaps compress toward load",
    );
    spec.timeline = vec![
        EngineEvent {
            dc: None,
            start_slot: 0,
            end_slot: u32::MAX,
            kind: EventKind::PvDerate { factor: 0.2 },
        },
        EngineEvent {
            dc: Some(1),
            start_slot: 2,
            end_slot: 20,
            kind: EventKind::PriceSpike { factor: 3.0 },
        },
    ];
    spec
}

/// `dc_outage` — a failure-heavy day: the largest DC goes fully dark
/// and must be evacuated through the migration model, a partition
/// throttles the second site's links mid-evacuation, and a cascading
/// derate front sweeps the fleet as the outage lifts.
pub fn dc_outage() -> WorldSpec {
    let mut spec = WorldSpec::baseline(
        "dc_outage",
        "full-DC outage + link partition + cascading derate front",
        "evacuation overruns dominate; latency-aware movers lose least",
    );
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
    spec
}

/// `trace_replay` — arrivals scripted from the committed trace CSV ride
/// on top of the synthetic stream: fixed footprints, lifetimes and
/// trace seeds instead of sampled ones, replayed bit-identically on
/// every run. Peer-wired traces go through the `--trace` replayer; the
/// preset path scripts arrivals only, so the committed file is
/// deliberately peer-free.
pub fn trace_replay() -> WorldSpec {
    let mut spec = WorldSpec::baseline(
        "trace_replay",
        "deterministic trace-scripted arrivals over the synthetic base",
        "rankings match paper; scripted cohort shifts absolute loads",
    );
    let rows = geoplace_workload::tracefile::parse_trace(include_str!("../data/trace_replay.csv"))
        .expect("the committed trace_replay.csv must parse");
    assert!(
        rows.iter().all(|row| row.peer.is_none()),
        "the preset path scripts arrivals only — keep trace_replay.csv peer-free"
    );
    spec.scripted = rows.iter().map(|row| row.scripted()).collect();
    spec
}

/// Every preset, in the canonical registry (and matrix-row) order.
pub fn registry() -> Vec<WorldSpec> {
    vec![
        paper(),
        flash_crowd(),
        weekly_seasonal(),
        hetero_fleet(),
        churn_storm(),
        green_drought(),
        dc_outage(),
        trace_replay(),
    ]
}

/// The registry names, in order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|spec| spec.name).collect()
}

/// Looks a preset up by exact name.
pub fn named(name: &str) -> Option<WorldSpec> {
    registry().into_iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoplace_dcsim::config::ScenarioConfig;

    #[test]
    fn registry_has_the_eight_worlds_with_unique_names() {
        let names = names();
        assert_eq!(
            names,
            vec![
                "paper",
                "flash_crowd",
                "weekly_seasonal",
                "hetero_fleet",
                "churn_storm",
                "green_drought",
                "dc_outage",
                "trace_replay"
            ]
        );
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped);
    }

    #[test]
    fn named_lookup_roundtrips() {
        for spec in registry() {
            assert_eq!(named(spec.name).unwrap(), spec);
        }
        assert!(named("does_not_exist").is_none());
        assert!(named("Paper").is_none(), "lookups are exact");
    }

    #[test]
    fn every_preset_lowers_to_a_valid_config_at_every_scale() {
        let bases = [
            ScenarioConfig::paper(3),
            ScenarioConfig::scaled(3),
            ScenarioConfig::stress(3),
        ];
        for spec in registry() {
            for base in &bases {
                let config = spec.apply(base.clone());
                assert!(
                    config.validate().is_ok(),
                    "{} on {} servers: {:?}",
                    spec.name,
                    base.dcs[0].servers,
                    config.validate()
                );
            }
        }
    }

    #[test]
    fn presets_actually_differ_from_paper() {
        let base = ScenarioConfig::scaled(5);
        let control = paper().apply(base.clone());
        for spec in registry().into_iter().skip(1) {
            assert_ne!(
                spec.apply(base.clone()),
                control,
                "{} must perturb the world",
                spec.name
            );
        }
    }

    #[test]
    fn presets_exercise_every_perturbation_axis() {
        let base = ScenarioConfig::scaled(5);
        let lowered: Vec<_> = registry().iter().map(|s| s.apply(base.clone())).collect();
        assert!(lowered.iter().any(|c| !c.fleet.arrivals.bursts.is_empty()));
        assert!(lowered.iter().any(|c| !c.fleet.arrivals.cohorts.is_empty()));
        assert!(lowered.iter().any(|c| !c.fleet.arrivals.mix.is_empty()));
        assert!(lowered
            .iter()
            .any(|c| !c.fleet.arrivals.day_rate_factors.is_empty()));
        assert!(lowered.iter().any(|c| !c.timeline.is_empty()));
        assert!(lowered
            .iter()
            .any(|c| !c.fleet.arrivals.scripted.is_empty()));
        assert!(lowered.iter().any(|c| c
            .timeline
            .events()
            .iter()
            .any(|e| e.kind == EventKind::DcOutage)));
    }

    #[test]
    fn the_committed_replay_trace_fits_the_quick_matrix() {
        let spec = trace_replay();
        assert!(!spec.scripted.is_empty());
        assert!(
            spec.scripted.iter().all(|row| row.slot <= 10),
            "scripted arrivals must land inside the 12-slot quick horizon"
        );
    }
}
