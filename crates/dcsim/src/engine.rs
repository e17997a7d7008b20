//! The slot/tick simulation engine.
//!
//! Drives the paper's two control cadences over the whole horizon:
//!
//! * at each hourly **slot boundary**: advance the fleet (arrivals,
//!   departures, traffic drift), assemble the [`SystemSnapshot`] from the
//!   previous interval's observations, invoke the [`GlobalPolicy`],
//!   validate its decision, and account the migrations it implies against
//!   the QoS latency budget;
//! * during the slot, every **5 s tick**: compute each DC's IT power from
//!   the actual utilization of its servers, apply the time-varying PUE,
//!   and let the per-DC green controller split the demand between PV,
//!   battery and grid — accumulating the operational cost at the site
//!   tariff;
//! * at the end of the slot: evaluate the response time (Eq. 1) of the
//!   slot's inter-DC data-correlation traffic and feed the WCMA
//!   forecaster with the actually harvested PV energy.
//!
//! The machinery itself lives in [`crate::stepper`]: the slot lifecycle
//! is an explicit `advance_world → observe → apply` state machine, and
//! [`Simulator::run`] is a thin batch loop pumping it with the synthetic
//! fleet as its delta source. Online drivers (the `geoplace-serve` JSON
//! session) pump the same stepper one phase at a time with external
//! deltas instead.
//!
//! [`SystemSnapshot`]: crate::snapshot::SystemSnapshot

use crate::config::ScenarioConfig;
use crate::dc::DataCenter;
use crate::metrics::SimulationReport;
use crate::policy::GlobalPolicy;
use crate::stepper::SlotStepper;
use geoplace_energy::green::GreenController;
use geoplace_network::ber::BerDistribution;
use geoplace_network::latency::LatencyModel;
use geoplace_network::topology::{DcSite, Topology};
use geoplace_types::units::GigabitsPerSecond;
use geoplace_types::{DcId, Result};
use geoplace_workload::fleet::VmFleet;
use geoplace_workload::source::SyntheticSource;

/// A fully built simulation world, ready to run.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::config::ScenarioConfig;
/// use geoplace_dcsim::engine::Scenario;
///
/// let scenario = Scenario::build(&ScenarioConfig::scaled(7))?;
/// assert_eq!(scenario.dcs.len(), 3);
/// # Ok::<(), geoplace_types::Error>(())
/// ```
#[derive(Debug)]
pub struct Scenario {
    /// The validated configuration.
    pub config: ScenarioConfig,
    /// Sites and links.
    pub topology: Topology,
    /// Eq. 1–4 + Algorithm 1 model over the topology.
    pub latency: LatencyModel,
    /// The evolving VM population.
    pub fleet: VmFleet,
    /// Per-DC runtime state.
    pub dcs: Vec<DataCenter>,
}

impl Scenario {
    /// Validates `config` and builds the world.
    ///
    /// # Errors
    ///
    /// Returns [`geoplace_types::Error::InvalidConfig`] when validation
    /// fails.
    pub fn build(config: &ScenarioConfig) -> Result<Scenario> {
        config.validate()?;
        let sites = config
            .dcs
            .iter()
            .map(|d| {
                DcSite::new(
                    d.name.clone(),
                    d.latitude_deg,
                    d.longitude_deg,
                    d.timezone_offset_hours,
                )
            })
            .collect();
        let topology = Topology::new(
            sites,
            GigabitsPerSecond(10.0 * config.link_scale),
            GigabitsPerSecond(100.0 * config.link_scale),
        )?;
        let latency = LatencyModel::new(topology.clone(), BerDistribution::paper_default());
        let fleet = VmFleet::new(config.fleet.clone())?;
        let dcs = config
            .dcs
            .iter()
            .enumerate()
            .map(|(i, d)| DataCenter::build(DcId(i as u16), d.clone(), config.seed))
            .collect::<Result<Vec<_>>>()?;
        Ok(Scenario {
            config: config.clone(),
            topology,
            latency,
            fleet,
            dcs,
        })
    }
}

/// Runs one policy over a [`Scenario`]: the batch loop over a
/// [`SlotStepper`]. Drivers that need more than the batch loop —
/// checkpointing runs ([`crate::checkpoint::run_with_checkpoints`]),
/// restore-then-resume, online sessions — pump a [`SlotStepper`]
/// directly.
#[derive(Debug)]
pub struct Simulator {
    stepper: SlotStepper,
}

impl Simulator {
    /// Creates the simulator over a fresh [`SlotStepper::new`].
    pub fn new(scenario: Scenario) -> Self {
        Simulator {
            stepper: SlotStepper::new(scenario),
        }
    }

    /// Replaces the green controller (ablation knob; see
    /// [`SlotStepper::with_green_controller`]).
    pub fn with_green_controller(self, green: GreenController) -> Self {
        Simulator {
            stepper: self.stepper.with_green_controller(green),
        }
    }

    /// Runs the whole horizon under `policy` and returns the report.
    ///
    /// A thin batch loop over the [`SlotStepper`] lifecycle with the
    /// synthetic fleet as the delta source — advance, observe, decide,
    /// apply, next slot. The per-slot observation structures live in the
    /// stepper's persistent scratch and are maintained across slots from
    /// the [`FleetDelta`](geoplace_workload::fleet::FleetDelta) the fleet
    /// reports (arrivals connected, departures disconnected, last slot's
    /// actual windows promoted to this slot's observation). A
    /// hand-driven stepper produces a report bit-identical to this loop.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns a structurally invalid decision — that
    /// is a programming error in the policy, not a recoverable condition.
    pub fn run<P: GlobalPolicy>(self, policy: &mut P) -> SimulationReport {
        let mut stepper = self.stepper;
        let mut source = SyntheticSource;
        while !stepper.is_done() {
            stepper
                .advance_world(&mut source)
                .expect("the synthetic source never rejects a boundary");
            let decision = policy.decide(&stepper.observe());
            let slot = stepper.current_slot();
            if let Err(e) = stepper.apply(decision) {
                panic!(
                    "policy {} returned an invalid decision at {slot}: {e}",
                    policy.name()
                );
            }
        }
        stepper.into_report(policy.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events;
    use crate::testkit::{
        single_level_model, tiny_config, AllOnDcAtTop, AllOnFirstDc, HeteroPingPong,
        ObservationProbe, PingPong, RoundRobinDcs, SpreadOnDc0,
    };
    use geoplace_types::time::TimeSlot;

    #[test]
    fn scenario_builds_from_valid_config() {
        let s = Scenario::build(&tiny_config()).unwrap();
        assert_eq!(s.topology.len(), 3);
        assert!(!s.fleet.active().is_empty());
    }

    #[test]
    fn scenario_rejects_invalid_config() {
        use crate::events::{EngineEvent, EventKind};
        let mut c = tiny_config();
        c.horizon_slots = 0;
        assert!(Scenario::build(&c).is_err());
        // Every DC down at once leaves nowhere to evacuate to.
        let mut c = ScenarioConfig::scaled(42);
        c.horizon_slots = 6;
        for dc in 0..3 {
            c.timeline.push(EngineEvent {
                dc: Some(dc),
                start_slot: 2,
                end_slot: 4,
                kind: EventKind::DcOutage,
            });
        }
        let err = Scenario::build(&c).unwrap_err().to_string();
        assert!(err.contains("every DC is outaged at slot 2 "), "{err}");
    }

    #[test]
    fn run_produces_consistent_report() {
        let scenario = Scenario::build(&tiny_config()).unwrap();
        let report = Simulator::new(scenario).run(&mut AllOnFirstDc);
        assert_eq!(report.policy, "all-on-dc0");
        assert_eq!(report.hourly.len(), 4);
        let totals = report.totals();
        assert!(totals.energy_gj > 0.0, "servers must burn energy");
        assert!(totals.cost_eur >= 0.0);
        // All VMs in one DC → no inter-DC chains, but the co-located
        // pairs' traffic still drains through DC0's local link.
        assert!(totals.worst_response_s > 0.0);
        // Per-DC energy: only DC0 is active.
        assert!(report.per_dc_energy_gj[0] > 0.0);
        assert_eq!(report.per_dc_energy_gj[1], 0.0);
        assert_eq!(report.per_dc_energy_gj[2], 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let scenario = Scenario::build(&tiny_config()).unwrap();
            Simulator::new(scenario).run(&mut AllOnFirstDc)
        };
        let a = run();
        let b = run();
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.hourly, b.hourly);
    }

    #[test]
    fn no_migrations_under_static_policy() {
        let scenario = Scenario::build(&tiny_config()).unwrap();
        let report = Simulator::new(scenario).run(&mut AllOnFirstDc);
        // VMs may arrive/depart but nobody ever changes DC... unless the
        // chunking reshuffles *servers*; cross-DC migrations stay zero.
        assert_eq!(report.totals().migrations, 0);
    }

    #[test]
    fn spread_policy_sees_nonzero_response_time() {
        let scenario = Scenario::build(&tiny_config()).unwrap();
        let report = Simulator::new(scenario).run(&mut RoundRobinDcs);
        assert!(
            report.totals().worst_response_s > 0.0,
            "cross-DC data correlation must cost response time"
        );
        assert!(!report.response_samples.is_empty());
    }

    #[test]
    fn rejected_migrations_leave_no_trace() {
        // QoS 1.0 ⇒ zero migration latency budget: every requested move
        // must be rejected, rolled back to the previous DC, and leave the
        // volume ledger untouched. No arrivals after slot 0 — a new VM
        // has no previous DC and may legitimately start wherever the
        // policy puts it, which would muddy the rollback assertion.
        let mut config = tiny_config();
        config.qos = 1.0;
        config.fleet.arrivals.groups_per_slot = 0.0;
        let scenario = Scenario::build(&config).unwrap();
        let report = Simulator::new(scenario).run(&mut PingPong { turn: 0 });
        let totals = report.totals();
        assert_eq!(totals.migrations, 0, "zero budget admits no migration");
        assert_eq!(
            totals.migration_volume_gb, 0.0,
            "rejected moves must not increment the volume ledger"
        );
        assert!(
            totals.migration_overruns > 0,
            "the ping-pong policy must actually have requested moves"
        );
        // Rollback kept every VM in DC 0 (the slot-0 placement): later
        // slots keep burning energy there and nowhere else.
        assert!(report.per_dc_energy_gj[0] > 0.0);
        assert_eq!(report.per_dc_energy_gj[1], 0.0);
    }

    #[test]
    fn accepted_migrations_account_volume_once() {
        // Generous budget: the ping-pong wave executes; volume must equal
        // the migrated VMs' memory sum exactly once per move (paired with
        // the zero-budget test above, this pins both ledger directions).
        let config = tiny_config();
        let scenario = Scenario::build(&config).unwrap();
        let report = Simulator::new(scenario).run(&mut PingPong { turn: 0 });
        let totals = report.totals();
        assert!(totals.migrations > 0, "budget admits the wave");
        assert!(totals.migration_volume_gb > 0.0);
        for hour in &report.hourly {
            if hour.migrations == 0 {
                assert_eq!(hour.migration_volume_gb, 0.0, "slot {}", hour.slot);
            } else {
                assert!(hour.migration_volume_gb > 0.0, "slot {}", hour.slot);
            }
        }
    }

    #[test]
    fn engine_is_thread_count_invariant() {
        use geoplace_types::Parallelism;
        let run = |threads: usize| {
            let mut config = tiny_config();
            config.parallelism = Parallelism::Threads(threads);
            let scenario = Scenario::build(&config).unwrap();
            Simulator::new(scenario).run(&mut RoundRobinDcs)
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            let report = run(threads);
            assert_eq!(report, reference, "t={threads}");
        }
    }

    #[test]
    fn capacity_derate_shrinks_the_observable_world() {
        use crate::events::{EngineEvent, EventKind, EventTimeline};
        let mut config = tiny_config();
        // Derate DC0 below the VM count, so the one-VM-per-server policy
        // is forced to double up during the maintenance window.
        config.timeline = EventTimeline::new(vec![EngineEvent {
            dc: Some(0),
            start_slot: 2,
            end_slot: 4,
            kind: EventKind::CapacityDerate { factor: 0.05 },
        }]);
        let scenario = Scenario::build(&config).unwrap();
        let usable = events::effective_servers(config.dcs[0].servers, 0.05);
        let report = Simulator::new(scenario).run(&mut SpreadOnDc0);
        for hour in &report.hourly {
            if (2..4).contains(&hour.slot) {
                assert!(
                    hour.active_servers <= usable,
                    "slot {}: {} active servers on {} usable",
                    hour.slot,
                    hour.active_servers,
                    usable
                );
            } else {
                assert!(
                    hour.active_servers > usable,
                    "slot {}: the undersized window must bind only inside \
                     the derate ({} active vs {} usable)",
                    hour.slot,
                    hour.active_servers,
                    usable
                );
            }
        }
    }

    #[test]
    fn price_spike_raises_the_bill() {
        use crate::events::{EngineEvent, EventKind, EventTimeline};
        // Strip the buffers (tiny battery, no PV) so every joule is
        // bought from the grid at the effective tariff — otherwise the
        // spike just makes the green controller drain the battery and
        // the bill shows nothing.
        let bare = || {
            let mut config = tiny_config();
            for dc in &mut config.dcs {
                dc.battery_kwh = 0.001;
                dc.pv_kwp = 0.0;
            }
            config
        };
        let base = Simulator::new(Scenario::build(&bare()).unwrap()).run(&mut AllOnFirstDc);
        let mut spiked_config = bare();
        spiked_config.timeline = EventTimeline::new(vec![EngineEvent {
            dc: Some(0),
            start_slot: 0,
            end_slot: 4,
            kind: EventKind::PriceSpike { factor: 10.0 },
        }]);
        let spiked =
            Simulator::new(Scenario::build(&spiked_config).unwrap()).run(&mut AllOnFirstDc);
        assert!(
            spiked.totals().cost_eur > base.totals().cost_eur * 5.0,
            "10x tariff on the only active DC: {} vs {}",
            spiked.totals().cost_eur,
            base.totals().cost_eur
        );
        // Energy is untouched — a spike changes the bill, not the load.
        assert_eq!(spiked.totals().energy_gj, base.totals().energy_gj);
    }

    #[test]
    fn pv_drought_pushes_load_onto_the_grid() {
        use crate::events::{EngineEvent, EventKind, EventTimeline};
        // Daylight slots so PV actually matters.
        let mut config = tiny_config();
        config.horizon_slots = 16;
        let base = Simulator::new(Scenario::build(&config).unwrap()).run(&mut AllOnFirstDc);
        let mut dark_config = config.clone();
        dark_config.timeline = EventTimeline::new(vec![EngineEvent {
            dc: None,
            start_slot: 0,
            end_slot: 16,
            kind: EventKind::PvDerate { factor: 0.0 },
        }]);
        let dark = Simulator::new(Scenario::build(&dark_config).unwrap()).run(&mut AllOnFirstDc);
        assert_eq!(
            dark.totals().energy_gj,
            base.totals().energy_gj,
            "demand side is untouched"
        );
        assert!(
            dark.hourly.iter().map(|h| h.pv_used_j).sum::<f64>() == 0.0,
            "a total drought harvests nothing"
        );
        assert!(
            dark.totals().grid_energy_gj > base.totals().grid_energy_gj,
            "lost PV must be bought from the grid"
        );
    }

    #[test]
    fn timeline_runs_stay_deterministic_and_thread_invariant() {
        use crate::events::{EngineEvent, EventKind, EventTimeline};
        use geoplace_types::Parallelism;
        let run = |threads: usize| {
            let mut config = tiny_config();
            config.parallelism = Parallelism::Threads(threads);
            config.timeline = EventTimeline::new(vec![
                EngineEvent {
                    dc: Some(0),
                    start_slot: 1,
                    end_slot: 3,
                    kind: EventKind::CapacityDerate { factor: 0.5 },
                },
                EngineEvent {
                    dc: None,
                    start_slot: 0,
                    end_slot: 4,
                    kind: EventKind::PriceSpike { factor: 2.5 },
                },
                EngineEvent {
                    dc: Some(1),
                    start_slot: 0,
                    end_slot: 4,
                    kind: EventKind::PvDerate { factor: 0.3 },
                },
            ]);
            let scenario = Scenario::build(&config).unwrap();
            Simulator::new(scenario).run(&mut RoundRobinDcs)
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            assert_eq!(run(threads), reference, "t={threads}");
        }
        assert_eq!(reference.digest(), run(1).digest());
    }

    #[test]
    #[should_panic(expected = "returned an invalid decision")]
    fn hetero_dvfs_validation_checks_the_hosting_dc() {
        // DC 1 runs a single-level server model: level 1 exists on DC 0
        // only. A policy that blindly uses level 1 everywhere must be
        // caught by validation — under the old dcs[0]-only check it
        // passed and the power lookup indexed out of range mid-slot.
        let mut scenario = Scenario::build(&tiny_config()).unwrap();
        scenario.dcs[1].power_model = single_level_model();
        let _ = Simulator::new(scenario).run(&mut RoundRobinDcs);
    }

    #[test]
    fn hetero_dvfs_models_run_clean_within_their_tables() {
        let mut scenario = Scenario::build(&tiny_config()).unwrap();
        scenario.dcs[1].power_model = single_level_model();
        let report = Simulator::new(scenario).run(&mut AllOnDcAtTop { dc: 1 });
        assert_eq!(report.hourly.len(), 4);
        assert!(report.per_dc_energy_gj[1] > 0.0);
    }

    #[test]
    fn hetero_dvfs_rollback_uses_the_previous_dcs_table() {
        // Zero migration budget: slot 0 lands everyone on DC 0, slot 1
        // requests a wave to DC 1 that is fully rejected, and the engine
        // must roll each VM back onto DC 0 at *DC 0's* top level — and
        // vice versa had the fleet sat on the single-level DC. Under the
        // homogeneous-top-freq rollback this corrupted the decision as
        // soon as the tables differed.
        let mut config = tiny_config();
        config.qos = 1.0;
        config.fleet.arrivals.groups_per_slot = 0.0;
        let mut scenario = Scenario::build(&config).unwrap();
        scenario.dcs[0].power_model = single_level_model();
        let report = Simulator::new(scenario).run(&mut HeteroPingPong { turn: 0 });
        let totals = report.totals();
        assert_eq!(totals.migrations, 0, "zero budget admits no migration");
        assert!(totals.migration_overruns > 0, "the wave must be requested");
        // Rollback kept the fleet on the single-level DC 0 throughout.
        assert!(report.per_dc_energy_gj[0] > 0.0);
        assert_eq!(report.per_dc_energy_gj[1], 0.0);
    }

    #[test]
    fn slot_zero_observes_a_zero_bootstrap_window() {
        // The first decision must not see the running slot's own samples
        // (look-ahead); it sees an all-zero bootstrap window, which
        // provably differs from the slot's actual (always ≥ the trace
        // floor utilization).
        let config = tiny_config();
        let scenario = Scenario::build(&config).unwrap();
        let actual_slot0: f64 = {
            let reference = Scenario::build(&config).unwrap();
            let windows = reference.fleet.windows(TimeSlot(0));
            (0..windows.len())
                .map(|pos| windows.row_at(pos).iter().map(|&u| u as f64).sum::<f64>())
                .sum()
        };
        let mut probe = ObservationProbe { sums: Vec::new() };
        let _ = Simulator::new(scenario).run(&mut probe);
        assert_eq!(probe.sums[0], 0.0, "slot 0 observation must be zero");
        assert!(
            actual_slot0 > 0.0,
            "the running slot's actual window is nonzero (floor utilization)"
        );
        assert!(
            probe.sums[1] > 0.0,
            "from slot 1 on the previous interval is observed"
        );
    }

    #[test]
    fn incremental_observations_match_a_from_scratch_rebuild() {
        use crate::testkit::assert_observation_matches_rebuild;
        use geoplace_workload::source::SyntheticSource;
        let mut config = tiny_config();
        config.horizon_slots = 6;
        let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
        let mut policy = RoundRobinDcs;
        while !stepper.is_done() {
            stepper.advance_world(&mut SyntheticSource).unwrap();
            assert_observation_matches_rebuild(&stepper);
            let decision = policy.decide(&stepper.observe());
            stepper.apply(decision).unwrap();
        }
    }

    #[test]
    fn energy_scales_with_active_servers() {
        let scenario_packed = Scenario::build(&tiny_config()).unwrap();
        let packed = Simulator::new(scenario_packed).run(&mut AllOnFirstDc);
        let scenario_spread = Scenario::build(&tiny_config()).unwrap();
        let spread = Simulator::new(scenario_spread).run(&mut RoundRobinDcs);
        // One VM per server burns far more idle power than 4-per-server.
        assert!(
            spread.totals().energy_gj > packed.totals().energy_gj,
            "spread {} vs packed {}",
            spread.totals().energy_gj,
            packed.totals().energy_gj
        );
    }
}
