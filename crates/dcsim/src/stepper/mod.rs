//! The explicit, resumable slot lifecycle of the engine.
//!
//! [`Simulator::run`](crate::engine::Simulator::run) used to hold the
//! whole per-slot machinery in one ~330-line loop body. The machinery now
//! lives here, as a [`SlotStepper`] any driver can pump one phase at a
//! time:
//!
//! ```text
//! advance_world(source) ─→ observe() ─→ policy ─→ apply(decision)
//!        │                    │                        │
//!        │  fleet delta,      │  SystemSnapshot        │  migrations,
//!        │  windows, CSR,     │  (borrowed, pure)      │  interval sim,
//!        │  correlations      │                        │  SlotMetrics
//!        └────────────────────┴────── next slot ◄──────┘
//! ```
//!
//! * [`SlotStepper::advance_world`] crosses one slot boundary: it pulls a
//!   [`FleetDelta`](geoplace_workload::fleet::FleetDelta) from a
//!   [`DeltaSource`](geoplace_workload::source::DeltaSource) (synthetic
//!   fleet or external events), reconciles the observation windows,
//!   refills the traffic CSR from the pair map, computes the CPU
//!   correlation, and resolves the event timeline's per-slot factors;
//! * [`SlotStepper::observe`] assembles the borrowed, side-effect-free
//!   [`SystemSnapshot`](crate::snapshot::SystemSnapshot) the policy
//!   decides over — calling it twice is free and idempotent;
//! * [`SlotStepper::apply`] validates the decision, clips migrations
//!   against the QoS latency budget, runs the tick-resolution interval
//!   simulation (IT power, PUE, green controller, tariffs) and folds the
//!   slot into the report, returning the slot's [`SlotMetrics`].
//!
//! The stepper owns every piece of state `run` used to capture locally —
//! the RNG, the green controller, the persistent `EngineScratch` buffers
//! and the migration/energy ledgers — so a driver can stop between any
//! two phases and resume later, which is what the `geoplace-serve`
//! session does between JSON commands. Ordering and
//! RNG consumption are bit-identical to the old monolithic loop: the
//! rebuilt `run` reproduces every golden digest.

mod advance;
mod apply;
mod observe;
mod persist;

pub(crate) use apply::effective_tariff;

use crate::config::ScenarioConfig;
use crate::engine::Scenario;
use crate::events::SlotFactors;
use crate::metrics::{HourlyRecord, SimulationReport};
use crate::snapshot::DcInfo;
use geoplace_energy::green::GreenController;
use geoplace_network::migration::latency_constraint_for_qos;
use geoplace_types::time::{TimeSlot, TICKS_PER_SLOT};
use geoplace_types::units::{Gigabytes, Seconds};
use geoplace_types::{DcId, Error, Exec, Result, VmArena, VmId};
use geoplace_workload::cpucorr::CpuCorrelationMatrix;
use geoplace_workload::graph::TrafficGraph;
use geoplace_workload::window::UtilizationWindows;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// What one completed slot cost and moved — the value
/// [`SlotStepper::apply`] returns to the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotMetrics {
    /// The slot the metrics cover.
    pub slot: TimeSlot,
    /// The full hourly accounting row, exactly as pushed into the report.
    pub record: HourlyRecord,
    /// FNV-1a hash of the engine's run state at the boundary after this
    /// slot: the slot index and the bytes of the `stepper`, `assignment`,
    /// `fleet` and `dcs` checkpoint sections (see
    /// [`SlotStepper::state_hash`]) — not of the report. A run resumed
    /// from a checkpoint must reproduce the uninterrupted run's hash at
    /// every subsequent slot, which proves slot-by-slot state
    /// convergence rather than just end-of-run digest equality.
    pub state_hash: u64,
}

/// Where the stepper is in the slot lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The next call must be [`SlotStepper::advance_world`] (or the
    /// horizon is exhausted).
    AwaitingAdvance,
    /// A slot has been advanced and observed state is live; the next call
    /// must be [`SlotStepper::apply`].
    AwaitingDecision,
}

/// Persistent per-slot working state of the slot lifecycle.
///
/// Owns every vector and matrix the slot step would otherwise reallocate
/// per slot: the active id list, the core/memory alignment vectors, the
/// per-DC event factors, both utilization window matrices (observed and
/// actual), the dense arena and the traffic CSR. In the steady state
/// nothing here allocates proportionally to the fleet — buffers are
/// refilled (or, for the windows, reconciled) in place.
#[derive(Debug)]
pub(crate) struct EngineScratch {
    /// The slot's active VM ids (sorted — the fleet invariant).
    pub(crate) active: Vec<VmId>,
    /// vCPUs per VM, aligned with the observed window rows.
    pub(crate) vm_cores: Vec<u32>,
    /// Memory per VM, aligned with the observed window rows.
    pub(crate) vm_memory: Vec<Gigabytes>,
    /// The event timeline's factors per DC for the advanced slot.
    pub(crate) factors: Vec<SlotFactors>,
    /// Usable servers per DC after capacity derates (and the one-server
    /// collapse of an outaged DC).
    pub(crate) usable_servers: Vec<u32>,
    /// The observation window the policy sees (previous interval; zeros
    /// at slot 0).
    pub(crate) observed: UtilizationWindows,
    /// The running slot's actual windows (powers the interval
    /// simulation, then becomes the next slot's observation).
    pub(crate) actual: UtilizationWindows,
    /// Dense id ↔ index mapping of the active set.
    pub(crate) arena: VmArena,
    /// The slot's traffic CSR over `arena`, refilled from the pair map
    /// every slot.
    pub(crate) traffic: TrafficGraph,
    /// Whether `actual` holds the last slot's windows, for the next
    /// advance to reconcile. A fresh scratch is cold (slot 0, or the
    /// first slot after a restore): the advance builds the observation
    /// from the fleet instead.
    pub(crate) warm: bool,
}

impl EngineScratch {
    fn new() -> Self {
        EngineScratch {
            active: Vec::new(),
            vm_cores: Vec::new(),
            vm_memory: Vec::new(),
            factors: Vec::new(),
            usable_servers: Vec::new(),
            observed: UtilizationWindows::zeros(&[], TICKS_PER_SLOT),
            actual: UtilizationWindows::zeros(&[], TICKS_PER_SLOT),
            arena: VmArena::default(),
            traffic: TrafficGraph::default(),
            warm: false,
        }
    }
}

/// The engine's slot lifecycle as an explicit, resumable state machine.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::config::ScenarioConfig;
/// use geoplace_dcsim::engine::Scenario;
/// use geoplace_dcsim::stepper::SlotStepper;
/// use geoplace_dcsim::testkit::AllOnFirstDc;
/// use geoplace_dcsim::policy::GlobalPolicy;
/// use geoplace_workload::source::SyntheticSource;
///
/// let mut config = ScenarioConfig::scaled(11);
/// config.horizon_slots = 2;
/// let mut stepper = SlotStepper::new(Scenario::build(&config)?);
/// let mut policy = AllOnFirstDc;
/// let mut source = SyntheticSource;
/// while !stepper.is_done() {
///     stepper.advance_world(&mut source)?;
///     let decision = policy.decide(&stepper.observe());
///     let metrics = stepper.apply(decision)?;
///     assert!(metrics.record.total_energy_j > 0.0);
/// }
/// let report = stepper.into_report(policy.name());
/// assert_eq!(report.hourly.len(), 2);
/// # Ok::<(), geoplace_types::Error>(())
/// ```
#[derive(Debug)]
pub struct SlotStepper {
    pub(crate) scenario: Scenario,
    pub(crate) rng: StdRng,
    pub(crate) green: GreenController,
    pub(crate) exec: Exec,
    /// Nominal (pre-derate) server count per DC.
    pub(crate) server_counts: Vec<u32>,
    /// DVFS depth per DC: validation and rollback must use the hosting
    /// DC's own table — heterogeneous fleets can mix server models.
    pub(crate) dvfs_levels: Vec<usize>,
    /// The QoS migration latency budget.
    pub(crate) budget: Seconds,
    /// The standing assignment (previous slot's placement).
    pub(crate) assignment: BTreeMap<VmId, DcId>,
    pub(crate) scratch: EngineScratch,
    /// The advanced slot's CPU correlation (degenerate at slot 0).
    pub(crate) cpu_corr: Option<CpuCorrelationMatrix>,
    /// The advanced slot's per-DC info blocks.
    pub(crate) dc_infos: Vec<DcInfo>,
    /// The accumulating report; the policy name is stamped by
    /// [`SlotStepper::into_report`].
    pub(crate) report: SimulationReport,
    /// Index of the slot the next advance enters (equivalently: slots
    /// completed so far).
    pub(crate) next_slot: u32,
    phase: Phase,
}

impl SlotStepper {
    /// Creates the stepper over a built world. The engine RNG is derived
    /// from the scenario seed, so every run of one scenario — batch
    /// ([`Simulator::run`](crate::engine::Simulator::run)) or
    /// hand-driven — is bit-identical.
    pub fn new(scenario: Scenario) -> Self {
        let rng = StdRng::seed_from_u64(scenario.config.seed ^ 0x5137_AB1E);
        let n_dcs = scenario.dcs.len();
        let exec = Exec::new(scenario.config.parallelism);
        let server_counts: Vec<u32> = scenario.dcs.iter().map(|d| d.config.servers).collect();
        let dvfs_levels: Vec<usize> = scenario
            .dcs
            .iter()
            .map(|d| d.power_model.levels().len())
            .collect();
        let budget = latency_constraint_for_qos(scenario.config.qos);
        SlotStepper {
            scenario,
            rng,
            green: GreenController::default(),
            exec,
            server_counts,
            dvfs_levels,
            budget,
            assignment: BTreeMap::new(),
            scratch: EngineScratch::new(),
            cpu_corr: None,
            dc_infos: Vec::new(),
            report: SimulationReport::new("", n_dcs),
            next_slot: 0,
            phase: Phase::AwaitingAdvance,
        }
    }

    /// Replaces the green controller (ablation knob).
    pub fn with_green_controller(mut self, green: GreenController) -> Self {
        self.green = green;
        self
    }

    /// The built world the stepper runs over.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The validated configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.scenario.config
    }

    /// The horizon in slots.
    pub fn horizon(&self) -> u32 {
        self.scenario.config.horizon_slots
    }

    /// Number of slots fully completed (advanced *and* applied).
    pub fn completed_slots(&self) -> u32 {
        self.next_slot
    }

    /// Whether a slot has been advanced and awaits its decision.
    pub fn awaiting_decision(&self) -> bool {
        self.phase == Phase::AwaitingDecision
    }

    /// The slot currently being decided (after an advance) or the slot
    /// the next advance will enter.
    pub fn current_slot(&self) -> TimeSlot {
        TimeSlot(self.next_slot)
    }

    /// Whether the whole horizon has been completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::AwaitingAdvance && self.next_slot >= self.horizon()
    }

    /// The advanced slot's per-DC info blocks (what the snapshot's `dcs`
    /// field borrows). Empty before the first advance.
    pub fn dc_infos(&self) -> &[DcInfo] {
        &self.dc_infos
    }

    /// A clone of the report so far with the policy name stamped in —
    /// what a long-running service returns from a mid-run `metrics` call.
    pub fn report_with_policy(&self, policy: &str) -> SimulationReport {
        let mut report = self.report.clone();
        report.policy = policy.to_owned();
        report
    }

    /// Consumes the stepper, stamping the policy name into the report.
    pub fn into_report(self, policy: &str) -> SimulationReport {
        let mut report = self.report;
        report.policy = policy.to_owned();
        report
    }

    pub(crate) fn require_phase(&self, wanted: bool) -> Result<()> {
        match (wanted, self.phase == Phase::AwaitingDecision) {
            (true, false) => Err(Error::invalid_config(
                "no slot is awaiting a decision: call advance_world first",
            )),
            (false, true) => Err(Error::invalid_config(format!(
                "slot {} already advanced and awaits a decision: call apply first",
                self.next_slot
            ))),
            _ => Ok(()),
        }
    }

    pub(crate) fn enter_decision_phase(&mut self) {
        self.phase = Phase::AwaitingDecision;
    }

    pub(crate) fn finish_slot(&mut self) {
        self.phase = Phase::AwaitingAdvance;
        self.next_slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::PlacementDecision;
    use crate::engine::{Scenario, Simulator};
    use crate::policy::GlobalPolicy;
    use crate::testkit::{tiny_config, AllOnFirstDc, RoundRobinDcs};
    use geoplace_workload::fleet::{ExternalArrival, ExternalPair};
    use geoplace_workload::source::{ExternalDeltaSource, SyntheticSource};
    use geoplace_workload::trace::TraceKind;

    fn drive<P: GlobalPolicy>(policy: &mut P) -> SimulationReport {
        let mut stepper = SlotStepper::new(Scenario::build(&tiny_config()).unwrap());
        let mut source = SyntheticSource;
        while !stepper.is_done() {
            stepper.advance_world(&mut source).unwrap();
            let decision = policy.decide(&stepper.observe());
            stepper.apply(decision).unwrap();
        }
        stepper.into_report(policy.name())
    }

    #[test]
    fn hand_driven_stepper_matches_run_bit_for_bit() {
        for (a, b) in [
            (
                drive(&mut AllOnFirstDc),
                Simulator::new(Scenario::build(&tiny_config()).unwrap()).run(&mut AllOnFirstDc),
            ),
            (
                drive(&mut RoundRobinDcs),
                Simulator::new(Scenario::build(&tiny_config()).unwrap()).run(&mut RoundRobinDcs),
            ),
        ] {
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn phase_misuse_is_an_error_not_a_corruption() {
        let mut stepper = SlotStepper::new(Scenario::build(&tiny_config()).unwrap());
        let mut source = SyntheticSource;
        // Apply before any advance: rejected.
        let premature = PlacementDecision::new(3);
        assert!(stepper.apply(premature).is_err());
        stepper.advance_world(&mut source).unwrap();
        // Double advance: rejected, the pending slot stays decidable.
        assert!(stepper.advance_world(&mut source).is_err());
        assert!(stepper.awaiting_decision());
        let decision = AllOnFirstDc.decide(&stepper.observe());
        stepper.apply(decision).unwrap();
        assert_eq!(stepper.completed_slots(), 1);
    }

    #[test]
    fn invalid_decision_leaves_the_slot_decidable() {
        let mut stepper = SlotStepper::new(Scenario::build(&tiny_config()).unwrap());
        stepper.advance_world(&mut SyntheticSource).unwrap();
        // An empty decision places nobody — structurally invalid.
        let err = stepper.apply(PlacementDecision::new(3)).unwrap_err();
        let _ = err.to_string();
        assert!(stepper.awaiting_decision(), "slot must stay decidable");
        assert_eq!(stepper.completed_slots(), 0);
        // A valid retry completes the slot.
        let decision = AllOnFirstDc.decide(&stepper.observe());
        stepper.apply(decision).unwrap();
        assert_eq!(stepper.completed_slots(), 1);
    }

    #[test]
    fn observe_is_idempotent() {
        let mut stepper = SlotStepper::new(Scenario::build(&tiny_config()).unwrap());
        stepper.advance_world(&mut SyntheticSource).unwrap();
        let first: Vec<_> = stepper.observe().vm_ids().to_vec();
        let slot = stepper.observe().slot;
        let again: Vec<_> = stepper.observe().vm_ids().to_vec();
        assert_eq!(first, again);
        assert_eq!(slot, stepper.observe().slot);
    }

    #[test]
    #[should_panic(expected = "no slot awaiting a decision")]
    fn observe_before_advance_panics() {
        let stepper = SlotStepper::new(Scenario::build(&tiny_config()).unwrap());
        let _ = stepper.observe();
    }

    #[test]
    fn horizon_exhaustion_is_an_error() {
        let mut config = tiny_config();
        config.horizon_slots = 1;
        let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
        stepper.advance_world(&mut SyntheticSource).unwrap();
        let decision = AllOnFirstDc.decide(&stepper.observe());
        stepper.apply(decision).unwrap();
        assert!(stepper.is_done());
        let err = stepper.advance_world(&mut SyntheticSource).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
    }

    #[test]
    fn an_outage_evacuates_the_dc_through_the_migration_ledger() {
        use crate::events::{EngineEvent, EventKind};
        use crate::testkit::SpreadOnDc0;
        let mut config = tiny_config();
        config.horizon_slots = 5;
        config.timeline.push(EngineEvent {
            dc: Some(0),
            start_slot: 2,
            end_slot: 4,
            kind: EventKind::DcOutage,
        });
        let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
        let mut policy = SpreadOnDc0;
        let mut source = SyntheticSource;
        let mut evacuation_migrations = 0;
        while !stepper.is_done() {
            stepper.advance_world(&mut source).unwrap();
            let snapshot = stepper.observe();
            let slot = snapshot.slot.0;
            if (2..4).contains(&slot) {
                assert!(snapshot.dcs[0].outaged, "slot {slot}");
                assert_eq!(snapshot.dcs[0].servers, 1, "one-server rollback floor");
            } else {
                assert!(!snapshot.dcs[0].outaged, "slot {slot}");
            }
            let decision = policy.decide(&snapshot);
            let metrics = stepper.apply(decision).unwrap();
            if slot == 2 {
                evacuation_migrations =
                    metrics.record.migrations + metrics.record.migration_overruns;
            }
            if (2..4).contains(&slot) {
                assert!(
                    stepper.assignment.values().all(|&d| d != DcId(0)),
                    "slot {slot}: nothing may stay in the outaged DC"
                );
            }
        }
        assert!(
            evacuation_migrations > 0,
            "the evacuation wave must land in the migration ledger"
        );
        // The fleet returns once the DC is back (the policy packs DC 0).
        assert!(stepper.assignment.values().any(|&d| d == DcId(0)));
    }

    #[test]
    fn a_partition_inflates_the_degraded_dcs_response_times() {
        use crate::events::{EngineEvent, EventKind};
        let drive_worst = |partition: bool| {
            let mut config = tiny_config();
            if partition {
                config.timeline.push(EngineEvent {
                    dc: Some(1),
                    start_slot: 1,
                    end_slot: 3,
                    kind: EventKind::NetworkPartition { factor: 0.25 },
                });
            }
            let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
            let mut policy = RoundRobinDcs;
            let mut source = SyntheticSource;
            let mut worsts = Vec::new();
            while !stepper.is_done() {
                stepper.advance_world(&mut source).unwrap();
                let decision = policy.decide(&stepper.observe());
                let metrics = stepper.apply(decision).unwrap();
                worsts.push(metrics.record.response_worst_s);
            }
            worsts
        };
        let base = drive_worst(false);
        let degraded = drive_worst(true);
        // Outside the window the two runs are bit-identical; inside it
        // the partitioned DC's responses stretch by 1/0.25.
        assert_eq!(base[0].to_bits(), degraded[0].to_bits());
        assert_eq!(base[3].to_bits(), degraded[3].to_bits());
        assert!(
            degraded[1] > base[1] && degraded[2] > base[2],
            "partition slots must feel the degraded links: {base:?} vs {degraded:?}"
        );
    }

    #[test]
    fn a_cascade_derates_dcs_in_lagged_sequence() {
        use crate::events::{EngineEvent, EventKind};
        let mut config = tiny_config();
        config.horizon_slots = 4;
        config.timeline.push(EngineEvent {
            dc: Some(1),
            start_slot: 1,
            end_slot: 2,
            kind: EventKind::CascadeDerate {
                factor: 0.5,
                lag_slots: 1,
            },
        });
        let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
        let mut policy = RoundRobinDcs;
        let mut source = SyntheticSource;
        let full: Vec<u32> = (0..stepper.scenario.dcs.len())
            .map(|d| stepper.server_counts[d])
            .collect();
        while !stepper.is_done() {
            stepper.advance_world(&mut source).unwrap();
            let snapshot = stepper.observe();
            let servers: Vec<u32> = snapshot.dcs.iter().map(|d| d.servers).collect();
            match snapshot.slot.0 {
                // The front hits the origin first, then its neighbor.
                1 => assert_eq!(
                    servers,
                    vec![full[0], full[1] / 2, full[2]],
                    "origin derates first"
                ),
                2 => assert_eq!(
                    servers,
                    vec![full[0], full[1], full[2] / 2],
                    "the front moves one DC per lag slot"
                ),
                _ => assert_eq!(servers, full, "quiet outside the cascade"),
            }
            let decision = policy.decide(&snapshot);
            stepper.apply(decision).unwrap();
        }
    }

    #[test]
    fn external_source_drives_the_stepper() {
        let mut config = tiny_config();
        config.fleet.arrivals.groups_per_slot = 0.0;
        let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
        let mut source = ExternalDeltaSource::new();
        let mut policy = AllOnFirstDc;

        // Slot 0 bootstraps without consulting the source.
        stepper.advance_world(&mut source).unwrap();
        let decision = policy.decide(&stepper.observe());
        stepper.apply(decision).unwrap();

        // Queue an arrival plus a wired pair, then cross the boundary.
        let id = stepper.scenario().fleet.fresh_vm_id();
        let peer = stepper.scenario().fleet.active()[0];
        source.queue_arrival(ExternalArrival {
            id,
            memory_gb: 4.0,
            lifetime_slots: 8,
            kind: TraceKind::WebServing,
            trace_seed: 5,
        });
        source.queue_traffic(ExternalPair {
            a: id,
            b: peer,
            a_to_b_mb: 12.0,
            b_to_a_mb: 3.0,
        });
        let delta = stepper.advance_world(&mut source).unwrap();
        assert_eq!(delta.arrived, vec![id]);
        let snapshot = stepper.observe();
        assert!(snapshot.vm_ids().contains(&id));
        let decision = policy.decide(&snapshot);
        let metrics = stepper.apply(decision).unwrap();
        assert!(metrics.record.active_vms > 0);

        // A rejected batch leaves the boundary uncrossed and retryable.
        source.queue_departure(VmId(u32::MAX));
        assert!(stepper.advance_world(&mut source).is_err());
        assert_eq!(stepper.completed_slots(), 2);
        assert!(stepper.advance_world(&mut source).is_ok());
    }
}
