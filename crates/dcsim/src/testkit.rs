//! Deliberately simple [`GlobalPolicy`] stubs and world helpers shared by
//! the engine/stepper test suites (here and in downstream crates).
//!
//! Each stub isolates one engine behavior — packing, spreading,
//! migration waves, DVFS-table edges, observation probing — without the
//! smartness of a real policy getting in the way. They used to be
//! copy-pasted inline in `engine.rs` tests; shared here so the engine,
//! stepper and service suites exercise the *same* pathological drivers.
//!
//! [`assert_observation_matches_rebuild`] is the check those suites run
//! on every slot: the stepper keeps the policy's inputs in buffers it
//! reuses from slot to slot, and the check rebuilds them from scratch.

use crate::decision::{PlacementDecision, ServerAssignment};
use crate::policy::GlobalPolicy;
use crate::power::{FreqLevel, OperatingPoint, ServerPowerModel};
use crate::snapshot::SystemSnapshot;
use crate::stepper::SlotStepper;
use geoplace_types::time::TICKS_PER_SLOT;
use geoplace_types::DcId;
use geoplace_types::VmId;
use geoplace_workload::window::UtilizationWindows;

/// Asserts that the advanced slot's observation equals a from-scratch
/// rebuild from the fleet. The stepper carries the utilization windows
/// across slots and patches them with each churn delta, and it refills
/// the traffic CSR in buffers it keeps; rebuilt from the fleet alone,
/// into fresh allocations, both must come out the same:
///
/// * the observed windows are `fleet.windows(prev_slot)`, or all zeros
///   at slot 0;
/// * the traffic graph is `fleet.data_correlation().traffic_graph(arena)`.
///
/// Call it after any [`SlotStepper::advance_world`], the first one
/// after a restore included.
///
/// # Panics
///
/// Panics naming the slot and the structure that differs, or when no
/// slot is awaiting a decision.
pub fn assert_observation_matches_rebuild(stepper: &SlotStepper) {
    let snapshot = stepper.observe();
    let fleet = &stepper.scenario().fleet;
    let slot = snapshot.slot;
    let windows = match slot.prev() {
        Some(prev) => fleet.windows(prev),
        None => UtilizationWindows::zeros(fleet.active(), TICKS_PER_SLOT),
    };
    // `assert!`, not `assert_eq!`: a stress-scale mismatch would print
    // millions of samples.
    assert!(
        *snapshot.windows == windows,
        "{slot}: the observed windows differ from a rebuild"
    );
    let traffic = fleet.data_correlation().traffic_graph(snapshot.arena);
    assert!(
        *snapshot.traffic == traffic,
        "{slot}: the traffic graph differs from a rebuild"
    );
}

/// A trivial policy: every VM onto DC 0, round-robin across servers,
/// top frequency.
pub struct AllOnFirstDc;

impl GlobalPolicy for AllOnFirstDc {
    fn name(&self) -> &'static str {
        "all-on-dc0"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let mut decision = PlacementDecision::new(snapshot.dc_count());
        let per_server = 4usize;
        for (chunk_index, chunk) in snapshot.vm_ids().chunks(per_server).enumerate() {
            decision.push(
                DcId(0),
                ServerAssignment {
                    server: chunk_index as u32,
                    freq: FreqLevel(1),
                    vms: chunk.to_vec(),
                },
            );
        }
        decision
    }
}

/// A policy that spreads VMs round-robin across DCs, forcing inter-DC
/// traffic and migrations.
pub struct RoundRobinDcs;

impl GlobalPolicy for RoundRobinDcs {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let n = snapshot.dc_count();
        let mut decision = PlacementDecision::new(n);
        let mut server_counter = vec![0u32; n];
        for (i, &vm) in snapshot.vm_ids().iter().enumerate() {
            let dc = i % n;
            decision.push(
                DcId(dc as u16),
                ServerAssignment {
                    server: server_counter[dc],
                    freq: FreqLevel(1),
                    vms: vec![vm],
                },
            );
            server_counter[dc] += 1;
        }
        decision
    }
}

/// A policy that deliberately ping-pongs every VM between DCs each
/// slot, so every slot after the first requests a full-fleet migration
/// wave.
pub struct PingPong {
    /// Decide-call counter; DC = (turn − 1) mod 2.
    pub turn: usize,
}

impl GlobalPolicy for PingPong {
    fn name(&self) -> &'static str {
        "ping-pong"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        self.turn += 1;
        let dc = DcId(((self.turn - 1) % 2) as u16);
        let mut decision = PlacementDecision::new(snapshot.dc_count());
        for (chunk_index, chunk) in snapshot.vm_ids().chunks(4).enumerate() {
            decision.push(
                dc,
                ServerAssignment {
                    server: chunk_index as u32,
                    freq: FreqLevel(1),
                    vms: chunk.to_vec(),
                },
            );
        }
        decision
    }
}

/// A policy that packs every VM as densely as the observed server
/// count allows, one DC — used to observe capacity derates.
pub struct SpreadOnDc0;

impl GlobalPolicy for SpreadOnDc0 {
    fn name(&self) -> &'static str {
        "spread-on-dc0"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let mut decision = PlacementDecision::new(snapshot.dc_count());
        let servers = (snapshot.dcs[0].servers as usize)
            .min(snapshot.vm_ids().len())
            .max(1);
        let mut per_server: Vec<Vec<VmId>> = vec![Vec::new(); servers];
        for (i, &vm) in snapshot.vm_ids().iter().enumerate() {
            per_server[i % servers].push(vm);
        }
        for (server, vms) in per_server.into_iter().enumerate() {
            if vms.is_empty() {
                continue;
            }
            decision.push(
                DcId(0),
                ServerAssignment {
                    server: server as u32,
                    freq: FreqLevel(1),
                    vms,
                },
            );
        }
        decision
    }
}

/// Places every VM on one fixed DC at that DC's own top DVFS level.
pub struct AllOnDcAtTop {
    /// The target DC index.
    pub dc: u16,
}

impl GlobalPolicy for AllOnDcAtTop {
    fn name(&self) -> &'static str {
        "all-on-dc-at-top"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let dc = DcId(self.dc);
        let freq = snapshot.dcs[self.dc as usize].power_model.max_level();
        let mut decision = PlacementDecision::new(snapshot.dc_count());
        for (chunk_index, chunk) in snapshot.vm_ids().chunks(4).enumerate() {
            decision.push(
                dc,
                ServerAssignment {
                    server: chunk_index as u32,
                    freq,
                    vms: chunk.to_vec(),
                },
            );
        }
        decision
    }
}

/// Ping-pongs the fleet between two DCs, always at the *destination*
/// DC's own top DVFS level.
pub struct HeteroPingPong {
    /// Decide-call counter; DC = (turn − 1) mod 2.
    pub turn: usize,
}

impl GlobalPolicy for HeteroPingPong {
    fn name(&self) -> &'static str {
        "hetero-ping-pong"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        self.turn += 1;
        let dc_index = (self.turn - 1) % 2;
        let freq = snapshot.dcs[dc_index].power_model.max_level();
        let mut decision = PlacementDecision::new(snapshot.dc_count());
        for (chunk_index, chunk) in snapshot.vm_ids().chunks(4).enumerate() {
            decision.push(
                DcId(dc_index as u16),
                ServerAssignment {
                    server: chunk_index as u32,
                    freq,
                    vms: chunk.to_vec(),
                },
            );
        }
        decision
    }
}

/// Records the total observed-window mass per decide call.
pub struct ObservationProbe {
    /// One entry per decide call: the sum of every observed sample.
    pub sums: Vec<f64>,
}

impl GlobalPolicy for ObservationProbe {
    fn name(&self) -> &'static str {
        "observation-probe"
    }

    fn decide(&mut self, snapshot: &SystemSnapshot<'_>) -> PlacementDecision {
        let sum: f64 = (0..snapshot.vm_count())
            .map(|pos| {
                snapshot
                    .windows
                    .row_at(pos)
                    .iter()
                    .map(|&u| u as f64)
                    .sum::<f64>()
            })
            .sum();
        self.sums.push(sum);
        let mut decision = PlacementDecision::new(snapshot.dc_count());
        for (chunk_index, chunk) in snapshot.vm_ids().chunks(4).enumerate() {
            decision.push(
                DcId(0),
                ServerAssignment {
                    server: chunk_index as u32,
                    freq: FreqLevel(0),
                    vms: chunk.to_vec(),
                },
            );
        }
        decision
    }
}

/// A single-level (no-DVFS-choice) variant of the Xeon table.
pub fn single_level_model() -> ServerPowerModel {
    ServerPowerModel::new(
        8,
        vec![OperatingPoint {
            ghz: 2.0,
            idle: geoplace_types::units::Watts(141.0),
            full: geoplace_types::units::Watts(209.0),
        }],
    )
    .unwrap()
}

/// A 4-slot, ~30-VM world: large enough to exercise churn and
/// migrations, small enough for unit-test budgets.
pub fn tiny_config() -> crate::config::ScenarioConfig {
    let mut config = crate::config::ScenarioConfig::scaled(11);
    config.horizon_slots = 4;
    config.fleet.arrivals.initial_groups = 8;
    config.fleet.arrivals.groups_per_slot = 0.5;
    config
}
