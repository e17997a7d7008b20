//! Randomized world fuzzing: the global engine invariants (tier-1).
//!
//! Proptest generates small worlds — random arrival regimes, scripted
//! trace arrivals, and event timelines mixing every [`EventKind`]
//! (including outages, partitions and cascades) — and runs short
//! horizons across all four policies. A timeline that downs every DC
//! at once must fail validation and is not run. Every slot's
//! observation is checked against a from-scratch rebuild, and every run
//! must uphold the invariants no perturbation is allowed to break:
//!
//! * **Ledger conservation** — [`SimulationReport::totals`] equals the
//!   sum of its own hourly records (cost, energy, migrations);
//! * **Physicality** — every hourly record is finite and non-negative,
//!   and IT energy never exceeds total (PUE ≥ 1);
//! * **No capacity overshoot** — powered-on servers never exceed the
//!   fleet-wide usable capacity implied by the timeline's derates,
//!   cascades and outages at that slot;
//! * **Determinism** — digests are bit-identical across worker-thread
//!   counts {1, 2, 8};
//! * **Sorted active sets** — the fleet's active-VM list stays strictly
//!   sorted through arbitrary churn, scripted arrivals included.
//!
//! To add an invariant, extend `check_invariants` (it runs against
//! every fuzzed report) — see README § Fuzzing. CI runs this file as a
//! dedicated capped step with `FUZZ_WORLDS_QUICK=1`.

mod common;

use common::run_checked;
use geoplace_bench::scenario::{policy_for, PolicyKind};
use geoplace_dcsim::checkpoint::{checkpoint_with_policy, restore_with_policy};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::engine::Scenario;
use geoplace_dcsim::events::{effective_servers, EngineEvent, EventKind};
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_dcsim::stepper::SlotStepper;
use geoplace_dcsim::testkit::assert_observation_matches_rebuild;
use geoplace_types::snap::Checkpoint;
use geoplace_types::time::TimeSlot;
use geoplace_types::Parallelism;
use geoplace_workload::arrivals::ScriptedArrival;
use geoplace_workload::fleet::VmFleet;
use geoplace_workload::source::SyntheticSource;
use geoplace_workload::trace::TraceKind;
use proptest::prelude::*;

/// Fuzz budget: CI's dedicated step caps the case count so the job
/// stays bounded; local runs get the fuller sweep.
fn fuzz_cases() -> u32 {
    // audit:allow(D2): the env var only picks the proptest case count, never simulation state
    if std::env::var_os("FUZZ_WORLDS_QUICK").is_some() {
        3
    } else {
        8
    }
}

/// One raw fuzzed event: (kind index, dc, fleet-wide flag) plus
/// (start, length, factor in percent, cascade lag). Lowered by
/// [`lower_event`].
type RawEvent = ((u8, u16, u8), (u32, u32, u32, u32));

fn event_strategy() -> impl Strategy<Value = RawEvent> {
    (
        (0u8..6, 0u16..3, 0u8..2),
        (0u32..6, 1u32..5, 20u32..101, 1u32..3),
    )
}

fn lower_event(((kind, dc, fleet_wide), (start, len, pct, lag)): RawEvent) -> EngineEvent {
    let factor = f64::from(pct) / 100.0;
    let targeted = Some(dc);
    let maybe = if fleet_wide == 1 { None } else { targeted };
    let (dc, kind) = match kind {
        0 => (maybe, EventKind::CapacityDerate { factor }),
        1 => (
            maybe,
            EventKind::PriceSpike {
                factor: 1.0 + factor * 3.0,
            },
        ),
        2 => (maybe, EventKind::PvDerate { factor }),
        // Outages and cascades always name a concrete DC.
        3 => (targeted, EventKind::DcOutage),
        4 => (maybe, EventKind::NetworkPartition { factor }),
        _ => (
            targeted,
            EventKind::CascadeDerate {
                factor,
                lag_slots: lag,
            },
        ),
    };
    EngineEvent {
        dc,
        start_slot: start,
        end_slot: start + len,
        kind,
    }
}

/// One raw scripted arrival: (slot, memory index, lifetime, kind index,
/// trace seed).
type RawScript = (u32, u8, u32, u8, u64);

fn script_strategy() -> impl Strategy<Value = RawScript> {
    (1u32..4, 0u8..4, 1u32..10, 0u8..3, 0u64..1000)
}

fn lower_script((slot, mem, lifetime, kind, seed): RawScript) -> ScriptedArrival {
    ScriptedArrival {
        slot,
        memory_gb: [1.0, 2.0, 4.0, 8.0][usize::from(mem)],
        lifetime_slots: lifetime,
        kind: [TraceKind::WebServing, TraceKind::Batch, TraceKind::Hpc][usize::from(kind)],
        trace_seed: seed,
    }
}

/// A small fuzzed world: the scaled base with a randomized arrival
/// regime, scripted arrivals and a randomized event timeline.
fn fuzzed_config(
    seed: u64,
    initial_groups: u32,
    groups_per_slot: f64,
    horizon: u32,
    events: &[RawEvent],
    scripts: &[RawScript],
) -> ScenarioConfig {
    let mut config = ScenarioConfig::scaled(seed);
    config.horizon_slots = horizon;
    config.fleet.arrivals.seed = seed ^ 0xF022;
    config.fleet.arrivals.initial_groups = initial_groups;
    config.fleet.arrivals.groups_per_slot = groups_per_slot;
    config.fleet.arrivals.scripted = scripts.iter().map(|&s| lower_script(s)).collect();
    for &raw in events {
        config.timeline.push(lower_event(raw));
    }
    config
}

/// Fleet-wide usable servers at `slot` under the timeline: outaged DCs
/// collapse to one server, everything else derates through the same
/// [`effective_servers`] the engine uses.
fn usable_capacity(config: &ScenarioConfig, slot: TimeSlot) -> u32 {
    config
        .dcs
        .iter()
        .enumerate()
        .map(|(d, dc)| {
            let factors = config.timeline.resolve(d, slot);
            if factors.outaged {
                1
            } else {
                effective_servers(dc.servers, factors.capacity)
            }
        })
        .sum()
}

/// Whether the raw events down every DC of `config` at some slot,
/// read off the events themselves rather than through the timeline.
fn downs_every_dc(config: &ScenarioConfig, events: &[RawEvent]) -> bool {
    let events: Vec<EngineEvent> = events.iter().map(|&raw| lower_event(raw)).collect();
    (0..16u32).any(|slot| {
        (0..config.dcs.len()).all(|d| {
            events.iter().any(|e| {
                e.kind == EventKind::DcOutage
                    && e.targets(d)
                    && (e.start_slot..e.end_slot).contains(&slot)
            })
        })
    })
}

fn run_at(config: &ScenarioConfig, kind: PolicyKind, threads: usize) -> SimulationReport {
    let mut config = config.clone();
    config.parallelism = Parallelism::Threads(threads);
    run_checked(&config, kind)
}

/// The global invariant suite, applied to every fuzzed report.
fn check_invariants(config: &ScenarioConfig, report: &SimulationReport) -> Result<(), String> {
    let fail = |msg: String| Err(format!("{}: {msg}", report.policy));
    if report.hourly.len() != config.horizon_slots as usize {
        return fail(format!(
            "expected {} hourly records, got {}",
            config.horizon_slots,
            report.hourly.len()
        ));
    }
    let (mut cost, mut energy_gj, mut migrations, mut overruns) = (0.0f64, 0.0f64, 0u64, 0u64);
    for h in &report.hourly {
        for (name, value) in [
            ("cost_eur", h.cost_eur),
            ("it_energy_j", h.it_energy_j),
            ("total_energy_j", h.total_energy_j),
            ("grid_energy_j", h.grid_energy_j),
            ("pv_used_j", h.pv_used_j),
            ("response_worst_s", h.response_worst_s),
            ("response_mean_s", h.response_mean_s),
            ("migration_volume_gb", h.migration_volume_gb),
        ] {
            if !value.is_finite() || value < 0.0 {
                return fail(format!("slot {}: {name} = {value} is unphysical", h.slot));
            }
        }
        if h.it_energy_j > h.total_energy_j * (1.0 + 1e-12) {
            return fail(format!(
                "slot {}: IT energy {} exceeds total {} (PUE < 1?)",
                h.slot, h.it_energy_j, h.total_energy_j
            ));
        }
        let cap = usable_capacity(config, TimeSlot(h.slot));
        if h.active_servers > cap {
            return fail(format!(
                "slot {}: {} powered servers overshoot the usable capacity {cap}",
                h.slot, h.active_servers
            ));
        }
        cost += h.cost_eur;
        energy_gj += h.total_energy_j / 1e9;
        migrations += u64::from(h.migrations);
        overruns += u64::from(h.migration_overruns);
    }
    let totals = report.totals();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    if !close(totals.cost_eur, cost)
        || !close(totals.energy_gj, energy_gj)
        || totals.migrations != migrations
        || totals.migration_overruns != overruns
    {
        return fail(format!(
            "ledger broken: totals {totals:?} vs recomputed \
             (cost {cost}, energy {energy_gj} GJ, {migrations} migrations, {overruns} overruns)"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Random worlds with failure-heavy timelines: every policy at
    /// thread counts {1, 2, 8} — every slot matches the rebuild, the
    /// invariants hold and the digests agree.
    #[test]
    fn fuzzed_worlds_uphold_the_global_invariants(
        seed in 0u64..1000,
        initial_groups in 4u32..16,
        groups_per_slot in 0.5f64..3.0,
        horizon in 3u32..6,
        events in proptest::collection::vec(event_strategy(), 0..5),
        scripts in proptest::collection::vec(script_strategy(), 0..4),
    ) {
        let config = fuzzed_config(seed, initial_groups, groups_per_slot, horizon, &events, &scripts);
        if downs_every_dc(&config, &events) {
            prop_assert!(config.validate().is_err(), "a fleet-wide outage must be refused");
            return Ok(());
        }
        prop_assert!(config.validate().is_ok(), "fuzzed config invalid: {:?}", config.validate());
        for policy in PolicyKind::ALL {
            let reference = run_at(&config, policy, 1);
            if let Err(msg) = check_invariants(&config, &reference) {
                prop_assert!(false, "seed {}: {}", seed, msg);
            }
            for threads in [2usize, 8] {
                prop_assert_eq!(
                    run_at(&config, policy, threads).digest(),
                    reference.digest(),
                    "{} seed {}: {} threads diverged",
                    policy.name(),
                    seed,
                    threads
                );
            }
        }
    }

    /// Checkpoint/resume is invisible: freezing a fuzzed world at a
    /// proptest-chosen slot boundary, round-tripping the snapshot
    /// through the codec, and resuming into fresh process state
    /// reproduces the uninterrupted run's digest AND its per-slot state
    /// hashes bit-for-bit. The timeline carries one event of every
    /// [`EventKind`], and every slot of both runs, the first one after
    /// the restore included, matches the rebuild.
    #[test]
    fn fuzzed_checkpoints_resume_bit_identically(
        seed in 0u64..1000,
        initial_groups in 4u32..12,
        groups_per_slot in 0.5f64..2.5,
        horizon in 3u32..6,
        ck_pick in 1u32..100,
        events in proptest::collection::vec(event_strategy(), 6),
    ) {
        // Force full kind coverage: event i carries kind i, so every
        // case exercises derates, spikes, outages, partitions and
        // cascades across the checkpoint boundary.
        let events: Vec<RawEvent> = events
            .iter()
            .enumerate()
            .map(|(i, &((_, dc, fleet_wide), rest))| ((i as u8, dc, fleet_wide), rest))
            .collect();
        let ck_slot = 1 + ck_pick % (horizon - 1);
        let config = fuzzed_config(seed, initial_groups, groups_per_slot, horizon, &events, &[]);
        prop_assert!(config.validate().is_ok(), "fuzzed config invalid: {:?}", config.validate());

        // Uninterrupted reference, recording every slot's state hash.
        let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
        let mut policy = policy_for(&config, PolicyKind::Proposed);
        let mut source = SyntheticSource;
        let mut reference_hashes = Vec::new();
        while !stepper.is_done() {
            stepper.advance_world(&mut source).unwrap();
            assert_observation_matches_rebuild(&stepper);
            let d = policy.decide(&stepper.observe());
            reference_hashes.push(stepper.apply(d).unwrap().state_hash);
        }
        let reference = stepper.into_report(policy.name());

        // Interrupted run: freeze at ck_slot, codec round-trip, restore
        // into entirely fresh state, resume to the horizon.
        let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
        let mut policy = policy_for(&config, PolicyKind::Proposed);
        for _ in 0..ck_slot {
            stepper.advance_world(&mut source).unwrap();
            let d = policy.decide(&stepper.observe());
            stepper.apply(d).unwrap();
        }
        let ck = checkpoint_with_policy(&stepper, &*policy).unwrap();
        let ck = Checkpoint::decode(&ck.encode()).unwrap();
        prop_assert_eq!(
            ck.state_hash,
            reference_hashes[ck_slot as usize - 1],
            "checkpoint hash at slot {} diverged from the uninterrupted run",
            ck_slot
        );
        let mut resumed = SlotStepper::new(Scenario::build(&config).unwrap());
        let mut fresh = policy_for(&config, PolicyKind::Proposed);
        restore_with_policy(&mut resumed, &mut *fresh, &ck).unwrap();
        let mut resumed_hashes = Vec::new();
        while !resumed.is_done() {
            resumed.advance_world(&mut source).unwrap();
            assert_observation_matches_rebuild(&resumed);
            let d = fresh.decide(&resumed.observe());
            resumed_hashes.push(resumed.apply(d).unwrap().state_hash);
        }
        prop_assert_eq!(
            &resumed_hashes,
            &reference_hashes[ck_slot as usize..],
            "per-slot state hashes diverged after resuming at slot {}",
            ck_slot
        );
        let report = resumed.into_report(fresh.name());
        prop_assert_eq!(
            report.digest(),
            reference.digest(),
            "resumed digest diverged at checkpoint slot {}",
            ck_slot
        );
    }

    /// The fleet's active set stays strictly sorted through arbitrary
    /// churn, scripted trace arrivals included.
    #[test]
    fn fuzzed_fleets_keep_sorted_active_sets(
        seed in 0u64..1000,
        initial_groups in 2u32..16,
        groups_per_slot in 0.5f64..4.0,
        horizon in 3u32..7,
        scripts in proptest::collection::vec(script_strategy(), 0..6),
    ) {
        let config = fuzzed_config(seed, initial_groups, groups_per_slot, horizon, &[], &scripts);
        let mut fleet = VmFleet::new(config.fleet).unwrap();
        for slot in 0..=horizon {
            if slot > 0 {
                fleet.advance_to(TimeSlot(slot));
            }
            let active = fleet.active();
            prop_assert!(
                active.windows(2).all(|w| w[0] < w[1]),
                "slot {}: active set unsorted or duplicated",
                slot
            );
        }
    }
}
