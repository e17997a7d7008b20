//! The slot engine driven in-process through its public phases
//! (`advance_world → observe → decide → apply`), and the checkpoint
//! save/restore round on the same run.
//!
//! Only the calls made here are timed. In the traced run two layers are
//! also replayed between `observe` and `decide` — the same public
//! function on the same inputs, its result asserted equal to the
//! engine's — and the replay time is taken out of the slot time.

use crate::script::{Script, Sink};
use crate::trace::{ms, now, Trace};
use geoplace_bench::scenario::proposed_config_for;
use geoplace_core::ProposedPolicy;
use geoplace_dcsim::checkpoint::{checkpoint_with_policy, restore_with_policy};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::engine::Scenario;
use geoplace_dcsim::policy::GlobalPolicy;
use geoplace_dcsim::stepper::SlotStepper;
use geoplace_types::snap::Checkpoint;
use geoplace_types::time::{TimeSlot, TICKS_PER_SLOT};
use geoplace_types::{Exec, VmId};
use geoplace_workload::cpucorr::{CorrelationMetric, CpuCorrelationMatrix};
use geoplace_workload::fleet::{
    ExternalArrival, ExternalPair, ExternalSlotEvents, FleetDelta, VmFleet,
};
use geoplace_workload::source::{DeltaSource, ExternalDeltaSource, SyntheticSource};
use geoplace_workload::trace::TraceKind;
use geoplace_workload::window::UtilizationWindows;
use std::time::Instant;

/// Checkpoints saved at every inner boundary: each save is a few
/// milliseconds, so repeating it gives `ckpt_save_ms` enough samples
/// spread over the run at little cost.
const SAVES_PER_BOUNDARY: usize = 3;

/// Where fleet changes come from.
#[derive(Debug, Clone, Copy)]
pub enum Feed {
    /// The scenario's own arrival process.
    Synthetic,
    /// The seeded churn script, queued as external events.
    Script(u64),
}

/// What one slot did and cost.
#[derive(Debug, Clone)]
pub struct SlotRow {
    /// `advance_world` through `apply`, replays excluded.
    pub ms: f64,
    pub active: u32,
    pub state_hash: u64,
    pub sparse: bool,
    pub outaged: bool,
    pub migrations: u32,
    pub overruns: u32,
    pub migration_gb: f64,
    pub active_servers: u32,
    pub force_iterations: usize,
    pub corr_edges: usize,
    pub traffic_edges: usize,
    pub arrived: usize,
    pub departed: usize,
}

/// An encoded checkpoint taken at the boundary into `boundary`.
struct Saved {
    boundary: u32,
    bytes: Vec<u8>,
}

/// What [`drive`] interleaves with its slots. Interleaving spreads every
/// kind of sample over the whole run, so a slow spell of the host moves
/// all medians a little instead of one of them a lot.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interleave<'a> {
    /// Boundaries whose checkpoint is restored right after the slot it
    /// opens has run.
    pub restore_at: &'a [u32],
    /// Restores of each of those checkpoints; the first also drives the
    /// slot.
    pub restore_repeats: u32,
    /// World + policy builds timed after every slot.
    pub setups_per_slot: u32,
}

/// One uninterrupted run.
pub struct EngineRun {
    /// World build plus stepper and policy construction (ms): the run's
    /// own, then the interleaved ones.
    pub setups_ms: Vec<f64>,
    pub rows: Vec<SlotRow>,
    pub digest: String,
    pub force_cap: usize,
    /// `checkpoint_with_policy` + `encode`, [`SAVES_PER_BOUNDARY`] times
    /// at every inner boundary (ms).
    pub save_ms: Vec<f64>,
    pub snapshot_bytes: Vec<usize>,
    pub restores: Vec<Restore>,
}

/// Times the inner source's `advance` as a child span of `advance_world`.
struct TimedSource<'a> {
    inner: &'a mut dyn DeltaSource,
    span: Option<(Instant, Instant)>,
}

impl DeltaSource for TimedSource<'_> {
    fn advance(
        &mut self,
        fleet: &mut VmFleet,
        slot: TimeSlot,
    ) -> geoplace_types::Result<FleetDelta> {
        let start = now();
        let delta = self.inner.advance(fleet, slot);
        self.span = Some((start, now()));
        delta
    }
}

/// Queues script commands into an external source, handing out ids the
/// way the serve session does.
struct Queue<'a> {
    source: &'a mut ExternalDeltaSource,
    fresh: u32,
    next_id: &'a mut u32,
}

impl Sink for Queue<'_> {
    fn arrive(
        &mut self,
        memory_gb: f64,
        lifetime: u32,
        profile: &str,
        trace_seed: u64,
    ) -> Result<u32, String> {
        let id = (*self.next_id).max(self.fresh);
        *self.next_id = id + 1;
        let kind = match profile {
            "batch" => TraceKind::Batch,
            "hpc" => TraceKind::Hpc,
            _ => TraceKind::WebServing,
        };
        self.source.queue_arrival(ExternalArrival {
            id: VmId(id),
            memory_gb,
            lifetime_slots: lifetime,
            kind,
            trace_seed,
        });
        Ok(id)
    }

    fn wire(&mut self, a: u32, b: u32, a_to_b_mb: f64, b_to_a_mb: f64) -> Result<(), String> {
        self.source.queue_traffic(ExternalPair {
            a: VmId(a),
            b: VmId(b),
            a_to_b_mb,
            b_to_a_mb,
        });
        Ok(())
    }

    fn depart(&mut self, id: u32) -> Result<(), String> {
        self.source.queue_departure(VmId(id));
        Ok(())
    }

    fn status(&mut self) -> Result<(), String> {
        Ok(())
    }
}

fn build(config: &ScenarioConfig) -> Result<(SlotStepper, ProposedPolicy), String> {
    let scenario = Scenario::build(config).map_err(|e| e.to_string())?;
    Ok((
        SlotStepper::new(scenario),
        ProposedPolicy::new(proposed_config_for(config)),
    ))
}

/// The wall time (ms) of one world + policy build.
fn time_build(config: &ScenarioConfig) -> Result<f64, String> {
    let start = now();
    let built = build(config)?;
    let end = now();
    drop(built);
    Ok(ms(start, end))
}

/// Row-by-row equality of two window matrices.
fn same_windows(a: &UtilizationWindows, b: &UtilizationWindows) -> bool {
    a.ids() == b.ids() && (0..a.len()).all(|i| a.row_at(i) == b.row_at(i))
}

/// Drives the whole horizon of `config`, checkpointing at every inner
/// boundary, with `also` interleaved and `between` called after every
/// slot.
pub fn drive(
    config: &ScenarioConfig,
    feed: Feed,
    also: Interleave<'_>,
    between: &mut dyn FnMut() -> Result<(), String>,
    mut trace: Option<&mut Trace>,
) -> Result<EngineRun, String> {
    let start = now();
    let (mut stepper, mut policy) = build(config)?;
    let setup_ms = ms(start, now());
    let exec = Exec::new(config.parallelism);
    let mut synthetic = SyntheticSource;
    let mut external = ExternalDeltaSource::new();
    let mut script = match feed {
        Feed::Synthetic => None,
        Feed::Script(seed) => Some(Script::new(seed)),
    };
    let mut next_id = 0u32;
    let mut replayed = UtilizationWindows::zeros(&[], TICKS_PER_SLOT);
    // The checkpoint of the boundary the current slot opened, when it is
    // to be restored.
    let mut to_restore: Option<Saved> = None;
    let mut run = EngineRun {
        setups_ms: vec![setup_ms],
        rows: Vec::new(),
        digest: String::new(),
        force_cap: policy.config().max_force_iterations,
        save_ms: Vec::new(),
        snapshot_bytes: Vec::new(),
        restores: Vec::new(),
    };
    for s in 0..config.horizon_slots {
        let mut batch = ExternalSlotEvents::default();
        if let (Some(script), true) = (script.as_mut(), s > 0) {
            let fresh = stepper.scenario().fleet.fresh_vm_id().0;
            script.churn(
                s,
                &mut Queue {
                    source: &mut external,
                    fresh,
                    next_id: &mut next_id,
                },
            )?;
            batch = external.pending().clone();
        }
        let source: &mut dyn DeltaSource = if script.is_some() {
            &mut external
        } else {
            &mut synthetic
        };
        let mut timed = TimedSource {
            inner: source,
            span: None,
        };

        let slot_start = now();
        let delta = stepper
            .advance_world(&mut timed)
            .map_err(|e| format!("slot {s}: advance_world: {e}"))?;
        let advanced = now();
        let snapshot = stepper.observe();
        let observed = now();
        let mut replays: Vec<(&'static str, Instant, Instant)> = Vec::new();
        let mut replay_ms = 0.0;
        if trace.is_some() && s > 0 {
            let r0 = now();
            stepper
                .scenario()
                .fleet
                .windows_into(TimeSlot(s - 1), &mut replayed);
            let r1 = now();
            if !same_windows(&replayed, snapshot.windows) {
                return Err(format!(
                    "slot {s}: replayed windows differ from the engine's"
                ));
            }
            let r2 = now();
            let corr = CpuCorrelationMatrix::compute_auto_exec(
                snapshot.windows,
                CorrelationMetric::PeakCoincidence,
                &config.sparsity,
                exec,
            );
            let r3 = now();
            if corr != *snapshot.cpu_corr {
                return Err(format!(
                    "slot {s}: replayed CPU correlation differs from the engine's"
                ));
            }
            drop(corr);
            let r4 = now();
            replay_ms = ms(r0, r4);
            replays.push(("workload.window_fill", r0, r1));
            replays.push(("workload.cpucorr", r2, r3));
        }
        let active = snapshot.vm_count() as u32;
        let sparse = snapshot.cpu_corr.is_sparse();
        let outaged = snapshot.dcs.iter().any(|dc| dc.outaged);
        // Stored neighbour entries: the sparse CSR's, or every ordered
        // pair of the dense matrix.
        let corr_edges = if sparse {
            snapshot.cpu_corr.edge_count()
        } else {
            active as usize * (active as usize).saturating_sub(1)
        };
        let traffic_edges = snapshot.traffic.edge_count();
        let deciding = now();
        let decision = policy.decide(&snapshot);
        let decided = now();
        let metrics = stepper
            .apply(decision)
            .map_err(|e| format!("slot {s}: apply: {e}"))?;
        let slot_end = now();

        if let Some(trace) = trace.as_deref_mut() {
            let slot = trace.add("dcsim.slot", s, None, slot_start, slot_end);
            let advance = trace.add("dcsim.advance_world", s, Some(slot), slot_start, advanced);
            if let Some((a, b)) = timed.span {
                trace.add("workload.fleet_advance", s, Some(advance), a, b);
            }
            trace.add("dcsim.observe", s, Some(slot), advanced, observed);
            for (name, a, b) in replays {
                trace.add(name, s, Some(slot), a, b);
            }
            trace.add("core.decide", s, Some(slot), deciding, decided);
            trace.add("dcsim.apply", s, Some(slot), decided, slot_end);
        }
        let state_hash = metrics.state_hash;
        let record = metrics.record;
        run.rows.push(SlotRow {
            ms: ms(slot_start, slot_end) - replay_ms,
            active,
            state_hash,
            sparse,
            outaged,
            migrations: record.migrations,
            overruns: record.migration_overruns,
            migration_gb: record.migration_volume_gb,
            active_servers: record.active_servers,
            force_iterations: policy.last_force_iterations(),
            corr_edges,
            traffic_edges,
            arrived: delta.arrived.len(),
            departed: delta.departed.len(),
        });

        if let Some(saved) = to_restore.take() {
            for repeat in 0..also.restore_repeats {
                let next = (repeat == 0).then_some(NextSlot {
                    batch: &batch,
                    feed,
                    state_hash,
                });
                run.restores
                    .push(restore(config, &saved, next, trace.as_deref_mut())?);
            }
        }
        for _ in 0..also.setups_per_slot {
            run.setups_ms.push(time_build(config)?);
        }
        between()?;
        if s + 1 < config.horizon_slots {
            let mut bytes = Vec::new();
            for _ in 0..SAVES_PER_BOUNDARY {
                let c0 = now();
                let ck = checkpoint_with_policy(&stepper, &policy)
                    .map_err(|e| format!("checkpoint at boundary {}: {e}", s + 1))?;
                let c1 = now();
                bytes = ck.encode();
                let c2 = now();
                run.save_ms.push(ms(c0, c2));
                if let Some(trace) = trace.as_deref_mut() {
                    trace.add("dcsim.checkpoint.capture", s + 1, None, c0, c1);
                    trace.add("types.snap.encode", s + 1, None, c1, c2);
                }
            }
            run.snapshot_bytes.push(bytes.len());
            if also.restore_at.contains(&(s + 1)) {
                to_restore = Some(Saved {
                    boundary: s + 1,
                    bytes,
                });
            }
        }
    }
    run.digest = stepper.into_report(policy.name()).digest();
    Ok(run)
}

/// The parts of one restore (ms).
#[derive(Debug, Clone, Copy)]
pub struct Restore {
    pub decode_ms: f64,
    pub build_ms: f64,
    pub restore_ms: f64,
}

impl Restore {
    /// `decode` + world build + `restore_with_policy`: what a resuming
    /// user waits for before the first slot.
    pub fn total_ms(&self) -> f64 {
        self.decode_ms + self.build_ms + self.restore_ms
    }
}

/// The slot a restore drives after it, and the state hash the
/// uninterrupted run ended that slot on.
struct NextSlot<'a> {
    batch: &'a ExternalSlotEvents,
    feed: Feed,
    state_hash: u64,
}

/// Restores `saved` into a freshly built world and checks that it lands
/// on the checkpoint's state hash. With `next`, it then drives the slot
/// after the boundary with the batch the uninterrupted run applied there
/// and checks that the slot ends on the uninterrupted run's state hash.
fn restore(
    config: &ScenarioConfig,
    saved: &Saved,
    next: Option<NextSlot<'_>>,
    mut trace: Option<&mut Trace>,
) -> Result<Restore, String> {
    let b = saved.boundary;
    let t0 = now();
    let decoded = Checkpoint::decode(&saved.bytes).map_err(|e| format!("decode at {b}: {e}"))?;
    let t1 = now();
    let (mut stepper, mut policy) = build(config)?;
    let t2 = now();
    restore_with_policy(&mut stepper, &mut policy, &decoded)
        .map_err(|e| format!("restore at {b}: {e}"))?;
    let t3 = now();
    if stepper.completed_slots() != b || stepper.state_hash() != decoded.state_hash {
        return Err(format!(
            "checkpoint for boundary {b} restored to another state ({} completed slots)",
            stepper.completed_slots()
        ));
    }
    if let Some(trace) = trace.as_deref_mut() {
        trace.add("types.snap.decode", b, None, t0, t1);
        trace.add("dcsim.engine.build", b, None, t1, t2);
        trace.add("dcsim.checkpoint.restore", b, None, t2, t3);
    }
    if let Some(next) = next {
        let mut external = ExternalDeltaSource::new();
        for arrival in &next.batch.arrivals {
            external.queue_arrival(arrival.clone());
        }
        for &vm in &next.batch.departures {
            external.queue_departure(vm);
        }
        for &pair in &next.batch.traffic {
            external.queue_traffic(pair);
        }
        let mut synthetic = SyntheticSource;
        let source: &mut dyn DeltaSource = match next.feed {
            Feed::Synthetic => &mut synthetic,
            Feed::Script(_) => &mut external,
        };
        let t4 = now();
        stepper
            .advance_world(source)
            .map_err(|e| format!("advance after restore at {b}: {e}"))?;
        let t5 = now();
        let decision = policy.decide(&stepper.observe());
        let metrics = stepper
            .apply(decision)
            .map_err(|e| format!("apply after restore at {b}: {e}"))?;
        if metrics.state_hash != next.state_hash {
            return Err(format!(
                "slot {b} after restore ends on state hash {:016x}, the uninterrupted run on {:016x}",
                metrics.state_hash, next.state_hash
            ));
        }
        if let Some(trace) = trace {
            trace.add("dcsim.advance_world.after_restore", b, None, t4, t5);
        }
    }
    Ok(Restore {
        decode_ms: ms(t0, t1),
        build_ms: ms(t1, t2),
        restore_ms: ms(t2, t3),
    })
}

/// The report digest of an uninterrupted run, untimed (reference runs).
pub fn digest_of(config: &ScenarioConfig) -> Result<String, String> {
    let scenario = Scenario::build(config).map_err(|e| e.to_string())?;
    let mut policy = ProposedPolicy::new(proposed_config_for(config));
    Ok(geoplace_dcsim::engine::Simulator::new(scenario)
        .run(&mut policy)
        .digest())
}
