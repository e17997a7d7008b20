//! The `geoplace-serve` session: an online placement service over
//! line-delimited JSON.
//!
//! One [`Session`] wraps a [`SlotStepper`] plus a policy and a
//! [`DeltaSource`](geoplace_workload::source::DeltaSource), and maps protocol commands onto the slot lifecycle:
//!
//! | Command | Phase | Effect |
//! |---|---|---|
//! | `advance` | awaiting advance | cross one slot boundary (`advance_world`) |
//! | `decide` | awaiting decision | run the policy over `observe`, then `apply` |
//! | `get_state` | any | phase, progress and (mid-decision) per-DC facts |
//! | `metrics` | any | report totals + digest so far |
//! | `shutdown` | any | final digest, then the transport should close |
//! | `vm_arrive` | external mode | queue an arrival for the next `advance` |
//! | `vm_depart` | external mode | queue a departure for the next `advance` |
//! | `wire_traffic` | external mode | queue a traffic pair for the next `advance` |
//! | `checkpoint` | awaiting advance | write a versioned snapshot to `path` |
//! | `restore` | awaiting advance | replace the run with the snapshot at `path` |
//!
//! Checkpoints carry the engine state, the policy's warm-start state and
//! the session's own state (source cursor / pending events, external-id
//! watermark) in one `.gpck` container — see the `geoplace_types::snap`
//! codec and `geoplace_dcsim::checkpoint`. A malformed snapshot fails a
//! `restore` with a structured error naming the bad section, and the
//! running session is left exactly as it was (the restore commits only
//! after every section validated into fresh state). With
//! [`Session::with_checkpointing`] the session also drops
//! `ckpt_slotNNNNN.gpck` files into a directory every N completed slots.
//!
//! Besides the synthetic and external modes, [`Session::with_trace`]
//! replays a parse-validated trace file (`--trace PATH` on the binary):
//! arrivals and traffic wiring come from the committed rows, and
//! `get_state` reports `"source":"trace"` plus the unplayed row count.
//!
//! Every response is a single JSON line: `{"ok":true,...}` on success,
//! `{"ok":false,"error":"..."}` otherwise. A malformed or mistimed
//! command never kills the session — the stepper's phase machine rejects
//! it and the slot stays drivable, which is what lets one long-running
//! process serve thousands of commands.
//!
//! The session is transport-agnostic (the `geoplace-serve` binary feeds
//! it stdin lines; tests and the service benchmark feed it in-process),
//! and digest-faithful: a scripted `advance`/`decide` session over a
//! synthetic world produces bit-for-bit the digest `Simulator::run`
//! produces for the same configuration and policy.

use crate::json::{object, Value};
use crate::scenario::{policy_for, PolicyKind};
use geoplace_dcsim::checkpoint::{checkpoint_path, checkpoint_with_policy, restore_with_policy};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::engine::Scenario;
use geoplace_dcsim::policy::GlobalPolicy;
use geoplace_dcsim::stepper::SlotStepper;
use geoplace_types::snap::{Checkpoint, SnapWriter, Snapshot};
use geoplace_types::VmId;
use geoplace_workload::fleet::{ExternalArrival, ExternalPair};
use geoplace_workload::source::{ExternalDeltaSource, SyntheticSource, TraceSource};
use geoplace_workload::trace::TraceKind;
use geoplace_workload::tracefile::TraceRow;
use std::path::{Path, PathBuf};

/// The whole flag vocabulary of the `geoplace-serve` binary, as
/// `(name, takes_value)` pairs: the shared harness flags, then its own.
pub const FLAGS: &[(&str, bool)] = &[
    ("--paper", false),
    ("--bench", false),
    ("--stress", false),
    ("--seed", true),
    ("--scenario", true),
    ("--slots", true),
    ("--policy", true),
    ("--external", false),
    ("--trace", true),
    ("--checkpoint-every", true),
    ("--checkpoint-dir", true),
];

/// Where slot boundaries get their fleet changes from.
enum Source {
    /// The scenario's own synthetic arrival/departure process.
    Synthetic(SyntheticSource),
    /// Externally announced events (`vm_arrive` / `vm_depart` /
    /// `wire_traffic`), applied at the next `advance`.
    External(ExternalDeltaSource),
    /// Rows of a parse-validated trace file (`--trace`), replayed slot
    /// by slot; external fleet commands are rejected in this mode.
    Trace(TraceSource),
}

impl Source {
    fn name(&self) -> &'static str {
        match self {
            Source::Synthetic(_) => "synthetic",
            Source::External(_) => "external",
            Source::Trace(_) => "trace",
        }
    }
}

/// One response line plus whether the session asked the transport to
/// close.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The single-line JSON response.
    pub line: String,
    /// `true` after a successful `shutdown` command.
    pub shutdown: bool,
}

/// A long-running placement service over one scenario.
pub struct Session {
    stepper: SlotStepper,
    policy: Box<dyn GlobalPolicy>,
    source: Source,
    /// Next id handed to an external arrival; kept monotonic so several
    /// `vm_arrive` commands between two advances never collide.
    next_external_id: u32,
    /// The scenario and policy selection, kept so `restore` can rebuild a
    /// fresh world to validate a snapshot into before committing it.
    config: ScenarioConfig,
    kind: PolicyKind,
    /// Auto-checkpoint cadence: every N completed slots, into this
    /// directory ([`Session::with_checkpointing`]).
    auto_checkpoint: Option<(u32, PathBuf)>,
}

impl Session {
    /// Builds the world and the policy. `external` selects the event
    /// source: `false` runs the scenario's synthetic fleet process,
    /// `true` starts an empty event queue fed by `vm_arrive` & friends
    /// (natural lifetime expiries still happen on their own).
    pub fn new(
        config: &ScenarioConfig,
        kind: PolicyKind,
        external: bool,
    ) -> Result<Session, String> {
        let source = if external {
            Source::External(ExternalDeltaSource::new())
        } else {
            Source::Synthetic(SyntheticSource)
        };
        Session::build(config, kind, source)
    }

    /// Builds a session that replays a parse-validated trace (the
    /// output of [`geoplace_workload::tracefile::load_trace`]): fleet
    /// changes come from the trace rows — not the synthetic process,
    /// and not external commands, which this mode rejects.
    pub fn with_trace(
        config: &ScenarioConfig,
        kind: PolicyKind,
        rows: Vec<TraceRow>,
    ) -> Result<Session, String> {
        Session::build(config, kind, Source::Trace(TraceSource::new(rows)))
    }

    fn build(config: &ScenarioConfig, kind: PolicyKind, source: Source) -> Result<Session, String> {
        let scenario = Scenario::build(config).map_err(|e| e.to_string())?;
        let stepper = SlotStepper::new(scenario);
        Ok(Session {
            stepper,
            policy: policy_for(config, kind),
            source,
            next_external_id: 0,
            config: config.clone(),
            kind,
            auto_checkpoint: None,
        })
    }

    /// Enables auto-checkpointing: after every `every` completed slots a
    /// `ckpt_slotNNNNN.gpck` file is written into `dir` (created here if
    /// missing). Maps the `--checkpoint-every N --checkpoint-dir PATH`
    /// flags of the binary.
    pub fn with_checkpointing(mut self, every: u32, dir: PathBuf) -> Result<Session, String> {
        if every == 0 {
            return Err("checkpoint interval must be at least 1 slot (got 0)".into());
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create checkpoint directory {}: {e}", dir.display()))?;
        self.auto_checkpoint = Some((every, dir));
        Ok(self)
    }

    /// The underlying stepper (inspection from tests and benches).
    pub fn stepper(&self) -> &SlotStepper {
        &self.stepper
    }

    /// The report digest over the slots completed so far.
    pub fn digest(&self) -> String {
        self.stepper.report_with_policy(self.policy.name()).digest()
    }

    /// Handles one protocol line. Always returns a response; errors are
    /// structured (`{"ok":false,...}`), never fatal.
    pub fn handle_line(&mut self, line: &str) -> Response {
        match self.dispatch(line) {
            Ok((value, shutdown)) => Response {
                line: value.render(),
                shutdown,
            },
            Err(error) => Response {
                line: object(vec![("ok", Value::Bool(false)), ("error", error.into())]).render(),
                shutdown: false,
            },
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<(Value, bool), String> {
        let request = Value::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let cmd = request
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or("missing string field \"cmd\"")?;
        let value = match cmd {
            "advance" => self.advance()?,
            "decide" => self.decide()?,
            "get_state" => self.get_state(),
            "metrics" => self.metrics(),
            "shutdown" => return Ok((self.shutdown(), true)),
            "vm_arrive" => self.vm_arrive(&request)?,
            "vm_depart" => self.vm_depart(&request)?,
            "wire_traffic" => self.wire_traffic(&request)?,
            "checkpoint" => self.checkpoint(&request)?,
            "restore" => self.restore(&request)?,
            other => return Err(format!("unknown command {other:?}")),
        };
        Ok((value, false))
    }

    fn advance(&mut self) -> Result<Value, String> {
        let delta = match &mut self.source {
            Source::Synthetic(source) => self.stepper.advance_world(source),
            Source::External(source) => self.stepper.advance_world(source),
            Source::Trace(source) => self.stepper.advance_world(source),
        }
        .map_err(|e| e.to_string())?;
        let snapshot = self.stepper.observe();
        Ok(object(vec![
            ("ok", Value::Bool(true)),
            ("slot", self.stepper.current_slot().0.into()),
            ("arrived", delta.arrived.len().into()),
            ("departed", delta.departed.len().into()),
            ("active_vms", snapshot.vm_count().into()),
        ]))
    }

    fn decide(&mut self) -> Result<Value, String> {
        if !self.stepper.awaiting_decision() {
            return Err("no slot is awaiting a decision: send advance first".into());
        }
        let decision = self.policy.decide(&self.stepper.observe());
        let metrics = self.stepper.apply(decision).map_err(|e| e.to_string())?;
        let record = metrics.record;
        let mut members = vec![
            ("ok", Value::Bool(true)),
            ("slot", metrics.slot.0.into()),
            ("cost_eur", record.cost_eur.into()),
            ("total_energy_j", record.total_energy_j.into()),
            ("grid_energy_j", record.grid_energy_j.into()),
            ("migrations", record.migrations.into()),
            ("migration_volume_gb", record.migration_volume_gb.into()),
            ("active_vms", record.active_vms.into()),
            ("active_servers", record.active_servers.into()),
            ("response_worst_s", record.response_worst_s.into()),
            ("state_hash", hex64(metrics.state_hash).into()),
            ("done", self.stepper.is_done().into()),
        ];
        // Auto-checkpoint at the cadence boundary; a failed write is
        // reported in-band (the slot itself already applied cleanly).
        if let Some((every, dir)) = &self.auto_checkpoint {
            let completed = metrics.slot.0 + 1;
            if completed % *every == 0 && !self.stepper.is_done() {
                let path = checkpoint_path(dir, completed);
                match self.write_checkpoint(&path) {
                    Ok(()) => members.push(("checkpoint", path.display().to_string().into())),
                    Err(e) => members.push(("checkpoint_error", e.into())),
                }
            }
        }
        Ok(object(members))
    }

    /// Builds the full session checkpoint: engine + policy sections from
    /// `geoplace_dcsim::checkpoint`, plus a `serve` section holding the
    /// event source's state (pending external batch / trace cursor) and
    /// the external-id watermark.
    fn build_checkpoint(&self) -> Result<Checkpoint, String> {
        let mut ck =
            checkpoint_with_policy(&self.stepper, &*self.policy).map_err(|e| e.to_string())?;
        let mut w = SnapWriter::new();
        w.write_str(self.source.name());
        match &self.source {
            Source::Synthetic(_) => {}
            Source::External(source) => source.save_state(&mut w),
            Source::Trace(source) => source.save_state(&mut w),
        }
        w.write_u32(self.next_external_id);
        ck.add_section("serve", w.into_bytes());
        Ok(ck)
    }

    fn write_checkpoint(&self, path: &Path) -> Result<(), String> {
        let ck = self.build_checkpoint()?;
        geoplace_dcsim::checkpoint::write_file(&ck, path).map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self, request: &Value) -> Result<Value, String> {
        let path = require_str(request, "path")?;
        let ck = self.build_checkpoint()?;
        let bytes = ck.encode().len();
        geoplace_dcsim::checkpoint::write_file(&ck, Path::new(&path)).map_err(|e| e.to_string())?;
        Ok(object(vec![
            ("ok", Value::Bool(true)),
            ("path", path.into()),
            ("slot", ck.slot.into()),
            ("state_hash", hex64(ck.state_hash).into()),
            ("bytes", bytes.into()),
        ]))
    }

    /// Replaces the running session with the snapshot at `path`. Every
    /// section is validated into *fresh* state first (a rebuilt world, a
    /// fresh policy, a staged copy of the source), and the session is
    /// only swapped once all of them restored cleanly — so a truncated or
    /// corrupted snapshot returns a structured error naming the bad
    /// section and leaves the running session exactly as it was.
    fn restore(&mut self, request: &Value) -> Result<Value, String> {
        let path = require_str(request, "path")?;
        let ck =
            geoplace_dcsim::checkpoint::read_file(Path::new(&path)).map_err(|e| e.to_string())?;
        // Stage the serve section: source identity, source state, watermark.
        let mut r = ck.section("serve").map_err(|e| e.to_string())?;
        let stored_source = r.read_str().map_err(|e| e.to_string())?;
        if stored_source != self.source.name() {
            return Err(format!(
                "checkpoint was taken under source {stored_source:?}, \
                 not this session's {:?}",
                self.source.name()
            ));
        }
        let staged_source = match &self.source {
            Source::Synthetic(_) => Source::Synthetic(SyntheticSource),
            Source::External(source) => {
                let mut staged = source.clone();
                staged.restore_state(&mut r).map_err(|e| e.to_string())?;
                Source::External(staged)
            }
            Source::Trace(source) => {
                let mut staged = source.clone();
                staged.restore_state(&mut r).map_err(|e| e.to_string())?;
                Source::Trace(staged)
            }
        };
        let next_external_id = r.read_u32().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        // Stage engine + policy into a freshly built world.
        let scenario = Scenario::build(&self.config).map_err(|e| e.to_string())?;
        let mut stepper = SlotStepper::new(scenario);
        let mut policy = policy_for(&self.config, self.kind);
        restore_with_policy(&mut stepper, &mut *policy, &ck).map_err(|e| e.to_string())?;
        // Everything validated — commit.
        self.stepper = stepper;
        self.policy = policy;
        self.source = staged_source;
        self.next_external_id = next_external_id;
        Ok(object(vec![
            ("ok", Value::Bool(true)),
            ("path", path.into()),
            ("slot", self.stepper.current_slot().0.into()),
            ("completed_slots", self.stepper.completed_slots().into()),
            ("state_hash", hex64(self.stepper.state_hash()).into()),
        ]))
    }

    fn get_state(&self) -> Value {
        let fleet_size = self.stepper.scenario().fleet.active().len();
        let mut members = vec![
            ("ok", Value::Bool(true)),
            ("slot", self.stepper.current_slot().0.into()),
            ("completed_slots", self.stepper.completed_slots().into()),
            ("horizon", self.stepper.horizon().into()),
            ("awaiting_decision", self.stepper.awaiting_decision().into()),
            ("done", self.stepper.is_done().into()),
            ("active_vms", fleet_size.into()),
            ("policy", self.policy.name().into()),
            ("source", self.source.name().into()),
            ("state_hash", hex64(self.stepper.state_hash()).into()),
            (
                "external",
                matches!(self.source, Source::External(_)).into(),
            ),
        ];
        match &self.source {
            Source::External(source) => {
                let pending = source.pending();
                members.push((
                    "pending",
                    object(vec![
                        ("arrivals", pending.arrivals.len().into()),
                        ("departures", pending.departures.len().into()),
                        ("traffic", pending.traffic.len().into()),
                    ]),
                ));
            }
            Source::Trace(source) => {
                members.push(("trace_remaining", source.remaining().into()));
            }
            Source::Synthetic(_) => {}
        }
        if self.stepper.awaiting_decision() {
            let dcs: Vec<Value> = self
                .stepper
                .dc_infos()
                .iter()
                .map(|dc| {
                    object(vec![
                        ("id", u32::from(dc.id.0).into()),
                        ("servers", dc.servers.into()),
                        ("outaged", dc.outaged.into()),
                        ("price_eur_per_kwh", dc.price.0.into()),
                        ("price_level", format!("{:?}", dc.price_level).into()),
                        ("pue", dc.pue.into()),
                        ("battery_available_j", dc.battery_available.0.into()),
                        ("pv_forecast_j", dc.pv_forecast.0.into()),
                    ])
                })
                .collect();
            members.push(("dcs", Value::Array(dcs)));
        }
        object(members)
    }

    fn metrics(&self) -> Value {
        let report = self.stepper.report_with_policy(self.policy.name());
        let totals = report.totals();
        object(vec![
            ("ok", Value::Bool(true)),
            ("slots", report.hourly.len().into()),
            ("digest", report.digest().into()),
            (
                "totals",
                object(vec![
                    ("cost_eur", totals.cost_eur.into()),
                    ("energy_gj", totals.energy_gj.into()),
                    ("grid_energy_gj", totals.grid_energy_gj.into()),
                    ("migrations", totals.migrations.into()),
                    ("migration_volume_gb", totals.migration_volume_gb.into()),
                    ("mean_response_s", totals.mean_response_s.into()),
                    ("worst_response_s", totals.worst_response_s.into()),
                    ("p95_response_s", totals.p95_response_s.into()),
                    ("mean_active_servers", totals.mean_active_servers.into()),
                ]),
            ),
        ])
    }

    fn shutdown(&self) -> Value {
        let report = self.stepper.report_with_policy(self.policy.name());
        object(vec![
            ("ok", Value::Bool(true)),
            ("shutdown", Value::Bool(true)),
            ("slots", report.hourly.len().into()),
            ("digest", report.digest().into()),
        ])
    }

    fn external_source(&mut self) -> Result<&mut ExternalDeltaSource, String> {
        match &mut self.source {
            Source::External(source) => Ok(source),
            Source::Synthetic(_) | Source::Trace(_) => {
                Err("external fleet commands require --external mode".into())
            }
        }
    }

    fn vm_arrive(&mut self, request: &Value) -> Result<Value, String> {
        let memory_gb = require_f64(request, "memory_gb")?;
        if !memory_gb.is_finite() || memory_gb <= 0.0 {
            return Err(format!(
                "memory_gb must be finite and positive, got {memory_gb}"
            ));
        }
        let lifetime_slots = require_u64(request, "lifetime_slots")?;
        let lifetime_slots =
            u32::try_from(lifetime_slots).map_err(|_| "lifetime_slots out of range".to_string())?;
        let kind = match request.get("profile").map(|v| v.as_str()) {
            None => TraceKind::WebServing,
            Some(Some("web")) => TraceKind::WebServing,
            Some(Some("batch")) => TraceKind::Batch,
            Some(Some("hpc")) => TraceKind::Hpc,
            Some(other) => {
                return Err(format!(
                    "profile must be \"web\", \"batch\" or \"hpc\", got {other:?}"
                ))
            }
        };
        let id = {
            let fresh = self.stepper.scenario().fleet.fresh_vm_id().0;
            let id = self.next_external_id.max(fresh);
            self.next_external_id = id + 1;
            VmId(id)
        };
        let trace_seed = match request.get("trace_seed") {
            None => u64::from(id.0),
            Some(v) => v.as_u64().ok_or("trace_seed must be an unsigned integer")?,
        };
        let source = self.external_source()?;
        source.queue_arrival(ExternalArrival {
            id,
            memory_gb,
            lifetime_slots,
            kind,
            trace_seed,
        });
        Ok(object(vec![
            ("ok", Value::Bool(true)),
            ("id", id.0.into()),
            ("pending_arrivals", source.pending().arrivals.len().into()),
        ]))
    }

    fn vm_depart(&mut self, request: &Value) -> Result<Value, String> {
        let id = require_u64(request, "id")?;
        let id = u32::try_from(id).map_err(|_| "id out of range".to_string())?;
        let source = self.external_source()?;
        source.queue_departure(VmId(id));
        Ok(object(vec![
            ("ok", Value::Bool(true)),
            (
                "pending_departures",
                source.pending().departures.len().into(),
            ),
        ]))
    }

    fn wire_traffic(&mut self, request: &Value) -> Result<Value, String> {
        let a = require_u64(request, "a")?;
        let b = require_u64(request, "b")?;
        let a = u32::try_from(a).map_err(|_| "a out of range".to_string())?;
        let b = u32::try_from(b).map_err(|_| "b out of range".to_string())?;
        let a_to_b_mb = require_f64(request, "a_to_b_mb")?;
        let b_to_a_mb = require_f64(request, "b_to_a_mb")?;
        let source = self.external_source()?;
        source.queue_traffic(ExternalPair {
            a: VmId(a),
            b: VmId(b),
            a_to_b_mb,
            b_to_a_mb,
        });
        Ok(object(vec![
            ("ok", Value::Bool(true)),
            ("pending_traffic", source.pending().traffic.len().into()),
        ]))
    }
}

/// A u64 state hash as the protocol's 16-digit hex string — JSON numbers
/// are f64 and cannot carry 64 bits faithfully.
fn hex64(hash: u64) -> String {
    format!("{hash:016x}")
}

fn require_str(request: &Value, key: &str) -> Result<String, String> {
    request
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn require_f64(request: &Value, key: &str) -> Result<f64, String> {
    request
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn require_u64(request: &Value, key: &str) -> Result<u64, String> {
    request
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing unsigned-integer field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_policy;
    use geoplace_dcsim::config::ScenarioConfig;

    fn tiny() -> ScenarioConfig {
        let mut config = ScenarioConfig::scaled(11);
        config.horizon_slots = 3;
        config
    }

    fn ok(response: &Response) -> Result<Value, String> {
        let value = Value::parse(&response.line)?;
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("expected ok:true, got {}", response.line));
        }
        Ok(value)
    }

    fn err(response: &Response) -> Result<String, String> {
        let value = Value::parse(&response.line)?;
        if value.get("ok").and_then(Value::as_bool) != Some(false) {
            return Err(format!("expected ok:false, got {}", response.line));
        }
        value
            .get("error")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("no error field in {}", response.line))
    }

    #[test]
    fn scripted_session_matches_run_digest() -> Result<(), String> {
        let config = tiny();
        let mut session = Session::new(&config, PolicyKind::Proposed, false)?;
        for _ in 0..config.horizon_slots {
            ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
            ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        }
        let response = session.handle_line(r#"{"cmd":"shutdown"}"#);
        assert!(response.shutdown);
        let digest = ok(&response)?
            .get("digest")
            .and_then(Value::as_str)
            .ok_or("no digest in shutdown response")?
            .to_owned();
        assert_eq!(digest, run_policy(&config, PolicyKind::Proposed).digest());
        Ok(())
    }

    #[test]
    fn malformed_and_mistimed_commands_are_structured_errors() -> Result<(), String> {
        let mut session = Session::new(&tiny(), PolicyKind::NetAware, false)?;
        assert!(err(&session.handle_line("not json"))?.contains("malformed JSON"));
        assert!(err(&session.handle_line(r#"{"no_cmd":1}"#))?.contains("cmd"));
        assert!(err(&session.handle_line(r#"{"cmd":"frobnicate"}"#))?.contains("unknown command"));
        // decide before advance, then double advance.
        assert!(err(&session.handle_line(r#"{"cmd":"decide"}"#))?.contains("advance"));
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        assert!(err(&session.handle_line(r#"{"cmd":"advance"}"#))?.contains("apply"));
        // External commands are rejected in synthetic mode.
        assert!(err(
            &session.handle_line(r#"{"cmd":"vm_arrive","memory_gb":2.0,"lifetime_slots":4}"#)
        )?
        .contains("--external"));
        // The session is still alive and drivable.
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        assert_eq!(session.stepper().completed_slots(), 1);
        Ok(())
    }

    #[test]
    fn get_state_reports_phase_and_dcs() -> Result<(), String> {
        let mut session = Session::new(&tiny(), PolicyKind::EnerAware, false)?;
        let state = ok(&session.handle_line(r#"{"cmd":"get_state"}"#))?;
        assert_eq!(
            state.get("awaiting_decision").and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(state.get("dcs"), None, "no DC facts before an advance");
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        let state = ok(&session.handle_line(r#"{"cmd":"get_state"}"#))?;
        assert_eq!(
            state.get("awaiting_decision").and_then(Value::as_bool),
            Some(true)
        );
        let dcs = state
            .get("dcs")
            .and_then(Value::as_array)
            .ok_or("no dcs array mid-decision")?;
        assert_eq!(dcs.len(), 3);
        assert!(
            dcs[0]
                .get("price_eur_per_kwh")
                .and_then(Value::as_f64)
                .ok_or("no price field")?
                > 0.0
        );
        Ok(())
    }

    #[test]
    fn external_session_queues_and_applies_events() -> Result<(), String> {
        let mut config = tiny();
        config.fleet.arrivals.groups_per_slot = 0.0;
        config.horizon_slots = 4;
        let mut session = Session::new(&config, PolicyKind::Proposed, true)?;
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        let response = ok(&session.handle_line(
            r#"{"cmd":"vm_arrive","memory_gb":4.0,"lifetime_slots":8,"profile":"batch"}"#,
        ))?;
        let id = response
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("no id in vm_arrive response")?;
        let peer = session.stepper().scenario().fleet.active()[0].0;
        ok(&session.handle_line(&format!(
            r#"{{"cmd":"wire_traffic","a":{id},"b":{peer},"a_to_b_mb":9.0,"b_to_a_mb":2.0}}"#
        )))?;
        let advanced = ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        assert_eq!(advanced.get("arrived").and_then(Value::as_u64), Some(1));
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        // Departing a never-seen VM is rejected at the boundary but the
        // session survives and the next advance (empty batch) succeeds.
        ok(&session.handle_line(r#"{"cmd":"vm_depart","id":4000000}"#))?;
        assert!(err(&session.handle_line(r#"{"cmd":"advance"}"#))?.contains("depart"));
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        Ok(())
    }

    #[test]
    fn trace_sessions_replay_the_file_and_reject_external_commands() -> Result<(), String> {
        use geoplace_workload::tracefile::{parse_trace, TRACE_HEADER};
        let mut config = tiny();
        config.fleet.arrivals.groups_per_slot = 0.0;
        let rows = parse_trace(&format!(
            "{TRACE_HEADER}\n\
             1,0,4.0,8,web,11,,,\n\
             1,1,2.0,8,batch,12,0,6.5,1.5\n\
             2,2,8.0,4,hpc,13,,,\n"
        ))?;
        let mut session = Session::with_trace(&config, PolicyKind::Proposed, rows)?;

        let state = ok(&session.handle_line(r#"{"cmd":"get_state"}"#))?;
        assert_eq!(state.get("source").and_then(Value::as_str), Some("trace"));
        assert_eq!(
            state.get("trace_remaining").and_then(Value::as_u64),
            Some(3)
        );

        // Slot 0 is the bootstrap boundary: trace rows start at slot 1.
        let advanced = ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        assert_eq!(advanced.get("arrived").and_then(Value::as_u64), Some(0));
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        let advanced = ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        assert_eq!(advanced.get("arrived").and_then(Value::as_u64), Some(2));
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        let state = ok(&session.handle_line(r#"{"cmd":"get_state"}"#))?;
        assert_eq!(
            state.get("trace_remaining").and_then(Value::as_u64),
            Some(1)
        );

        // Trace mode is closed-loop: manual fleet edits are rejected
        // with a structured error and the session stays drivable.
        assert!(err(
            &session.handle_line(r#"{"cmd":"vm_arrive","memory_gb":2.0,"lifetime_slots":4}"#)
        )?
        .contains("--external"));
        let advanced = ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        assert_eq!(advanced.get("arrived").and_then(Value::as_u64), Some(1));
        Ok(())
    }

    #[test]
    fn checkpoint_restore_resumes_to_the_reference_digest() -> Result<(), String> {
        let config = tiny();
        let path = std::env::temp_dir().join("geoplace_serve_ckpt_test.gpck");
        let mut session = Session::new(&config, PolicyKind::Proposed, false)?;
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        let saved = ok(&session.handle_line(&format!(
            r#"{{"cmd":"checkpoint","path":{:?}}}"#,
            path.display().to_string()
        )))?;
        assert_eq!(saved.get("slot").and_then(Value::as_u64), Some(1));
        let saved_hash = saved
            .get("state_hash")
            .and_then(Value::as_str)
            .ok_or("no state_hash in checkpoint response")?
            .to_owned();
        // A *fresh* session restores the file and finishes the horizon.
        let mut resumed = Session::new(&config, PolicyKind::Proposed, false)?;
        let restored = ok(&resumed.handle_line(&format!(
            r#"{{"cmd":"restore","path":{:?}}}"#,
            path.display().to_string()
        )))?;
        assert_eq!(restored.get("slot").and_then(Value::as_u64), Some(1));
        assert_eq!(
            restored.get("state_hash").and_then(Value::as_str),
            Some(saved_hash.as_str()),
            "restore must land on the checkpointed state hash"
        );
        for _ in 1..config.horizon_slots {
            ok(&resumed.handle_line(r#"{"cmd":"advance"}"#))?;
            ok(&resumed.handle_line(r#"{"cmd":"decide"}"#))?;
        }
        assert_eq!(
            resumed.digest(),
            run_policy(&config, PolicyKind::Proposed).digest(),
            "resumed session must reproduce the uninterrupted digest"
        );
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn mid_slot_checkpoint_is_a_structured_error() -> Result<(), String> {
        let mut session = Session::new(&tiny(), PolicyKind::NetAware, false)?;
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        let message =
            err(&session.handle_line(r#"{"cmd":"checkpoint","path":"/tmp/unused.gpck"}"#))?;
        assert!(message.contains("mid-slot"), "{message}");
        // Session still drivable.
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        Ok(())
    }

    #[test]
    fn bad_restores_leave_the_session_untouched() -> Result<(), String> {
        let config = tiny();
        let dir = std::env::temp_dir();
        let good = dir.join("geoplace_serve_good.gpck");
        let truncated = dir.join("geoplace_serve_truncated.gpck");
        let bumped = dir.join("geoplace_serve_bumped.gpck");
        let mut session = Session::new(&config, PolicyKind::Proposed, false)?;
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        ok(&session.handle_line(&format!(
            r#"{{"cmd":"checkpoint","path":{:?}}}"#,
            good.display().to_string()
        )))?;
        let bytes = std::fs::read(&good).map_err(|e| e.to_string())?;
        std::fs::write(&truncated, &bytes[..bytes.len() - 7]).map_err(|e| e.to_string())?;
        let mut wrong = bytes.clone();
        wrong[4] = 0xFF; // format-version byte
        std::fs::write(&bumped, &wrong).map_err(|e| e.to_string())?;

        let hash_before = session.stepper().state_hash();
        let message = err(&session.handle_line(&format!(
            r#"{{"cmd":"restore","path":{:?}}}"#,
            truncated.display().to_string()
        )))?;
        assert!(message.contains("snapshot"), "{message}");
        let message = err(&session.handle_line(&format!(
            r#"{{"cmd":"restore","path":{:?}}}"#,
            bumped.display().to_string()
        )))?;
        assert!(message.contains("version"), "{message}");
        let message =
            err(&session.handle_line(r#"{"cmd":"restore","path":"/no/such/file.gpck"}"#))?;
        assert!(message.contains("/no/such/file.gpck"), "{message}");
        // The failed restores changed nothing and the session drives on.
        assert_eq!(session.stepper().state_hash(), hash_before);
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        for path in [&good, &truncated, &bumped] {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    #[test]
    fn auto_checkpointing_drops_files_at_the_cadence() -> Result<(), String> {
        let mut config = tiny();
        config.horizon_slots = 4;
        let dir = std::env::temp_dir().join("geoplace_serve_auto_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = Session::new(&config, PolicyKind::EnerAware, false)?
            .with_checkpointing(2, dir.clone())?;
        assert!(Session::new(&config, PolicyKind::EnerAware, false)?
            .with_checkpointing(0, dir.clone())
            .is_err());
        let mut checkpoint_lines = 0;
        for _ in 0..config.horizon_slots {
            ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
            let decided = ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
            if decided.get("checkpoint").is_some() {
                checkpoint_lines += 1;
            }
        }
        assert_eq!(
            checkpoint_lines, 1,
            "slot 2 only; the final slot is not saved"
        );
        assert!(dir.join("ckpt_slot00002.gpck").exists());
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn consecutive_arrivals_get_distinct_ids() -> Result<(), String> {
        let mut session = Session::new(&tiny(), PolicyKind::Proposed, true)?;
        let a =
            ok(&session.handle_line(r#"{"cmd":"vm_arrive","memory_gb":1.0,"lifetime_slots":2}"#))?
                .get("id")
                .and_then(Value::as_u64)
                .ok_or("no id")?;
        let b =
            ok(&session.handle_line(r#"{"cmd":"vm_arrive","memory_gb":1.0,"lifetime_slots":2}"#))?
                .get("id")
                .and_then(Value::as_u64)
                .ok_or("no id")?;
        assert_ne!(a, b);
        Ok(())
    }
}
