//! A served session: the release `geoplace-serve` binary as a
//! subprocess, driven by one closed-loop client (each command waits for
//! its reply), with an in-process `Session` fed the identical lines in
//! lockstep. Every reply is parsed; the in-process reply must agree with
//! the server's on ids, slots, populations, state hashes and digests,
//! and the in-process handle time gives the per-command split of the
//! round trip.
//!
//! The stage runs in a child process of the harness held to one CPU
//! (`taskset -c 0`), which the server inherits: client and server then
//! hand each command over on the same CPU, so a round trip does not
//! wait for a sleeping CPU to wake, and the server's
//! `Parallelism::Auto` resolves to one worker. The harness steps the
//! session between its own slots ([`ServedChild`]); at the end the child
//! prints its [`ServedRun`] as one JSON line.

use crate::script::{lines, Script, Sink};
use crate::trace::{median, ms, now};
use geoplace_bench::json::{object, Value};
use geoplace_bench::serve::Session;
use geoplace_bench::PolicyKind;
use geoplace_dcsim::config::ScenarioConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A child process spoken to one line at a time over its stdin and
/// stdout: a `geoplace-serve` server, or the harness's served-stage
/// child. Dropping it kills the process if it is still running and waits
/// for it.
pub struct Piped {
    name: String,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Piped {
    /// Starts `command`; `name` names the process in errors.
    pub fn spawn(mut command: Command, name: &str) -> Result<Piped, String> {
        let name = name.to_owned();
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdin = child.stdin.take().ok_or("child stdin was not captured")?;
        let stdout = child.stdout.take().ok_or("child stdout was not captured")?;
        Ok(Piped {
            name,
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
        })
    }

    /// Reads the next line the process writes, without its line end.
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let read = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read from {}: {e}", self.name))?;
        if read == 0 {
            return Err(format!("{} closed its output", self.name));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Sends one line and waits for the reply; returns it with the round
    /// trip in ms.
    pub fn call(&mut self, request: &str) -> Result<(String, f64), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin already closed")?;
        let start = now();
        writeln!(stdin, "{request}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to {}: {e}", self.name))?;
        let reply = self.read_line()?;
        Ok((reply, ms(start, now())))
    }

    /// The process's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Closes the process's input, waits for a clean exit and returns
    /// what it wrote after the last line read.
    pub fn finish(mut self) -> Result<String, String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("read from {}: {e}", self.name))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for {}: {e}", self.name))?;
        if status.success() {
            Ok(rest)
        } else {
            Err(format!("{} exited with {status}", self.name))
        }
    }
}

impl Drop for Piped {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A `geoplace-serve` process started from `bin` with `args`.
fn spawn_server(bin: &Path, args: &[String]) -> Result<Piped, String> {
    let mut command = Command::new(bin);
    command.args(args);
    Piped::spawn(command, "geoplace-serve")
}

/// VmHWM of a `/proc/<pid>/status` file, in MB.
fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM in {status_path}: {e}"))?;
    Ok(kb / 1024.0)
}

/// The non-slot commands of the script.
const KINDS: [&str; 5] = [
    "vm_arrive",
    "vm_depart",
    "wire_traffic",
    "get_state",
    "metrics",
];

/// One non-slot command of the session.
#[derive(Debug, Clone)]
pub struct CommandSample {
    pub kind: &'static str,
    /// The slot the client had completed when it sent the command.
    pub slot: u32,
    pub rtt_ms: f64,
    /// In-process `Session::handle_line` time of the same line.
    pub handle_us: f64,
    /// In-process `Value::parse` time of the request line.
    pub parse_us: f64,
}

/// Everything one served session measured.
#[derive(Debug, Default)]
pub struct ServedRun {
    /// Spawn to the first reply (ms).
    pub first_reply_ms: f64,
    /// Spawn to the first reply of extra servers started for `setup_s`.
    pub startups_ms: Vec<f64>,
    /// Non-slot commands, in order.
    pub commands: Vec<CommandSample>,
    /// Per churn batch: its commands ÷ the sum of their round trips (1/s).
    pub batch_rates: Vec<f64>,
    /// Per churn batch: the median round trip of its commands (ms).
    pub batch_p50_ms: Vec<f64>,
    /// `advance` + `decide` round trip per slot (ms).
    pub slot_ms: Vec<f64>,
    /// In-process handle time of `advance` and `decide` (µs).
    pub advance_us: Vec<f64>,
    pub decide_us: Vec<f64>,
    /// Active VMs per slot, from the `decide` replies.
    pub active: Vec<u32>,
    /// State hash per slot, from the `decide` replies.
    pub state_hashes: Vec<String>,
    pub digest: String,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

fn numbers(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| v.into()).collect())
}

fn read_numbers(doc: &Value, key: &str) -> Result<Vec<f64>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("served stage output has no {key}"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("non-numeric {key}")))
        .collect()
}

impl ServedRun {
    /// The run as one JSON value (what the child prints).
    pub fn to_json(&self) -> Value {
        let commands = self
            .commands
            .iter()
            .map(|c| {
                Value::Array(vec![
                    c.kind.into(),
                    c.slot.into(),
                    c.rtt_ms.into(),
                    c.handle_us.into(),
                    c.parse_us.into(),
                ])
            })
            .collect();
        let active: Vec<f64> = self.active.iter().map(|&n| f64::from(n)).collect();
        object(vec![
            ("first_reply_ms", self.first_reply_ms.into()),
            ("startups_ms", numbers(&self.startups_ms)),
            ("commands", Value::Array(commands)),
            ("batch_rates", numbers(&self.batch_rates)),
            ("batch_p50_ms", numbers(&self.batch_p50_ms)),
            ("slot_ms", numbers(&self.slot_ms)),
            ("advance_us", numbers(&self.advance_us)),
            ("decide_us", numbers(&self.decide_us)),
            ("active", numbers(&active)),
            (
                "state_hashes",
                Value::Array(
                    self.state_hashes
                        .iter()
                        .map(|h| h.as_str().into())
                        .collect(),
                ),
            ),
            ("digest", self.digest.as_str().into()),
            ("peak_rss_mb", self.peak_rss_mb.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
        ])
    }

    /// Parses what [`ServedRun::to_json`] printed.
    pub fn from_json(doc: &Value) -> Result<ServedRun, String> {
        let number = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("served stage output has no {key}"))
        };
        let text = |v: &Value| v.as_str().map(str::to_owned).ok_or("non-string entry");
        let mut commands = Vec::new();
        for entry in doc
            .get("commands")
            .and_then(Value::as_array)
            .ok_or("no commands")?
        {
            let fields = entry.as_array().ok_or("command entry is not an array")?;
            let [kind, slot, rtt, handle, parse] = fields else {
                return Err("command entry needs five fields".into());
            };
            let kind = kind.as_str().ok_or("command kind is not a string")?;
            commands.push(CommandSample {
                kind: KINDS
                    .into_iter()
                    .find(|k| *k == kind)
                    .ok_or_else(|| format!("unknown command kind {kind}"))?,
                slot: slot.as_u64().ok_or("command slot")? as u32,
                rtt_ms: rtt.as_f64().ok_or("command rtt")?,
                handle_us: handle.as_f64().ok_or("command handle time")?,
                parse_us: parse.as_f64().ok_or("command parse time")?,
            });
        }
        Ok(ServedRun {
            first_reply_ms: number("first_reply_ms")?,
            startups_ms: read_numbers(doc, "startups_ms")?,
            commands,
            batch_rates: read_numbers(doc, "batch_rates")?,
            batch_p50_ms: read_numbers(doc, "batch_p50_ms")?,
            slot_ms: read_numbers(doc, "slot_ms")?,
            advance_us: read_numbers(doc, "advance_us")?,
            decide_us: read_numbers(doc, "decide_us")?,
            active: read_numbers(doc, "active")?
                .into_iter()
                .map(|n| n as u32)
                .collect(),
            state_hashes: doc
                .get("state_hashes")
                .and_then(Value::as_array)
                .ok_or("no state_hashes")?
                .iter()
                .map(text)
                .collect::<Result<_, _>>()?,
            digest: doc
                .get("digest")
                .and_then(Value::as_str)
                .ok_or("no digest")?
                .to_owned(),
            peak_rss_mb: number("peak_rss_mb")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
        })
    }
}

const TASKSET: &str = "/usr/bin/taskset";

/// Whether a process can be held to one CPU.
pub fn pinned() -> bool {
    Path::new(TASKSET).exists()
}

/// A command that runs `exe` held to CPU 0 (its children inherit the
/// mask), or unpinned where `taskset` is missing.
pub fn on_one_cpu(exe: &Path) -> Command {
    if pinned() {
        let mut command = Command::new(TASKSET);
        command.arg("-c").arg("0").arg(exe);
        command
    } else {
        Command::new(exe)
    }
}

/// The served stage, run by a child harness held to one CPU.
pub struct ServedChild(Piped);

impl ServedChild {
    /// Starts the child with `stage_args` and waits until its session is
    /// ready for the first step.
    pub fn start(stage_args: &[String]) -> Result<ServedChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let mut command = on_one_cpu(&exe);
        command.args(stage_args);
        let mut child = Piped::spawn(command, "the served stage")?;
        expect(&child.read_line()?, control::READY)?;
        Ok(ServedChild(child))
    }

    /// Runs one step of the session and waits for it to finish.
    pub fn step(&mut self) -> Result<(), String> {
        let (reply, _) = self.0.call(control::STEP)?;
        expect(&reply, control::DONE)
    }

    /// Ends the session and returns what it measured.
    pub fn finish(self) -> Result<ServedRun, String> {
        let rest = self.0.finish()?;
        let last = rest.lines().last().unwrap_or_default();
        ServedRun::from_json(&Value::parse(last).map_err(|e| format!("served stage output: {e}"))?)
    }
}

fn expect(line: &str, wanted: &str) -> Result<(), String> {
    if line == wanted {
        Ok(())
    } else {
        Err(format!("the served stage sent {line:?}, not {wanted:?}"))
    }
}

/// The server and the in-process session, fed the same lines.
struct Lockstep<'a> {
    server: &'a mut Piped,
    session: &'a mut Session,
    run: &'a mut ServedRun,
    slot: u32,
}

/// Reply members both sides must agree on, when present.
const AGREED: [&str; 7] = [
    "id",
    "slot",
    "active_vms",
    "arrived",
    "departed",
    "state_hash",
    "digest",
];

impl Lockstep<'_> {
    /// Sends `line` to both sides; returns the server's parsed reply and
    /// the command's sample.
    fn exchange(
        &mut self,
        kind: &'static str,
        line: &str,
    ) -> Result<(Value, CommandSample), String> {
        self.run.attempted += 1;
        let (reply, rtt_ms) = self.server.call(line)?;
        let p0 = now();
        let parsed = Value::parse(line);
        let p1 = now();
        let local = self.session.handle_line(line);
        let h1 = now();
        parsed.map_err(|e| format!("request {line} does not parse: {e}"))?;
        let value = Value::parse(&reply).map_err(|e| format!("unparsable reply {reply}: {e}"))?;
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            self.run.failed += 1;
            return Err(format!("{kind} failed on the server: {reply}"));
        }
        let local_value =
            Value::parse(&local.line).map_err(|e| format!("unparsable local reply: {e}"))?;
        for key in AGREED {
            if let Some(expected) = value.get(key) {
                if local_value.get(key) != Some(expected) {
                    return Err(format!(
                        "{kind}: the server replied {reply} but the in-process session {}",
                        local.line
                    ));
                }
            }
        }
        let sample = CommandSample {
            kind,
            slot: self.slot,
            rtt_ms,
            handle_us: ms(p1, h1) * 1e3,
            parse_us: ms(p0, p1) * 1e3,
        };
        Ok((value, sample))
    }

    fn command(&mut self, kind: &'static str, line: &str) -> Result<Value, String> {
        let (value, sample) = self.exchange(kind, line)?;
        self.run.commands.push(sample);
        Ok(value)
    }

    /// Sends one churn batch of the script, for the boundary into `slot`,
    /// and records the batch's command rate and median round trip.
    fn churn(&mut self, script: &mut Script, slot: u32) -> Result<(), String> {
        let first = self.run.commands.len();
        script.churn(slot, self)?;
        let rtts: Vec<f64> = self.run.commands[first..]
            .iter()
            .map(|c| c.rtt_ms)
            .collect();
        let spent_ms: f64 = rtts.iter().sum();
        self.run
            .batch_rates
            .push(rtts.len() as f64 / spent_ms * 1e3);
        self.run.batch_p50_ms.push(median(&rtts));
        Ok(())
    }
}

impl Sink for Lockstep<'_> {
    fn arrive(
        &mut self,
        memory_gb: f64,
        lifetime: u32,
        profile: &str,
        trace_seed: u64,
    ) -> Result<u32, String> {
        let reply = self.command(
            "vm_arrive",
            &lines::arrive(memory_gb, lifetime, profile, trace_seed),
        )?;
        let id = reply
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("vm_arrive reply has no id")?;
        u32::try_from(id).map_err(|_| format!("vm_arrive id {id} out of range"))
    }

    fn wire(&mut self, a: u32, b: u32, a_to_b_mb: f64, b_to_a_mb: f64) -> Result<(), String> {
        self.command("wire_traffic", &lines::wire(a, b, a_to_b_mb, b_to_a_mb))
            .map(drop)
    }

    fn depart(&mut self, id: u32) -> Result<(), String> {
        self.command("vm_depart", &lines::depart(id)).map(drop)
    }

    fn status(&mut self) -> Result<(), String> {
        self.command("get_state", lines::GET_STATE)?;
        self.command("metrics", lines::METRICS).map(drop)
    }
}

/// How a served session runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Slots served.
    pub slots: u32,
    /// Fresh servers started (and shut down) after every slot, each timed
    /// from spawn to its first reply.
    pub startups_per_slot: u32,
}

/// Control lines between the harness and the served-stage child.
mod control {
    pub const READY: &str = "ready";
    pub const STEP: &str = "step";
    pub const DONE: &str = "done";
}

/// Serves the churn script in the given `shape`: the server is started
/// with `args`, the in-process session over `config` (the same world).
///
/// The session advances one step per line read from `steps`, and writes
/// a line to `acks` when it is ready and after every step, so the
/// harness can spread the session over its whole run. The first
/// `shape.slots` steps each serve a slot (its churn batch, then `advance`
/// and `decide`); every later step sends one more churn batch, queued
/// for a boundary the session never crosses. Those tail batches give a
/// world whose slots are too slow to serve many of them enough command
/// samples. The session ends when `steps` does.
pub fn serve(
    bin: &Path,
    args: &[String],
    config: &ScenarioConfig,
    seed: u64,
    shape: Shape,
    steps: &mut dyn BufRead,
    acks: &mut dyn Write,
) -> Result<ServedRun, String> {
    let mut ack = |line: &str| -> Result<(), String> {
        writeln!(acks, "{line}")
            .and_then(|()| acks.flush())
            .map_err(|e| format!("write to the harness: {e}"))
    };
    let mut session = Session::new(config, PolicyKind::Proposed, true)?;
    let mut run = ServedRun::default();
    let spawned = now();
    let mut server = spawn_server(bin, args)?;
    let mut step = Lockstep {
        server: &mut server,
        session: &mut session,
        run: &mut run,
        slot: 0,
    };
    // The first reply ends the set-up; it is not a command sample.
    step.exchange("get_state", lines::GET_STATE)?;
    step.run.first_reply_ms = ms(spawned, now());
    ack(control::READY)?;
    let mut script = Script::new(seed);
    let mut s = 0;
    let mut line = String::new();
    loop {
        line.clear();
        let read = steps
            .read_line(&mut line)
            .map_err(|e| format!("read from the harness: {e}"))?;
        if read == 0 {
            break;
        }
        if line.trim_end() != control::STEP {
            return Err(format!("unexpected control line {line:?}"));
        }
        step.slot = s;
        if s == shape.slots {
            step.churn(&mut script, s)?;
            ack(control::DONE)?;
            continue;
        }
        if s > 0 {
            step.churn(&mut script, s)?;
        }
        let (advanced, advance) = step.exchange("advance", lines::ADVANCE)?;
        let (decided, decide) = step.exchange("decide", lines::DECIDE)?;
        if advanced.get("slot").and_then(Value::as_u64) != Some(u64::from(s)) {
            return Err(format!("advance {s} entered another slot"));
        }
        step.run.slot_ms.push(advance.rtt_ms + decide.rtt_ms);
        step.run.advance_us.push(advance.handle_us);
        step.run.decide_us.push(decide.handle_us);
        let active = decided
            .get("active_vms")
            .and_then(Value::as_u64)
            .ok_or("decide reply has no active_vms")?;
        step.run.active.push(active as u32);
        let hash = decided
            .get("state_hash")
            .and_then(Value::as_str)
            .ok_or("decide reply has no state_hash")?;
        step.run.state_hashes.push(hash.to_owned());
        for _ in 0..shape.startups_per_slot {
            step.run.startups_ms.push(startup(bin, args)?);
        }
        s += 1;
        ack(control::DONE)?;
    }
    if s < shape.slots {
        return Err(format!(
            "the harness ended the session after {s} of {} slots",
            shape.slots
        ));
    }
    step.run.peak_rss_mb = step.server.peak_rss_mb()?;
    let (reply, _) = step.exchange("shutdown", lines::SHUTDOWN)?;
    let digest = reply
        .get("digest")
        .and_then(Value::as_str)
        .ok_or("shutdown reply has no digest")?
        .to_owned();
    if digest != session.digest() {
        return Err(format!(
            "server digest {digest} differs from the in-process session's {}",
            session.digest()
        ));
    }
    run.digest = digest;
    server.finish()?;
    Ok(run)
}

/// Spawn-to-first-reply time (ms) of a fresh server, shut down right
/// after.
fn startup(bin: &Path, args: &[String]) -> Result<f64, String> {
    let start = now();
    let mut server = spawn_server(bin, args)?;
    let (reply, _) = server.call(lines::GET_STATE)?;
    let first = ms(start, now());
    if !reply.starts_with(r#"{"ok":true"#) {
        return Err(format!("first reply failed: {reply}"));
    }
    server.call(lines::SHUTDOWN)?;
    server.finish()?;
    Ok(first)
}
