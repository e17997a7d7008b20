//! `geoplace-serve` — the online placement service: line-delimited JSON
//! commands on stdin, one JSON response per line on stdout.
//!
//! Accepts the shared harness flags (`--paper`/`--bench`/`--stress`,
//! `--seed N`, `--scenario NAME`) plus:
//!
//! * `--slots N` — horizon override (e.g. `--bench --seed 42 --slots 12`
//!   is exactly the quick-matrix `paper`/seed-42 golden cell);
//! * `--policy proposed|ener|pri|net` — the served policy (default
//!   `proposed`);
//! * `--external` — fleet changes come from `vm_arrive`/`vm_depart`/
//!   `wire_traffic` commands instead of the synthetic arrival process;
//! * `--trace PATH` — fleet changes replay a trace CSV (see
//!   `geoplace_workload::tracefile` for the schema). Strict: a missing
//!   file or a malformed row exits 2 naming the offending line before
//!   the session starts. Mutually exclusive with `--external`;
//! * `--checkpoint-every N --checkpoint-dir PATH` — write a
//!   `ckpt_slotNNNNN.gpck` snapshot into PATH after every N completed
//!   slots (both flags required together; N ≥ 1; an uncreatable
//!   directory exits 2 naming it). Snapshots restore with the
//!   `restore` command or inspect with `geoplace-ckpt`.
//!
//! See `geoplace_bench::serve` for the command set. The process exits 0
//! on a `shutdown` command or stdin EOF; malformed commands produce
//! `{"ok":false,"error":...}` responses and never kill the session.

use geoplace_bench::scenario::exit_usage;
use geoplace_bench::serve::{Session, FLAGS};
use geoplace_bench::{CliArgs, PolicyKind};
use std::io::{BufRead, Write};

fn main() {
    let cli = CliArgs::parse(FLAGS);
    let value = |name| cli.value::<String>(name).unwrap_or_else(|e| exit_usage(&e));
    let count = |name| cli.value::<u32>(name).unwrap_or_else(|e| exit_usage(&e));
    let mut config = cli.config();
    if let Some(slots) = count("--slots") {
        config.horizon_slots = slots;
    }
    let policy = match value("--policy").as_deref() {
        None | Some("proposed") => PolicyKind::Proposed,
        Some("ener") => PolicyKind::EnerAware,
        Some("pri") => PolicyKind::PriAware,
        Some("net") => PolicyKind::NetAware,
        Some(other) => exit_usage(&format!(
            "--policy expects proposed, ener, pri or net, got {other:?}"
        )),
    };
    let external = cli.has("--external");
    let trace = value("--trace");
    if external && trace.is_some() {
        exit_usage("--trace and --external are mutually exclusive");
    }

    let session = match trace {
        Some(path) => match geoplace_workload::tracefile::load_trace(&path) {
            // Strict by contract: a bad trace dies here, naming its
            // line, rather than three thousand slots into the session.
            Ok(rows) => Session::with_trace(&config, policy, rows),
            Err(message) => exit_usage(&message),
        },
        None => Session::new(&config, policy, external),
    };
    let session = session.unwrap_or_else(|message| exit_usage(&message));

    // Auto-checkpointing: both flags together, N ≥ 1, and a usable
    // directory — all validated here, before the session starts, so a
    // misconfigured service dies loudly instead of silently never saving.
    let mut session = match (count("--checkpoint-every"), value("--checkpoint-dir")) {
        (None, None) => session,
        (Some(_), None) => exit_usage("--checkpoint-every requires --checkpoint-dir PATH"),
        (None, Some(_)) => exit_usage("--checkpoint-dir requires --checkpoint-every N"),
        (Some(0), Some(_)) => exit_usage("--checkpoint-every must be at least 1 slot, got 0"),
        (Some(every), Some(dir)) => session
            .with_checkpointing(every, dir.into())
            .unwrap_or_else(|message| exit_usage(&message)),
    };

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = session.handle_line(&line);
        // A closed stdout means the consumer is gone; there is nobody
        // left to serve, so end the session cleanly rather than panic.
        if writeln!(out, "{}", response.line).is_err() || out.flush().is_err() {
            return;
        }
        if response.shutdown {
            return;
        }
    }
    // stdin EOF without an explicit shutdown is a clean exit too.
}
