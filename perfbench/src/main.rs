//! `perfbench` — the repository benchmark: one workload per run, every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) by name with its unit, correctness checks, and a last stdout
//! line of JSON:
//!
//! ```text
//! {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":x,"unit":"u"},...}}
//! ```
//!
//! Usage: `perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! [--quick] [--serve-bin PATH] [--out DIR] [--revision TEXT]`. An
//! unknown flag or a malformed value exits 2 naming it. `perfbench/run.py`
//! builds this binary and the release `geoplace-serve` and runs it; see
//! `perfbench/README.md` for the workloads and what each metric means.
//!
//! Every workload runs the same three stages on its own world, so every
//! metric has samples on every workload; the workload decides which
//! stage gets the time:
//!
//! 1. the slot engine in-process through the `SlotStepper` phases,
//!    checkpointing in memory at every inner boundary;
//! 2. restores of some of those checkpoints into freshly built worlds,
//!    each right after the uninterrupted run drove the slot it opens,
//!    driven through that slot again and checked against the
//!    uninterrupted run's state hash;
//! 3. a served session: the `geoplace-serve` binary under the seeded
//!    churn script, with an in-process `Session` in lockstep. Its
//!    server, on one worker thread, is the process whose peak memory is
//!    reported.

mod engine;
mod script;
mod served;
mod trace;

use engine::{EngineRun, Feed, Interleave, Restore};
use geoplace_bench::json::{object, Value};
use geoplace_bench::scenario::{check_unknown_flags, CliArgs};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_types::Parallelism;
use served::ServedRun;
use std::path::PathBuf;
use trace::{max, median, median_of_means, quantile, Trace};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Stress10k,
    OutageResume,
    ServeChurn,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("stress_10k", Workload::Stress10k),
    ("outage_resume", Workload::OutageResume),
    ("serve_churn", Workload::ServeChurn),
];

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |(name, _)| name)
    }

    /// The world, as `geoplace-serve` flags (the in-process stages parse
    /// the same flags, so both sides build one world).
    fn world_flags(self) -> &'static [&'static str] {
        match self {
            Workload::Stress10k => &["--stress"],
            Workload::OutageResume => &["--paper", "--scenario", "dc_outage"],
            Workload::ServeChurn => &["--bench"],
        }
    }

    /// Stage 1's fleet input: the synthetic process, or (for the served
    /// workload) an in-process replay of the served script.
    fn feed(self, seed: u64) -> Feed {
        match self {
            Workload::ServeChurn => Feed::Script(seed),
            _ => Feed::Synthetic,
        }
    }
}

/// Worker threads of the in-process engine and policy, on every
/// workload. The whole run is held to one CPU, so the host moves no
/// thread between CPUs mid-run. On a 2-vCPU guest whose host cores are
/// shared, the two vCPUs slow down at different moments, and a slot
/// fanned out over both waits for whichever is slow: in alternating
/// runs, `outage_resume` on two workers spread 0.24 of its median slot
/// time from run to run, on one worker 0.06.
const ENGINE_THREADS: usize = 1;

/// How much of each stage one run does.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Stage-1 horizon.
    slots: u32,
    /// Stage 1 + 2 repetitions, each on another world.
    reps: u32,
    /// Checkpoints restored per repetition.
    restores: u32,
    /// Restores of each of those checkpoints.
    restore_repeats: u32,
    /// Served-session slots.
    served: u32,
    /// Served-session steps after every stage-1 slot: a served slot while
    /// any is left, then one more churn batch.
    steps_per_slot: u32,
    /// Set-ups timed after every slot for `setup_s`: world builds in
    /// stage 1, or server starts in the served stage of `serve_churn`.
    setups_per_slot: u32,
}

impl Plan {
    fn new(workload: Workload, seconds: u32, quick: bool) -> Plan {
        match workload {
            Workload::Stress10k => Plan {
                slots: if quick {
                    3
                } else {
                    (seconds * 9 / 20).clamp(3, 24)
                },
                reps: 1,
                restores: if quick { 1 } else { 2 },
                restore_repeats: if quick { 1 } else { 4 },
                served: 2,
                steps_per_slot: if quick { 1 } else { 3 },
                setups_per_slot: if quick { 1 } else { 2 },
            },
            // The outage opens at slot 4 and the cascade front passes
            // slot 10, so the full horizon is 12; the quick one still
            // enters the outage.
            Workload::OutageResume => {
                let slots = if quick { 6 } else { 12 };
                Plan {
                    slots,
                    reps: if quick { 1 } else { (seconds / 6).max(1) },
                    restores: slots - 1,
                    restore_repeats: 1,
                    served: if quick { 2 } else { 4 },
                    steps_per_slot: 1,
                    setups_per_slot: 1,
                }
            }
            Workload::ServeChurn => {
                let served = if quick { 3 } else { (seconds * 3).max(3) };
                Plan {
                    slots: served,
                    reps: 1,
                    restores: (served - 1).min(8),
                    restore_repeats: 1,
                    served,
                    steps_per_slot: 1,
                    setups_per_slot: 1,
                }
            }
        }
    }
}

struct Args {
    /// Run only the served stage and print it as JSON (the child
    /// process the harness starts on one CPU).
    served_stage: bool,
    /// This process already runs on the workload's CPUs.
    pinned: bool,
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    quick: bool,
    serve_bin: PathBuf,
    out: PathBuf,
    revision: String,
}

const FLAGS: &[(&str, bool)] = &[
    ("--workload", true),
    ("--seed", true),
    ("--seconds", true),
    ("--trace", true),
    ("--quick", false),
    ("--served-stage", false),
    ("--pinned", false),
    ("--serve-bin", true),
    ("--out", true),
    ("--revision", true),
];

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    check_unknown_flags(args, FLAGS)?;
    let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    let workload = match flag(args, "--workload") {
        None => {
            return Err(format!(
                "--workload is required (one of {})",
                names.join(", ")
            ))
        }
        Some(name) => WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
            .ok_or_else(|| format!("unknown workload {name:?} (one of {})", names.join(", ")))?,
    };
    let seed = match flag(args, "--seed") {
        None => 42,
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--seed expects an unsigned integer, got {raw:?}"))?,
    };
    let seconds = match flag(args, "--seconds") {
        None => 30,
        Some(raw) => raw
            .parse::<u32>()
            .ok()
            .filter(|s| (1..=600).contains(s))
            .ok_or_else(|| {
                format!("--seconds expects a whole number from 1 to 600, got {raw:?}")
            })?,
    };
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(raw) => return Err(format!("--trace expects 0 or 1, got {raw:?}")),
    };
    // `geoplace-serve` is built next to this binary unless named.
    let serve_bin = match flag(args, "--serve-bin") {
        Some(path) => PathBuf::from(path),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this binary: {e}"))?
            .with_file_name("geoplace-serve"),
    };
    Ok(Args {
        served_stage: args.iter().any(|a| a == "--served-stage"),
        pinned: args.iter().any(|a| a == "--pinned"),
        workload,
        seed,
        seconds,
        trace,
        quick: args.iter().any(|a| a == "--quick"),
        serve_bin,
        out: PathBuf::from(flag(args, "--out").unwrap_or("perfbench/out")),
        revision: flag(args, "--revision").unwrap_or("unknown").to_owned(),
    })
}

/// The world of `workload` over `horizon` slots, built from the same
/// flags the server gets.
fn world(workload: Workload, seed: u64, horizon: u32, parallelism: Parallelism) -> ScenarioConfig {
    world_from(workload.world_flags(), seed, horizon, parallelism)
}

/// The world the repository's CLI flags `flags` select.
fn world_from(flags: &[&str], seed: u64, horizon: u32, parallelism: Parallelism) -> ScenarioConfig {
    let mut argv = vec!["perfbench".to_owned()];
    argv.extend(flags.iter().map(|f| f.to_string()));
    argv.extend(["--seed".to_owned(), seed.to_string()]);
    let cli = CliArgs::from_slice(&argv).expect("the benchmark's world flags are valid");
    let mut config = cli.config();
    config.horizon_slots = horizon;
    config.parallelism = parallelism;
    config
}

fn server_args(workload: Workload, seed: u64, slots: u32) -> Vec<String> {
    let mut args: Vec<String> = workload
        .world_flags()
        .iter()
        .map(|f| f.to_string())
        .collect();
    for extra in [
        "--seed",
        &seed.to_string(),
        "--external",
        "--slots",
        &slots.to_string(),
    ] {
        args.push(extra.to_owned());
    }
    args
}

/// The world seed of stage-1 repetition `rep`; the first is `seed`.
fn rep_seed(seed: u64, rep: u32) -> u64 {
    seed.wrapping_add(u64::from(rep) << 32)
}

/// Evenly spread restore boundaries among `1..slots`.
fn restore_boundaries(slots: u32, restores: u32) -> Vec<u32> {
    let restores = restores.min(slots.saturating_sub(1));
    (0..restores)
        .map(|i| 1 + i * (slots - 1) / restores)
        .collect()
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
    /// The samples behind a median, scaled like the value.
    raw: Vec<f64>,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.0.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
            raw: Vec::new(),
        });
    }

    /// The median of `values`, scaled.
    fn median(&mut self, name: &str, unit: &'static str, values: &[f64], scale: f64) {
        self.with_raw(name, unit, median(values), values, scale);
    }

    /// The median of the group means of `values`, scaled: the estimator
    /// of every gated time metric.
    fn median_of_means(&mut self, name: &str, unit: &'static str, values: &[f64], scale: f64) {
        self.with_raw(name, unit, median_of_means(values), values, scale);
    }

    fn with_raw(&mut self, name: &str, unit: &'static str, value: f64, values: &[f64], scale: f64) {
        self.put(name, unit, value * scale, values.len());
        if let Some(metric) = self.0.last_mut() {
            metric.raw = values.iter().map(|v| v * scale).collect();
        }
    }
}

/// Everything one run measured.
struct Measured {
    runs: Vec<EngineRun>,
    setups_ms: Vec<f64>,
    served: ServedRun,
    untraced: Option<EngineRun>,
    attempted: u64,
    failed: u64,
}

fn run_stages(args: &Args, plan: &Plan, trace: &mut Option<Trace>) -> Result<Measured, String> {
    let w = args.workload;
    // Each repetition builds another world from the seed, so the medians
    // rest on several worlds rather than on one world's slots repeated.
    let worlds: Vec<ScenarioConfig> = (0..plan.reps)
        .map(|rep| {
            world(
                w,
                rep_seed(args.seed, rep),
                plan.slots,
                Parallelism::Threads(ENGINE_THREADS),
            )
        })
        .collect();
    let feed = w.feed(args.seed);
    let restore_at = restore_boundaries(plan.slots, plan.restores);
    let also = Interleave {
        restore_at: &restore_at,
        restore_repeats: plan.restore_repeats,
        // `serve_churn` times server starts instead, in the served stage.
        setups_per_slot: if w == Workload::ServeChurn {
            0
        } else {
            plan.setups_per_slot
        },
    };
    // The traced run also drives stage 1 untraced, with the same work
    // interleaved: the slot time the tracing overhead is measured
    // against, and the digest the traced run must reproduce.
    let untraced = if args.trace {
        Some(engine::drive(&worlds[0], feed, also, &mut || Ok(()), None)?)
    } else {
        None
    };
    let mut stage_args: Vec<String> = [
        "--served-stage",
        "--workload",
        w.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--serve-bin",
        &args.serve_bin.display().to_string(),
    ]
    .iter()
    .map(|a| a.to_string())
    .collect();
    if args.quick {
        stage_args.push("--quick".into());
    }
    // The served session advances between the engine's slots, so its
    // samples too are spread over the whole run.
    let mut stage = served::ServedChild::start(&stage_args)?;
    let mut step =
        || -> Result<(), String> { (0..plan.steps_per_slot).try_for_each(|_| stage.step()) };
    let mut runs: Vec<EngineRun> = Vec::new();
    let mut attempted = 0u64;
    for config in &worlds {
        let run = engine::drive(config, feed, also, &mut step, trace.as_mut())?;
        attempted += (run.rows.len() + run.save_ms.len() + run.restores.len()) as u64;
        runs.push(run);
    }
    let served = stage.finish()?;
    attempted += served.attempted;
    let setups_ms = if w == Workload::ServeChurn {
        let mut setups = served.startups_ms.clone();
        attempted += 2 * setups.len() as u64;
        setups.push(served.first_reply_ms);
        setups
    } else {
        runs.iter()
            .flat_map(|r| r.setups_ms.iter().copied())
            .collect()
    };
    Ok(Measured {
        runs,
        setups_ms,
        failed: served.failed,
        served,
        untraced,
        attempted,
    })
}

/// The served stage alone, as the pinned child runs it. For
/// `serve_churn` it also times the server starts `setup_s` needs.
fn served_stage(args: &Args, plan: &Plan) -> Result<ServedRun, String> {
    let w = args.workload;
    let config = world(w, args.seed, plan.served, Parallelism::Auto);
    let server = server_args(w, args.seed, plan.served);
    let shape = served::Shape {
        slots: plan.served,
        startups_per_slot: if w == Workload::ServeChurn {
            plan.setups_per_slot
        } else {
            0
        },
    };
    served::serve(
        &args.serve_bin,
        &server,
        &config,
        args.seed,
        shape,
        &mut std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
    )
}

/// The checks that each workload exercises what its name says and that
/// every path agrees with every other. Returns the first failure.
fn check(args: &Args, plan: &Plan, m: &Measured) -> Result<(), String> {
    let run = &m.runs[0];
    if let Some(untraced) = &m.untraced {
        if untraced.digest != run.digest {
            return Err(format!(
                "traced digest {} differs from untraced {}",
                run.digest, untraced.digest
            ));
        }
    }
    match args.workload {
        Workload::Stress10k => {
            for (s, row) in run.rows.iter().enumerate().skip(1) {
                if !row.sparse || row.active < 9_000 {
                    return Err(format!(
                        "stress_10k slot {s}: sparse={} with {} active VMs (needs sparse, >= 9000)",
                        row.sparse, row.active
                    ));
                }
            }
        }
        Workload::OutageResume => {
            let paper = world_from(
                &["--paper"],
                args.seed,
                plan.slots,
                Parallelism::Threads(ENGINE_THREADS),
            );
            let paper_digest = engine::digest_of(&paper)?;
            if paper_digest == run.digest {
                return Err(format!(
                    "outage_resume digest {} equals the paper world's: the outage never acted",
                    run.digest
                ));
            }
            for (rep, run) in m.runs.iter().enumerate() {
                let outage: Vec<_> = run.rows.iter().filter(|r| r.outaged).collect();
                let moved: u32 = outage.iter().map(|r| r.migrations + r.overruns).sum();
                if outage.is_empty() || moved == 0 {
                    return Err(format!(
                        "outage_resume world {rep}: {} outage slots moved {moved} VMs (needs an evacuation)",
                        outage.len()
                    ));
                }
            }
        }
        Workload::ServeChurn => {
            let served = &m.served;
            if run.digest != served.digest {
                return Err(format!(
                    "in-process replay digest {} differs from the server's {}",
                    run.digest, served.digest
                ));
            }
            if run.rows.len() != served.state_hashes.len() {
                return Err(format!(
                    "the replay drove {} slots, the server {}",
                    run.rows.len(),
                    served.state_hashes.len()
                ));
            }
            for (s, (row, hash)) in run.rows.iter().zip(&served.state_hashes).enumerate() {
                if format!("{:016x}", row.state_hash) != *hash {
                    return Err(format!(
                        "serve_churn slot {s}: replay and server state hashes differ"
                    ));
                }
            }
            let crossover = world(Workload::ServeChurn, args.seed, 1, Parallelism::Auto)
                .sparsity
                .dense_crossover as u32;
            if let Some((s, &n)) = served
                .active
                .iter()
                .enumerate()
                .find(|(_, &n)| n >= crossover)
            {
                return Err(format!(
                    "serve_churn slot {s}: {n} active VMs is past the {crossover}-VM dense crossover"
                ));
            }
            if let Some((s, _)) = run.rows.iter().enumerate().skip(1).find(|(_, r)| r.sparse) {
                return Err(format!("serve_churn slot {s} ran the sparse kernels"));
            }
        }
    }
    Ok(())
}

fn end_to_end(args: &Args, m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    out.median_of_means("setup_s", "s", &m.setups_ms, 1e-3);
    if args.workload == Workload::ServeChurn {
        out.median_of_means("slot_ms", "ms", &m.served.slot_ms[1..], 1.0);
        let active: f64 = m.served.active.iter().map(|&n| f64::from(n)).sum();
        let spent: f64 = m.served.slot_ms.iter().sum();
        out.put(
            "vm_slots_per_s",
            "vm_slot/s",
            active / spent * 1e3,
            m.served.slot_ms.len(),
        );
    } else {
        let steady: Vec<f64> = m
            .runs
            .iter()
            .flat_map(|r| r.rows.iter().skip(1).map(|row| row.ms))
            .collect();
        out.median_of_means("slot_ms", "ms", &steady, 1.0);
        let rows: Vec<&engine::SlotRow> = m.runs.iter().flat_map(|r| r.rows.iter()).collect();
        let active: f64 = rows.iter().map(|r| f64::from(r.active)).sum();
        let spent: f64 = rows.iter().map(|r| r.ms).sum();
        out.put(
            "vm_slots_per_s",
            "vm_slot/s",
            active / spent * 1e3,
            rows.len(),
        );
    }
    out.median_of_means("cmd_ms", "ms", &m.served.batch_p50_ms, 1.0);
    out.median_of_means("cmds_per_s", "1/s", &m.served.batch_rates, 1.0);
    let saves: Vec<f64> = m
        .runs
        .iter()
        .flat_map(|r| r.save_ms.iter().copied())
        .collect();
    out.median_of_means("ckpt_save_ms", "ms", &saves, 1.0);
    let restores: Vec<f64> = m
        .runs
        .iter()
        .flat_map(|r| r.restores.iter().map(Restore::total_ms))
        .collect();
    out.median_of_means("ckpt_restore_ms", "ms", &restores, 1.0);
    out.put("peak_rss_mb", "MB", m.served.peak_rss_mb, 1);
    out
}

fn per_layer(m: &Measured, trace: &Trace) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for name in [
        "dcsim.advance_world",
        "dcsim.observe",
        "core.decide",
        "dcsim.apply",
        "workload.fleet_advance",
        "workload.window_fill",
        "workload.cpucorr",
    ] {
        out.median(&format!("{name}.ms_p50"), "ms", &trace.durations(name), 1.0);
    }
    let run = &m.runs[0];
    let column = |f: fn(&engine::SlotRow) -> f64, skip: usize| -> Vec<f64> {
        run.rows.iter().skip(skip).map(f).collect()
    };
    out.median(
        "workload.cpucorr.edges",
        "count",
        &column(|r| r.corr_edges as f64, 1),
        1.0,
    );
    out.median(
        "workload.traffic.edges",
        "count",
        &column(|r| r.traffic_edges as f64, 0),
        1.0,
    );
    out.median(
        "workload.active_vms",
        "count",
        &column(|r| f64::from(r.active), 0),
        1.0,
    );
    let total = |f: fn(&engine::SlotRow) -> f64| -> f64 { run.rows.iter().map(f).sum() };
    let n = run.rows.len();
    out.put("workload.arrived", "count", total(|r| r.arrived as f64), n);
    out.put(
        "workload.departed",
        "count",
        total(|r| r.departed as f64),
        n,
    );
    out.median(
        "core.force.iterations",
        "count",
        &column(|r| r.force_iterations as f64, 0),
        1.0,
    );
    let cap = run.force_cap;
    let hits = run
        .rows
        .iter()
        .filter(|r| r.force_iterations >= cap)
        .count();
    out.put("core.force.cap_hits", "count", hits as f64, n);
    out.put(
        "dcsim.apply.migrations",
        "count",
        total(|r| f64::from(r.migrations)),
        n,
    );
    out.put(
        "dcsim.apply.overruns",
        "count",
        total(|r| f64::from(r.overruns)),
        n,
    );
    out.put(
        "dcsim.apply.migration_gb",
        "GB",
        total(|r| r.migration_gb),
        n,
    );
    out.median(
        "dcsim.apply.active_servers",
        "count",
        &column(|r| f64::from(r.active_servers), 0),
        1.0,
    );
    for name in [
        "dcsim.checkpoint.capture",
        "types.snap.encode",
        "types.snap.decode",
        "dcsim.engine.build",
        "dcsim.checkpoint.restore",
        "dcsim.advance_world.after_restore",
    ] {
        out.median(&format!("{name}.ms_p50"), "ms", &trace.durations(name), 1.0);
    }
    let bytes: Vec<f64> = m
        .runs
        .iter()
        .flat_map(|r| r.snapshot_bytes.iter().map(|&b| b as f64))
        .collect();
    out.median("types.snap.bytes", "B", &bytes, 1.0);

    let served = &m.served;
    let handle = |kind: &str| -> Vec<f64> {
        served
            .commands
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.handle_us)
            .collect()
    };
    for kind in [
        "vm_arrive",
        "vm_depart",
        "wire_traffic",
        "get_state",
        "metrics",
    ] {
        out.median(
            &format!("serve.handle.{kind}.us_p50"),
            "us",
            &handle(kind),
            1.0,
        );
    }
    out.median("serve.handle.advance.us_p50", "us", &served.advance_us, 1.0);
    out.median("serve.handle.decide.us_p50", "us", &served.decide_us, 1.0);
    let parse: Vec<f64> = served.commands.iter().map(|c| c.parse_us).collect();
    out.median("json.parse.us_p50", "us", &parse, 1.0);
    let transport: Vec<f64> = served
        .commands
        .iter()
        .map(|c| c.rtt_ms * 1e3 - c.handle_us)
        .collect();
    out.median("serve.transport.us_p50", "us", &transport, 1.0);
    // The `metrics` handle time late in the session over early in it:
    // a cost that grows with the number of completed slots shows here.
    let mut metrics: Vec<(u32, f64)> = served
        .commands
        .iter()
        .filter(|c| c.kind == "metrics")
        .map(|c| (c.slot, c.handle_us))
        .collect();
    // One sample per boundary: the tail batches repeat the last one.
    metrics.dedup_by_key(|m| m.0);
    let k = (metrics.len() / 2).clamp(1, 8);
    let first: Vec<f64> = metrics.iter().take(k).map(|m| m.1).collect();
    let last: Vec<f64> = metrics.iter().rev().take(k).map(|m| m.1).collect();
    out.put(
        "serve.metrics.growth",
        "ratio",
        median(&last) / median(&first),
        2 * k,
    );
    let rtt: Vec<f64> = served.commands.iter().map(|c| c.rtt_ms).collect();
    out.put("serve.cmd_ms_p99", "ms", quantile(&rtt, 0.99), rtt.len());
    out.put("serve.cmd_ms_max", "ms", max(&rtt), rtt.len());

    let untraced = m
        .untraced
        .as_ref()
        .ok_or("the traced run has no untraced pass")?;
    let steady =
        |rows: &[engine::SlotRow]| -> Vec<f64> { rows.iter().skip(1).map(|r| r.ms).collect() };
    let traced_ms = median_of_means(&steady(&run.rows));
    let untraced_ms = median_of_means(&steady(&untraced.rows));
    out.put(
        "trace.overhead_pct",
        "%",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
        untraced.rows.len() - 1,
    );
    // How much of each traced slot the four phase spans cover, replays
    // excluded from the slot.
    let spans = trace.spans();
    let mut coverage = Vec::new();
    for (at, slot) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "dcsim.slot")
    {
        let (mut phases, mut replays) = (0.0, 0.0);
        for child in spans.iter().filter(|s| s.parent == Some(at)) {
            match child.name {
                "workload.window_fill" | "workload.cpucorr" => replays += child.ms(),
                _ => phases += child.ms(),
            }
        }
        coverage.push(phases / (slot.ms() - replays) * 100.0);
    }
    let worst = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    if worst < 95.0 {
        return Err(format!(
            "phase spans cover only {worst:.1}% of a traced slot"
        ));
    }
    out.median("trace.phase_coverage_pct", "%", &coverage, 1.0);
    Ok(out)
}

/// Why a run failed, with the operations it had attempted and failed.
struct Failure {
    message: String,
    attempted: u64,
    failed: u64,
}

/// Runs the workload; returns the metrics and the counts, or the first
/// failure.
fn measure(args: &Args, plan: &Plan) -> Result<(Metrics, Measured, Option<Trace>), Failure> {
    let mut trace = args.trace.then(Trace::new);
    let m = run_stages(args, plan, &mut trace).map_err(|message| Failure {
        message,
        attempted: 1,
        failed: 1,
    })?;
    let fail = |message: String| Failure {
        message,
        attempted: m.attempted.max(1),
        failed: m.failed,
    };
    check(args, plan, &m).map_err(fail)?;
    let metrics = match &trace {
        Some(trace) => per_layer(&m, trace).map_err(fail)?,
        None => end_to_end(args, &m),
    };
    if let Some(bad) = metrics
        .0
        .iter()
        .find(|x| !x.value.is_finite() || x.samples == 0)
    {
        return Err(fail(format!("metric {} has no finite value", bad.name)));
    }
    Ok((metrics, m, trace))
}

/// Online CPUs of the machine (not of this process's affinity mask).
fn nproc() -> usize {
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    online
        .trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum::<usize>()
        .max(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if !args.pinned && !args.served_stage && served::pinned() {
        // Rerun this command held to one CPU, and pass its result on.
        let code = std::env::current_exe()
            .map_err(|e| e.to_string())
            .and_then(|exe| {
                served::on_one_cpu(&exe)
                    .args(&argv[1..])
                    .arg("--pinned")
                    .status()
                    .map_err(|e| e.to_string())
            })
            .map(|status| status.code().unwrap_or(1))
            .unwrap_or_else(|e| {
                eprintln!("error: cannot rerun on one CPU: {e}");
                1
            });
        std::process::exit(code);
    }
    let plan = Plan::new(args.workload, args.seconds, args.quick);
    if args.served_stage {
        match served_stage(&args, &plan) {
            Ok(run) => println!("{}", run.to_json().render()),
            Err(message) => {
                eprintln!("error: served stage: {message}");
                std::process::exit(1);
            }
        }
        return;
    }
    let meta = object(vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("quick", args.quick.into()),
        ("nproc", nproc().into()),
        ("cpus", (if served::pinned() { 1 } else { nproc() }).into()),
        ("engine_threads", ENGINE_THREADS.into()),
        (
            "server_threads",
            (if served::pinned() {
                1
            } else {
                Parallelism::Auto.resolve()
            })
            .into(),
        ),
        (
            "build_profile",
            (if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            })
            .into(),
        ),
        ("revision", args.revision.as_str().into()),
        ("slots", plan.slots.into()),
        ("reps", plan.reps.into()),
        ("restores", plan.restores.into()),
        ("served_slots", plan.served.into()),
        ("served_steps_per_slot", plan.steps_per_slot.into()),
        ("setups_per_slot", plan.setups_per_slot.into()),
    ]);
    println!("# perfbench {}", meta.render());

    let (correct, attempted, failed, metrics) = match measure(&args, &plan) {
        Ok((metrics, m, trace)) => {
            let file = format!(
                "{}-seed{}-trace{}",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            );
            write_results(&args, &file, &meta, &metrics, trace.as_ref());
            (true, m.attempted, m.failed, metrics)
        }
        Err(failure) => {
            eprintln!("error: {}", failure.message);
            (false, failure.attempted, failure.failed, Metrics::default())
        }
    };
    for metric in &metrics.0 {
        println!(
            "{:<42} {:>16.6} {:<10} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    let values: Vec<(&str, Value)> = metrics
        .0
        .iter()
        .map(|x| {
            (
                x.name.as_str(),
                object(vec![("value", x.value.into()), ("unit", x.unit.into())]),
            )
        })
        .collect();
    let line = object(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", object(values)),
    ]);
    println!("{}", line.render());
    if !correct {
        std::process::exit(1);
    }
}

/// Writes the metrics with their sample counts (and, traced, the span
/// log) under the output directory. A write failure is reported, not
/// fatal: the results are on stdout too.
fn write_results(args: &Args, file: &str, meta: &Value, metrics: &Metrics, trace: Option<&Trace>) {
    let rows: Vec<Value> = metrics
        .0
        .iter()
        .map(|x| {
            object(vec![
                ("name", x.name.as_str().into()),
                ("value", x.value.into()),
                ("unit", x.unit.into()),
                ("samples", x.samples.into()),
                (
                    "raw",
                    Value::Array(x.raw.iter().map(|&v| v.into()).collect()),
                ),
            ])
        })
        .collect();
    let doc = object(vec![
        ("meta", meta.clone()),
        ("metrics", Value::Array(rows)),
    ]);
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(format!("{file}.json")), doc.render() + "\n"))
        .and_then(|()| match trace {
            Some(trace) => {
                std::fs::write(args.out.join(format!("{file}-spans.tsv")), trace.to_tsv())
            }
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "warning: cannot write results under {}: {e}",
            args.out.display()
        );
    }
}
