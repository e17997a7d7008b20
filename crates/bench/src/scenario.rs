//! Shared scenario builders, policy runners and the one command-line
//! parser of the reproduction harness.
//!
//! Every experiment of `repro <experiment>` runs at one of four scales:
//!
//! * **paper** — Table I verbatim (3,000 servers, ~1,200 concurrent VMs,
//!   168 slots); minutes of runtime, selected with `--paper`;
//! * **repro** (default) — the same three sites at 1/5 fleet size and the
//!   full one-week horizon (~400 VMs), which preserves every diurnal
//!   price/PV/PUE interaction while finishing in tens of seconds;
//! * **bench** — a one-day, ~100-VM configuration for quick runs, the
//!   golden matrix and the tests;
//! * **stress** — the same three sites grown to ≈10,000 concurrent VMs
//!   over one day, exercising the sparse slot pipeline.

use geoplace_baselines::{EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy};
use geoplace_core::{ProposedConfig, ProposedPolicy};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::engine::{Scenario, Simulator};
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_scenarios::{presets, WorldSpec};

/// Scale of a reproduction run, selected by `--paper`, `--bench` or
/// `--stress` (default [`Scale::Repro`]). When several appear,
/// `--paper` beats `--bench` beats `--stress`, whatever their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table I verbatim; one week.
    Paper,
    /// 1/5 fleet; one week (the default scale of every experiment).
    Repro,
    /// 1/10 fleet; one day (quick runs, the golden matrix, tests).
    Bench,
    /// ≈10,000 concurrent VMs, 3 sites, one day — the sparse-pipeline
    /// scaling scenario.
    Stress,
}

impl Scale {
    /// The scenario configuration at this scale.
    pub fn config(self, seed: u64) -> ScenarioConfig {
        match self {
            Scale::Paper => ScenarioConfig::paper(seed),
            Scale::Repro => {
                let mut config = ScenarioConfig::paper(seed);
                for dc in &mut config.dcs {
                    dc.servers /= 5;
                    dc.pv_kwp /= 5.0;
                    dc.battery_kwh /= 5.0;
                }
                config.fleet.arrivals.groups_per_slot = 2.4;
                config.fleet.arrivals.initial_groups = 118;
                config
            }
            Scale::Bench => {
                let mut config = ScenarioConfig::scaled(seed);
                config.horizon_slots = 24;
                config
            }
            Scale::Stress => ScenarioConfig::stress(seed),
        }
    }
}

/// The one parsed form of every harness binary's command line: scale
/// flags, `--seed N` and `--scenario NAME` (a preset from the
/// [`geoplace_scenarios`] registry), plus every other flag of the
/// binary's vocabulary, read back with [`CliArgs::has`] and
/// [`CliArgs::value`]. The arguments are walked once: a value token is
/// never also read as a flag, so `--checkpoint-dir --paper` names a
/// directory and does not select the paper scale.
///
/// # Examples
///
/// ```
/// use geoplace_bench::scenario::CliArgs;
/// use geoplace_bench::Scale;
///
/// let args: Vec<String> = ["bin", "--bench", "--seed", "7", "--scenario", "flash_crowd"]
///     .iter().map(|s| s.to_string()).collect();
/// let cli = CliArgs::from_slice(&args).unwrap();
/// assert_eq!((cli.scale, cli.seed, cli.world.name), (Scale::Bench, 7, "flash_crowd"));
/// assert!(cli.config().validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// The base scale (`--paper` / `--bench` / `--stress`, default repro).
    pub scale: Scale,
    /// `--seed N` (default 42).
    pub seed: u64,
    /// The world preset (`--scenario NAME`, default `paper`).
    pub world: WorldSpec,
    /// Every `(flag, value)` pair the walk consumed, in argument order.
    flags: Vec<(String, Option<String>)>,
}

impl CliArgs {
    /// Parses the process arguments against `known`, the binary's whole
    /// flag vocabulary as `(name, takes_value)` pairs. Any error
    /// [`CliArgs::from_slice_with`] reports terminates the process via
    /// [`exit_usage`].
    pub fn parse(known: &[(&str, bool)]) -> CliArgs {
        let args: Vec<String> = std::env::args().collect();
        CliArgs::from_slice_with(&args, known).unwrap_or_else(|message| exit_usage(&message))
    }

    /// [`CliArgs::from_slice_with`] over the shared vocabulary
    /// [`BASE_FLAGS`].
    ///
    /// # Errors
    ///
    /// As [`CliArgs::from_slice_with`].
    pub fn from_slice(args: &[String]) -> std::result::Result<CliArgs, String> {
        CliArgs::from_slice_with(args, BASE_FLAGS)
    }

    /// Walks `args` (skipping `args[0]`) once against `known` and
    /// resolves scale, seed and scenario from the flags it consumed.
    /// Shared flags missing from `known` are rejected like any other
    /// unknown flag, and their defaults apply.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument for everything
    /// [`check_unknown_flags`] rejects, for a flag given twice, a
    /// malformed `--seed`, or a scenario name outside the registry (the
    /// message then lists every registered preset).
    pub fn from_slice_with(
        args: &[String],
        known: &[(&str, bool)],
    ) -> std::result::Result<CliArgs, String> {
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        for (name, value) in walk(args, known)? {
            if flags.iter().any(|(seen, _)| seen == name) {
                return Err(format!("{name} given twice"));
            }
            flags.push((name.to_owned(), value.map(str::to_owned)));
        }
        let walked = CliArgs {
            scale: Scale::Repro,
            seed: 42,
            world: presets::paper(),
            flags,
        };
        let scale = [
            ("--paper", Scale::Paper),
            ("--bench", Scale::Bench),
            ("--stress", Scale::Stress),
        ]
        .into_iter()
        .find(|(flag, _)| walked.has(flag))
        .map_or(Scale::Repro, |(_, scale)| scale);
        let seed = match walked.raw("--seed") {
            None => 42,
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--seed expects an unsigned integer, got {raw:?}"))?,
        };
        let world = match walked.raw("--scenario") {
            None => presets::paper(),
            Some(name) => presets::named(name).ok_or_else(|| {
                let listing: String = presets::registry()
                    .iter()
                    .map(|spec| format!("\n  {:<16} {}", spec.name, spec.stresses))
                    .collect();
                format!("unknown scenario {name:?}; registered scenarios:{listing}")
            })?,
        };
        Ok(CliArgs {
            scale,
            seed,
            world,
            ..walked
        })
    }

    /// The fully lowered scenario: the preset's deltas applied to the
    /// base scale configuration at this seed.
    pub fn config(&self) -> ScenarioConfig {
        self.world.apply(self.scale.config(self.seed))
    }

    /// True when the walk consumed flag `name`.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| flag == name)
    }

    /// The value of flag `name`, parsed as `T`: `Ok(None)` when the flag
    /// is absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when its value does not parse.
    pub fn value<T: std::str::FromStr>(
        &self,
        name: &str,
    ) -> std::result::Result<Option<T>, String> {
        self.raw(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{name} got unparsable value {raw:?}"))
            })
            .transpose()
    }

    /// The raw value of flag `name`, if the walk consumed it with one.
    fn raw(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, value)| value.as_deref())
    }
}

/// The flags every harness binary may share, as `(name, takes_value)`
/// pairs: the three scales, `--seed` and `--scenario`.
pub const BASE_FLAGS: &[(&str, bool)] = &[
    ("--paper", false),
    ("--bench", false),
    ("--stress", false),
    ("--seed", true),
    ("--scenario", true),
];

/// The one walk over a command line: `args` (skipping `args[0]`)
/// against an explicit vocabulary of `(name, takes_value)` flags.
/// Value-taking flags consume the next token, whatever it looks like.
/// Returns every consumed `(flag, value)` pair in argument order.
fn walk<'a>(
    args: &'a [String],
    known: &[(&str, bool)],
) -> std::result::Result<Vec<(&'a str, Option<&'a str>)>, String> {
    let mut consumed = Vec::new();
    let mut tokens = args.iter().skip(1);
    while let Some(token) = tokens.next() {
        match known.iter().find(|(name, _)| name == token) {
            Some((_, true)) => match tokens.next() {
                Some(value) => consumed.push((token.as_str(), Some(value.as_str()))),
                None => return Err(format!("{token} requires a value")),
            },
            Some((_, false)) => consumed.push((token.as_str(), None)),
            None if token.starts_with('-') => return Err(format!("unknown flag {token}")),
            None => return Err(format!("unexpected argument {token:?}")),
        }
    }
    Ok(consumed)
}

/// Checks `args` (skipping `args[0]`) against an explicit vocabulary of
/// `(name, takes_value)` flags — the walk behind [`CliArgs`], with its
/// result dropped. The error names the offending argument: `unknown flag
/// --x` for an out-of-vocabulary flag, `--x requires a value` for a
/// dangling value flag, `unexpected argument "x"` for a stray
/// positional.
pub fn check_unknown_flags(
    args: &[String],
    known: &[(&str, bool)],
) -> std::result::Result<(), String> {
    walk(args, known).map(drop)
}

/// Prints `error: {message}` on stderr and exits with code 2: how every
/// harness binary rejects a command line.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Window-probe bound the local packer uses at sparse-pipeline fleet
/// scales (the exact first-fit scan is O(n·servers·w) and intractable
/// at 10k VMs).
const SPARSE_SCALE_PROBE_LIMIT: usize = 32;

/// The [`ProposedConfig`] matching a scenario: identical placement
/// logic everywhere, but fleets large enough for the sparse pipeline
/// (per the scenario's own crossover) also bound the local packer's
/// window probes so the per-slot cost stays O(n·(servers + limit·w)).
/// Every harness entry point (`run_policy`, `run_all`, `repro`'s
/// `--stress`/`--paper` scales) routes through this.
pub fn proposed_config_for(config: &ScenarioConfig) -> ProposedConfig {
    let mut proposed = ProposedConfig::default();
    let expected = config.fleet.arrivals.expected_population() as usize;
    if config.sparsity.use_sparse(expected) {
        proposed.local.probe_limit = SPARSE_SCALE_PROBE_LIMIT;
    }
    proposed
}

/// The two sides of a dense↔sparse paired comparison over one world:
/// `base` with the dense kernels forced, and `base` with the sparse
/// kernels forced. Nothing but `sparsity` differs, so a paired mean
/// over seeds isolates the sparse approximation. The sparse side is
/// tuned for the ~400-VM repro fleet: the candidate screen covers the
/// whole fleet, so only the far-field approximation differs from dense.
pub fn dense_sparse_pair(base: &ScenarioConfig) -> (ScenarioConfig, ScenarioConfig) {
    let mut dense = base.clone();
    dense.sparsity.dense_crossover = usize::MAX;
    let mut sparse = base.clone();
    sparse.sparsity.dense_crossover = 0;
    sparse.sparsity.top_k = 64;
    sparse.sparsity.candidates_per_vm = 512;
    (dense, sparse)
}

/// The four compared policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's two-phase multi-objective placement.
    Proposed,
    /// Cost-aware baseline (ref \[17\]).
    PriAware,
    /// Energy-aware baseline (ref \[5\]).
    EnerAware,
    /// Network-aware baseline (ref \[6\]).
    NetAware,
}

impl PolicyKind {
    /// All four, in the paper's presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Proposed,
        PolicyKind::EnerAware,
        PolicyKind::PriAware,
        PolicyKind::NetAware,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Proposed => "Proposed",
            PolicyKind::PriAware => "Pri-aware",
            PolicyKind::EnerAware => "Ener-aware",
            PolicyKind::NetAware => "Net-aware",
        }
    }
}

/// Runs one policy over a fresh scenario built from `config`.
///
/// # Panics
///
/// Panics if the configuration fails validation — harness configurations
/// are static and must be correct.
pub fn run_policy(config: &ScenarioConfig, kind: PolicyKind) -> SimulationReport {
    let scenario = Scenario::build(config).expect("harness scenario must be valid");
    let simulator = Simulator::new(scenario);
    match kind {
        PolicyKind::Proposed => {
            let mut policy = ProposedPolicy::new(proposed_config_for(config));
            simulator.run(&mut policy)
        }
        PolicyKind::PriAware => simulator.run(&mut PriAwarePolicy::new()),
        PolicyKind::EnerAware => simulator.run(&mut EnerAwarePolicy::new()),
        PolicyKind::NetAware => simulator.run(&mut NetAwarePolicy::new()),
    }
}

/// Builds the selected policy fresh over a configuration — the exact
/// construction [`run_policy`] uses, boxed for stepper-level drivers
/// (serve sessions, checkpoint/resume tests).
pub fn policy_for(
    config: &ScenarioConfig,
    kind: PolicyKind,
) -> Box<dyn geoplace_dcsim::policy::GlobalPolicy> {
    match kind {
        PolicyKind::Proposed => Box::new(ProposedPolicy::new(proposed_config_for(config))),
        PolicyKind::PriAware => Box::new(PriAwarePolicy::new()),
        PolicyKind::EnerAware => Box::new(EnerAwarePolicy::new()),
        PolicyKind::NetAware => Box::new(NetAwarePolicy::new()),
    }
}

/// Runs one policy with a custom Proposed configuration (ablations).
pub fn run_proposed_with(config: &ScenarioConfig, proposed: ProposedConfig) -> SimulationReport {
    let scenario = Scenario::build(config).expect("harness scenario must be valid");
    let mut policy = ProposedPolicy::new(proposed);
    Simulator::new(scenario).run(&mut policy)
}

/// Runs all four policies on identical scenarios (same seed → same
/// workload, weather, prices) and returns the reports in
/// [`PolicyKind::ALL`] order.
pub fn run_all(config: &ScenarioConfig) -> Vec<SimulationReport> {
    PolicyKind::ALL
        .iter()
        .map(|&kind| run_policy(config, kind))
        .collect()
}

/// Horizon (slots) of the quick golden matrix: long enough that every
/// preset's events open inside it, short enough for tier-1.
pub const QUICK_MATRIX_SLOTS: u32 = 12;

/// Seeds of the quick golden matrix.
pub const QUICK_MATRIX_SEEDS: [u64; 2] = [41, 42];

/// The configuration of one quick-matrix cell: the bench scale clipped
/// to [`QUICK_MATRIX_SLOTS`], with the preset's deltas applied. This is
/// the *shared* definition behind both the `scenario_matrix --quick`
/// gate and the committed golden digests — change it and the goldens
/// must be regenerated.
pub fn quick_matrix_config(spec: &WorldSpec, seed: u64) -> ScenarioConfig {
    let mut base = Scale::Bench.config(seed);
    base.horizon_slots = QUICK_MATRIX_SLOTS;
    spec.apply(base)
}

/// Runs one policy with every kernel pinned to `threads` workers: the
/// scenario's [`Parallelism`](geoplace_types::Parallelism) is the one
/// thread budget, and the engine hands it to the policy with each
/// snapshot. The executor contract says the report must be
/// bit-identical to any other thread count.
pub fn run_policy_threads(
    config: &ScenarioConfig,
    kind: PolicyKind,
    threads: usize,
) -> SimulationReport {
    let mut config = config.clone();
    config.parallelism = geoplace_types::Parallelism::Threads(threads);
    run_policy(&config, kind)
}

/// One canonical TSV row of the golden digest matrix.
pub fn golden_row(scenario: &str, policy: PolicyKind, seed: u64, digest: &str) -> String {
    format!("{scenario}\t{}\t{seed}\t{digest}", policy.name())
}

/// Header line of the golden digest file.
pub const GOLDEN_HEADER: &str = "# scenario\tpolicy\tseed\tdigest";

/// Path of the committed golden digest file — the single definition
/// shared by the `scenario_matrix` binary and the tier-1 golden test,
/// so the file `scenario_matrix -- --quick --update` writes is the one
/// the test reads.
pub fn golden_digests_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.tsv")
}

/// Renders the full golden file from canonical rows.
pub fn render_golden_file(rows: &[String]) -> String {
    let mut out = String::from(GOLDEN_HEADER);
    out.push('\n');
    for row in rows {
        out.push_str(row);
        out.push('\n');
    }
    out
}

/// Parses a golden file into `"scenario\tpolicy\tseed" → digest`.
///
/// # Panics
///
/// Panics on a malformed (tab-less) non-comment line — the file is
/// machine-generated, so corruption must fail loudly.
pub fn parse_golden_file(content: &str) -> std::collections::BTreeMap<String, String> {
    content
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, digest) = l.rsplit_once('\t').expect("malformed golden row");
            (key.to_string(), digest.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_build_valid_configs() {
        for scale in [Scale::Paper, Scale::Repro, Scale::Bench, Scale::Stress] {
            assert!(scale.config(1).validate().is_ok(), "{scale:?}");
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_seed_handles_all_shapes() {
        let seed = |list: &[&str]| CliArgs::from_slice(&args(list)).map(|cli| cli.seed);
        assert_eq!(seed(&["bin"]), Ok(42));
        assert_eq!(seed(&["bin", "--seed", "7"]), Ok(7));
        assert_eq!(seed(&["bin", "--paper", "--seed", "0"]), Ok(0));
        assert!(seed(&["bin", "--seed"]).is_err());
        assert!(seed(&["bin", "--seed", "banana"]).is_err());
        assert!(seed(&["bin", "--seed", "-3"]).is_err());
    }

    #[test]
    fn scale_flags_resolve_by_documented_precedence() {
        // Precedence: --paper > --bench > --stress > default (repro),
        // independent of argument order.
        let scale = |list: &[&str]| CliArgs::from_slice(&args(list)).unwrap().scale;
        assert_eq!(scale(&["bin"]), Scale::Repro);
        assert_eq!(scale(&["bin", "--stress"]), Scale::Stress);
        assert_eq!(scale(&["bin", "--bench", "--paper"]), Scale::Paper);
        assert_eq!(scale(&["bin", "--paper", "--bench"]), Scale::Paper);
        assert_eq!(scale(&["bin", "--stress", "--bench"]), Scale::Bench);
        assert_eq!(
            scale(&["bin", "--stress", "--bench", "--paper"]),
            Scale::Paper
        );
    }

    #[test]
    fn a_value_token_is_never_read_as_a_flag() {
        let cli = CliArgs::from_slice_with(
            &args(&[
                "geoplace-serve",
                "--bench",
                "--checkpoint-every",
                "6",
                "--checkpoint-dir",
                "--paper",
            ]),
            crate::serve::FLAGS,
        )
        .unwrap();
        assert_eq!(cli.scale, Scale::Bench);
        assert_eq!(
            cli.value::<String>("--checkpoint-dir"),
            Ok(Some("--paper".into()))
        );
        assert_eq!(cli.value::<u32>("--checkpoint-every"), Ok(Some(6)));
        assert!(!cli.has("--paper"));
    }

    #[test]
    fn a_repeated_flag_is_an_error() {
        let err = CliArgs::from_slice(&args(&["bin", "--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("--seed given twice"), "{err}");
        let err = CliArgs::from_slice(&args(&["bin", "--bench", "--bench"])).unwrap_err();
        assert!(err.contains("--bench given twice"), "{err}");
    }

    #[test]
    fn shared_flags_outside_the_vocabulary_are_rejected() {
        let known = &[("--bench", false), ("--slots", true)];
        let err = CliArgs::from_slice_with(&args(&["bin", "--seed", "7"]), known).unwrap_err();
        assert!(err.contains("unknown flag --seed"), "{err}");
        let cli = CliArgs::from_slice_with(&args(&["bin", "--slots", "x"]), known).unwrap();
        assert_eq!((cli.scale, cli.seed), (Scale::Repro, 42));
        let err = cli.value::<u32>("--slots").unwrap_err();
        assert!(err.contains("--slots") && err.contains("\"x\""), "{err}");
        assert_eq!(cli.value::<u32>("--absent"), Ok(None));
    }

    #[test]
    fn cli_args_parse_all_flags_together() {
        let cli = CliArgs::from_slice(&args(&[
            "bin",
            "--scenario",
            "churn_storm",
            "--bench",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(cli.scale, Scale::Bench);
        assert_eq!(cli.seed, 9);
        assert_eq!(cli.world.name, "churn_storm");
        let config = cli.config();
        assert!(config.validate().is_ok());
        assert!(config.fleet.arrivals.mean_lifetime_slots < 24.0 * 0.5);
    }

    #[test]
    fn cli_args_default_to_the_paper_world() {
        let cli = CliArgs::from_slice(&args(&["bin"])).unwrap();
        assert_eq!(cli.scale, Scale::Repro);
        assert_eq!(cli.seed, 42);
        assert_eq!(cli.world.name, "paper");
        assert_eq!(cli.config(), Scale::Repro.config(42), "paper = identity");
    }

    #[test]
    fn unknown_scenario_lists_the_registry() {
        let err = CliArgs::from_slice(&args(&["bin", "--scenario", "flashcrowd"])).unwrap_err();
        assert!(err.contains("unknown scenario \"flashcrowd\""), "{err}");
        for name in geoplace_scenarios::names() {
            assert!(err.contains(name), "listing must mention {name}: {err}");
        }
    }

    #[test]
    fn malformed_cli_flags_are_errors() {
        assert!(CliArgs::from_slice(&args(&["bin", "--scenario"])).is_err());
        assert!(CliArgs::from_slice(&args(&["bin", "--seed", "nope"])).is_err());
        assert!(CliArgs::from_slice(&args(&["bin", "--seed"])).is_err());
    }

    #[test]
    fn unknown_flag_errors_name_the_offender() {
        // The shared vocabulary passes clean…
        assert!(check_unknown_flags(&args(&["bin", "--bench", "--seed", "7"]), BASE_FLAGS).is_ok());
        // …a typo names itself…
        let err = check_unknown_flags(&args(&["bin", "--sede", "7"]), BASE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag --sede"), "{err}");
        // …a dangling value flag names itself…
        let err = check_unknown_flags(&args(&["bin", "--scenario"]), BASE_FLAGS).unwrap_err();
        assert!(err.contains("--scenario requires a value"), "{err}");
        // …and a stray positional is rejected too.
        let err = check_unknown_flags(&args(&["bin", "oops"]), BASE_FLAGS).unwrap_err();
        assert!(err.contains("\"oops\""), "{err}");
    }

    #[test]
    fn extras_extend_the_flag_vocabulary() {
        let mut known: Vec<(&str, bool)> = BASE_FLAGS.to_vec();
        known.extend_from_slice(&[("--slots", true), ("--external", false)]);
        assert!(check_unknown_flags(
            &args(&["bin", "--bench", "--slots", "12", "--external"]),
            &known
        )
        .is_ok());
        let err = check_unknown_flags(&args(&["bin", "--slots"]), &known).unwrap_err();
        assert!(err.contains("--slots requires a value"), "{err}");
        // A scenario-name value that looks like a word is consumed, not
        // mistaken for a positional.
        assert!(
            check_unknown_flags(&args(&["bin", "--scenario", "churn_storm"]), BASE_FLAGS).is_ok()
        );
    }

    #[test]
    fn quick_matrix_cells_are_valid_and_short() {
        for spec in geoplace_scenarios::registry() {
            for seed in QUICK_MATRIX_SEEDS {
                let config = quick_matrix_config(&spec, seed);
                assert!(config.validate().is_ok(), "{} seed {seed}", spec.name);
                assert_eq!(config.horizon_slots, QUICK_MATRIX_SLOTS);
            }
        }
    }

    #[test]
    fn quick_matrix_actually_perturbs_every_preset() {
        // Every non-control preset must change the world *within the
        // quick horizon* — an event window that opens after slot 12
        // would make its golden rows silently equal to paper's.
        let control = quick_matrix_config(&geoplace_scenarios::presets::paper(), 42);
        for spec in geoplace_scenarios::registry().into_iter().skip(1) {
            let config = quick_matrix_config(&spec, 42);
            assert_ne!(
                config, control,
                "{} is inert in the quick matrix",
                spec.name
            );
            let timeline_active = config
                .timeline
                .events()
                .iter()
                .any(|e| e.start_slot < QUICK_MATRIX_SLOTS);
            let fleet_active = config
                .fleet
                .arrivals
                .bursts
                .iter()
                .any(|b| b.start_slot < QUICK_MATRIX_SLOTS)
                || config
                    .fleet
                    .arrivals
                    .cohorts
                    .iter()
                    .any(|c| c.slot < QUICK_MATRIX_SLOTS)
                || config
                    .fleet
                    .arrivals
                    .scripted
                    .iter()
                    .any(|s| s.slot < QUICK_MATRIX_SLOTS)
                || !config.fleet.arrivals.mix.is_empty()
                || !config.fleet.arrivals.day_rate_factors.is_empty()
                || config.fleet.arrivals.groups_per_slot != control.fleet.arrivals.groups_per_slot;
            assert!(
                timeline_active || fleet_active,
                "{}: no perturbation opens before slot {QUICK_MATRIX_SLOTS}",
                spec.name
            );
        }
    }

    #[test]
    fn golden_rows_are_tab_separated() {
        let row = golden_row("paper", PolicyKind::Proposed, 42, "00ff");
        assert_eq!(row, "paper\tProposed\t42\t00ff");
    }

    #[test]
    fn stress_scale_uses_sparse_pipeline() {
        let config = Scale::Stress.config(1);
        assert!(config
            .sparsity
            .use_sparse(config.fleet.arrivals.expected_population() as usize));
        assert_eq!(config.horizon_slots, 24);
    }

    #[test]
    fn proposed_config_bounds_probes_only_at_sparse_scales() {
        // Dense-scale scenarios keep the exact first-fit scan; sparse-
        // scale ones (stress, paper) get the bounded probe budget — via
        // run_policy, so every repro experiment's --stress is covered.
        let bench = Scale::Bench.config(1);
        assert_eq!(proposed_config_for(&bench).local.probe_limit, usize::MAX);
        let stress = Scale::Stress.config(1);
        assert_eq!(
            proposed_config_for(&stress).local.probe_limit,
            SPARSE_SCALE_PROBE_LIMIT
        );
        let paper = Scale::Paper.config(1);
        assert!(proposed_config_for(&paper).local.probe_limit < usize::MAX);
    }

    #[test]
    fn dense_sparse_pair_differs_only_in_sparsity() {
        let base = CliArgs::from_slice(&args(&["bin", "--scenario", "flash_crowd"]))
            .unwrap()
            .config();
        assert_ne!(base, Scale::Repro.config(42), "the preset must apply");
        let (mut dense, mut sparse) = dense_sparse_pair(&base);
        assert!(!dense.sparsity.use_sparse(1_000_000));
        assert!(sparse.sparsity.use_sparse(2));
        assert_ne!(dense.sparsity, sparse.sparsity);
        dense.sparsity = base.sparsity;
        sparse.sparsity = base.sparsity;
        assert_eq!(dense, base);
        assert_eq!(sparse, base);
    }

    #[test]
    fn repro_scale_shrinks_the_fleet() {
        let paper = Scale::Paper.config(1);
        let repro = Scale::Repro.config(1);
        assert!(repro.dcs[0].servers < paper.dcs[0].servers);
        assert!(
            repro.fleet.arrivals.expected_population() < paper.fleet.arrivals.expected_population()
        );
        assert_eq!(
            repro.horizon_slots, paper.horizon_slots,
            "keep the weekly horizon"
        );
    }

    #[test]
    fn policy_names_match_paper_legends() {
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["Proposed", "Ener-aware", "Pri-aware", "Net-aware"]);
    }

    #[test]
    fn run_policy_smoke() {
        let mut config = Scale::Bench.config(3);
        config.horizon_slots = 2;
        for kind in PolicyKind::ALL {
            let report = run_policy(&config, kind);
            assert_eq!(report.policy, kind.name());
            assert_eq!(report.hourly.len(), 2);
        }
    }
}
