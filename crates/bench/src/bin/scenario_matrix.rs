//! The cross-world golden-regression matrix: every registered scenario
//! preset × all four policies, one canonical report digest per cell.
//!
//! Modes:
//!
//! * default — each preset at the selected scale (`--bench` default so
//!   a bare invocation finishes in seconds; `--paper`/`--stress` work
//!   too) under `--seed` (default 42), printing a totals table and the
//!   digest of every cell;
//! * `--quick` — the CI shape: every preset at the shared quick-matrix
//!   scale (bench fleet, 12 slots) for both golden seeds (41, 42);
//! * `--check` — after running, diff the produced digests against the
//!   committed goldens (`crates/bench/tests/golden/digests.tsv`) and
//!   exit 1 on any mismatch or missing row;
//! * `--update` — rewrite the golden file from this run (quick mode
//!   only, so the committed goldens stay the CI shape).
//!
//! `--check` or `--update` without `--quick`, and `--update` with
//! `--scenario`, exit 2 before running any cell.
//!
//! `--scenario NAME` narrows the matrix to one preset's rows (all
//! other flags compose); `--seed` picks the seed outside `--quick`
//! (inside it the golden seeds are pinned and an explicit `--seed` is
//! refused rather than ignored).
//!
//! Every cell is executed twice — once on 1 worker thread, once on 2 —
//! and the two reports must digest identically: the executor's
//! determinism contract, enforced across every world in the library.

use geoplace_bench::scenario::{
    exit_usage, golden_digests_path, golden_row, parse_golden_file, quick_matrix_config,
    render_golden_file, run_policy_threads, CliArgs, PolicyKind, Scale, BASE_FLAGS,
    QUICK_MATRIX_SEEDS,
};
use geoplace_dcsim::config::ScenarioConfig;

struct Cell {
    scenario: &'static str,
    policy: PolicyKind,
    seed: u64,
    digest: String,
    cost_eur: f64,
    energy_gj: f64,
    worst_response_s: f64,
    migrations: u64,
}

/// Runs one cell at 1 and 2 worker threads, asserting digest equality.
fn run_cell(
    scenario: &'static str,
    config: &ScenarioConfig,
    policy: PolicyKind,
    seed: u64,
) -> Cell {
    let report = run_policy_threads(config, policy, 1);
    let twin = run_policy_threads(config, policy, 2);
    assert_eq!(
        report.digest(),
        twin.digest(),
        "{scenario}/{}/{seed}: report differs between 1 and 2 worker threads",
        policy.name()
    );
    let totals = report.totals();
    Cell {
        scenario,
        policy,
        seed,
        digest: report.digest(),
        cost_eur: totals.cost_eur,
        energy_gj: totals.energy_gj,
        worst_response_s: totals.worst_response_s,
        migrations: totals.migrations,
    }
}

fn main() {
    let cli = CliArgs::parse(
        &[
            BASE_FLAGS,
            &[("--quick", false), ("--check", false), ("--update", false)],
        ]
        .concat(),
    );
    let (quick, check, update) = (cli.has("--quick"), cli.has("--check"), cli.has("--update"));

    // `--scenario NAME` narrows the matrix to that preset's rows; a
    // bare invocation runs the whole registry.
    let scenario_selected = cli.has("--scenario");

    // Refuse a mode that cannot finish before running any cell.
    if check && !quick {
        exit_usage(
            "--check compares against the committed quick-matrix goldens; run it with --quick",
        );
    }
    if update && !quick {
        exit_usage("--update only writes the quick-matrix shape; run it with --quick");
    }
    if update && scenario_selected {
        // A narrowed matrix must never rewrite the file: it would
        // silently drop every other preset's committed rows.
        exit_usage("--update rewrites the whole golden file; drop --scenario");
    }

    let registry: Vec<_> = geoplace_scenarios::registry()
        .into_iter()
        .filter(|spec| !scenario_selected || spec.name == cli.world.name)
        .collect();
    let seeds: Vec<u64> = if quick {
        // The quick matrix *is* the golden shape — its seeds are pinned,
        // so an explicit --seed would be silently ignored; refuse it.
        if cli.has("--seed") {
            exit_usage(&format!(
                "--quick pins the golden seeds {QUICK_MATRIX_SEEDS:?}; \
                 drop --seed or run without --quick"
            ));
        }
        QUICK_MATRIX_SEEDS.to_vec()
    } else {
        vec![cli.seed]
    };

    let mut cells: Vec<Cell> = Vec::new();
    for spec in &registry {
        for &seed in &seeds {
            let config = if quick {
                quick_matrix_config(spec, seed)
            } else {
                let scale = if cli.has("--paper") || cli.has("--stress") {
                    cli.scale
                } else {
                    // Bare invocations default to the bench scale: a full
                    // 24-cell repro-scale matrix is a coffee-break run,
                    // not a smoke check.
                    Scale::Bench
                };
                spec.apply(scale.config(seed))
            };
            eprintln!(
                "running {:<16} seed {seed}: {} slots, ~{:.0} VMs, {} events…",
                spec.name,
                config.horizon_slots,
                config.fleet.arrivals.expected_population(),
                config.timeline.events().len()
            );
            for policy in PolicyKind::ALL {
                cells.push(run_cell(spec.name, &config, policy, seed));
            }
        }
    }

    println!("scenario         policy      seed  cost EUR    energy GJ  worst rt s  migr  digest");
    for cell in &cells {
        println!(
            "{:<16} {:<10} {:>5}  {:>9.2}  {:>10.3}  {:>10.1}  {:>4}  {}",
            cell.scenario,
            cell.policy.name(),
            cell.seed,
            cell.cost_eur,
            cell.energy_gj,
            cell.worst_response_s,
            cell.migrations,
            cell.digest
        );
    }

    if update {
        let rows: Vec<String> = cells
            .iter()
            .map(|cell| golden_row(cell.scenario, cell.policy, cell.seed, &cell.digest))
            .collect();
        std::fs::write(golden_digests_path(), render_golden_file(&rows))
            .expect("write golden digests");
        println!(
            "golden digests written to {}",
            golden_digests_path().display()
        );
    }

    if check {
        let committed = std::fs::read_to_string(golden_digests_path())
            .unwrap_or_else(|e| panic!("read {}: {e}", golden_digests_path().display()));
        let golden = parse_golden_file(&committed);
        let mut failures = 0usize;
        for cell in &cells {
            let key = format!("{}\t{}\t{}", cell.scenario, cell.policy.name(), cell.seed);
            match golden.get(&key) {
                Some(expected) if *expected == cell.digest => {}
                Some(expected) => {
                    eprintln!(
                        "MISMATCH {key}: committed {expected}, recomputed {}",
                        cell.digest
                    );
                    failures += 1;
                }
                None => {
                    eprintln!("MISSING golden row for {key}");
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!(
                "{failures} golden mismatches — if the change is intentional, regenerate \
                 with `cargo run --release --bin scenario_matrix -- --quick --update`"
            );
            std::process::exit(1);
        }
        println!("all {} cells match the committed goldens", cells.len());
    }
}
