//! `repro <experiment> [flags]` — regenerates one table, figure,
//! ablation or diagnostic of the paper's evaluation.
//!
//! `repro` alone, or with an unknown experiment, lists every experiment
//! with the flags it admits on stderr and exits 2. An experiment admits
//! exactly the flags that change its output; any other flag exits 2
//! naming itself. Scales: default = 1/5-fleet week, `--paper` = Table I,
//! `--bench` = one-day mini run, `--stress` = ≈10k VMs over one day.

use geoplace_bench::figures;
use geoplace_bench::scenario::{
    dense_sparse_pair, exit_usage, policy_for, proposed_config_for, run_all, run_proposed_with,
    CliArgs, PolicyKind, Scale, BASE_FLAGS,
};
use geoplace_bench::table::render_table;
use geoplace_core::{CapsConfig, ProposedConfig};
use geoplace_dcsim::engine::{Scenario, Simulator};
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_energy::green::GreenController;
use geoplace_network::latency_constraint_for_qos;
use geoplace_workload::cpucorr::CorrelationMetric;

/// One experiment: its name, what it regenerates, the flags it admits
/// as `(name, takes_value)` pairs, and its body.
struct Experiment {
    name: &'static str,
    about: &'static str,
    flags: &'static [(&'static str, bool)],
    run: fn(&CliArgs),
}

/// Table I depends on the scale only: seed and scenario never reach the
/// data-center specification.
const SCALES: &[(&str, bool)] = &[("--paper", false), ("--bench", false), ("--stress", false)];

const ALL_FLAGS: &[(&str, bool)] = &[
    ("--paper", false),
    ("--bench", false),
    ("--stress", false),
    ("--seed", true),
    ("--scenario", true),
    ("--csv", false),
];

/// The agreement diagnostic always runs the repro-scale fleet over its
/// own seed list, so the scale flags and `--seed` are not its flags.
const AGREEMENT_FLAGS: &[(&str, bool)] =
    &[("--scenario", true), ("--slots", true), ("--seeds", true)];

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "Table I: DC fleet and energy sources",
        flags: SCALES,
        run: table1,
    },
    Experiment {
        name: "fig1",
        about: "Fig. 1: normalized weekly operational cost",
        flags: BASE_FLAGS,
        run: |cli| figure(cli, figures::fig1),
    },
    Experiment {
        name: "fig2",
        about: "Fig. 2: hourly and total DC energy",
        flags: BASE_FLAGS,
        run: |cli| figure(cli, figures::fig2),
    },
    Experiment {
        name: "fig3",
        about: "Fig. 3: response-time PDF",
        flags: BASE_FLAGS,
        run: |cli| figure(cli, figures::fig3),
    },
    Experiment {
        name: "fig4",
        about: "Fig. 4: totals summary",
        flags: BASE_FLAGS,
        run: |cli| figure(cli, figures::fig4),
    },
    Experiment {
        name: "fig5",
        about: "Fig. 5: cost-performance trade-off",
        flags: BASE_FLAGS,
        run: |cli| figure(cli, figures::fig5),
    },
    Experiment {
        name: "fig6",
        about: "Fig. 6: energy-performance trade-off",
        flags: BASE_FLAGS,
        run: |cli| figure(cli, figures::fig6),
    },
    Experiment {
        name: "all",
        about: "Figs. 1-6 and migration diagnostics from one run",
        flags: ALL_FLAGS,
        run: all,
    },
    Experiment {
        name: "alpha_sweep",
        about: "ablation A1: Eq. 5's alpha weighting",
        flags: BASE_FLAGS,
        run: alpha_sweep,
    },
    Experiment {
        name: "qos_sweep",
        about: "ablation A2: Algorithm 2's QoS migration budget",
        flags: BASE_FLAGS,
        run: qos_sweep,
    },
    Experiment {
        name: "green_ablation",
        about: "ablation A3: green-controller battery arbitrage",
        flags: BASE_FLAGS,
        run: green_ablation,
    },
    Experiment {
        name: "metric_ablation",
        about: "ablation A4: peak coincidence vs Pearson repulsion",
        flags: BASE_FLAGS,
        run: metric_ablation,
    },
    Experiment {
        name: "caps_sweep",
        about: "diagnostic: Proposed's cost across the caps knobs",
        flags: BASE_FLAGS,
        run: caps_sweep,
    },
    Experiment {
        name: "distribution",
        about: "diagnostic: per-DC energy and grid price per policy",
        flags: BASE_FLAGS,
        run: distribution,
    },
    Experiment {
        name: "pipeline_agreement",
        about: "diagnostic: dense vs sparse pipeline, paired multi-seed mean",
        flags: AGREEMENT_FLAGS,
        run: pipeline_agreement,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(experiment) = args
        .get(1)
        .and_then(|name| EXPERIMENTS.iter().find(|e| e.name == name))
    else {
        if let Some(name) = args.get(1) {
            eprintln!("error: unknown experiment {name:?}");
        }
        eprintln!("usage: repro <experiment> [flags]\n\nexperiments:");
        for e in EXPERIMENTS {
            eprintln!("  {:<20} {:<60} {}", e.name, e.about, usage(e.flags));
        }
        std::process::exit(2);
    };
    // The experiment name stands in for argv[0], so the walk sees only
    // the experiment's flags.
    let cli = CliArgs::from_slice_with(&args[1..], experiment.flags).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        eprintln!(
            "usage: repro {} {}",
            experiment.name,
            usage(experiment.flags)
        );
        std::process::exit(2)
    });
    (experiment.run)(&cli);
}

/// `[--flag]` / `[--flag VALUE]` for each flag of a vocabulary.
fn usage(flags: &[(&str, bool)]) -> String {
    let each: Vec<String> = flags
        .iter()
        .map(|&(name, takes_value)| {
            if takes_value {
                format!("[{name} VALUE]")
            } else {
                format!("[{name}]")
            }
        })
        .collect();
    each.join(" ")
}

/// One figure from one run of all four policies.
fn figure(cli: &CliArgs, render: fn(&[SimulationReport]) -> String) {
    print!("{}", render(&run_all(&cli.config())));
}

fn table1(cli: &CliArgs) {
    let config = cli.config();
    let rows: Vec<Vec<String>> = config
        .dcs
        .iter()
        .map(|dc| {
            vec![
                dc.name.clone(),
                dc.servers.to_string(),
                format!("{:.0}", dc.pv_kwp),
                format!("{:.0}", dc.battery_kwh),
                format!("UTC+{}", dc.timezone_offset_hours),
                format!("{:.2}/{:.2}", dc.price_off_peak, dc.price_peak),
            ]
        })
        .collect();
    println!("Table I — DCs number of servers and energy sources specification");
    print!(
        "{}",
        render_table(
            &[
                "DC",
                "servers",
                "PV kWp",
                "battery kWh",
                "tz",
                "tariff off/peak EUR"
            ],
            &rows
        )
    );
}

fn all(cli: &CliArgs) {
    let config = cli.config();
    eprintln!(
        "running 4 policies at {:?} scale, scenario {:?}: {} DCs, {} slots, ~{:.0} VMs…",
        cli.scale,
        cli.world.name,
        config.dcs.len(),
        config.horizon_slots,
        config.fleet.arrivals.expected_population()
    );
    let reports = run_all(&config);
    print!("{}", figures::all_figures(&reports));
    print!("{}", figures::migration_summary(&reports));
    // `--csv` additionally writes the raw per-slot series and response
    // samples into results/ for external plotting.
    if cli.has("--csv") {
        std::fs::create_dir_all("results").expect("create results dir");
        for report in &reports {
            let stem = report.policy.to_lowercase().replace('-', "_");
            std::fs::write(format!("results/{stem}_hourly.csv"), report.to_csv())
                .expect("write hourly csv");
            std::fs::write(
                format!("results/{stem}_response.csv"),
                report.response_samples_csv(),
            )
            .expect("write response csv");
        }
        eprintln!("CSV series written to results/");
    }
}

/// Ablation A1: the α weighting factor of Eq. 5, the energy/performance
/// trade-off knob of the force layout.
fn alpha_sweep(cli: &CliArgs) {
    let config = cli.config();
    let mut rows = Vec::new();
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let report = run_proposed_with(
            &config,
            ProposedConfig {
                alpha,
                ..proposed_config_for(&config)
            },
        );
        let totals = report.totals();
        rows.push(vec![
            format!("{alpha:.2}"),
            format!("{:.2}", totals.cost_eur),
            format!("{:.2}", totals.energy_gj),
            format!("{:.1}", totals.worst_response_s),
            format!("{:.1}", totals.mean_response_s),
            format!("{:.1}", totals.mean_active_servers),
        ]);
    }
    println!("Ablation A1 — α sweep (Eq. 5: F = α·F_attract + (1−α)·F_repulse)");
    print!(
        "{}",
        render_table(
            &[
                "alpha",
                "cost EUR",
                "energy GJ",
                "worst rt s",
                "mean rt s",
                "servers on"
            ],
            &rows
        )
    );
}

/// Ablation A2: the QoS level that sets Algorithm 2's hard migration
/// latency budget (paper: 98 % → 72 s of the hour).
fn qos_sweep(cli: &CliArgs) {
    let mut rows = Vec::new();
    for qos in [0.90, 0.95, 0.98, 0.99, 0.999] {
        let mut config = cli.config();
        config.qos = qos;
        let report = run_proposed_with(&config, proposed_config_for(&config));
        let totals = report.totals();
        rows.push(vec![
            format!("{:.1}%", qos * 100.0),
            format!("{:.0} s", latency_constraint_for_qos(qos).0),
            totals.migrations.to_string(),
            totals.migration_overruns.to_string(),
            format!("{:.2}", totals.cost_eur),
            format!("{:.1}", totals.worst_response_s),
        ]);
    }
    println!("Ablation A2 — QoS sweep (migration latency budget of Algorithm 2)");
    print!(
        "{}",
        render_table(
            &[
                "QoS",
                "budget",
                "migrations",
                "overruns",
                "cost EUR",
                "worst rt s"
            ],
            &rows
        )
    );
}

/// Ablation A3: the green controller's low-price arbitrage charging
/// (Sect. IV-B.3: "during the low price periods, we charge the battery
/// by grid energy").
fn green_ablation(cli: &CliArgs) {
    let config = cli.config();
    let mut rows = Vec::new();
    for (label, disable) in [("arbitrage ON (paper)", false), ("arbitrage OFF", true)] {
        let scenario = Scenario::build(&config).expect("valid config");
        let mut policy = policy_for(&config, PolicyKind::Proposed);
        let report = Simulator::new(scenario)
            .with_green_controller(GreenController {
                disable_arbitrage: disable,
            })
            .run(&mut policy.as_mut());
        let totals = report.totals();
        let battery: f64 = report.hourly.iter().map(|h| h.battery_discharge_j).sum();
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", totals.cost_eur),
            format!("{:.2}", totals.grid_energy_gj),
            format!("{:.2}", battery / 1e9),
        ]);
    }
    println!("Ablation A3 — green-controller battery arbitrage");
    print!(
        "{}",
        render_table(&["variant", "cost EUR", "grid GJ", "battery out GJ"], &rows)
    );
}

/// Ablation A4: the repulsion statistic — the paper's worst-case
/// peak-coincidence ratio vs. a Pearson-correlation variant.
fn metric_ablation(cli: &CliArgs) {
    let config = cli.config();
    let mut rows = Vec::new();
    for (label, metric) in [
        (
            "peak coincidence (paper)",
            CorrelationMetric::PeakCoincidence,
        ),
        ("Pearson", CorrelationMetric::Pearson),
    ] {
        let report = run_proposed_with(
            &config,
            ProposedConfig {
                repulsion_metric: metric,
                ..proposed_config_for(&config)
            },
        );
        let totals = report.totals();
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", totals.cost_eur),
            format!("{:.2}", totals.energy_gj),
            format!("{:.1}", totals.worst_response_s),
            format!("{:.1}", totals.mean_active_servers),
        ]);
    }
    println!("Ablation A4 — repulsion statistic (Eq. 5's Corr_cpu)");
    print!(
        "{}",
        render_table(
            &[
                "metric",
                "cost EUR",
                "energy GJ",
                "worst rt s",
                "servers on"
            ],
            &rows
        )
    );
}

/// Sweeps the caps knobs (grid share weighting, free-energy emphasis)
/// to locate the cost optimum of the Proposed policy.
fn caps_sweep(cli: &CliArgs) {
    let config = cli.config();
    for (floor, free, grid) in [
        (0.10, 1.5, 1.1),
        (0.15, 2.0, 1.0),
        (0.20, 2.5, 1.0),
        (0.10, 3.0, 1.0),
        (0.25, 2.0, 0.9),
    ] {
        let proposed = ProposedConfig {
            caps: CapsConfig {
                weight_floor: floor,
                free_energy_scale: free,
                grid_scale: grid,
            },
            ..proposed_config_for(&config)
        };
        let report = run_proposed_with(&config, proposed);
        let totals = report.totals();
        let pv: f64 = report.hourly.iter().map(|h| h.pv_used_j).sum::<f64>() / 1e9;
        let batt: f64 = report
            .hourly
            .iter()
            .map(|h| h.battery_discharge_j)
            .sum::<f64>()
            / 1e9;
        println!(
            "floor {floor:.2} free {free:.1} grid {grid:.1} -> cost {:>7.2} energy {:>6.2} pv {pv:>5.2} batt {batt:>5.2} worst_rt {:>7.1} per-DC {:?}",
            totals.cost_eur,
            totals.energy_gj,
            totals.worst_response_s,
            report
                .per_dc_energy_gj
                .iter()
                .map(|g| (g * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
}

/// Per-DC energy distribution and average grid price paid per policy
/// (not a paper figure; used to understand cost composition).
fn distribution(cli: &CliArgs) {
    let config = cli.config();
    let names: Vec<String> = config.dcs.iter().map(|d| d.name.clone()).collect();
    for report in run_all(&config) {
        let totals = report.totals();
        let grid_kwh = totals.grid_energy_gj * 1e9 / 3.6e6;
        let avg_price = if grid_kwh > 0.0 {
            totals.cost_eur / grid_kwh
        } else {
            0.0
        };
        let pv: f64 = report.hourly.iter().map(|h| h.pv_used_j).sum::<f64>() / 1e9;
        let curtailed: f64 = report.hourly.iter().map(|h| h.pv_curtailed_j).sum::<f64>() / 1e9;
        let battery: f64 = report
            .hourly
            .iter()
            .map(|h| h.battery_discharge_j)
            .sum::<f64>()
            / 1e9;
        print!(
            "{:<11} cost {:>7.1} grid {:>6.2}GJ avg {:>6.4}EUR/kWh pv {:>5.2} curt {:>5.2} batt {:>5.2} | per-DC GJ:",
            report.policy, totals.cost_eur, totals.grid_energy_gj, avg_price, pv, curtailed, battery
        );
        for (name, gj) in names.iter().zip(report.per_dc_energy_gj.iter()) {
            print!(" {name}={gj:.2}");
        }
        println!();
    }
}

/// Dense↔sparse pipeline agreement as a paired multi-seed mean.
///
/// Per-seed totals of the weekly closed loop are chaotic — a perturbed
/// RNG seed alone moves the cost total by ±5–10% because placement
/// decisions near price/cap boundaries bifurcate and the error feeds
/// back through warm starts and battery state. The honest estimator of
/// the sparse approximation's *systematic* effect is therefore the
/// paired mean across seeds: run dense and sparse on identical worlds,
/// average each side, compare the means (the chaotic part is
/// sign-alternating and cancels; a real bias would not).
///
/// Flags: `--scenario NAME` (the preset both sides run, default
/// `paper`), `--slots N` (horizon, default 48), `--seeds a,b,c`
/// (default 7,11,23,42,77,101,131,999).
fn pipeline_agreement(cli: &CliArgs) {
    let slots: u32 = cli
        .value("--slots")
        .unwrap_or_else(|e| exit_usage(&e))
        .unwrap_or(48);
    let seeds: Vec<u64> = cli
        .value::<String>("--seeds")
        .unwrap_or_else(|e| exit_usage(&e))
        .map(|v| {
            v.split(',')
                .map(|x| {
                    x.parse().unwrap_or_else(|_| {
                        exit_usage(&format!("--seeds got unparsable value {x:?}"))
                    })
                })
                .collect()
        })
        .unwrap_or_else(|| vec![7, 11, 23, 42, 77, 101, 131, 999]);

    // Both sides deliberately run the *same* ProposedConfig (no
    // probe-limit asymmetry): the comparison isolates the sparse
    // correlation/layout approximation, nothing else.
    let mut dense_mean = [0.0f64; 3];
    let mut sparse_mean = [0.0f64; 3];
    for &seed in &seeds {
        let mut base = cli.world.apply(Scale::Repro.config(seed));
        base.horizon_slots = slots;
        let (dense_config, sparse_config) = dense_sparse_pair(&base);
        let dense = run_proposed_with(&dense_config, ProposedConfig::default()).totals();
        let sparse = run_proposed_with(&sparse_config, ProposedConfig::default()).totals();

        println!(
            "seed {seed}: cost {:.1} vs {:.1} ({:+.2}%), energy {:.3} vs {:.3}, \
             mean rt {:.0} vs {:.0} ({:+.2}%)",
            dense.cost_eur,
            sparse.cost_eur,
            (sparse.cost_eur / dense.cost_eur - 1.0) * 100.0,
            dense.energy_gj,
            sparse.energy_gj,
            dense.mean_response_s,
            sparse.mean_response_s,
            (sparse.mean_response_s / dense.mean_response_s - 1.0) * 100.0,
        );
        dense_mean[0] += dense.cost_eur;
        dense_mean[1] += dense.energy_gj;
        dense_mean[2] += dense.mean_response_s;
        sparse_mean[0] += sparse.cost_eur;
        sparse_mean[1] += sparse.energy_gj;
        sparse_mean[2] += sparse.mean_response_s;
    }
    for (label, i) in [("cost", 0), ("energy", 1), ("mean rt", 2)] {
        println!(
            "PAIRED MEAN {label:<8} {:.3} vs {:.3}  rel {:.4}",
            dense_mean[i] / seeds.len() as f64,
            sparse_mean[i] / seeds.len() as f64,
            (sparse_mean[i] / dense_mean[i] - 1.0).abs()
        );
    }
}
