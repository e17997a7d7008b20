//! Diagnostic: dense↔sparse pipeline agreement as a paired multi-seed
//! mean.
//!
//! Per-seed totals of the weekly closed loop are chaotic — a perturbed
//! RNG seed alone moves the cost total by ±5–10% because placement
//! decisions near price/cap boundaries bifurcate and the error feeds
//! back through warm starts and battery state. The honest estimator of
//! the sparse approximation's *systematic* effect is therefore the
//! paired mean across seeds: run dense and sparse on identical worlds,
//! average each side, compare the means (the chaotic part is
//! sign-alternating and cancels; a real bias would not).
//!
//! Flags: `--scenario NAME` (the preset both sides run, default
//! `paper`), `--slots N` (horizon, default 48), `--seeds a,b,c`
//! (default 7,11,23,42,77,101,131,999). The fleet is always the repro
//! scale (~400 VMs), so the scale flags and `--seed` are rejected
//! rather than ignored.

use geoplace_bench::scenario::run_proposed_with;
use geoplace_bench::{dense_sparse_pair, enforce_flags_or_exit, flag_from_args, CliArgs, Scale};
use geoplace_core::ProposedConfig;

fn main() {
    enforce_flags_or_exit(&[("--scenario", true), ("--slots", true), ("--seeds", true)]);
    let cli = CliArgs::parse_strict(&[("--slots", true), ("--seeds", true)]);
    let slots: u32 = flag_from_args("--slots").unwrap_or(48);
    let seeds: Vec<u64> = flag_from_args::<String>("--seeds")
        .map(|v| {
            v.split(',')
                .map(|x| {
                    x.parse().unwrap_or_else(|_| {
                        eprintln!("error: --seeds got unparsable value {x:?}");
                        std::process::exit(2);
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
