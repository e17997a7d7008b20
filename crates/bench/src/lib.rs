//! Reproduction harness: scenario builders, policy runners and table
//! rendering shared by the `repro_*` binaries.
//!
//! One binary per table/figure of the paper:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `repro_table1` | Table I — DC fleet and energy sources |
//! | `repro_fig1` | Fig. 1 — normalized weekly operational cost |
//! | `repro_fig2` | Fig. 2 — hourly/total DC energy |
//! | `repro_fig3` | Fig. 3 — response-time PDF |
//! | `repro_fig4` | Fig. 4 — totals summary |
//! | `repro_fig5` | Fig. 5 — cost–performance trade-off |
//! | `repro_fig6` | Fig. 6 — energy–performance trade-off |
//! | `repro_all` | every figure in one run |
//! | `repro_alpha_sweep` | ablation: Eq. 5's α knob |
//! | `repro_qos_sweep` | ablation: Algorithm 2's QoS budget |
//! | `repro_green_ablation` | ablation: green-controller arbitrage |
//!
//! Plus the diagnostics: `diag_pipeline_agreement` (dense↔sparse
//! paired-mean comparison), `diag_caps_sweep` and `diag_distribution`.
//! Performance is measured by `perfbench` (`python3 perfbench/run.py`,
//! declared in `BENCHMARK.json`), not by a binary here.
//!
//! All binaries accept `--paper` (Table I scale), `--bench` (one-day
//! mini scale) and `--stress` (≈10k-VM one-day scale); the default is
//! the 1/5-fleet weekly "repro" scale. They also accept `--seed N` and
//! `--scenario NAME` (a preset from the [`geoplace_scenarios`]
//! registry) — all parsed by one [`scenario::CliArgs`], which rejects
//! anything outside each binary's declared flag vocabulary with exit
//! code 2. The `scenario_matrix` binary runs every preset × every
//! policy and emits one canonical report digest per cell; `--quick
//! --check` is the CI golden-regression gate.
//!
//! The `geoplace-serve` binary turns the stepper lifecycle into a
//! long-running placement service over line-delimited JSON on
//! stdin/stdout — see [`serve`] for the protocol and [`json`] for the
//! hand-rolled (serde-free) JSON layer beneath it.

pub mod figures;
pub mod json;
pub mod scenario;
pub mod serve;
pub mod table;

pub use scenario::{
    check_unknown_flags, dense_sparse_pair, enforce_flags_or_exit, flag_from_args, golden_row,
    parse_seed, proposed_config_for, quick_matrix_config, run_all, run_policy, run_policy_threads,
    run_proposed_with, CliArgs, PolicyKind, Scale, BASE_FLAGS, QUICK_MATRIX_SEEDS,
    QUICK_MATRIX_SLOTS,
};
