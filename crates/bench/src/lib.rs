//! Reproduction harness: scenario builders, policy runners and table
//! rendering shared by the `repro` binary.
//!
//! `repro <experiment> [flags]` regenerates one table or figure of the
//! paper, or runs an ablation or diagnostic:
//!
//! | Experiment | Regenerates |
//! |---|---|
//! | `table1` | Table I — DC fleet and energy sources |
//! | `fig1` | Fig. 1 — normalized weekly operational cost |
//! | `fig2` | Fig. 2 — hourly/total DC energy |
//! | `fig3` | Fig. 3 — response-time PDF |
//! | `fig4` | Fig. 4 — totals summary |
//! | `fig5` | Fig. 5 — cost–performance trade-off |
//! | `fig6` | Fig. 6 — energy–performance trade-off |
//! | `all` | every figure in one run (`--csv` also writes `results/`) |
//! | `alpha_sweep` | ablation: Eq. 5's α knob |
//! | `qos_sweep` | ablation: Algorithm 2's QoS budget |
//! | `green_ablation` | ablation: green-controller arbitrage |
//! | `metric_ablation` | ablation: peak coincidence vs Pearson repulsion |
//! | `caps_sweep` | diagnostic: the caps knobs |
//! | `distribution` | diagnostic: per-DC energy and grid price |
//! | `pipeline_agreement` | diagnostic: dense↔sparse paired-mean comparison |
//!
//! Performance is measured by `perfbench` (`python3 perfbench/run.py`,
//! declared in `BENCHMARK.json`), not by a binary here.
//!
//! Experiments take `--paper` (Table I scale), `--bench` (one-day mini
//! scale) and `--stress` (≈10k-VM one-day scale); the default is the
//! 1/5-fleet weekly "repro" scale. Those that run a world also take
//! `--seed N` and `--scenario NAME` (a preset from the
//! [`geoplace_scenarios`] registry). Every binary parses its command
//! line with one [`scenario::CliArgs`] walk against its own vocabulary:
//! a flag outside it, a flag given twice or a malformed value exits 2
//! naming the offender. The `scenario_matrix` binary runs every preset
//! × every policy and emits one canonical report digest per cell;
//! `--quick --check` is the CI golden-regression gate.
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
    check_unknown_flags, dense_sparse_pair, exit_usage, golden_row, proposed_config_for,
    quick_matrix_config, run_all, run_policy, run_policy_threads, run_proposed_with, CliArgs,
    PolicyKind, Scale, BASE_FLAGS, QUICK_MATRIX_SEEDS, QUICK_MATRIX_SLOTS,
};
