//! Golden-report regression matrix (tier-1 gate).
//!
//! `tests/golden/digests.tsv` commits one canonical report digest per
//! (scenario preset, policy, seed) cell of the quick matrix — the bench
//! fleet at [`QUICK_MATRIX_SLOTS`] slots, seeds [`QUICK_MATRIX_SEEDS`].
//! This test recomputes the seed-42 rows (every preset × every policy)
//! and fails on any drift; the CI `scenario_matrix --quick --check` job
//! re-verifies the *full* file, including seed 41 and thread-count
//! invariance.
//!
//! **Regenerating after an intentional behavior change:**
//!
//! ```text
//! cargo run --release --bin scenario_matrix -- --quick --update
//! ```
//!
//! This test and the matrix share `quick_matrix_config` and the
//! canonical row format, so the regenerated file is the one this test
//! checks. Commit the rewritten `digests.tsv` together with the change
//! that moved the numbers, and say why in the PR.

use geoplace_bench::scenario::{
    golden_digests_path, golden_row, parse_golden_file, quick_matrix_config, run_policy,
    PolicyKind, QUICK_MATRIX_SEEDS,
};

/// Recomputes the digest rows for the given seeds, in registry order.
fn compute_rows(seeds: &[u64]) -> Vec<String> {
    let mut rows = Vec::new();
    for spec in geoplace_scenarios::registry() {
        for &seed in seeds {
            let config = quick_matrix_config(&spec, seed);
            for policy in PolicyKind::ALL {
                let digest = run_policy(&config, policy).digest();
                rows.push(golden_row(spec.name, policy, seed, &digest));
            }
        }
    }
    rows
}

#[test]
fn golden_digests_match_the_committed_matrix() {
    let committed = std::fs::read_to_string(golden_digests_path()).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nGenerate the goldens first: cargo run --release --bin \
             scenario_matrix -- --quick --update",
            golden_digests_path().display()
        )
    });
    let golden = parse_golden_file(&committed);

    // The committed file must cover the full quick matrix: every
    // preset × policy × seed, nothing extra.
    let expected_cells =
        geoplace_scenarios::registry().len() * PolicyKind::ALL.len() * QUICK_MATRIX_SEEDS.len();
    assert_eq!(
        golden.len(),
        expected_cells,
        "golden file has {} rows, the quick matrix has {expected_cells} cells — regenerate \
         with `scenario_matrix -- --quick --update`",
        golden.len()
    );

    // Tier-1 recomputes the seed-42 slice; CI covers the rest.
    let mut drifted = Vec::new();
    for row in compute_rows(&[42]) {
        let (key, digest) = row.rsplit_once('\t').unwrap();
        match golden.get(key) {
            Some(expected) if expected == digest => {}
            Some(expected) => {
                drifted.push(format!("{key}: committed {expected}, recomputed {digest}"))
            }
            None => drifted.push(format!("{key}: missing from the golden file")),
        }
    }
    assert!(
        drifted.is_empty(),
        "golden digests drifted (intentional? regenerate with \
         `scenario_matrix -- --quick --update`):\n{}",
        drifted.join("\n")
    );
}
