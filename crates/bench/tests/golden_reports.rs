//! Golden-report regression matrix (tier-1 gate).
//!
//! Two committed files hold one canonical report digest per cell:
//!
//! * `tests/golden/digests.tsv` — every (scenario preset, policy, seed)
//!   cell of the quick matrix: the bench fleet at [`QUICK_MATRIX_SLOTS`]
//!   slots, seeds [`QUICK_MATRIX_SEEDS`]. Below the dense crossover, so
//!   its correlation rows are exact.
//! * `tests/golden/digests_screened.tsv` — the screened tier
//!   ([`screened_cells`]): Proposed on the same cells with
//!   `dense_crossover = 0`, plus the paper world at full scale for 3
//!   slots. It pins the top-k screen, the far-field baseline and the
//!   layout's grid far field.
//!
//! These tests recompute the seed-42 rows of both files and fail on any
//! drift; the CI `scenario_matrix --quick --check` job re-verifies both
//! *full* files, including seed 41 and thread-count invariance.
//!
//! **Regenerating after an intentional behavior change:**
//!
//! ```text
//! cargo run --release --bin scenario_matrix -- --quick --update
//! ```
//!
//! This test and the matrix share `quick_matrix_config` and the
//! canonical row format, so the regenerated file is the one this test
//! checks. Commit the rewritten files together with the change that
//! moved the numbers, and say why in the PR.

use geoplace_bench::scenario::{
    golden_digests_path, golden_row, parse_golden_file, quick_matrix_config, run_policy,
    screened_cells, screened_digests_path, PolicyKind, QUICK_MATRIX_SEEDS,
};
use std::path::Path;

/// Reads the committed golden file at `path`, asserts it holds
/// `expected_cells` rows, and asserts every recomputed row matches it.
fn assert_matches_committed(path: &Path, expected_cells: usize, rows: Vec<String>) {
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nGenerate the goldens first: cargo run --release --bin \
             scenario_matrix -- --quick --update",
            path.display()
        )
    });
    let golden = parse_golden_file(&committed);

    // The committed file must cover its full tier, nothing extra.
    assert_eq!(
        golden.len(),
        expected_cells,
        "{} has {} rows, its tier has {expected_cells} cells — regenerate \
         with `scenario_matrix -- --quick --update`",
        path.display(),
        golden.len()
    );

    let mut drifted = Vec::new();
    for row in rows {
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
        "{} drifted (intentional? regenerate with \
         `scenario_matrix -- --quick --update`):\n{}",
        path.display(),
        drifted.join("\n")
    );
}

#[test]
fn golden_digests_match_the_committed_matrix() {
    let registry = geoplace_scenarios::registry();
    let expected_cells = registry.len() * PolicyKind::ALL.len() * QUICK_MATRIX_SEEDS.len();
    // Tier-1 recomputes the seed-42 slice; CI covers the rest.
    let mut rows = Vec::new();
    for spec in &registry {
        let config = quick_matrix_config(spec, 42);
        for policy in PolicyKind::ALL {
            let digest = run_policy(&config, policy).digest();
            rows.push(golden_row(spec.name, policy, 42, &digest));
        }
    }
    assert_matches_committed(&golden_digests_path(), expected_cells, rows);
}

#[test]
fn screened_digests_match_the_committed_tier() {
    let registry = geoplace_scenarios::registry();
    // Every preset per seed, plus the paper-scale cell.
    let expected_cells = registry.len() * QUICK_MATRIX_SEEDS.len() + 1;
    let rows = screened_cells(&registry, &[42])
        .into_iter()
        .map(|cell| {
            let digest = run_policy(&cell.config, PolicyKind::Proposed).digest();
            golden_row(cell.world, PolicyKind::Proposed, cell.seed, &digest)
        })
        .collect();
    assert_matches_committed(&screened_digests_path(), expected_cells, rows);
}
