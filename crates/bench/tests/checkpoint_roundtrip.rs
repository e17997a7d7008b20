//! Checkpoint/resume acceptance over the full golden matrix (tier-1).
//!
//! For every cell of the committed quick matrix — all presets ×
//! [`PolicyKind::ALL`] × seeds {41, 42}, 64 cells — the run is frozen
//! at mid-horizon, the snapshot round-trips through the codec (with
//! save→load→save byte identity asserted), and a **fresh** world +
//! policy restored from it finishes the horizon. The resumed digest
//! must equal the committed golden digest bit-for-bit: a checkpoint is
//! only correct if resuming from it is indistinguishable from never
//! having stopped.
//!
//! The kernel thread count {1, 2, 8} cycles deterministically across
//! cells, so every thread count is exercised against multiple presets
//! without multiplying the runtime by three. Every slot, the first one
//! after the restore included, checks the observation against a
//! from-scratch rebuild. A separate focused test pins the per-slot
//! state-hash convergence contract: identical hashes at every boundary
//! across all three thread counts.

use geoplace_bench::scenario::{
    golden_digests_path, parse_golden_file, policy_for, quick_matrix_config, PolicyKind,
    QUICK_MATRIX_SEEDS, QUICK_MATRIX_SLOTS,
};
use geoplace_dcsim::checkpoint::{checkpoint_with_policy, restore_with_policy};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::engine::Scenario;
use geoplace_dcsim::stepper::SlotStepper;
use geoplace_dcsim::testkit::assert_observation_matches_rebuild;
use geoplace_types::snap::Checkpoint;
use geoplace_types::Parallelism;
use geoplace_workload::source::SyntheticSource;

fn fresh_stepper(config: &ScenarioConfig) -> SlotStepper {
    SlotStepper::new(Scenario::build(config).expect("golden config must be valid"))
}

/// Runs `config` with `kind`, interrupting at `ck_slot`: freeze,
/// codec round-trip (byte identity asserted), restore into fresh
/// state, finish. Returns the resumed report's digest.
fn resumed_digest(config: &ScenarioConfig, kind: PolicyKind, ck_slot: u32, cell: &str) -> String {
    let mut stepper = fresh_stepper(config);
    let mut policy = policy_for(config, kind);
    let mut source = SyntheticSource;
    for _ in 0..ck_slot {
        stepper.advance_world(&mut source).expect(cell);
        assert_observation_matches_rebuild(&stepper);
        let d = policy.decide(&stepper.observe());
        stepper.apply(d).expect(cell);
    }
    let ck = checkpoint_with_policy(&stepper, &*policy).expect(cell);

    // save → load → save must be byte-identical: the codec admits
    // exactly one encoding per state.
    let bytes = ck.encode();
    let ck = Checkpoint::decode(&bytes).expect(cell);
    assert_eq!(
        ck.encode(),
        bytes,
        "{cell}: decode→encode is not byte-identical"
    );

    let mut resumed = fresh_stepper(config);
    let mut fresh = policy_for(config, kind);
    restore_with_policy(&mut resumed, &mut *fresh, &ck).expect(cell);
    while !resumed.is_done() {
        resumed.advance_world(&mut source).expect(cell);
        assert_observation_matches_rebuild(&resumed);
        let d = fresh.decide(&resumed.observe());
        resumed.apply(d).expect(cell);
    }
    resumed.into_report(fresh.name()).digest()
}

#[test]
fn every_golden_cell_resumes_to_its_committed_digest() {
    let committed = std::fs::read_to_string(golden_digests_path()).unwrap_or_else(|e| {
        panic!("{}: {e}", golden_digests_path().display());
    });
    let golden = parse_golden_file(&committed);

    let mut drifted = Vec::new();
    let mut cell_index = 0usize;
    for spec in geoplace_scenarios::registry() {
        for &seed in &QUICK_MATRIX_SEEDS {
            for policy in PolicyKind::ALL {
                // Cycle the thread count deterministically across cells.
                let threads = [1usize, 2, 8][cell_index % 3];
                cell_index += 1;

                let mut config = quick_matrix_config(&spec, seed);
                config.parallelism = Parallelism::Threads(threads);
                let cell = format!(
                    "{}/{}/seed {seed} ({threads} threads)",
                    spec.name,
                    policy.name()
                );
                let digest = resumed_digest(&config, policy, QUICK_MATRIX_SLOTS / 2, &cell);

                let key = format!("{}\t{}\t{seed}", spec.name, policy.name());
                match golden.get(key.as_str()) {
                    Some(expected) if *expected == digest => {}
                    Some(expected) => drifted.push(format!(
                        "{cell}: committed {expected}, resumed run produced {digest}"
                    )),
                    None => drifted.push(format!("{cell}: missing from the golden file")),
                }
            }
        }
    }
    assert_eq!(
        cell_index, 64,
        "the quick matrix is expected to be 64 cells"
    );
    assert!(
        drifted.is_empty(),
        "checkpoint/resume diverged from the uninterrupted goldens:\n{}",
        drifted.join("\n")
    );
}

/// The state-hash convergence contract: the per-slot hash is a function
/// of the simulated state alone, so every thread count must produce
/// the identical hash sequence.
#[test]
fn per_slot_state_hashes_are_thread_invariant() {
    let spec = geoplace_scenarios::registry()
        .into_iter()
        .next()
        .expect("non-empty registry");
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 8] {
        let mut config = quick_matrix_config(&spec, 42);
        config.parallelism = Parallelism::Threads(threads);
        let mut stepper = fresh_stepper(&config);
        let mut policy = policy_for(&config, PolicyKind::Proposed);
        let mut source = SyntheticSource;
        let mut hashes = Vec::new();
        while !stepper.is_done() {
            stepper.advance_world(&mut source).expect("advance");
            assert_observation_matches_rebuild(&stepper);
            let d = policy.decide(&stepper.observe());
            hashes.push(stepper.apply(d).expect("apply").state_hash);
        }
        match &reference {
            None => reference = Some(hashes),
            Some(expected) => assert_eq!(
                &hashes, expected,
                "state hashes diverged at {threads} threads"
            ),
        }
    }
}
