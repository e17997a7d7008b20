//! Versioned checkpoint/resume for whole runs.
//!
//! The [`SlotStepper`] knows how to snapshot *engine* state
//! (`SlotStepper::checkpoint` / `restore`); this module layers the two
//! remaining pieces on top:
//!
//! * **policy state** — [`checkpoint_with_policy`] adds a `policy`
//!   section carrying the policy's name and its
//!   [`GlobalPolicy::save_state`] payload, and [`restore_with_policy`]
//!   verifies the name and replays the payload, so a stateful policy
//!   (the paper's force-layout warm start) resumes bit-identically;
//! * **file I/O** — [`write_file`] / [`read_file`] move encoded
//!   checkpoints to and from disk under [`checkpoint_path`]'s names.
//!   The loop that drops a `.gpck` file every N completed slots is the
//!   serve session's (`geoplace-serve --checkpoint-every N`).
//!
//! This is the **only** module in the engine crates allowed to touch
//! `std::fs` (audit rule D3): everything below it speaks `&[u8]`, so the
//! simulation core stays I/O-free and the codec stays testable without a
//! filesystem.
//!
//! # Guarantees
//!
//! * A checkpoint is only taken at a slot boundary; restoring it and
//!   re-running the tail reproduces the uninterrupted run's report — and
//!   its per-slot [`state_hash`](crate::stepper::SlotMetrics::state_hash)
//!   stream — bit for bit, at any thread count.
//! * The header's state hash is [`SlotStepper::state_hash`] at the
//!   boundary: FNV-1a over the slot and the bytes of the `stepper`,
//!   `assignment`, `fleet` and `dcs` sections that follow it.
//! * `decode(encode(ck))` then `encode` again is byte-identical.
//! * Every decode error names the offending section and byte offset.

use crate::policy::GlobalPolicy;
use crate::stepper::SlotStepper;
use geoplace_types::snap::{Checkpoint, SnapWriter};
use geoplace_types::{Error, Result};
use std::path::{Path, PathBuf};

/// Snapshots the stepper *and* the policy driving it.
///
/// Extends [`SlotStepper::checkpoint`] with a `policy` section:
/// the policy's [`name`](GlobalPolicy::name) (so a restore under a
/// different policy is rejected loudly) followed by its
/// [`save_state`](GlobalPolicy::save_state) payload.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the stepper sits mid-slot
/// (between `advance_world` and `apply`).
pub fn checkpoint_with_policy<P: GlobalPolicy + ?Sized>(
    stepper: &SlotStepper,
    policy: &P,
) -> Result<Checkpoint> {
    let mut ck = stepper.checkpoint()?;
    let mut w = SnapWriter::new();
    w.write_str(policy.name());
    policy.save_state(&mut w);
    ck.add_section("policy", w.into_bytes());
    Ok(ck)
}

/// Restores stepper and policy from a checkpoint taken by
/// [`checkpoint_with_policy`].
///
/// Both must be *freshly constructed* from the same configuration the
/// checkpoint was taken under; on error either may be left partially
/// overwritten — discard them and retry into fresh ones.
///
/// # Errors
///
/// Everything [`SlotStepper::restore`] rejects, plus
/// [`Error::Snapshot`] when the `policy` section is missing, names a
/// different policy, or its payload is malformed.
pub fn restore_with_policy<P: GlobalPolicy + ?Sized>(
    stepper: &mut SlotStepper,
    policy: &mut P,
    ck: &Checkpoint,
) -> Result<()> {
    // Validate the policy section *before* mutating anything, so a
    // wrong-policy restore leaves both halves untouched.
    let mut r = ck.section("policy").map_err(|_| {
        Error::snapshot(
            "policy",
            0,
            "checkpoint has no policy section (taken with SlotStepper::checkpoint, \
             not checkpoint_with_policy?)",
        )
    })?;
    let stored = r.read_str()?;
    if stored != policy.name() {
        return Err(Error::snapshot(
            "policy",
            0,
            format!(
                "checkpoint was taken under policy {stored:?}, not {:?}",
                policy.name()
            ),
        ));
    }
    stepper.restore(ck)?;
    policy.restore_state(&mut r)?;
    r.finish()
}

/// The canonical checkpoint file name for a slot boundary:
/// `ckpt_slot00042.gpck` under `dir`.
pub fn checkpoint_path(dir: &Path, slot: u32) -> PathBuf {
    dir.join(format!("ckpt_slot{slot:05}.gpck"))
}

/// Encodes `ck` and writes it to `path` atomically enough for our use:
/// a temp file in the same directory, then a rename.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] naming the path on any I/O failure.
pub fn write_file(ck: &Checkpoint, path: &Path) -> Result<()> {
    let bytes = ck.encode();
    let tmp = path.with_extension("gpck.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| {
        Error::invalid_config(format!("cannot write checkpoint {}: {e}", tmp.display()))
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        Error::invalid_config(format!(
            "cannot move checkpoint into place at {}: {e}",
            path.display()
        ))
    })
}

/// Reads and decodes a checkpoint file.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] naming the path when the file cannot
/// be read, and [`Error::Snapshot`] when its bytes are malformed.
pub fn read_file(path: &Path) -> Result<Checkpoint> {
    let bytes = std::fs::read(path).map_err(|e| {
        Error::invalid_config(format!("cannot read checkpoint {}: {e}", path.display()))
    })?;
    Checkpoint::decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::Scenario;
    use crate::metrics::SimulationReport;
    use crate::testkit::{tiny_config, RoundRobinDcs};
    use geoplace_workload::source::SyntheticSource;

    fn stepper_for(config: &ScenarioConfig) -> SlotStepper {
        SlotStepper::new(Scenario::build(config).unwrap())
    }

    /// Drives `stepper` under `policy` until `slots` slots are complete.
    fn run_until(stepper: &mut SlotStepper, policy: &mut RoundRobinDcs, slots: u32) {
        while stepper.completed_slots() < slots {
            stepper.advance_world(&mut SyntheticSource).unwrap();
            let decision = policy.decide(&stepper.observe());
            stepper.apply(decision).unwrap();
        }
    }

    fn finish(mut stepper: SlotStepper, mut policy: RoundRobinDcs) -> SimulationReport {
        let horizon = stepper.horizon();
        run_until(&mut stepper, &mut policy, horizon);
        stepper.into_report(policy.name())
    }

    #[test]
    fn a_written_checkpoint_resumes_to_the_same_digest() {
        let config = tiny_config();
        let dir = std::env::temp_dir().join("geoplace_ckpt_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, 2);
        let mut stepper = stepper_for(&config);
        let mut policy = RoundRobinDcs;
        run_until(&mut stepper, &mut policy, 2);
        write_file(&checkpoint_with_policy(&stepper, &policy).unwrap(), &path).unwrap();
        let reference = finish(stepper, policy);

        let ck = read_file(&path).unwrap();
        let mut stepper = stepper_for(&config);
        let mut policy = RoundRobinDcs;
        restore_with_policy(&mut stepper, &mut policy, &ck).unwrap();
        assert_eq!(finish(stepper, policy).digest(), reference.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_under_the_wrong_policy_is_rejected_by_name() {
        let config = tiny_config();
        let mut stepper = stepper_for(&config);
        let mut policy = RoundRobinDcs;
        run_until(&mut stepper, &mut policy, 1);
        let ck = checkpoint_with_policy(&stepper, &policy).unwrap();
        let mut fresh = stepper_for(&config);
        let mut other = crate::testkit::AllOnFirstDc;
        let err = restore_with_policy(&mut fresh, &mut other, &ck).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("round-robin"), "{msg}");
        assert!(msg.contains("all-on-dc0"), "{msg}");
    }

    #[test]
    fn a_policy_free_checkpoint_is_rejected_with_a_hint() {
        let config = tiny_config();
        let stepper = stepper_for(&config);
        let ck = stepper.checkpoint().unwrap();
        let mut fresh = stepper_for(&config);
        let err = restore_with_policy(&mut fresh, &mut RoundRobinDcs, &ck).unwrap_err();
        assert!(err.to_string().contains("no policy section"), "{err}");
    }

    #[test]
    fn unwritable_directory_names_the_path() {
        let ck = checkpoint_with_policy(&stepper_for(&tiny_config()), &RoundRobinDcs).unwrap();
        let path = checkpoint_path(Path::new("/proc/definitely/not/writable"), 0);
        let err = write_file(&ck, &path).unwrap_err();
        assert!(err.to_string().contains("/proc/definitely"), "{err}");
    }
}
