//! Checkpoint/restore of the slot lifecycle, plus the per-slot engine
//! state hash.
//!
//! A [`SlotStepper`] freezes and thaws only at a **slot boundary** (the
//! `AwaitingAdvance` phase): mid-slot there is live borrowed observation
//! state and half-consumed RNG draws, and a checkpoint there could not be
//! restored bit-identically. The checkpoint serializes exactly the state
//! that is *not* a pure function of the scenario configuration:
//!
//! | section      | contents                                             |
//! |--------------|------------------------------------------------------|
//! | `stepper`    | engine RNG state, green-controller flag              |
//! | `assignment` | the standing VM → DC placement                       |
//! | `fleet`      | full fleet position (delegated to the workload crate)|
//! | `dcs`        | per-DC battery charge, energy ledgers, forecaster    |
//! | `report`     | the accumulated hourly/response/per-DC series        |
//!
//! Everything else — executors, samplers, power models, the
//! `EngineScratch` buffers, the CPU-correlation and traffic caches — is
//! rebuilt: the next `advance_world` resolves the slot's event factors
//! from the configuration's timeline, the scratch's previous-slot
//! `actual` windows are re-materialized from the restored traces, and
//! the traffic CSR is rebuilt from the restored pair set, which the next
//! `advance_world` then maintains incrementally exactly as the
//! uninterrupted run would have.

use super::{Phase, SlotStepper};
use crate::config::ScenarioConfig;
use crate::metrics::HourlyRecord;
use geoplace_types::hash::Fnv64;
use geoplace_types::snap::{Checkpoint, SnapWriter, Snapshot};
use geoplace_types::time::TimeSlot;
use geoplace_types::units::Joules;
use geoplace_types::{DcId, Error, Parallelism, Result, VmId};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

impl SlotStepper {
    /// FNV-1a fingerprint of the scenario configuration: its `Debug`
    /// rendering with `parallelism` held at its default. The thread count
    /// changes no result (the executor's determinism contract), so a
    /// checkpoint written at one thread count restores at any other; it
    /// only restores onto a stepper whose config otherwise fingerprints
    /// identically. The rendering covers the `ScenarioConfig` type
    /// itself, so a build that adds, removes or renames a field also
    /// changes every fingerprint.
    pub fn config_fingerprint(&self) -> u64 {
        let config = ScenarioConfig {
            parallelism: Parallelism::default(),
            ..self.scenario.config.clone()
        };
        geoplace_types::snap::fingerprint_str(&format!("{config:?}"))
    }

    /// Cheap deterministic hash of the live engine state at the current
    /// boundary: the next slot index, the engine RNG, the standing
    /// assignment, per-DC battery/ledger/forecaster state and the fleet
    /// position. O(assignment + fleet history) per call and independent
    /// of thread count, so a resumed run converging on the uninterrupted
    /// one is visible hash-by-hash (this is the value stamped into
    /// [`SlotMetrics::state_hash`](super::SlotMetrics::state_hash)).
    pub fn state_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u32(self.next_slot);
        for word in self.rng.state() {
            h.write_u64(word);
        }
        h.write_u32(u32::from(self.green.disable_arbitrage));
        h.write_u64(self.assignment.len() as u64);
        for (&vm, &dc) in &self.assignment {
            h.write_u32(vm.0);
            h.write_u32(u32::from(dc.0));
        }
        for dc in &self.scenario.dcs {
            h.write_f64(dc.battery.state_of_charge().0);
            h.write_f64(dc.last_it_energy.0);
            h.write_f64(dc.last_total_energy.0);
            h.write_u64(dc.forecaster.recorded_days() as u64);
        }
        h.write_u64(self.scenario.fleet.state_fingerprint());
        h.finish()
    }

    /// Freezes the engine state into a [`Checkpoint`] container.
    ///
    /// The container carries the config fingerprint, the boundary slot
    /// and the state hash in its header, plus the five engine sections.
    /// Drivers that also own policy state (the serve session, the
    /// checkpointing run loop) append their own `policy` section — see
    /// [`crate::checkpoint::checkpoint_with_policy`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a slot is mid-flight
    /// (advanced but not yet applied): checkpoints exist only at slot
    /// boundaries.
    pub fn checkpoint(&self) -> Result<Checkpoint> {
        if self.phase != Phase::AwaitingAdvance {
            return Err(Error::invalid_config(format!(
                "cannot checkpoint mid-slot: slot {} awaits its decision, apply it first",
                self.next_slot
            )));
        }
        let mut ck = Checkpoint::new(self.config_fingerprint(), self.next_slot, self.state_hash());

        let mut w = SnapWriter::new();
        for word in self.rng.state() {
            w.write_u64(word);
        }
        w.write_bool(self.green.disable_arbitrage);
        ck.add_section("stepper", w.into_bytes());

        let mut w = SnapWriter::new();
        w.write_u32(self.assignment.len() as u32);
        for (&vm, &dc) in &self.assignment {
            w.write_u32(vm.0);
            w.write_u32(u32::from(dc.0));
        }
        ck.add_section("assignment", w.into_bytes());

        let mut w = SnapWriter::new();
        self.scenario.fleet.save_state(&mut w);
        ck.add_section("fleet", w.into_bytes());

        let mut w = SnapWriter::new();
        w.write_u32(self.scenario.dcs.len() as u32);
        for dc in &self.scenario.dcs {
            w.write_f64(dc.battery.state_of_charge().0);
            w.write_f64(dc.last_it_energy.0);
            w.write_f64(dc.last_total_energy.0);
            dc.forecaster.save_state(&mut w);
        }
        ck.add_section("dcs", w.into_bytes());

        let mut w = SnapWriter::new();
        w.write_str(&self.report.policy);
        w.write_u32(self.report.hourly.len() as u32);
        for h in &self.report.hourly {
            w.write_u32(h.slot);
            w.write_f64(h.cost_eur);
            w.write_f64(h.it_energy_j);
            w.write_f64(h.total_energy_j);
            w.write_f64(h.grid_energy_j);
            w.write_f64(h.pv_used_j);
            w.write_f64(h.pv_curtailed_j);
            w.write_f64(h.battery_discharge_j);
            w.write_u32(h.migrations);
            w.write_f64(h.migration_volume_gb);
            w.write_u32(h.migration_overruns);
            w.write_f64(h.response_worst_s);
            w.write_f64(h.response_mean_s);
            w.write_u32(h.active_servers);
            w.write_u32(h.active_vms);
        }
        w.write_u32(self.report.response_samples.len() as u32);
        for &s in &self.report.response_samples {
            w.write_f64(s);
        }
        w.write_u32(self.report.per_dc_energy_gj.len() as u32);
        for &e in &self.report.per_dc_energy_gj {
            w.write_f64(e);
        }
        ck.add_section("report", w.into_bytes());

        Ok(ck)
    }

    /// Restores the engine state from a [`Checkpoint`] in place, leaving
    /// the stepper at the checkpoint's slot boundary ready for
    /// `advance_world`. The stepper must have been built from the *same*
    /// scenario configuration; the config fingerprint enforces that.
    ///
    /// Unknown extra sections (e.g. `policy`) are ignored — the caller
    /// that wrote them restores them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] naming the failing section and byte
    /// offset on a fingerprint mismatch, an out-of-horizon slot, a
    /// missing section or any malformed payload. On error the stepper may
    /// be partially overwritten and must not be resumed — restore into a
    /// fresh stepper instead.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<()> {
        let fingerprint = self.config_fingerprint();
        if ck.config_fingerprint != fingerprint {
            return Err(Error::snapshot(
                "header",
                8,
                format!(
                    "config fingerprint {:#018x} does not match this stepper's {fingerprint:#018x}: \
                     the checkpoint was taken in another scenario, or by a build whose \
                     ScenarioConfig differs from this one",
                    ck.config_fingerprint
                ),
            ));
        }
        if ck.slot > self.horizon() {
            return Err(Error::snapshot(
                "header",
                16,
                format!(
                    "checkpoint slot {} is past the {}-slot horizon",
                    ck.slot,
                    self.horizon()
                ),
            ));
        }

        let mut r = ck.section("stepper")?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.read_u64()?;
        }
        let disable_arbitrage = r.read_bool()?;
        r.finish()?;

        let mut r = ck.section("assignment")?;
        let n_dcs = self.scenario.dcs.len();
        let count = r.read_u32()? as usize;
        let mut assignment = BTreeMap::new();
        let mut prev: Option<VmId> = None;
        for _ in 0..count {
            let at = r.offset();
            let vm = VmId(r.read_u32()?);
            let dc = r.read_u32()?;
            if prev.is_some_and(|p| p >= vm) {
                return Err(Error::snapshot(
                    "assignment",
                    at,
                    format!("assignment is not strictly sorted at VM {vm}"),
                ));
            }
            if dc as usize >= n_dcs {
                return Err(Error::snapshot(
                    "assignment",
                    at,
                    format!("VM {vm} is assigned to DC {dc} but the scenario has {n_dcs} DCs"),
                ));
            }
            prev = Some(vm);
            assignment.insert(vm, DcId(dc as u16));
        }
        r.finish()?;

        let mut r = ck.section("fleet")?;
        self.scenario.fleet.restore_state(&mut r)?;
        r.finish()?;

        let mut r = ck.section("dcs")?;
        let at = r.offset();
        let dc_count = r.read_u32()? as usize;
        if dc_count != n_dcs {
            return Err(Error::snapshot(
                "dcs",
                at,
                format!("checkpoint covers {dc_count} DCs but the scenario has {n_dcs}"),
            ));
        }
        for dc in &mut self.scenario.dcs {
            let soc = Joules(r.read_f64()?);
            dc.battery.restore_state_of_charge(soc);
            dc.last_it_energy = Joules(r.read_f64()?);
            dc.last_total_energy = Joules(r.read_f64()?);
            dc.forecaster.restore_state(&mut r)?;
        }
        r.finish()?;

        let mut r = ck.section("report")?;
        self.report.policy = r.read_str()?;
        let hours = r.read_u32()? as usize;
        self.report.hourly.clear();
        for _ in 0..hours {
            self.report.hourly.push(HourlyRecord {
                slot: r.read_u32()?,
                cost_eur: r.read_f64()?,
                it_energy_j: r.read_f64()?,
                total_energy_j: r.read_f64()?,
                grid_energy_j: r.read_f64()?,
                pv_used_j: r.read_f64()?,
                pv_curtailed_j: r.read_f64()?,
                battery_discharge_j: r.read_f64()?,
                migrations: r.read_u32()?,
                migration_volume_gb: r.read_f64()?,
                migration_overruns: r.read_u32()?,
                response_worst_s: r.read_f64()?,
                response_mean_s: r.read_f64()?,
                active_servers: r.read_u32()?,
                active_vms: r.read_u32()?,
            });
        }
        let samples = r.read_u32()? as usize;
        self.report.response_samples.clear();
        for _ in 0..samples {
            self.report.response_samples.push(r.read_f64()?);
        }
        let at = r.offset();
        let per_dc = r.read_u32()? as usize;
        if per_dc != n_dcs {
            return Err(Error::snapshot(
                "report",
                at,
                format!("per-DC energy vector covers {per_dc} DCs but the scenario has {n_dcs}"),
            ));
        }
        for slot in &mut self.report.per_dc_energy_gj {
            *slot = r.read_f64()?;
        }
        r.finish()?;

        // Commit the scalar state and drop everything the next advance
        // rebuilds.
        self.rng = StdRng::from_state(state);
        self.green.disable_arbitrage = disable_arbitrage;
        self.assignment = assignment;
        self.next_slot = ck.slot;
        self.phase = Phase::AwaitingAdvance;
        self.cpu_corr = None;
        self.dc_infos = Vec::new();

        // Re-materialize the previous slot's *actual* windows: the next
        // advance swaps them into the observed buffer, so they must hold
        // exactly what the uninterrupted run left there (the traces are
        // pure functions of (VM, slot), so this is bit-identical). The
        // traffic CSR is rebuilt from the restored pair set and then
        // delta-maintained as usual.
        if ck.slot > 0 {
            self.scenario
                .fleet
                .windows_into(TimeSlot(ck.slot - 1), &mut self.scratch.actual);
        }
        self.scratch
            .traffic
            .rebuild(self.scenario.fleet.data_correlation());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scenario;
    use crate::policy::GlobalPolicy;
    use crate::testkit::{assert_observation_matches_rebuild, tiny_config, RoundRobinDcs};
    use geoplace_workload::source::SyntheticSource;

    fn run_to(slot: u32) -> SlotStepper {
        run_config_to(&tiny_config(), slot)
    }

    fn run_config_to(config: &ScenarioConfig, slot: u32) -> SlotStepper {
        let mut stepper = SlotStepper::new(Scenario::build(config).unwrap());
        let mut policy = RoundRobinDcs;
        let mut source = SyntheticSource;
        for _ in 0..slot {
            stepper.advance_world(&mut source).unwrap();
            assert_observation_matches_rebuild(&stepper);
            let decision = policy.decide(&stepper.observe());
            stepper.apply(decision).unwrap();
        }
        stepper
    }

    fn finish(mut stepper: SlotStepper) -> (Vec<u64>, String) {
        let mut policy = RoundRobinDcs;
        let mut source = SyntheticSource;
        let mut hashes = Vec::new();
        while !stepper.is_done() {
            stepper.advance_world(&mut source).unwrap();
            assert_observation_matches_rebuild(&stepper);
            let decision = policy.decide(&stepper.observe());
            hashes.push(stepper.apply(decision).unwrap().state_hash);
        }
        (hashes, stepper.into_report(policy.name()).digest())
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let (reference_hashes, reference_digest) = finish(run_to(0));
        let interrupted = run_to(2);
        let ck = interrupted.checkpoint().unwrap();
        assert_eq!(ck.slot, 2);
        assert_eq!(ck.state_hash, interrupted.state_hash());

        // Fresh process state: a brand-new stepper over a rebuilt world.
        let mut resumed = SlotStepper::new(Scenario::build(&tiny_config()).unwrap());
        resumed
            .restore(&Checkpoint::decode(&ck.encode()).unwrap())
            .unwrap();
        assert_eq!(resumed.completed_slots(), 2);
        assert_eq!(resumed.state_hash(), ck.state_hash);
        let (tail_hashes, resumed_digest) = finish(resumed);
        assert_eq!(resumed_digest, reference_digest);
        assert_eq!(tail_hashes[..], reference_hashes[2..]);
    }

    #[test]
    fn a_checkpoint_restores_at_any_thread_count() {
        let at = |threads| ScenarioConfig {
            parallelism: Parallelism::Threads(threads),
            ..tiny_config()
        };
        let (reference_hashes, reference_digest) = finish(run_config_to(&at(1), 0));
        let ck = run_config_to(&at(2), 2).checkpoint().unwrap();
        let mut resumed = SlotStepper::new(Scenario::build(&at(1)).unwrap());
        resumed
            .restore(&Checkpoint::decode(&ck.encode()).unwrap())
            .unwrap();
        let (tail_hashes, resumed_digest) = finish(resumed);
        assert_eq!(resumed_digest, reference_digest);
        assert_eq!(tail_hashes[..], reference_hashes[2..]);
    }

    #[test]
    fn checkpoint_mid_slot_is_rejected() {
        let mut stepper = run_to(1);
        stepper.advance_world(&mut SyntheticSource).unwrap();
        let err = stepper.checkpoint().unwrap_err().to_string();
        assert!(err.contains("mid-slot"), "{err}");
    }

    #[test]
    fn restore_rejects_a_different_config() {
        let stepper = run_to(1);
        let ck = stepper.checkpoint().unwrap();
        let mut other_config = tiny_config();
        other_config.seed ^= 1;
        let mut other = SlotStepper::new(Scenario::build(&other_config).unwrap());
        let err = other.restore(&ck).unwrap_err().to_string();
        assert!(err.contains("fingerprint"), "{err}");
        assert!(err.contains("another scenario"), "{err}");
        assert!(err.contains("build whose ScenarioConfig differs"), "{err}");
    }

    #[test]
    fn restore_rejects_a_truncated_section() {
        let stepper = run_to(1);
        let ck = stepper.checkpoint().unwrap();
        let mut truncated = Checkpoint::new(ck.config_fingerprint, ck.slot, ck.state_hash);
        for (name, payload) in ck.sections() {
            let cut = payload.len().saturating_sub(3);
            truncated.add_section(name, payload[..cut].to_vec());
        }
        let mut fresh = SlotStepper::new(Scenario::build(&tiny_config()).unwrap());
        let err = fresh.restore(&truncated).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("snapshot section"), "{msg}");
    }

    #[test]
    fn state_hash_is_thread_invariant() {
        let run = |threads| {
            let mut config = tiny_config();
            config.parallelism = Parallelism::Threads(threads);
            let mut stepper = SlotStepper::new(Scenario::build(&config).unwrap());
            let mut policy = RoundRobinDcs;
            let mut hashes = Vec::new();
            while !stepper.is_done() {
                stepper.advance_world(&mut SyntheticSource).unwrap();
                assert_observation_matches_rebuild(&stepper);
                let decision = policy.decide(&stepper.observe());
                hashes.push(stepper.apply(decision).unwrap().state_hash);
            }
            hashes
        };
        assert_eq!(run(8), run(1));
    }

    #[test]
    fn checkpoint_save_load_save_is_byte_identical() {
        let stepper = run_to(3);
        let bytes = stepper.checkpoint().unwrap().encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap().encode(), bytes);
    }
}
