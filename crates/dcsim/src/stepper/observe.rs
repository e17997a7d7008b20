//! Phase 2 of the slot lifecycle: assemble the borrowed system snapshot.

use super::SlotStepper;
use crate::snapshot::SystemSnapshot;

impl SlotStepper {
    /// Assembles the advanced slot's [`SystemSnapshot`] — every field a
    /// borrow of the stepper's own state, nothing computed, no RNG
    /// consumed. Calling it any number of times between an advance and
    /// its apply yields the same view, which is what lets a service
    /// answer `get_state` queries mid-slot without perturbing the run.
    ///
    /// # Panics
    ///
    /// Panics when no slot is awaiting a decision — observing before
    /// [`SlotStepper::advance_world`] (or after
    /// [`SlotStepper::apply`]) is a driver sequencing bug. Drivers that
    /// must not panic check [`SlotStepper::awaiting_decision`] first.
    pub fn observe(&self) -> SystemSnapshot<'_> {
        assert!(
            self.awaiting_decision(),
            "observe called with no slot awaiting a decision — advance_world first"
        );
        SystemSnapshot {
            slot: self.current_slot(),
            windows: &self.scratch.observed,
            arena: &self.scratch.arena,
            vm_cores: &self.scratch.vm_cores,
            vm_memory: &self.scratch.vm_memory,
            cpu_corr: self
                .cpu_corr
                .as_ref()
                .expect("correlation is computed by every advance"),
            traffic: self.scratch.traffic.graph(),
            data: self.scenario.fleet.data_correlation(),
            prev_dc: &self.assignment,
            dcs: &self.dc_infos,
            latency: &self.scenario.latency,
            migration_budget: self.budget,
            exec: self.exec,
        }
    }
}
