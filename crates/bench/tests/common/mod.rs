//! The checked run the integration suites share.

use geoplace_bench::scenario::{policy_for, PolicyKind};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::engine::Scenario;
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_dcsim::stepper::SlotStepper;
use geoplace_dcsim::testkit::assert_observation_matches_rebuild;
use geoplace_workload::source::SyntheticSource;

/// Runs `kind` over `config` through a hand-driven stepper with the
/// policy `run_policy` builds, so the report is bit-identical to
/// `run_policy`'s, and checks every slot's observation against a
/// from-scratch rebuild before the policy decides on it.
pub fn run_checked(config: &ScenarioConfig, kind: PolicyKind) -> SimulationReport {
    let mut stepper = SlotStepper::new(Scenario::build(config).expect("valid config"));
    let mut policy = policy_for(config, kind);
    let mut source = SyntheticSource;
    while !stepper.is_done() {
        stepper
            .advance_world(&mut source)
            .expect("synthetic advance");
        assert_observation_matches_rebuild(&stepper);
        let decision = policy.decide(&stepper.observe());
        stepper.apply(decision).expect("policy decisions are valid");
    }
    stepper.into_report(policy.name())
}
