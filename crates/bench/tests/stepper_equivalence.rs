//! Three ways of pumping the slot lifecycle — `Simulator::run`, a
//! hand-driven [`SlotStepper`] and a scripted `geoplace-serve`
//! [`Session`] — must produce bit-identical reports.
//!
//! The stepper sweep is checked against the *committed* golden digests
//! (`tests/golden/digests.tsv`), so `run ≡ stepper` holds transitively
//! through the existing golden-report test without re-running the
//! engine here; the session sweep and the proptest close the triangle
//! directly. Thread-count invariance is asserted through the stepper
//! path too — the executor contract says it may not move a digest —
//! and every stepper-driven slot checks its observation against a
//! from-scratch rebuild.

mod common;

use common::run_checked;
use geoplace_bench::json::Value;
use geoplace_bench::scenario::{
    golden_digests_path, parse_golden_file, quick_matrix_config, run_policy, PolicyKind,
};
use geoplace_bench::serve::Session;
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_types::Parallelism;
use proptest::prelude::*;

/// Drives an in-process serve session over the same world with scripted
/// protocol lines, returning the shutdown response's digest.
fn session_digest(config: &ScenarioConfig, kind: PolicyKind) -> String {
    let mut session = Session::new(config, kind, false).expect("valid config");
    for _ in 0..config.horizon_slots {
        for cmd in [r#"{"cmd":"advance"}"#, r#"{"cmd":"decide"}"#] {
            let response = session.handle_line(cmd);
            let value = Value::parse(&response.line).expect("valid JSON response");
            assert_eq!(
                value.get("ok").and_then(Value::as_bool),
                Some(true),
                "{cmd} failed: {}",
                response.line
            );
        }
    }
    let response = session.handle_line(r#"{"cmd":"shutdown"}"#);
    assert!(response.shutdown);
    Value::parse(&response.line)
        .expect("valid JSON response")
        .get("digest")
        .and_then(Value::as_str)
        .expect("shutdown carries the digest")
        .to_owned()
}

fn goldens() -> std::collections::BTreeMap<String, String> {
    let content = std::fs::read_to_string(golden_digests_path()).expect("committed golden digests");
    parse_golden_file(&content)
}

#[test]
fn stepper_reproduces_every_golden_cell_at_seed_42() {
    let goldens = goldens();
    for spec in geoplace_scenarios::registry() {
        for kind in PolicyKind::ALL {
            let config = quick_matrix_config(&spec, 42);
            let key = format!("{}\t{}\t42", spec.name, kind.name());
            let expected = goldens
                .get(&key)
                .unwrap_or_else(|| panic!("no golden {key}"));
            assert_eq!(
                &run_checked(&config, kind).digest(),
                expected,
                "stepper drifted from golden {key}"
            );
        }
    }
}

#[test]
fn serve_session_reproduces_golden_cells() {
    // Every preset under the Proposed policy, plus every policy on the
    // paper preset — enough to cover both axes without re-running the
    // whole 24-cell matrix a third time.
    let goldens = goldens();
    let mut cells: Vec<(geoplace_scenarios::WorldSpec, PolicyKind)> = Vec::new();
    for spec in geoplace_scenarios::registry() {
        cells.push((spec, PolicyKind::Proposed));
    }
    for kind in [
        PolicyKind::EnerAware,
        PolicyKind::PriAware,
        PolicyKind::NetAware,
    ] {
        cells.push((geoplace_scenarios::presets::paper(), kind));
    }
    for (spec, kind) in cells {
        let config = quick_matrix_config(&spec, 42);
        let key = format!("{}\t{}\t42", spec.name, kind.name());
        let expected = goldens
            .get(&key)
            .unwrap_or_else(|| panic!("no golden {key}"));
        assert_eq!(
            &session_digest(&config, kind),
            expected,
            "serve session drifted from golden {key}"
        );
    }
}

#[test]
fn stepper_is_thread_and_incremental_invariant() {
    // churn_storm stresses the delta path hardest (heavy arrivals and
    // departures every slot); seed 41 picks the golden row the seed-42
    // tests above never touch.
    let goldens = goldens();
    let spec = geoplace_scenarios::presets::named("churn_storm").expect("registered preset");
    let expected = goldens
        .get("churn_storm\tProposed\t41")
        .expect("golden row");
    for threads in [1usize, 2, 8] {
        let mut config = quick_matrix_config(&spec, 41);
        config.parallelism = Parallelism::Threads(threads);
        assert_eq!(
            &run_checked(&config, PolicyKind::Proposed).digest(),
            expected,
            "threads={threads} moved the digest"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On small random worlds, all three drivers agree bit-for-bit.
    #[test]
    fn run_stepper_and_session_agree(
        seed in 0u64..1000,
        preset in 0usize..6,
        policy in 0usize..4,
        thread_pick in 0usize..3,
        slots in 2u32..4,
    ) {
        let registry = geoplace_scenarios::registry();
        let spec = &registry[preset % registry.len()];
        let kind = PolicyKind::ALL[policy];
        let mut config = quick_matrix_config(spec, seed);
        config.horizon_slots = slots;
        config.parallelism = Parallelism::Threads([1, 2, 8][thread_pick]);
        let via_run = run_policy(&config, kind).digest();
        prop_assert_eq!(&run_checked(&config, kind).digest(), &via_run);
        prop_assert_eq!(&session_digest(&config, kind), &via_run);
    }
}

/// The ISSUE's service-longevity gate: a 1000-command scripted external
/// session — arrivals, departures, traffic wiring, slot advances,
/// mid-run state and metrics reads, sprinkled malformed lines — must
/// complete with every error structured and the world still consistent.
#[test]
fn thousand_command_external_session_survives() {
    let mut config = ScenarioConfig::scaled(7);
    config.horizon_slots = 150;
    let mut session = Session::new(&config, PolicyKind::EnerAware, true).expect("valid config");

    let reply = |session: &mut Session, line: &str| -> Value {
        let response = session.handle_line(line);
        assert!(!response.shutdown, "only the final command shuts down");
        Value::parse(&response.line).expect("every response is valid JSON")
    };
    let expect_ok = |session: &mut Session, line: &str| -> Value {
        let value = reply(session, line);
        assert_eq!(
            value.get("ok").and_then(Value::as_bool),
            Some(true),
            "{line} -> {}",
            value.render()
        );
        value
    };

    let mut commands = 0usize;
    // External ids that have crossed a boundary (active, lifetime 1000
    // slots — they never expire naturally inside the horizon).
    let mut applied: Vec<u64> = Vec::new();
    let mut queued: Vec<u64> = Vec::new();
    for round in 0..100u64 {
        // ~3 arrivals per round.
        for k in 0..3 {
            let value = expect_ok(
                &mut session,
                &format!(
                    r#"{{"cmd":"vm_arrive","memory_gb":{},"lifetime_slots":1000,"profile":"{}","trace_seed":{}}}"#,
                    1.0 + ((round + k) % 7) as f64,
                    ["web", "batch", "hpc"][(round as usize + k as usize) % 3],
                    round * 31 + k
                ),
            );
            commands += 1;
            queued.push(value.get("id").and_then(Value::as_u64).expect("arrival id"));
        }
        // One departure of a long-applied VM.
        if applied.len() > 4 {
            let id = applied.remove(0);
            expect_ok(&mut session, &format!(r#"{{"cmd":"vm_depart","id":{id}}}"#));
            commands += 1;
        }
        // Two traffic wires among surviving applied VMs.
        if applied.len() >= 2 {
            for k in 0..2u64 {
                let a = applied[(round as usize + k as usize) % applied.len()];
                let b = applied[(round as usize + k as usize + 1) % applied.len()];
                if a != b {
                    expect_ok(
                        &mut session,
                        &format!(
                            r#"{{"cmd":"wire_traffic","a":{a},"b":{b},"a_to_b_mb":{},"b_to_a_mb":0.5}}"#,
                            (round % 9) as f64 + 1.0
                        ),
                    );
                    commands += 1;
                }
            }
        }
        // Mid-run reads in both phases.
        expect_ok(&mut session, r#"{"cmd":"get_state"}"#);
        commands += 1;
        // Every 20th round: a malformed line and a mistimed command,
        // both of which must be structured errors, not exits.
        if round % 20 == 3 {
            let bad = reply(&mut session, "{not json at all");
            assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
            let mistimed = reply(&mut session, r#"{"cmd":"decide"}"#);
            assert_eq!(mistimed.get("ok").and_then(Value::as_bool), Some(false));
            commands += 2;
        }
        expect_ok(&mut session, r#"{"cmd":"advance"}"#);
        expect_ok(&mut session, r#"{"cmd":"get_state"}"#);
        expect_ok(&mut session, r#"{"cmd":"decide"}"#);
        commands += 3;
        if round % 10 == 9 {
            expect_ok(&mut session, r#"{"cmd":"metrics"}"#);
            commands += 1;
        }
        applied.append(&mut queued);
    }

    assert!(commands >= 1000, "only {commands} commands scripted");
    assert_eq!(session.stepper().completed_slots(), 100);
    let fleet_size = session.stepper().scenario().fleet.active().len();
    // ~300 arrivals minus ~95 departures on top of the (naturally
    // expiring) initial fleet: the active set must stay bounded — no
    // leak of departed VMs.
    assert!(
        (100..1000).contains(&fleet_size),
        "implausible fleet size {fleet_size}"
    );
    let response = session.handle_line(r#"{"cmd":"shutdown"}"#);
    assert!(response.shutdown);
    let value = Value::parse(&response.line).expect("valid JSON");
    assert_eq!(value.get("slots").and_then(Value::as_u64), Some(100));
}
