//! Hostile-input survival for the serve session.
//!
//! The service contract is that malformed or mistimed input yields a
//! structured `{"ok":false,...}` error and the session keeps running —
//! it must never panic, overflow the stack, or drift the simulation.
//! This test throws the worst lines we know of at a live session and
//! then checks the session still reproduces the exact `run_policy`
//! digest, i.e. hostility left no trace in the engine state.

use geoplace_bench::json::Value;
use geoplace_bench::serve::{Response, Session};
use geoplace_bench::{run_policy, PolicyKind};
use geoplace_dcsim::config::ScenarioConfig;

fn tiny() -> ScenarioConfig {
    let mut config = ScenarioConfig::scaled(11);
    config.horizon_slots = 3;
    config
}

fn err(response: &Response) -> Result<String, String> {
    let value = Value::parse(&response.line)?;
    if value.get("ok").and_then(Value::as_bool) != Some(false) {
        return Err(format!("expected ok:false, got {}", response.line));
    }
    value
        .get("error")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("no error field in {}", response.line))
}

fn ok(response: &Response) -> Result<Value, String> {
    let value = Value::parse(&response.line)?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("expected ok:true, got {}", response.line));
    }
    Ok(value)
}

/// Shuts `session` down and returns its final report digest.
fn shutdown_digest(session: &mut Session) -> Result<String, String> {
    let response = session.handle_line(r#"{"cmd":"shutdown"}"#);
    assert!(response.shutdown);
    Ok(ok(&response)?
        .get("digest")
        .and_then(Value::as_str)
        .ok_or("no digest in shutdown response")?
        .to_owned())
}

/// Lines that used to (or plausibly could) kill the process. Each must
/// come back as a structured error, not a panic.
fn hostile_lines() -> Vec<String> {
    vec![
        // Deep nesting: the recursive-descent JSON parser used to walk
        // arbitrarily deep and blow the stack on inputs like this.
        "[".repeat(200_000),
        format!("{}{}", r#"{"a":"#.repeat(100_000), "1"),
        // Just over the depth cap — rejected by the cap, not the stack.
        format!("{}1{}", "[".repeat(129), "]".repeat(129)),
        // Unterminated string / truncated escapes.
        r#"{"cmd":"adva"#.to_owned(),
        r#""\u00"#.to_owned(),
        "\"\\".to_owned(),
        // A megabyte of unbroken garbage.
        "x".repeat(1 << 20),
        // Valid JSON, wrong shapes.
        "null".to_owned(),
        "[]".to_owned(),
        r#"{"cmd":42}"#.to_owned(),
        r#"{"cmd":""}"#.to_owned(),
        // NUL bytes and non-ASCII noise.
        "\u{0}\u{0}\u{0}".to_owned(),
        "{\"cmd\":\"\u{1F4A3}\"}".to_owned(),
        // Mistimed / malformed external commands in synthetic mode.
        r#"{"cmd":"vm_arrive","memory_gb":2.0,"lifetime_slots":4}"#.to_owned(),
        r#"{"cmd":"vm_depart","id":-1}"#.to_owned(),
        r#"{"cmd":"wire_traffic","a":1,"b":1,"a_to_b_mb":-5.0,"b_to_a_mb":1e308}"#.to_owned(),
        // Numbers that don't fit anywhere sensible.
        r#"{"cmd":"advance","slots":1e999}"#.to_owned(),
    ]
}

#[test]
fn hostile_lines_get_structured_errors() -> Result<(), String> {
    let mut session = Session::new(&tiny(), PolicyKind::Proposed, false)?;
    for line in hostile_lines() {
        let response = session.handle_line(&line);
        assert!(
            !response.shutdown,
            "hostile line shut the session down: {:.60}",
            line
        );
        let message = err(&response)?;
        assert!(!message.is_empty(), "empty error for {:.60}", line);
    }
    // Still alive and drivable after the barrage.
    ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
    Ok(())
}

#[test]
fn deep_nesting_is_rejected_without_stack_overflow() -> Result<(), String> {
    let mut session = Session::new(&tiny(), PolicyKind::NetAware, false)?;
    // Alternating array/object nesting defeats any single-shape guard.
    let line = "[{\"a\":".repeat(50_000);
    let message = err(&session.handle_line(&line))?;
    assert!(
        message.contains("nesting") || message.contains("malformed"),
        "unexpected error: {message}"
    );
    Ok(())
}

/// A DC outage mid-session: the engine evacuates the downed DC, and the
/// session keeps answering `get_state`/`decide` with structured JSON —
/// the outaged DC is flagged in the DC facts, decisions that target it
/// get rerouted rather than panicking, and hostile lines thrown at the
/// session mid-outage still leave the digest bit-identical to the
/// offline run of the same failure world.
#[test]
fn mid_outage_sessions_answer_with_structure_not_panics() -> Result<(), String> {
    use geoplace_dcsim::events::{EngineEvent, EventKind};
    let mut config = tiny();
    config.timeline.push(EngineEvent {
        dc: Some(0),
        start_slot: 1,
        end_slot: 3,
        kind: EventKind::DcOutage,
    });
    let expected = run_policy(&config, PolicyKind::Proposed).digest();

    let mut session = Session::new(&config, PolicyKind::Proposed, false)?;
    let hostile = hostile_lines();
    let mut hostile_iter = hostile.iter().cycle();
    // The first advance is the slot-0 bootstrap boundary; the outage
    // window [1, 3) covers the second and third advances.
    for slot in 0..config.horizon_slots {
        err(&session.handle_line(hostile_iter.next().expect("cycle")))?;
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        let state = ok(&session.handle_line(r#"{"cmd":"get_state"}"#))?;
        let dcs = state
            .get("dcs")
            .and_then(Value::as_array)
            .ok_or("no dcs array mid-decision")?;
        let outaged: Vec<bool> = dcs
            .iter()
            .map(|dc| dc.get("outaged").and_then(Value::as_bool) == Some(true))
            .collect();
        let in_window = (1..3).contains(&slot);
        assert_eq!(
            outaged,
            vec![in_window, false, false],
            "slot {slot}: the evacuated DC must be flagged exactly inside its window"
        );
        err(&session.handle_line(hostile_iter.next().expect("cycle")))?;
        let decided = ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        assert!(
            decided
                .get("active_servers")
                .and_then(Value::as_u64)
                .is_some(),
            "decide mid-outage must return the usual structured record"
        );
    }
    let digest = shutdown_digest(&mut session)?;
    assert_eq!(digest, expected, "mid-outage hostility perturbed the run");
    Ok(())
}

/// External-mode churn during an evacuation: arrivals land, a departure
/// naming a VM that never existed is a structured boundary error (not a
/// panic), and the session stays drivable through the outage window.
#[test]
fn evacuation_survives_external_churn_and_bad_targets() -> Result<(), String> {
    use geoplace_dcsim::events::{EngineEvent, EventKind};
    let mut config = tiny();
    config.horizon_slots = 4;
    config.timeline.push(EngineEvent {
        dc: Some(0),
        start_slot: 1,
        end_slot: 4,
        kind: EventKind::DcOutage,
    });
    let mut session = Session::new(&config, PolicyKind::NetAware, true)?;
    ok(&session.handle_line(r#"{"cmd":"vm_arrive","memory_gb":4.0,"lifetime_slots":6}"#))?;
    ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
    ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
    // A departure for a VM that never existed: rejected at the next
    // boundary with a structured error, mid-outage, session intact.
    ok(&session.handle_line(r#"{"cmd":"vm_depart","id":4000000}"#))?;
    assert!(err(&session.handle_line(r#"{"cmd":"advance"}"#))?.contains("not an active VM"));
    ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
    ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
    let state = ok(&session.handle_line(r#"{"cmd":"get_state"}"#))?;
    assert_eq!(state.get("done").and_then(Value::as_bool), Some(false));
    Ok(())
}

/// A `restore` pointed at garbage bytes: pure noise fails the magic
/// check, magic-prefixed noise fails deeper in the header — both come
/// back as structured errors naming the section and byte offset, and
/// the session drives on to the exact uninterrupted digest.
#[test]
fn garbage_snapshot_bytes_never_kill_the_session() -> Result<(), String> {
    let config = tiny();
    let expected = run_policy(&config, PolicyKind::Proposed).digest();
    let mut session = Session::new(&config, PolicyKind::Proposed, false)?;

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    // Deterministic xorshift noise — hostile-input tests must not pull
    // OS entropy any more than the engine may.
    let mut word = 0x9E37_79B9_7F4A_7C15u64;
    let mut noise = Vec::with_capacity(4096);
    for _ in 0..4096 {
        word ^= word << 13;
        word ^= word >> 7;
        word ^= word << 17;
        noise.push(word as u8);
    }
    let pure_noise = dir.join("garbage_noise.gpck");
    std::fs::write(&pure_noise, &noise).map_err(|e| e.to_string())?;
    // The same noise behind a valid magic: gets past the first check
    // and must still die on a named header field, not a panic.
    let mut magicked = b"GPCK".to_vec();
    magicked.extend_from_slice(&noise);
    let magic_noise = dir.join("garbage_magic.gpck");
    std::fs::write(&magic_noise, &magicked).map_err(|e| e.to_string())?;

    for path in [&pure_noise, &magic_noise] {
        let line = format!(r#"{{"cmd":"restore","path":"{}"}}"#, path.display());
        let message = err(&session.handle_line(&line))?;
        assert!(
            message.contains("snapshot section"),
            "restore error must name the bad section and offset: {message}"
        );
    }
    let _ = std::fs::remove_file(&pure_noise);
    let _ = std::fs::remove_file(&magic_noise);

    for _ in 0..config.horizon_slots {
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
    }
    let digest = shutdown_digest(&mut session)?;
    assert_eq!(digest, expected, "garbage restores perturbed the run");
    Ok(())
}

#[test]
fn hostile_interleaving_leaves_the_digest_untouched() -> Result<(), String> {
    let config = tiny();
    let expected = run_policy(&config, PolicyKind::Proposed).digest();

    let mut session = Session::new(&config, PolicyKind::Proposed, false)?;
    let hostile = hostile_lines();
    let mut hostile_iter = hostile.iter().cycle();
    for _ in 0..config.horizon_slots {
        // A hostile line before every legitimate command.
        if let Some(line) = hostile_iter.next() {
            err(&session.handle_line(line))?;
        }
        ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
        if let Some(line) = hostile_iter.next() {
            err(&session.handle_line(line))?;
        }
        ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
    }
    let digest = shutdown_digest(&mut session)?;
    assert_eq!(
        digest, expected,
        "hostile input perturbed the simulation digest"
    );
    Ok(())
}

/// A checkpoint of one trace session restored into a session replaying
/// another trace: the restore must be refused with a structured error,
/// and the session must replay its own trace on to the digest of an
/// uninterrupted session. Trace B's second row wires to B's first VM,
/// which trace A's cursor and id map know nothing about.
#[test]
fn another_traces_checkpoint_is_refused() -> Result<(), String> {
    use geoplace_bench::Scale;
    use geoplace_workload::tracefile::{parse_trace, TRACE_HEADER};
    let mut config = Scale::Bench.config(42);
    config.fleet.arrivals.groups_per_slot = 0.0;
    config.horizon_slots = 4;
    let trace_a = parse_trace(&format!(
        "{TRACE_HEADER}\n1,0,4.0,8,web,11,,,\n2,1,2.0,8,batch,12,,,\n"
    ))?;
    let trace_b = parse_trace(&format!(
        "{TRACE_HEADER}\n1,5,4.0,8,web,11,,,\n2,6,2.0,8,batch,12,5,6.5,1.5\n"
    ))?;
    let finish = |mut session: Session| -> Result<String, String> {
        for _ in 0..config.horizon_slots {
            ok(&session.handle_line(r#"{"cmd":"advance"}"#))?;
            ok(&session.handle_line(r#"{"cmd":"decide"}"#))?;
        }
        shutdown_digest(&mut session)
    };
    let expected = finish(Session::with_trace(
        &config,
        PolicyKind::Proposed,
        trace_b.clone(),
    )?)?;

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("another_trace.gpck");
    let mut session_a = Session::with_trace(&config, PolicyKind::Proposed, trace_a)?;
    for _ in 0..2 {
        ok(&session_a.handle_line(r#"{"cmd":"advance"}"#))?;
        ok(&session_a.handle_line(r#"{"cmd":"decide"}"#))?;
    }
    let path_json = format!("{:?}", path.display().to_string());
    ok(&session_a.handle_line(&format!(r#"{{"cmd":"checkpoint","path":{path_json}}}"#)))?;

    let mut session_b = Session::with_trace(&config, PolicyKind::Proposed, trace_b)?;
    let message =
        err(&session_b.handle_line(&format!(r#"{{"cmd":"restore","path":{path_json}}}"#)))?;
    let _ = std::fs::remove_file(&path);
    assert!(
        message.contains("another trace"),
        "the refusal must say the checkpoint replays another trace: {message}"
    );
    assert_eq!(
        finish(session_b)?,
        expected,
        "the refused restore perturbed the session"
    );
    Ok(())
}
