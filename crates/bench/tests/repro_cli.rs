//! End-to-end pins of the `repro` front door: every experiment admits
//! exactly the flags that change its output, and anything else exits 2
//! naming the offender before any work starts. The experiment list is
//! read from bare `repro`'s own listing, so a new experiment is covered
//! without touching this file.

use std::process::Command;

/// Runs `repro` with `args`; returns (exit code, stdout, stderr).
fn repro(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// The experiment names bare `repro` lists on stderr.
fn experiments() -> Vec<String> {
    let (code, stdout, stderr) = repro(&[]);
    assert_eq!(code, 2, "bare repro must exit 2: {stderr}");
    assert!(stdout.is_empty(), "bare repro printed {stdout:?}");
    let names: Vec<String> = stderr
        .lines()
        .skip_while(|line| !line.starts_with("experiments:"))
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .map(str::to_owned)
        .collect();
    for expected in ["table1", "fig1", "all", "pipeline_agreement"] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} missing: {stderr}"
        );
    }
    names
}

/// Asserts a command line is refused before any output: exit 2, empty
/// stdout, and `offender` named on stderr.
fn assert_refused(args: &[&str], offender: &str) {
    let (code, stdout, stderr) = repro(args);
    assert_eq!(code, 2, "{args:?}: {stderr}");
    assert!(
        stderr.contains(offender),
        "{args:?} must name {offender}: {stderr}"
    );
    assert!(stdout.is_empty(), "{args:?} ran before exiting: {stdout}");
}

#[test]
fn every_experiment_rejects_an_unknown_flag() {
    for name in experiments() {
        assert_refused(&[&name, "--bogus"], "--bogus");
    }
}

#[test]
fn flags_an_experiment_would_ignore_exit_2_naming_themselves() {
    for args in [
        &["table1", "--seed", "7"][..],
        &["table1", "--scenario", "paper"],
        &["pipeline_agreement", "--bench"],
        &["pipeline_agreement", "--paper"],
        &["pipeline_agreement", "--stress"],
        &["pipeline_agreement", "--seed", "7"],
    ] {
        assert_refused(args, args[1]);
    }
}

#[test]
fn a_repeated_flag_exits_2_naming_it() {
    assert_refused(&["fig4", "--seed", "1", "--seed", "2"], "--seed");
}

#[test]
fn an_unknown_experiment_exits_2_listing_every_experiment() {
    let (code, stdout, stderr) = repro(&["nope"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("\"nope\""), "{stderr}");
    for name in experiments() {
        assert!(
            stderr.contains(&name),
            "listing must mention {name}: {stderr}"
        );
    }
}

#[test]
fn table1_follows_its_scale_flag() {
    let (code, bench, stderr) = repro(&["table1", "--bench"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(bench.starts_with("Table I"), "{bench}");
    let (code, paper, stderr) = repro(&["table1", "--paper"]);
    assert_eq!(code, 0, "{stderr}");
    assert_ne!(
        bench, paper,
        "--bench and --paper must print different fleets"
    );
}
