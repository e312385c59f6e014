//! End-to-end tests of the `bench_diff` regression gate binary: exit
//! codes, offending-path reporting, and the committed tolerance policy.

// Test-only crate: fixture helpers may panic on harness failures
// (allow-unwrap-in-tests only covers `#[test]` fns, not their helpers).
#![allow(clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch file under `target/` (kept out of the repo root).
fn scratch(name: &str) -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    path.push(name);
    path
}

fn write(name: &str, contents: &str) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, contents).expect("scratch file writable");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .expect("bench_diff spawns")
}

/// The committed workspace policy file, resolved from this crate.
fn policy() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_policy.json").to_string()
}

const ARTIFACT: &str = r#"{"bench":"x","schema":1,"cells":4,"timing":{"total_s":1.5,"per_cell_s":[0.7,0.8]}}
"#;

#[test]
fn comparing_an_artifact_with_itself_is_clean() {
    let a = write("same_a.json", ARTIFACT);
    let out = run(&[
        "--policy",
        &policy(),
        a.to_str().unwrap(),
        a.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no differences"), "{stdout}");
}

#[test]
fn wall_clock_drift_passes_under_the_committed_policy() {
    let a = write("wall_a.json", ARTIFACT);
    let b = write(
        "wall_b.json",
        r#"{"bench":"x","schema":1,"cells":4,"timing":{"total_s":9.9,"per_cell_s":[4.4,5.5]}}
"#,
    );
    let out = run(&[
        "--policy",
        &policy(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn a_perturbed_deterministic_field_fails_naming_its_path() {
    let a = write("det_a.json", ARTIFACT);
    let b = write(
        "det_b.json",
        r#"{"bench":"x","schema":1,"cells":5,"timing":{"total_s":1.5,"per_cell_s":[0.7,0.8]}}
"#,
    );
    let out = run(&[
        "--policy",
        &policy(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("$.cells"), "must name the path: {stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn json_mode_emits_the_machine_readable_report() {
    let a = write("json_a.json", ARTIFACT);
    let b = write(
        "json_b.json",
        r#"{"bench":"x","schema":2,"cells":4,"timing":{"total_s":1.5,"per_cell_s":[0.7,0.8]}}
"#,
    );
    let out = run(&["--json", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = edc_core::json::Json::parse(stdout.trim()).expect("valid JSON report");
    assert_eq!(
        report.get("clean"),
        Some(&edc_core::json::Json::Bool(false))
    );
    assert!(stdout.contains("\"path\":\"$.schema\""), "{stdout}");
}

#[test]
fn usage_and_io_errors_exit_2() {
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["only_one.json"]).status.code(), Some(2));
    assert_eq!(
        run(&["missing_a.json", "missing_b.json"]).status.code(),
        Some(2)
    );
    let a = write("flag_a.json", ARTIFACT);
    assert_eq!(
        run(&["--frobnicate", a.to_str().unwrap(), a.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
}
