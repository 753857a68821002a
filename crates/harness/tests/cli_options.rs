//! The CLI's validation boundary for the suite options: a malformed value
//! prints the error and the usage text and exits 2 — never a panic
//! (exit 101) from `.expect` or from an assertion deep in a pool worker.

use std::process::Command;

/// Runs `clear-harness run table2 <args>` and returns `(exit code, stderr)`.
fn run_table2(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_clear-harness"))
        .arg("run")
        .arg("table2")
        .args(args)
        .output()
        .expect("spawn clear-harness");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (code, stderr) = run_table2(args);
    assert_eq!(code, Some(2), "{args:?}: exit code (stderr: {stderr})");
    assert!(
        stderr.contains(message),
        "{args:?}: missing {message:?} in {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?}: no usage text in {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
}

#[test]
fn zero_cores_is_a_usage_error() {
    assert_usage_error(&["--cores", "0"], "--cores must be at least 1");
}

#[test]
fn non_numeric_cores_is_a_usage_error() {
    assert_usage_error(&["--cores", "lots"], "--cores expects");
}

#[test]
fn non_numeric_seeds_is_a_usage_error() {
    assert_usage_error(&["--seeds", "three"], "--seeds expects");
}

#[test]
fn non_numeric_threads_is_a_usage_error() {
    assert_usage_error(&["--threads", "2x"], "--threads expects");
}

#[test]
fn non_numeric_workers_is_a_usage_error() {
    assert_usage_error(&["--workers", "-4"], "--workers expects");
}

#[test]
fn unknown_size_is_a_usage_error() {
    assert_usage_error(&["--size", "huge"], "unknown size huge");
}

#[test]
fn well_formed_options_still_run() {
    let (code, stderr) = run_table2(&["--cores", "4", "--size", "tiny"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
