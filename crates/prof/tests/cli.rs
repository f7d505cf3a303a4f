//! End-to-end tests of the `obs_report` binary: the exact invocations
//! CI runs, asserted on exit codes and output. The diff-gate fixtures
//! (`baseline.jsonl`, a synthetic 2× slowdown in `slow2x.jsonl`) are
//! the same files the CI workflow points the gate at.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

fn obs_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args(args)
        .output()
        .expect("obs_report spawns")
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn diff_gate_passes_baseline_against_itself() {
    let baseline = fixture("baseline.jsonl");
    let output = obs_report(&["diff", &baseline, &baseline, "--threshold", "1.15"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout_of(&output).contains("no regressions"));
}

#[test]
fn diff_gate_fails_the_synthetic_2x_slowdown() {
    let output = obs_report(&[
        "diff",
        &fixture("baseline.jsonl"),
        &fixture("slow2x.jsonl"),
        "--threshold",
        "1.15",
    ]);
    assert_eq!(output.status.code(), Some(1), "regression must exit 1");
    let text = stdout_of(&output);
    assert!(text.contains("REGRESSED"), "stdout: {text}");
    assert!(text.contains("2.00x"), "worst ratio is the 2x: {text}");
}

#[test]
fn diff_json_output_parses_and_reports_the_regression() {
    let output = obs_report(&[
        "diff",
        &fixture("baseline.jsonl"),
        &fixture("slow2x.jsonl"),
        "--json",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let doc = eadrl_obs::json::parse(stdout_of(&output).trim()).expect("valid JSON");
    assert_eq!(
        doc.get("regressed"),
        Some(&eadrl_obs::json::JsonValue::Bool(true))
    );
    let deltas = doc.get("deltas").and_then(|d| d.as_arr()).expect("deltas");
    assert_eq!(deltas.len(), 4, "all four paths clear the noise floor");
}

#[test]
fn tree_report_runs_on_the_golden_fixture() {
    let output = obs_report(&["tree", &fixture("golden.jsonl")]);
    assert!(output.status.success());
    let text = stdout_of(&output);
    assert!(text.contains("events: 14"), "{text}");
    assert!(text.contains("top"), "hotspot section present: {text}");
    // Shape mode by default: no par.worker rows.
    assert!(!text.contains("par.worker"), "{text}");
    let raw = stdout_of(&obs_report(&["tree", &fixture("golden.jsonl"), "--raw"]));
    assert!(raw.contains("par.worker"), "{raw}");
}

#[test]
fn flame_output_is_folded_stacks() {
    let output = obs_report(&["flame", &fixture("golden.jsonl")]);
    assert!(output.status.success());
    let text = stdout_of(&output);
    assert!(
        text.contains("eadrl.fit;eadrl.ddpg;ddpg.targets 40\n"),
        "{text}"
    );
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("'stack count' shape");
        assert!(
            !stack.is_empty() && count.parse::<u64>().is_ok(),
            "bad line: {line}"
        );
    }
}

#[test]
fn check_accepts_clean_traces_and_rejects_truncated_ones() {
    let output = obs_report(&["check", &fixture("golden.jsonl")]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let dir = std::env::temp_dir().join(format!("eadrl_prof_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let truncated = dir.join("truncated.jsonl");
    let mut text = std::fs::read_to_string(fixture("golden.jsonl")).expect("fixture");
    text.push_str("{\"ts\":99,\"na");
    std::fs::write(&truncated, text).expect("write");
    let path = truncated.display().to_string();

    let output = obs_report(&["check", &path]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "truncated trace must fail check"
    );
    let output = obs_report(&["check", &path, "--allow-truncated"]);
    assert!(output.status.success(), "--allow-truncated tolerates it");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_requires_every_named_event() {
    let golden = fixture("golden.jsonl");
    // A full name, a span-path segment and an event name all match.
    let output = obs_report(&[
        "check",
        &golden,
        "--require",
        "eadrl.fit",
        "--require",
        "ddpg.targets",
        "--require",
        "eadrl.weights",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let output = obs_report(&["check", &golden, "--require", "eadrl.predict_next"]);
    assert_eq!(output.status.code(), Some(1), "a missing name must exit 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("no event named 'eadrl.predict_next' in 14 events"),
        "stderr: {stderr}"
    );
    // A prefix of a segment is not a match.
    let output = obs_report(&["check", &golden, "--require", "ddpg"]);
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(obs_report(&[]).status.code(), Some(2));
    assert_eq!(obs_report(&["tree"]).status.code(), Some(2));
    assert_eq!(
        obs_report(&["tree", "no-such-file.jsonl"]).status.code(),
        Some(2)
    );
    assert_eq!(obs_report(&["frobnicate", "x"]).status.code(), Some(2));
    assert_eq!(
        obs_report(&["check", "x", "--require"]).status.code(),
        Some(2)
    );
    assert_eq!(
        obs_report(&["diff", "a", "b", "--threshold", "bogus"])
            .status
            .code(),
        Some(2)
    );
}
