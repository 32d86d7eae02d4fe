//! Tier-1 gate: the seed workspace and world must pass their own audit.
//!
//! This is the enforcement half of `cloudy-audit` — the passes themselves
//! live in `crates/audit`; this suite pins that the shipped tree stays
//! clean (no lint or wire-freeze finding of any severity, no world or race
//! error) and that the `cloudy-repro audit` and `audit lint` commands
//! agree with the library.

use cloudy::audit::detlint::lint_workspace;
use cloudy::audit::output::render_text;
use cloudy::audit::wirefreeze::check_workspace;
use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn detlint_finds_no_errors_in_the_workspace() {
    let report = lint_workspace(&workspace_root()).expect("workspace sources readable");
    // The lint gate fails on warnings too.
    assert!(report.findings.is_empty(), "lint findings:\n{}", render_text(&report));
    // A walk that finds (almost) no files would pass vacuously.
    assert!(report.files_scanned > 50, "walk found only {} files", report.files_scanned);
}

#[test]
fn world_audit_is_clean_on_the_seed_world() {
    let report = cloudy::audit::world::audit(&cloudy::serve::default_world(1));
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.checks_run >= 10, "only {} world checks ran", report.checks_run);
}

#[test]
fn campaign_is_byte_identical_across_1_and_8_threads() {
    use cloudy::audit::racecheck::{race_check, RaceConfig};
    let report = race_check(&RaceConfig { seed: 1, threads: 8 });
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn cloudy_repro_audit_exits_zero_on_the_seed_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudy-repro"))
        .arg("audit")
        .output()
        .expect("cloudy-repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "audit exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(stdout.contains("0 errors"), "{stdout}");
}

#[test]
fn cloudy_repro_audit_json_is_parseable() {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudy-repro"))
        .args(["audit", "--pass", "world", "--json"])
        .output()
        .expect("cloudy-repro runs");
    assert!(out.status.success());
    let raw = String::from_utf8_lossy(&out.stdout);
    let doc: serde_json::Value = serde_json::from_str(raw.trim()).expect("valid JSON report");
    let field = |key: &str| doc.get(key).unwrap_or_else(|| panic!("field {key:?} in {raw}"));
    assert!(matches!(field("errors"), serde_json::Value::UInt(0)), "{raw}");
    let (findings, warnings) = match (field("findings"), field("warnings")) {
        (serde_json::Value::Array(f), serde_json::Value::UInt(w)) => (f.len(), *w as usize),
        other => panic!("unexpected shapes: {other:?}"),
    };
    assert_eq!(findings, warnings, "every seed finding is a warning:\n{raw}");
}

/// The wire-format freeze: serialized shapes in the tree must match the
/// committed `wire.lock`. Renaming a serialized field in `PingRecord`
/// (or reordering store tags) fails here — and therefore fails tier-1.
#[test]
fn wire_freeze_matches_the_committed_lock() {
    let report = check_workspace(&workspace_root()).expect("wire extraction runs");
    assert!(report.findings.is_empty(), "wire drift against wire.lock:\n{}", render_text(&report));
}

/// The strict lint gate: zero findings of any severity.
#[test]
fn audit_lint_reports_zero_fresh_findings() {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudy-repro"))
        .args(["audit", "lint", "--root"])
        .arg(workspace_root())
        .output()
        .expect("cloudy-repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "audit lint exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(stdout.contains("0 fresh findings"), "{stdout}");
}

/// SARIF output is well-formed 2.1.0 with one reporting descriptor per
/// registered rule.
#[test]
fn audit_lint_sarif_is_parseable() {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudy-repro"))
        .args(["audit", "lint", "--format", "sarif", "--root"])
        .arg(workspace_root())
        .output()
        .expect("cloudy-repro runs");
    assert!(out.status.success());
    let raw = String::from_utf8_lossy(&out.stdout);
    let doc: serde_json::Value = serde_json::from_str(raw.trim()).expect("valid SARIF JSON");
    assert!(
        matches!(doc.get("version"), Some(serde_json::Value::Str(v)) if v == "2.1.0"),
        "{raw}"
    );
    let runs = match doc.get("runs") {
        Some(serde_json::Value::Array(r)) => r,
        other => panic!("no runs array: {other:?}"),
    };
    assert_eq!(runs.len(), 1);
}

/// `--pass` selects a single pass; an unknown pass is a usage error
/// (exit 2). Pass names and exit codes are documented API; the lints and
/// the wire freeze are not `audit` passes but `audit lint`'s whole job.
#[test]
fn audit_pass_selector_and_exit_codes() {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudy-repro"))
        .args(["audit", "--pass", "world"])
        .output()
        .expect("cloudy-repro runs");
    assert!(
        out.status.success(),
        "pass world exited {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    for pass in ["detlint", "wire-freeze", "no-such-pass"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cloudy-repro"))
            .args(["audit", "--pass", pass])
            .output()
            .expect("cloudy-repro runs");
        assert_eq!(out.status.code(), Some(2), "--pass {pass} is a usage error");
    }
}
