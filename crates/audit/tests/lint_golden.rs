//! Golden-file tests for the lint engine.
//!
//! Every per-file lint rule has a fixture under `tests/fixtures/` with a
//! seeded violation plus a pragma-suppressed twin, and a committed
//! `.expected` transcript (`line:col rule message` per finding). The
//! suite pins three things per fixture:
//!
//! 1. the findings match the committed transcript exactly (golden);
//! 2. defusing the `audit:allow` pragmas makes the suppressed twins fire
//!    (the fixture *fails without the pragma*);
//! 3. with pragmas intact, no finding lands on a pragma-carrying line
//!    (the fixture *passes with its pragma*).
//!
//! Regenerate the transcripts after an intentional rule change with:
//!
//! ```text
//! CLOUDY_BLESS=1 cargo test -p cloudy-audit --test lint_golden
//! ```

use cloudy_audit::detlint::FileContext;
use cloudy_audit::lints::{lint_source, RULES};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// (fixture stem, workspace-relative path the fixture is linted as).
/// `as_truncate` borrows a store path so the wire-context rule applies.
const CASES: &[(&str, &str)] = &[
    ("clean", "crates/demo/src/lib.rs"),
    ("nondet_time", "crates/demo/src/lib.rs"),
    ("thread_rng", "crates/demo/src/lib.rs"),
    ("map_iter", "crates/demo/src/lib.rs"),
    ("unwrap", "crates/demo/src/lib.rs"),
    ("expect", "crates/demo/src/lib.rs"),
    ("panic", "crates/demo/src/lib.rs"),
    ("print_stdout", "crates/demo/src/lib.rs"),
    ("as_truncate", "crates/store/src/codec.rs"),
    ("obs_in_wire", "crates/demo/src/lib.rs"),
    ("result_string", "crates/demo/src/lib.rs"),
    ("stale_pragma", "crates/demo/src/lib.rs"),
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

fn fixture_source(stem: &str) -> String {
    let path = fixture_dir().join(format!("{stem}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lint a fixture and render its findings one per line, sorted.
fn transcript(stem: &str, as_path: &str) -> String {
    let ctx = FileContext::classify(as_path);
    let mut findings = lint_source(&ctx, &fixture_source(stem));
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings.iter().map(|f| format!("{}:{} {} {}\n", f.line, f.col, f.rule, f.message)).collect()
}

#[test]
fn fixtures_match_their_expected_transcripts() {
    let bless = std::env::var_os("CLOUDY_BLESS").is_some();
    let mut failures = Vec::new();
    for &(stem, as_path) in CASES {
        let got = transcript(stem, as_path);
        let expected_path = fixture_dir().join(format!("{stem}.expected"));
        if bless {
            std::fs::write(&expected_path, &got).expect("write blessed transcript");
            continue;
        }
        let want = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("{} unreadable ({e}); run with CLOUDY_BLESS=1 to create it", expected_path.display()));
        if got != want {
            failures.push(format!("{stem}: expected\n{want}\ngot\n{got}"));
        }
    }
    assert!(failures.is_empty(), "golden mismatches:\n{}", failures.join("\n---\n"));
}

#[test]
fn clean_fixture_has_no_findings_in_any_context() {
    let src = fixture_source("clean");
    for as_path in
        ["crates/demo/src/lib.rs", "crates/store/src/codec.rs", "crates/measure/src/record.rs"]
    {
        let ctx = FileContext::classify(as_path);
        let findings = lint_source(&ctx, &src);
        assert!(findings.is_empty(), "clean fixture as {as_path}: {findings:?}");
    }
}

/// Each fixture must fail without its pragma: rewriting `audit:allow` so
/// it no longer parses must surface strictly more findings, all of them
/// on the previously suppressed lines.
#[test]
fn defusing_pragmas_makes_suppressed_twins_fire() {
    for &(stem, as_path) in CASES {
        if stem == "clean" || stem == "stale_pragma" {
            continue; // no suppressed twin to defuse
        }
        let ctx = FileContext::classify(as_path);
        let src = fixture_source(stem);
        let defused = src.replace("audit:allow", "audit-disabled");
        let with = lint_source(&ctx, &src);
        let without = lint_source(&ctx, &defused);
        assert!(
            without.len() > with.len(),
            "{stem}: defusing pragmas did not add findings ({} -> {})",
            with.len(),
            without.len()
        );
    }
}

/// With pragmas intact, no finding may land on a pragma-carrying line —
/// the suppressed twin really is suppressed.
#[test]
fn pragma_lines_carry_no_findings() {
    for &(stem, as_path) in CASES {
        if stem == "stale_pragma" {
            continue; // its pragmas are the findings
        }
        let ctx = FileContext::classify(as_path);
        let src = fixture_source(stem);
        let pragma_lines: BTreeSet<u32> = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("audit:allow"))
            .map(|(i, _)| (i + 1) as u32)
            .collect();
        for f in lint_source(&ctx, &src) {
            assert!(
                !pragma_lines.contains(&f.line),
                "{stem}: finding on suppressed line {}: {}",
                f.line,
                f.render()
            );
        }
    }
}

/// Every per-file rule in the registry is exercised by some fixture.
/// The one workspace-level rule (wire-drift) has no per-file fixture; the
/// wirefreeze unit suite pins it instead.
#[test]
fn every_per_file_rule_has_a_fixture() {
    const WORKSPACE_RULES: &[&str] = &["wire-drift"];
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    for &(stem, as_path) in CASES {
        let ctx = FileContext::classify(as_path);
        for f in lint_source(&ctx, &fixture_source(stem)) {
            seen.insert(f.rule);
        }
    }
    let missing: Vec<&str> = RULES
        .iter()
        .map(|r| r.name)
        .filter(|n| !WORKSPACE_RULES.contains(n) && !seen.contains(n))
        .collect();
    assert!(missing.is_empty(), "rules with no firing fixture: {missing:?}");
}
