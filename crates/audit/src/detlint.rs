//! Determinism lints over the workspace's Rust sources — the file-walking
//! orchestrator for the token-level engine in [`crate::lints`].
//!
//! The reproduction's whole value rests on bit-reproducibility, so the
//! lints target the ways Rust code quietly loses it (wall-clock reads,
//! OS-entropy RNGs, unordered map iteration) plus the robustness and
//! API-hygiene smells that erode it over time (abort paths in library
//! code, stringly-typed errors, narrowing casts on wire fields). The full
//! rule table lives in [`crate::lints::RULES`].
//!
//! This module owns the parts that touch the filesystem:
//!
//! * [`FileContext`] — path classification (test/bin/wire/obs) that
//!   decides which rules apply to a file.
//! * [`lint_workspace`] — the deterministic sorted-order walk over
//!   `crates/`, `src/`, and `tests/` (skipping `target`, dotfiles, and
//!   lint-fixture directories).
//!
//! The engine itself is pure and string-fed; see [`crate::lints`] for the
//! pass implementations and the inline pragma, the one way to suppress a
//! finding.

use crate::error::AuditError;
use crate::finding::Severity;
use crate::lints::{self, LintFinding, LintReport};
use std::path::Path;

/// What kind of file is being scanned — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the workspace root, forward slashes.
    pub rel_path: String,
    /// Test-only file (integration tests, proptest modules).
    pub is_test: bool,
    /// Binary entry point (CLI code may abort with a message).
    pub is_bin: bool,
    /// Wire-path code (serialized record and store-format sources) where
    /// narrowing casts are a data-corruption hazard, not a style nit.
    pub is_wire: bool,
    /// The observability crate — the one sanctioned home for wall-clock
    /// reads (`Obs::now` is how everything else is supposed to get one).
    pub is_obs: bool,
}

impl FileContext {
    /// Classify from the workspace-relative path.
    pub fn classify(rel_path: &str) -> FileContext {
        FileContext {
            rel_path: rel_path.to_string(),
            is_test: rel_path.contains("/tests/")
                || rel_path.starts_with("tests/")
                || rel_path.ends_with("proptests.rs"),
            is_bin: rel_path.contains("/bin/") || rel_path.ends_with("/main.rs"),
            is_wire: rel_path == "crates/measure/src/record.rs"
                || rel_path == "crates/serve/src/report.rs"
                || rel_path.starts_with("crates/store/src/"),
            is_obs: rel_path.starts_with("crates/obs/"),
        }
    }
}

/// Walk the workspace sources (`crates/`, `src/`, `tests/`) and lint
/// every `.rs` file through the token engine. Directory entries are
/// visited in sorted order so the report itself is deterministic.
/// Lint-test fixture trees (any directory named `fixtures`) are skipped —
/// they contain seeded violations by design. A walk that finds no Rust
/// sources is an error finding (not an `Err`): a misconfigured root
/// fails the gate loudly instead of passing as a clean scan of nothing.
pub fn lint_workspace(root: &Path) -> Result<LintReport, AuditError> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = LintReport::default();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .map_err(|e| AuditError::config(format!("{}: {e}", f.display())))?
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileContext::classify(&rel);
        let source = std::fs::read_to_string(f).map_err(|e| AuditError::io(rel.clone(), e))?;
        report.findings.extend(lints::lint_source(&ctx, &source));
        report.files_scanned += 1;
    }
    if report.files_scanned == 0 {
        report.findings.push(LintFinding {
            rule: "no-sources",
            severity: Severity::Error,
            path: ".".into(),
            line: 0,
            col: 0,
            message: format!("no Rust sources under {}", root.display()),
        });
    }
    report.sort();
    Ok(report)
}

pub(crate) fn collect_rs_files(
    dir: &Path,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), AuditError> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| AuditError::io(dir.display().to_string(), e))?
        .collect::<Result<_, _>>()
        .map_err(|e| AuditError::io(dir.display().to_string(), e))?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            if name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_all_contexts() {
        let lib = FileContext::classify("crates/demo/src/lib.rs");
        assert!(!lib.is_test && !lib.is_bin && !lib.is_wire && !lib.is_obs);
        assert!(FileContext::classify("crates/obs/src/registry.rs").is_obs);
        assert!(!FileContext::classify("crates/serve/src/service.rs").is_obs);
        assert!(FileContext::classify("crates/demo/tests/it.rs").is_test);
        assert!(FileContext::classify("crates/geo/src/proptests.rs").is_test);
        assert!(FileContext::classify("src/bin/tool.rs").is_bin);
        assert!(FileContext::classify("crates/measure/src/record.rs").is_wire);
        assert!(FileContext::classify("crates/store/src/codec.rs").is_wire);
        assert!(FileContext::classify("crates/serve/src/report.rs").is_wire);
        assert!(!FileContext::classify("crates/measure/src/campaign.rs").is_wire);
        assert!(!FileContext::classify("crates/serve/src/service.rs").is_wire);
    }

    /// A fresh temp directory holding `files` (relative path, contents).
    fn temp_root(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("detlint-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (rel, text) in files {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
            std::fs::write(path, text).expect("write");
        }
        dir
    }

    #[test]
    fn workspace_walk_reports_missing_root_as_finding() {
        // A missing root and a root with no Rust sources under the walked
        // directories both fail loudly rather than count as a clean scan.
        let empty = temp_root("empty", &[("README.md", "no code here\n")]);
        for root in [Path::new("/nonexistent/cloudy-root"), empty.as_path()] {
            let r = lint_workspace(root).expect("missing dirs are findings, not IO errors");
            assert_eq!(r.files_scanned, 0);
            let rules: Vec<_> = r.findings.iter().map(|f| (f.rule, f.severity)).collect();
            assert_eq!(rules, vec![("no-sources", Severity::Error)], "{:?}", r.findings);
            assert!(r.findings[0].message.contains("no Rust sources"), "{:?}", r.findings);
        }
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn workspace_walk_skips_fixture_dirs() {
        let dir = temp_root(
            "walk",
            &[
                ("crates/demo/src/lib.rs", "pub fn ok() {}\n"),
                ("crates/demo/tests/fixtures/seeded.rs", "fn f() { let t = Instant::now(); }\n"),
            ],
        );
        let lr = lint_workspace(&dir).expect("walk");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(lr.files_scanned, 1, "fixture file must be skipped");
        assert_eq!(lr.findings, vec![]);
    }

    /// The inline pragma is the only suppression: a path-scoped
    /// `audit.toml` entry left in a root is not read.
    #[test]
    fn an_audit_toml_entry_suppresses_nothing() {
        let dir = temp_root(
            "toml",
            &[
                ("crates/demo/src/lib.rs", "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n"),
                (
                    "audit.toml",
                    "[[allow]]\npath = \"crates/demo\"\nrules = [\"unwrap\"]\nreason = \"legacy\"\n",
                ),
            ],
        );
        let lr = lint_workspace(&dir).expect("walk");
        std::fs::remove_dir_all(&dir).ok();
        let found: Vec<_> = lr.findings.iter().map(|f| (f.rule, f.path.as_str())).collect();
        assert_eq!(found, vec![("unwrap", "crates/demo/src/lib.rs")], "{:?}", lr.findings);
    }
}
