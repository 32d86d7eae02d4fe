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
//! This module owns the parts that touch the filesystem and the
//! workspace's suppression config:
//!
//! * [`Allowlist`] — the `audit.toml` path-scoped suppressions, with
//!   per-entry use-tracking so dead entries surface as `stale-allow`
//!   findings instead of silently widening the blind spot.
//! * [`FileContext`] — path classification (test/bin/wire/obs) that
//!   decides which rules apply to a file.
//! * [`lint_workspace`] / [`scan_workspace`] — the deterministic
//!   sorted-order walk over `crates/`, `src/`, and `tests/` (skipping
//!   `target`, dotfiles, and lint-fixture directories).
//!
//! The engine itself is pure and string-fed; see [`crate::lints`] for the
//! pass implementations and pragma semantics.

use crate::error::AuditError;
use crate::finding::{AuditReport, Severity};
use crate::lints::{self, LintFinding, LintReport};
use std::path::Path;

/// One path-scoped suppression from `audit.toml`.
#[derive(Debug, Clone, Default)]
pub struct AllowEntry {
    pub path_prefix: String,
    pub rules: Vec<String>,
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in `audit.toml`, for
    /// `stale-allow` findings.
    pub line: u32,
}

/// The `audit.toml` allowlist.
///
/// Format (a deliberately small TOML subset — table arrays of scalar
/// strings and string lists):
///
/// ```toml
/// [[allow]]
/// path = "crates/demo/src/legacy.rs"
/// rules = ["map-iter"]
/// reason = "every caller sorts the result"
/// ```
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    pub fn empty() -> Allowlist {
        Allowlist::default()
    }

    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// Parse `audit.toml` text.
    pub fn parse(text: &str) -> Result<Allowlist, AuditError> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                entries.push(AllowEntry { line: (ln + 1) as u32, ..AllowEntry::default() });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(AuditError::config(format!(
                    "audit.toml:{}: expected `key = value`",
                    ln + 1
                )));
            };
            let entry = entries.last_mut().ok_or_else(|| {
                AuditError::config(format!("audit.toml:{}: key outside [[allow]]", ln + 1))
            })?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "path" => entry.path_prefix = unquote(value, ln)?,
                "reason" => entry.reason = unquote(value, ln)?,
                "rules" => {
                    let inner = value
                        .strip_prefix('[')
                        .and_then(|v| v.strip_suffix(']'))
                        .ok_or_else(|| {
                            AuditError::config(format!(
                                "audit.toml:{}: rules wants a list",
                                ln + 1
                            ))
                        })?;
                    for item in inner.split(',') {
                        let item = item.trim();
                        if item.is_empty() {
                            continue;
                        }
                        let name = unquote(item, ln)?;
                        if lints::rule(&name).is_none() {
                            return Err(AuditError::config(format!(
                                "audit.toml:{}: unknown rule {name:?}",
                                ln + 1
                            )));
                        }
                        entry.rules.push(name);
                    }
                }
                other => {
                    return Err(AuditError::config(format!(
                        "audit.toml:{}: unknown key {other:?}",
                        ln + 1
                    )))
                }
            }
        }
        for e in &entries {
            if e.path_prefix.is_empty() {
                return Err(AuditError::config("audit.toml: [[allow]] entry without a path"));
            }
            if e.reason.is_empty() {
                return Err(AuditError::config(format!(
                    "audit.toml: allow for {:?} needs a reason",
                    e.path_prefix
                )));
            }
        }
        Ok(Allowlist { entries })
    }

    /// Load `<root>/audit.toml`, or an empty allowlist if absent.
    pub fn load(root: &Path) -> Result<Allowlist, AuditError> {
        match std::fs::read_to_string(root.join("audit.toml")) {
            Ok(text) => Allowlist::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::empty()),
            Err(e) => Err(AuditError::io("audit.toml", e)),
        }
    }

    /// The index of the first entry that suppresses `rule` at `rel_path`,
    /// so callers can track which entries earn their keep.
    pub fn allows(&self, rel_path: &str, rule: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            rel_path.starts_with(&e.path_prefix)
                && (e.rules.is_empty() || e.rules.iter().any(|r| r == rule))
        })
    }
}

fn unquote(s: &str, ln: usize) -> Result<String, AuditError> {
    s.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| {
            AuditError::config(format!("audit.toml:{}: expected a quoted string, got {s}", ln + 1))
        })
}

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

/// Scan one file's source text (compatibility wrapper over
/// [`lints::lint_source`] folding into the legacy [`AuditReport`]).
pub fn scan_source(ctx: &FileContext, source: &str, allow: &Allowlist) -> AuditReport {
    let scan = lints::lint_source(ctx, source, allow);
    let mut lr = LintReport { findings: scan.findings, files_scanned: 1 };
    lr.sort();
    lr.to_audit_report("detlint")
}

/// Walk the workspace sources (`crates/`, `src/`, `tests/`) and lint
/// every `.rs` file through the token engine. Directory entries are
/// visited in sorted order so the report itself is deterministic.
/// Lint-test fixture trees (any directory named `fixtures`) are skipped —
/// they contain seeded violations by design.
pub fn lint_workspace(root: &Path) -> Result<LintReport, AuditError> {
    let allow = Allowlist::load(root)?;
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = LintReport::default();
    let mut used = vec![false; allow.entries().len()];
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .map_err(|e| AuditError::config(format!("{}: {e}", f.display())))?
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileContext::classify(&rel);
        let source = std::fs::read_to_string(f).map_err(|e| AuditError::io(rel.clone(), e))?;
        let scan = lints::lint_source(&ctx, &source, &allow);
        report.findings.extend(scan.findings);
        report.files_scanned += 1;
        for ix in scan.used_allow {
            used[ix] = true;
        }
    }

    // Allow entries that matched nothing are findings themselves: the
    // suppression surface must shrink as the findings it covered do.
    for (ix, entry) in allow.entries().iter().enumerate() {
        if used[ix] {
            continue;
        }
        report.findings.push(LintFinding {
            rule: "stale-allow",
            severity: Severity::Warning,
            path: "audit.toml".into(),
            line: entry.line,
            col: 1,
            message: format!(
                "allow entry for `{}` ({}) matched no finding",
                entry.path_prefix,
                if entry.rules.is_empty() { "all rules".to_string() } else { entry.rules.join(", ") },
            ),
        });
    }
    report.sort();
    Ok(report)
}

/// Legacy entry point: run [`lint_workspace`] and fold into the
/// [`AuditReport`] model the driver aggregates. An empty walk is an
/// error-severity finding (not an `Err`): a misconfigured root should
/// fail the audit loudly, not crash it.
pub fn scan_workspace(root: &Path) -> Result<AuditReport, AuditError> {
    let lr = lint_workspace(root)?;
    let mut report = lr.to_audit_report("detlint");
    if lr.files_scanned == 0 {
        report.push(Severity::Error, "detlint", format!("no Rust sources under {root:?}"));
    }
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

    #[test]
    fn scan_source_folds_into_audit_report() {
        let ctx = FileContext::classify("crates/demo/src/lib.rs");
        let r = scan_source(&ctx, "fn f() { let t = Instant::now(); }\n", &Allowlist::empty());
        assert_eq!(r.errors().count(), 1, "{}", r.render());
        assert!(r.render().contains("[nondet-time]"), "{}", r.render());
        assert!(r.render().contains("crates/demo/src/lib.rs:1"), "{}", r.render());
    }

    #[test]
    fn allowlist_scopes_by_path_prefix() {
        let allow = Allowlist::parse(
            "[[allow]]\n\
             path = \"crates/demo\"\n\
             rules = [\"unwrap\"]\n\
             reason = \"legacy\"\n",
        )
        .expect("parses");
        assert_eq!(allow.allows("crates/demo/src/lib.rs", "unwrap"), Some(0));
        assert_eq!(allow.allows("crates/demo/src/lib.rs", "panic"), None);
        assert_eq!(allow.allows("crates/other/src/lib.rs", "unwrap"), None);
        assert_eq!(allow.entries()[0].line, 1, "entry records its header line");
    }

    #[test]
    fn allowlist_rejects_unknown_rules_and_missing_reasons() {
        assert!(Allowlist::parse("[[allow]]\npath = \"x\"\nrules = [\"nope\"]\nreason = \"r\"\n")
            .is_err());
        assert!(Allowlist::parse("[[allow]]\npath = \"x\"\nrules = [\"unwrap\"]\n").is_err());
        assert!(Allowlist::parse("path = \"x\"\n").is_err(), "key outside entry");
    }

    #[test]
    fn allowlist_accepts_every_registered_rule() {
        for r in lints::RULES {
            let toml = format!(
                "[[allow]]\npath = \"x\"\nrules = [\"{}\"]\nreason = \"r\"\n",
                r.name
            );
            assert!(Allowlist::parse(&toml).is_ok(), "rule {} rejected", r.name);
        }
    }

    #[test]
    fn workspace_walk_reports_missing_root_as_finding() {
        let r = scan_workspace(Path::new("/nonexistent/cloudy-root")).expect("walk is fallible-soft");
        assert_eq!(r.errors().count(), 1, "{}", r.render());
        assert!(r.render().contains("no Rust sources"), "{}", r.render());
    }

    #[test]
    fn workspace_walk_skips_fixture_dirs_and_reports_stale_allows() {
        let dir = std::env::temp_dir().join(format!("detlint-walk-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        let fix = dir.join("crates/demo/tests/fixtures");
        std::fs::create_dir_all(&src).expect("mkdir");
        std::fs::create_dir_all(&fix).expect("mkdir");
        std::fs::write(src.join("lib.rs"), "pub fn ok() {}\n").expect("write");
        std::fs::write(fix.join("seeded.rs"), "fn f() { let t = Instant::now(); }\n")
            .expect("write");
        std::fs::write(
            dir.join("audit.toml"),
            "[[allow]]\npath = \"crates/demo\"\nrules = [\"unwrap\"]\nreason = \"dead\"\n",
        )
        .expect("write");
        let lr = lint_workspace(&dir).expect("walk");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(lr.files_scanned, 1, "fixture file must be skipped");
        let rules: Vec<_> = lr.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["stale-allow"], "{:?}", lr.findings);
        assert_eq!(lr.findings[0].path, "audit.toml");
    }
}
