//! Diagnostic renderings of a [`LintReport`]: human text, machine JSON,
//! and SARIF 2.1.0 for code-scanning UIs.
//!
//! All three are pure functions of the (sorted) report, so the same run
//! can be rendered every way without re-scanning. The SARIF document
//! carries the full rule registry in `tool.driver.rules` (id, summary,
//! help, default level). Suppressed findings never reach the report, so
//! every finding rendered is a fresh one and gates.

use crate::finding::Severity;
use crate::lints::{LintReport, RULES};
use serde::Value;

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// (errors, warnings) among the report's findings.
fn severity_counts(report: &LintReport) -> (usize, usize) {
    let count = |sev| report.findings.iter().filter(|f| f.severity == sev).count();
    (count(Severity::Error), count(Severity::Warning))
}

/// Human-readable text: a summary line, then one line per finding.
pub fn render_text(report: &LintReport) -> String {
    let (errors, warnings) = severity_counts(report);
    let mut out = format!(
        "lint: {} files, {} fresh findings ({} errors, {} warnings)\n",
        report.files_scanned,
        report.findings.len(),
        errors,
        warnings,
    );
    for f in &report.findings {
        let sev = match f.severity {
            Severity::Error => "ERROR",
            Severity::Warning => "warn ",
        };
        out.push_str(&format!("  [{sev}] {}\n", f.render()));
    }
    out
}

/// Machine-readable JSON (one object; stable key order).
pub fn render_json(report: &LintReport) -> String {
    let (errors, warnings) = severity_counts(report);
    let findings: Vec<Value> = report
        .findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("rule".into(), Value::Str(f.rule.into())),
                ("severity".into(), Value::Str(level(f.severity).into())),
                ("path".into(), Value::Str(f.path.clone())),
                ("line".into(), Value::UInt(u64::from(f.line))),
                ("col".into(), Value::UInt(u64::from(f.col))),
                ("message".into(), Value::Str(f.message.clone())),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("files_scanned".into(), Value::UInt(report.files_scanned as u64)),
        ("fresh".into(), Value::UInt(report.findings.len() as u64)),
        ("errors".into(), Value::UInt(errors as u64)),
        ("warnings".into(), Value::UInt(warnings as u64)),
        ("findings".into(), Value::Array(findings)),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// SARIF 2.1.0 (the static-analysis interchange format GitHub code
/// scanning and most IDE problem matchers ingest).
pub fn render_sarif(report: &LintReport) -> String {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let text = |s: &str| obj(vec![("text", Value::Str(s.to_string()))]);

    let rules: Vec<Value> = RULES
        .iter()
        .map(|r| {
            obj(vec![
                ("id", Value::Str(r.name.into())),
                ("shortDescription", text(r.summary)),
                ("help", text(r.help)),
                (
                    "defaultConfiguration",
                    obj(vec![("level", Value::Str(level(r.severity).into()))]),
                ),
            ])
        })
        .collect();

    let results: Vec<Value> = report
        .findings
        .iter()
        .map(|f| {
            let region = obj(vec![
                ("startLine", Value::UInt(u64::from(f.line.max(1)))),
                ("startColumn", Value::UInt(u64::from(f.col.max(1)))),
            ]);
            let location = obj(vec![(
                "physicalLocation",
                obj(vec![
                    (
                        "artifactLocation",
                        obj(vec![("uri", Value::Str(f.path.clone()))]),
                    ),
                    ("region", region),
                ]),
            )]);
            let mut result = vec![("ruleId", Value::Str(f.rule.into()))];
            // A walk that found no sources is reported under a rule the
            // registry does not describe, so it carries no index.
            if let Some(ix) = RULES.iter().position(|r| r.name == f.rule) {
                result.push(("ruleIndex", Value::UInt(ix as u64)));
            }
            result.extend([
                ("level", Value::Str(level(f.severity).into())),
                ("message", text(&f.message)),
                ("locations", Value::Array(vec![location])),
            ]);
            obj(result)
        })
        .collect();

    let doc = obj(vec![
        (
            "$schema",
            Value::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("version", Value::Str("2.1.0".into())),
        (
            "runs",
            Value::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", Value::Str("cloudy-audit".into())),
                            ("informationUri", Value::Str("DESIGN.md".into())),
                            ("rules", Value::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Array(results)),
            ])]),
        ),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::LintFinding;

    fn sample() -> LintReport {
        LintReport {
            findings: vec![
                LintFinding {
                    rule: "nondet-time",
                    severity: Severity::Error,
                    path: "crates/x/src/lib.rs".into(),
                    line: 4,
                    col: 9,
                    message: "wall-clock read in deterministic code".into(),
                },
                LintFinding {
                    rule: "unwrap",
                    severity: Severity::Warning,
                    path: "crates/y/src/lib.rs".into(),
                    line: 12,
                    col: 1,
                    message: "unwrap in library code".into(),
                },
            ],
            files_scanned: 2,
        }
    }

    #[test]
    fn text_counts_findings_by_severity() {
        let s = render_text(&sample());
        assert!(s.contains("2 files"), "{s}");
        assert!(s.contains("2 fresh findings (1 errors, 1 warnings)\n"), "{s}");
        assert!(s.contains("[ERROR] crates/x/src/lib.rs:4"), "{s}");
        assert!(s.contains("[warn ] crates/y/src/lib.rs:12"), "{s}");
    }

    #[test]
    fn json_is_parseable_with_expected_counts() {
        let j = render_json(&sample());
        let doc = serde_json::parse(&j).expect("valid JSON");
        assert_eq!(doc.get("fresh"), Some(&Value::UInt(2)), "{j}");
        assert_eq!(doc.get("errors"), Some(&Value::UInt(1)), "{j}");
        assert_eq!(doc.get("warnings"), Some(&Value::UInt(1)), "{j}");
        let Some(Value::Array(fs)) = doc.get("findings") else { panic!("{j}") };
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let s = render_sarif(&sample());
        let doc = serde_json::parse(&s).expect("valid JSON");
        assert_eq!(doc.get("version"), Some(&Value::Str("2.1.0".into())), "{s}");
        let Some(Value::Array(runs)) = doc.get("runs") else { panic!("{s}") };
        let run = &runs[0];
        let Some(tool) = run.get("tool") else { panic!("{s}") };
        let Some(driver) = tool.get("driver") else { panic!("{s}") };
        let Some(Value::Array(rules)) = driver.get("rules") else { panic!("{s}") };
        assert_eq!(rules.len(), RULES.len(), "every registered rule is described");
        let Some(Value::Array(results)) = run.get("results") else { panic!("{s}") };
        assert_eq!(results.len(), 2);
        // Nothing in the report is suppressed, so no result says it is.
        assert!(results.iter().all(|r| r.get("suppressions").is_none()), "{s}");
        // Region lines are 1-based and present.
        assert!(s.contains("\"startLine\":4"), "{s}");
    }

    #[test]
    fn sarif_rule_index_matches_registry() {
        let mut report = sample();
        report.findings.push(LintFinding {
            rule: "no-sources",
            severity: Severity::Error,
            path: ".".into(),
            line: 0,
            col: 0,
            message: "no Rust sources under /empty".into(),
        });
        let s = render_sarif(&report);
        let doc = serde_json::parse(&s).expect("valid JSON");
        let Some(Value::Array(runs)) = doc.get("runs") else { panic!() };
        let Some(Value::Array(results)) = runs[0].get("results") else { panic!() };
        let Some(Value::UInt(ix)) = results[0].get("ruleIndex") else { panic!("{s}") };
        assert_eq!(RULES[*ix as usize].name, "nondet-time");
        assert!(results[2].get("ruleIndex").is_none(), "an unregistered rule has no index: {s}");
    }
}
