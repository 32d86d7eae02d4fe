//! The finding model of the `cloudy-repro audit` passes.
//!
//! Both passes ([`crate::AuditPass`]) — world invariants and the race
//! check — report through the same [`Finding`]/[`AuditReport`] types, so
//! the command has one notion of "clean": at least one check ran, and no
//! finding is an error.
//! (The source gate, `audit lint`, reports through
//! [`crate::lints::LintReport`] instead.) These types started life in
//! `cloudy-netsim::audit` and moved here when the audit grew beyond world
//! checking.

use serde::Serialize;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The workspace or world is unusable for experiments.
    Error,
    /// Suspicious but not necessarily wrong.
    Warning,
}

impl Severity {
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Error => "ERROR",
            Severity::Warning => "warn",
        }
    }
}

/// One audit finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub severity: Severity,
    /// Which check produced it (a stable, machine-matchable name).
    pub check: &'static str,
    pub detail: String,
}

/// The audit report: findings plus how many checks actually ran, so an
/// accidentally-skipped pass cannot masquerade as a clean one.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    pub checks_run: usize,
}

impl AuditReport {
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Warning)
    }

    /// Clean means at least one check ran and no finding is an error;
    /// warnings are advisory.
    pub fn is_clean(&self) -> bool {
        self.checks_run > 0 && self.errors().count() == 0
    }

    pub fn push(&mut self, severity: Severity, check: &'static str, detail: String) {
        self.findings.push(Finding { severity, check, detail });
    }

    /// Fold another pass's report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks_run += other.checks_run;
        self.findings.extend(other.findings);
    }

    /// Render for the CLI.
    pub fn render(&self) -> String {
        let mut out = format!(
            "audit: {} checks, {} errors, {} warnings\n",
            self.checks_run,
            self.errors().count(),
            self.warnings().count()
        );
        for f in &self.findings {
            out.push_str(&format!("  [{}] {}: {}\n", f.severity.label(), f.check, f.detail));
        }
        out
    }

    /// Render as a JSON document (for tooling / CI annotations).
    pub fn render_json(&self) -> String {
        let doc = JsonReport {
            checks_run: self.checks_run,
            errors: self.errors().count(),
            warnings: self.warnings().count(),
            findings: self
                .findings
                .iter()
                .map(|f| JsonFinding {
                    severity: f.severity.label().to_string(),
                    check: f.check.to_string(),
                    detail: f.detail.clone(),
                })
                .collect(),
        };
        serde_json::to_string(&doc).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

#[derive(Serialize)]
struct JsonFinding {
    severity: String,
    check: String,
    detail: String,
}

#[derive(Serialize)]
struct JsonReport {
    checks_run: usize,
    errors: usize,
    warnings: usize,
    findings: Vec<JsonFinding>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_has_no_errors() {
        let mut r = AuditReport { checks_run: 3, ..Default::default() };
        assert!(r.is_clean());
        r.push(Severity::Warning, "w", "advisory".into());
        assert!(r.is_clean(), "warnings do not dirty a report");
        r.push(Severity::Error, "e", "fatal".into());
        assert!(!r.is_clean());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
    }

    #[test]
    fn a_report_that_ran_no_check_is_not_clean() {
        let mut r = AuditReport::default();
        assert!(!r.is_clean(), "a skipped pass must not read as clean");
        r.merge(AuditReport { checks_run: 1, ..Default::default() });
        assert!(r.is_clean());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AuditReport { findings: vec![], checks_run: 2 };
        let mut b = AuditReport { checks_run: 3, ..Default::default() };
        b.push(Severity::Error, "x", "boom".into());
        a.merge(b);
        assert_eq!(a.checks_run, 5);
        assert_eq!(a.findings.len(), 1);
    }

    #[test]
    fn render_mentions_counts_and_labels() {
        let mut r = AuditReport { checks_run: 1, ..Default::default() };
        r.push(Severity::Error, "graph", "clique broken".into());
        let s = r.render();
        assert!(s.contains("1 checks"));
        assert!(s.contains("[ERROR] graph: clique broken"));
    }

    #[test]
    fn json_renders_findings() {
        let mut r = AuditReport { checks_run: 2, ..Default::default() };
        r.push(Severity::Warning, "calibration", "KE cellular median drifted".into());
        let j = r.render_json();
        assert!(j.contains("\"checks_run\":2"), "{j}");
        assert!(j.contains("\"severity\":\"warn\""), "{j}");
        assert!(j.contains("calibration"), "{j}");
    }
}
