//! # cloudy-audit — workspace-wide static analysis
//!
//! The audit guards the reproduction's two load-bearing claims —
//! *determinism* (same seed, same bytes) and *fidelity* (the simulated
//! world matches the paper's Table 1 / §3 / §6 ground truth) — with two
//! gates:
//!
//! * **`cloudy-repro audit lint`**, the source gate, fails on any finding:
//!   1. **detlint** ([`detlint`]) scans the workspace's Rust sources for
//!      determinism hazards (wall-clock reads, OS-entropy RNGs, unordered
//!      map iteration feeding results) and robustness smells (`unwrap`/
//!      `expect`/`panic!` in library code). The one way to suppress a
//!      finding is an inline pragma naming its rule (see [`lints`]).
//!   2. **wire freeze** ([`wirefreeze`]) extracts the serialized shapes
//!      of the measurement records and the chunk-store format (derive
//!      fields, hand-written serde keys, magic/tag constants) and diffs
//!      them against the committed `wire.lock`, so serde drift fails
//!      statically.
//! * **`cloudy-repro audit`** fails on any error-severity finding of its
//!   two passes ([`AuditPass`]):
//!   1. **world audit** ([`world`]) builds the simulated Internet and
//!      checks its structural invariants: Tier-1 clique, prefix-table
//!      consistency and overlap-freedom, IXP membership, universal
//!      reachability, policy realisation, Table 1 reconciliation, a
//!      full-RIB Gao–Rexford valley-free sweep, and the §3 last-mile
//!      calibration contract.
//!   2. **race check** ([`racecheck`]) runs every plane (campaign, serve,
//!      query, inter-cloud, placement) at 1 and N threads, with and
//!      without the route cache and instrumentation, and demands
//!      byte-identical outputs.
//!
//! detlint is built on a hand-written, lossless Rust lexer ([`lexer`]) and
//! a rule registry of token-level passes ([`lints`]). The source gate
//! reports through [`LintReport`] (file, line and column per finding),
//! rendered as text, JSON, or SARIF 2.1.0 ([`output`]); the two passes
//! report through [`Finding`]/[`AuditReport`] (which migrated here
//! from `cloudy-netsim::audit` when the audit outgrew world checking).

pub mod detlint;
pub mod error;
pub mod finding;
pub mod lexer;
pub mod lints;
pub mod output;
#[cfg(test)]
mod proptests;
pub mod racecheck;
pub mod wirefreeze;
pub mod world;

pub use error::AuditError;
pub use finding::{AuditReport, Finding, Severity};
pub use lints::{LintFinding, LintReport};

/// The passes of `cloudy-repro audit`, in the order it runs them. Each
/// has a stable name and its own exit code, so a red pipeline says which
/// gate failed: `world` (11) checks the structural invariants of the built
/// world ([`world::audit`]), and `racecheck` (12) holds every plane's
/// output bytes to a reference run ([`racecheck::race_check`]). The source
/// lints and the wire freeze are not passes: they run only under
/// `cloudy-repro audit lint`, which exits 10 or 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditPass {
    World,
    RaceCheck,
}

impl AuditPass {
    pub const ALL: [AuditPass; 2] = [AuditPass::World, AuditPass::RaceCheck];

    /// The stable CLI/CI name (`--pass <name>`).
    pub fn name(self) -> &'static str {
        match self {
            AuditPass::World => "world",
            AuditPass::RaceCheck => "racecheck",
        }
    }

    pub fn from_name(name: &str) -> Option<AuditPass> {
        AuditPass::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The documented process exit code when this pass fails.
    pub fn exit_code(self) -> i32 {
        match self {
            AuditPass::World => 11,
            AuditPass::RaceCheck => 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_names_and_exit_codes_are_stable() {
        let names: Vec<_> = AuditPass::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["world", "racecheck"]);
        let codes: Vec<_> = AuditPass::ALL.iter().map(|p| p.exit_code()).collect();
        assert_eq!(codes, vec![11, 12]);
        for p in AuditPass::ALL {
            assert_eq!(AuditPass::from_name(p.name()), Some(p));
        }
        for gone in ["detlint", "wire-freeze", "nope"] {
            assert_eq!(AuditPass::from_name(gone), None, "{gone}");
        }
    }
}
