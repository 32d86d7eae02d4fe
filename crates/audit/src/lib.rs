//! # cloudy-audit — workspace-wide static analysis
//!
//! Three audit passes guard the reproduction's two load-bearing claims —
//! *determinism* (same seed, same bytes) and *fidelity* (the simulated
//! world matches the paper's Table 1 / §3 / §6 ground truth):
//!
//! 1. **detlint** ([`detlint`]) — scans the workspace's Rust sources for
//!    determinism hazards (wall-clock reads, OS-entropy RNGs, unordered
//!    map iteration feeding results) and robustness smells (`unwrap`/
//!    `expect`/`panic!` in library code). Findings are suppressible per
//!    line with `// audit:allow(<rule>)` or per path in `audit.toml`.
//! 2. **world audit** ([`world`]) — builds the simulated Internet and
//!    checks its structural invariants: Tier-1 clique, prefix-table
//!    consistency and overlap-freedom, IXP membership, universal
//!    reachability, policy realisation, Table 1 reconciliation, a
//!    full-RIB Gao–Rexford valley-free sweep, and the §3 last-mile
//!    calibration contract.
//! 3. **race check** ([`racecheck`]) — runs a small campaign at 1 and N
//!    threads and demands byte-identical datasets.
//! 4. **wire freeze** ([`wirefreeze`]) — extracts the serialized shapes of
//!    the measurement records and the chunk-store format (derive fields,
//!    hand-written serde keys, magic/tag constants) and diffs them against
//!    the committed `wire.lock`, so serde drift fails statically.
//!
//! detlint is built on a hand-written, lossless Rust lexer ([`lexer`]) and
//! a rule registry of token-level passes ([`lints`]), with suppression via
//! inline pragmas and `audit.toml`. Reports render as text, JSON, or SARIF
//! 2.1.0 ([`output`]).
//!
//! [`AuditDriver`] orchestrates all passes; the `cloudy-repro audit`
//! subcommand and the CI gate are thin wrappers around it. All passes
//! report through the shared [`Finding`]/[`AuditReport`] model (which
//! migrated here from `cloudy-netsim::audit` when the audit outgrew world
//! checking); "clean" means zero error-severity findings, and the lint
//! gate is stricter still: zero findings of any severity.

pub mod detlint;
pub mod driver;
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

pub use driver::{AuditDriver, AuditOptions, AuditPass};
pub use error::AuditError;
pub use finding::{AuditReport, Finding, Severity};
pub use lints::{LintFinding, LintReport};

use cloudy_netsim::build::BuiltWorld;

/// Audit an already-built world (compatibility shim for callers that held
/// a world before `cloudy-netsim::audit` moved here).
pub fn audit(world: &BuiltWorld) -> AuditReport {
    crate::world::audit(world)
}
