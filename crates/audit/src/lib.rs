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
//! * **`cloudy-repro audit`**, the [`AuditDriver`], fails on any
//!   error-severity finding of its two passes:
//!   1. **world audit** ([`world`]) builds the simulated Internet and
//!      checks its structural invariants: Tier-1 clique, prefix-table
//!      consistency and overlap-freedom, IXP membership, universal
//!      reachability, policy realisation, Table 1 reconciliation, a
//!      full-RIB Gao–Rexford valley-free sweep, and the §3 last-mile
//!      calibration contract.
//!   2. **race check** ([`racecheck`]) runs a small campaign at 1 and N
//!      threads and demands byte-identical datasets.
//!
//! detlint is built on a hand-written, lossless Rust lexer ([`lexer`]) and
//! a rule registry of token-level passes ([`lints`]). The source gate
//! reports through [`LintReport`] (file, line and column per finding),
//! rendered as text, JSON, or SARIF 2.1.0 ([`output`]); the driver's
//! passes report through [`Finding`]/[`AuditReport`] (which migrated here
//! from `cloudy-netsim::audit` when the audit outgrew world checking).

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
