//! The audit driver: runs the world and race-check passes and folds their
//! findings into one report.
//!
//! Each pass has a stable name and a dedicated CI exit code (see
//! [`AuditPass`]) so a red pipeline says *which* gate failed:
//!
//! | pass        | exit | what it guards                                  |
//! |-------------|------|-------------------------------------------------|
//! | `world`     | 11   | structural invariants of the built world         |
//! | `racecheck` | 12   | byte-identical campaigns across thread counts    |
//!
//! The source lints and the wire freeze are not passes here: they run
//! only under `cloudy-repro audit lint` ([`crate::detlint::lint_workspace`]
//! and [`crate::wirefreeze::check_workspace`]), which exits 10 or 13.

use crate::finding::AuditReport;
use crate::racecheck::{race_check, RaceConfig};
use crate::world;
use cloudy_netsim::build::{build, BuiltWorld, WorldConfig};

/// The driver's passes, in the order [`AuditDriver::run_per_pass`] runs them.
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

/// What to audit and how.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// World seed for the invariant + race passes.
    pub seed: u64,
    /// Audit the full 195-country world instead of the 4-country
    /// representative one. Slower; CI uses the small world.
    pub global_world: bool,
    /// Thread count for the parallel leg of the race check.
    pub race_threads: usize,
    /// Skip the campaign race check (world invariants only).
    pub skip_race: bool,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions { seed: 1, global_world: false, race_threads: 8, skip_race: false }
    }
}

/// Runs the configured audit passes.
pub struct AuditDriver {
    opts: AuditOptions,
}

impl AuditDriver {
    pub fn new(opts: AuditOptions) -> Self {
        AuditDriver { opts }
    }

    /// Pass `world`: structural invariants over a freshly built world.
    pub fn run_world(&self) -> AuditReport {
        world::audit(&self.build_world())
    }

    /// Pass `racecheck`: 1-vs-N-thread campaign determinism.
    pub fn run_race(&self) -> AuditReport {
        if self.opts.skip_race {
            return AuditReport::default();
        }
        race_check(&RaceConfig { seed: self.opts.seed, threads: self.opts.race_threads })
    }

    /// Run one pass by identity.
    pub fn run_pass(&self, pass: AuditPass) -> AuditReport {
        match pass {
            AuditPass::World => self.run_world(),
            AuditPass::RaceCheck => self.run_race(),
        }
    }

    /// Run all passes, reporting per-pass results so callers (the CLI)
    /// can exit with the first failing pass's dedicated code.
    pub fn run_per_pass(&self) -> Vec<(AuditPass, AuditReport)> {
        AuditPass::ALL.into_iter().map(|p| (p, self.run_pass(p))).collect()
    }

    fn build_world(&self) -> BuiltWorld {
        if self.opts.global_world {
            build(&WorldConfig { seed: self.opts.seed, ..WorldConfig::default() })
        } else {
            build(&WorldConfig {
                seed: self.opts.seed,
                isps_per_country: 2,
                countries: Some(
                    ["DE", "JP", "BR", "KE"]
                        .iter()
                        .map(|c| cloudy_geo::CountryCode::new(c))
                        .collect(),
                ),
            })
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

    #[test]
    fn per_pass_reports_cover_all_passes() {
        let driver = AuditDriver::new(AuditOptions { skip_race: true, ..Default::default() });
        let reports = driver.run_per_pass();
        let passes: Vec<_> = reports.iter().map(|(p, _)| *p).collect();
        assert_eq!(passes, AuditPass::ALL);
        assert!(reports.iter().all(|(_, r)| r.is_clean()));
        // World checks ran; `skip_race` (`audit --static`) skipped the race.
        assert!(reports[0].1.checks_run >= 10, "only {} checks ran", reports[0].1.checks_run);
        assert_eq!(reports[1].1.checks_run, 0);
    }
}
