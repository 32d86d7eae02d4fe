//! The inter-cloud schedule: which region pairs are probed, when, and how
//! often.
//!
//! The roster holds a deterministic, seed-rotated selection of regions per
//! provider (all of [`Provider::FIGURE_NINE`] by default — the paper's
//! Table 1 set that CloudCast-style campaigns span). Every *directed*
//! roster pair is probed `samples_per_hour` times per campaign hour; the
//! executor then emits one record per [`cloudy_cloud::RouteClass`] per
//! task, so the private-vs-public gap is computable for every pair at
//! every hour.
//!
//! Each [`CloudTask`] names its source and destination region directly,
//! so a task is a stable identity on its own, and the block executor's
//! determinism contract needs nothing else.

use crate::error::IntercloudError;
use cloudy_cloud::{region, Provider, RegionId};
use cloudy_netsim::rng::mix;

/// One scheduled sample: `src` probes `dst` at campaign `hour`, over both
/// route planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloudTask {
    pub src: RegionId,
    pub dst: RegionId,
    pub hour: u64,
    /// Sequence number for flow derivation, unique per (pair, hour,
    /// sample).
    pub seq: u64,
}

/// Inter-cloud campaign parameters.
#[derive(Debug, Clone)]
pub struct IntercloudConfig {
    /// Seed for roster rotation and RTT sampling.
    pub seed: u64,
    /// Providers whose regions enter the roster (default: the paper's
    /// nine-provider figure set).
    pub providers: Vec<Provider>,
    /// Regions selected per provider (seed-rotated over its region list).
    pub regions_per_provider: usize,
    /// Campaign length in hours.
    pub hours: u64,
    /// Probes per directed pair per hour.
    pub samples_per_hour: u64,
    /// Worker threads for the block executor.
    pub threads: usize,
}

impl Default for IntercloudConfig {
    fn default() -> Self {
        IntercloudConfig {
            seed: 1,
            providers: Provider::FIGURE_NINE.to_vec(),
            regions_per_provider: 2,
            hours: 24,
            samples_per_hour: 2,
            threads: 1,
        }
    }
}

impl IntercloudConfig {
    /// Validate the knobs that would silently produce an empty or
    /// degenerate campaign.
    pub fn validate(&self) -> Result<(), IntercloudError> {
        if self.providers.is_empty() {
            return Err(IntercloudError::config("providers", "at least one provider required"));
        }
        if self.regions_per_provider == 0 {
            return Err(IntercloudError::config("regions_per_provider", "must be positive"));
        }
        if self.hours == 0 {
            return Err(IntercloudError::config("hours", "must be positive"));
        }
        if self.samples_per_hour == 0 {
            return Err(IntercloudError::config("samples_per_hour", "must be positive"));
        }
        Ok(())
    }
}

/// Build the campaign's source/destination region roster: for each
/// provider, a seed-rotated window of `regions_per_provider` of its
/// regions, in provider order. Deterministic in (seed, providers,
/// regions_per_provider); providers with fewer regions contribute all of
/// them.
pub fn roster(cfg: &IntercloudConfig) -> Vec<RegionId> {
    let mut out = Vec::new();
    for (pi, p) in cfg.providers.iter().enumerate() {
        let regions: Vec<RegionId> = region::of_provider(*p).map(|(id, _)| id).collect();
        if regions.is_empty() {
            continue;
        }
        let r0 = (mix(&[cfg.seed, pi as u64, 0xC10D]) % regions.len() as u64) as usize;
        for i in 0..cfg.regions_per_provider.min(regions.len()) {
            out.push(regions[(r0 + i) % regions.len()]);
        }
    }
    out
}

/// Build the task list: every directed roster pair, `samples_per_hour`
/// times per hour. `seq` is unique per (pair, campaign) — the flow id is
/// keyed by (src, dst, seq), so every sample draws fresh shared
/// randomness while the two route classes of one sample share it.
pub fn plan(cfg: &IntercloudConfig, roster: &[RegionId]) -> Vec<CloudTask> {
    let mut tasks = Vec::new();
    for hour in 0..cfg.hours {
        for &src in roster {
            for &dst in roster {
                if src == dst {
                    continue;
                }
                for rep in 0..cfg.samples_per_hour {
                    let seq = hour * cfg.samples_per_hour + rep;
                    tasks.push(CloudTask { src, dst, hour, seq });
                }
            }
        }
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_roster_spans_all_nine_providers() {
        let cfg = IntercloudConfig::default();
        let r = roster(&cfg);
        assert_eq!(r.len(), 9 * cfg.regions_per_provider);
        let provs: std::collections::BTreeSet<Provider> = r
            .iter()
            .map(|id| region::by_id(*id).map(|reg| reg.provider))
            .collect::<Option<_>>()
            .expect("roster regions are real");
        assert_eq!(provs.len(), 9);
        assert!(!provs.contains(&Provider::AmazonLightsail));
    }

    #[test]
    fn roster_is_deterministic_and_seed_sensitive() {
        let cfg = IntercloudConfig::default();
        assert_eq!(roster(&cfg), roster(&cfg));
        let other = IntercloudConfig { seed: 99, ..IntercloudConfig::default() };
        assert_ne!(roster(&cfg), roster(&other), "seed must rotate the roster");
    }

    #[test]
    fn plan_covers_every_directed_pair_each_hour() {
        let cfg = IntercloudConfig {
            regions_per_provider: 1,
            hours: 3,
            samples_per_hour: 2,
            ..IntercloudConfig::default()
        };
        let r = roster(&cfg);
        let tasks = plan(&cfg, &r);
        let n = r.len() as u64;
        assert_eq!(tasks.len() as u64, cfg.hours * n * (n - 1) * cfg.samples_per_hour);
        // Roster pairs only, no self-pairs, and seq is unique per (pair,
        // hour, rep).
        for t in &tasks {
            assert!(r.contains(&t.src) && r.contains(&t.dst));
            assert_ne!(t.src, t.dst);
            assert_eq!(t.seq / cfg.samples_per_hour, t.hour);
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = IntercloudConfig::default();
        assert!(ok.validate().is_ok());
        let bad = IntercloudConfig { providers: vec![], ..IntercloudConfig::default() };
        assert!(bad.validate().is_err());
        let bad = IntercloudConfig { regions_per_provider: 0, ..IntercloudConfig::default() };
        assert!(bad.validate().is_err());
        let bad = IntercloudConfig { hours: 0, ..IntercloudConfig::default() };
        assert!(bad.validate().is_err());
        let bad = IntercloudConfig { samples_per_hour: 0, ..IntercloudConfig::default() };
        assert!(bad.validate().is_err());
    }
}
