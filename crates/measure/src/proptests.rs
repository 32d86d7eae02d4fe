//! Property-based tests: the scheduler must stay within its invariants for
//! arbitrary configurations. Arbitrary records round-trip through the store
//! in `cloudy-store`'s `tests/roundtrip.rs`.

use crate::plan::{self, PlanConfig, TaskKind};
use cloudy_cloud::RegionId;
use cloudy_geo::CountryCode;
use cloudy_netsim::build::{build, BuiltWorld, WorldConfig};
use cloudy_probes::Population;
use proptest::prelude::*;
use std::sync::OnceLock;

fn population() -> &'static (BuiltWorld, Population) {
    static POP: OnceLock<(BuiltWorld, Population)> = OnceLock::new();
    POP.get_or_init(|| {
        let w = build(&WorldConfig {
            seed: 5,
            isps_per_country: 2,
            countries: Some(
                ["DE", "JP", "BR", "KE", "US"].iter().map(|c| CountryCode::new(c)).collect(),
            ),
        });
        let pop = cloudy_probes::speedchecker::population(&w, 0.02, 5);
        (w, pop)
    })
}

fn arb_plan_config() -> impl Strategy<Value = PlanConfig> {
    (
        any::<u64>(),
        1u32..8,
        1u32..8,
        1usize..6,
        1usize..16,
        1usize..10,
        1usize..5,
        20u32..500,
    )
        .prop_map(
            |(seed, days, cycle, minp, ppd, rpp, spm, quota)| PlanConfig {
                seed,
                duration_days: days,
                cycle_days: cycle,
                min_probes_per_country: minp,
                probes_per_country_day: ppd,
                regions_per_probe: rpp,
                samples_per_measurement: spm,
                quota_per_day: quota,
                census_reserve: 6.min(quota),
                kinds: crate::plan::TaskKindSet::BOTH,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plans_respect_invariants(cfg in arb_plan_config()) {
        let (_, pop) = population();
        let m = plan::plan(&cfg, pop);
        // Tasks reference valid probes and regions and stay within the
        // campaign window.
        let mut ping_grants: std::collections::HashMap<u64, std::collections::HashSet<(u32, RegionId, u64)>> =
            Default::default();
        for t in &m.tasks {
            prop_assert!((t.probe_ix as usize) < pop.probes.len());
            prop_assert!(cloudy_cloud::region::by_id(t.region).is_some());
            let day = t.hour / 24;
            prop_assert!(day < cfg.duration_days as u64);
            if matches!(t.kind, TaskKind::Ping(_)) {
                // Group samples back into grants (same probe, region, day).
                ping_grants.entry(day).or_default().insert((t.probe_ix, t.region, t.seq / 16));
            }
        }
        // Per-day measurement grants never exceed the quota.
        for (day, grants) in ping_grants {
            prop_assert!(
                grants.len() as u32 <= cfg.quota_per_day,
                "day {day}: {} grants > quota {}",
                grants.len(),
                cfg.quota_per_day
            );
        }
        // Pings and traceroutes stay paired.
        let pings = m.tasks.iter().filter(|t| matches!(t.kind, TaskKind::Ping(_))).count();
        let traces = m.tasks.iter().filter(|t| matches!(t.kind, TaskKind::Traceroute(_))).count();
        prop_assert_eq!(pings, traces);
    }

    #[test]
    fn plans_are_deterministic(cfg in arb_plan_config()) {
        let (_, pop) = population();
        let a = plan::plan(&cfg, pop);
        let b = plan::plan(&cfg, pop);
        prop_assert_eq!(a.tasks, b.tasks);
    }
}
