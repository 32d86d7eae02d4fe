//! Property-based tests: the scheduler must stay within its invariants for
//! arbitrary configurations, and the dataset codecs must round-trip
//! arbitrary record contents.

use crate::dataset::Dataset;
use crate::plan::{self, PlanConfig, TaskKind};
use crate::record::{outcome_for_hops, HopRecord, PingRecord, TaskOutcome, TracerouteRecord};
use cloudy_cloud::{Provider, RegionId};
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_netsim::build::{build, BuiltWorld, WorldConfig};
use cloudy_netsim::Protocol;
use cloudy_probes::{Platform, Population, ProbeId};
use cloudy_topology::Asn;
use proptest::prelude::*;
use std::net::Ipv4Addr;
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

    #[test]
    fn jsonl_round_trips_arbitrary_records(
        rtts in prop::collection::vec(0.01f64..10_000.0, 1..20),
        hops in prop::collection::vec(
            proptest::option::of((any::<u32>(), 0.0f64..1_000.0)),
            0..12,
        ),
        hour in 0u64..100_000,
        city in "[a-zA-Z ]{0,24}",
    ) {
        let mut ds = Dataset::new(Platform::Speedchecker);
        for (i, rtt) in rtts.iter().enumerate() {
            ds.pings.push(PingRecord {
                probe: ProbeId(i as u64),
                platform: Platform::Speedchecker,
                country: CountryCode::new("DE"),
                continent: Continent::Europe,
                city: city.clone(),
                isp: Asn(3320),
                access: AccessType::WifiHome,
                region: RegionId((i % 195) as u16),
                provider: Provider::Google,
                proto: Protocol::Tcp,
                // Cycle through every outcome class so the codecs round-trip
                // failures as faithfully as deliveries.
                outcome: match i % 5 {
                    0 => TaskOutcome::Ok(*rtt),
                    1 => TaskOutcome::Lost,
                    2 => TaskOutcome::Timeout(*rtt),
                    3 => TaskOutcome::ProbeOffline,
                    _ => TaskOutcome::RateLimited,
                },
                hour,
            });
        }
        let hops: Vec<HopRecord> = hops
            .into_iter()
            .enumerate()
            .map(|(i, h)| HopRecord {
                ttl: (i + 1) as u8,
                ip: h.map(|(ip, _)| Ipv4Addr::from(ip)),
                rtt_ms: h.map(|(_, r)| r),
            })
            .collect();
        let outcome = outcome_for_hops(&hops);
        ds.traces.push(TracerouteRecord {
            probe: ProbeId(0),
            platform: Platform::Speedchecker,
            country: CountryCode::new("DE"),
            continent: Continent::Europe,
            city,
            isp: Asn(3320),
            access: AccessType::Cellular,
            region: RegionId(0),
            provider: Provider::Vultr,
            proto: Protocol::Icmp,
            src_ip: Ipv4Addr::new(11, 0, 0, 1),
            hops,
            outcome,
            hour,
        });
        let jsonl = Dataset::from_jsonl(&ds.to_jsonl()).unwrap();
        prop_assert_eq!(&jsonl, &ds);
    }
}
