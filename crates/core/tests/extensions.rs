//! Tests for the future-work extensions and cross-cutting validation that
//! needs simulator ground truth: GeoIP detour error, artifact injection
//! effects on classification, and the experiment registry.

use cloudy_core::experiments::{self, ExperimentId};
use cloudy_core::{Study, StudyConfig};
use cloudy_geo::Continent;
use std::sync::OnceLock;

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        let mut cfg = StudyConfig::tiny(909);
        cfg.sc_fraction = 0.015;
        cfg.duration_days = 8;
        Study::run(cfg)
    })
}

#[test]
fn experiment_registry_is_complete_and_parseable() {
    let every = || ExperimentId::ALL.into_iter().chain(ExperimentId::ABLATIONS);
    for id in every() {
        assert_eq!(ExperimentId::parse(id.slug()), Some(id), "{:?}", id);
        assert!(!id.label().is_empty());
    }
    assert_eq!(ExperimentId::parse("FIG10"), Some(ExperimentId::Fig10Interconnect));
    assert_eq!(ExperimentId::parse("fig99"), None);
    // run_one produces non-empty artifacts for every id.
    let s = study();
    for id in every() {
        let artifact = experiments::run_one(s, id);
        assert!(artifact.len() > 50, "{:?} produced a trivial artifact", id);
    }
}

#[test]
fn geoip_detours_exceed_ground_truth_detours() {
    // The GeoDb anchors routers at network registration points; located
    // paths must therefore look *longer* (on average) than the true hop
    // geometry — the inaccuracy the paper cites for deferring this
    // analysis. Ground truth comes from rebuilding the probe's route.
    use cloudy_analysis::geoip::{path_geometry, probe_location, GeoDb};
    use cloudy_cloud::region;

    let s = study();
    let db = GeoDb::from_network(&s.sim.net);

    // Rebuild clients exactly as the campaign did.
    let world = cloudy_netsim::build::build(&cloudy_netsim::build::WorldConfig {
        seed: s.config.seed,
        isps_per_country: s.config.isps_per_country,
        countries: None,
    });
    let pop = cloudy_probes::speedchecker::population(
        &world,
        s.config.sc_fraction,
        s.config.seed ^ 0x5C,
    );
    let by_id: std::collections::HashMap<_, _> =
        pop.probes.iter().map(|p| (p.id, p)).collect();

    let mut geo_sum = 0.0;
    let mut true_sum = 0.0;
    let mut n = 0usize;
    for t in s.sc.traces.iter().take(3_000) {
        let (Some(src), Some(reg)) = (probe_location(t), region::by_id(t.region)) else {
            continue;
        };
        let dst = reg.location();
        if src.haversine_km(&dst) < 500.0 {
            continue;
        }
        let pin = [t.provider.asn()];
        let Some(geo) = path_geometry(t, &db, src, dst, &pin) else { continue };
        // Ground truth: the simulator's own hop locations.
        let Some(probe) = by_id.get(&t.probe) else { continue };
        let client = probe.client_ctx(&s.sim.net, &s.config.artifacts);
        let path = s.sim.route(&client, t.region);
        let mut true_km = 0.0;
        let mut prev = src;
        for h in &path.hops {
            true_km += prev.haversine_km(&h.location);
            prev = h.location;
        }
        true_km += prev.haversine_km(&dst);
        geo_sum += geo.detour_factor();
        true_sum += (true_km / src.haversine_km(&dst)).max(1.0);
        n += 1;
    }
    assert!(n > 200, "need located paths, got {n}");
    let geo_mean = geo_sum / n as f64;
    let true_mean = true_sum / n as f64;
    assert!(
        geo_mean > true_mean,
        "GeoIP detours ({geo_mean:.2}) should exceed ground truth ({true_mean:.2})"
    );
    assert!((1.0..6.0).contains(&true_mean), "true detour mean {true_mean:.2}");
}

#[test]
fn clean_artifacts_make_access_inference_nearly_perfect() {
    // With CGN and VPN injection disabled, the §5 classifier should agree
    // with ground truth almost always (residual error: silent home routers).
    use cloudy_analysis::lastmile::{infer, InferredAccess};
    use cloudy_analysis::Resolver;
    use cloudy_lastmile::{AccessType, ArtifactConfig};

    let mut cfg = StudyConfig::tiny(910);
    cfg.sc_fraction = 0.01;
    cfg.duration_days = 5;
    cfg.artifacts = ArtifactConfig::clean();
    let s = Study::run(cfg);
    let resolver = Resolver::new(&s.sim.net.prefixes);
    let mut agree = 0usize;
    let mut total = 0usize;
    for t in &s.sc.traces {
        let Some(lm) = infer(t, &resolver) else { continue };
        total += 1;
        let truth_home = t.access == AccessType::WifiHome;
        if truth_home == (lm.access == InferredAccess::Home) {
            agree += 1;
        }
    }
    assert!(total > 300, "need traces");
    let acc = agree as f64 / total as f64;
    assert!(acc > 0.96, "clean-mode inference accuracy {acc}");
}

#[test]
fn early_5g_probes_flow_through_the_pipeline() {
    // A campaign over a 5G-enabled population measures slightly lower
    // cellular-class last-mile latencies.
    use cloudy_analysis::lastmile::{infer, InferredAccess};
    use cloudy_analysis::{stats, Resolver};
    use cloudy_lastmile::ArtifactConfig;
    use cloudy_measure::campaign::{run_campaign, CampaignConfig};
    use cloudy_measure::plan::PlanConfig;
    use cloudy_netsim::build::{build, WorldConfig};
    use cloudy_netsim::Simulator;
    use cloudy_probes::speedchecker::{population_with, PopulationOptions};

    let world = build(&WorldConfig { seed: 911, isps_per_country: 2, countries: None });
    let pop = population_with(
        &world,
        0.01,
        911,
        PopulationOptions { wired_share: 0.0, five_g_share: 1.0 },
    );
    let sim = Simulator::new(world.net);
    let cfg = CampaignConfig {
        plan: PlanConfig { seed: 911, duration_days: 4, min_probes_per_country: 2, ..Default::default() },
        artifacts: ArtifactConfig::clean(),
        threads: 4,
        route_cache: true,
        faults: cloudy_netsim::FaultProfile::none(),
        ..CampaignConfig::default()
    };
    let ds = run_campaign(&cfg, &sim, &pop);
    let resolver = Resolver::new(&sim.net.prefixes);
    let mut cell5g = Vec::new();
    for t in &ds.traces {
        if t.access == cloudy_lastmile::AccessType::Cellular5g {
            if let Some(lm) = infer(t, &resolver) {
                if lm.access == InferredAccess::Cell {
                    cell5g.push(lm.usr_isp_ms);
                }
            }
        }
    }
    assert!(cell5g.len() > 100, "need 5G last-mile samples, got {}", cell5g.len());
    let med = stats::median(&cell5g).expect("nonempty");
    // Slightly below LTE's ~22-25 ms, still far from 1 ms.
    assert!((14.0..=24.0).contains(&med), "5G last-mile median {med}");
}

#[test]
fn continents_in_study_datasets_are_consistent() {
    let s = study();
    for p in &s.sc.pings {
        let c = cloudy_geo::country::lookup(p.country).expect("known country");
        assert_eq!(c.continent, p.continent);
    }
    // Every continent with probes produced data.
    let conts: std::collections::HashSet<Continent> =
        s.sc.pings.iter().map(|p| p.continent).collect();
    assert!(conts.len() >= 4, "only {:?}", conts);
}
