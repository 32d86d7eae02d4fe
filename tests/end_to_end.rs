//! Cross-crate integration: world → probes → campaign → dataset →
//! analysis, exercised through the public `cloudy` facade.

use cloudy::analysis::{peering, AsLevelPath, Resolver};
use cloudy::geo::CountryCode;
use cloudy::lastmile::ArtifactConfig;
use cloudy::measure::campaign::{run_campaign, CampaignConfig};
use cloudy::measure::plan::PlanConfig;
use cloudy::measure::Dataset;
use cloudy::netsim::build::{build, WorldConfig};
use cloudy::netsim::Simulator;
use cloudy::probes::speedchecker;

fn small_campaign() -> (Simulator, Dataset) {
    let world = build(&WorldConfig {
        seed: 99,
        isps_per_country: 2,
        countries: Some(
            ["DE", "GB", "US", "JP", "BR", "ZA"].iter().map(|c| CountryCode::new(c)).collect(),
        ),
    });
    let pop = speedchecker::population(&world, 0.01, 99);
    let sim = Simulator::new(world.net);
    let cfg = CampaignConfig {
        plan: PlanConfig { seed: 99, duration_days: 4, min_probes_per_country: 2, ..Default::default() },
        artifacts: ArtifactConfig::realistic(),
        threads: 3,
        route_cache: true,
        faults: cloudy::netsim::FaultProfile::none(),
        ..CampaignConfig::default()
    };
    let ds = run_campaign(&cfg, &sim, &pop);
    (sim, ds)
}

#[test]
fn campaign_to_analysis_round_trip() {
    let (sim, ds) = small_campaign();
    assert!(!ds.pings.is_empty());
    // Ping loss (the loss model) removes a small share of ping records;
    // traceroutes always record.
    assert!(ds.pings.len() <= ds.traces.len());
    let loss = 1.0 - ds.pings.len() as f64 / ds.traces.len() as f64;
    assert!(loss < 0.08, "ping loss {loss}");

    // Every traceroute resolves to a classifiable AS-level path whose first
    // AS is the probe's serving ISP and whose last AS is the provider.
    let resolver = Resolver::new(&sim.net.prefixes);
    let mut classified = 0usize;
    for t in ds.traces.iter().take(500) {
        let path = AsLevelPath::from_trace(t, &resolver, &sim.net.ixps);
        if let Some(_kind) = peering::classify(&path) {
            classified += 1;
            assert_eq!(path.first_as(), Some(t.isp), "first AS should be the ISP");
            assert_eq!(
                path.last_as(),
                Some(t.provider.asn()),
                "last AS should be the provider"
            );
        }
    }
    // Hop non-response can break a few paths, never most.
    assert!(classified > 450, "only {classified}/500 classifiable");
}

#[test]
fn rtts_are_physically_sane() {
    let (_sim, ds) = small_campaign();
    for p in &ds.pings {
        let rtt = p.rtt_ms().expect("zero-fault campaign records only delivered pings");
        assert!(rtt > 1.0, "impossibly fast: {rtt}");
        assert!(rtt < 3_000.0, "impossibly slow: {rtt}");
    }
    for t in &ds.traces {
        // Destination always responds, and per-hop RTTs are positive.
        assert!(t.end_to_end_ms().expect("dest responds") > 1.0);
        for h in t.responding() {
            assert!(h.rtt_ms.expect("responding has rtt") > 0.0);
        }
    }
}

#[test]
fn traceroute_rtts_roughly_increase_with_ttl() {
    // Per-hop inflation means strict monotonicity doesn't hold (as in real
    // traceroutes), but the destination must not be faster than the first
    // hop in the vast majority of traces.
    let (_sim, ds) = small_campaign();
    let mut sane = 0usize;
    let mut total = 0usize;
    for t in &ds.traces {
        let responding: Vec<f64> = t.responding().map(|h| h.rtt_ms.expect("rtt")).collect();
        if responding.len() < 2 {
            continue;
        }
        total += 1;
        if responding.last().expect("nonempty") >= responding.first().expect("nonempty") {
            sane += 1;
        }
    }
    assert!(total > 100);
    assert!(
        sane as f64 / total as f64 > 0.95,
        "only {sane}/{total} traces end slower than they start"
    );
}

#[test]
fn probe_source_addresses_belong_to_their_isp() {
    let (sim, ds) = small_campaign();
    for t in ds.traces.iter().take(300) {
        assert_eq!(
            sim.net.prefixes.lookup(t.src_ip),
            Some(t.isp),
            "probe {:?} src {} not in ISP space",
            t.probe,
            t.src_ip
        );
    }
}
