//! Appendix A.3's stated future work: "We plan to conduct measurements over
//! Speedchecker wired probes in future to thoroughly investigate the effect
//! of deployment (managed vs home) on end-to-end cloud latency."
//!
//! The real platform is ~11 % router/PC (wired) probes that the paper
//! excluded. Here we include them: build a mixed population, run the
//! campaign, and compare three groups to *the same* datacenters —
//! Speedchecker wireless, Speedchecker wired (home deployment, wired
//! access), and RIPE Atlas (managed deployment, wired access). The
//! three-way split separates access technology from deployment management.
//!
//! ```sh
//! cargo run --release --example wired_speedchecker
//! ```

use cloudy::analysis::report::{ms, Table};
use cloudy::analysis::{nearest, stats};
use cloudy::cloud::region;
use cloudy::geo::Continent;
use cloudy::lastmile::AccessType;
use cloudy::measure::campaign::{run_campaign, CampaignConfig};
use cloudy::measure::plan::PlanConfig;
use cloudy::netsim::build::{build, WorldConfig};
use cloudy::netsim::Simulator;
use cloudy::probes::speedchecker::{self, PopulationOptions};
use cloudy::probes::{atlas, Platform};
use std::collections::HashMap;

fn main() {
    let seed = 42;
    let world = build(&WorldConfig { seed, isps_per_country: 3, countries: None });
    // 11% wired probes, as on the real platform.
    let sc = speedchecker::population_with(
        &world,
        0.02,
        seed ^ 0x5C,
        PopulationOptions { wired_share: 0.11, five_g_share: 0.0 },
    );
    let at = atlas::population(&world, 0.25, seed ^ 0xA7);
    let sim = Simulator::new(world.net);
    let plan = PlanConfig { seed, duration_days: 8, min_probes_per_country: 2, ..Default::default() };
    // Default artifacts: realistic CGN/VPN shares.
    let cfg = CampaignConfig { plan, threads: 8, ..Default::default() };
    println!("running mixed-access Speedchecker + Atlas campaigns...\n");
    let sc_ds = run_campaign(&cfg, &sim, &sc);
    let at_ds = run_campaign(&cfg, &sim, &at);

    // Nearest same-continent DC per probe, per dataset.
    let near_of = |ds: &cloudy::measure::Dataset| {
        nearest::nearest_by_mean(&ds.pings, |p| {
            region::by_id(p.region).map(|r| r.continent() == p.continent).unwrap_or(false)
        })
    };
    let sc_near = near_of(&sc_ds);
    let at_near = near_of(&at_ds);

    // Group medians per continent.
    let mut groups: HashMap<(Continent, &'static str), Vec<f64>> = HashMap::new();
    for p in nearest::samples_to_nearest(&sc_ds.pings, &sc_near) {
        let Some(rtt) = p.rtt_ms() else { continue };
        let group = if p.access == AccessType::Wired { "SC wired" } else { "SC wireless" };
        groups.entry((p.continent, group)).or_default().push(rtt);
    }
    for p in nearest::samples_to_nearest(&at_ds.pings, &at_near) {
        debug_assert_eq!(p.platform, Platform::RipeAtlas);
        let Some(rtt) = p.rtt_ms() else { continue };
        groups.entry((p.continent, "Atlas")).or_default().push(rtt);
    }

    let mut table = Table::new(vec![
        "Continent",
        "SC wireless [ms]",
        "SC wired [ms]",
        "Atlas [ms]",
        "access effect",
        "deployment effect",
    ]);
    let mut conts: Vec<Continent> = Continent::ALL.to_vec();
    conts.sort();
    for c in conts {
        let med = |g: &str| groups.get(&(c, g)).filter(|v| v.len() >= 10).and_then(|v| stats::median(v));
        let (Some(wless), Some(wired), Some(atl)) =
            (med("SC wireless"), med("SC wired"), med("Atlas"))
        else {
            continue;
        };
        table.add_row(vec![
            c.code().to_string(),
            ms(wless),
            ms(wired),
            ms(atl),
            // Same deployment, different access.
            format!("{:+.1}", wless - wired),
            // Same access, different deployment (incl. placement bias).
            format!("{:+.1}", wired - atl),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: the access effect (wireless minus wired, same home deployment) is the\n\
         ~10-15 ms the last-mile model predicts; what remains between SC-wired and Atlas\n\
         is deployment — managed hosting and DC-adjacent placement — the paper's A.3\n\
         hypothesis, now measurable."
    );
}
