//! World audit: invariant checks over an assembled [`Network`].
//!
//! A reproduction is only as trustworthy as its world; these checks
//! validate the structural invariants every experiment silently assumes.
//! The original six checks (regions, graph, prefixes, IXPs, reachability,
//! policy realisation) migrated here from `cloudy-netsim::audit`; this
//! module adds the deeper passes the issue tracker calls the "static world
//! auditor":
//!
//! * a **full-RIB valley-free sweep** — propagate BGP routes to *every*
//!   destination with [`cloudy_topology::bgp::routes_to`] and verify each
//!   selected path is Gao–Rexford valley-free, loop-free, and endpoint-
//!   correct;
//! * **prefix-table consistency** — no two ASes announce overlapping
//!   space, and longest-prefix-match resolves every announcement (and no
//!   IXP fabric) back to its owner;
//! * **Table 1 reconciliation** — the built world's region endpoints match
//!   the paper's deployment table exactly (195 regions, per-provider
//!   counts, backbone-class distribution);
//! * the **§3 calibration contract** — last-mile medians and dispersion
//!   stay inside the ranges the paper's Figs. 7/8 pin down.
//!
//! Each check returns findings rather than panicking, so operators get
//! the full list in one run.

use crate::finding::{AuditReport, Severity};
use cloudy_cloud::{Backbone, Provider};
use cloudy_lastmile::stats_math::{sample_cv, sample_median};
use cloudy_lastmile::{AccessProfile, AccessType};
use cloudy_netsim::build::BuiltWorld;
use cloudy_netsim::Network;
use cloudy_topology::routing::is_valley_free;
use cloudy_topology::{bgp, routing, AsGraph, AsKind, AsPath, Asn, IpPrefix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Run every world check.
pub fn audit(world: &BuiltWorld) -> AuditReport {
    let mut report = AuditReport::default();
    check_regions(&world.net, &mut report);
    check_graph(&world.net, &mut report);
    check_prefixes(&world.net, &mut report);
    check_prefix_overlap(&world.net, &mut report);
    check_ixps(&world.net, &mut report);
    check_reachability(world, &mut report);
    check_policy_realisation(world, &mut report);
    check_table1(&world.net, &mut report);
    let rib = compute_rib(&world.net.graph);
    check_rib(&world.net.graph, &rib, &mut report);
    check_calibration(&mut report);
    report
}

/// All 195 regions addressed inside their provider's space.
pub fn check_regions(net: &Network, report: &mut AuditReport) {
    report.checks_run += 1;
    if net.regions.len() != 195 {
        report.push(
            Severity::Error,
            "regions",
            format!("expected 195 regions, found {}", net.regions.len()),
        );
    }
    for ep in &net.regions {
        if net.prefixes.lookup(ep.vm_ip) != Some(ep.region.provider.asn()) {
            report.push(
                Severity::Error,
                "regions",
                format!("{} VM {} outside provider space", ep.region.name, ep.vm_ip),
            );
        }
    }
}

/// Graph-level sanity: no isolated ASes, Tier-1 clique intact.
pub fn check_graph(net: &Network, report: &mut AuditReport) {
    report.checks_run += 1;
    for info in sorted_ases(&net.graph) {
        if net.graph.neighbors(info.asn).is_empty() {
            report.push(
                Severity::Error,
                "graph",
                format!("{} ({}) has no edges", info.asn, info.name),
            );
        }
    }
    let tier1s: Vec<_> = sorted_ases(&net.graph)
        .into_iter()
        .filter(|i| i.kind == AsKind::Tier1)
        .map(|i| i.asn)
        .collect();
    for (i, a) in tier1s.iter().enumerate() {
        for b in tier1s.iter().skip(i + 1) {
            if net.graph.relationship(*a, *b).is_none() {
                report.push(
                    Severity::Error,
                    "graph",
                    format!("Tier-1 clique broken: {a} and {b} not adjacent"),
                );
            }
        }
    }
}

/// Every AS has announced space; every announcement resolves back.
pub fn check_prefixes(net: &Network, report: &mut AuditReport) {
    report.checks_run += 1;
    for info in sorted_ases(&net.graph) {
        match net.as_prefixes.get(&info.asn) {
            None => report.push(
                Severity::Error,
                "prefixes",
                format!("{} has no address space", info.asn),
            ),
            Some(list) => {
                for p in list {
                    if net.prefixes.lookup(p.network()) != Some(info.asn) {
                        report.push(
                            Severity::Error,
                            "prefixes",
                            format!("{p} does not resolve to {}", info.asn),
                        );
                    }
                }
            }
        }
    }
}

/// No two ASes hold overlapping space, and longest-prefix-match is
/// consistent across every announced prefix's full range (first and last
/// address both resolve to the owner — a corrupted table or an overlap
/// shows up as a mismatch on one of them).
pub fn check_prefix_overlap(net: &Network, report: &mut AuditReport) {
    report.checks_run += 1;
    // Flatten (owner, prefix) in deterministic order.
    let mut owned: Vec<(Asn, IpPrefix)> = Vec::new();
    let mut asns: Vec<Asn> = net.as_prefixes.keys().copied().collect();
    asns.sort();
    for asn in asns {
        for p in &net.as_prefixes[&asn] {
            owned.push((asn, *p));
        }
    }
    for (i, (a, p)) in owned.iter().enumerate() {
        for (b, q) in owned.iter().skip(i + 1) {
            if a != b && (p.contains(q.network()) || q.contains(p.network())) {
                report.push(
                    Severity::Error,
                    "prefix-overlap",
                    format!("{p} ({a}) overlaps {q} ({b})"),
                );
            }
        }
        // LPM must agree on both ends of the range.
        let last = p.host(p.size() - 1);
        for addr in [p.network(), last] {
            if net.prefixes.lookup(addr) != Some(*a) {
                report.push(
                    Severity::Error,
                    "prefix-overlap",
                    format!("LPM({addr}) inside {p} does not resolve to {a}"),
                );
            }
        }
        // IXP fabrics are unannounced, so no fabric may sit inside AS space.
        for ixp in net.ixps.iter() {
            if p.contains(ixp.fabric.network()) || ixp.fabric.contains(p.network()) {
                report.push(
                    Severity::Error,
                    "prefix-overlap",
                    format!("{} fabric {} overlaps {p} ({a})", ixp.name, ixp.fabric),
                );
            }
        }
    }
}

/// IXP fabrics unannounced; members registered.
pub fn check_ixps(net: &Network, report: &mut AuditReport) {
    report.checks_run += 1;
    for ixp in net.ixps.iter() {
        if net.prefixes.lookup(ixp.fabric.network()).is_some() {
            report.push(
                Severity::Error,
                "ixps",
                format!("{} fabric {} is announced", ixp.name, ixp.fabric),
            );
        }
        for m in &ixp.members {
            if !net.graph.contains(*m) {
                report.push(
                    Severity::Error,
                    "ixps",
                    format!("{}: member {m} not in graph", ixp.name),
                );
            }
        }
    }
    let mut links: Vec<(&(Asn, Asn), &cloudy_topology::IxpId)> = net.fabric_links.iter().collect();
    links.sort();
    for ((isp, cloud), id) in links {
        match net.ixps.get(*id) {
            None => report.push(
                Severity::Error,
                "ixps",
                format!("fabric link ({isp},{cloud}) references unknown IXP {id:?}"),
            ),
            Some(ixp) => {
                if !ixp.can_interconnect(*isp, *cloud) {
                    report.push(
                        Severity::Warning,
                        "ixps",
                        format!("({isp},{cloud}) peer at {} without membership", ixp.name),
                    );
                }
            }
        }
    }
}

/// Every access ISP reaches every provider over the AS graph.
pub fn check_reachability(world: &BuiltWorld, report: &mut AuditReport) {
    report.checks_run += 1;
    for (cc, isps) in sorted_countries(world) {
        for isp in isps {
            for p in Provider::ALL {
                if routing::select_route(&world.net.graph, isp, p.asn()).is_none() {
                    report.push(
                        Severity::Error,
                        "reachability",
                        format!("{isp} ({cc}) cannot reach {p}"),
                    );
                }
            }
        }
    }
}

/// The graph realises the peering policy: direct/IXP decisions require a
/// peer edge; others must not have one.
pub fn check_policy_realisation(world: &BuiltWorld, report: &mut AuditReport) {
    report.checks_run += 1;
    use cloudy_cloud::PeeringKind;
    use cloudy_topology::Relationship;
    for (cc, isps) in sorted_countries(world) {
        let Some(country) = cloudy_geo::country::lookup(cc) else {
            report.push(Severity::Error, "policy", format!("unknown country {cc}"));
            continue;
        };
        for isp in isps {
            for p in Provider::ALL {
                let decision = world.net.policy.decide(p, isp, cc, country.continent);
                let edge = world.net.graph.relationship(isp, p.asn());
                match decision {
                    PeeringKind::Direct | PeeringKind::IxpPublic => {
                        if edge != Some(Relationship::Peer) {
                            report.push(
                                Severity::Error,
                                "policy",
                                format!("{isp}->{p}: decided {decision:?} but edge is {edge:?}"),
                            );
                        }
                    }
                    PeeringKind::PrivateTransit | PeeringKind::Public => {
                        if edge.is_some() {
                            report.push(
                                Severity::Error,
                                "policy",
                                format!("{isp}->{p}: decided {decision:?} but peer edge exists"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Reconcile the built world against Table 1: total region count,
/// per-provider counts, region identity, and the backbone-class
/// distribution (5 private, 3 semi-private, 2 public backbones).
pub fn check_table1(net: &Network, report: &mut AuditReport) {
    report.checks_run += 1;
    let expected_total = cloudy_cloud::region::all().count();
    if net.regions.len() != expected_total {
        report.push(
            Severity::Error,
            "table1",
            format!("world has {} regions, Table 1 lists {expected_total}", net.regions.len()),
        );
    }
    // Region identity: endpoint id must point at the same static row.
    for ep in &net.regions {
        match cloudy_cloud::region::by_id(ep.id) {
            Some(row) if row.name == ep.region.name && row.provider == ep.region.provider => {}
            Some(row) => report.push(
                Severity::Error,
                "table1",
                format!(
                    "endpoint {:?} claims {}/{} but Table 1 row is {}/{}",
                    ep.id, ep.region.provider, ep.region.name, row.provider, row.name
                ),
            ),
            None => report.push(
                Severity::Error,
                "table1",
                format!("endpoint {:?} ({}) beyond Table 1", ep.id, ep.region.name),
            ),
        }
    }
    // Per-provider counts.
    let mut counts: HashMap<Provider, usize> = HashMap::new();
    for ep in &net.regions {
        *counts.entry(ep.region.provider).or_insert(0) += 1;
    }
    for p in Provider::ALL {
        let want = cloudy_cloud::region::of_provider(p).count();
        let got = counts.get(&p).copied().unwrap_or(0);
        if got != want {
            report.push(
                Severity::Error,
                "table1",
                format!("{p}: world deploys {got} regions, Table 1 says {want}"),
            );
        }
    }
    // Backbone-class distribution (Table 1 rightmost column).
    let dist = |class: Backbone| Provider::ALL.iter().filter(|p| p.backbone() == class).count();
    for (class, want) in [(Backbone::Private, 5), (Backbone::Semi, 3), (Backbone::Public, 2)] {
        let got = dist(class);
        if got != want {
            report.push(
                Severity::Error,
                "table1",
                format!("{} backbone class has {got} providers, Table 1 says {want}", class.label()),
            );
        }
    }
}

/// Propagate BGP routes to every destination in the graph — the complete
/// RIB, destination-sorted for deterministic reporting.
pub fn compute_rib(graph: &AsGraph) -> Vec<(Asn, HashMap<Asn, AsPath>)> {
    let mut dests: Vec<Asn> = graph.ases().map(|i| i.asn).collect();
    dests.sort();
    dests.into_iter().map(|d| (d, bgp::routes_to(graph, d))).collect()
}

/// Verify every selected route in the RIB: correct endpoints, no AS
/// appearing twice, every hop in the graph, and — the property the whole
/// interconnection analysis rides on — Gao–Rexford valley-freedom.
pub fn check_rib(graph: &AsGraph, rib: &[(Asn, HashMap<Asn, AsPath>)], report: &mut AuditReport) {
    report.checks_run += 1;
    let mut paths_checked = 0usize;
    for (dest, routes) in rib {
        // Sorted on the next line — the collect itself is order-blind.
        let mut srcs: Vec<Asn> = routes.keys().copied().collect(); // audit:allow(map-iter)
        srcs.sort();
        for src in srcs {
            let r = &routes[&src];
            paths_checked += 1;
            if r.path.first() != Some(&src) || r.path.last() != Some(dest) {
                report.push(
                    Severity::Error,
                    "rib",
                    format!("route {src}->{dest} has endpoints {:?}", r.path),
                );
                continue;
            }
            if let Some(hop) = r.path.iter().find(|a| !graph.contains(**a)) {
                report.push(
                    Severity::Error,
                    "rib",
                    format!("route {src}->{dest} crosses unknown AS {hop}"),
                );
                continue;
            }
            let mut seen = r.path.clone();
            seen.sort();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                report.push(
                    Severity::Error,
                    "rib",
                    format!("route {src}->{dest} loops: {:?}", r.path),
                );
                continue;
            }
            if !is_valley_free(graph, &r.path) {
                report.push(
                    Severity::Error,
                    "rib",
                    format!("valley violation on {src}->{dest}: {:?}", r.path),
                );
            }
        }
    }
    if paths_checked == 0 {
        report.push(Severity::Error, "rib", "RIB is empty — no routes propagated".into());
    }
}

/// §3 calibration contract (DESIGN.md, sourced from the paper's Figs. 7/8):
/// wireless last-mile medians 20–25 ms with Cv ≈ 0.5, wired ≈ 10 ms and
/// visibly tighter. Samples the shipped profiles with a fixed seed, so a
/// drive-by edit to the latency processes that silently breaks the paper's
/// headline numbers fails the audit rather than three experiments later.
pub fn check_calibration(report: &mut AuditReport) {
    report.checks_run += 1;
    const N: usize = 30_000;
    let totals = |access: AccessType, seed: u64| -> Vec<f64> {
        let p = AccessProfile::baseline(access);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..N)
            .map(|_| {
                let (w, u) = p.sample_segments(&mut rng);
                w + u
            })
            .collect()
    };
    let mut expect_range = |name: &str, value: f64, lo: f64, hi: f64| {
        if !(lo..=hi).contains(&value) {
            report.push(
                Severity::Error,
                "calibration",
                format!("{name} = {value:.2} outside contract [{lo}, {hi}]"),
            );
        }
    };

    let wifi = totals(AccessType::WifiHome, 0xCAB1);
    let cell = totals(AccessType::Cellular, 0xCAB2);
    let wired = totals(AccessType::Wired, 0xCAB3);

    // Medians (ms): Fig. 7b.
    expect_range("wifi-home median", sample_median(&wifi), 20.0, 26.0);
    expect_range("cellular median", sample_median(&cell), 19.0, 26.0);
    expect_range("wired median", sample_median(&wired), 8.0, 12.5);
    // The WiFi wired sub-segment (router→ISP) alone is ≈ 10 ms.
    let p = AccessProfile::baseline(AccessType::WifiHome);
    let mut rng = StdRng::seed_from_u64(0xCAB4);
    let uplinks: Vec<f64> = (0..N).map(|_| p.uplink.sample(&mut rng)).collect();
    expect_range("wifi router->ISP median", sample_median(&uplinks), 8.0, 12.5);

    // Dispersion: wireless Cv ≈ 0.5, wired visibly tighter.
    let wifi_cv = sample_cv(&wifi);
    let cell_cv = sample_cv(&cell);
    let wired_cv = sample_cv(&wired);
    expect_range("wifi-home Cv", wifi_cv, 0.38, 0.75);
    expect_range("cellular Cv", cell_cv, 0.38, 0.75);
    if wired_cv >= wifi_cv {
        report.push(
            Severity::Error,
            "calibration",
            format!("wired Cv {wired_cv:.2} not tighter than wifi Cv {wifi_cv:.2}"),
        );
    }
}

/// ASes in deterministic (ASN-sorted) order.
fn sorted_ases(graph: &AsGraph) -> Vec<&cloudy_topology::AsInfo> {
    let mut v: Vec<_> = graph.ases().collect();
    v.sort_by_key(|i| i.asn);
    v
}

/// Country → ISP lists in deterministic order.
fn sorted_countries(world: &BuiltWorld) -> Vec<(cloudy_geo::CountryCode, Vec<Asn>)> {
    let mut v: Vec<_> = world
        .isps_by_country
        .iter()
        .map(|(cc, isps)| (*cc, isps.clone()))
        .collect();
    v.sort_by_key(|(cc, _)| *cc);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_geo::CountryCode;
    use cloudy_netsim::build::{build, WorldConfig};

    fn world() -> BuiltWorld {
        cloudy_serve::default_world(13)
    }

    #[test]
    fn built_worlds_pass_the_audit() {
        let report = audit(&world());
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.checks_run >= 10, "only {} checks ran", report.checks_run);
    }

    #[test]
    fn global_world_passes_the_audit() {
        let w = build(&WorldConfig::default());
        let report = audit(&w);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn audit_detects_broken_clique() {
        let mut w = world();
        use cloudy_topology::known;
        w.net.graph.remove_edge(known::TELIA, known::GTT);
        let report = audit(&w);
        assert!(!report.is_clean());
        assert!(report.errors().any(|f| f.check == "graph"));
    }

    #[test]
    fn audit_detects_policy_violation() {
        let mut w = world();
        use cloudy_topology::{known, Relationship};
        // NTT->Amazon must NOT peer (the Fig. 13a exception); force it.
        w.net
            .graph
            .add_edge(known::NTT_OCN, Provider::AmazonEc2.asn(), Relationship::Peer);
        let report = audit(&w);
        assert!(report.errors().any(|f| f.check == "policy"), "{}", report.render());
    }

    #[test]
    fn report_renders() {
        let report = audit(&world());
        let s = report.render();
        assert!(s.contains("checks"));
    }

    // ---- injected-defect fixtures -------------------------------------

    #[test]
    fn fixture_valley_violating_path_yields_rib_finding() {
        use cloudy_geo::{country, GeoPoint};
        use cloudy_topology::{AsInfo, Relationship, RouteKind};
        // A stub customer of two transits: routing through the stub
        // (down from one provider, back up to the other) is the canonical
        // Gao–Rexford valley.
        let cc = CountryCode::new("DE");
        let continent = country::lookup(cc).expect("DE is registered").continent;
        let mk = |asn: u32, name: &str, kind: AsKind| {
            AsInfo::new(Asn(asn), name, kind, cc, continent, GeoPoint::new(50.0, 8.0))
        };
        let mut g = AsGraph::new();
        g.add_as(mk(100, "transit-1", AsKind::Tier1));
        g.add_as(mk(200, "transit-2", AsKind::Tier1));
        g.add_as(mk(300, "stub", AsKind::AccessIsp));
        g.add_edge(Asn(100), Asn(200), Relationship::Peer);
        g.add_edge(Asn(300), Asn(100), Relationship::Provider);
        g.add_edge(Asn(300), Asn(200), Relationship::Provider);
        // Forge a RIB that routes transit-1 -> transit-2 via the stub.
        let mut routes = HashMap::new();
        routes.insert(
            Asn(100),
            AsPath { path: vec![Asn(100), Asn(300), Asn(200)], kind: RouteKind::Provider },
        );
        let rib = vec![(Asn(200), routes)];
        let mut report = AuditReport::default();
        check_rib(&g, &rib, &mut report);
        assert!(
            report.errors().any(|f| f.check == "rib" && f.detail.contains("valley violation")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn fixture_overlapping_prefixes_yield_overlap_finding() {
        let mut w = world();
        // Give one AS a /16 carved out of another AS's space.
        let mut asns: Vec<Asn> = w.net.as_prefixes.keys().copied().collect();
        asns.sort();
        let (a, b) = (asns[0], asns[1]);
        let stolen = {
            let victim_prefix = w.net.as_prefixes[&a][0];
            IpPrefix::new(victim_prefix.network(), 24)
        };
        w.net.as_prefixes.get_mut(&b).expect("exists").push(stolen);
        let mut report = AuditReport::default();
        check_prefix_overlap(&w.net, &mut report);
        let expected = format!("({b})");
        assert!(
            report
                .errors()
                .any(|f| f.check == "prefix-overlap" && f.detail.contains(&expected)),
            "{}",
            report.render()
        );
    }

    #[test]
    fn fixture_table1_miscount_yields_table1_finding() {
        let mut w = world();
        let dropped = w.net.regions.pop().expect("world has regions");
        let mut report = AuditReport::default();
        check_table1(&w.net, &mut report);
        assert!(
            report.errors().any(|f| f.check == "table1" && f.detail.contains("194")),
            "{}",
            report.render()
        );
        assert!(
            report
                .errors()
                .any(|f| f.check == "table1"
                    && f.detail.contains(&dropped.region.provider.to_string())),
            "per-provider miscount for {}:\n{}",
            dropped.region.provider,
            report.render()
        );
    }

    #[test]
    fn fixture_unannounced_as_yields_prefix_finding() {
        let mut w = world();
        let mut asns: Vec<Asn> = w.net.as_prefixes.keys().copied().collect();
        asns.sort();
        w.net.as_prefixes.remove(&asns[0]);
        let mut report = AuditReport::default();
        check_prefixes(&w.net, &mut report);
        assert!(
            report.errors().any(|f| f.check == "prefixes" && f.detail.contains("no address space")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn calibration_contract_holds_for_shipped_profiles() {
        let mut report = AuditReport::default();
        check_calibration(&mut report);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn rib_covers_the_whole_graph() {
        let w = world();
        let rib = compute_rib(&w.net.graph);
        assert_eq!(rib.len(), w.net.graph.len(), "one RIB slice per destination");
        // Tier-1 clique makes the graph connected: every dest reachable
        // from every AS.
        for (dest, routes) in &rib {
            assert_eq!(routes.len(), w.net.graph.len(), "dest {dest} not universally reachable");
        }
    }
}
