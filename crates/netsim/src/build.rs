//! World construction: turn policy + geography into a concrete AS-level
//! Internet with addresses.
//!
//! The builder creates, per the paper's measurement environment:
//!
//! * the ten named Tier-1 backbones (§6's carriers) in a peering clique;
//! * synthetic regional Tier-2 transit providers per continent;
//! * access ISPs per country — the paper's named case-study ISPs
//!   (Figs. 12a/13a/17a/18a) with their real ASNs, plus synthetic ISPs
//!   elsewhere;
//! * the ten cloud networks, buying transit from Tier-1s and peering with
//!   ISPs according to [`InterconnectPolicy`];
//! * a dozen major IXPs where public peering happens.
//!
//! Everything is deterministic in the seed. The result is a [`Network`]
//! whose valley-free routes *realise* the policy: classification of those
//! routes by the analysis pipeline reproduces Fig. 10 without the analysis
//! ever touching the policy.

use crate::network::{IxpSpec, Network, RegionEndpoint};
use crate::rng::mix;
use cloudy_cloud::{InterconnectPolicy, PeeringKind, Provider};
use cloudy_geo::{city, country, City, CityId, Continent, CountryCode};
use cloudy_topology::{known, AsGraph, AsInfo, AsKind, Asn, Relationship};
use std::collections::HashMap;

/// Configuration for world construction.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    pub seed: u64,
    /// Synthetic access ISPs per country (countries with named case-study
    /// ISPs use those instead).
    pub isps_per_country: usize,
    /// Restrict to these countries (None = every country in the gazetteer
    /// that has at least one city).
    pub countries: Option<Vec<CountryCode>>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig { seed: 1, isps_per_country: 3, countries: None }
    }
}

/// The constructed world plus the directories downstream crates need.
pub struct BuiltWorld {
    pub net: Network,
    /// Access ISPs serving each country (probe platforms assign probes to
    /// these).
    pub isps_by_country: HashMap<CountryCode, Vec<Asn>>,
}

/// Synthetic Tier-2 transit providers: (name, anchor city).
const TIER2S: &[(&str, CityId)] = &[
    ("EuroTransit", city::id("Frankfurt")),
    ("NordBackbone", city::id("Stockholm")),
    ("AmeriCore", city::id("Ashburn")),
    ("PacificWest Transit", city::id("Los Angeles")),
    ("AsiaConnect", city::id("Singapore")),
    ("EastBridge Networks", city::id("Hong Kong")),
    ("GulfLink", city::id("Dubai")),
    ("AndesNet", city::id("Sao Paulo")),
    ("CaribeRoutes", city::id("Bogota")),
    ("PanAfrica IP", city::id("Johannesburg")),
    ("MedLink Carrier", city::id("Cairo")),
    ("Maghreb Net", city::id("Casablanca")),
    ("SaharaLink", city::id("Lagos")),
    ("EastAfrica Carrier", city::id("Nairobi")),
    ("Aussie Backhaul", city::id("Sydney")),
];

/// Major public exchanges.
const IXPS: &[(&str, &str)] = &[
    ("DE-CIX Frankfurt", "Frankfurt"),
    ("AMS-IX", "Amsterdam"),
    ("LINX", "London"),
    ("France-IX", "Paris"),
    ("Equinix Ashburn", "Ashburn"),
    ("Any2 LA", "Los Angeles"),
    ("TorIX", "Toronto"),
    ("IX.br Sao Paulo", "Sao Paulo"),
    ("JPNAP Tokyo", "Tokyo"),
    ("Equinix Singapore", "Singapore"),
    ("HKIX", "Hong Kong"),
    ("DE-CIX Mumbai", "Mumbai"),
    ("UAE-IX", "Dubai"),
    ("JINX", "Johannesburg"),
    ("MegaIX Sydney", "Sydney"),
];

/// First synthetic Tier-2 ASN.
const TIER2_ASN_BASE: u32 = 190_000;

fn as_info(asn: Asn, name: &str, kind: AsKind, c: &City) -> AsInfo {
    AsInfo::new(asn, name, kind, c.country_code(), c.continent(), c.location())
}

/// The named case-study ISPs per country.
fn named_isps(cc: CountryCode) -> Option<&'static [(Asn, &'static str)]> {
    match cc.as_str() {
        "DE" => Some(known::GERMAN_ISPS),
        "JP" => Some(known::JAPANESE_ISPS),
        "UA" => Some(known::UKRAINIAN_ISPS),
        "BH" => Some(known::BAHRAINI_ISPS),
        _ => None,
    }
}

/// Build the world.
pub fn build(cfg: &WorldConfig) -> BuiltWorld {
    let policy = InterconnectPolicy::new(cfg.seed);
    let mut graph = AsGraph::new();

    // --- Tier-1 clique -------------------------------------------------
    for (asn, name) in known::TIER1S {
        let anchor = city::get(crate::hubs::hub_cities(*asn)[0]);
        graph.add_as(as_info(*asn, name, AsKind::Tier1, anchor));
    }
    for i in 0..known::TIER1S.len() {
        for j in (i + 1)..known::TIER1S.len() {
            graph.add_edge(known::TIER1S[i].0, known::TIER1S[j].0, Relationship::Peer);
        }
    }

    // --- Regional Tier-2s ----------------------------------------------
    let mut tier2s: Vec<(Asn, Continent)> = Vec::new();
    for (i, (name, anchor)) in TIER2S.iter().enumerate() {
        let asn = Asn(TIER2_ASN_BASE + i as u32);
        let info = as_info(asn, name, AsKind::Tier2, city::get(*anchor));
        let continent = info.continent;
        graph.add_as(info);
        // Each Tier-2 buys from two deterministic Tier-1s.
        let h = mix(&[cfg.seed, 0x72, asn.0 as u64]);
        let t1a = known::TIER1S[(h % known::TIER1S.len() as u64) as usize].0;
        let t1b = known::TIER1S[((h >> 8) % known::TIER1S.len() as u64) as usize].0;
        graph.add_edge(asn, t1a, Relationship::Provider);
        if t1b != t1a {
            graph.add_edge(asn, t1b, Relationship::Provider);
        }
        tier2s.push((asn, continent));
    }

    // --- Cloud networks --------------------------------------------------
    for p in Provider::ALL {
        let anchor = cloudy_cloud::region::of_provider(p)
            .next()
            .expect("provider has regions") // audit:allow(expect)
            .1
            .city_id();
        graph.add_as(as_info(p.asn(), p.name(), AsKind::Cloud, city::get(anchor)));
        // Transit breadth scales with provider size: hypergiants connect to
        // many Tier-1s, small clouds to two.
        let n_transit = if p.is_hypergiant() {
            6
        } else if p.backbone() == cloudy_cloud::Backbone::Semi {
            4
        } else {
            2
        };
        let h = mix(&[cfg.seed, 0xC10D, p.asn().0 as u64]);
        for k in 0..n_transit {
            let t1 = known::TIER1S[((h >> (4 * k)) % known::TIER1S.len() as u64) as usize].0;
            if graph.relationship(p.asn(), t1).is_none() {
                graph.add_edge(p.asn(), t1, Relationship::Provider);
            }
        }
    }

    // --- Access ISPs per country ----------------------------------------
    let selected: Vec<&'static country::Country> = match &cfg.countries {
        Some(list) => list
            .iter()
            .map(|cc| country::lookup(*cc).unwrap_or_else(|| panic!("unknown country {cc}"))) // audit:allow(panic)
            .collect(),
        None => country::COUNTRIES.iter().collect(),
    };

    let mut isps_by_country: HashMap<CountryCode, Vec<Asn>> = HashMap::new();
    let mut next_synth = known::SYNTHETIC_ASN_BASE;
    for c in &selected {
        let cc = c.code();
        let cities = city::in_country(cc);
        let mut isps = Vec::new();
        let specs: Vec<(Asn, String)> = match named_isps(cc) {
            Some(named) => named.iter().map(|(a, n)| (*a, n.to_string())).collect(),
            None => (0..cfg.isps_per_country)
                .map(|i| {
                    let asn = Asn(next_synth);
                    next_synth += 1;
                    (asn, format!("ISP-{}-{}", cc, i + 1))
                })
                .collect(),
        };
        for (i, (asn, name)) in specs.iter().enumerate() {
            // Anchor: rotate through the country's cities by weight order;
            // fall back to the country centroid.
            let info = if cities.is_empty() {
                AsInfo::new(*asn, name.clone(), AsKind::AccessIsp, cc, c.continent, c.location())
            } else {
                let mut sorted = cities.clone();
                sorted.sort_by(|a, b| b.weight.total_cmp(&a.weight));
                let anchor = sorted[i % sorted.len()];
                AsInfo::new(
                    *asn,
                    name.clone(),
                    AsKind::AccessIsp,
                    cc,
                    c.continent,
                    anchor.location(),
                )
            };
            let loc = info.location;
            let continent = info.continent;
            graph.add_as(info);
            // Transit: nearest same-continent Tier-2 (plus a second for
            // multihoming on even indices).
            let mut t2s: Vec<Asn> = tier2s
                .iter()
                .filter(|(_, tc)| *tc == continent)
                .map(|(a, _)| *a)
                .collect();
            t2s.sort_by(|a, b| {
                let da = graph.info(*a).expect("tier-2 registered").location.haversine_km(&loc); // audit:allow(expect)
                let db = graph.info(*b).expect("tier-2 registered").location.haversine_km(&loc); // audit:allow(expect)
                da.total_cmp(&db)
            });
            // Every continent has at least one Tier-2 by construction.
            graph.add_edge(*asn, t2s[0], Relationship::Provider);
            if i % 2 == 0 && t2s.len() > 1 {
                graph.add_edge(*asn, t2s[1], Relationship::Provider);
            }
            // The country's largest ISP also buys from a Tier-1 directly
            // (incumbents like DTAG genuinely do).
            if i == 0 {
                let h = mix(&[cfg.seed, 0x11E7, asn.0 as u64]);
                let t1 = known::TIER1S[(h % known::TIER1S.len() as u64) as usize].0;
                graph.add_edge(*asn, t1, Relationship::Provider);
            }
            isps.push(*asn);
        }
        isps_by_country.insert(cc, isps);
    }

    // --- Peering edges per policy ----------------------------------------
    // IXP member bookkeeping + fabric choices for public peerings.
    let mut ixp_specs: Vec<IxpSpec> = IXPS
        .iter()
        .map(|(name, city_name)| IxpSpec {
            name: name.to_string(),
            city: city_name,
            members: Vec::new(),
        })
        .collect();
    let ixp_locations: Vec<(usize, cloudy_geo::GeoPoint, Continent)> = IXPS
        .iter()
        .enumerate()
        .map(|(i, (_, city_name))| {
            let (_, c) = city::by_name(city_name).expect("IXP city"); // audit:allow(expect)
            (i, c.location(), c.continent())
        })
        .collect();
    let mut fabric_choices: HashMap<(Asn, Asn), usize> = HashMap::new();

    let mut country_list: Vec<(&CountryCode, &Vec<Asn>)> = isps_by_country.iter().collect(); // audit:allow(map-iter)
    country_list.sort_by_key(|(cc, _)| **cc);
    for (cc, isps) in country_list {
        let continent = country::lookup(*cc).expect("known").continent; // audit:allow(expect)
        for isp in isps {
            let isp_loc = graph.info(*isp).expect("isp").location; // audit:allow(expect)
            for p in Provider::ALL {
                match policy.decide(p, *isp, *cc, continent) {
                    PeeringKind::Direct => {
                        graph.add_edge(*isp, p.asn(), Relationship::Peer);
                    }
                    PeeringKind::IxpPublic => {
                        graph.add_edge(*isp, p.asn(), Relationship::Peer);
                        // Nearest exchange, preferring the same continent.
                        let fab = ixp_locations
                            .iter()
                            .min_by(|a, b| {
                                let pa = if a.2 == continent { 0.0 } else { 1e7 };
                                let pb = if b.2 == continent { 0.0 } else { 1e7 };
                                let da = a.1.haversine_km(&isp_loc) + pa;
                                let db = b.1.haversine_km(&isp_loc) + pb;
                                da.total_cmp(&db)
                            })
                            .expect("at least one IXP") // audit:allow(expect)
                            .0;
                        ixp_specs[fab].members.push(*isp);
                        ixp_specs[fab].members.push(p.asn());
                        fabric_choices.insert((*isp, p.asn()), fab);
                    }
                    // Private transit rides the carrier's existing PNI at
                    // the provider's edge PoP; it is modelled as routing
                    // policy (the simulator substitutes the carrier on the
                    // path), not as a general-purpose transit edge — a PNI
                    // carries exactly one provider's traffic, which an
                    // AS-level edge cannot express.
                    PeeringKind::PrivateTransit => {}
                    PeeringKind::Public => {}
                }
            }
        }
    }

    let net = Network::assemble(cfg.seed, graph, ixp_specs, fabric_choices, policy);
    BuiltWorld { net, isps_by_country }
}

/// The endpoint list for campaigns: all regions.
pub fn all_region_ids(net: &Network) -> Vec<cloudy_cloud::RegionId> {
    net.regions.iter().map(|r: &RegionEndpoint| r.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BuiltWorld {
        build(&WorldConfig {
            seed: 11,
            isps_per_country: 2,
            countries: Some(
                ["DE", "GB", "JP", "IN", "BH", "US", "BR", "ZA", "EG", "KE"]
                    .iter()
                    .map(|c| CountryCode::new(c))
                    .collect(),
            ),
        })
    }

    #[test]
    fn named_isps_present_with_real_asns() {
        let w = small();
        let de = &w.isps_by_country[&CountryCode::new("DE")];
        assert_eq!(de.len(), 5);
        assert!(de.contains(&known::DTAG));
        let bh = &w.isps_by_country[&CountryCode::new("BH")];
        assert_eq!(bh.len(), 4);
        assert!(bh.contains(&known::BATELCO));
    }

    #[test]
    fn every_isp_reaches_every_provider() {
        let w = small();
        for isps in w.isps_by_country.values() {
            for isp in isps {
                for p in Provider::ALL {
                    assert!(
                        w.net.as_path(*isp, p).is_some(),
                        "{isp} cannot reach {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn german_hypergiant_routes_are_direct() {
        let w = small();
        for (isp, _) in known::GERMAN_ISPS {
            for p in [Provider::AmazonEc2, Provider::Google, Provider::Microsoft] {
                let path = w.net.as_path(*isp, p).unwrap();
                assert_eq!(path.hop_count(), 1, "{isp}->{p}: {:?}", path.path);
            }
        }
    }

    #[test]
    fn ntt_amazon_exception_not_a_peer_edge() {
        // NTT (AS4713) does not peer directly with Amazon (Fig. 13a); the
        // graph must not contain that edge, so the simulator routes it over
        // a transit carrier instead.
        let w = small();
        assert!(
            w.net.graph.relationship(known::NTT_OCN, Provider::AmazonEc2.asn()).is_none(),
            "NTT-Amazon should have no direct edge"
        );
        assert!(
            w.net.graph.relationship(known::KDDI, Provider::AmazonEc2.asn()).is_some(),
            "KDDI-Amazon should peer directly"
        );
    }

    #[test]
    fn small_provider_paths_are_longer() {
        let w = small();
        // Aggregate over all ISPs: Vultr paths should average materially
        // more intermediate ASes than Google paths.
        let mut vultr = 0usize;
        let mut google = 0usize;
        let mut n = 0usize;
        for isps in w.isps_by_country.values() {
            for isp in isps {
                vultr += w.net.as_path(*isp, Provider::Vultr).unwrap().hop_count() - 1;
                google += w.net.as_path(*isp, Provider::Google).unwrap().hop_count() - 1;
                n += 1;
            }
        }
        let v = vultr as f64 / n as f64;
        let g = google as f64 / n as f64;
        assert!(v > g + 0.5, "Vultr avg intermediates {v} vs Google {g}");
    }

    #[test]
    fn build_is_deterministic() {
        let a = small();
        let b = small();
        let de = CountryCode::new("DE");
        assert_eq!(a.isps_by_country[&de], b.isps_by_country[&de]);
        assert_eq!(a.net.graph.len(), b.net.graph.len());
        assert_eq!(a.net.graph.edge_count(), b.net.graph.edge_count());
    }

    #[test]
    fn full_world_builds() {
        let w = build(&WorldConfig { seed: 3, isps_per_country: 3, countries: None });
        assert!(w.net.graph.len() > 300, "only {} ASes", w.net.graph.len());
        assert_eq!(w.net.regions.len(), 195);
        // Spot check reachability from a random far-flung country.
        let ke = &w.isps_by_country[&CountryCode::new("KE")];
        assert!(w.net.as_path(ke[0], Provider::Microsoft).is_some());
    }
}
