//! Edge Points-of-Presence.
//!
//! §2.3: cloud operators deploy edge PoPs at IXPs and colocation facilities
//! "closer to their customers" so that directly-peered tenant traffic enters
//! the private WAN near the user rather than at the datacenter. The PoP set
//! determines where direct-peering ingress happens, which in turn shapes the
//! paper's observation that EU direct-peering paths may ingress near the VP
//! *or* near the server (§6.2) while JP paths "almost always ingress within
//! the country".

use crate::provider::{Backbone, Provider};
use crate::region;
use crate::wan::WanFootprint;
use cloudy_geo::{city, Continent, GeoPoint};

/// A single provider edge PoP, anchored to a gazetteer city.
#[derive(Debug, Clone)]
pub struct PopSite {
    pub provider: Provider,
    pub city: &'static str,
    pub location: GeoPoint,
    pub continent: Continent,
    /// Whether this PoP is colocated at the city's public exchange (vs. a
    /// private colocation facility). Affects traceroute visibility of the
    /// fabric hop.
    pub at_ixp: bool,
}

/// All PoPs of one provider.
#[derive(Debug, Clone)]
pub struct PopSet {
    pub provider: Provider,
    pops: Vec<PopSite>,
}

/// Minimum gazetteer weight for a city to host a hypergiant edge PoP.
/// Hypergiants deploy edge PoPs in every major metro; smaller providers
/// only at their region cities.
const HYPERGIANT_POP_WEIGHT: f64 = 0.25;

impl PopSet {
    /// Build the deterministic PoP deployment for a provider.
    ///
    /// * Private-backbone hypergiants: every major metro worldwide plus all
    ///   their region cities.
    /// * Oracle (private but small edge): region cities only — matching the
    ///   paper's finding that ORCL paths still look like public Internet
    ///   from the client side (Fig. 10).
    /// * Semi: major metros within the WAN's home continents plus region
    ///   cities.
    /// * Public: region cities only.
    pub fn for_provider(provider: Provider) -> PopSet {
        let wan = WanFootprint::new(provider);
        let mut pops: Vec<PopSite> = Vec::new();
        let push = |city_name: &'static str, at_ixp: bool| {
            let (_, c) = city::by_name(city_name).expect("gazetteer city"); // audit:allow(expect)
            PopSite {
                provider,
                city: city_name,
                location: c.location(),
                continent: c.continent(),
                at_ixp,
            }
        };

        // Region cities always host a PoP (the DC itself is an ingress).
        let mut have: Vec<&'static str> = Vec::new();
        for (_, r) in region::of_provider(provider) {
            if !have.contains(&r.city) {
                have.push(r.city);
                pops.push(push(r.city, false));
            }
        }

        let broad = match (provider.backbone(), provider) {
            (Backbone::Private, Provider::Oracle) => false,
            (Backbone::Private, _) => true,
            (Backbone::Semi, _) => true,
            (Backbone::Public, _) => false,
        };
        if broad {
            for c in city::CITIES {
                if c.weight < HYPERGIANT_POP_WEIGHT {
                    continue;
                }
                let cont = c.continent();
                if !provider.is_hypergiant() && !wan.spans(cont) {
                    continue;
                }
                if !have.contains(&c.name) {
                    have.push(c.name);
                    pops.push(push(c.name, true));
                }
            }
        }
        PopSet { provider, pops }
    }

    pub fn iter(&self) -> impl Iterator<Item = &PopSite> {
        self.pops.iter()
    }

    pub fn len(&self) -> usize {
        self.pops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pops.is_empty()
    }

    /// The PoP nearest to `point` among those `eligible` accepts, by
    /// great-circle distance; of equally near PoPs, the first in table
    /// order. `None` when no PoP is eligible.
    pub fn nearest(
        &self,
        point: GeoPoint,
        eligible: impl Fn(&PopSite) -> bool,
    ) -> Option<&PopSite> {
        self.pops.iter().filter(|p| eligible(p)).min_by(|a, b| {
            a.location.haversine_km(&point).total_cmp(&b.location.haversine_km(&point))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypergiants_have_global_pops() {
        let g = PopSet::for_provider(Provider::Google);
        assert!(g.len() > 50, "Google PoPs: {}", g.len());
        for cont in Continent::ALL {
            assert!(
                g.iter().any(|p| p.continent == cont),
                "Google missing PoP on {cont}"
            );
        }
    }

    #[test]
    fn public_providers_only_have_region_pops() {
        let v = PopSet::for_provider(Provider::Vultr);
        // 15 regions across 14 distinct cities (no duplicates within Vultr).
        assert!(v.len() <= 15, "Vultr PoPs: {}", v.len());
        for p in v.iter() {
            assert!(!p.at_ixp, "region-city PoPs are colo, not IXP");
        }
    }

    #[test]
    fn oracle_has_no_broad_edge() {
        let o = PopSet::for_provider(Provider::Oracle);
        assert!(o.len() <= 18, "Oracle PoPs: {}", o.len());
    }

    #[test]
    fn semi_pops_respect_wan_footprint() {
        let d = PopSet::for_provider(Provider::DigitalOcean);
        for p in d.iter() {
            if p.at_ixp {
                assert!(
                    matches!(p.continent, Continent::Europe | Continent::NorthAmerica),
                    "DO IXP PoP outside home continents: {}",
                    p.city
                );
            }
        }
        // Its Singapore region still gives it one AS ingress point.
        assert!(d.iter().any(|p| p.continent == Continent::Asia));
    }

    #[test]
    fn nearest_pop_picks_closest() {
        let g = PopSet::for_provider(Provider::Google);
        let munich = GeoPoint::new(48.14, 11.58);
        let near = g.nearest(munich, |_| true).unwrap();
        let d = near.location.haversine_km(&munich);
        assert!(d < 500.0, "nearest Google PoP to Munich is {d} km away ({})", near.city);
    }

    #[test]
    fn nearest_with_continent_filter() {
        let g = PopSet::for_provider(Provider::Google);
        let nairobi = GeoPoint::new(-1.29, 36.82);
        let in_africa = |p: &PopSite| p.continent == Continent::Africa;
        assert_eq!(g.nearest(nairobi, in_africa).unwrap().continent, Continent::Africa);
        let vultr = PopSet::for_provider(Provider::Vultr);
        let none_for_vultr = vultr.nearest(nairobi, in_africa);
        assert!(none_for_vultr.is_none(), "Vultr has no African presence");
    }

    #[test]
    fn pop_cities_unique_per_provider() {
        for p in Provider::ALL {
            let set = PopSet::for_provider(p);
            let mut names: Vec<_> = set.iter().map(|s| s.city).collect();
            let before = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), before, "{p} has duplicate PoP cities");
        }
    }
}
