//! Property-based tests for the cloud substrate: policy totality and
//! determinism over arbitrary ISPs, and PoP/WAN consistency.

use crate::peering::{InterconnectPolicy, PeeringKind};
use crate::pop::{PopSet, PopSite};
use crate::provider::{Backbone, Provider};
use crate::wan::WanFootprint;
use cloudy_geo::{Continent, CountryCode, GeoPoint};
use cloudy_topology::Asn;
use proptest::prelude::*;

fn arb_provider() -> impl Strategy<Value = Provider> {
    prop::sample::select(Provider::ALL.to_vec())
}

fn arb_continent() -> impl Strategy<Value = Continent> {
    prop::sample::select(Continent::ALL.to_vec())
}

fn arb_country() -> impl Strategy<Value = CountryCode> {
    prop::sample::select(
        cloudy_geo::country::COUNTRIES.iter().map(|c| c.code()).collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn policy_is_total_and_deterministic(
        seed in any::<u64>(),
        provider in arb_provider(),
        isp in 1u32..1_000_000,
        cc in arb_country(),
        continent in arb_continent(),
    ) {
        let p = InterconnectPolicy::new(seed);
        let a = p.decide(provider, Asn(isp), cc, continent);
        let b = p.decide(provider, Asn(isp), cc, continent);
        prop_assert_eq!(a, b, "policy must be deterministic");
        // Carrier selection is total and lands on a known Tier-1.
        let carrier = p.transit_carrier(provider, Asn(isp), cc, cc);
        prop_assert!(
            cloudy_topology::known::TIER1S.iter().any(|(t, _)| *t == carrier),
            "carrier {carrier} not a known Tier-1"
        );
    }

    #[test]
    fn public_backbones_never_direct_peer_at_scale(
        seed in any::<u64>(),
        continent in arb_continent(),
    ) {
        // Over many synthetic ISPs, Vultr/Linode stay mostly public and
        // hypergiants stay mostly direct — the Fig. 10 separation must hold
        // for every seed, not just the default one.
        let p = InterconnectPolicy::new(seed);
        let cc = CountryCode::new("FR");
        let mut vultr_direct = 0usize;
        let mut google_direct = 0usize;
        let n = 400u32;
        for i in 0..n {
            let isp = Asn(cloudy_topology::known::SYNTHETIC_ASN_BASE + i);
            if p.decide(Provider::Vultr, isp, cc, continent) == PeeringKind::Direct {
                vultr_direct += 1;
            }
            if p.decide(Provider::Google, isp, cc, continent) == PeeringKind::Direct {
                google_direct += 1;
            }
        }
        prop_assert!(vultr_direct < google_direct,
            "Vultr direct {vultr_direct} >= Google {google_direct}");
        prop_assert!((vultr_direct as f64 / n as f64) < 0.15);
        prop_assert!((google_direct as f64 / n as f64) > 0.5);
    }

    #[test]
    fn wan_connectivity_is_symmetric_and_reflexive_in_footprint(
        provider in arb_provider(),
        a in arb_continent(),
        b in arb_continent(),
    ) {
        let wan = WanFootprint::new(provider);
        prop_assert_eq!(wan.wan_connects(a, b), wan.wan_connects(b, a));
        if wan.spans(a) {
            prop_assert!(wan.wan_connects(a, a));
        }
        // Public backbones never connect anything.
        if provider.backbone() == Backbone::Public {
            prop_assert!(!wan.wan_connects(a, b));
        }
    }

    #[test]
    fn nearest_pop_is_actually_nearest(
        provider in arb_provider(),
        lat in -60.0f64..70.0,
        lon in -180.0f64..180.0,
        within in prop::option::of(arb_continent()),
    ) {
        // The pick is eligible, no eligible PoP is closer, and no earlier
        // eligible PoP is as close: the first minimum in table order.
        let pops = PopSet::for_provider(provider);
        let point = GeoPoint::new(lat, lon);
        let eligible = |p: &PopSite| within.is_none_or(|c| p.continent == c);
        let candidates: Vec<&PopSite> = pops.iter().filter(|p| eligible(p)).collect();
        match pops.nearest(point, eligible) {
            Some(best) => {
                prop_assert!(eligible(best));
                let best_d = best.location.haversine_km(&point);
                let at = candidates.iter().position(|p| p.city == best.city).unwrap();
                for (i, p) in candidates.iter().enumerate() {
                    let d = p.location.haversine_km(&point);
                    prop_assert!(best_d <= d, "{} closer than chosen {}", p.city, best.city);
                    prop_assert!(i >= at || best_d < d, "{} ties {} earlier", p.city, best.city);
                }
            }
            None => prop_assert!(candidates.is_empty()),
        }
    }
}
