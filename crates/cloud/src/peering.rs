//! Client-facing interconnection policy.
//!
//! For every (serving ISP, cloud provider) pair the simulator must decide how
//! inbound tenant traffic enters the cloud network (§2.3/§6.1):
//!
//! * **Direct** — the ISP peers directly with the cloud WAN (LOA-CFA
//!   agreements); zero intermediate ASes.
//! * **IxpPublic** — public peering across an IXP route server; zero
//!   intermediate ASes but an IXP fabric hop is visible ("1 IXP" in the
//!   case-study matrices).
//! * **PrivateTransit** — a single Tier-1 carrier hosts the provider's edge
//!   PoP and hauls the traffic ("1 AS"); the paper names Telia (AS1299) and
//!   GTT (AS3257) as the usual carriers, NTT (AS2914) for intra-Japan
//!   transit and TATA (AS6453) for Japan→India.
//! * **Public** — ordinary hierarchical transit, two or more intermediate
//!   ASes ("2+ AS").
//!
//! The default mix per provider class is calibrated to Fig. 10; the explicit
//! per-ISP overrides reproduce the named exceptions visible in Figs. 12a/13a
//! and the Bahrain matrix in Fig. 18a.

use crate::provider::{Backbone, Provider};
use crate::wan::WanFootprint;
use cloudy_geo::{Continent, CountryCode};
use cloudy_topology::{known, Asn};
use serde::Serialize;

/// How a given ISP's traffic enters a given cloud network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PeeringKind {
    Direct,
    IxpPublic,
    PrivateTransit,
    Public,
}

impl PeeringKind {
    /// Label used in the case-study matrices.
    pub fn label(&self) -> &'static str {
        match self {
            PeeringKind::Direct => "direct",
            PeeringKind::IxpPublic => "1 IXP",
            PeeringKind::PrivateTransit => "1 AS",
            PeeringKind::Public => "2+ AS",
        }
    }
}

/// Which plane carries a cloud-to-cloud (region↔region) measurement.
///
/// The inter-cloud campaigns probe every region pair twice: once over the
/// provider private WAN(s) and once over the ordinary public Internet, so the
/// private-vs-public latency gap — the quantity CloudCast measures between
/// real provider regions — is a computed column, not an assumption.
///
/// Not serde-derived on purpose: the on-disk shape is owned by the manual
/// `CloudPingRecord` serializer in `cloudy-measure` (wire-frozen), which
/// writes [`RouteClass::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteClass {
    /// Ride the provider backbone(s); hand-off per [`cloud_interconnect`].
    PrivateWan,
    /// Ordinary hierarchical transit end to end, hub detours included.
    PublicTransit,
}

impl RouteClass {
    /// Both planes, private first — the order records are emitted per task.
    pub const ALL: [RouteClass; 2] = [RouteClass::PrivateWan, RouteClass::PublicTransit];

    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            RouteClass::PrivateWan => "private",
            RouteClass::PublicTransit => "public",
        }
    }
}

/// How two cloud regions interconnect when traffic is *asked* to stay on the
/// private plane ([`RouteClass::PrivateWan`]).
///
/// Policy, in order:
///
/// * Either side on a Public backbone (Vultr, Linode) → [`PeeringKind::Public`].
///   There is no private plane to ride; this is the explicit peering-policy
///   exception under which private RTT may equal (never beat) public RTT.
/// * Same provider with the WAN spanning both continents → [`PeeringKind::Direct`]
///   (pure backbone, the CloudCast intra-provider case).
/// * Same provider across a WAN gap (e.g. Alibaba's non-Asian "islands",
///   §6.1) → [`PeeringKind::PrivateTransit`]: one carrier bridges the gap.
/// * Cross-provider with both WANs covering their own region's continent and
///   a hypergiant on at least one side → [`PeeringKind::Direct`] (PNI at a
///   shared colo; hypergiants peer with everyone, Fig. 10).
/// * Anything else → [`PeeringKind::PrivateTransit`].
///
/// Pure function of the endpoints — no seed — so route construction is
/// trivially deterministic.
pub fn cloud_interconnect(
    src: Provider,
    src_continent: Continent,
    dst: Provider,
    dst_continent: Continent,
) -> PeeringKind {
    if src.backbone() == Backbone::Public || dst.backbone() == Backbone::Public {
        return PeeringKind::Public;
    }
    if src == dst {
        return if WanFootprint::new(src).wan_connects(src_continent, dst_continent) {
            PeeringKind::Direct
        } else {
            PeeringKind::PrivateTransit
        };
    }
    let covered = WanFootprint::new(src).spans(src_continent)
        && WanFootprint::new(dst).spans(dst_continent);
    if covered && (src.is_hypergiant() || dst.is_hypergiant()) {
        PeeringKind::Direct
    } else {
        PeeringKind::PrivateTransit
    }
}

/// Probability mix over the four kinds; rows of the per-class policy table.
#[derive(Debug, Clone, Copy)]
struct Mix {
    direct: f64,
    ixp: f64,
    private_transit: f64,
    // public = remainder
}

/// The interconnection policy. Deterministic: the same (seed, provider, ISP)
/// triple always yields the same decision, so campaigns are reproducible and
/// a given ISP's traffic to a given provider is consistently classified —
/// exactly what the paper's per-`<ISP, cloud>` matrices measure.
#[derive(Debug, Clone)]
pub struct InterconnectPolicy {
    seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Uniform f64 in [0,1) from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl InterconnectPolicy {
    pub fn new(seed: u64) -> Self {
        InterconnectPolicy { seed }
    }

    /// Decide the interconnection for traffic from `isp` (registered in
    /// `country` on `continent`) to `provider`.
    pub fn decide(
        &self,
        provider: Provider,
        isp: Asn,
        country: CountryCode,
        continent: Continent,
    ) -> PeeringKind {
        if let Some(k) = self.named_override(provider, isp) {
            return k;
        }
        let mix = self.mix_for(provider, country, continent);
        let h = splitmix64(
            self.seed ^ splitmix64((provider.asn().0 as u64) << 32 | isp.0 as u64),
        );
        let u = unit(h);
        if u < mix.direct {
            PeeringKind::Direct
        } else if u < mix.direct + mix.ixp {
            PeeringKind::IxpPublic
        } else if u < mix.direct + mix.ixp + mix.private_transit {
            PeeringKind::PrivateTransit
        } else {
            PeeringKind::Public
        }
    }

    /// The Tier-1 carrier used when the decision is [`PeeringKind::PrivateTransit`].
    ///
    /// §6.2: intra-Japan ingress transits NTT (AS2914); Japan→India transits
    /// TATA (AS6453); elsewhere the paper names Telia and GTT. We pick by
    /// serving region, deterministically per (provider, ISP).
    pub fn transit_carrier(
        &self,
        provider: Provider,
        isp: Asn,
        isp_country: CountryCode,
        dc_country: CountryCode,
    ) -> Asn {
        let jp = CountryCode::new("JP");
        if isp_country == jp && dc_country == jp {
            return known::NTT_GLOBAL;
        }
        if isp_country == jp {
            return known::TATA;
        }
        let h = splitmix64(self.seed ^ 0xCA11E12 ^ splitmix64(provider.asn().0 as u64) ^ isp.0 as u64);
        // Telia and GTT carry most private interconnects (§6.1); keep a tail
        // of other Tier-1s for diversity.
        match h % 10 {
            0..=3 => known::TELIA,
            4..=6 => known::GTT,
            7 => known::LUMEN,
            8 => known::SPARKLE,
            _ => known::ZAYO,
        }
    }

    /// Named per-ISP exceptions straight from the paper's case studies.
    fn named_override(&self, provider: Provider, isp: Asn) -> Option<PeeringKind> {
        use PeeringKind::*;
        // Fig. 12a: hypergiants peer directly with all top-5 German ISPs;
        // the two named exceptions route publicly.
        if isp == known::TELEFONICA_DE && provider == Provider::Alibaba {
            return Some(Public);
        }
        if isp == known::VODAFONE_DE && provider == Provider::DigitalOcean {
            return Some(Public);
        }
        let german = known::GERMAN_ISPS.iter().any(|(a, _)| *a == isp);
        if german && provider.is_hypergiant() {
            return Some(Direct);
        }
        // Fig. 13a: Japanese ISPs peer directly with hypergiants except
        // NTT (AS4713) → Amazon.
        let japanese = known::JAPANESE_ISPS.iter().any(|(a, _)| *a == isp);
        if japanese {
            if isp == known::NTT_OCN
                && matches!(provider, Provider::AmazonEc2 | Provider::AmazonLightsail)
            {
                return Some(PrivateTransit);
            }
            if provider.is_hypergiant() {
                return Some(Direct);
            }
            // DigitalOcean strictly public in Asia (§6.2).
            if provider == Provider::DigitalOcean {
                return Some(Public);
            }
        }
        // Fig. 17a: Ukrainian ISPs peer directly with hypergiants.
        let ukrainian = known::UKRAINIAN_ISPS.iter().any(|(a, _)| *a == isp);
        if ukrainian && provider.is_hypergiant() {
            return Some(Direct);
        }
        // Fig. 18a: in Bahrain only Microsoft and Google directly peer, and
        // only with a handful of ISPs.
        let bahraini = known::BAHRAINI_ISPS.iter().any(|(a, _)| *a == isp);
        if bahraini {
            return Some(match provider {
                Provider::Microsoft if isp == known::BATELCO || isp == known::ZAIN_BH => Direct,
                Provider::Google if isp == known::BATELCO => Direct,
                Provider::Microsoft | Provider::Google => PrivateTransit,
                Provider::AmazonEc2 | Provider::AmazonLightsail => PrivateTransit,
                _ => Public,
            });
        }
        None
    }

    /// Default mix by provider class, calibrated to Fig. 10's AS-hop
    /// distribution.
    fn mix_for(&self, provider: Provider, country: CountryCode, continent: Continent) -> Mix {
        let wan = WanFootprint::new(provider);
        match provider {
            p if p.is_hypergiant() => Mix { direct: 0.70, ixp: 0.08, private_transit: 0.17 },
            Provider::DigitalOcean => {
                if wan.spans(continent) {
                    Mix { direct: 0.15, ixp: 0.10, private_transit: 0.55 }
                } else {
                    // Strictly public outside EU/NA (§6.2 for Asia).
                    Mix { direct: 0.0, ixp: 0.0, private_transit: 0.05 }
                }
            }
            Provider::Ibm => {
                if wan.spans(continent) {
                    // "Exchanges traffic at public IXPs more than any of its
                    // contemporaries" (§6.2).
                    Mix { direct: 0.20, ixp: 0.20, private_transit: 0.45 }
                } else {
                    Mix { direct: 0.0, ixp: 0.05, private_transit: 0.20 }
                }
            }
            Provider::Alibaba => {
                if country == CountryCode::new("CN") {
                    Mix { direct: 0.80, ixp: 0.0, private_transit: 0.15 }
                } else {
                    // Islands: ingress via public transit (§6.1).
                    Mix { direct: 0.02, ixp: 0.05, private_transit: 0.15 }
                }
            }
            Provider::Oracle => Mix { direct: 0.08, ixp: 0.07, private_transit: 0.25 },
            Provider::Vultr | Provider::Linode => {
                Mix { direct: 0.04, ixp: 0.10, private_transit: 0.26 }
            }
            _ => unreachable!("all providers covered"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> InterconnectPolicy {
        InterconnectPolicy::new(42)
    }

    fn de() -> (CountryCode, Continent) {
        (CountryCode::new("DE"), Continent::Europe)
    }

    #[test]
    fn decisions_are_deterministic() {
        let p1 = policy();
        let p2 = policy();
        let (cc, cont) = de();
        for prov in Provider::ALL {
            for asn in [100u32, 200_001, 200_777] {
                assert_eq!(
                    p1.decide(prov, Asn(asn), cc, cont),
                    p2.decide(prov, Asn(asn), cc, cont)
                );
            }
        }
    }

    #[test]
    fn german_isps_direct_with_hypergiants() {
        let p = policy();
        let (cc, cont) = de();
        for (isp, _) in known::GERMAN_ISPS {
            for prov in [Provider::AmazonEc2, Provider::Google, Provider::Microsoft] {
                assert_eq!(p.decide(prov, *isp, cc, cont), PeeringKind::Direct);
            }
        }
    }

    #[test]
    fn named_exceptions_hold() {
        let p = policy();
        let (cc, cont) = de();
        assert_eq!(
            p.decide(Provider::Alibaba, known::TELEFONICA_DE, cc, cont),
            PeeringKind::Public
        );
        assert_eq!(
            p.decide(Provider::DigitalOcean, known::VODAFONE_DE, cc, cont),
            PeeringKind::Public
        );
        let jp = (CountryCode::new("JP"), Continent::Asia);
        assert_eq!(
            p.decide(Provider::AmazonEc2, known::NTT_OCN, jp.0, jp.1),
            PeeringKind::PrivateTransit
        );
        assert_eq!(
            p.decide(Provider::Google, known::NTT_OCN, jp.0, jp.1),
            PeeringKind::Direct
        );
    }

    #[test]
    fn digitalocean_public_in_asia() {
        let p = policy();
        let jp = (CountryCode::new("JP"), Continent::Asia);
        for (isp, _) in known::JAPANESE_ISPS {
            assert_eq!(p.decide(Provider::DigitalOcean, *isp, jp.0, jp.1), PeeringKind::Public);
        }
    }

    #[test]
    fn bahrain_matrix_shape() {
        let p = policy();
        let bh = (CountryCode::new("BH"), Continent::Asia);
        assert_eq!(p.decide(Provider::Microsoft, known::BATELCO, bh.0, bh.1), PeeringKind::Direct);
        assert_eq!(p.decide(Provider::Google, known::BATELCO, bh.0, bh.1), PeeringKind::Direct);
        assert_eq!(p.decide(Provider::Microsoft, known::ZAIN_BH, bh.0, bh.1), PeeringKind::Direct);
        // Everyone else: no direct peering into Bahrain ISPs.
        for (isp, _) in known::BAHRAINI_ISPS {
            for prov in [Provider::Vultr, Provider::Linode, Provider::Oracle, Provider::Alibaba] {
                assert_eq!(p.decide(prov, *isp, bh.0, bh.1), PeeringKind::Public, "{prov}");
            }
        }
    }

    #[test]
    fn hypergiants_mostly_direct_in_aggregate() {
        // Fig. 10: >50% of hypergiant paths are direct. Sample 1000
        // synthetic ISPs and check the realised mix.
        let p = policy();
        let (cc, cont) = de();
        let mut direct = 0;
        let n = 1000;
        for i in 0..n {
            let isp = Asn(known::SYNTHETIC_ASN_BASE + i);
            if p.decide(Provider::Google, isp, cc, cont) == PeeringKind::Direct {
                direct += 1;
            }
        }
        let frac = direct as f64 / n as f64;
        assert!(frac > 0.55 && frac < 0.85, "direct fraction {frac}");
    }

    #[test]
    fn small_providers_mostly_public() {
        let p = policy();
        let (cc, cont) = de();
        let mut public = 0;
        let n = 1000;
        for i in 0..n {
            let isp = Asn(known::SYNTHETIC_ASN_BASE + i);
            if p.decide(Provider::Vultr, isp, cc, cont) == PeeringKind::Public {
                public += 1;
            }
        }
        let frac = public as f64 / n as f64;
        assert!(frac > 0.45, "public fraction {frac}");
    }

    #[test]
    fn alibaba_direct_in_china_public_outside() {
        let p = policy();
        let cn = (CountryCode::new("CN"), Continent::Asia);
        let fr = (CountryCode::new("FR"), Continent::Europe);
        let mut cn_direct = 0;
        let mut fr_public = 0;
        let n = 500;
        for i in 0..n {
            let isp = Asn(known::SYNTHETIC_ASN_BASE + 5000 + i);
            if p.decide(Provider::Alibaba, isp, cn.0, cn.1) == PeeringKind::Direct {
                cn_direct += 1;
            }
            if p.decide(Provider::Alibaba, isp, fr.0, fr.1) == PeeringKind::Public {
                fr_public += 1;
            }
        }
        assert!(cn_direct as f64 / n as f64 > 0.6, "CN direct {cn_direct}/{n}");
        assert!(fr_public as f64 / n as f64 > 0.6, "FR public {fr_public}/{n}");
    }

    #[test]
    fn transit_carriers_match_paper_case_studies() {
        let p = policy();
        let jp = CountryCode::new("JP");
        let in_ = CountryCode::new("IN");
        let de = CountryCode::new("DE");
        assert_eq!(p.transit_carrier(Provider::AmazonEc2, known::NTT_OCN, jp, jp), known::NTT_GLOBAL);
        assert_eq!(p.transit_carrier(Provider::AmazonEc2, known::NTT_OCN, jp, in_), known::TATA);
        let c = p.transit_carrier(Provider::Oracle, Asn(200_123), de, CountryCode::new("GB"));
        assert!(
            [known::TELIA, known::GTT, known::LUMEN, known::SPARKLE, known::ZAYO].contains(&c)
        );
    }

    #[test]
    fn public_backbones_have_no_private_plane() {
        use Continent::*;
        for p in [Provider::Vultr, Provider::Linode] {
            assert_eq!(
                cloud_interconnect(p, Europe, Provider::Google, Europe),
                PeeringKind::Public
            );
            assert_eq!(
                cloud_interconnect(Provider::AmazonEc2, Asia, p, NorthAmerica),
                PeeringKind::Public
            );
        }
    }

    #[test]
    fn same_provider_rides_the_wan() {
        use Continent::*;
        assert_eq!(
            cloud_interconnect(Provider::Google, Europe, Provider::Google, Asia),
            PeeringKind::Direct
        );
        // Alibaba islands: Europe↔Asia is a WAN gap bridged by one carrier.
        assert_eq!(
            cloud_interconnect(Provider::Alibaba, Europe, Provider::Alibaba, Asia),
            PeeringKind::PrivateTransit
        );
        assert_eq!(
            cloud_interconnect(Provider::Alibaba, Asia, Provider::Alibaba, Asia),
            PeeringKind::Direct
        );
    }

    #[test]
    fn cross_provider_hypergiants_direct_when_covered() {
        use Continent::*;
        assert_eq!(
            cloud_interconnect(Provider::Google, Europe, Provider::Microsoft, NorthAmerica),
            PeeringKind::Direct
        );
        assert_eq!(
            cloud_interconnect(Provider::Ibm, Europe, Provider::AmazonEc2, Europe),
            PeeringKind::Direct
        );
        // DigitalOcean in Asia is outside its own footprint → carrier haul.
        assert_eq!(
            cloud_interconnect(Provider::DigitalOcean, Asia, Provider::Google, Asia),
            PeeringKind::PrivateTransit
        );
        // Two semis, both covered: private transit, not direct.
        assert_eq!(
            cloud_interconnect(Provider::Ibm, Europe, Provider::DigitalOcean, Europe),
            PeeringKind::PrivateTransit
        );
    }

    #[test]
    fn labels() {
        assert_eq!(PeeringKind::Direct.label(), "direct");
        assert_eq!(PeeringKind::IxpPublic.label(), "1 IXP");
        assert_eq!(PeeringKind::PrivateTransit.label(), "1 AS");
        assert_eq!(PeeringKind::Public.label(), "2+ AS");
    }
}
