//! Router-level hops.

use cloudy_geo::GeoPoint;
use cloudy_topology::Asn;
use serde::Serialize;
use std::net::Ipv4Addr;

/// What kind of device a hop is. Drives addressing, response probability,
/// processing cost, and (ground-truth) ownership for pervasiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum HopKind {
    /// The probe's home router (RFC1918 address).
    HomeRouter,
    /// Carrier-grade NAT gateway (100.64/10 address).
    CgnGateway,
    /// First router inside the serving ISP.
    IspAccess,
    /// ISP core / egress router at the ISP's hub city.
    IspCore,
    /// Regional Tier-2 transit router.
    Tier2Core,
    /// Tier-1 carrier backbone router.
    Tier1Core,
    /// IXP peering-fabric address.
    IxpFabric,
    /// Cloud WAN ingress (edge PoP).
    CloudEdge,
    /// Cloud WAN backbone router.
    CloudCore,
    /// The destination VM in the region.
    Destination,
}

impl HopKind {
    /// Probability the hop answers traceroute probes. Cloud cores and
    /// carrier cores frequently drop TTL-expired probes; the paper's §6.1
    /// lists exactly this as a classification caveat.
    pub fn response_probability(&self) -> f64 {
        match self {
            HopKind::HomeRouter => 0.97,
            HopKind::CgnGateway => 0.60,
            HopKind::IspAccess => 0.95,
            HopKind::IspCore => 0.92,
            HopKind::Tier2Core => 0.90,
            HopKind::Tier1Core => 0.88,
            HopKind::IxpFabric => 0.80,
            HopKind::CloudEdge => 0.90,
            HopKind::CloudCore => 0.75,
            HopKind::Destination => 1.0,
        }
    }

    /// Median per-hop processing cost added to the RTT (ms). Underpowered
    /// home gear is slowest; backbone line cards are fast.
    pub fn processing_ms(&self) -> f64 {
        match self {
            HopKind::HomeRouter => 0.40,
            HopKind::CgnGateway => 0.50,
            HopKind::IspAccess => 0.30,
            HopKind::IspCore => 0.15,
            HopKind::Tier2Core => 0.15,
            HopKind::Tier1Core => 0.10,
            HopKind::IxpFabric => 0.10,
            HopKind::CloudEdge => 0.10,
            HopKind::CloudCore => 0.08,
            HopKind::Destination => 0.20,
        }
    }

    /// Whether the router belongs to the cloud provider (ground truth for
    /// the pervasiveness metric, Fig. 11).
    pub fn is_cloud_owned(&self) -> bool {
        matches!(self, HopKind::CloudEdge | HopKind::CloudCore | HopKind::Destination)
    }
}

/// One router-level hop on a route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Hop {
    pub kind: HopKind,
    /// The address this hop answers traceroute with.
    pub ip: Ipv4Addr,
    /// Ground-truth owner AS (None for RFC1918 home routers and IXP fabrics,
    /// which have no origin AS — exactly why the paper needs special
    /// handling for them).
    pub owner: Option<Asn>,
    /// Approximate physical location (for the GeoIP analog).
    pub location: GeoPoint,
    /// Great-circle-equivalent *effective* fiber km from the previous hop.
    pub km_from_prev: f64,
}

impl Hop {
    /// Convenience constructor.
    pub fn new(kind: HopKind, ip: Ipv4Addr, owner: Option<Asn>, location: GeoPoint, km: f64) -> Self {
        Hop { kind, ip, owner, location, km_from_prev: km }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_probabilities_are_probabilities() {
        let kinds = [
            HopKind::HomeRouter,
            HopKind::CgnGateway,
            HopKind::IspAccess,
            HopKind::IspCore,
            HopKind::Tier2Core,
            HopKind::Tier1Core,
            HopKind::IxpFabric,
            HopKind::CloudEdge,
            HopKind::CloudCore,
            HopKind::Destination,
        ];
        for k in kinds {
            let p = k.response_probability();
            assert!((0.0..=1.0).contains(&p), "{k:?}");
            assert!(k.processing_ms() >= 0.0, "{k:?}");
        }
    }

    #[test]
    fn destination_always_responds() {
        assert_eq!(HopKind::Destination.response_probability(), 1.0);
    }

    #[test]
    fn cloud_ownership_ground_truth() {
        assert!(HopKind::CloudEdge.is_cloud_owned());
        assert!(HopKind::CloudCore.is_cloud_owned());
        assert!(HopKind::Destination.is_cloud_owned());
        assert!(!HopKind::Tier1Core.is_cloud_owned());
        assert!(!HopKind::IspAccess.is_cloud_owned());
        assert!(!HopKind::IxpFabric.is_cloud_owned());
    }
}
