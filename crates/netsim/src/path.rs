//! The assembled route between a client and a cloud region.

use crate::hop::Hop;
use cloudy_cloud::PeeringKind;
use cloudy_topology::{Asn, IxpId};
use serde::Serialize;

/// A fully-materialised route. Structure is deterministic per
/// (client, region); only the latency *samples* drawn over it vary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoutePath {
    /// Ground-truth interconnection kind (what the analysis pipeline should
    /// ideally recover from the traceroute).
    pub interconnect: PeeringKind,
    /// AS-level path from serving ISP to the cloud AS (inclusive).
    pub as_path: Vec<Asn>,
    /// Router-level hops, client side first, destination last.
    pub hops: Vec<Hop>,
    /// IXP crossed by the peering edge, if any.
    pub via_ixp: Option<IxpId>,
    /// Total effective fiber km of the wide-area portion.
    pub wide_area_km: f64,
}

impl RoutePath {
    /// Number of intermediate ASes between ISP and cloud (the paper's
    /// Fig. 10 x-axis: "direct" = 0, "1", "2+").
    pub fn intermediate_as_count(&self) -> usize {
        self.as_path.len().saturating_sub(2)
    }

    /// Ground-truth pervasiveness: cloud-owned routers / total routers
    /// (Fig. 11's metric, computed here from simulator truth; the analysis
    /// crate recomputes it from resolved traceroutes).
    pub fn pervasiveness(&self) -> f64 {
        if self.hops.is_empty() {
            return 0.0;
        }
        let cloud = self.hops.iter().filter(|h| h.kind.is_cloud_owned()).count();
        cloud as f64 / self.hops.len() as f64
    }

    /// Sum of per-hop distances — must equal `wide_area_km` plus the
    /// client-side access distance (validated in tests).
    pub fn total_km(&self) -> f64 {
        self.hops.iter().map(|h| h.km_from_prev).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::HopKind;
    use cloudy_geo::GeoPoint;
    use std::net::Ipv4Addr;

    fn hop(kind: HopKind, km: f64) -> Hop {
        Hop::new(kind, Ipv4Addr::new(11, 0, 0, 1), None, GeoPoint::new(0.0, 0.0), km)
    }

    fn path(hops: Vec<Hop>, as_path: Vec<Asn>) -> RoutePath {
        RoutePath {
            interconnect: PeeringKind::Direct,
            as_path,
            hops,
            via_ixp: None,
            wide_area_km: 0.0,
        }
    }

    #[test]
    fn intermediate_count() {
        let p = path(vec![], vec![Asn(1), Asn(2)]);
        assert_eq!(p.intermediate_as_count(), 0);
        let p = path(vec![], vec![Asn(1), Asn(9), Asn(2)]);
        assert_eq!(p.intermediate_as_count(), 1);
        let p = path(vec![], vec![Asn(1)]);
        assert_eq!(p.intermediate_as_count(), 0);
    }

    #[test]
    fn pervasiveness_counts_cloud_hops() {
        let p = path(
            vec![
                hop(HopKind::IspAccess, 0.0),
                hop(HopKind::IspCore, 10.0),
                hop(HopKind::CloudEdge, 100.0),
                hop(HopKind::CloudCore, 500.0),
                hop(HopKind::Destination, 5.0),
            ],
            vec![Asn(1), Asn(2)],
        );
        assert!((p.pervasiveness() - 0.6).abs() < 1e-9);
        assert!((p.total_km() - 615.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_pervasiveness_zero() {
        assert_eq!(path(vec![], vec![]).pervasiveness(), 0.0);
    }
}
