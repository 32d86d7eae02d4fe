//! Autonomous system identity and metadata.

use cloudy_geo::{Continent, CountryCode, GeoPoint};
use serde::Serialize;
use std::fmt;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// The role an AS plays in the topology. Mirrors the network-type field the
/// paper pulls from PeeringDB when enriching AS paths (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AsKind {
    /// Global transit backbone (Telia, GTT, NTT, TATA, ...). Settlement-free
    /// peers with each other; sells transit to everyone else.
    Tier1,
    /// Regional/national transit provider.
    Tier2,
    /// Eyeball / access ISP serving end users — where probes live.
    AccessIsp,
    /// Cloud provider network (possibly a private WAN spanning regions).
    Cloud,
    /// Other edge networks (enterprises, universities). RIPE Atlas probes
    /// are often hosted here (§4.2's "managed deployment" bias).
    Enterprise,
}

impl AsKind {
    /// PeeringDB-style label.
    pub fn label(&self) -> &'static str {
        match self {
            AsKind::Tier1 => "NSP",
            AsKind::Tier2 => "Transit",
            AsKind::AccessIsp => "Cable/DSL/ISP",
            AsKind::Cloud => "Content/Cloud",
            AsKind::Enterprise => "Enterprise",
        }
    }
}

/// Metadata for one AS.
#[derive(Debug, Clone, Serialize)]
pub struct AsInfo {
    pub asn: Asn,
    pub name: String,
    pub kind: AsKind,
    /// Registration country.
    pub country: CountryCode,
    pub continent: Continent,
    /// Headquarters / operational anchor; used to place core routers.
    pub location: GeoPoint,
}

impl AsInfo {
    pub fn new(
        asn: Asn,
        name: impl Into<String>,
        kind: AsKind,
        country: CountryCode,
        continent: Continent,
        location: GeoPoint,
    ) -> Self {
        AsInfo { asn, name: name.into(), kind, country, continent, location }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_display() {
        assert_eq!(Asn(1299).to_string(), "AS1299");
    }

    #[test]
    fn asn_ordering_is_numeric() {
        assert!(Asn(174) < Asn(1299));
        assert!(Asn(65000) > Asn(1299));
    }

    #[test]
    fn kind_labels_distinct() {
        use std::collections::HashSet;
        let kinds = [
            AsKind::Tier1,
            AsKind::Tier2,
            AsKind::AccessIsp,
            AsKind::Cloud,
            AsKind::Enterprise,
        ];
        let labels: HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn asinfo_construction() {
        let info = AsInfo::new(
            Asn(3320),
            "Deutsche Telekom",
            AsKind::AccessIsp,
            CountryCode::new("DE"),
            Continent::Europe,
            GeoPoint::new(50.11, 8.68),
        );
        assert_eq!(info.asn, Asn(3320));
        assert_eq!(info.name, "Deutsche Telekom");
        assert_eq!(info.kind, AsKind::AccessIsp);
    }
}
