//! The client (probe) context the simulator routes from.

use cloudy_geo::{Continent, CountryCode, GeoPoint};
use cloudy_lastmile::{AccessProfile, ArtifactConfig};
use cloudy_lastmile::artifacts::ProbeArtifacts;
use cloudy_topology::Asn;
use serde::Serialize;
use std::net::Ipv4Addr;

/// Everything the simulator needs to know about a measurement origin.
///
/// Built by `cloudy-probes` from a platform probe; the simulator itself is
/// platform-agnostic (a RIPE Atlas probe is just a wired client in an
/// enterprise-ish AS).
#[derive(Debug, Clone, Serialize)]
pub struct ClientCtx {
    /// Stable per-probe hash; seeds per-probe heterogeneity and flow ids.
    pub probe_hash: u64,
    pub location: GeoPoint,
    pub country: CountryCode,
    pub continent: Continent,
    /// Serving ISP.
    pub isp: Asn,
    /// Public address the probe's traffic appears from (inside the ISP's
    /// prefix).
    pub public_ip: Ipv4Addr,
    /// Last-mile behaviour.
    pub access: AccessProfile,
    /// CGN/VPN artifacts affecting this probe.
    pub artifacts: ProbeArtifacts,
}

impl ClientCtx {
    /// Apply an artifact configuration (deterministic per probe).
    pub fn with_artifacts(mut self, cfg: &ArtifactConfig) -> Self {
        self.artifacts = cfg.assign(self.probe_hash);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_lastmile::AccessType;

    fn client() -> ClientCtx {
        ClientCtx {
            probe_hash: 0xABCD,
            location: GeoPoint::new(48.14, 11.58),
            country: CountryCode::new("DE"),
            continent: Continent::Europe,
            isp: Asn(3320),
            public_ip: Ipv4Addr::new(11, 0, 0, 5),
            access: AccessProfile::baseline(AccessType::WifiHome),
            artifacts: ProbeArtifacts::none(),
        }
    }

    #[test]
    fn with_artifacts_is_deterministic() {
        let cfg = ArtifactConfig::realistic();
        let a = client().with_artifacts(&cfg);
        let b = client().with_artifacts(&cfg);
        assert_eq!(a.artifacts, b.artifacts);
    }

    #[test]
    fn clean_config_assigns_none() {
        let c = client().with_artifacts(&ArtifactConfig::clean());
        assert!(!c.artifacts.behind_cgn && !c.artifacts.behind_vpn);
    }
}
