//! Measurement artifacts the paper's §5/§7 caveats describe.
//!
//! The paper infers home vs. cellular probes from traceroute first hops:
//! a private (RFC1918) first hop ⇒ home WiFi, a direct public first hop ⇒
//! cellular. That inference breaks under carrier-grade NAT (the home router's
//! address is already translated) and VPNs. We model both so the analysis
//! pipeline faces the same false positives the authors warn about — and so
//! tests can quantify the classification error by comparing inferred labels
//! against simulator ground truth.

use serde::Serialize;

/// Probability knobs for classification-breaking artifacts. Both rates
/// must lie in `[0, 1]`; `CampaignConfig::validate` checks them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ArtifactConfig {
    /// Probability a WiFi-home probe sits behind carrier-grade NAT, making
    /// its first visible hop a public (or 100.64/10) address — it will be
    /// misclassified as cellular.
    pub cgn_prob: f64,
    /// Probability a probe tunnels through a VPN: the first hop is a remote
    /// public address and the last-mile RTT is inflated.
    pub vpn_prob: f64,
}

impl ArtifactConfig {
    /// Rates in line with published CGN deployment studies \[71\]: roughly a
    /// tenth of residential connections behind CGN, a small VPN share.
    pub fn realistic() -> Self {
        ArtifactConfig { cgn_prob: 0.10, vpn_prob: 0.02 }
    }

    /// No artifacts — the clean mode used to isolate their effect.
    pub fn clean() -> Self {
        ArtifactConfig { cgn_prob: 0.0, vpn_prob: 0.0 }
    }

    /// Deterministic artifact assignment for a probe, from a per-probe hash.
    pub fn assign(&self, probe_hash: u64) -> ProbeArtifacts {
        // Two independent uniform draws from disjoint hash bits.
        let u1 = (probe_hash >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = ((probe_hash.wrapping_mul(0x9E3779B97F4A7C15)) >> 11) as f64 / (1u64 << 53) as f64;
        ProbeArtifacts { behind_cgn: u1 < self.cgn_prob, behind_vpn: u2 < self.vpn_prob }
    }
}

/// Which artifacts affect one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ProbeArtifacts {
    pub behind_cgn: bool,
    pub behind_vpn: bool,
}

impl ProbeArtifacts {
    pub fn none() -> Self {
        ProbeArtifacts { behind_cgn: false, behind_vpn: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_assigns_nothing() {
        let c = ArtifactConfig::clean();
        for h in 0..1000u64 {
            let a = c.assign(h.wrapping_mul(0x12345));
            assert!(!a.behind_cgn && !a.behind_vpn);
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let c = ArtifactConfig::realistic();
        for h in [1u64, 42, 0xDEADBEEF] {
            assert_eq!(c.assign(h), c.assign(h));
        }
    }

    #[test]
    fn realistic_rates_emerge() {
        let c = ArtifactConfig::realistic();
        let n = 20_000u64;
        let mut cgn = 0;
        let mut vpn = 0;
        for i in 0..n {
            // Hash the index so draws are spread over the unit interval.
            let h = i.wrapping_mul(0x9E3779B97F4A7C15) ^ (i << 17);
            let a = c.assign(h);
            if a.behind_cgn {
                cgn += 1;
            }
            if a.behind_vpn {
                vpn += 1;
            }
        }
        let cgn_rate = cgn as f64 / n as f64;
        let vpn_rate = vpn as f64 / n as f64;
        assert!((cgn_rate - 0.10).abs() < 0.02, "cgn rate {cgn_rate}");
        assert!((vpn_rate - 0.02).abs() < 0.01, "vpn rate {vpn_rate}");
    }
}
