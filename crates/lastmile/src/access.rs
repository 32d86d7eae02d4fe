//! Calibrated access-technology profiles.
//!
//! Calibration contract (DESIGN.md §3, sourced from the paper's Figs. 7/8):
//!
//! * WiFi home probes: device→ISP median ≈ 20–25 ms, of which the wired
//!   router→ISP part is ≈ 10 ms; per-probe Cv ≈ 0.5.
//! * Cellular probes: device→first-hop median ≈ 20–25 ms, Cv ≈ 0.5 — the
//!   paper's headline "access type does not matter".
//! * Wired/managed probes (RIPE Atlas): ≈ 10 ms, visibly tighter (Cv ≈ 0.3).

use crate::process::LatencyProcess;
use serde::Serialize;

/// Last-mile access technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AccessType {
    /// End-user device on home WiFi behind a home router (the paper's
    /// "SC home" probes).
    WifiHome,
    /// End-user device on a cellular radio link ("SC cell").
    Cellular,
    /// Early commercial 5G (§5's outlook): the in-the-wild measurements the
    /// paper cites \[64, 65\] found only minimal latency improvement over
    /// LTE, so this profile is a modest — not revolutionary — upgrade.
    Cellular5g,
    /// Wired access in a managed network (RIPE Atlas probes).
    Wired,
}

impl AccessType {
    pub const ALL: [AccessType; 4] = [
        AccessType::WifiHome,
        AccessType::Cellular,
        AccessType::Cellular5g,
        AccessType::Wired,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            AccessType::WifiHome => "wifi-home",
            AccessType::Cellular => "cellular",
            AccessType::Cellular5g => "cellular-5g",
            AccessType::Wired => "wired",
        }
    }

    /// Whether the technology is wireless (drives Fig. 5's platform gap).
    pub fn is_wireless(&self) -> bool {
        !matches!(self, AccessType::Wired)
    }
}

/// The last-mile latency processes for one probe.
///
/// WiFi homes have two segments (device→router over the air, router→ISP over
/// the wire); cellular and wired have one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AccessProfile {
    pub access: AccessType,
    /// Device→router radio segment (WiFi only).
    pub wireless: Option<LatencyProcess>,
    /// Router→ISP wired uplink (WiFi homes), or the whole device→ISP segment
    /// (cellular / wired).
    pub uplink: LatencyProcess,
}

impl AccessProfile {
    /// The baseline profile for an access type.
    pub fn baseline(access: AccessType) -> Self {
        match access {
            AccessType::WifiHome => AccessProfile {
                access,
                // Device→home-router over the air: contention spikes.
                wireless: Some(LatencyProcess::spiky(1.0, 11.0, 0.55, 0.06, 5.0)),
                // Home-router→ISP ingress: DSL/fiber, tighter.
                uplink: LatencyProcess::spiky(2.0, 8.0, 0.40, 0.02, 3.0),
            },
            AccessType::Cellular => AccessProfile {
                access,
                wireless: None,
                // Device→basestation→ISP first hop in one visible segment
                // (the paper cannot split it either).
                uplink: LatencyProcess::spiky(5.0, 17.0, 0.50, 0.06, 4.0),
            },
            AccessType::Cellular5g => AccessProfile {
                access,
                wireless: None,
                // Early 5G in the wild [64, 65]: a few ms better than LTE,
                // similar variability — far from the promised 1 ms.
                uplink: LatencyProcess::spiky(4.0, 16.5, 0.48, 0.05, 4.0),
            },
            AccessType::Wired => AccessProfile {
                access,
                wireless: None,
                uplink: LatencyProcess::spiky(2.0, 8.0, 0.30, 0.01, 3.0),
            },
        }
    }

    /// The hypothetical mature-5G profile of §7's discussion ("5G promising
    /// latencies down to 1 ms"): what the last mile would need to look like
    /// for MTP-class applications to become feasible at all.
    pub fn hypothetical_mature_5g() -> Self {
        AccessProfile {
            access: AccessType::Cellular5g,
            wireless: None,
            uplink: LatencyProcess::spiky(0.8, 1.5, 0.40, 0.02, 5.0),
        }
    }

    /// Per-probe heterogeneity: scale both segments. Real probe populations
    /// are not identical; the campaign derives `factor` deterministically
    /// from the probe id (typical range 0.7–1.6).
    pub fn personalized(&self, factor: f64) -> Self {
        AccessProfile {
            access: self.access,
            wireless: self.wireless.map(|w| w.scaled(factor)),
            uplink: self.uplink.scaled(factor),
        }
    }

    /// Sample the two segments; returns `(wireless_ms, uplink_ms)` where the
    /// wireless part is zero for single-segment technologies.
    pub fn sample_segments<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let w = self.wireless.map_or(0.0, |p| p.sample(rng));
        let u = self.uplink.sample(rng);
        (w, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats_math::{sample_cv, sample_median};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn totals(p: &AccessProfile, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let (w, u) = p.sample_segments(&mut rng);
                w + u
            })
            .collect()
    }

    #[test]
    fn wifi_total_matches_paper_fig7b() {
        let p = AccessProfile::baseline(AccessType::WifiHome);
        let med = sample_median(&totals(&p, 30_000, 1));
        assert!((20.0..=26.0).contains(&med), "WiFi USR-ISP median {med}");
    }

    #[test]
    fn wifi_wired_part_is_about_10ms() {
        let p = AccessProfile::baseline(AccessType::WifiHome);
        let mut rng = StdRng::seed_from_u64(2);
        let uplinks: Vec<f64> = (0..30_000).map(|_| p.uplink.sample(&mut rng)).collect();
        let med = sample_median(&uplinks);
        assert!((8.0..=12.5).contains(&med), "RTR-ISP median {med}");
    }

    #[test]
    fn cellular_total_matches_paper_fig7b() {
        let p = AccessProfile::baseline(AccessType::Cellular);
        let med = sample_median(&totals(&p, 30_000, 3));
        assert!((19.0..=26.0).contains(&med), "cell median {med}");
    }

    #[test]
    fn wifi_and_cellular_are_similar() {
        // The paper's headline: access type does not matter much.
        let wifi = sample_median(&totals(&AccessProfile::baseline(AccessType::WifiHome), 30_000, 4));
        let cell = sample_median(&totals(&AccessProfile::baseline(AccessType::Cellular), 30_000, 5));
        assert!((wifi - cell).abs() < 5.0, "wifi {wifi} vs cell {cell}");
    }

    #[test]
    fn wired_is_2_to_3x_faster_than_wireless() {
        // §1 contribution (3): wireless accounts for 2-3x additional latency.
        let wired = sample_median(&totals(&AccessProfile::baseline(AccessType::Wired), 30_000, 6));
        let wifi = sample_median(&totals(&AccessProfile::baseline(AccessType::WifiHome), 30_000, 7));
        assert!((8.0..=12.5).contains(&wired), "wired median {wired}");
        let ratio = wifi / wired;
        assert!((1.7..=3.2).contains(&ratio), "wireless/wired ratio {ratio}");
    }

    #[test]
    fn cv_targets() {
        let wifi_cv = sample_cv(&totals(&AccessProfile::baseline(AccessType::WifiHome), 30_000, 8));
        let cell_cv = sample_cv(&totals(&AccessProfile::baseline(AccessType::Cellular), 30_000, 9));
        let wired_cv = sample_cv(&totals(&AccessProfile::baseline(AccessType::Wired), 30_000, 10));
        assert!((0.38..=0.75).contains(&wifi_cv), "wifi cv {wifi_cv}");
        assert!((0.38..=0.75).contains(&cell_cv), "cell cv {cell_cv}");
        assert!(wired_cv < wifi_cv, "wired {wired_cv} vs wifi {wifi_cv}");
    }

    #[test]
    fn personalization_scales_median() {
        let median = |p: &AccessProfile| {
            let mut t = totals(p, 20_001, 12);
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        let base = AccessProfile::baseline(AccessType::Cellular);
        let p = base.personalized(1.4);
        assert!(median(&p) > median(&base) * 1.3);
    }

    #[test]
    fn access_type_metadata() {
        assert!(AccessType::WifiHome.is_wireless());
        assert!(AccessType::Cellular.is_wireless());
        assert!(AccessType::Cellular5g.is_wireless());
        assert!(!AccessType::Wired.is_wireless());
        assert_eq!(AccessType::ALL.len(), 4);
    }

    #[test]
    fn early_5g_is_a_modest_improvement() {
        // The paper's cited measurements: minimal improvement over LTE.
        let lte = sample_median(&totals(&AccessProfile::baseline(AccessType::Cellular), 30_000, 20));
        let g5 = sample_median(&totals(&AccessProfile::baseline(AccessType::Cellular5g), 30_000, 21));
        assert!(g5 < lte, "5G {g5} should beat LTE {lte}");
        assert!(lte - g5 < 10.0, "early 5G gain implausibly large: {} ms", lte - g5);
        // Still nowhere near MTP on its own.
        assert!(g5 > 10.0, "early 5G median {g5}");
    }

    #[test]
    fn hypothetical_mature_5g_breaks_the_mtp_barrier() {
        let p = AccessProfile::hypothetical_mature_5g();
        let med = sample_median(&totals(&p, 30_000, 22));
        assert!(med < 4.0, "mature 5G median {med}");
    }

    #[test]
    fn wifi_has_two_segments_cell_has_one() {
        assert!(AccessProfile::baseline(AccessType::WifiHome).wireless.is_some());
        assert!(AccessProfile::baseline(AccessType::Cellular).wireless.is_none());
        assert!(AccessProfile::baseline(AccessType::Wired).wireless.is_none());
    }
}
