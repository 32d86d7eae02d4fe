//! Probe identity and population container.

use crate::{atlas, speedchecker};
use cloudy_geo::{city, country, Continent, CountryCode, GeoPoint};
use cloudy_lastmile::{AccessProfile, AccessType, ArtifactConfig};
use cloudy_netsim::build::BuiltWorld;
use cloudy_netsim::rng::{mix, splitmix64};
use cloudy_netsim::{ClientCtx, Network};
use cloudy_topology::Asn;
use serde::Serialize;

/// Stable probe identifier (unique within a platform population).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ProbeId(pub u64);

/// Which measurement platform hosts the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Platform {
    Speedchecker,
    RipeAtlas,
}

impl Platform {
    pub fn label(&self) -> &'static str {
        match self {
            Platform::Speedchecker => "Speedchecker",
            Platform::RipeAtlas => "RIPE Atlas",
        }
    }
}

/// One vantage point.
#[derive(Debug, Clone, Serialize)]
pub struct Probe {
    pub id: ProbeId,
    pub platform: Platform,
    pub country: CountryCode,
    pub continent: Continent,
    /// Gazetteer city the probe lives in (name kept for reporting).
    pub city: String,
    /// City location plus a deterministic jitter of a few km.
    pub location: GeoPoint,
    pub isp: Asn,
    pub access: AccessType,
    /// Per-probe last-mile quality multiplier (1.0 = baseline; < 1 faster).
    pub quality: f64,
}

impl Probe {
    /// Stable hash for RNG derivation.
    pub fn hash(&self) -> u64 {
        mix(&[self.id.0, self.platform as u64 + 1])
    }

    /// Materialise the simulator client for this probe.
    pub fn client_ctx(&self, net: &Network, artifacts: &ArtifactConfig) -> ClientCtx {
        let h = self.hash();
        ClientCtx {
            probe_hash: h,
            location: self.location,
            country: self.country,
            continent: self.continent,
            isp: self.isp,
            public_ip: net.router_ip(self.isp, mix(&[h, 0x9E0])),
            access: AccessProfile::baseline(self.access).personalized(self.quality),
            artifacts: cloudy_lastmile::artifacts::ProbeArtifacts::none(),
        }
        .with_artifacts(artifacts)
    }
}

/// A full platform population.
#[derive(Debug, Clone)]
pub struct Population {
    pub platform: Platform,
    pub probes: Vec<Probe>,
}

impl Population {
    /// Probes in one country.
    pub fn in_country(&self, cc: CountryCode) -> impl Iterator<Item = &Probe> {
        self.probes.iter().filter(move |p| p.country == cc)
    }

    /// Probes on one continent.
    pub fn in_continent(&self, c: Continent) -> impl Iterator<Item = &Probe> {
        self.probes.iter().filter(move |p| p.continent == c)
    }

    /// Countries with at least `n` probes — the paper's "at least 100
    /// probes" experiment gate (§3.3).
    pub fn countries_with_at_least(&self, n: usize) -> Vec<CountryCode> {
        let mut counts: std::collections::HashMap<CountryCode, usize> =
            std::collections::HashMap::new();
        for p in &self.probes {
            *counts.entry(p.country).or_default() += 1;
        }
        let mut out: Vec<CountryCode> =
            counts.into_iter().filter(|(_, c)| *c >= n).map(|(cc, _)| cc).collect();
        out.sort();
        out
    }

    pub fn len(&self) -> usize {
        self.probes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

/// Place `fraction` of a platform's probes over `world`. Each continent's
/// full-scale total is split over the world's countries there by the
/// platform's country weights. Each probe hashes (seed, platform salt,
/// country, index) once, and that hash picks a weighted gazetteer city
/// (the country's centroid where it has none), the ISP and the jitter;
/// `draw(hash, country, continent)` gives its access type and quality.
pub(crate) fn place(
    world: &BuiltWorld,
    platform: Platform,
    fraction: f64,
    seed: u64,
    draw: impl Fn(u64, CountryCode, Continent) -> (AccessType, f64),
) -> Population {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction {fraction}");
    type Tables = (u64, fn(Continent) -> usize, fn(CountryCode) -> f64);
    let (salt, continent_total, country_weight): Tables = match platform {
        Platform::Speedchecker => {
            (0x5C, speedchecker::continent_total, speedchecker::country_weight)
        }
        Platform::RipeAtlas => (0xA7145, atlas::continent_total, atlas::country_weight),
    };
    let mut probes = Vec::new();
    let mut next_id: u64 = 1;
    for continent in Continent::ALL {
        let total = ((continent_total(continent) as f64) * fraction).round() as usize;
        // Countries available in this world (must have ISPs to serve probes).
        let countries: Vec<&country::Country> = country::in_continent(continent)
            .filter(|c| world.isps_by_country.contains_key(&c.code()))
            .collect();
        let wsum: f64 = countries.iter().map(|c| country_weight(c.code())).sum();
        for c in &countries {
            let share = country_weight(c.code()) / wsum;
            let n = ((total as f64) * share).round() as usize;
            let cc = c.code();
            let cities = city::in_country(cc);
            let isps = &world.isps_by_country[&cc];
            let cwsum: f64 = cities.iter().map(|ct| ct.weight).sum();
            let [c0, c1] = [0, 1].map(|i| cc.as_str().as_bytes()[i] as u64);
            for k in 0..n {
                let h = mix(&[seed, salt, c0, c1, k as u64]);
                let (city_name, base_loc) = match cities.last() {
                    None => ("(centroid)".to_string(), c.location()),
                    Some(&last) => {
                        let mut pick = ((h >> 17) as f64 / (1u64 << 47) as f64) * cwsum;
                        let mut chosen = last;
                        for ct in &cities {
                            if pick < ct.weight {
                                chosen = ct;
                                break;
                            }
                            pick -= ct.weight;
                        }
                        (chosen.name.to_string(), chosen.location())
                    }
                };
                let (access, quality) = draw(h, cc, continent);
                probes.push(Probe {
                    id: ProbeId(next_id),
                    platform,
                    country: cc,
                    continent,
                    city: city_name,
                    location: jittered_location(base_loc, h),
                    isp: isps[(h % isps.len() as u64) as usize],
                    access,
                    quality,
                });
                next_id += 1;
            }
        }
    }
    Population { platform, probes }
}

/// Deterministic location jitter: up to ~±0.15° around the city centre.
pub(crate) fn jittered_location(base: GeoPoint, h: u64) -> GeoPoint {
    let a = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
    let b = (splitmix64(h ^ 0x517E) >> 11) as f64 / (1u64 << 53) as f64;
    GeoPoint::new(base.lat() + (a - 0.5) * 0.3, base.lon() + (b - 0.5) * 0.3)
}

/// Per-probe quality factor: log-normal around the country baseline.
pub(crate) fn quality_factor(country_base: f64, h: u64) -> f64 {
    // Inline Box–Muller from two hash-derived uniforms.
    let u1 = ((splitmix64(h ^ 0x0A11) >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let u2 = (splitmix64(h ^ 0x0B22) >> 11) as f64 / (1u64 << 53) as f64;
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    // sigma for cv 0.25.
    let sigma = (1.0f64 + 0.25 * 0.25).ln().sqrt();
    (country_base * (z * sigma).exp()).clamp(0.3, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_small_and_deterministic() {
        let base = GeoPoint::new(48.14, 11.58);
        let a = jittered_location(base, 42);
        let b = jittered_location(base, 42);
        assert_eq!(a, b);
        assert!(base.haversine_km(&a) < 25.0);
        let c = jittered_location(base, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn quality_factor_centred_on_base() {
        let n = 20_000u64;
        let mean: f64 =
            (0..n).map(|i| quality_factor(1.0, mix(&[i, 7]))).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.06, "mean quality {mean}");
        let low: f64 =
            (0..n).map(|i| quality_factor(0.55, mix(&[i, 8]))).sum::<f64>() / n as f64;
        assert!((low - 0.55).abs() < 0.05, "mean quality {low}");
    }

    #[test]
    fn quality_factor_clamped() {
        for i in 0..5000u64 {
            let q = quality_factor(1.0, i);
            assert!((0.3..=3.0).contains(&q));
        }
    }

    #[test]
    fn platform_labels() {
        assert_eq!(Platform::Speedchecker.label(), "Speedchecker");
        assert_eq!(Platform::RipeAtlas.label(), "RIPE Atlas");
    }
}
