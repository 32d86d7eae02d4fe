//! The Speedchecker population (Fig. 1b).
//!
//! Continent totals are the figure's: EU 72k, AS 31k, NA 5.4k, AF 4k,
//! SA 2.8k, OC 351 — total ≈ 115k. Within continents, named weights encode
//! the paper's observations: Germany/Great Britain/Iran/Japan with 5000+
//! probes; very low visibility into China (§6.1 attributes the Alibaba
//! public-path finding to it); Africa's home probes clustered in the south
//! while ≈75 % of (cellular) probes sit in the north; > 80 % of South
//! American probes in Brazil.

use crate::probe::{place, quality_factor, Platform, Population};
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_netsim::build::BuiltWorld;
use cloudy_netsim::rng::mix;

/// Fig. 1b continent totals at scale 1.0.
pub fn continent_total(c: Continent) -> usize {
    match c {
        Continent::Europe => 72_000,
        Continent::Asia => 31_000,
        Continent::NorthAmerica => 5_400,
        Continent::Africa => 4_000,
        Continent::SouthAmerica => 2_800,
        Continent::Oceania => 351,
    }
}

/// Within-continent country weight.
pub fn country_weight(cc: CountryCode) -> f64 {
    match cc.as_str() {
        // Europe — DE and GB among the densest platforms (5000+ probes).
        "DE" | "GB" => 6.0,
        "FR" => 3.5,
        "IT" => 3.0,
        "RU" => 3.0,
        "ES" | "UA" => 2.5,
        "PL" => 2.2,
        "NL" | "RO" => 1.5,
        "CZ" => 1.2,
        "SE" | "PT" | "GR" | "HU" | "AT" | "BE" | "CH" => 1.0,
        // Asia — Iran and Japan 5000+; China nearly invisible (§6.1).
        "IR" | "JP" => 6.0,
        "IN" => 4.0,
        "ID" => 2.5,
        "TR" => 2.0,
        "TH" | "VN" | "PK" | "PH" | "MY" => 1.5,
        "SA" | "AE" | "IQ" => 1.2,
        "BH" | "KW" | "QA" => 0.8,
        "CN" => 0.15,
        // North America.
        "US" => 5.0,
        "MX" => 2.0,
        "CA" => 1.5,
        // Africa — north-heavy.
        "EG" => 3.0,
        "DZ" | "MA" => 2.0,
        "ZA" => 1.5,
        "NG" | "TN" => 1.0,
        "KE" => 0.8,
        "SN" | "ET" | "GH" | "CI" => 0.4,
        // South America — Brazil dominates (> 80 %).
        "BR" => 16.0,
        "AR" => 0.9,
        "CO" => 0.6,
        "CL" => 0.45,
        "PE" => 0.35,
        "EC" | "VE" => 0.3,
        "BO" => 0.2,
        // Oceania.
        "AU" => 3.0,
        "NZ" => 1.0,
        _ => 0.35,
    }
}

/// Share of a country's probes on home WiFi (the rest are cellular).
/// Northern-African probes are overwhelmingly cellular; the south hosts the
/// continent's home probes (§5's explanation of Fig. 7's Africa numbers).
pub fn home_fraction(cc: CountryCode) -> f64 {
    match cc.as_str() {
        "EG" | "DZ" | "MA" | "TN" | "LY" | "SD" => 0.08,
        "NG" | "GH" | "CI" | "SN" | "ET" => 0.20,
        "KE" => 0.30,
        "ZA" => 0.60,
        "IN" | "ID" | "PK" | "BD" => 0.45,
        _ => 0.55,
    }
}

/// Country-level last-mile quality baseline (multiplier on the access
/// profile). China's measured cloud latencies are exceptionally low
/// (Fig. 3's only sub-MTP country), which requires a faster-than-baseline
/// last mile; under-provisioned regions run slower than baseline.
pub fn country_quality(cc: CountryCode, continent: Continent) -> f64 {
    match cc.as_str() {
        "CN" => 0.55,
        "JP" | "KR" | "SG" | "HK" | "TW" => 0.85,
        _ => match continent {
            Continent::Europe | Continent::NorthAmerica | Continent::Oceania => 0.95,
            Continent::Asia => 1.10,
            Continent::SouthAmerica => 1.10,
            Continent::Africa => 1.20,
        },
    }
}

/// Optional population knobs beyond the paper's Android-only selection.
#[derive(Debug, Clone, Copy)]
pub struct PopulationOptions {
    /// Share of probes on wired access — the platform's router/PC probes
    /// (≈ 11 % of the real platform) that the paper *excluded* and names as
    /// future work in Appendix A.3. Default 0 reproduces the paper.
    pub wired_share: f64,
    /// Share of cellular probes on early 5G instead of LTE. Default 0
    /// (the study predates meaningful 5G deployment).
    pub five_g_share: f64,
}

impl Default for PopulationOptions {
    fn default() -> Self {
        PopulationOptions { wired_share: 0.0, five_g_share: 0.0 }
    }
}

/// Build the Speedchecker population at `fraction` of full scale with the
/// paper's Android-only (wireless) selection.
pub fn population(world: &BuiltWorld, fraction: f64, seed: u64) -> Population {
    population_with(world, fraction, seed, PopulationOptions::default())
}

/// Build the population with explicit options (wired probes, 5G share).
pub fn population_with(
    world: &BuiltWorld,
    fraction: f64,
    seed: u64,
    opts: PopulationOptions,
) -> Population {
    assert!((0.0..=1.0).contains(&opts.wired_share), "wired_share");
    assert!((0.0..=1.0).contains(&opts.five_g_share), "five_g_share");
    place(world, Platform::Speedchecker, fraction, seed, |h, cc, continent| {
        // Independent uniforms need independent hash streams — bit slices
        // of one hash are heavily correlated.
        let unit = |salt: u64| (mix(&[h, salt]) >> 11) as f64 / (1u64 << 53) as f64;
        let u_access = (h >> 33) as f64 / (1u64 << 31) as f64;
        let access = if unit(0xA11E) < opts.wired_share {
            AccessType::Wired
        } else if u_access < home_fraction(cc) {
            AccessType::WifiHome
        } else if unit(0xF1FE) < opts.five_g_share {
            AccessType::Cellular5g
        } else {
            AccessType::Cellular
        };
        (access, quality_factor(country_quality(cc, continent), h))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_netsim::build::{build, WorldConfig};

    fn world() -> BuiltWorld {
        build(&WorldConfig::default())
    }

    #[test]
    fn continent_totals_scale() {
        let w = world();
        let pop = population(&w, 0.02, 9);
        let eu = pop.in_continent(Continent::Europe).count();
        let sa = pop.in_continent(Continent::SouthAmerica).count();
        assert!((eu as i64 - 1440).abs() < 100, "EU {eu}");
        assert!((sa as i64 - 56).abs() < 15, "SA {sa}");
        assert!(pop.len() > 2000, "total {}", pop.len());
    }

    #[test]
    fn brazil_dominates_south_america() {
        let w = world();
        let pop = population(&w, 0.05, 9);
        let sa = pop.in_continent(Continent::SouthAmerica).count();
        let br = pop.in_country(CountryCode::new("BR")).count();
        assert!(br as f64 / sa as f64 > 0.75, "BR {br}/{sa}");
    }

    #[test]
    fn north_africa_is_cellular_south_africa_mixed() {
        let w = world();
        let pop = population(&w, 0.2, 9);
        let eg_home = pop
            .in_country(CountryCode::new("EG"))
            .filter(|p| p.access == AccessType::WifiHome)
            .count();
        let eg_total = pop.in_country(CountryCode::new("EG")).count();
        assert!(eg_total > 50);
        assert!((eg_home as f64 / eg_total as f64) < 0.2, "EG home share");
        let za_home = pop
            .in_country(CountryCode::new("ZA"))
            .filter(|p| p.access == AccessType::WifiHome)
            .count();
        let za_total = pop.in_country(CountryCode::new("ZA")).count();
        assert!(za_home as f64 / za_total as f64 > 0.4, "ZA home share");
    }

    #[test]
    fn all_probes_wireless() {
        let w = world();
        let pop = population(&w, 0.01, 9);
        assert!(pop.probes.iter().all(|p| p.access.is_wireless()));
    }

    #[test]
    fn options_produce_wired_and_5g_shares() {
        let w = world();
        let pop = population_with(
            &w,
            0.05,
            9,
            PopulationOptions { wired_share: 0.11, five_g_share: 0.25 },
        );
        let n = pop.len() as f64;
        let wired = pop.probes.iter().filter(|p| p.access == AccessType::Wired).count() as f64;
        let g5 = pop.probes.iter().filter(|p| p.access == AccessType::Cellular5g).count() as f64;
        assert!((wired / n - 0.11).abs() < 0.02, "wired share {}", wired / n);
        assert!(g5 / n > 0.05, "5g share {}", g5 / n);
        // Default is unchanged (paper mode).
        let base = population(&w, 0.01, 9);
        assert!(base.probes.iter().all(|p| p.access.is_wireless()));
    }

    #[test]
    fn deterministic_under_seed() {
        let w = world();
        let a = population(&w, 0.01, 9);
        let b = population(&w, 0.01, 9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.probes[0].location, b.probes[0].location);
        assert_eq!(a.probes[0].isp, b.probes[0].isp);
        let c = population(&w, 0.01, 10);
        assert!(a.probes.iter().zip(&c.probes).any(|(x, y)| x.isp != y.isp || x.city != y.city));
    }

    #[test]
    fn probes_have_valid_isps() {
        let w = world();
        let pop = population(&w, 0.01, 9);
        for p in &pop.probes {
            assert!(w.isps_by_country[&p.country].contains(&p.isp), "{:?}", p);
            assert!(w.net.graph.contains(p.isp));
        }
    }

    #[test]
    fn countries_with_at_least_gate() {
        let w = world();
        let pop = population(&w, 0.05, 9);
        let big = pop.countries_with_at_least(100);
        assert!(big.contains(&CountryCode::new("DE")));
        assert!(big.contains(&CountryCode::new("GB")));
        assert!(!big.contains(&CountryCode::new("FJ")), "Fiji should be tiny");
    }

    #[test]
    fn china_quality_is_fast() {
        let w = world();
        let pop = population(&w, 0.2, 9);
        let cn: Vec<f64> =
            pop.in_country(CountryCode::new("CN")).map(|p| p.quality).collect();
        assert!(!cn.is_empty());
        let mean = cn.iter().sum::<f64>() / cn.len() as f64;
        assert!(mean < 0.7, "CN mean quality {mean}");
    }
}
