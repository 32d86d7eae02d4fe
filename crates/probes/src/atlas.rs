//! The RIPE Atlas population (Fig. 2), as used by Corneo et al. \[22\].
//!
//! Structural differences from Speedchecker that drive the paper's §4.2
//! platform comparison:
//!
//! * **Wired access** — hardware probes on managed links.
//! * **Deployment bias** — probes cluster near datacenter countries: within
//!   Africa almost everything sits in South Africa; within South America
//!   ≈ 40 % sits in Brazil (vs. > 80 % for Speedchecker — which is exactly
//!   why Speedchecker *wins* in SA, Fig. 5).
//! * **Managed-network quality** — hosted by network enthusiasts, NRENs and
//!   ISPs' own racks; last-mile quality baseline is better than residential.

use crate::probe::{place, quality_factor, Platform, Population};
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_netsim::build::BuiltWorld;

/// Fig. 2 continent totals at scale 1.0.
pub fn continent_total(c: Continent) -> usize {
    match c {
        Continent::Europe => 5_574,
        Continent::Asia => 1_083,
        Continent::NorthAmerica => 866,
        Continent::Africa => 261,
        Continent::SouthAmerica => 216,
        Continent::Oceania => 289,
    }
}

/// Within-continent country weight for Atlas deployment.
pub fn country_weight(cc: CountryCode) -> f64 {
    match cc.as_str() {
        // Europe: broad enthusiast coverage, strongest in DE/FR/NL/GB.
        "DE" => 6.0,
        "FR" => 4.0,
        "GB" => 4.0,
        "NL" => 3.0,
        "RU" => 2.0,
        "CH" | "BE" | "SE" | "CZ" | "AT" | "IT" | "ES" | "PL" => 1.5,
        "UA" => 1.0,
        // Asia: JP/IN/SG visible; Iran far less than Speedchecker.
        "JP" => 1.8,
        "IN" => 1.2,
        "SG" => 1.0,
        "HK" | "IL" | "TR" => 0.8,
        "IR" => 0.25,
        "CN" => 0.1,
        "BH" => 0.15,
        // North America.
        "US" => 6.0,
        "CA" => 2.0,
        "MX" => 0.3,
        // Africa: concentrated in the south, near the only three DCs.
        "ZA" => 12.0,
        "KE" => 0.5,
        "TN" | "MA" => 0.25,
        "EG" | "DZ" | "NG" | "SN" => 0.2,
        // South America: ~40% Brazil, rest genuinely spread (§4.2).
        "BR" => 4.0,
        "AR" => 1.5,
        "CL" => 1.0,
        "CO" => 0.8,
        "EC" | "UY" => 0.5,
        "PE" | "VE" | "BO" | "PY" => 0.4,
        // Oceania.
        "AU" => 6.0,
        "NZ" => 3.0,
        _ => 0.15,
    }
}

/// Build the Atlas population at `fraction` of full scale.
pub fn population(world: &BuiltWorld, fraction: f64, seed: u64) -> Population {
    // Managed deployments: wired, with a tighter, slightly better last
    // mile than the residential baseline.
    place(world, Platform::RipeAtlas, fraction, seed, |h, _, _| {
        (AccessType::Wired, quality_factor(0.90, h))
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
    fn totals_match_figure_2_at_full_scale() {
        let w = world();
        let pop = population(&w, 1.0, 4);
        let total = pop.len();
        assert!((7_800..=8_800).contains(&total), "total {total}");
        let af = pop.in_continent(Continent::Africa).count();
        assert!((200..=320).contains(&af), "AF {af}");
    }

    #[test]
    fn all_probes_wired() {
        let w = world();
        let pop = population(&w, 0.2, 4);
        assert!(pop.probes.iter().all(|p| p.access == AccessType::Wired));
    }

    #[test]
    fn africa_is_south_africa() {
        let w = world();
        let pop = population(&w, 1.0, 4);
        let af = pop.in_continent(Continent::Africa).count();
        let za = pop.in_country(CountryCode::new("ZA")).count();
        assert!(za as f64 / af as f64 > 0.55, "ZA {za}/{af}");
    }

    #[test]
    fn brazil_share_is_moderate_not_dominant() {
        let w = world();
        let pop = population(&w, 1.0, 4);
        let sa = pop.in_continent(Continent::SouthAmerica).count();
        let br = pop.in_country(CountryCode::new("BR")).count();
        let share = br as f64 / sa as f64;
        assert!((0.25..=0.55).contains(&share), "BR share {share}");
    }

    #[test]
    fn atlas_ids_distinct_from_speedchecker_hashes() {
        let w = world();
        let sc = crate::speedchecker::population(&w, 0.005, 4);
        let at = population(&w, 0.05, 4);
        // Same numeric ids exist in both populations, but hashes differ by
        // platform so flows never collide.
        assert_ne!(sc.probes[0].hash(), at.probes[0].hash());
    }
}
