//! Submarine cable model.
//!
//! Inter-continental traffic cannot follow the great circle: it must reach a
//! cable landing station, traverse the cable, and continue terrestrially on
//! the far side. The paper leans on this repeatedly — north-African countries
//! reach *North America* faster than in-continent South Africa (Fig. 6a), and
//! Bolivia/Peru reach North America about as fast as in-continent Brazil
//! thanks to Pacific cables (Fig. 6b). The cable set below is a curated
//! subset of the real submarine cable map [TeleGeography 2019] covering every
//! continent pair the paper measures, with approximate real route lengths.

use crate::continent::Continent;
use crate::coord::GeoPoint;
use serde::Serialize;

/// Index into [`LANDING_POINTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LandingId(pub u32);

/// Index into [`CABLES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CableId(pub u32);

/// A cable landing station (or terrestrial land-bridge waypoint).
#[derive(Debug, Clone, Copy)]
pub struct LandingPoint {
    pub name: &'static str,
    pub country: &'static str,
    pub lat: f64,
    pub lon: f64,
    /// Continents this point connects terrestrially. Most landings belong to
    /// one continent; land bridges (Istanbul, Suez, Panama) belong to two.
    pub continents: &'static [Continent],
}

impl LandingPoint {
    pub fn location(&self) -> GeoPoint {
        GeoPoint::new(self.lat, self.lon)
    }

    /// Whether this point is terrestrially reachable from `continent`.
    pub fn serves(&self, continent: Continent) -> bool {
        self.continents.contains(&continent)
    }
}

/// A submarine cable (or land bridge of length ~0) between two landing
/// points, with its approximate route length in kilometres.
#[derive(Debug, Clone, Copy)]
pub struct Cable {
    pub name: &'static str,
    pub a: LandingId,
    pub b: LandingId,
    pub length_km: f64,
}

use Continent::{Africa, Asia, Europe, NorthAmerica, Oceania, SouthAmerica};

/// Landing stations and land-bridge waypoints.
///
/// Indices are referenced by [`CABLES`]; keep order stable.
pub static LANDING_POINTS: &[LandingPoint] = &[
    /* 0 */ LandingPoint { name: "Bude", country: "GB", lat: 50.83, lon: -4.55, continents: &[Europe] },
    /* 1 */ LandingPoint { name: "Bilbao", country: "ES", lat: 43.26, lon: -2.93, continents: &[Europe] },
    /* 2 */ LandingPoint { name: "Marseille", country: "FR", lat: 43.30, lon: 5.37, continents: &[Europe] },
    /* 3 */ LandingPoint { name: "Lisbon", country: "PT", lat: 38.72, lon: -9.14, continents: &[Europe] },
    /* 4 */ LandingPoint { name: "Virginia Beach", country: "US", lat: 36.85, lon: -75.98, continents: &[NorthAmerica] },
    /* 5 */ LandingPoint { name: "New Jersey", country: "US", lat: 40.22, lon: -74.01, continents: &[NorthAmerica] },
    /* 6 */ LandingPoint { name: "Miami", country: "US", lat: 25.76, lon: -80.19, continents: &[NorthAmerica] },
    /* 7 */ LandingPoint { name: "Los Angeles", country: "US", lat: 33.77, lon: -118.19, continents: &[NorthAmerica] },
    /* 8 */ LandingPoint { name: "Seattle", country: "US", lat: 47.61, lon: -122.33, continents: &[NorthAmerica] },
    /* 9 */ LandingPoint { name: "Fortaleza", country: "BR", lat: -3.73, lon: -38.52, continents: &[SouthAmerica] },
    /* 10 */ LandingPoint { name: "Santos", country: "BR", lat: -23.96, lon: -46.33, continents: &[SouthAmerica] },
    /* 11 */ LandingPoint { name: "Valparaiso", country: "CL", lat: -33.05, lon: -71.62, continents: &[SouthAmerica] },
    /* 12 */ LandingPoint { name: "Lurin", country: "PE", lat: -12.28, lon: -76.87, continents: &[SouthAmerica] },
    /* 13 */ LandingPoint { name: "Barranquilla", country: "CO", lat: 10.96, lon: -74.80, continents: &[SouthAmerica] },
    /* 14 */ LandingPoint { name: "Panama City LP", country: "PA", lat: 8.98, lon: -79.52, continents: &[NorthAmerica, SouthAmerica] },
    /* 15 */ LandingPoint { name: "Casablanca LP", country: "MA", lat: 33.60, lon: -7.63, continents: &[Africa] },
    /* 16 */ LandingPoint { name: "Alexandria LP", country: "EG", lat: 31.20, lon: 29.92, continents: &[Africa] },
    /* 17 */ LandingPoint { name: "Suez", country: "EG", lat: 29.97, lon: 32.55, continents: &[Africa, Asia] },
    /* 18 */ LandingPoint { name: "Djibouti", country: "ET", lat: 11.59, lon: 43.15, continents: &[Africa] },
    /* 19 */ LandingPoint { name: "Mombasa LP", country: "KE", lat: -4.04, lon: 39.67, continents: &[Africa] },
    /* 20 */ LandingPoint { name: "Melkbosstrand", country: "ZA", lat: -33.72, lon: 18.44, continents: &[Africa] },
    /* 21 */ LandingPoint { name: "Mtunzini", country: "ZA", lat: -28.95, lon: 31.75, continents: &[Africa] },
    /* 22 */ LandingPoint { name: "Dakar LP", country: "SN", lat: 14.72, lon: -17.47, continents: &[Africa] },
    /* 23 */ LandingPoint { name: "Lagos LP", country: "NG", lat: 6.42, lon: 3.40, continents: &[Africa] },
    /* 24 */ LandingPoint { name: "Istanbul", country: "TR", lat: 41.01, lon: 28.98, continents: &[Europe, Asia] },
    /* 25 */ LandingPoint { name: "Mumbai LP", country: "IN", lat: 19.08, lon: 72.88, continents: &[Asia] },
    /* 26 */ LandingPoint { name: "Chennai LP", country: "IN", lat: 13.08, lon: 80.27, continents: &[Asia] },
    /* 27 */ LandingPoint { name: "Singapore LP", country: "SG", lat: 1.35, lon: 103.82, continents: &[Asia] },
    /* 28 */ LandingPoint { name: "Hong Kong LP", country: "HK", lat: 22.32, lon: 114.17, continents: &[Asia] },
    /* 29 */ LandingPoint { name: "Shima", country: "JP", lat: 34.30, lon: 136.80, continents: &[Asia] },
    /* 30 */ LandingPoint { name: "Chikura", country: "JP", lat: 34.95, lon: 139.95, continents: &[Asia] },
    /* 31 */ LandingPoint { name: "Sydney LP", country: "AU", lat: -33.87, lon: 151.21, continents: &[Oceania] },
    /* 32 */ LandingPoint { name: "Perth LP", country: "AU", lat: -31.95, lon: 115.86, continents: &[Oceania] },
    /* 33 */ LandingPoint { name: "Auckland LP", country: "NZ", lat: -36.85, lon: 174.76, continents: &[Oceania] },
    /* 34 */ LandingPoint { name: "Fujairah", country: "AE", lat: 25.12, lon: 56.34, continents: &[Asia] },
    /* 35 */ LandingPoint { name: "Tuas", country: "SG", lat: 1.32, lon: 103.65, continents: &[Asia] },
];

/// The cable set. Lengths approximate published route-kilometres.
pub static CABLES: &[Cable] = &[
    // Transatlantic
    Cable { name: "Apollo North", a: LandingId(0), b: LandingId(5), length_km: 6300.0 },
    Cable { name: "MAREA", a: LandingId(1), b: LandingId(4), length_km: 6600.0 },
    Cable { name: "Atlantis-2 (EU-SA)", a: LandingId(3), b: LandingId(9), length_km: 8500.0 },
    // Mediterranean & Middle East
    Cable { name: "SEA-ME-WE Med (Marseille-Alexandria)", a: LandingId(2), b: LandingId(16), length_km: 3200.0 },
    Cable { name: "Atlas Offshore (Marseille-Casablanca)", a: LandingId(2), b: LandingId(15), length_km: 1900.0 },
    Cable { name: "Alexandria-Suez terrestrial", a: LandingId(16), b: LandingId(17), length_km: 350.0 },
    Cable { name: "SEA-ME-WE Red Sea (Suez-Djibouti)", a: LandingId(17), b: LandingId(18), length_km: 2400.0 },
    Cable { name: "SEA-ME-WE Gulf (Djibouti-Fujairah)", a: LandingId(18), b: LandingId(34), length_km: 2600.0 },
    Cable { name: "IMEWE (Suez-Mumbai)", a: LandingId(17), b: LandingId(25), length_km: 4800.0 },
    Cable { name: "Falcon (Fujairah-Mumbai)", a: LandingId(34), b: LandingId(25), length_km: 2100.0 },
    // Africa east & west coasts
    Cable { name: "EASSy (Djibouti-Mombasa)", a: LandingId(18), b: LandingId(19), length_km: 2500.0 },
    Cable { name: "EASSy south (Mombasa-Mtunzini)", a: LandingId(19), b: LandingId(21), length_km: 4500.0 },
    Cable { name: "WACS north (Casablanca-Dakar)", a: LandingId(15), b: LandingId(22), length_km: 2700.0 },
    Cable { name: "WACS (Dakar-Lagos)", a: LandingId(22), b: LandingId(23), length_km: 3500.0 },
    Cable { name: "WACS south (Lagos-Melkbosstrand)", a: LandingId(23), b: LandingId(20), length_km: 5800.0 },
    Cable { name: "ACE (Lisbon-Dakar)", a: LandingId(3), b: LandingId(22), length_km: 3900.0 },
    Cable { name: "Atlantic South (Dakar-Fortaleza)", a: LandingId(22), b: LandingId(9), length_km: 3300.0 },
    // Americas
    Cable { name: "GlobeNet (Fortaleza-Miami)", a: LandingId(9), b: LandingId(6), length_km: 7100.0 },
    Cable { name: "Brazil coastal (Santos-Fortaleza)", a: LandingId(10), b: LandingId(9), length_km: 3400.0 },
    Cable { name: "SAm-1 Pacific (Lurin-Panama)", a: LandingId(12), b: LandingId(14), length_km: 2700.0 },
    Cable { name: "SAm-1 Chile (Valparaiso-Lurin)", a: LandingId(11), b: LandingId(12), length_km: 2600.0 },
    Cable { name: "Pan-Am (Panama-Miami)", a: LandingId(14), b: LandingId(6), length_km: 2100.0 },
    Cable { name: "Caribbean (Barranquilla-Miami)", a: LandingId(13), b: LandingId(6), length_km: 2100.0 },
    // Transpacific
    Cable { name: "Unity (Chikura-Los Angeles)", a: LandingId(30), b: LandingId(7), length_km: 9600.0 },
    Cable { name: "PC-1 (Shima-Seattle)", a: LandingId(29), b: LandingId(8), length_km: 9100.0 },
    Cable { name: "Southern Cross (Sydney-Los Angeles)", a: LandingId(31), b: LandingId(7), length_km: 12500.0 },
    Cable { name: "Southern Cross NZ (Auckland-Los Angeles)", a: LandingId(33), b: LandingId(7), length_km: 11000.0 },
    // Intra-Asia / Asia-Oceania
    Cable { name: "APG (Chikura-Hong Kong)", a: LandingId(30), b: LandingId(28), length_km: 3800.0 },
    Cable { name: "APG south (Hong Kong-Singapore)", a: LandingId(28), b: LandingId(27), length_km: 2800.0 },
    Cable { name: "Bay of Bengal (Singapore-Chennai)", a: LandingId(27), b: LandingId(26), length_km: 3100.0 },
    Cable { name: "SeaMeWe-3 (Singapore-Mumbai)", a: LandingId(35), b: LandingId(25), length_km: 4000.0 },
    Cable { name: "SJC (Shima-Singapore)", a: LandingId(29), b: LandingId(27), length_km: 5300.0 },
    Cable { name: "ASC (Perth-Singapore)", a: LandingId(32), b: LandingId(27), length_km: 4600.0 },
    Cable { name: "Tasman (Sydney-Auckland)", a: LandingId(31), b: LandingId(33), length_km: 2300.0 },
];

/// Look up a landing point.
pub fn landing(id: LandingId) -> &'static LandingPoint {
    &LANDING_POINTS[id.0 as usize]
}

/// Look up a cable.
pub fn cable(id: CableId) -> &'static Cable {
    &CABLES[id.0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cable_endpoints_are_valid() {
        for c in CABLES {
            assert!((c.a.0 as usize) < LANDING_POINTS.len(), "{}", c.name);
            assert!((c.b.0 as usize) < LANDING_POINTS.len(), "{}", c.name);
            assert!(c.length_km > 0.0, "{}", c.name);
        }
    }

    #[test]
    fn cable_length_at_least_great_circle() {
        for c in CABLES {
            let gc = landing(c.a).location().haversine_km(&landing(c.b).location());
            assert!(
                c.length_km >= gc * 0.95,
                "{}: length {} < great-circle {}",
                c.name,
                c.length_km,
                gc
            );
        }
    }

    #[test]
    fn every_continent_has_a_landing() {
        for cont in Continent::ALL {
            assert!(
                LANDING_POINTS.iter().any(|lp| lp.serves(cont)),
                "{cont} has no landing point"
            );
        }
    }

    #[test]
    fn land_bridges_exist() {
        // Istanbul (EU-AS), Suez (AF-AS), Panama (NA-SA).
        let bridges: Vec<_> = LANDING_POINTS
            .iter()
            .filter(|lp| lp.continents.len() == 2)
            .collect();
        assert!(bridges.len() >= 3);
        assert!(bridges.iter().any(|b| b.serves(Continent::Europe) && b.serves(Continent::Asia)));
        assert!(bridges.iter().any(|b| b.serves(Continent::Africa) && b.serves(Continent::Asia)));
        assert!(bridges
            .iter()
            .any(|b| b.serves(Continent::NorthAmerica) && b.serves(Continent::SouthAmerica)));
    }

    #[test]
    fn landing_countries_known() {
        for lp in LANDING_POINTS {
            assert!(
                crate::country::lookup_str(lp.country).is_some(),
                "{} has unknown country {}",
                lp.name,
                lp.country
            );
        }
    }
}
