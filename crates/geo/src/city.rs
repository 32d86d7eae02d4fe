//! City gazetteer used to place probes, datacenters, ISP PoPs and IXPs.
//!
//! The simulator never places anything at a bare country centroid if it can
//! help it: probes cluster in metros, datacenters sit in specific cities
//! (Frankfurt, Ashburn, São Paulo, ...), and the paper's Fig. 3/6 results
//! depend on the *within-country* spread (e.g. north-African probes far from
//! the Cape Town datacenters). Each city carries a `weight` that approximates
//! its share of the country's online population.

use crate::continent::Continent;
use crate::coord::GeoPoint;
use crate::country::{self, CountryCode};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Index into the global city table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CityId(pub u32);

/// A city with population weight for probe placement.
#[derive(Debug, Clone, Copy)]
pub struct City {
    pub name: &'static str,
    pub country: &'static str,
    pub lat: f64,
    pub lon: f64,
    /// Relative share of the country's online population living here
    /// (weights within a country need not sum to 1; they are normalised at
    /// sampling time).
    pub weight: f64,
    /// The country's continent, resolved when the table compiles.
    continent: Continent,
}

impl City {
    pub fn location(&self) -> GeoPoint {
        GeoPoint::new(self.lat, self.lon)
    }

    pub fn country_code(&self) -> CountryCode {
        CountryCode::new(self.country)
    }

    pub fn continent(&self) -> Continent {
        self.continent
    }
}

/// All cities in `country`, or an empty slice if we only know the centroid.
pub fn in_country(code: CountryCode) -> Vec<&'static City> {
    CITIES.iter().filter(|c| c.country == code.as_str()).collect()
}

/// Look up a city by id.
pub fn by_id(id: CityId) -> Option<&'static City> {
    CITIES.get(id.0 as usize)
}

/// The row of an id taken from this table: from [`id`], [`by_name`], or a
/// static table that stores resolved ids. Panics on an id past the table's
/// end, which no such source yields.
pub fn get(id: CityId) -> &'static City {
    &CITIES[id.0 as usize]
}

/// The id of a gazetteer city, resolved while the caller's static table
/// compiles: a name missing from the gazetteer fails the build. Names that
/// arrive at run time (JSONL, the CLI, store decodes) go through
/// [`by_name`].
pub const fn id(name: &str) -> CityId {
    let mut i = 0;
    while i < ROWS.len() {
        if crate::str_eq(ROWS[i].name, name) {
            return CityId(i as u32);
        }
        i += 1;
    }
    // audit:allow(panic): fires only while compiling a static table
    panic!("static table names a city missing from the gazetteer")
}

/// Find a city by name (exact match), through a name index built on first
/// use.
pub fn by_name(name: &str) -> Option<(CityId, &'static City)> {
    static INDEX: OnceLock<HashMap<&'static str, CityId>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        CITIES.iter().enumerate().map(|(i, c)| (c.name, CityId(i as u32))).collect()
    });
    index.get(name).map(|&id| (id, get(id)))
}

macro_rules! cities {
    ($( $name:literal, $cc:literal, $lat:literal, $lon:literal, $w:literal; )*) => {
        /// The city rows, as a constant so `const fn` lookups can read them.
        const ROWS: &[City] = &[
            $( City {
                name: $name,
                country: $cc,
                lat: $lat,
                lon: $lon,
                weight: $w,
                continent: country::continent_of($cc),
            }, )*
        ];

        /// The global static city table.
        pub static CITIES: &[City] = ROWS;
    };
}

cities! {
    // Europe
    "London", "GB", 51.51, -0.13, 0.35;
    "Manchester", "GB", 53.48, -2.24, 0.20;
    "Edinburgh", "GB", 55.95, -3.19, 0.10;
    "Frankfurt", "DE", 50.11, 8.68, 0.20;
    "Berlin", "DE", 52.52, 13.40, 0.25;
    "Munich", "DE", 48.14, 11.58, 0.20;
    "Hamburg", "DE", 53.55, 9.99, 0.15;
    "Paris", "FR", 48.86, 2.35, 0.40;
    "Lyon", "FR", 45.76, 4.84, 0.15;
    "Marseille", "FR", 43.30, 5.37, 0.15;
    "Madrid", "ES", 40.42, -3.70, 0.35;
    "Barcelona", "ES", 41.39, 2.17, 0.25;
    "Milan", "IT", 45.46, 9.19, 0.30;
    "Rome", "IT", 41.90, 12.50, 0.30;
    "Amsterdam", "NL", 52.37, 4.90, 0.50;
    "Brussels", "BE", 50.85, 4.35, 0.50;
    "Zurich", "CH", 47.38, 8.54, 0.45;
    "Vienna", "AT", 48.21, 16.37, 0.50;
    "Warsaw", "PL", 52.23, 21.01, 0.35;
    "Krakow", "PL", 50.06, 19.94, 0.20;
    "Prague", "CZ", 50.08, 14.44, 0.45;
    "Stockholm", "SE", 59.33, 18.07, 0.45;
    "Oslo", "NO", 59.91, 10.75, 0.50;
    "Copenhagen", "DK", 55.68, 12.57, 0.50;
    "Helsinki", "FI", 60.17, 24.94, 0.50;
    "Dublin", "IE", 53.35, -6.26, 0.55;
    "Lisbon", "PT", 38.72, -9.14, 0.45;
    "Athens", "GR", 37.98, 23.73, 0.50;
    "Bucharest", "RO", 44.43, 26.10, 0.35;
    "Budapest", "HU", 47.50, 19.04, 0.45;
    "Sofia", "BG", 42.70, 23.32, 0.40;
    "Kyiv", "UA", 50.45, 30.52, 0.35;
    "Kharkiv", "UA", 49.99, 36.23, 0.15;
    "Lviv", "UA", 49.84, 24.03, 0.15;
    "Odesa", "UA", 46.48, 30.73, 0.12;
    "Moscow", "RU", 55.76, 37.62, 0.35;
    "Saint Petersburg", "RU", 59.93, 30.34, 0.18;
    "Minsk", "BY", 53.90, 27.57, 0.50;
    "Belgrade", "RS", 44.79, 20.45, 0.45;
    "Zagreb", "HR", 45.81, 15.98, 0.45;
    "Bratislava", "SK", 48.15, 17.11, 0.45;
    "Vilnius", "LT", 54.69, 25.28, 0.45;
    "Riga", "LV", 56.95, 24.11, 0.50;
    "Tallinn", "EE", 59.44, 24.75, 0.50;
    "Reykjavik", "IS", 64.15, -21.94, 0.70;
    "Luxembourg City", "LU", 49.61, 6.13, 0.70;
    // Asia
    "Tokyo", "JP", 35.68, 139.65, 0.35;
    "Osaka", "JP", 34.69, 135.50, 0.25;
    "Nagoya", "JP", 35.18, 136.91, 0.12;
    "Fukuoka", "JP", 33.59, 130.40, 0.08;
    "Mumbai", "IN", 19.08, 72.88, 0.20;
    "Delhi", "IN", 28.70, 77.10, 0.22;
    "Bangalore", "IN", 12.97, 77.59, 0.15;
    "Chennai", "IN", 13.08, 80.27, 0.12;
    "Hyderabad", "IN", 17.39, 78.49, 0.10;
    "Kolkata", "IN", 22.57, 88.36, 0.10;
    "Shanghai", "CN", 31.23, 121.47, 0.18;
    "Beijing", "CN", 39.90, 116.40, 0.18;
    "Shenzhen", "CN", 22.54, 114.06, 0.12;
    "Chengdu", "CN", 30.57, 104.07, 0.08;
    "Hangzhou", "CN", 30.27, 120.16, 0.08;
    "Guangzhou", "CN", 23.13, 113.26, 0.10;
    "Qingdao", "CN", 36.07, 120.38, 0.05;
    "Zhangjiakou", "CN", 40.77, 114.89, 0.03;
    "Hohhot", "CN", 40.84, 111.75, 0.03;
    "Hong Kong", "HK", 22.32, 114.17, 0.90;
    "Singapore", "SG", 1.35, 103.82, 0.95;
    "Seoul", "KR", 37.57, 126.98, 0.55;
    "Busan", "KR", 35.18, 129.08, 0.15;
    "Taipei", "TW", 25.03, 121.57, 0.55;
    "Bangkok", "TH", 13.76, 100.50, 0.45;
    "Jakarta", "ID", -6.21, 106.85, 0.35;
    "Surabaya", "ID", -7.26, 112.75, 0.12;
    "Kuala Lumpur", "MY", 3.139, 101.69, 0.45;
    "Manila", "PH", 14.60, 120.98, 0.40;
    "Hanoi", "VN", 21.03, 105.85, 0.25;
    "Ho Chi Minh City", "VN", 10.82, 106.63, 0.30;
    "Karachi", "PK", 24.86, 67.01, 0.25;
    "Lahore", "PK", 31.55, 74.34, 0.20;
    "Dhaka", "BD", 23.81, 90.41, 0.45;
    "Colombo", "LK", 6.93, 79.85, 0.50;
    "Kathmandu", "NP", 27.72, 85.32, 0.45;
    "Tehran", "IR", 35.69, 51.39, 0.35;
    "Mashhad", "IR", 36.26, 59.62, 0.12;
    "Isfahan", "IR", 32.65, 51.67, 0.10;
    "Istanbul", "TR", 41.01, 28.98, 0.35;
    "Ankara", "TR", 39.93, 32.86, 0.15;
    "Dubai", "AE", 25.20, 55.27, 0.55;
    "Abu Dhabi", "AE", 24.45, 54.38, 0.25;
    "Riyadh", "SA", 24.71, 46.68, 0.35;
    "Jeddah", "SA", 21.49, 39.19, 0.20;
    "Manama", "BH", 26.23, 50.59, 0.90;
    "Doha", "QA", 25.29, 51.53, 0.85;
    "Kuwait City", "KW", 29.38, 47.99, 0.80;
    "Muscat", "OM", 23.59, 58.41, 0.60;
    "Tel Aviv", "IL", 32.09, 34.78, 0.55;
    "Amman", "JO", 31.96, 35.95, 0.55;
    "Baghdad", "IQ", 33.31, 44.36, 0.40;
    "Kabul", "AF", 34.56, 69.21, 0.45;
    "Tashkent", "UZ", 41.30, 69.24, 0.45;
    "Almaty", "KZ", 43.22, 76.85, 0.40;
    "Tbilisi", "GE", 41.72, 44.79, 0.55;
    "Yerevan", "AM", 40.18, 44.51, 0.55;
    "Baku", "AZ", 40.41, 49.87, 0.50;
    "Ulaanbaatar", "MN", 47.89, 106.91, 0.65;
    "Yangon", "MM", 16.87, 96.20, 0.40;
    "Phnom Penh", "KH", 11.56, 104.92, 0.50;
    // North America
    "New York", "US", 40.71, -74.01, 0.15;
    "Ashburn", "US", 39.04, -77.49, 0.05;
    "Chicago", "US", 41.88, -87.63, 0.10;
    "Dallas", "US", 32.78, -96.80, 0.08;
    "Los Angeles", "US", 34.05, -118.24, 0.12;
    "San Francisco", "US", 37.77, -122.42, 0.08;
    "Seattle", "US", 47.61, -122.33, 0.06;
    "Miami", "US", 25.76, -80.19, 0.07;
    "Atlanta", "US", 33.75, -84.39, 0.07;
    "Denver", "US", 39.74, -104.99, 0.05;
    "Toronto", "CA", 43.65, -79.38, 0.35;
    "Montreal", "CA", 45.50, -73.57, 0.22;
    "Vancouver", "CA", 49.28, -123.12, 0.15;
    "Mexico City", "MX", 19.43, -99.13, 0.35;
    "Guadalajara", "MX", 20.66, -103.35, 0.15;
    "Monterrey", "MX", 25.69, -100.32, 0.12;
    "Panama City", "PA", 8.98, -79.52, 0.65;
    "San Jose CR", "CR", 9.93, -84.08, 0.65;
    "Guatemala City", "GT", 14.63, -90.51, 0.50;
    "Havana", "CU", 23.11, -82.37, 0.50;
    "Santo Domingo", "DO", 18.49, -69.93, 0.55;
    "Kingston", "JM", 18.02, -76.80, 0.60;
    "San Juan", "PR", 18.47, -66.11, 0.65;
    // South America
    "Sao Paulo", "BR", -23.55, -46.63, 0.30;
    "Rio de Janeiro", "BR", -22.91, -43.17, 0.18;
    "Brasilia", "BR", -15.79, -47.88, 0.08;
    "Fortaleza", "BR", -3.73, -38.52, 0.08;
    "Porto Alegre", "BR", -30.03, -51.22, 0.07;
    "Buenos Aires", "AR", -34.60, -58.38, 0.45;
    "Cordoba", "AR", -31.42, -64.18, 0.12;
    "Santiago", "CL", -33.45, -70.67, 0.55;
    "Bogota", "CO", 4.71, -74.07, 0.35;
    "Medellin", "CO", 6.24, -75.58, 0.15;
    "Lima", "PE", -12.05, -77.04, 0.50;
    "Quito", "EC", -0.18, -78.47, 0.35;
    "Guayaquil", "EC", -2.19, -79.89, 0.25;
    "Caracas", "VE", 10.48, -66.90, 0.40;
    "La Paz", "BO", -16.49, -68.12, 0.35;
    "Santa Cruz", "BO", -17.78, -63.18, 0.30;
    "Montevideo", "UY", -34.90, -56.16, 0.65;
    "Asuncion", "PY", -25.26, -57.58, 0.55;
    // Africa
    "Johannesburg", "ZA", -26.20, 28.05, 0.35;
    "Cape Town", "ZA", -33.92, 18.42, 0.25;
    "Durban", "ZA", -29.86, 31.03, 0.15;
    "Cairo", "EG", 30.04, 31.24, 0.40;
    "Alexandria", "EG", 31.20, 29.92, 0.15;
    "Casablanca", "MA", 33.57, -7.59, 0.35;
    "Rabat", "MA", 34.02, -6.84, 0.15;
    "Algiers", "DZ", 36.75, 3.06, 0.40;
    "Tunis", "TN", 36.81, 10.18, 0.55;
    "Tripoli", "LY", 32.89, 13.19, 0.50;
    "Lagos", "NG", 6.52, 3.38, 0.30;
    "Abuja", "NG", 9.06, 7.50, 0.12;
    "Accra", "GH", 5.60, -0.19, 0.45;
    "Abidjan", "CI", 5.36, -4.01, 0.45;
    "Dakar", "SN", 14.72, -17.47, 0.55;
    "Nairobi", "KE", -1.29, 36.82, 0.45;
    "Mombasa", "KE", -4.04, 39.67, 0.15;
    "Addis Ababa", "ET", 9.01, 38.75, 0.45;
    "Kampala", "UG", 0.35, 32.58, 0.50;
    "Dar es Salaam", "TZ", -6.79, 39.21, 0.45;
    "Kigali", "RW", -1.94, 30.06, 0.55;
    "Lusaka", "ZM", -15.39, 28.32, 0.50;
    "Harare", "ZW", -17.83, 31.05, 0.50;
    "Luanda", "AO", -8.84, 13.29, 0.50;
    "Kinshasa", "CD", -4.44, 15.27, 0.45;
    "Khartoum", "SD", 15.50, 32.56, 0.50;
    "Maputo", "MZ", -25.89, 32.61, 0.50;
    "Gaborone", "BW", -24.65, 25.91, 0.55;
    "Windhoek", "NA", -22.56, 17.08, 0.55;
    "Antananarivo", "MG", -18.88, 47.51, 0.50;
    "Port Louis", "MU", -20.16, 57.50, 0.70;
    // Additional-coverage capitals (one metro per low-probe country).
    "Belize City", "BZ", 17.50, -88.20, 0.60;
    "Nassau", "BS", 25.04, -77.35, 0.70;
    "Bridgetown", "BB", 13.10, -59.62, 0.70;
    "Port-au-Prince", "HT", 18.54, -72.34, 0.55;
    "Vientiane", "LA", 17.98, 102.63, 0.55;
    "Thimphu", "BT", 27.47, 89.64, 0.60;
    "Male", "MV", 4.18, 73.51, 0.75;
    "Bandar Seri Begawan", "BN", 4.89, 114.94, 0.70;
    "Damascus", "SY", 33.51, 36.29, 0.45;
    "Ramallah", "PS", 31.90, 35.20, 0.55;
    "Bujumbura", "BI", -3.38, 29.36, 0.55;
    "Mogadishu", "SO", 2.05, 45.32, 0.50;
    "N'Djamena", "TD", 12.13, 15.06, 0.55;
    "Niamey", "NE", 13.51, 2.13, 0.55;
    "Nouakchott", "MR", 18.09, -15.98, 0.60;
    "Libreville", "GA", 0.39, 9.45, 0.60;
    "Brazzaville", "CG", -4.26, 15.28, 0.55;
    "Monrovia", "LR", 6.30, -10.80, 0.60;
    "Freetown", "SL", 8.47, -13.23, 0.60;
    "Lome", "TG", 6.13, 1.22, 0.60;
    "Apia", "WS", -13.85, -171.75, 0.70;
    "Nuku'alofa", "TO", -21.14, -175.20, 0.70;
    "Port Vila", "VU", -17.73, 168.32, 0.70;
    "Honiara", "SB", -9.43, 159.96, 0.65;
    // Oceania
    "Sydney", "AU", -33.87, 151.21, 0.30;
    "Melbourne", "AU", -37.81, 144.96, 0.28;
    "Brisbane", "AU", -27.47, 153.03, 0.15;
    "Perth", "AU", -31.95, 115.86, 0.12;
    "Auckland", "NZ", -36.85, 174.76, 0.45;
    "Wellington", "NZ", -41.29, 174.78, 0.18;
    "Suva", "FJ", -18.14, 178.44, 0.65;
    "Port Moresby", "PG", -9.44, 147.18, 0.55;
    "Noumea", "NC", -22.27, 166.46, 0.65;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continent::Continent;
    use std::collections::HashSet;

    #[test]
    fn table_is_nonempty_and_names_unique() {
        assert!(CITIES.len() >= 150, "only {} cities", CITIES.len());
        let mut seen = HashSet::new();
        for c in CITIES {
            assert!(seen.insert(c.name), "duplicate city {}", c.name);
        }
    }

    #[test]
    fn every_city_references_known_country() {
        for c in CITIES {
            assert!(
                crate::country::lookup_str(c.country).is_some(),
                "{} references unknown country {}",
                c.name,
                c.country
            );
        }
    }

    #[test]
    fn stored_continent_is_the_countrys() {
        for c in CITIES {
            let country = crate::country::lookup_str(c.country).unwrap();
            assert_eq!(c.continent(), country.continent, "{}", c.name);
        }
    }

    #[test]
    fn coordinates_valid() {
        for c in CITIES {
            assert!(c.lat.abs() <= 90.0 && c.lon.abs() <= 180.0, "{}", c.name);
            assert!(c.weight > 0.0 && c.weight <= 1.0, "{} weight", c.name);
        }
    }

    #[test]
    fn in_country_returns_all_matches() {
        let de = in_country(CountryCode::new("DE"));
        assert_eq!(de.len(), 4);
        assert!(de.iter().any(|c| c.name == "Frankfurt"));
    }

    #[test]
    fn by_name_by_id_get_and_id_agree() {
        for (i, c) in CITIES.iter().enumerate() {
            let (by_name_id, row) = by_name(c.name).unwrap();
            assert_eq!(by_name_id, CityId(i as u32), "{}", c.name);
            assert_eq!(id(c.name), by_name_id, "{}", c.name);
            assert!(std::ptr::eq(row, c) && std::ptr::eq(get(by_name_id), c));
            assert!(std::ptr::eq(by_id(by_name_id).unwrap(), c));
        }
        assert!(by_name("Atlantis").is_none());
    }

    #[test]
    fn continent_derivation() {
        let (_, tokyo) = by_name("Tokyo").unwrap();
        assert_eq!(tokyo.continent(), Continent::Asia);
        let (_, ct) = by_name("Cape Town").unwrap();
        assert_eq!(ct.continent(), Continent::Africa);
    }

    #[test]
    fn key_infrastructure_cities_present() {
        // Cities that host datacenters or anchor case studies in the paper.
        for name in [
            "Frankfurt", "London", "Ashburn", "Sao Paulo", "Mumbai", "Tokyo", "Singapore",
            "Johannesburg", "Cape Town", "Sydney", "Manama", "Kyiv",
        ] {
            assert!(by_name(name).is_some(), "missing {name}");
        }
    }
}
