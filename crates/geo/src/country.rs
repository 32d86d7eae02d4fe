//! ISO-3166 country table with centroids and continent assignment.
//!
//! The table covers every country named in the paper (measurement origins,
//! datacenter hosts, case-study endpoints) plus enough additional coverage to
//! model the paper's claim of probes "in over 140 countries". Centroids are
//! population-weighted approximations (the largest metro area rather than the
//! geometric centroid — a probe in "Canada" is far more likely in Toronto
//! than in Nunavut, and the paper's latencies are driven by where people
//! actually are).

use crate::continent::Continent;
use crate::coord::GeoPoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Two-letter ISO-3166-1 alpha-2 country code, stored inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Construct from a two-ASCII-letter string. Panics on malformed input;
    /// use [`CountryCode::try_new`] for fallible construction.
    pub fn new(code: &str) -> Self {
        Self::try_new(code).unwrap_or_else(|| panic!("invalid country code {code:?}")) // audit:allow(panic)
    }

    /// Fallible construction: exactly two ASCII letters.
    pub fn try_new(code: &str) -> Option<Self> {
        let bytes = code.as_bytes();
        if bytes.len() == 2 && bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            Some(CountryCode([
                bytes[0].to_ascii_uppercase(),
                bytes[1].to_ascii_uppercase(),
            ]))
        } else {
            None
        }
    }

    /// The code as a `&str` ("DE", "JP", ...).
    pub fn as_str(&self) -> &str {
        // Invariant: always ASCII uppercase letters.
        std::str::from_utf8(&self.0).expect("country codes are ASCII") // audit:allow(expect)
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A country: code, name, continent, and population-weighted centroid.
#[derive(Debug, Clone, Copy)]
pub struct Country {
    pub code: &'static str,
    pub name: &'static str,
    pub continent: Continent,
    /// (lat, lon) of the population-weighted centroid.
    pub centroid: (f64, f64),
}

impl Country {
    /// The centroid as a [`GeoPoint`].
    pub fn location(&self) -> GeoPoint {
        GeoPoint::new(self.centroid.0, self.centroid.1)
    }

    /// The typed country code.
    pub fn code(&self) -> CountryCode {
        CountryCode::new(self.code)
    }
}

/// Look up a country by ISO code. Returns `None` for unknown codes.
pub fn lookup(code: CountryCode) -> Option<&'static Country> {
    COUNTRIES.iter().find(|c| c.code == code.as_str())
}

/// Look up by a string code ("de", "DE", ...).
pub fn lookup_str(code: &str) -> Option<&'static Country> {
    CountryCode::try_new(code).and_then(lookup)
}

/// All countries on a continent.
pub fn in_continent(continent: Continent) -> impl Iterator<Item = &'static Country> {
    COUNTRIES.iter().filter(move |c| c.continent == continent)
}

/// Continent of a country code in [`COUNTRIES`], for tables that resolve
/// their rows while the crate compiles: an unknown code fails the build.
pub(crate) const fn continent_of(code: &str) -> Continent {
    let mut i = 0;
    while i < ROWS.len() {
        if crate::str_eq(ROWS[i].code, code) {
            return ROWS[i].continent;
        }
        i += 1;
    }
    // audit:allow(panic): fires only while compiling a static table
    panic!("gazetteer row names a country missing from the country table")
}

macro_rules! countries {
    ($( $code:literal, $name:literal, $cont:ident, $lat:literal, $lon:literal; )*) => {
        /// The country rows, as a constant so `const fn` lookups can read them.
        const ROWS: &[Country] = &[
            $( Country {
                code: $code,
                name: $name,
                continent: Continent::$cont,
                centroid: ($lat, $lon),
            }, )*
        ];

        /// The full static country table.
        pub static COUNTRIES: &[Country] = ROWS;
    };
}

countries! {
    // ---- Europe -------------------------------------------------------
    "AL", "Albania",          Europe, 41.33, 19.82;
    "AT", "Austria",          Europe, 48.21, 16.37;
    "BA", "Bosnia and Herzegovina", Europe, 43.86, 18.41;
    "BE", "Belgium",          Europe, 50.85, 4.35;
    "BG", "Bulgaria",         Europe, 42.70, 23.32;
    "BY", "Belarus",          Europe, 53.90, 27.57;
    "CH", "Switzerland",      Europe, 47.38, 8.54;
    "CY", "Cyprus",           Europe, 35.17, 33.37;
    "CZ", "Czechia",          Europe, 50.08, 14.44;
    "DE", "Germany",          Europe, 50.11, 8.68;
    "DK", "Denmark",          Europe, 55.68, 12.57;
    "EE", "Estonia",          Europe, 59.44, 24.75;
    "ES", "Spain",            Europe, 40.42, -3.70;
    "FI", "Finland",          Europe, 60.17, 24.94;
    "FR", "France",           Europe, 48.86, 2.35;
    "GB", "United Kingdom",   Europe, 51.51, -0.13;
    "GR", "Greece",           Europe, 37.98, 23.73;
    "HR", "Croatia",          Europe, 45.81, 15.98;
    "HU", "Hungary",          Europe, 47.50, 19.04;
    "IE", "Ireland",          Europe, 53.35, -6.26;
    "IS", "Iceland",          Europe, 64.15, -21.94;
    "IT", "Italy",            Europe, 45.46, 9.19;
    "LT", "Lithuania",        Europe, 54.69, 25.28;
    "LU", "Luxembourg",       Europe, 49.61, 6.13;
    "LV", "Latvia",           Europe, 56.95, 24.11;
    "MD", "Moldova",          Europe, 47.01, 28.86;
    "ME", "Montenegro",       Europe, 42.44, 19.26;
    "MK", "North Macedonia",  Europe, 41.99, 21.43;
    "MT", "Malta",            Europe, 35.90, 14.51;
    "NL", "Netherlands",      Europe, 52.37, 4.90;
    "NO", "Norway",           Europe, 59.91, 10.75;
    "PL", "Poland",           Europe, 52.23, 21.01;
    "PT", "Portugal",         Europe, 38.72, -9.14;
    "RO", "Romania",          Europe, 44.43, 26.10;
    "RS", "Serbia",           Europe, 44.79, 20.45;
    "RU", "Russia",           Europe, 55.76, 37.62;
    "SE", "Sweden",           Europe, 59.33, 18.07;
    "SI", "Slovenia",         Europe, 46.06, 14.51;
    "SK", "Slovakia",         Europe, 48.15, 17.11;
    "UA", "Ukraine",          Europe, 50.45, 30.52;
    // ---- Asia ---------------------------------------------------------
    "AE", "United Arab Emirates", Asia, 25.20, 55.27;
    "AF", "Afghanistan",      Asia, 34.56, 69.21;
    "AM", "Armenia",          Asia, 40.18, 44.51;
    "AZ", "Azerbaijan",       Asia, 40.41, 49.87;
    "BD", "Bangladesh",       Asia, 23.81, 90.41;
    "BH", "Bahrain",          Asia, 26.23, 50.59;
    "CN", "China",            Asia, 31.23, 121.47;
    "GE", "Georgia",          Asia, 41.72, 44.79;
    "HK", "Hong Kong",        Asia, 22.32, 114.17;
    "ID", "Indonesia",        Asia, -6.21, 106.85;
    "IL", "Israel",           Asia, 32.09, 34.78;
    "IN", "India",            Asia, 19.08, 72.88;
    "IQ", "Iraq",             Asia, 33.31, 44.36;
    "IR", "Iran",             Asia, 35.69, 51.39;
    "JO", "Jordan",           Asia, 31.96, 35.95;
    "JP", "Japan",            Asia, 35.68, 139.65;
    "KG", "Kyrgyzstan",       Asia, 42.87, 74.57;
    "KH", "Cambodia",         Asia, 11.56, 104.92;
    "KR", "South Korea",      Asia, 37.57, 126.98;
    "KW", "Kuwait",           Asia, 29.38, 47.99;
    "KZ", "Kazakhstan",       Asia, 43.22, 76.85;
    "LB", "Lebanon",          Asia, 33.89, 35.50;
    "LK", "Sri Lanka",        Asia, 6.93, 79.85;
    "MM", "Myanmar",          Asia, 16.87, 96.20;
    "MN", "Mongolia",         Asia, 47.89, 106.91;
    "MY", "Malaysia",         Asia, 3.139, 101.69;
    "NP", "Nepal",            Asia, 27.72, 85.32;
    "OM", "Oman",             Asia, 23.59, 58.41;
    "PH", "Philippines",      Asia, 14.60, 120.98;
    "PK", "Pakistan",         Asia, 24.86, 67.01;
    "QA", "Qatar",            Asia, 25.29, 51.53;
    "SA", "Saudi Arabia",     Asia, 24.71, 46.68;
    "SG", "Singapore",        Asia, 1.35, 103.82;
    "TH", "Thailand",         Asia, 13.76, 100.50;
    "TJ", "Tajikistan",       Asia, 38.56, 68.77;
    "TM", "Turkmenistan",     Asia, 37.96, 58.33;
    "TR", "Turkey",           Asia, 41.01, 28.98;
    "TW", "Taiwan",           Asia, 25.03, 121.57;
    "UZ", "Uzbekistan",       Asia, 41.30, 69.24;
    "VN", "Vietnam",          Asia, 10.82, 106.63;
    "YE", "Yemen",            Asia, 15.37, 44.19;
    // ---- North America (incl. Central America & Caribbean) -------------
    "CA", "Canada",           NorthAmerica, 43.65, -79.38;
    "CR", "Costa Rica",       NorthAmerica, 9.93, -84.08;
    "CU", "Cuba",             NorthAmerica, 23.11, -82.37;
    "DO", "Dominican Republic", NorthAmerica, 18.49, -69.93;
    "GT", "Guatemala",        NorthAmerica, 14.63, -90.51;
    "HN", "Honduras",         NorthAmerica, 14.07, -87.19;
    "JM", "Jamaica",          NorthAmerica, 18.02, -76.80;
    "MX", "Mexico",           NorthAmerica, 19.43, -99.13;
    "NI", "Nicaragua",        NorthAmerica, 12.11, -86.24;
    "PA", "Panama",           NorthAmerica, 8.98, -79.52;
    "PR", "Puerto Rico",      NorthAmerica, 18.47, -66.11;
    "SV", "El Salvador",      NorthAmerica, 13.69, -89.22;
    "TT", "Trinidad and Tobago", NorthAmerica, 10.65, -61.50;
    "US", "United States",    NorthAmerica, 40.71, -74.01;
    // ---- South America --------------------------------------------------
    "AR", "Argentina",        SouthAmerica, -34.60, -58.38;
    "BO", "Bolivia",          SouthAmerica, -16.49, -68.12;
    "BR", "Brazil",           SouthAmerica, -23.55, -46.63;
    "CL", "Chile",            SouthAmerica, -33.45, -70.67;
    "CO", "Colombia",         SouthAmerica, 4.71, -74.07;
    "EC", "Ecuador",          SouthAmerica, -0.18, -78.47;
    "GY", "Guyana",           SouthAmerica, 6.80, -58.16;
    "PE", "Peru",             SouthAmerica, -12.05, -77.04;
    "PY", "Paraguay",         SouthAmerica, -25.26, -57.58;
    "SR", "Suriname",         SouthAmerica, 5.85, -55.20;
    "UY", "Uruguay",          SouthAmerica, -34.90, -56.16;
    "VE", "Venezuela",        SouthAmerica, 10.48, -66.90;
    // ---- Africa ---------------------------------------------------------
    "AO", "Angola",           Africa, -8.84, 13.29;
    "BF", "Burkina Faso",     Africa, 12.37, -1.52;
    "BJ", "Benin",            Africa, 6.37, 2.39;
    "BW", "Botswana",         Africa, -24.65, 25.91;
    "CD", "DR Congo",         Africa, -4.44, 15.27;
    "CI", "Ivory Coast",      Africa, 5.36, -4.01;
    "CM", "Cameroon",         Africa, 4.05, 9.70;
    "DZ", "Algeria",          Africa, 36.75, 3.06;
    "EG", "Egypt",            Africa, 30.04, 31.24;
    "ET", "Ethiopia",         Africa, 9.01, 38.75;
    "GH", "Ghana",            Africa, 5.60, -0.19;
    "KE", "Kenya",            Africa, -1.29, 36.82;
    "LY", "Libya",            Africa, 32.89, 13.19;
    "MA", "Morocco",          Africa, 33.57, -7.59;
    "MG", "Madagascar",       Africa, -18.88, 47.51;
    "ML", "Mali",             Africa, 12.64, -8.00;
    "MU", "Mauritius",        Africa, -20.16, 57.50;
    "MW", "Malawi",           Africa, -13.97, 33.79;
    "MZ", "Mozambique",       Africa, -25.89, 32.61;
    "NA", "Namibia",          Africa, -22.56, 17.08;
    "NG", "Nigeria",          Africa, 6.52, 3.38;
    "RW", "Rwanda",           Africa, -1.94, 30.06;
    "SD", "Sudan",            Africa, 15.50, 32.56;
    "SN", "Senegal",          Africa, 14.72, -17.47;
    "TN", "Tunisia",          Africa, 36.81, 10.18;
    "TZ", "Tanzania",         Africa, -6.79, 39.21;
    "UG", "Uganda",           Africa, 0.35, 32.58;
    "ZA", "South Africa",     Africa, -26.20, 28.05;
    "ZM", "Zambia",           Africa, -15.39, 28.32;
    "ZW", "Zimbabwe",         Africa, -17.83, 31.05;
    // ---- additional coverage (probes exist in 140+ countries) -----------
    "BZ", "Belize",           NorthAmerica, 17.50, -88.20;
    "BS", "Bahamas",          NorthAmerica, 25.04, -77.35;
    "BB", "Barbados",         NorthAmerica, 13.10, -59.62;
    "HT", "Haiti",            NorthAmerica, 18.54, -72.34;
    "LA", "Laos",             Asia, 17.98, 102.63;
    "BT", "Bhutan",           Asia, 27.47, 89.64;
    "MV", "Maldives",         Asia, 4.18, 73.51;
    "BN", "Brunei",           Asia, 4.89, 114.94;
    "SY", "Syria",            Asia, 33.51, 36.29;
    "PS", "Palestine",        Asia, 31.90, 35.20;
    "BI", "Burundi",          Africa, -3.38, 29.36;
    "SO", "Somalia",          Africa, 2.05, 45.32;
    "TD", "Chad",             Africa, 12.13, 15.06;
    "NE", "Niger",            Africa, 13.51, 2.13;
    "MR", "Mauritania",       Africa, 18.09, -15.98;
    "GA", "Gabon",            Africa, 0.39, 9.45;
    "CG", "Congo",            Africa, -4.26, 15.28;
    "LR", "Liberia",          Africa, 6.30, -10.80;
    "SL", "Sierra Leone",     Africa, 8.47, -13.23;
    "TG", "Togo",             Africa, 6.13, 1.22;
    "WS", "Samoa",            Oceania, -13.85, -171.75;
    "TO", "Tonga",            Oceania, -21.14, -175.20;
    "VU", "Vanuatu",          Oceania, -17.73, 168.32;
    "SB", "Solomon Islands",  Oceania, -9.43, 159.96;
    // ---- Oceania --------------------------------------------------------
    "AU", "Australia",        Oceania, -33.87, 151.21;
    "FJ", "Fiji",             Oceania, -18.14, 178.44;
    "NC", "New Caledonia",    Oceania, -22.27, 166.46;
    "NZ", "New Zealand",      Oceania, -36.85, 174.76;
    "PG", "Papua New Guinea", Oceania, -9.44, 147.18;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_has_broad_coverage() {
        assert!(COUNTRIES.len() >= 140, "only {} countries", COUNTRIES.len());
    }

    #[test]
    fn codes_are_unique() {
        let mut seen = HashSet::new();
        for c in COUNTRIES {
            assert!(seen.insert(c.code), "duplicate code {}", c.code);
        }
    }

    #[test]
    fn all_paper_countries_present() {
        // Every country named in the paper's figures and case studies.
        for code in [
            "DE", "GB", "UA", "JP", "IN", "BH", "CN", "BR", "AR", "BO", "PE", "CO", "EC", "VE",
            "CL", "ZA", "MA", "EG", "DZ", "ET", "KE", "SN", "TN", "US", "MX", "IR", "SG", "ID",
            "TH", "PK", "AF", "IE",
        ] {
            assert!(lookup_str(code).is_some(), "missing {code}");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(lookup_str("de").unwrap().name, "Germany");
        assert_eq!(lookup_str("De").unwrap().name, "Germany");
    }

    #[test]
    fn invalid_codes_rejected() {
        assert!(lookup_str("DEU").is_none());
        assert!(lookup_str("D").is_none());
        assert!(lookup_str("12").is_none());
        assert!(CountryCode::try_new("d3").is_none());
    }

    #[test]
    fn centroids_are_valid_coordinates() {
        for c in COUNTRIES {
            assert!(c.centroid.0.abs() <= 90.0, "{}: bad lat", c.code);
            assert!(c.centroid.1.abs() <= 180.0, "{}: bad lon", c.code);
        }
    }

    #[test]
    fn every_continent_is_populated() {
        for cont in Continent::ALL {
            assert!(in_continent(cont).count() > 0, "{cont} empty");
        }
    }

    #[test]
    fn continent_assignments_spot_checks() {
        assert_eq!(lookup_str("BH").unwrap().continent, Continent::Asia);
        assert_eq!(lookup_str("EG").unwrap().continent, Continent::Africa);
        assert_eq!(lookup_str("MX").unwrap().continent, Continent::NorthAmerica);
        assert_eq!(lookup_str("AU").unwrap().continent, Continent::Oceania);
    }

    #[test]
    fn country_code_display_round_trips() {
        let c = CountryCode::new("jp");
        assert_eq!(c.to_string(), "JP");
        assert_eq!(CountryCode::new(c.as_str()), c);
    }
}
