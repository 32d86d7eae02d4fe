//! The six populated continents, exactly as grouped in the paper's figures.

use serde::Serialize;
use std::fmt;

/// Continent grouping used throughout the paper (Figs. 4, 5, 7, 8, 15 all
/// group by these six).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Continent {
    Africa,
    Asia,
    Europe,
    NorthAmerica,
    Oceania,
    SouthAmerica,
}

impl Continent {
    /// All six continents in the paper's canonical (alphabetical-code) order:
    /// AF, AS, EU, NA, OC, SA.
    pub const ALL: [Continent; 6] = [
        Continent::Africa,
        Continent::Asia,
        Continent::Europe,
        Continent::NorthAmerica,
        Continent::Oceania,
        Continent::SouthAmerica,
    ];

    /// Two-letter code as used in the paper's tables ("EU", "NA", ...).
    pub fn code(&self) -> &'static str {
        match self {
            Continent::Africa => "AF",
            Continent::Asia => "AS",
            Continent::Europe => "EU",
            Continent::NorthAmerica => "NA",
            Continent::Oceania => "OC",
            Continent::SouthAmerica => "SA",
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Continent::Africa => "Africa",
            Continent::Asia => "Asia",
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::Oceania => "Oceania",
            Continent::SouthAmerica => "South America",
        }
    }

    /// The neighbouring better-provisioned continents the paper probes for
    /// inter-continental access (§4.3): Africa → Europe + North America,
    /// South America → North America.
    pub fn intercontinental_targets(&self) -> &'static [Continent] {
        match self {
            Continent::Africa => &[Continent::Europe, Continent::NorthAmerica],
            Continent::SouthAmerica => &[Continent::NorthAmerica],
            _ => &[],
        }
    }
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_sorted_by_code() {
        let codes: Vec<_> = Continent::ALL.iter().map(|c| c.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn intercontinental_targets_match_section_4_3() {
        assert_eq!(
            Continent::Africa.intercontinental_targets(),
            &[Continent::Europe, Continent::NorthAmerica]
        );
        assert_eq!(
            Continent::SouthAmerica.intercontinental_targets(),
            &[Continent::NorthAmerica]
        );
        assert!(Continent::Europe.intercontinental_targets().is_empty());
    }
}
