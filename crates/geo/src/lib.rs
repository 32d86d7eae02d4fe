//! Geodesy substrate for the `cloudy` reproduction of *"Cloudy with a Chance
//! of Short RTTs"* (IMC 2021).
//!
//! The paper's measurements span 140+ countries, 195 cloud regions and six
//! continents; every latency in the study is ultimately dominated by
//! *geographical distance* (the paper's headline finding). This crate provides
//! the geographic ground truth the rest of the workspace builds on:
//!
//! * [`GeoPoint`] — WGS-84 latitude/longitude with great-circle
//!   ([`GeoPoint::haversine_km`]) distance.
//! * [`Continent`] — the six populated continents used throughout the paper's
//!   figures.
//! * [`country`] — an ISO-3166 country table with centroids and continent
//!   assignment covering every country that appears in the paper.
//! * [`city`] — a city gazetteer used to place probes, datacenters, ISP PoPs
//!   and IXPs.
//! * [`cable`] — a submarine-cable model: inter-continental paths must cross
//!   explicit cable segments between landing points (the paper's Fig. 6
//!   explanation for Bolivia/Peru/Kenya hinges on exactly this).
//! * [`distance`] — effective *routed* distance between two points, combining
//!   terrestrial great-circle legs with cable traversals.
//!
//! Everything here is `const`-friendly static data plus pure functions; the
//! crate has no RNG and no I/O, so all downstream simulation determinism
//! reduces to the seeds used elsewhere.

pub mod cable;
pub mod city;
pub mod continent;
pub mod coord;
pub mod country;
pub mod distance;

pub use cable::{Cable, CableId, LandingPoint};
pub use city::{City, CityId};
pub use continent::Continent;
pub use coord::GeoPoint;
pub use country::{Country, CountryCode};
pub use distance::{routed_distance_km, RouteLeg, RoutedPath};

/// Byte-wise string equality usable in `const fn` table lookups.
pub(crate) const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod proptests;
