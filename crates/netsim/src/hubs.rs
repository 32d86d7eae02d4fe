//! Tier-1 carrier hub cities.
//!
//! Transit traffic does not follow the great circle: it enters the carrier's
//! network at the hub nearest the customer and exits at the hub nearest the
//! destination. Where a carrier has no hub on a continent, traffic trombones
//! through another continent — the documented cause of African and
//! Middle-Eastern paths detouring via Europe, which the paper's Fig. 6a and
//! Fig. 18b latencies exhibit.

use cloudy_geo::{city, City, CityId, GeoPoint};
use cloudy_topology::{known, Asn};

macro_rules! hubs {
    ($( $carrier:ident: $( $city:literal ),+; )*) => {
        /// Hub cities of each named Tier-1, as gazetteer ids resolved when
        /// the table compiles.
        static HUBS: &[(Asn, &[CityId])] = &[
            $( (known::$carrier, &[$( city::id($city) ),+]), )*
        ];
    };
}

hubs! {
    TELIA: "Stockholm", "Frankfurt", "London", "Ashburn", "Chicago";
    GTT: "London", "Frankfurt", "New York", "Dallas", "Madrid";
    NTT_GLOBAL: "Tokyo", "Osaka", "Los Angeles", "London", "Singapore";
    TATA: "Mumbai", "Chennai", "Singapore", "London", "New York";
    COGENT: "Ashburn", "Chicago", "Los Angeles", "Paris", "Frankfurt";
    LUMEN: "Denver", "Ashburn", "London", "Amsterdam", "Sao Paulo";
    SPARKLE: "Milan", "Marseille", "Miami", "Sao Paulo", "Buenos Aires";
    ZAYO: "Denver", "New York", "London", "Paris";
    PCCW: "Hong Kong", "Singapore", "Tokyo", "London", "San Francisco";
    ORANGE_OTI: "Paris", "Marseille", "Dakar", "Abidjan", "Mumbai";
}

/// Hub cities for each named Tier-1, as gazetteer ids. Synthetic Tier-2s
/// use their anchor city instead (see `Network`).
pub fn hub_cities(carrier: Asn) -> &'static [CityId] {
    HUBS.iter().find(|(asn, _)| *asn == carrier).map_or(&[], |(_, ids)| ids)
}

/// The carrier hub nearest to `point`, or `None` for carriers without a hub
/// table (synthetic Tier-2s).
pub fn nearest_hub(carrier: Asn, point: GeoPoint) -> Option<&'static City> {
    hub_cities(carrier).iter().map(|&id| city::get(id)).min_by(|a, b| {
        let da = a.location().haversine_km(&point);
        let db = b.location().haversine_km(&point);
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_hubs_match_their_by_name_rows() {
        for (asn, _) in known::TIER1S {
            for &id in hub_cities(*asn) {
                let hub = city::get(id);
                let (by_name_id, row) = city::by_name(hub.name).unwrap();
                assert_eq!(by_name_id, id, "{asn} hub {}", hub.name);
                let by_name_loc = GeoPoint::new(row.lat, row.lon);
                assert_eq!(hub.location(), by_name_loc, "{asn} hub {}", hub.name);
            }
            assert!(!hub_cities(*asn).is_empty(), "no hubs for {asn}");
        }
    }

    #[test]
    fn unknown_carrier_has_no_hubs() {
        assert!(hub_cities(Asn(99_999)).is_empty());
        assert!(nearest_hub(Asn(99_999), GeoPoint::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn nearest_hub_geometry() {
        // From Nairobi, Telia's nearest hub is in Europe (no African hub) —
        // the trombone.
        let nairobi = GeoPoint::new(-1.29, 36.82);
        let name = nearest_hub(known::TELIA, nairobi).unwrap().name;
        assert!(["Frankfurt", "London", "Stockholm"].contains(&name), "got {name}");
        // From Tokyo, NTT's nearest hub is Tokyo itself.
        let tokyo = GeoPoint::new(35.68, 139.65);
        assert_eq!(nearest_hub(known::NTT_GLOBAL, tokyo).unwrap().name, "Tokyo");
        // Orange has West-African hubs: from Dakar, the hub is local.
        let dakar = GeoPoint::new(14.72, -17.47);
        assert_eq!(nearest_hub(known::ORANGE_OTI, dakar).unwrap().name, "Dakar");
    }
}
