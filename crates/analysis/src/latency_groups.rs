//! The QoE latency thresholds of §2.1 and Fig. 3's country bands.

use serde::Serialize;

/// Motion-to-Photon: AR/VR bound (ms).
pub const MTP_MS: f64 = 20.0;
/// Human-Perceivable Latency: cloud gaming bound (ms).
pub const HPL_MS: f64 = 100.0;
/// Human Reaction Time: remote-control bound (ms).
pub const HRT_MS: f64 = 250.0;

/// Fig. 3's choropleth bands for a country's median latency to its nearest
/// datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum LatencyBand {
    Below30,
    From30To60,
    From60To100,
    From100To250,
    Above250,
}

impl LatencyBand {
    pub fn of(median_ms: f64) -> LatencyBand {
        match median_ms {
            m if m < 30.0 => LatencyBand::Below30,
            m if m < 60.0 => LatencyBand::From30To60,
            m if m < 100.0 => LatencyBand::From60To100,
            m if m < 250.0 => LatencyBand::From100To250,
            _ => LatencyBand::Above250,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            LatencyBand::Below30 => "<30 ms",
            LatencyBand::From30To60 => "30-60 ms",
            LatencyBand::From60To100 => "60-100 ms",
            LatencyBand::From100To250 => "100-250 ms",
            LatencyBand::Above250 => ">250 ms",
        }
    }

    pub const ALL: [LatencyBand; 5] = [
        LatencyBand::Below30,
        LatencyBand::From30To60,
        LatencyBand::From60To100,
        LatencyBand::From100To250,
        LatencyBand::Above250,
    ];
}

/// Fig. 3's country bands straight from a store query: per-country median
/// RTT and its [`LatencyBand`], pushed into the scan as a P² group-by so
/// memory stays O(countries) — a 100M-row store never materializes a
/// per-country value vector. The medians are P² *estimates* (exact below
/// five samples per country); band edges are 30+ ms apart, far beyond P²
/// error on latency distributions. Keys come back in country order
/// (BTreeMap).
pub fn country_bands_from_store(
    reader: &cloudy_store::Reader,
    query: &cloudy_store::Query,
) -> Result<std::collections::BTreeMap<cloudy_geo::CountryCode, (f64, LatencyBand)>, crate::error::AnalysisError> {
    let q = query
        .clone()
        .group_by(cloudy_store::GroupKey::Country)
        .aggregate(cloudy_store::Agg::P2Quantiles);
    let (groups, _) = q.grouped(reader)?;
    let mut out = std::collections::BTreeMap::new();
    for (id, row) in groups {
        let cloudy_store::GroupId::Country(country) = id else { continue };
        let Some(median) = row.p50 else { continue };
        if median.is_nan() {
            return Err(crate::error::AnalysisError::data("NaN RTT in store scan"));
        }
        out.insert(country, (median, LatencyBand::of(median)));
    }
    Ok(out)
}

/// Which §2.1 application classes a median latency supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QoeSupport {
    pub mtp: bool,
    pub hpl: bool,
    pub hrt: bool,
}

impl QoeSupport {
    pub fn of(median_ms: f64) -> QoeSupport {
        QoeSupport { mtp: median_ms <= MTP_MS, hpl: median_ms <= HPL_MS, hrt: median_ms <= HRT_MS }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time ordering sanity
    fn thresholds_ordered() {
        assert!(MTP_MS < HPL_MS && HPL_MS < HRT_MS);
    }

    #[test]
    fn banding_boundaries() {
        assert_eq!(LatencyBand::of(0.0), LatencyBand::Below30);
        assert_eq!(LatencyBand::of(29.99), LatencyBand::Below30);
        assert_eq!(LatencyBand::of(30.0), LatencyBand::From30To60);
        assert_eq!(LatencyBand::of(99.9), LatencyBand::From60To100);
        assert_eq!(LatencyBand::of(100.0), LatencyBand::From100To250);
        assert_eq!(LatencyBand::of(250.0), LatencyBand::Above250);
        assert_eq!(LatencyBand::of(1000.0), LatencyBand::Above250);
    }

    #[test]
    fn bands_are_ordered() {
        for w in LatencyBand::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn qoe_support() {
        let q = QoeSupport::of(18.0);
        assert!(q.mtp && q.hpl && q.hrt);
        let q = QoeSupport::of(80.0);
        assert!(!q.mtp && q.hpl && q.hrt);
        let q = QoeSupport::of(300.0);
        assert!(!q.mtp && !q.hpl && !q.hrt);
    }
}
