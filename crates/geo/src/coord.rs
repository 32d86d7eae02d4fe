//! WGS-84 coordinates and great-circle distance.

use serde::Serialize;

/// Mean Earth radius in kilometres (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A point on the Earth's surface (degrees latitude / longitude).
///
/// Latitude is clamped to `[-90, 90]`, longitude normalised to `(-180, 180]`
/// by [`GeoPoint::new`]. All distances in the workspace are derived from the
/// haversine great-circle formula on these points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Create a point, clamping latitude and wrapping longitude into range.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon <= 0.0 {
            lon += 360.0;
        }
        GeoPoint { lat, lon: lon - 180.0 }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, in `(-180, 180]`.
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    ///
    /// Accurate to ~0.5% against the true geodesic, which is far below the
    /// path-stretch uncertainty the network simulator layers on top.
    ///
    /// ```
    /// use cloudy_geo::GeoPoint;
    /// let munich = GeoPoint::new(48.14, 11.58);
    /// let helsinki = GeoPoint::new(60.17, 24.94);
    /// let km = munich.haversine_km(&helsinki);
    /// assert!((1560.0..1620.0).contains(&km));
    /// ```
    pub fn haversine_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Linear interpolation between two points (crude midpoint for short
    /// spans; used only to place synthetic infrastructure, never to measure).
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        GeoPoint::new((self.lat + other.lat) / 2.0, (self.lon + other.lon) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn munich() -> GeoPoint {
        GeoPoint::new(48.1351, 11.5820)
    }
    fn helsinki() -> GeoPoint {
        GeoPoint::new(60.1699, 24.9384)
    }

    #[test]
    fn zero_distance_to_self() {
        let p = munich();
        assert!(p.haversine_km(&p) < 1e-9);
    }

    #[test]
    fn munich_helsinki_distance_matches_reference() {
        // Reference great-circle distance ~1 590 km.
        let d = munich().haversine_km(&helsinki());
        assert!((d - 1590.0).abs() < 25.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = munich();
        let b = helsinki();
        assert!((a.haversine_km(&b) - b.haversine_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.haversine_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, want {half}");
    }

    #[test]
    fn latitude_is_clamped() {
        let p = GeoPoint::new(123.0, 0.0);
        assert_eq!(p.lat(), 90.0);
    }

    #[test]
    fn longitude_wraps() {
        let p = GeoPoint::new(0.0, 190.0);
        assert!((p.lon() - -170.0).abs() < 1e-9, "got {}", p.lon());
        let q = GeoPoint::new(0.0, -190.0);
        assert!((q.lon() - 170.0).abs() < 1e-9, "got {}", q.lon());
    }

    #[test]
    fn midpoint_between_close_points_is_between() {
        let a = munich();
        let b = helsinki();
        let m = a.midpoint(&b);
        assert!(m.lat() > a.lat() && m.lat() < b.lat());
    }
}
