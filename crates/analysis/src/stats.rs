//! Statistics primitives used by every figure.
//!
//! §3.3: the paper uses *median* RTT as its primary metric ("resilient to
//! outliers"), full-sample distributions for last-mile analyses, and the
//! coefficient of variation σ/μ per `<probe, datacenter>` pair for Figs. 8/9.

use serde::Serialize;

/// Sorted-sample empirical distribution.
///
/// ```
/// use cloudy_analysis::Cdf;
/// let cdf = Cdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
/// assert_eq!(cdf.median(), 30.0);
/// assert_eq!(cdf.fraction_below(25.0), 0.4);
/// assert_eq!(cdf.quantile(1.0), 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples. NaNs are rejected (they would poison ordering).
    pub fn new(mut values: Vec<f64>) -> Cdf {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN sample");
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN")); // audit:allow(expect)
        Cdf { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Value at quantile `q` in `\[0,1\]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.is_empty(), "quantile of empty CDF");
        let q = q.clamp(0.0, 1.0);
        let ix = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[ix]
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|v| *v <= x);
        n as f64 / self.sorted.len() as f64
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("nonempty") // audit:allow(expect)
    }

    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("nonempty") // audit:allow(expect)
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Evenly-spaced (quantile, value) points for plotting `n` steps.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2);
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                (q, self.quantile(q))
            })
            .collect()
    }
}

/// Five-number summary plus whisker bounds, for the paper's boxplots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BoxStats {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub p95: f64,
}

impl BoxStats {
    pub fn from_samples(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let cdf = Cdf::new(values.to_vec());
        Some(BoxStats {
            min: cdf.min(),
            q1: cdf.quantile(0.25),
            median: cdf.median(),
            q3: cdf.quantile(0.75),
            max: cdf.max(),
            p95: cdf.quantile(0.95),
        })
    }

    /// Interquartile range — the "box height" the paper reads variability
    /// from in Figs. 12b/13b.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl Cdf {
    /// Build a CDF straight from a store query: the pushdown scan decodes
    /// only the RTT column (plus whatever columns the query's predicates
    /// name) of chunks surviving footer and dictionary pruning.
    ///
    /// Sorting the scanned multiset is the same computation `Cdf::new`
    /// performs on in-memory records, so store-backed quantiles equal the
    /// in-memory path's exactly for the same underlying records.
    pub fn from_store(
        reader: &cloudy_store::Reader,
        query: &cloudy_store::Query,
    ) -> Result<Cdf, crate::error::AnalysisError> {
        let (values, _) = query.values(reader)?;
        if values.iter().any(|v| v.is_nan()) {
            // A store file is external input; reject rather than let
            // `Cdf::new` panic on a poisoned sample.
            return Err(crate::error::AnalysisError::data("NaN RTT in store scan"));
        }
        Ok(Cdf::new(values))
    }
}

/// Per-(country, region) median RTTs from a store query — the group-by the
/// country/region figures consume, pushed into the scan
/// ([`Agg::ExactQuantiles`](cloudy_store::Agg) keeps each group's values).
/// Keys iterate in `Ord` order (BTreeMap), so output is deterministic;
/// medians use the same sorted-rank code as [`Cdf`], so they match the
/// in-memory path exactly.
pub fn country_region_medians_from_store(
    reader: &cloudy_store::Reader,
    query: &cloudy_store::Query,
) -> Result<std::collections::BTreeMap<(cloudy_geo::CountryCode, cloudy_cloud::RegionId), f64>, crate::error::AnalysisError>
{
    let q = query
        .clone()
        .group_by(cloudy_store::GroupKey::CountryRegion)
        .aggregate(cloudy_store::Agg::ExactQuantiles);
    let (groups, _) = q.grouped(reader)?;
    let mut out = std::collections::BTreeMap::new();
    for (id, row) in groups {
        let cloudy_store::GroupId::CountryRegion(country, region) = id else { continue };
        let values = row.values.unwrap_or_default();
        if values.is_empty() {
            continue;
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(crate::error::AnalysisError::data("NaN RTT in store scan"));
        }
        out.insert((country, region), Cdf::new(values).median());
    }
    Ok(out)
}

/// Sample median (convenience over [`Cdf`]).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(Cdf::new(values.to_vec()).median())
    }
}

/// Sample mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Coefficient of variation σ/μ (population σ), Figs. 8/9's metric.
pub fn coefficient_of_variation(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    if m == 0.0 {
        return Some(0.0);
    }
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt() / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_data() {
        let c = Cdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 5.0);
        assert_eq!(c.median(), 3.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
    }

    #[test]
    fn fraction_below_counts_inclusive() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_below(2.0), 0.5);
        assert_eq!(c.fraction_below(0.5), 0.0);
        assert_eq!(c.fraction_below(9.0), 1.0);
    }

    #[test]
    fn points_are_monotonic() {
        let c = Cdf::new((0..100).map(|i| (i * 7 % 100) as f64).collect());
        let pts = c.points(11);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_rejected() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn box_stats_shape() {
        let b = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0]).unwrap();
        assert_eq!(b.median, 5.0);
        assert!(b.q1 < b.median && b.median < b.q3);
        assert_eq!(b.max, 100.0);
        assert!(b.iqr() > 0.0);
        assert!(BoxStats::from_samples(&[]).is_none());
    }

    #[test]
    fn cv_matches_hand_computation() {
        // values 2, 4: mean 3, sigma 1, cv = 1/3.
        let cv = coefficient_of_variation(&[2.0, 4.0]).unwrap();
        assert!((cv - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[5.0, 5.0]), Some(0.0));
        assert_eq!(coefficient_of_variation(&[]), None);
    }

    #[test]
    fn median_and_mean_edge_cases() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
    }
}
