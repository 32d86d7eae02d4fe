//! Order statistics for repeated measurements: the median and quartiles
//! reported for every metric, the nearest-rank latency percentile, and the
//! two-set agreement test used to compare runs of one commit.

/// Median, first and third quartile, and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (any order). `None` for an empty slice.
    ///
    /// The quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (the default "exclusive" method), so the spread printed here is the
    /// spread a comparison script computes from the same values.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Some(Summary {
                median,
                q1: v[0],
                q3: v[0],
                n,
            });
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        })
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps binary rounding (0.95 * 200 = 190.00000000000003) from
/// pushing an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64) - 1e-9)
        .ceil()
        .clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples above its rank, with its value: with 1000 samples that is p99,
/// with 200 it is p95. `None` when even the median lacks ten samples above.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    const CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = sorted.len();
    CANDIDATES.iter().find_map(|&p| {
        let r = rank(p, n);
        (n >= r + 10).then(|| (p, sorted[r - 1]))
    })
}

/// Whether two sets of runs of the same metric agree within `bound`: each
/// set's median lies within `bound` (a share) of the other's, whichever
/// direction counts as worse. Empty sets never agree.
pub fn agrees(set_a: &[f64], set_b: &[f64], bound: f64) -> bool {
    match (Summary::of(set_a), Summary::of(set_b)) {
        (Some(a), Some(b)) => {
            let (lo, hi) = if a.median <= b.median {
                (a.median, b.median)
            } else {
                (b.median, a.median)
            };
            hi <= lo + bound * lo.abs()
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).map(|s| s.median), Some(2.0));
        assert_eq!(
            Summary::of(&[4.0, 1.0, 3.0, 2.0]).map(|s| s.median),
            Some(2.5)
        );
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of a short sample.
        let s = Summary::of(&[2.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let s = Summary::of(&[50.0, 10.0, 40.0, 20.0, 30.0]).expect("non-empty");
        assert_eq!((s.q1, s.q3), (15.0, 45.0));
        assert!((s.relative_iqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_value_has_zero_spread() {
        let s = Summary::of(&[7.0]).expect("non-empty");
        assert_eq!((s.median, s.q1, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.relative_iqr(), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v[..1], 99.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.9, 9990.0)));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
    }

    #[test]
    fn agreement_is_symmetric_and_bounded() {
        let a = [1.00, 1.02, 0.98];
        let b = [1.08, 1.10, 1.09];
        assert!(agrees(&a, &b, 0.10));
        assert!(agrees(&b, &a, 0.10));
        assert!(!agrees(&a, &b, 0.05));
        assert!(!agrees(&b, &a, 0.05));
        assert!(!agrees(&a, &[], 0.5));
    }
}
