//! The floor + log-normal + spike latency process.
//!
//! §5's consistency analysis (Figs. 8/9) measures per-probe latency
//! variation; buffered applications "can react negatively to sudden latency
//! peaks" \[54\]. A pure log-normal underestimates those peaks, so the process
//! adds an occasional multiplicative spike (WiFi contention bursts, cellular
//! scheduling stalls).

use crate::stats_math::LogNormal;
use rand::Rng;
use serde::Serialize;

/// A stationary latency process for one link segment.
///
/// ```
/// use cloudy_lastmile::LatencyProcess;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // A cellular-like last mile: 5 ms floor, 17 ms median variable part.
/// let process = LatencyProcess::spiky(5.0, 17.0, 0.5, 0.06, 4.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let sample = process.sample(&mut rng);
/// assert!(sample > 5.0);
/// assert!((process.approx_median() - 22.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencyProcess {
    /// Hard floor: serialization + minimum scheduling delay (ms).
    pub floor_ms: f64,
    /// Median of the variable part (ms).
    pub median_ms: f64,
    /// Coefficient of variation of the variable part.
    pub cv: f64,
    /// Probability a sample is a spike.
    pub spike_prob: f64,
    /// Multiplier applied to the variable part during a spike.
    pub spike_factor: f64,
}

impl LatencyProcess {
    /// A process with no spikes.
    pub fn smooth(floor_ms: f64, median_ms: f64, cv: f64) -> Self {
        LatencyProcess { floor_ms, median_ms, cv, spike_prob: 0.0, spike_factor: 1.0 }
    }

    /// A process with occasional spikes.
    pub fn spiky(floor_ms: f64, median_ms: f64, cv: f64, spike_prob: f64, spike_factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&spike_prob), "spike_prob {spike_prob}");
        assert!(spike_factor >= 1.0, "spike_factor {spike_factor}");
        LatencyProcess { floor_ms, median_ms, cv, spike_prob, spike_factor }
    }

    /// A degenerate constant process (useful in tests and ablations).
    pub fn constant(ms: f64) -> Self {
        LatencyProcess::smooth(ms, f64::MIN_POSITIVE, 0.0)
    }

    /// Draw one one-way latency sample in milliseconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.median_ms <= f64::MIN_POSITIVE {
            return self.floor_ms;
        }
        let dist = LogNormal::from_median_cv(self.median_ms, self.cv);
        let mut v = dist.sample(rng);
        if self.spike_prob > 0.0 && rng.gen::<f64>() < self.spike_prob {
            v *= self.spike_factor;
        }
        self.floor_ms + v
    }

    /// Approximate analytic median of the whole process (floor + variable
    /// median; the spike contribution to the *median* is negligible for
    /// spike_prob < 0.5, which all our profiles satisfy).
    pub fn approx_median(&self) -> f64 {
        if self.median_ms <= f64::MIN_POSITIVE {
            self.floor_ms
        } else {
            self.floor_ms + self.median_ms
        }
    }

    /// Scale the whole process (floor and median) by a factor; used to derive
    /// per-probe heterogeneity from a base profile.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0);
        LatencyProcess {
            floor_ms: self.floor_ms * factor,
            median_ms: self.median_ms * factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats_math::{sample_cv, sample_median};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draws(p: &LatencyProcess, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n).map(|_| p.sample(&mut rng)).collect()
    }

    #[test]
    fn constant_process_is_constant() {
        let p = LatencyProcess::constant(12.5);
        for v in draws(&p, 100) {
            assert_eq!(v, 12.5);
        }
        assert_eq!(p.approx_median(), 12.5);
    }

    #[test]
    fn smooth_process_median_matches() {
        let p = LatencyProcess::smooth(2.0, 20.0, 0.5);
        let xs = draws(&p, 40_000);
        let med = sample_median(&xs);
        assert!((med - 22.0).abs() < 0.6, "median {med}");
        assert!(xs.iter().all(|&v| v > 2.0));
    }

    #[test]
    fn spikes_raise_the_tail_not_the_median() {
        let base = LatencyProcess::smooth(0.0, 20.0, 0.4);
        let spiky = LatencyProcess::spiky(0.0, 20.0, 0.4, 0.05, 6.0);
        let xb = draws(&base, 40_000);
        let xs = draws(&spiky, 40_000);
        let med_b = sample_median(&xb);
        let med_s = sample_median(&xs);
        assert!((med_b - med_s).abs() < 1.5, "medians {med_b} vs {med_s}");
        // p99 should be clearly larger with spikes.
        let p99 = |v: &Vec<f64>| {
            let mut s = v.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[(s.len() as f64 * 0.99) as usize]
        };
        assert!(p99(&xs) > p99(&xb) * 1.5, "p99 {} vs {}", p99(&xs), p99(&xb));
    }

    #[test]
    fn spikes_raise_cv() {
        let base = LatencyProcess::smooth(0.0, 20.0, 0.35);
        let spiky = LatencyProcess::spiky(0.0, 20.0, 0.35, 0.08, 5.0);
        assert!(sample_cv(&draws(&spiky, 40_000)) > sample_cv(&draws(&base, 40_000)));
    }

    #[test]
    fn scaled_scales_median() {
        let p = LatencyProcess::smooth(2.0, 20.0, 0.5).scaled(1.5);
        assert!((p.approx_median() - 33.0).abs() < 1e-9);
        assert_eq!(p.cv, 0.5);
    }

    #[test]
    #[should_panic(expected = "spike_prob")]
    fn invalid_spike_prob_panics() {
        LatencyProcess::spiky(0.0, 10.0, 0.5, 1.5, 2.0);
    }

    #[test]
    fn deterministic_under_same_rng_seed() {
        let p = LatencyProcess::spiky(1.0, 15.0, 0.5, 0.1, 4.0);
        assert_eq!(draws(&p, 50), draws(&p, 50));
    }
}
