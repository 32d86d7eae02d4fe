//! §3.3's statistical-confidence gate.
//!
//! "We define the required confidence interval for the measurement as
//! n = z²·p(1−p)/ε². Therefore, to achieve 95% confidence interval with
//! ε = 2%, we collect >2400 measurements per country."

/// z-score for a 95 % confidence level.
pub const Z_95: f64 = 1.96;

/// Required sample size for proportion estimation.
pub fn required_sample_size(z: f64, p: f64, epsilon: f64) -> usize {
    assert!((0.0..=1.0).contains(&p), "p must be a proportion, got {p}");
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    ((z * z * p * (1.0 - p)) / (epsilon * epsilon)).ceil() as usize
}

/// The paper's gate: 95 % confidence, ε = 2 %, worst-case p = 0.5.
pub fn paper_minimum_samples() -> usize {
    required_sample_size(Z_95, 0.5, 0.02)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_number_reproduced() {
        // 1.96² × 0.25 / 0.0004 = 2401.
        assert_eq!(paper_minimum_samples(), 2401);
    }

    #[test]
    fn worst_case_p_maximises_n() {
        let n_half = required_sample_size(Z_95, 0.5, 0.02);
        for p in [0.1, 0.3, 0.7, 0.9] {
            assert!(required_sample_size(Z_95, p, 0.02) <= n_half);
        }
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        assert!(
            required_sample_size(Z_95, 0.5, 0.01) > required_sample_size(Z_95, 0.5, 0.02)
        );
    }

    #[test]
    #[should_panic(expected = "proportion")]
    fn invalid_p_panics() {
        required_sample_size(Z_95, 1.5, 0.02);
    }
}
