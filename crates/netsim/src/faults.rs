//! Deterministic fault injection for the measurement plane.
//!
//! Real campaigns are shaped by failure as much as by latency: probes drop
//! offline mid-campaign, pings time out, platforms rate-limit, and the
//! paper filters probes below a minimum-sample threshold before drawing a
//! single CDF. This module injects those failures *deterministically*: every
//! draw comes from the same splittable [`crate::rng`] scheme as latency
//! sampling, keyed by (probe, region, task-kind, hour, seq, attempt) — never
//! by thread, route-cache state, or wall clock — so a faulted campaign is
//! byte-identical across 1/N threads and cache on/off.
//!
//! The knobs ([`FaultProfile`]) mirror the operational behaviour documented
//! for the real platforms:
//!
//! * `extra_loss` — platform-side loss on top of the path's intrinsic loss
//!   model (probe agent restarts, transient connectivity blips).
//! * `timeout_probability` / `timeout_budget_ms` — measurements aborted at
//!   the scheduler's budget; a natural sample above the budget also times
//!   out (the caller enforces that half).
//! * `rate_limit_probability` — API rejections under the per-probe quota.
//! * `offline_*` — multi-hour probe-offline windows (churn), drawn per
//!   (probe, day) by `cloudy-probes::availability`.
//! * `max_retries` / `backoff_*` — the executor's bounded retry policy;
//!   backoff is *virtual* time (accounted, never slept).

use crate::rng::{mix, FlowRng};
use rand::Rng;

/// Flow-id salt separating fault draws from every latency stream.
const FAULT_SALT: u64 = 0xFA17;

/// Calibration knobs for one fault profile. All-zero (`none`) disables the
/// layer entirely: the executor builds no fault model and gives each task a
/// single attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Extra per-attempt loss probability on top of the intrinsic path loss.
    pub extra_loss: f64,
    /// Per-attempt probability the scheduler aborts at its budget.
    pub timeout_probability: f64,
    /// Measurement budget (ms); natural samples at or above it time out.
    pub timeout_budget_ms: f64,
    /// Per-attempt probability of a platform rate-limit rejection.
    pub rate_limit_probability: f64,
    /// Per-(probe, day) probability of an offline window.
    pub offline_probability: f64,
    /// Shortest offline window (hours).
    pub offline_min_hours: u64,
    /// Longest offline window (hours, inclusive).
    pub offline_max_hours: u64,
    /// Retry budget per task (attempts beyond the first).
    pub max_retries: u32,
    /// First retry's backoff (virtual ms); doubles per attempt.
    pub backoff_base_ms: f64,
    /// Backoff ceiling (virtual ms).
    pub backoff_cap_ms: f64,
}

impl FaultProfile {
    /// The zero-fault profile: no injected failures, no retries and no
    /// fault draws. Each campaign task gets one attempt, and a lost ping
    /// leaves no record.
    pub fn none() -> Self {
        FaultProfile {
            extra_loss: 0.0,
            timeout_probability: 0.0,
            timeout_budget_ms: 0.0,
            rate_limit_probability: 0.0,
            offline_probability: 0.0,
            offline_min_hours: 0,
            offline_max_hours: 0,
            max_retries: 0,
            backoff_base_ms: 0.0,
            backoff_cap_ms: 0.0,
        }
    }

    /// The default faulted profile, calibrated to the churn the paper and
    /// the Atlas operations literature describe: ~4 % platform loss, ~2 %
    /// scheduler timeouts at an 800 ms budget, 1 % rate-limit rejections,
    /// and a 5 % chance per probe-day of a 2–8 h offline window, with one
    /// retry on the exponential 250 ms → 2 s backoff schedule. One retry
    /// (the platform default on Speedchecker-like schedulers) keeps final
    /// failures visible at realistic rates — ~0.5 % of tasks still fail
    /// after their retry, plus ~1 % landing in offline windows.
    pub fn default_profile() -> Self {
        FaultProfile {
            extra_loss: 0.04,
            timeout_probability: 0.02,
            timeout_budget_ms: 800.0,
            rate_limit_probability: 0.01,
            offline_probability: 0.05,
            offline_min_hours: 2,
            offline_max_hours: 8,
            max_retries: 1,
            backoff_base_ms: 250.0,
            backoff_cap_ms: 2_000.0,
        }
    }

    /// Parse a named CLI profile (`--faults <profile>`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "none" => Some(FaultProfile::none()),
            "default" => Some(FaultProfile::default_profile()),
            _ => None,
        }
    }

    /// True when every fault channel is disabled, so the executor draws
    /// no faults.
    pub fn is_none(&self) -> bool {
        self.extra_loss == 0.0
            && self.timeout_probability == 0.0
            && self.rate_limit_probability == 0.0
            && self.offline_probability == 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// One per-attempt fault draw. `Deliver` means "no injected fault" — the
/// attempt proceeds to the simulator, which may still lose it intrinsically
/// or exceed the timeout budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDraw {
    Deliver,
    Lost,
    Timeout,
    RateLimited,
}

/// Seeded fault model: a pure function from (probe, region, kind, hour,
/// seq, attempt) to a [`FaultDraw`]. Stateless, so it is shared freely
/// across campaign threads.
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    seed: u64,
    profile: FaultProfile,
}

impl FaultModel {
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultModel { seed, profile }
    }

    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Draw the injected fault for one attempt. Keyed only by stable task
    /// identity — never by route contents or execution order — so the draw
    /// is invariant under thread count and route-cache on/off.
    pub fn draw(
        &self,
        probe_hash: u64,
        region_tag: u64,
        kind_tag: u64,
        hour: u64,
        seq: u64,
        attempt: u32,
    ) -> FaultDraw {
        if self.profile.is_none() {
            return FaultDraw::Deliver;
        }
        let flow =
            mix(&[probe_hash, region_tag, kind_tag, hour, seq, attempt as u64, FAULT_SALT]);
        let mut rng = FlowRng::new(self.seed, flow);
        let u: f64 = rng.gen();
        // One uniform draw partitioned into the three channels keeps the
        // per-attempt failure rate exactly the sum of the probabilities.
        let p_rate = self.profile.rate_limit_probability;
        let p_lost = p_rate + self.profile.extra_loss;
        let p_timeout = p_lost + self.profile.timeout_probability;
        if u < p_rate {
            FaultDraw::RateLimited
        } else if u < p_lost {
            FaultDraw::Lost
        } else if u < p_timeout {
            FaultDraw::Timeout
        } else {
            FaultDraw::Deliver
        }
    }

    /// Virtual backoff before retry `attempt` (attempt >= 1): exponential
    /// `base · 2^(attempt-1)`, capped. A pure function of the attempt
    /// number, so the schedule is deterministic by construction.
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        if attempt == 0 || self.profile.backoff_base_ms <= 0.0 {
            return 0.0;
        }
        let exp = (attempt - 1).min(52);
        let raw = self.profile.backoff_base_ms * (1u64 << exp) as f64;
        if self.profile.backoff_cap_ms > 0.0 {
            raw.min(self.profile.backoff_cap_ms)
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_always_delivers() {
        let fm = FaultModel::new(42, FaultProfile::none());
        for seq in 0..2_000 {
            assert_eq!(fm.draw(1, 2, 3, 4, seq, 0), FaultDraw::Deliver);
        }
    }

    #[test]
    fn draws_are_deterministic_and_key_sensitive() {
        let fm = FaultModel::new(42, FaultProfile::default_profile());
        let series =
            |f: &FaultModel| (0..500).map(|s| f.draw(7, 11, 13, 5, s, 0)).collect::<Vec<_>>();
        assert_eq!(series(&fm), series(&fm));
        // A different seed changes the sequence.
        let other = FaultModel::new(43, FaultProfile::default_profile());
        assert_ne!(series(&fm), series(&other));
        // Attempt number is part of the key (retries re-draw).
        let a0: Vec<_> = (0..500).map(|s| fm.draw(7, 11, 13, 5, s, 0)).collect();
        let a1: Vec<_> = (0..500).map(|s| fm.draw(7, 11, 13, 5, s, 1)).collect();
        assert_ne!(a0, a1);
    }

    #[test]
    fn fault_rates_match_the_profile() {
        let profile = FaultProfile::default_profile();
        let fm = FaultModel::new(99, profile);
        let n = 60_000u64;
        let mut lost = 0u64;
        let mut timeout = 0u64;
        let mut rate = 0u64;
        for seq in 0..n {
            match fm.draw(3, 9, 1, 0, seq, 0) {
                FaultDraw::Lost => lost += 1,
                FaultDraw::Timeout => timeout += 1,
                FaultDraw::RateLimited => rate += 1,
                FaultDraw::Deliver => {}
            }
        }
        let close = |count: u64, p: f64| {
            let f = count as f64 / n as f64;
            assert!((f - p).abs() < p * 0.35 + 0.001, "rate {f} vs expected {p}");
        };
        close(lost, profile.extra_loss);
        close(timeout, profile.timeout_probability);
        close(rate, profile.rate_limit_probability);
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let fm = FaultModel::new(1, FaultProfile::default_profile());
        assert_eq!(fm.backoff_ms(0), 0.0);
        assert_eq!(fm.backoff_ms(1), 250.0);
        assert_eq!(fm.backoff_ms(2), 500.0);
        assert_eq!(fm.backoff_ms(3), 1_000.0);
        assert_eq!(fm.backoff_ms(4), 2_000.0);
        assert_eq!(fm.backoff_ms(9), 2_000.0, "capped");
        let none = FaultModel::new(1, FaultProfile::none());
        assert_eq!(none.backoff_ms(3), 0.0);
    }

    #[test]
    fn parse_knows_the_cli_profiles() {
        assert_eq!(FaultProfile::parse("none"), Some(FaultProfile::none()));
        assert_eq!(FaultProfile::parse("default"), Some(FaultProfile::default_profile()));
        assert_eq!(FaultProfile::parse("bogus"), None);
        assert!(FaultProfile::none().is_none());
        assert!(!FaultProfile::default_profile().is_none());
    }
}
