//! Probe churn.
//!
//! §3.2/§3.3: Android probes are "transient across days and only became
//! available for use unexpectedly" — of ~115k total, only ~29k are connected
//! at any given time (≈ 25 %). Atlas hardware probes are essentially
//! always-on. Availability is deterministic per (probe, epoch) so campaigns
//! reproduce exactly.

use crate::probe::{Platform, Probe};
use cloudy_netsim::rng::mix;

/// Hours per availability epoch — the paper logs connected probes at
/// four-hour intervals (§3.3).
pub const EPOCH_HOURS: u64 = 4;

/// Deterministic churn model.
#[derive(Debug, Clone, Copy)]
pub struct Availability {
    seed: u64,
}

impl Availability {
    pub fn new(seed: u64) -> Self {
        Availability { seed }
    }

    /// Connected-fraction target for a platform.
    pub fn connect_rate(platform: Platform) -> f64 {
        match platform {
            Platform::Speedchecker => 0.25,
            Platform::RipeAtlas => 0.90,
        }
    }

    /// Is the probe connected during this epoch?
    ///
    /// Android churn has day-scale structure (devices appear for a day or
    /// two, then vanish): we gate on the day *and* the epoch so consecutive
    /// epochs of the same day are correlated.
    pub fn is_available(&self, probe: &Probe, epoch: u64) -> bool {
        let day = epoch * EPOCH_HOURS / 24;
        let rate = Self::connect_rate(probe.platform);
        match probe.platform {
            Platform::Speedchecker => {
                // P(day active) = 0.5, P(epoch online | day active) = 0.5.
                let day_draw = unit(mix(&[self.seed, probe.hash(), day, 0xDA]));
                let epoch_draw = unit(mix(&[self.seed, probe.hash(), epoch, 0xE0]));
                day_draw < 0.5 && epoch_draw < rate / 0.5
            }
            Platform::RipeAtlas => unit(mix(&[self.seed, probe.hash(), epoch, 0xA1])) < rate,
        }
    }

    /// Fault-injection offline window for one (probe, campaign day), keyed
    /// by the probe hash so the campaign executor can evaluate it without a
    /// [`Probe`] in hand. With probability `profile.offline_probability`
    /// the probe is offline for a contiguous window of
    /// `offline_min_hours..=offline_max_hours` hours starting at a
    /// deterministic offset within the day; every scheduled task whose hour
    /// falls inside `[start, end)` resolves to `ProbeOffline` without
    /// retry. Returned hours are absolute campaign hours.
    pub fn offline_window(
        &self,
        probe_hash: u64,
        day: u64,
        profile: &cloudy_netsim::FaultProfile,
    ) -> Option<(u64, u64)> {
        if profile.offline_probability <= 0.0 {
            return None;
        }
        let gate = unit(mix(&[self.seed, probe_hash, day, 0x0FF]));
        if gate >= profile.offline_probability {
            return None;
        }
        let span = profile.offline_max_hours.max(profile.offline_min_hours);
        let lo = profile.offline_min_hours.max(1);
        let len =
            lo + mix(&[self.seed, probe_hash, day, 0x1E4]) % (span.saturating_sub(lo) + 1);
        let len = len.min(24);
        let start_off = mix(&[self.seed, probe_hash, day, 0x57A]) % (24 - len + 1);
        let start = day * 24 + start_off;
        Some((start, start + len))
    }
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_netsim::build::{build, WorldConfig};

    #[test]
    fn connected_fractions_match_platform_targets() {
        let w = build(&WorldConfig::default());
        let sc = crate::speedchecker::population(&w, 0.02, 5);
        let at = crate::atlas::population(&w, 0.5, 5);
        let avail = Availability::new(77);
        for (pop, target, tol) in [(&sc, 0.25, 0.04), (&at, 0.90, 0.04)] {
            let mut online = 0usize;
            let mut total = 0usize;
            for epoch in 0..20 {
                for p in &pop.probes {
                    total += 1;
                    if avail.is_available(p, epoch) {
                        online += 1;
                    }
                }
            }
            let frac = online as f64 / total as f64;
            assert!((frac - target).abs() < tol, "platform frac {frac} target {target}");
        }
    }

    #[test]
    fn availability_is_deterministic() {
        let w = build(&WorldConfig::default());
        let sc = crate::speedchecker::population(&w, 0.01, 5);
        let a = Availability::new(1);
        for p in sc.probes.iter().take(50) {
            for epoch in 0..5 {
                assert_eq!(a.is_available(p, epoch), a.is_available(p, epoch));
            }
        }
    }

    #[test]
    fn day_correlation_for_android() {
        // Within an active day, a Speedchecker probe should be online in
        // multiple epochs more often than independence would allow.
        let w = build(&WorldConfig::default());
        let sc = crate::speedchecker::population(&w, 0.02, 5);
        let a = Availability::new(2);
        let mut both = 0usize;
        let mut first = 0usize;
        for p in &sc.probes {
            // Epochs 0 and 1 share day 0.
            let e0 = a.is_available(p, 0);
            let e1 = a.is_available(p, 1);
            if e0 {
                first += 1;
                if e1 {
                    both += 1;
                }
            }
        }
        assert!(first > 100, "need samples");
        let cond = both as f64 / first as f64;
        assert!(cond > 0.35, "P(e1|e0) = {cond} should exceed base rate 0.25");
    }

    #[test]
    fn offline_windows_are_deterministic_and_bounded() {
        use cloudy_netsim::FaultProfile;
        let a = Availability::new(42);
        let profile = FaultProfile::default_profile();
        let mut hits = 0usize;
        let n = 4_000u64;
        for probe_hash in 0..n {
            for day in 0..3 {
                let w = a.offline_window(probe_hash, day, &profile);
                assert_eq!(w, a.offline_window(probe_hash, day, &profile));
                if let Some((start, end)) = w {
                    hits += 1;
                    let len = end - start;
                    assert!(
                        (profile.offline_min_hours..=profile.offline_max_hours)
                            .contains(&len),
                        "window length {len}"
                    );
                    assert!(start >= day * 24 && end <= (day + 1) * 24, "window in day");
                }
            }
        }
        let rate = hits as f64 / (n * 3) as f64;
        assert!(
            (rate - profile.offline_probability).abs() < 0.015,
            "offline rate {rate} vs {}",
            profile.offline_probability
        );
        // The zero-fault profile never takes a probe offline.
        assert_eq!(a.offline_window(7, 0, &FaultProfile::none()), None);
    }
}
