//! The platform's daily measurement budget.
//!
//! §3.3: "we were provided access to the platform with a limited measurement
//! budget that refreshed at the end of each day", with part of the quota
//! reserved for the four-hourly probe census. The campaign scheduler charges
//! every API call against this.

use serde::Serialize;

/// A per-day API budget.
#[derive(Debug, Clone, Serialize)]
pub struct DailyQuota {
    /// Calls allowed per day.
    pub per_day: u32,
    /// Calls reserved for probe-census requests each day.
    pub census_reserve: u32,
    day: u64,
    used: u32,
}

/// Outcome of a quota request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaResult {
    Granted,
    Exhausted,
}

impl DailyQuota {
    pub fn new(per_day: u32, census_reserve: u32) -> Self {
        assert!(census_reserve <= per_day, "reserve exceeds budget");
        DailyQuota { per_day, census_reserve, day: 0, used: 0 }
    }

    /// Advance to (possibly) a new day, refreshing the budget.
    pub fn advance_to_day(&mut self, day: u64) {
        if day != self.day {
            assert!(day > self.day, "time went backwards: {} -> {day}", self.day);
            self.day = day;
            self.used = 0;
        }
    }

    /// Request one measurement call on `day`.
    pub fn request_measurement(&mut self, day: u64) -> QuotaResult {
        self.advance_to_day(day);
        if self.used + self.census_reserve < self.per_day {
            self.used += 1;
            QuotaResult::Granted
        } else {
            QuotaResult::Exhausted
        }
    }

    /// Request one census call on `day` (drawn from the reserve first, then
    /// the general budget).
    pub fn request_census(&mut self, day: u64) -> QuotaResult {
        self.advance_to_day(day);
        if self.used < self.per_day {
            self.used += 1;
            QuotaResult::Granted
        } else {
            QuotaResult::Exhausted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_capped_below_reserve() {
        let mut q = DailyQuota::new(10, 3);
        let mut granted = 0;
        for _ in 0..20 {
            if q.request_measurement(0) == QuotaResult::Granted {
                granted += 1;
            }
        }
        assert_eq!(granted, 7, "reserve must be preserved");
        // Census can still use the reserve.
        for _ in 0..3 {
            assert_eq!(q.request_census(0), QuotaResult::Granted);
        }
        assert_eq!(q.request_census(0), QuotaResult::Exhausted);
    }

    #[test]
    fn budget_refreshes_daily() {
        let mut q = DailyQuota::new(5, 1);
        for _ in 0..4 {
            assert_eq!(q.request_measurement(0), QuotaResult::Granted);
        }
        assert_eq!(q.request_measurement(0), QuotaResult::Exhausted);
        // Day 1 starts from a fresh ledger: the full four grants again.
        for _ in 0..4 {
            assert_eq!(q.request_measurement(1), QuotaResult::Granted);
        }
        assert_eq!(q.request_measurement(1), QuotaResult::Exhausted);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rewinding_days_panics() {
        let mut q = DailyQuota::new(5, 1);
        q.advance_to_day(3);
        q.advance_to_day(2);
    }

    #[test]
    fn failed_attempts_still_consume_quota() {
        // The platform charges every API call — a ping that is lost or
        // times out on the wire is not refunded, and each retry is a fresh
        // charged attempt. The executor models this by requesting quota per
        // attempt; here we assert the ledger counts failed attempts exactly
        // like successful ones.
        let mut q = DailyQuota::new(20, 4);
        // 3 tasks, each retried twice after failures: 9 charged attempts.
        for _task in 0..3 {
            for _attempt in 0..3 {
                assert_eq!(q.request_measurement(0), QuotaResult::Granted);
            }
        }
        // Exhaustion counts attempts, not successes: 7 more grants hit the
        // measurement cap (16) regardless of their outcome on the wire.
        for _ in 0..7 {
            assert_eq!(q.request_measurement(0), QuotaResult::Granted);
        }
        assert_eq!(q.request_measurement(0), QuotaResult::Exhausted);
        // The next day refreshes the ledger; failures never roll over.
        for _ in 0..16 {
            assert_eq!(q.request_measurement(1), QuotaResult::Granted);
        }
        assert_eq!(q.request_measurement(1), QuotaResult::Exhausted);
    }
}
