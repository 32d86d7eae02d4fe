//! Typed errors for the measurement pipeline.
//!
//! Replaces the original `Result<_, String>` plumbing: sinks, campaign
//! entry points and dataset codecs all report [`MeasureError`], which
//! implements `std::error::Error` so callers can `?` it into `Box<dyn
//! Error>` chains or match on the failure class.

use std::fmt;

/// What went wrong in planning, execution, or dataset handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// A configuration field failed builder validation.
    Config {
        /// The offending `CampaignConfig`/`PlanConfig` field.
        field: &'static str,
        reason: String,
    },
    /// A [`crate::sink::RecordSink`] rejected a record; the campaign
    /// aborts on the first such failure.
    Sink(String),
    /// Dataset decode, merge, or export failure.
    Dataset(String),
}

impl MeasureError {
    pub fn config(field: &'static str, reason: impl Into<String>) -> Self {
        MeasureError::Config { field, reason: reason.into() }
    }

    pub fn sink(reason: impl Into<String>) -> Self {
        MeasureError::Sink(reason.into())
    }

    pub fn dataset(reason: impl Into<String>) -> Self {
        MeasureError::Dataset(reason.into())
    }
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Config { field, reason } => {
                write!(f, "invalid campaign config: {field}: {reason}")
            }
            MeasureError::Sink(reason) => write!(f, "record sink failed: {reason}"),
            MeasureError::Dataset(reason) => write!(f, "dataset error: {reason}"),
        }
    }
}

impl std::error::Error for MeasureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_field_and_reason() {
        let e = MeasureError::config("threads", "must be >= 1");
        assert_eq!(e.to_string(), "invalid campaign config: threads: must be >= 1");
        let e = MeasureError::sink("disk full");
        assert!(e.to_string().contains("disk full"));
        assert!(MeasureError::dataset("bad header").to_string().contains("bad header"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MeasureError::sink("x"));
    }
}
