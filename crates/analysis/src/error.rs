//! Typed errors for the analysis crate's store-backed entry points.
//!
//! The audit's `result-string` lint bans `Result<_, String>` in public
//! signatures; the store-scan helpers were the last offenders. Analysis
//! can fail two ways — the underlying store scan failed, or the scanned
//! data is unusable (empty distribution, NaN RTTs).

use cloudy_store::StoreError;
use std::fmt;

/// Why a store-backed analysis could not produce a result.
#[derive(Debug)]
pub enum AnalysisError {
    /// The store scan itself failed (corrupt chunk, I/O, bad filter).
    Store(StoreError),
    /// The scan succeeded but the data cannot be analysed.
    Data(String),
}

impl AnalysisError {
    pub fn data(msg: impl Into<String>) -> AnalysisError {
        AnalysisError::Data(msg.into())
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Store(e) => write!(f, "store scan: {e}"),
            AnalysisError::Data(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<StoreError> for AnalysisError {
    fn from(e: StoreError) -> AnalysisError {
        AnalysisError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_distinguishes_store_and_data_failures() {
        let d = AnalysisError::data("NaN RTT in store scan");
        assert_eq!(d.to_string(), "NaN RTT in store scan");
    }
}
