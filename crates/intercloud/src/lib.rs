//! The inter-cloud plane: region↔region measurement campaigns across the
//! paper's nine providers, routed both over each provider pair's private
//! WAN and over the public internet, so the private-vs-public latency gap
//! is a *computed* quantity rather than an assumption.
//!
//! Three layers:
//!
//! * [`plan`](mod@plan) / [`executor`] — a deterministic campaign: a
//!   seed-rotated region roster and a [`CloudTask`] per directed pair,
//!   hour and sample, executed on the same bounded-memory block pipeline
//!   as the user campaign ([`cloudy_measure::run_blocked`]) and streamed into
//!   any [`cloudy_measure::RecordSink`]. The record stream is
//!   byte-identical across thread counts and path-cache settings —
//!   enforced by the audit race matrix.
//! * [`matrix`] — the provider latency-gap matrix, folded from
//!   store-backed grouped queries with exact quantiles.
//! * [`placement`] — the k-region multi-cloud placement optimizer,
//!   branch-and-bound over store aggregates (never materialized rows),
//!   with a brute-force twin as a property-test oracle.

pub mod error;
pub mod executor;
pub mod matrix;
pub mod placement;
pub mod plan;

pub use error::IntercloudError;
pub use executor::{execute_tasks_into, run_into, CloudRunStats};
pub use matrix::{latency_matrix, median_gap_ms, GapRow};
pub use placement::{
    brute_force, choose, objective, stats_from_store, CountryStat, Placement, PlacementStats,
};
pub use plan::{plan, roster, CloudTask, IntercloudConfig};
