//! Analysis pipeline for the `cloudy` reproduction of *"Cloudy with a Chance
//! of Short RTTs"* (IMC 2021).
//!
//! This crate is the paper's §3.3 "Processing Traceroutes" toolchain plus
//! all the statistics its figures are built from. Crucially, it works only
//! on *observable* data — RTTs and hop IPs from the dataset, a routing
//! table, the IXP directory, and PeeringDB-style registry metadata. It never
//! peeks at simulator ground truth (ground truth is used exclusively by
//! tests to validate the inferences, e.g. the home/cellular classifier).
//!
//! * [`stats`] — medians, percentiles, CDFs, box statistics, coefficient of
//!   variation.
//! * [`confidence`] — §3.3's sample-size bound `n = z²·p(1−p)/ε²`.
//! * [`asmap`] — PyASN-analog: longest-prefix IP→ASN resolution with
//!   private/CGN address handling.
//! * [`paths`] — traceroute → AS-level path: resolve, collapse, tag and
//!   strip IXP hops.
//! * [`peering`] — §6.1's interconnection classifier (direct / 1 IXP /
//!   1 AS / 2+ AS).
//! * [`pervasiveness`] — Fig. 11's cloud-ownership ratio.
//! * [`lastmile`] — §5's home/cellular inference and last-mile latency
//!   extraction from traceroutes.
//! * [`edge`] — §7's edge-vs-cloud decomposition and the forward-looking
//!   last-mile scenario analysis (the examples render these).
//! * [`latency_groups`] — the MTP/HPL/HRT thresholds and Fig. 3's country
//!   latency bands.
//! * [`nearest`] — "closest datacenter" estimation (lowest mean latency
//!   over time, Fig. 3's footnote).
//! * [`geoip`] — the paper's deferred future work: GeoIP-style router
//!   geolocation (with its documented registration-anchor inaccuracy) and
//!   trombone/detour analysis of located paths.
//! * [`compare`] — §4.2's platform comparison: quantile-difference distributions and
//!   the `<city, ASN>`-matched subset (Fig. 16).
//! * [`quality`] — per-probe loss-rate reporting and the paper's
//!   minimum-sample pre-filter; failed tasks are counted, never averaged.
//! * [`report`] — plain-text table/CDF rendering shared by the figures,
//!   the CLI and the examples.
//!
//! The pipeline has two data paths with identical results: the in-memory
//! path over `cloudy_measure::Dataset` slices, and store-backed entry
//! points ([`Cdf::from_store`], [`stats::country_region_medians_from_store`],
//! [`latency_groups::country_bands_from_store`],
//! [`compare::fraction_a_faster_stores`]) that scan a `cloudy-store` file
//! with chunk pruning and only decode the RTT projection. Medians agree
//! bit-for-bit between the paths because both sort the same multiset.

pub mod asmap;
pub mod compare;
pub mod confidence;
pub mod edge;
pub mod error;
pub mod geoip;
pub mod lastmile;
pub mod latency_groups;
pub mod nearest;
pub mod paths;
pub mod peering;
pub mod pervasiveness;
pub mod quality;
pub mod report;
pub mod stats;

pub use asmap::{Resolution, Resolver};
pub use edge::{EdgeVerdict, EdgeVsCloudRow, LastmileScenarioRow};
pub use error::AnalysisError;
pub use lastmile::{InferredAccess, LastMile};
pub use latency_groups::{LatencyBand, HPL_MS, HRT_MS, MTP_MS};
pub use paths::AsLevelPath;
pub use peering::Interconnection;
pub use quality::{LossReport, ProbeQuality};
pub use stats::{BoxStats, Cdf};
