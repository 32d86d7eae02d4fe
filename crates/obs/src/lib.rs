//! `cloudy-obs` — determinism-safe observability for the cloudy workspace.
//!
//! Every wire output in this repository (campaign JSONL, store bytes, the
//! frozen `ServiceReport`) is a pure function of the seed, invariant under
//! thread counts, route caching, and fault injection. Instrumentation must
//! never weaken that contract, so this crate is built around three rules:
//!
//! 1. **Metrics live outside the wire.** The registry's snapshot has its
//!    own hand-rolled text/JSON renderers and a Chrome `trace_event`
//!    exporter — no serde, so nothing here can ever appear in `wire.lock`,
//!    and `cloudy-audit`'s `obs-in-wire` lint rejects obs types inside any
//!    `#[derive(Serialize)]` shape.
//! 2. **The wall clock is sanctioned here and only here.** [`Obs::now`] is
//!    the one place deterministic code may read `Instant::now` (through
//!    us); the audit `nondet-time` rule exempts `crates/obs/` internals
//!    and nothing else. Durations feed histograms and trace spans — never
//!    record fields.
//! 3. **Worker threads never share a lock.** Parallel code records into a
//!    plain [`LocalShard`] and the executor merges shards back in its
//!    existing deterministic drain order; counter and histogram merges are
//!    commutative (property-tested), so the merged totals are identical
//!    for every thread count.
//!
//! A disabled handle ([`Obs::disabled`], the default everywhere) is a
//! `None` inside an `Option<Arc<..>>`: every call is a branch on a null
//! pointer. What an enabled handle costs is the benchmark's
//! `trace.overhead_ratio`: traced runs attach `Obs::enabled` to their
//! campaigns, and the ratio is their wall time over the untraced runs'.

pub mod hist;
pub mod registry;
pub mod shard;
pub mod snapshot;
pub mod trace;

pub use hist::{bucket_bounds, bucket_of, Hist, BUCKETS};
pub use registry::Obs;
pub use shard::LocalShard;
pub use snapshot::{HistSnapshot, MetricsSnapshot};
pub use trace::TraceEvent;

/// The registry handle under its role name — satellite APIs like
/// `CacheStats::export_into(&Registry)` read better against this alias.
pub type Registry = Obs;

#[cfg(test)]
mod proptests;
