//! `cloudy-store`: a columnar, chunked, streaming dataset store, so
//! campaigns scale past in-memory `Vec<Record>`.
//!
//! The paper's campaign collected 3.8M pings and 7M+ traceroutes; holding
//! that as row structs in RAM caps how far a reproduction can push. This
//! crate stores campaign output on disk in a columnar format and streams
//! both directions:
//!
//! * **Write path** ([`writer`]): an append-only [`Writer`] implements
//!   `cloudy_measure::RecordSink`, so a campaign streams records straight
//!   to disk with memory bounded by the chunk size — never the run size.
//!   Records are partitioned into per-(kind, provider) chunks; each column
//!   is delta+varint, dictionary, or raw encoded (the layout is private to
//!   the crate).
//! * **Read path**: two entry points. [`Query`] terminals (`stream`,
//!   `rows`, `values`, `grouped`, `summary`) serve projected rows and
//!   aggregates; [`Reader::for_each`] serves full records. Both prune
//!   chunks by the footer in each chunk's frame (row count, RTT/hour
//!   bounds, country set) — a provider-filtered query typically skips
//!   ~9/10 chunks. Both read a chunk through the same per-kind column
//!   reader; `Query` asks it only for the columns its predicates and
//!   projection name, pushes aggregates into the scan, and can scan
//!   survivors across threads with output identical to a serial scan.
//! * **Aggregation** ([`agg`]): one-pass Welford moments and the P²
//!   streaming quantile estimator, folded per group inside a `Query` scan.
//!
//! Determinism: store bytes are a pure function of (platform, options,
//! record sequence). Campaigns deliver the same record sequence for every
//! thread count, so store files are byte-identical at 1 or N threads —
//! enforced by `cloudy-audit`'s race check and `tests/determinism.rs`.
//!
//! All decode paths return `Result`, never panic: a store file is external
//! input. `tests/corruption.rs` is the test: it truncates a mixed store at
//! every length, overwrites every offset (XOR 0xFF, a maximal varint) and
//! flips thousands of seeded bits, and reads every result through
//! `Reader::from_bytes`, `Reader::salvage`, `Reader::for_each` and each
//! `Query` terminal. `Reader::salvage` reads a torn file: every chunk a
//! writer flushed before it died.

pub mod agg;
mod chunk;
mod codec;
pub mod error;
pub mod query;
pub mod reader;
mod schema;
pub mod writer;

#[cfg(test)]
pub(crate) mod testutil;

pub use agg::{Moments, P2Quantile};
pub use chunk::{ChunkFooter, ChunkMeta, ProjRow, RttRow};
pub use error::StoreError;
pub use query::{Agg, AggSet, GroupId, GroupKey, GroupRow, GroupTable, Query};
pub use reader::{ChunkRows, Reader, ScanFilter, ScanStats};
pub use schema::RecordKind;
pub use writer::{StoreSummary, Writer, WriterOptions};
