//! `cloudy-serve` — a deterministic virtual-time measurement service.
//!
//! The paper's platform is not a batch job: it is a standing service that
//! continuously multiplexes measurement requests from many users under
//! quotas, streaming results as they complete. This crate is that shape,
//! built on the rest of the workspace:
//!
//! * [`clock`] — a [`VirtualClock`] and a binary-heap [`EventQueue`] with
//!   the `(time, tenant, seq)` ordering contract, so a run is a pure
//!   function of the seed.
//! * [`tenant`] — simulated tenants: priorities, token-bucket quotas,
//!   seeded exponential submission processes, and typed
//!   [`Admission`] outcomes (admit / defer / reject).
//! * [`service`] — the scheduler: campaigns admitted under quota are cut
//!   into bounded slices that interleave fairly across tenants in virtual
//!   time, each slice executing through `cloudy-measure`'s block executor
//!   (same route cache, fault and retry machinery as batch campaigns),
//!   with probe-offline windows respected at admission time.
//! * [`aggregate`] — live per-(country, provider) summaries on the
//!   store's one-pass Welford/P² sketches, snapshotable at any virtual
//!   timestamp.
//! * [`report`] — the serialized service report and snapshot shapes,
//!   frozen by the audit wire-format pass.
//!
//! Determinism contract: for a fixed [`ServeConfig`] seed, the store
//! bytes and the final [`ServiceReport`] are byte-identical across worker
//! thread counts and route-cache on/off — the audit race check runs that
//! matrix.

pub mod aggregate;
pub mod clock;
pub mod report;
pub mod service;
pub mod tenant;

pub use aggregate::{snapshot_from_store, LiveAggregates};
pub use clock::{Event, EventKind, EventQueue, VirtualClock};
pub use report::{AggregateSnapshot, GroupSummary, ServiceReport, TenantReport};
pub use service::{default_world, ServeConfig, ServeError, Service, MAX_DEFERS, SLICE_TASKS, TASK_VIRT_MS};
pub use tenant::{Admission, Priority, RejectReason, Tenant, TenantCounters, TokenBucket};
