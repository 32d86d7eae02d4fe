//! Measurement engine for the `cloudy` reproduction of *"Cloudy with a
//! Chance of Short RTTs"* (IMC 2021).
//!
//! Implements §3.3 of the paper as executable code:
//!
//! * [`record`] — ping and traceroute record types (the rows of the
//!   published dataset \[60\]).
//! * [`dataset`] — the collected campaign output, with JSON-lines export
//!   (for external tooling, like the paper's published dataset).
//! * [`plan`] — the measurement schedule: four-hourly probe census, daily
//!   API quota with census reserve, two-week country cycling, per-continent
//!   region targeting with the §4.3 inter-continental additions (Africa →
//!   EU+NA, South America → NA). Every task is a probe's ping or
//!   traceroute to one region.
//! * [`campaign`] — deterministic parallel execution of a plan over the
//!   simulator as one pipeline: persistent scoped workers build each
//!   block's routes and run its tasks, at most `2 × threads` blocks ahead of
//!   the calling thread, which drains finished blocks in plan order (results
//!   are identical regardless of thread count). Every task runs through one attempt
//!   loop: without a `netsim::FaultProfile` it gets a single attempt;
//!   under one it resolves to a typed [`TaskOutcome`], and retryable
//!   failures get bounded seeded retries with exponential backoff.
//!   [`FailureStats`] tallies the outcome of every planned task
//!   thread-invariantly, and [`CampaignConfig::validate`] rejects a
//!   configuration that would plan nothing or panic the planner.
//! * [`sink`] — the [`RecordSink`] trait: campaigns can stream records
//!   into any sink (in-memory [`Dataset`], the `cloudy-store` columnar
//!   writer, tees, counters) with bounded memory via
//!   [`campaign::run_campaign_into`].

pub mod campaign;
pub mod dataset;
pub mod error;
pub mod plan;
pub mod record;
pub mod sink;

pub use campaign::{
    execute_tasks_into, run_blocked, run_campaign, run_campaign_into, warm_route_cache,
    CampaignConfig, FailureStats, BLOCK_TASKS,
};
pub use dataset::Dataset;
pub use error::MeasureError;
pub use plan::{MeasurementPlan, Task, TaskKind, TaskKindSet};
pub use record::{
    outcome_for_hops, CloudPingRecord, HopRecord, PingRecord, TaskOutcome, TracerouteRecord,
};
pub use sink::{CloudPingSet, CountingSink, RecordSink, TeeSink};

#[cfg(test)]
mod proptests;
