//! End-to-end network latency simulator for the `cloudy` reproduction of
//! *"Cloudy with a Chance of Short RTTs"* (IMC 2021).
//!
//! This crate is the paper's "Internet": given a client (probe) and a cloud
//! region, it produces the route a packet takes — hop by hop, with real
//! IPv4 addresses drawn from the topology's prefix plan — and samples RTTs
//! for pings and traceroutes over that route. The decomposition follows the
//! paper's own (§5, §6):
//!
//! ```text
//! RTT = last-mile (wireless/wired)            cloudy-lastmile
//!     + access-ISP internal                    this crate
//!     + wide-area (transit or cloud WAN)       this crate, from geography
//!     + per-router processing + queueing       this crate
//! ```
//!
//! * [`rng::FlowRng`] — splittable counter-based RNG: every (seed, flow)
//!   pair yields an independent, reproducible stream, so campaigns shard
//!   across threads without nondeterminism.
//! * [`latency`] — propagation constants (2⁄3 c in fiber), queueing
//!   profiles per interconnection kind, protocol artifacts (ICMP
//!   deprioritization, traceroute inflation).
//! * [`hop`] / [`path`] — router-level route representation: kinds,
//!   ground-truth ownership, cumulative distance.
//! * [`hubs`] — Tier-1 carrier hub cities; transit paths detour through
//!   carrier hubs, which is what makes African/Middle-East public paths
//!   trombone through Europe (Fig. 6a / Fig. 18b shapes).
//! * [`network::Network`] — the assembled world: AS graph, prefix plan,
//!   IXPs, provider PoP sets, peering policy, region endpoints.
//! * [`sim::Simulator`] — route construction + RTT/traceroute sampling.
//!   The wide-area geometry, the ingress PoP scan and cross-continent cable
//!   searches are memoized by their exact inputs; `route_uncached` builds
//!   with no memo at all and is the oracle the memoized routes are held to.
//! * [`faults::FaultModel`] — seeded fault injection (loss, timeouts,
//!   rate limits) keyed per (probe, region, kind, hour, seq, attempt), so
//!   faulted campaigns stay byte-identical across thread counts.
//! * [`cache::RouteCache`] — sharded memoization of finished route plans
//!   (`Arc<RoutePath>`), shared by all campaign threads; keyed by exactly
//!   the inputs routing reads, so cached and uncached output is
//!   bit-identical.

pub mod build;
pub mod cache;
pub mod client;
pub mod faults;
pub mod hop;
pub mod hubs;
pub mod intercloud;
pub mod latency;
pub mod network;
pub mod path;
pub mod rng;
pub mod sim;

pub use cache::{CacheStats, RouteCache, RouteKey};
pub use client::ClientCtx;
pub use faults::{FaultDraw, FaultModel, FaultProfile};
pub use hop::{Hop, HopKind};
pub use intercloud::{cloud_path, cloud_path_pair, cloud_ping_at, CloudPath};
pub use network::{Network, RegionEndpoint};
pub use path::RoutePath;
pub use rng::FlowRng;
pub use sim::{Protocol, Simulator, TraceHop};

#[cfg(test)]
mod proptests;
