//! Cloud provider substrate for the `cloudy` reproduction of *"Cloudy with a
//! Chance of Short RTTs"* (IMC 2021).
//!
//! This crate is the executable form of the paper's Table 1 and §2.3/§6:
//!
//! * [`Provider`] — the ten provider products the paper measures (Amazon
//!   EC2, Google, Microsoft, DigitalOcean, Alibaba, Vultr, Linode, Amazon
//!   Lightsail, Oracle, IBM) with their backbone class (Private / Semi /
//!   Public).
//! * [`region`] — the full 195-region deployment, per-continent counts
//!   matching Table 1 exactly, each region anchored to a real city.
//! * [`pop`] — edge Points-of-Presence: where a provider can ingest client
//!   traffic into its WAN (colocation/IXP sites, §2.3), and
//!   [`PopSet::nearest`], the ingress search for direct-peered traffic.
//! * [`wan`] — the private WAN footprint: which continents a provider's
//!   backbone spans and connects, which decides the PoPs eligible as an
//!   ingress.
//! * [`peering`] — the client-facing interconnection policy: for a given
//!   (provider, serving ISP) pair, does inbound traffic enter via direct
//!   peering, public peering at an IXP, a single private transit carrier, or
//!   the public Internet? Includes the named per-ISP exceptions visible in
//!   the paper's Figs. 12a/13a.

pub mod peering;
pub mod pop;
pub mod provider;
pub mod region;
pub mod wan;

pub use peering::{cloud_interconnect, InterconnectPolicy, PeeringKind, RouteClass};
pub use pop::{PopSite, PopSet};
pub use provider::{Backbone, Provider};
pub use region::{CloudRegion, RegionId};
pub use wan::WanFootprint;

#[cfg(test)]
mod proptests;
