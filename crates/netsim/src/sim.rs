//! The simulator: route construction and RTT / traceroute sampling.
//!
//! Route *structure* is deterministic per (client location, ISP, region):
//! the same probe always traverses the same routers, as the paper's repeated
//! `<probe, datacenter>` measurements assume. Latency *samples* over a route
//! vary per measurement through [`FlowRng`] — reproducibly, given the seed.
//!
//! Routing is memoized at three levels, each keyed by exactly the inputs it
//! reads: finished routes in the [`RouteCache`]; the wide-area geometry past
//! the access leg, per (ISP, ISP anchor, region, probe country); and, inside
//! a wide-area build, its two pure geometry searches: the ingress PoP scan
//! per (provider, ISP anchor, region continent) and a cross-continent leg's
//! cable-graph search per pair of endpoints. A miss runs the same search as
//! the unmemoized build, so ties resolve as they always did.
//! [`Simulator::route_uncached`] bypasses all three levels; it is the oracle
//! that memoized routes are tested against.

use crate::cache::{RouteCache, RouteKey};
use crate::client::ClientCtx;
use crate::hop::{Hop, HopKind};
use crate::hubs;
use crate::latency::{self, propagation_rtt_ms, QueueProfile};
use crate::network::Network;
use crate::path::RoutePath;
use crate::rng::{mix, FlowRng};
use cloudy_cloud::{PeeringKind, Provider, RegionId, WanFootprint};
use cloudy_geo::distance::{routed_distance_km, terrestrial_stretch};
use cloudy_geo::{city, Continent, CountryCode, GeoPoint};
use cloudy_lastmile::stats_math::LogNormal;
use cloudy_lastmile::AccessType;
use cloudy_topology::{AsKind, Asn, IxpId};
use rand::Rng;
use serde::Serialize;
use std::collections::HashMap;
use std::hash::Hash;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Measurement protocol. The paper runs TCP pings and ICMP traceroutes on
/// Speedchecker, and compares protocols in Appendix A.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Protocol {
    Tcp,
    Icmp,
}

impl Protocol {
    fn tag(&self) -> u64 {
        match self {
            Protocol::Tcp => 0x7C9,
            Protocol::Icmp => 0x1C3,
        }
    }
}

/// One traceroute response line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceHop {
    pub ttl: u8,
    /// `None` when the router did not answer ("* * *").
    pub ip: Option<Ipv4Addr>,
    pub rtt_ms: Option<f64>,
}

/// Extra RTT charged when a probe tunnels through a VPN (median, ms).
const VPN_DETOUR_RTT_MS: f64 = 24.0;

/// Wide-area structure past the access leg, shared by every probe with the
/// same [`WideKey`].
struct WideArea {
    interconnect: PeeringKind,
    as_path: Vec<Asn>,
    via_ixp: Option<IxpId>,
    /// Hops after the ISP core: (kind, owner, location, effective km).
    middle: Vec<(HopKind, Option<Asn>, GeoPoint, f64)>,
    isp_anchor: GeoPoint,
    isp_cont: Continent,
}

/// The route + RTT engine over an assembled [`Network`].
pub struct Simulator {
    pub net: Network,
    /// Wide-area geometry per [`WideKey`].
    wide_cache: Memo<WideKey, Arc<WideArea>>,
    /// The direct-peering ingress PoP per [`IngressKey`].
    ingress_cache: Memo<IngressKey, (GeoPoint, Continent)>,
    /// Cross-continent effective km per [`CableKey`].
    cable_cache: Memo<CableKey, f64>,
    route_cache: RouteCache,
}

/// A memo of a pure function, filled through [`memoized`].
type Memo<K, V> = RwLock<HashMap<K, V>>;

/// Every input [`Simulator::build_wide_area`] reads: the ISP, the bits of
/// its anchor (the egress point the probe's cell picks), the region, and the
/// probe's country (the transit-carrier policy reads it). Probes in
/// different cells that pick the same anchor share one entry.
type WideKey = (Asn, (u64, u64), RegionId, CountryCode);

/// Every input of the non-IXP ingress scan in
/// [`Simulator::direct_ingress`]: the provider, the bits of the ISP anchor
/// it searches from, and the region's continent (which PoPs the WAN can
/// carry there).
type IngressKey = (Provider, (u64, u64), Continent);

/// Both endpoints of a cross-continent leg: each one's bits and continent.
type CableKey = ((u64, u64), Continent, (u64, u64), Continent);

/// Read-then-insert lookup shared by the simulator's memos: a hit clones
/// the stored value, a miss builds it with no lock held and inserts it.
/// Each value is a pure function of its key, so racing misses insert equal
/// values; each write is one whole entry, so poison is ignored.
fn memoized<K: Eq + Hash, V: Clone>(memo: &Memo<K, V>, key: K, build: impl FnOnce() -> V) -> V {
    if let Some(hit) = memo.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
        return hit.clone();
    }
    let built = build();
    memo.write().unwrap_or_else(PoisonError::into_inner).insert(key, built.clone());
    built
}

/// Whether a wide-area build runs its ingress scan and cable searches
/// through the simulator's memos or from scratch.
#[derive(Clone, Copy)]
enum Searches {
    Memoized,
    Uncached,
}

fn bits(p: GeoPoint) -> (u64, u64) {
    (p.lat().to_bits(), p.lon().to_bits())
}

fn loc_key(p: GeoPoint) -> (i32, i32) {
    ((p.lat() * 10.0).round() as i32, (p.lon() * 10.0).round() as i32)
}

/// Centre of a probe's 0.1° grid cell. The ISP anchor and the access leg
/// are computed from this point (not the probe's exact jittered location),
/// so every probe in a cell gets bit-identical geometry whichever one is
/// routed first — a determinism requirement under parallel execution. The
/// quantisation error is < 8 km, far below the geometric uncertainty
/// already modelled by path stretch.
fn grid_center(key: (i32, i32)) -> GeoPoint {
    GeoPoint::new(key.0 as f64 / 10.0, key.1 as f64 / 10.0)
}

/// Effective routed km between two points: within a continent the great
/// circle times its terrestrial stretch (the one leg `routed_distance_km`
/// would build), across continents the cable-graph search.
fn eff(a: GeoPoint, ca: Continent, b: GeoPoint, cb: Continent) -> f64 {
    if ca == cb {
        a.haversine_km(&b) * terrestrial_stretch(ca)
    } else {
        routed_distance_km(a, ca, b, cb).effective_km
    }
}

impl Simulator {
    pub fn new(net: Network) -> Self {
        Simulator {
            net,
            wide_cache: Memo::default(),
            ingress_cache: Memo::default(),
            cable_cache: Memo::default(),
            route_cache: RouteCache::default(),
        }
    }

    /// The route for a client→region pair, served from the sharded
    /// route-plan cache ([`crate::cache::RouteCache`]). The cached plan is
    /// bit-identical to [`Simulator::route_uncached`] output — the cache
    /// changes when a route is computed, never what it contains — so
    /// sampling over either is byte-equivalent.
    pub fn route(&self, client: &ClientCtx, region: RegionId) -> Arc<RoutePath> {
        let key = RouteKey::new(client, region);
        self.route_cache
            .get_or_insert_with(key, || self.assemble_route(client, region, &self.wide_area(client, region)))
    }

    /// The route-plan cache, for stats (`hit_rate`) and explicit `clear`.
    pub fn route_cache(&self) -> &RouteCache {
        &self.route_cache
    }

    /// Build the full route from scratch, bypassing every layer of route
    /// memoization: the sharded route-plan cache, the wide-area memo, and
    /// the ingress and cable memos inside a wide-area build. Each memo holds
    /// a pure function of its key, so the result is bit-identical to the
    /// cached plan; only the cost differs. This is the
    /// `CampaignConfig::route_cache = false` path and the reference leg of
    /// the audit race check.
    pub fn route_uncached(&self, client: &ClientCtx, region: RegionId) -> RoutePath {
        let anchor = self.isp_anchor(client);
        let wa = self.build_wide_area(client, region, anchor, Searches::Uncached);
        self.assemble_route(client, region, &wa)
    }

    /// Assemble the per-probe route around shared wide-area geometry:
    /// client-side hops (home router / CGN / ISP access+core) plus the
    /// memoizable middle and destination hops. The access leg, from the
    /// probe's cell to the ISP anchor, is the one distance that reads the
    /// cell, so it is computed here rather than shared.
    fn assemble_route(&self, client: &ClientCtx, region: RegionId, wa: &WideArea) -> RoutePath {
        let cell = loc_key(client.location);
        let salt_base = mix(&[cell.0 as u64, cell.1 as u64]);
        let d_access_km = eff(grid_center(cell), client.continent, wa.isp_anchor, wa.isp_cont);
        let mut hops: Vec<Hop> = Vec::with_capacity(wa.middle.len() + 4);

        // Client side.
        if client.access.access == AccessType::WifiHome && !client.artifacts.behind_cgn {
            let third = (client.probe_hash % 254) as u8;
            hops.push(Hop::new(
                HopKind::HomeRouter,
                Ipv4Addr::new(192, 168, third, 1),
                None,
                client.location,
                0.0,
            ));
        }
        if client.artifacts.behind_cgn {
            let h = mix(&[client.probe_hash, 0xC6A]);
            hops.push(Hop::new(
                HopKind::CgnGateway,
                Ipv4Addr::new(100, 64 + ((h >> 8) % 64) as u8, (h >> 16) as u8, 1),
                Some(client.isp),
                client.location,
                0.0,
            ));
        }
        hops.push(Hop::new(
            HopKind::IspAccess,
            self.net.router_ip(client.isp, mix(&[salt_base, 1])),
            Some(client.isp),
            client.location,
            0.0,
        ));
        hops.push(Hop::new(
            HopKind::IspCore,
            self.net.router_ip(client.isp, mix(&[salt_base, 2])),
            Some(client.isp),
            wa.isp_anchor,
            d_access_km,
        ));

        // Middle + destination.
        let vm_ip = self.net.region(region).vm_ip;
        for (idx, (kind, owner, loc, km)) in wa.middle.iter().enumerate() {
            let ip = match kind {
                HopKind::IxpFabric => {
                    self.net.fabric_ip(wa.via_ixp.expect("fabric hop implies ixp"), salt_base) // audit:allow(expect)
                }
                HopKind::Destination => vm_ip,
                _ => self
                    .net
                    .router_ip(owner.expect("non-fabric middle hops have owners"), mix(&[salt_base, 10 + idx as u64])), // audit:allow(expect)
            };
            hops.push(Hop::new(*kind, ip, *owner, *loc, *km));
        }

        RoutePath {
            interconnect: wa.interconnect,
            as_path: wa.as_path.clone(),
            hops,
            via_ixp: wa.via_ixp,
            wide_area_km: wa.middle.iter().map(|m| m.3).sum(),
        }
    }

    /// Test-only, hour-less wrapper over the canonical
    /// [`Simulator::ping_at`] semantics: one ping RTT (ms) under neutral
    /// (midday-average) load with loss disabled — the conditional
    /// expectation the unit tests and proptests sample. No campaign uses
    /// it: its flow derivation differs from `ping_at`'s, so the two are
    /// independent sample streams by design.
    #[cfg(test)]
    pub fn ping(&self, client: &ClientCtx, path: &RoutePath, proto: Protocol, seq: u64) -> f64 {
        let flow = mix(&[client.probe_hash, path_region_tag(path), proto.tag(), seq]);
        let mut rng = FlowRng::new(self.net.seed, flow);
        self.sample_rtt_with(&mut rng, client, path, proto, 1.0)
    }

    /// Canonical ping: one probe at a campaign hour. Diurnal congestion
    /// applies (evening peaks in the probe's local time) and the ping may
    /// be lost entirely (`None`) — public paths lose ~2.5 % of probes,
    /// engineered WANs almost none. `attempt` is the task's retry number:
    /// attempt 0 draws from the unsalted flow, and each later attempt
    /// salts it, so retries are fresh, reproducible samples.
    pub fn ping_at(
        &self,
        client: &ClientCtx,
        path: &RoutePath,
        proto: Protocol,
        seq: u64,
        utc_hour: u64,
        attempt: u32,
    ) -> Option<f64> {
        let flow = ping_flow(client.probe_hash, path_region_tag(path), proto, seq, attempt);
        let mut rng = FlowRng::new(self.net.seed, flow);
        let p_loss = latency::loss_probability(path.interconnect)
            + if client.access.access.is_wireless() { 0.008 } else { 0.002 };
        if rng.gen::<f64>() < p_loss {
            return None;
        }
        let load = latency::diurnal::factor_at(utc_hour, client.location.lon());
        Some(self.sample_rtt_with(&mut rng, client, path, proto, load))
    }

    fn sample_rtt_with(
        &self,
        rng: &mut FlowRng,
        client: &ClientCtx,
        path: &RoutePath,
        proto: Protocol,
        load: f64,
    ) -> f64 {
        let (w, u) = client.access.sample_segments(rng);
        // The last mile shares the diurnal cycle at half depth (home/cell
        // congestion is real but less pronounced than transit queues).
        let lastmile_load = 1.0 + (load - 1.0) * 0.5;
        let vpn = if client.artifacts.behind_vpn {
            LogNormal::from_median_cv(VPN_DETOUR_RTT_MS, 0.3).sample(rng)
        } else {
            0.0
        };
        let lastmile = (w + u) * lastmile_load + vpn;
        let prop = propagation_rtt_ms(path.total_km());
        let queue =
            QueueProfile::for_kind(path.interconnect).process(prop).sample(rng) * load;
        let proc_factor: f64 = 0.7 + 0.6 * rng.gen::<f64>();
        let proc: f64 =
            path.hops.iter().map(|h| h.kind.processing_ms()).sum::<f64>() * proc_factor;
        let icmp = self.icmp_penalty(rng, path, proto);
        lastmile + prop + queue + proc + icmp
    }

    fn icmp_penalty(&self, rng: &mut FlowRng, path: &RoutePath, proto: Protocol) -> f64 {
        if proto != Protocol::Icmp {
            return 0.0;
        }
        let cloud_hops = path.hops.iter().filter(|h| h.kind.is_cloud_owned()).count();
        let median = latency::protocol::ICMP_PER_HOP_MS * path.hops.len() as f64
            + latency::protocol::ICMP_CLOUD_HOP_MS * cloud_hops as f64;
        LogNormal::from_median_cv(median.max(0.01), 0.8).sample(rng)
    }

    /// Test-only, hour-less wrapper over the canonical
    /// [`Simulator::traceroute_at`] semantics: one traceroute under neutral
    /// load (both delegate to the same per-hop sampling core, differing
    /// only in the load factor).
    #[cfg(test)]
    pub fn traceroute(&self, client: &ClientCtx, path: &RoutePath, proto: Protocol, seq: u64) -> Vec<TraceHop> {
        self.traceroute_with(client, path, proto, seq, 1.0, 0)
    }

    /// Canonical traceroute: per-hop responses with realistic non-response
    /// and latency inflation at a campaign hour (diurnal congestion
    /// applied). `attempt` salts the flow as in [`Simulator::ping_at`].
    pub fn traceroute_at(
        &self,
        client: &ClientCtx,
        path: &RoutePath,
        proto: Protocol,
        seq: u64,
        utc_hour: u64,
        attempt: u32,
    ) -> Vec<TraceHop> {
        let load = latency::diurnal::factor_at(utc_hour, client.location.lon());
        self.traceroute_with(client, path, proto, seq, load, attempt)
    }

    fn traceroute_with(
        &self,
        client: &ClientCtx,
        path: &RoutePath,
        proto: Protocol,
        seq: u64,
        load: f64,
        attempt: u32,
    ) -> Vec<TraceHop> {
        let flow = trace_flow(client.probe_hash, path_region_tag(path), proto, seq, attempt);
        let mut base = FlowRng::new(self.net.seed, flow);

        let (w0, u0) = client.access.sample_segments(&mut base);
        let lastmile_load = 1.0 + (load - 1.0) * 0.5;
        let (w, u) = (w0 * lastmile_load, u0 * lastmile_load);
        let vpn = if client.artifacts.behind_vpn {
            LogNormal::from_median_cv(VPN_DETOUR_RTT_MS, 0.3).sample(&mut base)
        } else {
            0.0
        };
        let queue_total = {
            let prop = propagation_rtt_ms(path.total_km());
            QueueProfile::for_kind(path.interconnect).process(prop).sample(&mut base) * load
        };
        let total_km: f64 = path.total_km().max(1e-9);
        let slop_dist = LogNormal::from_median_cv(
            latency::protocol::TRACEROUTE_SLOP_MS,
            latency::protocol::TRACEROUTE_SLOP_CV,
        );

        let mut out = Vec::with_capacity(path.hops.len());
        let mut cum_km = 0.0;
        let mut cum_proc = 0.0;
        let mut cum_cloud = 0usize;
        for (i, hop) in path.hops.iter().enumerate() {
            cum_km += hop.km_from_prev;
            cum_proc += hop.kind.processing_ms();
            if hop.kind.is_cloud_owned() {
                cum_cloud += 1;
            }
            let mut hrng = base.split(100 + i as u64);
            let responds = hop.kind == HopKind::Destination
                || hrng.gen::<f64>() < hop.kind.response_probability();
            if !responds {
                out.push(TraceHop { ttl: (i + 1) as u8, ip: None, rtt_ms: None });
                continue;
            }
            // Last-mile contribution: the home router sits before the
            // uplink; everything after includes the full last mile.
            let lastmile = match hop.kind {
                HopKind::HomeRouter => w,
                _ => w + u + vpn,
            };
            let prop = propagation_rtt_ms(cum_km);
            let queue = queue_total * (cum_km / total_km);
            let icmp = if proto == Protocol::Icmp {
                latency::protocol::ICMP_PER_HOP_MS * (i + 1) as f64
                    + latency::protocol::ICMP_CLOUD_HOP_MS * cum_cloud as f64
            } else {
                0.0
            };
            let slop = slop_dist.sample(&mut hrng);
            let rtt = lastmile + prop + queue + cum_proc + icmp + slop;
            out.push(TraceHop { ttl: (i + 1) as u8, ip: Some(hop.ip), rtt_ms: Some(rtt) });
        }
        out
    }

    // ---- wide-area construction ----------------------------------------

    fn wide_area(&self, client: &ClientCtx, region: RegionId) -> Arc<WideArea> {
        let anchor = self.isp_anchor(client);
        let key = (client.isp, bits(anchor), region, client.country);
        memoized(&self.wide_cache, key, || {
            Arc::new(self.build_wide_area(client, region, anchor, Searches::Memoized))
        })
    }

    /// [`eff`], with a cross-continent pair's cable-graph search served
    /// from the cable memo when `searches` allows.
    fn routed_km(
        &self,
        a: GeoPoint,
        ca: Continent,
        b: GeoPoint,
        cb: Continent,
        searches: Searches,
    ) -> f64 {
        match searches {
            Searches::Memoized if ca != cb => {
                memoized(&self.cable_cache, (bits(a), ca, bits(b), cb), || eff(a, ca, b, cb))
            }
            _ => eff(a, ca, b, cb),
        }
    }

    fn isp_info(&self, isp: Asn) -> &cloudy_topology::AsInfo {
        self.net
            .graph
            .info(isp)
            .unwrap_or_else(|| panic!("client ISP {isp} not in graph")) // audit:allow(panic)
    }

    /// Where the client's ISP hands traffic to the wide area. Real ISPs
    /// egress to peering/transit at their PoP nearest the subscriber, not at
    /// a single national hub: the nearest major city of the probe's country
    /// to its cell's centre (see [`grid_center`]), or the AS anchor for
    /// countries without gazetteer cities.
    fn isp_anchor(&self, client: &ClientCtx) -> GeoPoint {
        let cell = grid_center(loc_key(client.location));
        nearest_major_city(client.country, cell)
            .unwrap_or_else(|| self.isp_info(client.isp).location)
    }

    /// The wide area past the access leg. Reads exactly the fields of its
    /// [`WideKey`]: `client.isp`, `client.country`, the region and
    /// `isp_anchor`. `searches` picks whether the ingress scan and the
    /// cable searches go through their memos; the geometry is the same.
    fn build_wide_area(
        &self,
        client: &ClientCtx,
        region_id: RegionId,
        isp_anchor: GeoPoint,
        searches: Searches,
    ) -> WideArea {
        let eff = |a: GeoPoint, ca: Continent, b: GeoPoint, cb: Continent| {
            self.routed_km(a, ca, b, cb, searches)
        };
        let ep = self.net.region(region_id);
        let provider = ep.region.provider;
        let region_loc = ep.region.location();
        let region_cont = ep.region.continent();
        let isp_info = self.isp_info(client.isp);
        let isp_cont = isp_info.continent;

        // The interconnection is the provider's client-facing policy for
        // this ISP (the same deterministic decision the world builder used
        // to create peer edges). Path structure follows from it; the
        // resulting traceroutes are what the analysis pipeline classifies.
        let decision = self.net.policy.decide(provider, client.isp, isp_info.country, isp_info.continent);
        let via_ixp = self.net.fabric_links.get(&(client.isp, provider.asn())).copied();
        let n_inter = match decision {
            PeeringKind::Direct | PeeringKind::IxpPublic => 0usize,
            PeeringKind::PrivateTransit => 1,
            PeeringKind::Public => 2,
        };

        let mut middle: Vec<(HopKind, Option<Asn>, GeoPoint, f64)> = Vec::new();
        let pasn = provider.asn();
        let interconnect;
        let effective_as_path: Vec<Asn>;

        if n_inter == 0 {
            effective_as_path = vec![client.isp, pasn];
            // Peer edge: direct or across a public exchange.
            let ingress = self.direct_ingress(provider, isp_anchor, region_cont, via_ixp, searches);
            let (in_loc, in_cont) = ingress;
            let d_peer = eff(isp_anchor, isp_cont, in_loc, in_cont);
            let d_wan = eff(in_loc, in_cont, region_loc, region_cont);
            if let Some(ixp) = via_ixp {
                interconnect = PeeringKind::IxpPublic;
                let ixp_loc = self.net.ixps.get(ixp).expect("known ixp").location; // audit:allow(expect)
                middle.push((HopKind::IxpFabric, None, ixp_loc, d_peer));
                middle.push((HopKind::CloudEdge, Some(pasn), in_loc, 0.0));
            } else {
                interconnect = PeeringKind::Direct;
                middle.push((HopKind::CloudEdge, Some(pasn), in_loc, d_peer));
            }
            if provider.is_hypergiant() {
                let mid = in_loc.midpoint(&region_loc);
                middle.push((HopKind::CloudCore, Some(pasn), mid, d_wan * 0.5));
                middle.push((HopKind::CloudCore, Some(pasn), region_loc, d_wan * 0.5));
            } else {
                middle.push((HopKind::CloudCore, Some(pasn), region_loc, d_wan));
            }
        } else if n_inter == 1 {
            interconnect = PeeringKind::PrivateTransit;
            // Geometry follows the *engineered* carrier for this
            // destination (NTT intra-Japan, TATA JP→IN, Telia/GTT
            // elsewhere), which also becomes the observable middle AS.
            let carrier = self.net.policy.transit_carrier(
                provider,
                client.isp,
                client.country,
                ep.region.country(),
            );
            effective_as_path = vec![client.isp, carrier, pasn];
            let (entry_loc, entry_cont) = hub_or_anchor(&self.net, carrier, isp_anchor);
            let (exit_loc, exit_cont) = hub_or_anchor(&self.net, carrier, region_loc);
            let d1 = eff(isp_anchor, isp_cont, entry_loc, entry_cont);
            middle.push((HopKind::Tier1Core, Some(carrier), entry_loc, d1));
            let d2 = eff(entry_loc, entry_cont, exit_loc, exit_cont);
            if d2 > 1.0 {
                middle.push((HopKind::Tier1Core, Some(carrier), exit_loc, d2));
            }
            let d3 = eff(exit_loc, exit_cont, region_loc, region_cont);
            middle.push((HopKind::CloudEdge, Some(pasn), region_loc, d3));
        } else {
            interconnect = PeeringKind::Public;
            effective_as_path = self.synth_public_path(client.isp, provider);
            let mut prev_loc = isp_anchor;
            let mut prev_cont = isp_cont;
            let inters: Vec<Asn> =
                effective_as_path[1..effective_as_path.len() - 1].to_vec();
            for (i, mid_asn) in inters.iter().enumerate() {
                let info = self.net.graph.info(*mid_asn).expect("on-path AS registered"); // audit:allow(expect)
                let is_last = i + 1 == inters.len();
                match info.kind {
                    AsKind::Tier1 => {
                        let (entry, entry_cont) = hub_or_anchor(&self.net, *mid_asn, prev_loc);
                        let d = eff(prev_loc, prev_cont, entry, entry_cont);
                        middle.push((HopKind::Tier1Core, Some(*mid_asn), entry, d));
                        prev_loc = entry;
                        prev_cont = entry_cont;
                        if is_last {
                            let (exit, exit_cont) = hub_or_anchor(&self.net, *mid_asn, region_loc);
                            let d = eff(prev_loc, prev_cont, exit, exit_cont);
                            if d > 1.0 {
                                middle.push((HopKind::Tier1Core, Some(*mid_asn), exit, d));
                                prev_loc = exit;
                                prev_cont = exit_cont;
                            }
                        }
                    }
                    _ => {
                        let d = eff(prev_loc, prev_cont, info.location, info.continent);
                        middle.push((HopKind::Tier2Core, Some(*mid_asn), info.location, d));
                        prev_loc = info.location;
                        prev_cont = info.continent;
                    }
                }
            }
            let d = eff(prev_loc, prev_cont, region_loc, region_cont);
            middle.push((HopKind::CloudEdge, Some(pasn), region_loc, d));
        }
        middle.push((HopKind::Destination, Some(pasn), region_loc, 0.0));

        WideArea {
            interconnect,
            as_path: effective_as_path,
            via_ixp: if interconnect == PeeringKind::IxpPublic { via_ixp } else { None },
            middle,
            isp_anchor,
            isp_cont,
        }
    }

    /// Synthesise the public-Internet AS path: the ISP's regional Tier-2,
    /// that Tier-2's Tier-1, and — when the cloud does not buy transit from
    /// that Tier-1 — a second Tier-1 reached over the Tier-1 peering clique.
    /// Every edge used exists in the graph, and the result is valley-free
    /// (up, up, [peer,] down).
    fn synth_public_path(&self, isp: Asn, provider: Provider) -> Vec<Asn> {
        let pasn = provider.asn();
        let sorted_of = |asn: Asn, want_kind: AsKind, rel: cloudy_topology::Relationship| {
            let mut v: Vec<Asn> = self
                .net
                .graph
                .neighbors(asn)
                .iter()
                .filter(|(n, r)| {
                    *r == rel
                        && self.net.graph.info(*n).map(|i| i.kind == want_kind).unwrap_or(false)
                })
                .map(|(n, _)| *n)
                .collect();
            v.sort();
            v
        };
        use cloudy_topology::Relationship::Provider as ProvRel;
        // The ISP's transit chain upward.
        let t2 = sorted_of(isp, AsKind::Tier2, ProvRel).into_iter().next();
        let first_t1_above = |asn: Asn| sorted_of(asn, AsKind::Tier1, ProvRel).into_iter().next();
        let (mut path, top_t1) = match t2 {
            Some(t2) => {
                let t1 = first_t1_above(t2).expect("every Tier-2 buys from a Tier-1"); // audit:allow(expect)
                (vec![isp, t2, t1], t1)
            }
            None => {
                // Incumbents connected straight to a Tier-1.
                let t1 = first_t1_above(isp).expect("access ISPs have transit"); // audit:allow(expect)
                (vec![isp, t1], t1)
            }
        };
        // The cloud's transit providers (as seen from the cloud side).
        let cloud_transits = sorted_of(pasn, AsKind::Tier1, ProvRel);
        if !cloud_transits.contains(&top_t1) {
            // Hop across the Tier-1 clique to one of the cloud's carriers,
            // picked deterministically per ISP.
            let pick = (mix(&[self.net.seed, isp.0 as u64, pasn.0 as u64])
                % cloud_transits.len().max(1) as u64) as usize;
            let target = *cloud_transits.get(pick).expect("clouds buy transit"); // audit:allow(expect)
            if target != top_t1 {
                path.push(target);
            }
        }
        path.push(pasn);
        path
    }

    /// Ingress for peer paths: the provider PoP nearest the ISP whose
    /// continent the WAN can connect to the region's continent (region-city
    /// PoPs always qualify, so a candidate always exists). The PoP scan is
    /// served from the ingress memo when `searches` allows.
    fn direct_ingress(
        &self,
        provider: Provider,
        near: GeoPoint,
        region_cont: Continent,
        via_ixp: Option<IxpId>,
        searches: Searches,
    ) -> (GeoPoint, Continent) {
        if let Some(ixp) = via_ixp {
            // Public peering happens at the exchange; the edge is colocated.
            let ixp = self.net.ixps.get(ixp).expect("known ixp"); // audit:allow(expect)
            // Continent of the exchange's city.
            let cont = Continent::ALL
                .iter()
                .copied()
                .min_by(|a, b| {
                    let fa = continent_centroid_distance(*a, ixp.location);
                    let fb = continent_centroid_distance(*b, ixp.location);
                    fa.total_cmp(&fb)
                })
                .expect("nonempty"); // audit:allow(expect)
            return (ixp.location, cont);
        }
        let scan = || {
            let wan = WanFootprint::new(provider);
            let best = self.net.pops[&provider]
                .nearest(near, |p| {
                    p.continent == region_cont || wan.wan_connects(p.continent, region_cont)
                })
                .expect("region-city PoP always eligible"); // audit:allow(expect)
            (best.location, best.continent)
        };
        match searches {
            Searches::Memoized => {
                memoized(&self.ingress_cache, (provider, bits(near), region_cont), scan)
            }
            Searches::Uncached => scan(),
        }
    }
}

/// Each country's major cities (gazetteer weight >= 0.08), in table
/// order, built on first use.
fn major_cities(country: CountryCode) -> &'static [GeoPoint] {
    static MAJOR: OnceLock<HashMap<CountryCode, Vec<GeoPoint>>> = OnceLock::new();
    let by_country = MAJOR.get_or_init(|| {
        let mut by_country: HashMap<CountryCode, Vec<GeoPoint>> = HashMap::new();
        for c in city::CITIES.iter().filter(|c| c.weight >= 0.08) {
            by_country.entry(c.country_code()).or_default().push(c.location());
        }
        by_country
    });
    by_country.get(&country).map_or(&[], Vec::as_slice)
}

/// Nearest major city of the client's country.
fn nearest_major_city(country: CountryCode, near: GeoPoint) -> Option<GeoPoint> {
    major_cities(country).iter().copied().min_by(|a, b| {
        let da = a.haversine_km(&near);
        let db = b.haversine_km(&near);
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
    })
}

/// Carrier hub near a point, falling back to the AS anchor.
fn hub_or_anchor(net: &Network, carrier: Asn, near: GeoPoint) -> (GeoPoint, Continent) {
    if let Some(hub) = hubs::nearest_hub(carrier, near) {
        (hub.location(), hub.continent())
    } else {
        let info = net.graph.info(carrier).expect("carrier registered"); // audit:allow(expect)
        (info.location, info.continent)
    }
}

/// Rough continent inference from an IXP location (only used for distance
/// attribution of the fabric's city).
fn continent_centroid_distance(c: Continent, p: GeoPoint) -> f64 {
    let centroid = match c {
        Continent::Africa => GeoPoint::new(2.0, 22.0),
        Continent::Asia => GeoPoint::new(30.0, 90.0),
        Continent::Europe => GeoPoint::new(50.0, 12.0),
        Continent::NorthAmerica => GeoPoint::new(42.0, -95.0),
        Continent::Oceania => GeoPoint::new(-28.0, 145.0),
        Continent::SouthAmerica => GeoPoint::new(-15.0, -60.0),
    };
    centroid.haversine_km(&p)
}

/// A stable tag distinguishing routes to different regions in flow ids.
fn path_region_tag(path: &RoutePath) -> u64 {
    // Destination VM address is unique per region.
    let dest = path.hops.last().expect("route has hops"); // audit:allow(expect)
    u32::from(dest.ip) as u64
}

/// Flow-id salt distinguishing retry attempts from the first try. Attempt 0
/// keeps the unsalted flow, so a campaign's first attempts draw the same
/// samples whether or not a fault profile is set.
const ATTEMPT_SALT: u64 = 0xA77E;

fn ping_flow(probe_hash: u64, region_tag: u64, proto: Protocol, seq: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        mix(&[probe_hash, region_tag, proto.tag(), 0xD1A1, seq])
    } else {
        mix(&[probe_hash, region_tag, proto.tag(), 0xD1A1, seq, ATTEMPT_SALT, attempt as u64])
    }
}

fn trace_flow(probe_hash: u64, region_tag: u64, proto: Protocol, seq: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        mix(&[probe_hash, region_tag, proto.tag(), 0x7124CE, seq])
    } else {
        mix(&[probe_hash, region_tag, proto.tag(), 0x7124CE, seq, ATTEMPT_SALT, attempt as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, WorldConfig};
    use cloudy_geo::{country, CountryCode};
    use cloudy_lastmile::artifacts::ProbeArtifacts;
    use cloudy_lastmile::{AccessProfile, AccessType};
    use cloudy_topology::known;

    fn world() -> Simulator {
        let w = build(&WorldConfig {
            seed: 21,
            isps_per_country: 2,
            countries: Some(
                ["DE", "GB", "JP", "IN", "BH", "US", "BR", "KE", "ZA", "EG"]
                    .iter()
                    .map(|c| CountryCode::new(c))
                    .collect(),
            ),
        });
        Simulator::new(w.net)
    }

    fn client_in(sim: &Simulator, cc: &str, isp: Asn, access: AccessType, hash: u64) -> ClientCtx {
        let c = country::lookup_str(cc).unwrap();
        ClientCtx {
            probe_hash: hash,
            location: c.location(),
            country: c.code(),
            continent: c.continent,
            isp,
            public_ip: sim.net.router_ip(isp, mix(&[hash, 0xF00])),
            access: AccessProfile::baseline(access),
            artifacts: ProbeArtifacts::none(),
        }
    }

    fn region_of(sim: &Simulator, provider: Provider, city: &str) -> RegionId {
        sim.net
            .regions
            .iter()
            .find(|r| r.region.provider == provider && r.region.city == city)
            .map(|r| r.id)
            .unwrap_or_else(|| panic!("no {provider} region in {city}"))
    }

    /// Probes on every access ISP of the test world, three cells per ISP,
    /// so that one ISP's probes pick different anchors.
    fn plan_clients(sim: &Simulator) -> Vec<ClientCtx> {
        let mut isps: Vec<(CountryCode, Asn)> = sim
            .net
            .graph
            .ases()
            .filter(|i| i.kind == AsKind::AccessIsp)
            .map(|i| (i.country, i.asn))
            .collect();
        isps.sort();
        let mut clients = Vec::new();
        for (cc, isp) in isps {
            for (dlat, dlon) in [(0.0, 0.0), (1.5, 1.5), (-1.5, -2.0)] {
                let hash = clients.len() as u64 + 100;
                let mut c = client_in(sim, cc.as_str(), isp, AccessType::WifiHome, hash);
                c.location = GeoPoint::new(c.location.lat() + dlat, c.location.lon() + dlon);
                clients.push(c);
            }
        }
        clients
    }

    #[test]
    fn memo_fill_order_never_changes_a_route() {
        // A fresh-pair campaign: every probe measures 16 regions spread
        // over providers and continents. One fresh simulator routes the
        // plan in order and another in reverse, so their wide-area, ingress
        // and cable memos fill in opposite orders. Every route must equal
        // its twin and the memo-free build.
        let (forward, reverse) = (world(), world());
        let regions = &forward.net.regions;
        let plan: Vec<(ClientCtx, RegionId)> = plan_clients(&forward)
            .into_iter()
            .enumerate()
            .flat_map(|(i, c)| {
                (0..16).map(move |k| (c.clone(), regions[(i * 5 + k * 12) % regions.len()].id))
            })
            .collect();
        let routed: Vec<Arc<RoutePath>> = plan.iter().map(|(c, r)| forward.route(c, *r)).collect();
        for ((c, region), route) in plan.iter().zip(&routed).rev() {
            let at = format!("{} {} -> {region:?}", c.country, c.isp);
            assert_eq!(*reverse.route(c, *region), **route, "{at}: fill order");
            assert_eq!(forward.route_uncached(c, *region), **route, "{at}: memo-free build");
        }
    }

    #[test]
    fn route_structure_is_deterministic() {
        let sim = world();
        let c = client_in(&sim, "DE", known::DTAG, AccessType::WifiHome, 1);
        let rid = region_of(&sim, Provider::AmazonEc2, "Frankfurt");
        let a = sim.route(&c, rid);
        let b = sim.route(&c, rid);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.as_path, b.as_path);
    }

    #[test]
    fn german_hypergiant_route_is_direct_and_starts_at_home() {
        let sim = world();
        let c = client_in(&sim, "DE", known::DTAG, AccessType::WifiHome, 2);
        let rid = region_of(&sim, Provider::Google, "Frankfurt");
        let p = sim.route(&c, rid);
        assert_eq!(p.interconnect, PeeringKind::Direct);
        assert_eq!(p.intermediate_as_count(), 0);
        assert_eq!(p.hops[0].kind, HopKind::HomeRouter);
        assert!(cloudy_topology::prefix::is_private(p.hops[0].ip));
        assert_eq!(p.hops.last().unwrap().kind, HopKind::Destination);
        // Hypergiant direct path: cloud owns a majority after the ISP.
        assert!(p.pervasiveness() > 0.45, "pervasiveness {}", p.pervasiveness());
    }

    #[test]
    fn cellular_route_has_no_private_first_hop() {
        let sim = world();
        let c = client_in(&sim, "DE", known::VODAFONE_DE, AccessType::Cellular, 3);
        let rid = region_of(&sim, Provider::Google, "Frankfurt");
        let p = sim.route(&c, rid);
        assert_eq!(p.hops[0].kind, HopKind::IspAccess);
        assert!(!cloudy_topology::prefix::is_private(p.hops[0].ip));
    }

    #[test]
    fn cgn_probe_shows_cgn_gateway() {
        let sim = world();
        let mut c = client_in(&sim, "DE", known::DTAG, AccessType::WifiHome, 4);
        c.artifacts = ProbeArtifacts { behind_cgn: true, behind_vpn: false };
        let rid = region_of(&sim, Provider::Google, "Frankfurt");
        let p = sim.route(&c, rid);
        assert_eq!(p.hops[0].kind, HopKind::CgnGateway);
        assert!(cloudy_topology::prefix::is_cgn(p.hops[0].ip));
    }

    #[test]
    fn de_to_frankfurt_rtt_is_plausible() {
        let sim = world();
        let c = client_in(&sim, "DE", known::DTAG, AccessType::WifiHome, 5);
        let rid = region_of(&sim, Provider::AmazonEc2, "Frankfurt");
        let p = sim.route(&c, rid);
        let mut rtts: Vec<f64> = (0..500).map(|s| sim.ping(&c, &p, Protocol::Tcp, s)).collect();
        rtts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = rtts[rtts.len() / 2];
        // Last-mile ~22ms + short path: Fig. 3 puts Germany in the 30-60 band.
        assert!((24.0..=60.0).contains(&med), "DE->FRA median {med}");
    }

    #[test]
    fn wired_probe_is_materially_faster() {
        let sim = world();
        let rid = region_of(&sim, Provider::AmazonEc2, "Frankfurt");
        let med = |access| {
            let c = client_in(&sim, "DE", known::DTAG, access, 6);
            let p = sim.route(&c, rid);
            let mut r: Vec<f64> =
                (0..400).map(|s| sim.ping(&c, &p, Protocol::Tcp, s)).collect();
            r.sort_by(|a, b| a.partial_cmp(b).unwrap());
            r[r.len() / 2]
        };
        let wifi = med(AccessType::WifiHome);
        let wired = med(AccessType::Wired);
        assert!(wifi - wired > 8.0, "wifi {wifi} vs wired {wired}");
    }

    #[test]
    fn jp_to_india_direct_is_tighter_than_public() {
        // The Fig. 13b shape: comparable medians, much tighter spread on
        // direct peering.
        let sim = world();
        let rid = region_of(&sim, Provider::Google, "Mumbai");
        // KDDI peers directly with Google (named policy).
        let direct_client = client_in(&sim, "JP", known::KDDI, AccessType::WifiHome, 7);
        let pd = sim.route(&direct_client, rid);
        assert_eq!(pd.interconnect, PeeringKind::Direct, "{:?}", pd.as_path);
        // DigitalOcean is strictly public from Japan; use its Singapore DC?
        // No — compare same destination country: use a public-kind route to a
        // small provider's Mumbai region (Linode has one).
        let lin = region_of(&sim, Provider::Linode, "Mumbai");
        let pub_client = client_in(&sim, "JP", known::SOFTBANK, AccessType::WifiHome, 8);
        let pp = sim.route(&pub_client, lin);
        assert!(
            pp.intermediate_as_count() >= 1,
            "expected transit path, got {:?}",
            pp.as_path
        );
        let spread = |c: &ClientCtx, p: &RoutePath| {
            let mut r: Vec<f64> = (0..600).map(|s| sim.ping(c, p, Protocol::Tcp, s)).collect();
            r.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (r[r.len() / 2], r[(r.len() * 3) / 4] - r[r.len() / 4])
        };
        let (md, sd) = spread(&direct_client, &pd);
        let (mp, sp) = spread(&pub_client, &pp);
        assert!(md > 60.0 && md < 220.0, "JP->IN direct median {md}");
        assert!(mp >= md * 0.8, "public median {mp} vs direct {md}");
        assert!(sp > sd * 1.4, "public IQR {sp} should dwarf direct IQR {sd}");
    }

    #[test]
    fn icmp_is_slightly_slower_than_tcp() {
        let sim = world();
        let c = client_in(&sim, "KE", Asn(200_000), AccessType::Cellular, 9);
        // Find KE's actual ISP ASNs via the graph: synthetic base may shift;
        // use any ISP registered in KE.
        let isp = sim
            .net
            .graph
            .ases()
            .find(|i| i.country == CountryCode::new("KE") && i.kind == AsKind::AccessIsp)
            .unwrap()
            .asn;
        let c = ClientCtx { isp, ..c };
        let rid = region_of(&sim, Provider::Microsoft, "Johannesburg");
        let p = sim.route(&c, rid);
        let med = |proto| {
            let mut r: Vec<f64> = (0..600).map(|s| sim.ping(&c, &p, proto, s)).collect();
            r.sort_by(|a, b| a.partial_cmp(b).unwrap());
            r[r.len() / 2]
        };
        let tcp = med(Protocol::Tcp);
        let icmp = med(Protocol::Icmp);
        assert!(icmp > tcp, "icmp {icmp} <= tcp {tcp}");
        assert!((icmp - tcp) / tcp < 0.1, "gap too large: {tcp} vs {icmp}");
    }

    #[test]
    fn traceroute_reaches_destination_with_increasing_ttl() {
        let sim = world();
        let c = client_in(&sim, "GB", {
            sim.net
                .graph
                .ases()
                .find(|i| i.country == CountryCode::new("GB") && i.kind == AsKind::AccessIsp)
                .unwrap()
                .asn
        }, AccessType::WifiHome, 10);
        let rid = region_of(&sim, Provider::Microsoft, "London");
        let p = sim.route(&c, rid);
        let tr = sim.traceroute(&c, &p, Protocol::Icmp, 0);
        assert_eq!(tr.len(), p.hops.len());
        let last = tr.last().unwrap();
        assert_eq!(last.ip, Some(sim.net.region(rid).vm_ip));
        assert!(last.rtt_ms.unwrap() > 0.0);
        for (i, th) in tr.iter().enumerate() {
            assert_eq!(th.ttl as usize, i + 1);
        }
        // Most hops respond.
        let responding = tr.iter().filter(|t| t.ip.is_some()).count();
        assert!(responding >= tr.len() - 3);
    }

    #[test]
    fn traceroute_hop_ips_resolve_to_on_path_ases() {
        let sim = world();
        let isp = sim
            .net
            .graph
            .ases()
            .find(|i| i.country == CountryCode::new("BR") && i.kind == AsKind::AccessIsp)
            .unwrap()
            .asn;
        let c = client_in(&sim, "BR", isp, AccessType::Cellular, 11);
        let rid = region_of(&sim, Provider::Vultr, "Miami");
        let p = sim.route(&c, rid);
        for hop in &p.hops {
            if let Some(owner) = hop.owner {
                if hop.kind == HopKind::CgnGateway {
                    continue;
                }
                assert_eq!(
                    sim.net.prefixes.lookup(hop.ip),
                    Some(owner),
                    "hop {:?} ip {} lookup mismatch",
                    hop.kind,
                    hop.ip
                );
            }
        }
    }

    #[test]
    fn sampling_is_reproducible() {
        let sim = world();
        let c = client_in(&sim, "US", {
            sim.net
                .graph
                .ases()
                .find(|i| i.country == CountryCode::new("US") && i.kind == AsKind::AccessIsp)
                .unwrap()
                .asn
        }, AccessType::WifiHome, 12);
        let rid = region_of(&sim, Provider::Ibm, "Dallas");
        let p = sim.route(&c, rid);
        for seq in 0..20 {
            assert_eq!(
                sim.ping(&c, &p, Protocol::Tcp, seq),
                sim.ping(&c, &p, Protocol::Tcp, seq)
            );
        }
        assert_ne!(
            sim.ping(&c, &p, Protocol::Tcp, 0),
            sim.ping(&c, &p, Protocol::Tcp, 1)
        );
    }

    #[test]
    fn ping_at_applies_loss_and_diurnal() {
        let sim = world();
        let c = client_in(&sim, "DE", known::DTAG, AccessType::WifiHome, 30);
        let rid = region_of(&sim, Provider::Vultr, "London");
        let p = sim.route(&c, rid);
        // Loss rate matches the path's interconnection class plus the
        // wireless last-mile component.
        let expected = crate::latency::loss_probability(p.interconnect) + 0.008;
        let mut lost = 0usize;
        let n = 6000u64;
        for seq in 0..n {
            if sim.ping_at(&c, &p, Protocol::Tcp, seq, 12, 0).is_none() {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - expected).abs() < expected * 0.6 + 0.004,
            "loss rate {rate}, expected ~{expected}"
        );
        // Diurnal: evening (peak, ~21h local in DE => ~20 UTC) beats dawn.
        let med = |hour: u64| {
            let mut v: Vec<f64> = (0..800)
                .filter_map(|s| sim.ping_at(&c, &p, Protocol::Tcp, s, hour, 0))
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let evening = med(20);
        let dawn = med(4);
        assert!(
            evening > dawn,
            "evening median {evening} should exceed pre-dawn {dawn}"
        );
        // Determinism of loss + value.
        assert_eq!(
            sim.ping_at(&c, &p, Protocol::Tcp, 7, 12, 0),
            sim.ping_at(&c, &p, Protocol::Tcp, 7, 12, 0)
        );
    }

    #[test]
    fn retries_draw_fresh_reproducible_samples() {
        let sim = world();
        let c = client_in(&sim, "DE", known::DTAG, AccessType::WifiHome, 33);
        let rid = region_of(&sim, Provider::AmazonEc2, "Frankfurt");
        let p = sim.route(&c, rid);
        let ping = |attempt| sim.ping_at(&c, &p, Protocol::Tcp, 3, 9, attempt);
        assert_eq!(ping(1), ping(1));
        assert_ne!(ping(1), ping(0));
        assert_ne!(ping(1), ping(2));
        let trace = |attempt| sim.traceroute_at(&c, &p, Protocol::Icmp, 3, 9, attempt);
        assert_eq!(trace(1), trace(1));
        assert_ne!(trace(1), trace(0));
        assert_ne!(trace(1), trace(2));
    }

    #[test]
    fn traceroute_at_shifts_with_load() {
        let sim = world();
        let c = client_in(&sim, "JP", known::KDDI, AccessType::Cellular, 31);
        let rid = region_of(&sim, Provider::Linode, "Mumbai");
        let p = sim.route(&c, rid);
        let e2e = |hour: u64| {
            let mut v: Vec<f64> = (0..400)
                .filter_map(|s| {
                    sim.traceroute_at(&c, &p, Protocol::Icmp, s, hour, 0)
                        .last()
                        .and_then(|h| h.rtt_ms)
                })
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        // 12 UTC ≈ 21h local in Japan (peak); 20 UTC ≈ 5h local (trough).
        assert!(e2e(12) > e2e(20), "JP peak {} vs trough {}", e2e(12), e2e(20));
    }

    #[test]
    fn bahrain_direct_beats_transit_to_india() {
        // Fig. 18b: direct peering from Bahrain to Indian DCs is clearly
        // faster than transit, which trombones via carrier hubs.
        let sim = world();
        let rid_direct = region_of(&sim, Provider::Microsoft, "Mumbai");
        let rid_public = region_of(&sim, Provider::Linode, "Mumbai");
        let direct_c = client_in(&sim, "BH", known::BATELCO, AccessType::Cellular, 13);
        let pd = sim.route(&direct_c, rid_direct);
        assert_eq!(pd.interconnect, PeeringKind::Direct);
        let pub_c = client_in(&sim, "BH", known::KALAAM, AccessType::Cellular, 14);
        let pp = sim.route(&pub_c, rid_public);
        assert!(pp.intermediate_as_count() >= 1, "{:?}", pp.as_path);
        let med = |c: &ClientCtx, p: &RoutePath| {
            let mut r: Vec<f64> = (0..400).map(|s| sim.ping(c, p, Protocol::Tcp, s)).collect();
            r.sort_by(|a, b| a.partial_cmp(b).unwrap());
            r[r.len() / 2]
        };
        let dm = med(&direct_c, &pd);
        let pm = med(&pub_c, &pp);
        assert!(pm > dm + 15.0, "direct {dm} vs transit {pm}");
    }
}
