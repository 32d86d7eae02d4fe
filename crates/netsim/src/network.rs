//! The assembled world: AS graph, prefix plan, IXPs, PoPs, endpoints.
//!
//! The world *builder* (in `cloudy-core`) decides structure — which ASes
//! exist, who peers with whom, where IXPs are. [`Network::assemble`] then
//! owns all *addressing*: every AS gets prefixes from one deterministic
//! allocator, every region gets a VM address inside its provider's prefix,
//! every IXP gets a fabric prefix. Centralising addressing here is what
//! guarantees the analysis side's longest-prefix matching can never collide.

use crate::rng::mix;
use cloudy_cloud::{CloudRegion, InterconnectPolicy, PopSet, Provider, RegionId};
use cloudy_topology::{
    routing, AsGraph, AsPath, Asn, IpPrefix, Ixp, IxpId, PrefixTable,
};
use cloudy_topology::ixp::IxpDirectory;
use cloudy_topology::prefix::PrefixAllocator;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, PoisonError, RwLock};

/// A cloud region with its measurement endpoint address.
#[derive(Debug, Clone)]
pub struct RegionEndpoint {
    pub id: RegionId,
    pub region: &'static CloudRegion,
    /// The public VM used as ping/traceroute target (the paper pulls these
    /// from CloudHarmony).
    pub vm_ip: Ipv4Addr,
}

/// Specification of one IXP for assembly.
#[derive(Debug, Clone)]
pub struct IxpSpec {
    pub name: String,
    pub city: &'static str,
    pub members: Vec<Asn>,
}

/// The fully-addressed world.
pub struct Network {
    pub seed: u64,
    pub graph: AsGraph,
    /// Announced (public) prefixes — the PyASN RIB analog.
    pub prefixes: PrefixTable,
    /// Per-AS prefix list for generating router/host addresses.
    pub as_prefixes: HashMap<Asn, Vec<IpPrefix>>,
    pub ixps: IxpDirectory,
    /// For (ISP, cloud-AS) peer edges established over a public exchange:
    /// which fabric the traffic crosses.
    pub fabric_links: HashMap<(Asn, Asn), IxpId>,
    pub pops: HashMap<Provider, PopSet>,
    /// Indexed by `RegionId`.
    pub regions: Vec<RegionEndpoint>,
    pub policy: InterconnectPolicy,
    /// The [`Network::as_path`] memo; writes are whole entries, so poison is ignored.
    path_cache: RwLock<PathCache>,
}

/// Memoized AS-path lookups keyed by (src, dst).
type PathCache = HashMap<(Asn, Asn), Option<Arc<AsPath>>>;

impl Network {
    /// Assemble a world from a structured graph. See module docs.
    ///
    /// `fabric_choices` maps (ISP, provider ASN) pairs that peer over a
    /// public exchange to an index into `ixp_specs`.
    pub fn assemble(
        seed: u64,
        graph: AsGraph,
        ixp_specs: Vec<IxpSpec>,
        fabric_choices: HashMap<(Asn, Asn), usize>,
        policy: InterconnectPolicy,
    ) -> Network {
        let mut alloc = PrefixAllocator::new();
        let mut prefixes = PrefixTable::new();
        let mut as_prefixes: HashMap<Asn, Vec<IpPrefix>> = HashMap::new();

        // Deterministic order: sort ASes by number.
        let mut asns: Vec<Asn> = graph.ases().map(|i| i.asn).collect();
        asns.sort();
        for asn in &asns {
            let kind = graph.info(*asn).expect("registered").kind; // audit:allow(expect)
            let lens: &[u8] = match kind {
                cloudy_topology::AsKind::Cloud => &[14, 16],
                cloudy_topology::AsKind::Tier1 => &[15, 16],
                _ => &[16],
            };
            let mut list = Vec::new();
            for &len in lens {
                let p = alloc.alloc(len);
                prefixes.announce(p, *asn);
                list.push(p);
            }
            as_prefixes.insert(*asn, list);
        }

        // IXPs: fabric prefixes are *not* announced (they have no origin AS;
        // the analysis must tag them via the IXP directory, as the paper
        // does with the CAIDA dataset).
        let mut ixps = IxpDirectory::new();
        for (i, spec) in ixp_specs.iter().enumerate() {
            let fabric = alloc.alloc(16);
            let (_, c) = cloudy_geo::city::by_name(spec.city)
                .unwrap_or_else(|| panic!("IXP {} in unknown city {}", spec.name, spec.city)); // audit:allow(panic)
            let mut ixp = Ixp::new(IxpId(i as u32), spec.name.clone(), c.location(), fabric);
            for m in &spec.members {
                ixp.add_member(*m);
            }
            ixps.add(ixp);
        }
        let fabric_links = fabric_choices
            .into_iter()
            .map(|(k, ix)| (k, IxpId(ix as u32)))
            .collect();

        // Region endpoints: VM addresses inside the provider's first prefix.
        let mut regions = Vec::new();
        for (id, region) in cloudy_cloud::region::all() {
            let pasn = region.provider.asn();
            let plist = as_prefixes
                .get(&pasn)
                .unwrap_or_else(|| panic!("provider AS {pasn} not in graph")); // audit:allow(panic)
            let vm_ip = plist[0].host(mix(&[seed, 0xD0C5, id.0 as u64, 77]));
            regions.push(RegionEndpoint { id, region, vm_ip });
        }

        let pops = Provider::ALL
            .iter()
            .map(|&p| (p, PopSet::for_provider(p)))
            .collect();

        Network {
            seed,
            graph,
            prefixes,
            as_prefixes,
            ixps,
            fabric_links,
            pops,
            regions,
            policy,
            path_cache: RwLock::new(HashMap::new()),
        }
    }

    /// Region endpoint by id.
    pub fn region(&self, id: RegionId) -> &RegionEndpoint {
        &self.regions[id.0 as usize]
    }

    /// A deterministic router address inside `asn`'s space; `salt`
    /// distinguishes routers.
    pub fn router_ip(&self, asn: Asn, salt: u64) -> Ipv4Addr {
        let list = &self.as_prefixes[&asn];
        let h = mix(&[self.seed, asn.0 as u64, salt]);
        let p = list[(h % list.len() as u64) as usize];
        p.host(mix(&[h, 0xBEEF]))
    }

    /// A deterministic fabric address at an IXP.
    pub fn fabric_ip(&self, ixp: IxpId, salt: u64) -> Ipv4Addr {
        let f = self.ixps.get(ixp).expect("known IXP").fabric; // audit:allow(expect)
        f.host(mix(&[self.seed, 0x1217, ixp.0 as u64, salt]))
    }

    /// Cached BGP route from an ISP to a provider's network.
    pub fn as_path(&self, isp: Asn, provider: Provider) -> Option<Arc<AsPath>> {
        let key = (isp, provider.asn());
        let memo = &self.path_cache;
        if let Some(hit) = memo.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return hit.clone();
        }
        let computed = routing::select_route(&self.graph, isp, provider.asn()).map(Arc::new);
        memo.write().unwrap_or_else(PoisonError::into_inner).insert(key, computed.clone());
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, WorldConfig};
    use cloudy_geo::CountryCode;

    fn tiny(seed: u64) -> Network {
        build(&WorldConfig {
            seed,
            isps_per_country: 2,
            countries: Some(vec![CountryCode::new("DE"), CountryCode::new("JP")]),
        })
        .net
    }

    const TEST_ISP_DE: Asn = cloudy_topology::known::DTAG;

    #[test]
    fn assemble_produces_consistent_addressing() {
        let net = tiny(7);
        // Every AS prefix resolves back to its AS.
        for (asn, list) in &net.as_prefixes {
            for p in list {
                assert_eq!(net.prefixes.lookup(p.network()), Some(*asn));
                assert_eq!(net.prefixes.lookup(p.host(12345)), Some(*asn));
            }
        }
    }

    #[test]
    fn router_ips_resolve_to_owner() {
        let net = tiny(7);
        for info in net.graph.ases() {
            for salt in 0..5 {
                let ip = net.router_ip(info.asn, salt);
                assert_eq!(net.prefixes.lookup(ip), Some(info.asn), "{}", info.asn);
            }
        }
    }

    #[test]
    fn fabric_ips_do_not_resolve() {
        let net = tiny(7);
        for ixp in net.ixps.iter() {
            let ip = net.fabric_ip(ixp.id, 3);
            assert_eq!(net.prefixes.lookup(ip), None, "fabric should be unannounced");
            assert_eq!(net.ixps.tag(ip), Some(ixp.id));
        }
    }

    #[test]
    fn all_195_regions_have_endpoints() {
        let net = tiny(7);
        assert_eq!(net.regions.len(), 195);
        for ep in &net.regions {
            assert_eq!(
                net.prefixes.lookup(ep.vm_ip),
                Some(ep.region.provider.asn()),
                "{}",
                ep.region.name
            );
        }
    }

    #[test]
    fn as_path_cache_consistent() {
        let net = tiny(7);
        let isp = TEST_ISP_DE;
        let p1 = net.as_path(isp, Provider::Google).expect("route exists");
        let p2 = net.as_path(isp, Provider::Google).expect("route exists");
        assert_eq!(p1.path, p2.path);
        assert_eq!(*p1.path.first().unwrap(), isp);
        assert_eq!(*p1.path.last().unwrap(), Provider::Google.asn());
    }

    #[test]
    fn assembly_is_deterministic() {
        let a = tiny(7);
        let b = tiny(7);
        assert_eq!(a.regions[0].vm_ip, b.regions[0].vm_ip);
        assert_eq!(
            a.router_ip(TEST_ISP_DE, 1),
            b.router_ip(TEST_ISP_DE, 1)
        );
    }
}
