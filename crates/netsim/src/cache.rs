//! Sharded memoization of full route plans.
//!
//! Campaigns measure the same `<probe, datacenter>` pair over and over —
//! the paper's repeated-measurement design (§3.3) makes the workload
//! cache-shaped — yet route construction re-runs the valley-free path
//! selection over the whole AS graph per task. [`RouteCache`] memoizes the
//! finished [`RoutePath`] as an `Arc`, behind N-way `std::sync::RwLock`
//! shards so every campaign thread shares one cache with little contention.
//! Poison is ignored: routes build outside the lock, so writes are whole entries.
//!
//! Determinism contract: a cached route must be *bit-identical* to the
//! route built from scratch. [`RouteKey`] therefore captures **every**
//! input `Simulator::route` reads (enforced by a proptest): the probe hash
//! (home/CGN router addressing), the exact location (client-side hop
//! geometry and router-IP salts), country and continent (wide-area
//! geometry), the serving ISP, whether the access is home Wi-Fi (home
//! router hop), the CGN artifact flag, and the destination region. Inputs
//! `route` does *not* read — VPN flag, public IP, the rest of the access
//! profile — are deliberately excluded, so probes differing only in those
//! share an entry. The cache may change *when* a route is computed, never
//! *what* it contains; the audit race check runs cached-vs-uncached legs
//! to hold that line.

use crate::client::ClientCtx;
use crate::path::RoutePath;
use crate::rng::mix;
use cloudy_cloud::RegionId;
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_topology::Asn;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// The exact routing inputs of `Simulator::route`, as a hashable key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteKey {
    probe_hash: u64,
    /// Exact (not grid-quantised) coordinates: client-side hops carry the
    /// probe's own location, and the router-IP salt derives from it.
    lat_bits: u64,
    lon_bits: u64,
    country: CountryCode,
    continent: Continent,
    isp: Asn,
    /// Home Wi-Fi access inserts the RFC1918 home-router hop.
    wifi_home: bool,
    /// CGN artifact inserts the 100.64/10 gateway hop.
    behind_cgn: bool,
    region: RegionId,
}

impl RouteKey {
    /// Project a client + destination onto the fields routing reads.
    pub fn new(client: &ClientCtx, region: RegionId) -> RouteKey {
        RouteKey {
            probe_hash: client.probe_hash,
            lat_bits: client.location.lat().to_bits(),
            lon_bits: client.location.lon().to_bits(),
            country: client.country,
            continent: client.continent,
            isp: client.isp,
            wifi_home: client.access.access == AccessType::WifiHome,
            behind_cgn: client.artifacts.behind_cgn,
            region,
        }
    }

    /// Deterministic shard index: probes and destinations spread the load.
    fn shard(&self, n_shards: usize) -> usize {
        let h = mix(&[
            self.probe_hash,
            self.lat_bits,
            self.lon_bits,
            u64::from(self.isp.0),
            u64::from(self.region.0),
        ]);
        (h % n_shards as u64) as usize
    }
}

/// Hit/miss/size counters, for reports and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Export these totals into an observability registry so cache
    /// behaviour lands in the same snapshot as executor and store metrics.
    ///
    /// Gauges (absolute-set) rather than counters on purpose: these are
    /// *lifetime* totals, and callers re-export after every slice or run —
    /// counter adds would double-count, gauge sets are idempotent.
    pub fn export_into(&self, obs: &cloudy_obs::Registry) {
        obs.gauge("route_cache.hits", self.hits as i64);
        obs.gauge("route_cache.misses", self.misses as i64);
        obs.gauge("route_cache.entries", self.entries as i64);
    }
}

/// Sharded, thread-shared route-plan cache handing out `Arc<RoutePath>`.
pub struct RouteCache {
    shards: Vec<RwLock<HashMap<RouteKey, Arc<RoutePath>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Default shard count: enough that 8–16 campaign threads rarely collide.
const DEFAULT_SHARDS: usize = 16;

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache::with_shards(DEFAULT_SHARDS)
    }
}

impl RouteCache {
    /// Create a cache with `n_shards` independent lock domains (min 1).
    pub fn with_shards(n_shards: usize) -> RouteCache {
        let n = n_shards.max(1);
        RouteCache {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fetch the route for `key`, building it with `build` on a miss.
    ///
    /// The build runs outside the shard's write lock; two threads racing on
    /// the same fresh key may both build, but determinism makes the values
    /// identical and the first insert wins, so callers always observe one
    /// canonical `Arc` lineage per key.
    pub fn get_or_insert_with(
        &self,
        key: RouteKey,
        build: impl FnOnce() -> RoutePath,
    ) -> Arc<RoutePath> {
        let shard = &self.shards[key.shard(self.shards.len())];
        if let Some(hit) = shard.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        shard.write().unwrap_or_else(PoisonError::into_inner).entry(key).or_insert(built).clone()
    }

    /// Total cached routes across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters keep running).
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Lifetime hit/miss counters plus the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_cloud::PeeringKind;
    use cloudy_geo::GeoPoint;
    use cloudy_lastmile::artifacts::ProbeArtifacts;
    use cloudy_lastmile::AccessProfile;
    use std::net::Ipv4Addr;

    fn client(hash: u64, access: AccessType, cgn: bool, vpn: bool) -> ClientCtx {
        ClientCtx {
            probe_hash: hash,
            location: GeoPoint::new(48.14, 11.58),
            country: CountryCode::new("DE"),
            continent: Continent::Europe,
            isp: Asn(3320),
            public_ip: Ipv4Addr::new(11, 0, 0, 5),
            access: AccessProfile::baseline(access),
            artifacts: ProbeArtifacts { behind_cgn: cgn, behind_vpn: vpn },
        }
    }

    fn path(km: f64) -> RoutePath {
        RoutePath {
            interconnect: PeeringKind::Direct,
            as_path: vec![Asn(3320), Asn(15169)],
            hops: Vec::new(),
            via_ixp: None,
            wide_area_km: km,
        }
    }

    #[test]
    fn key_ignores_inputs_route_never_reads() {
        let a = client(7, AccessType::Wired, false, false);
        let mut b = client(7, AccessType::Cellular, false, true);
        b.public_ip = Ipv4Addr::new(11, 9, 9, 9);
        // Wired vs cellular, VPN flag, public IP: none of them reach
        // route(); both probes must share a cache entry.
        assert_eq!(RouteKey::new(&a, RegionId(3)), RouteKey::new(&b, RegionId(3)));
        // Home Wi-Fi *is* read (home-router hop) and must split the key.
        let c = client(7, AccessType::WifiHome, false, false);
        assert_ne!(RouteKey::new(&a, RegionId(3)), RouteKey::new(&c, RegionId(3)));
        // So are the CGN flag and the region.
        let d = client(7, AccessType::Wired, true, false);
        assert_ne!(RouteKey::new(&a, RegionId(3)), RouteKey::new(&d, RegionId(3)));
        assert_ne!(RouteKey::new(&a, RegionId(3)), RouteKey::new(&a, RegionId(4)));
    }

    #[test]
    fn cache_builds_once_per_key_and_counts() {
        let cache = RouteCache::with_shards(4);
        let key = RouteKey::new(&client(1, AccessType::WifiHome, false, false), RegionId(0));
        let mut builds = 0;
        for _ in 0..5 {
            let p = cache.get_or_insert_with(key, || {
                builds += 1;
                path(100.0)
            });
            assert_eq!(p.wide_area_km, 100.0);
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (4, 1, 1));
        assert!(stats.hit_rate() > 0.79);
        // The obs bridge sets absolute gauges, so re-exporting the same
        // lifetime totals is idempotent.
        let obs = cloudy_obs::Registry::enabled();
        stats.export_into(&obs);
        stats.export_into(&obs);
        let snap = obs.snapshot().unwrap_or_default();
        assert_eq!(snap.gauge("route_cache.hits"), Some(4));
        assert_eq!(snap.gauge("route_cache.misses"), Some(1));
        assert_eq!(snap.gauge("route_cache.entries"), Some(1));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let cache = RouteCache::default();
        for r in 0..32u16 {
            let key =
                RouteKey::new(&client(9, AccessType::WifiHome, false, false), RegionId(r));
            cache.get_or_insert_with(key, || path(f64::from(r)));
        }
        assert_eq!(cache.len(), 32);
        let again = RouteKey::new(&client(9, AccessType::WifiHome, false, false), RegionId(5));
        assert_eq!(cache.get_or_insert_with(again, || path(999.0)).wide_area_km, 5.0);
    }
}
