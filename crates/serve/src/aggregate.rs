//! Live incremental aggregates over the service's record stream.
//!
//! Every record streamed out of a campaign slice updates one-pass
//! per-(country, provider) summaries — Welford moments plus P² sketches
//! for the median and tail — so the service can answer "what does DE →
//! Google latency look like *right now*" at any virtual timestamp without
//! rescanning the store. Groups live in a `BTreeMap`, so iteration (and
//! every snapshot built from it) is deterministically ordered.

use crate::report::{AggregateSnapshot, GroupSummary};
use cloudy_cloud::Provider;
use cloudy_geo::CountryCode;
use cloudy_measure::{PingRecord, TracerouteRecord};
use cloudy_store::agg::{Moments, P2Quantile};
use cloudy_store::{Agg, GroupId, GroupKey, Query, Reader, StoreError};
use std::collections::BTreeMap;

/// One group's running state: count/mean/variance plus p50 and p95
/// sketches, all one-pass.
#[derive(Debug, Clone)]
pub struct GroupStat {
    pub moments: Moments,
    pub p50: P2Quantile,
    pub p95: P2Quantile,
}

impl GroupStat {
    fn new() -> Self {
        GroupStat { moments: Moments::default(), p50: P2Quantile::new(0.5), p95: P2Quantile::new(0.95) }
    }

    fn observe(&mut self, rtt_ms: f64) {
        self.moments.observe(rtt_ms);
        self.p50.observe(rtt_ms);
        self.p95.observe(rtt_ms);
    }
}

/// The service-wide live aggregate table.
#[derive(Debug, Clone, Default)]
pub struct LiveAggregates {
    groups: BTreeMap<(CountryCode, Provider), GroupStat>,
    records: u64,
}

impl LiveAggregates {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records observed so far (with or without an RTT).
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn observe_ping(&mut self, r: &PingRecord) {
        self.records += 1;
        if let Some(rtt) = r.outcome.rtt_ms() {
            self.groups.entry((r.country, r.provider)).or_insert_with(GroupStat::new).observe(rtt);
        }
    }

    pub fn observe_trace(&mut self, r: &TracerouteRecord) {
        self.records += 1;
        if let Some(rtt) = r.end_to_end_ms() {
            self.groups.entry((r.country, r.provider)).or_insert_with(GroupStat::new).observe(rtt);
        }
    }

    /// Snapshot the table at virtual time `virt_ms`: the top `k` groups by
    /// sample count (ties broken by key, so the selection is total-ordered
    /// and deterministic), or every group if `k` is 0.
    pub fn snapshot(&self, virt_ms: u64, k: usize) -> AggregateSnapshot {
        let mut groups: Vec<(&(CountryCode, Provider), &GroupStat)> = self.groups.iter().collect();
        groups.sort_by(|a, b| b.1.moments.count().cmp(&a.1.moments.count()).then(a.0.cmp(b.0)));
        if k > 0 {
            groups.truncate(k);
        }
        AggregateSnapshot {
            virt_ms,
            records: self.records,
            groups: groups
                .into_iter()
                .map(|((country, provider), stat)| GroupSummary {
                    country: country.as_str().to_string(),
                    provider: provider.name().to_string(),
                    samples: stat.moments.count(),
                    mean_ms: stat.moments.mean(),
                    p50_ms: stat.p50.estimate().unwrap_or(0.0),
                    p95_ms: stat.p95.estimate().unwrap_or(0.0),
                })
                .collect(),
        }
    }
}

/// Rebuild an [`AggregateSnapshot`] from a finished store file — the batch
/// path behind the live table. One pushdown group-by query
/// (`GroupKey::CountryProvider`, Welford + P²) folds every RTT row into
/// per-group accumulators inside the scan; no record or row vector is
/// materialized. `records` counts every stored record (with or without an
/// RTT), mirroring [`LiveAggregates::records`].
///
/// Group counts and means match the live table exactly; the P² p50/p95
/// estimates can differ slightly because the store scan observes rows in
/// (kind, provider) partition order while the live table saw arrival
/// order, and P² is order-sensitive.
pub fn snapshot_from_store(
    reader: &Reader,
    virt_ms: u64,
    k: usize,
    threads: usize,
) -> Result<AggregateSnapshot, StoreError> {
    let q = Query::rtts()
        .group_by(GroupKey::CountryProvider)
        .aggregate(Agg::Moments | Agg::P2Quantiles)
        .threads(threads);
    let (table, _) = q.grouped(reader)?;
    let records: u64 = reader.chunks().iter().map(|m| m.footer.rows).sum();
    let mut groups: Vec<(CountryCode, Provider, cloudy_store::GroupRow)> = table
        .into_iter()
        .filter_map(|(id, row)| match id {
            GroupId::CountryProvider(c, p) => Some((c, p, row)),
            _ => None,
        })
        .collect();
    groups.sort_by(|a, b| b.2.count.cmp(&a.2.count).then((a.0, a.1).cmp(&(b.0, b.1))));
    if k > 0 {
        groups.truncate(k);
    }
    Ok(AggregateSnapshot {
        virt_ms,
        records,
        groups: groups
            .into_iter()
            .map(|(country, provider, row)| GroupSummary {
                country: country.as_str().to_string(),
                provider: provider.name().to_string(),
                samples: row.count,
                mean_ms: row.moments.map(|m| m.mean()).unwrap_or(0.0),
                p50_ms: row.p50.unwrap_or(0.0),
                p95_ms: row.p95.unwrap_or(0.0),
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_lastmile::AccessType;
    use cloudy_measure::TaskOutcome;
    use cloudy_netsim::Protocol;
    use cloudy_probes::{Platform, ProbeId};
    use cloudy_topology::Asn;

    fn ping(cc: &str, provider: Provider, rtt: Option<f64>) -> PingRecord {
        PingRecord {
            probe: ProbeId(1),
            platform: Platform::Speedchecker,
            country: CountryCode::new(cc),
            continent: cloudy_geo::Continent::Europe,
            city: "x".into(),
            isp: Asn(64500),
            access: AccessType::WifiHome,
            region: cloudy_cloud::RegionId(0),
            provider,
            proto: Protocol::Tcp,
            outcome: match rtt {
                Some(ms) => TaskOutcome::Ok(ms),
                None => TaskOutcome::Lost,
            },
            hour: 0,
        }
    }

    #[test]
    fn failed_records_count_but_never_aggregate() {
        let mut agg = LiveAggregates::new();
        agg.observe_ping(&ping("DE", Provider::Google, Some(20.0)));
        agg.observe_ping(&ping("DE", Provider::Google, None));
        let snap = agg.snapshot(1000, 0);
        assert_eq!(snap.records, 2);
        assert_eq!(snap.groups.len(), 1);
        assert_eq!(snap.groups[0].samples, 1, "lost ping must not aggregate");
    }

    #[test]
    fn store_rebuild_matches_live_counts_and_means() {
        let mut agg = LiveAggregates::new();
        let mut w = cloudy_store::Writer::new(
            Vec::new(),
            Platform::Speedchecker,
            cloudy_store::WriterOptions { chunk_rows: 16 },
        )
        .unwrap();
        for i in 0..100u64 {
            let cc = ["DE", "JP", "BR"][(i % 3) as usize];
            let provider = Provider::ALL[(i % 4) as usize];
            let rtt = (i % 7 != 0).then_some(10.0 + (i % 50) as f64);
            let r = ping(cc, provider, rtt);
            agg.observe_ping(&r);
            w.push_ping(r).unwrap();
        }
        let (bytes, _) = w.finish().unwrap();
        let reader = Reader::from_bytes(bytes).unwrap();
        let live = agg.snapshot(42, 0);
        for threads in [1, 4] {
            let batch = snapshot_from_store(&reader, 42, 0, threads).unwrap();
            assert_eq!(batch.virt_ms, live.virt_ms);
            assert_eq!(batch.records, live.records);
            assert_eq!(batch.groups.len(), live.groups.len());
            for (b, l) in batch.groups.iter().zip(&live.groups) {
                assert_eq!((b.country.as_str(), b.provider.as_str()), (l.country.as_str(), l.provider.as_str()));
                assert_eq!(b.samples, l.samples);
                // Welford means agree to fp noise; P² is order-sensitive,
                // so p50/p95 are close but not compared exactly.
                assert!((b.mean_ms - l.mean_ms).abs() < 1e-9, "{} vs {}", b.mean_ms, l.mean_ms);
            }
        }
    }

    #[test]
    fn snapshot_topk_is_deterministic() {
        let mut agg = LiveAggregates::new();
        for i in 0..10 {
            agg.observe_ping(&ping("DE", Provider::Google, Some(10.0 + i as f64)));
            agg.observe_ping(&ping("JP", Provider::AmazonEc2, Some(50.0 + i as f64)));
        }
        agg.observe_ping(&ping("BR", Provider::Microsoft, Some(80.0)));
        let snap = agg.snapshot(0, 2);
        // Equal counts: ties broken by (country, provider) key order.
        assert_eq!(snap.groups.len(), 2);
        assert_eq!(snap.groups[0].country, "DE");
        assert_eq!(snap.groups[1].country, "JP");
        assert_eq!(snap.groups[0].samples, 10);
    }
}
