//! End-to-end acceptance for the columnar store: a real campaign streamed
//! through a `TeeSink` into both a `Dataset` and a `cloudy-store` file must
//! agree record for record, the store-backed analysis must reproduce the
//! in-memory statistics exactly, and provider-filtered queries must skip
//! most chunks via footers alone.

use cloudy::analysis::{stats, Cdf};
use cloudy::cloud::Provider;
use cloudy::geo::CountryCode;
use cloudy::lastmile::ArtifactConfig;
use cloudy::measure::campaign::{run_campaign_into, CampaignConfig};
use cloudy::measure::plan::PlanConfig;
use cloudy::measure::{Dataset, TeeSink};
use cloudy::netsim::build::{build, WorldConfig};
use cloudy::netsim::Simulator;
use cloudy::probes::{speedchecker, Platform};
use cloudy::store::{ChunkRows, Query, Reader, RecordKind, ScanFilter, Writer, WriterOptions};
use std::collections::BTreeMap;

/// One small real campaign, teed into a Dataset and a store file.
fn campaign_with_store(chunk_rows: usize) -> (Dataset, Reader) {
    let world = build(&WorldConfig {
        seed: 13,
        isps_per_country: 2,
        countries: Some(["DE", "JP", "BR", "KE"].iter().map(|c| CountryCode::new(c)).collect()),
    });
    let pop = speedchecker::population(&world, 0.02, 13);
    let sim = Simulator::new(world.net);
    let cfg = CampaignConfig {
        plan: PlanConfig { seed: 13, duration_days: 2, ..PlanConfig::default() },
        artifacts: ArtifactConfig::realistic(),
        threads: 4,
        route_cache: true,
        faults: cloudy::netsim::FaultProfile::none(),
        ..CampaignConfig::default()
    };
    let mut ds = Dataset::new(Platform::Speedchecker);
    let mut writer = Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows })
        .expect("valid writer options");
    let mut tee = TeeSink::new(&mut ds, &mut writer);
    run_campaign_into(&cfg, &sim, &pop, &mut tee).expect("sinks are infallible");
    let (bytes, _) = writer.finish().expect("finish succeeds");
    let reader = Reader::from_bytes(bytes).expect("store parses");
    (ds, reader)
}

#[test]
fn teed_store_holds_every_campaign_record() {
    let (ds, reader) = campaign_with_store(64);
    assert!(!ds.pings.is_empty() && !ds.traces.is_empty(), "campaign too small");
    let mut from_store = Dataset::new(reader.platform());
    reader
        .for_each(&ScanFilter::default(), |chunk| match chunk {
            ChunkRows::Pings(p) => from_store.pings.extend(p.iter().cloned()),
            ChunkRows::Traces(t) => from_store.traces.extend(t.iter().cloned()),
            ChunkRows::CloudPings(_) => {}
        })
        .expect("store decodes");
    assert_eq!(from_store.platform, ds.platform);
    assert_eq!(from_store.pings.len(), ds.pings.len());
    assert_eq!(from_store.traces.len(), ds.traces.len());
    // Scan order groups records by (kind, provider) partition; within a
    // partition arrival order is preserved. Compare per provider.
    for provider in Provider::ALL {
        let a: Vec<_> = ds.pings.iter().filter(|p| p.provider == provider).collect();
        let b: Vec<_> = from_store.pings.iter().filter(|p| p.provider == provider).collect();
        assert_eq!(a, b, "{provider:?} ping partition differs");
        let a: Vec<_> = ds.traces.iter().filter(|t| t.provider == provider).collect();
        let b: Vec<_> = from_store.traces.iter().filter(|t| t.provider == provider).collect();
        assert_eq!(a, b, "{provider:?} trace partition differs");
    }
}

#[test]
fn store_backed_medians_match_in_memory_exactly() {
    let (ds, reader) = campaign_with_store(64);
    // In-memory per-(country, region) ping medians.
    let mut groups: BTreeMap<_, Vec<f64>> = BTreeMap::new();
    for p in &ds.pings {
        if let Some(rtt) = p.rtt_ms() {
            groups.entry((p.country, p.region)).or_default().push(rtt);
        }
    }
    let in_memory: BTreeMap<_, f64> =
        groups.into_iter().map(|(k, v)| (k, Cdf::new(v).median())).collect();

    let query = Query::rtts().kind(RecordKind::Ping);
    let from_store =
        stats::country_region_medians_from_store(&reader, &query).expect("store scan succeeds");
    // Bit-for-bit equality: both paths sort the same multiset of f64s.
    assert_eq!(in_memory, from_store);
}

#[test]
fn provider_query_prunes_at_least_half_the_chunks() {
    let (ds, reader) = campaign_with_store(32);
    let provider = ds.pings.first().expect("has pings").provider;
    let (rows, stats) =
        Query::rtts().provider(provider).threads(4).rows(&reader).expect("query succeeds");
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.provider == provider));
    assert!(
        stats.chunks_pruned * 2 >= stats.chunks_total,
        "expected at least half of the chunks pruned by footers: {stats:?}"
    );
    // Pushdown decodes exactly the provider's chunks and nothing else.
    let kept: Vec<_> = reader.chunks().iter().filter(|c| c.footer.provider == provider).collect();
    let total_rows: u64 = reader.chunks().iter().map(|c| c.footer.rows).sum();
    assert_eq!(stats.chunks_scanned, kept.len(), "{stats:?}");
    assert_eq!(stats.rows_decoded, kept.iter().map(|c| c.footer.rows).sum::<u64>(), "{stats:?}");
    assert!(stats.rows_decoded < total_rows, "{stats:?} of {total_rows} rows");
    assert_eq!(stats.rows_matched, rows.len() as u64, "{stats:?}");
    // Footer pruning must not change results: the same scan without
    // pruning-relevant metadata (a full scan + row filter) agrees.
    let mut full = Vec::new();
    Query::rtts()
        .stream(&reader, |r| {
            if r.provider == provider {
                full.push(r.to_rtt_row());
            }
        })
        .expect("full scan succeeds");
    assert_eq!(rows, full);
}

/// Golden pin: the seed-13 campaign's per-(country, region) ping medians
/// through the Query path, down to the exact f64 bits. Any change to the
/// store codec, the pushdown planner, the scan order, or the quantile
/// math that perturbs analysis results shows up here as a bit flip.
#[test]
fn golden_store_backed_medians_are_pinned() {
    let (_, reader) = campaign_with_store(64);
    let query = Query::rtts().kind(RecordKind::Ping);
    let medians =
        stats::country_region_medians_from_store(&reader, &query).expect("store scan succeeds");
    assert_eq!(medians.len(), 118, "group count drifted");
    let golden: [(&str, u16, u64); 3] = [
        ("DE", 0, 0x403d_9ebc_238b_5e16),  // 29.620058270955347 ms
        ("JP", 13, 0x403a_0591_ed1e_64e8), // 26.021757907791567 ms
        ("BR", 9, 0x4067_3a90_5041_79c2),  // 185.83011639393050 ms
    ];
    for (cc, region, bits) in golden {
        let key = (CountryCode::new(cc), cloudy::cloud::RegionId(region));
        let got = medians.get(&key).unwrap_or_else(|| panic!("missing group {cc}/{region}"));
        assert_eq!(got.to_bits(), bits, "median for {cc}/{region} drifted: {got}");
    }
}
