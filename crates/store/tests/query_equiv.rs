//! Property tests for the pushdown query engine: for arbitrary record
//! batches and arbitrary predicates, a pruned pushdown `Query` must return
//! exactly what a full decode of every record plus a hand-written row
//! filter returns, and pushed-down group-by aggregation must equal, bit
//! for bit and at every thread count, the public accumulators fed the
//! same rows in scan order (the P² sketch is order-sensitive, so this
//! proves the parallel fold preserves each group's serial observation
//! order).

use cloudy_cloud::{Provider, RegionId};
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_measure::{outcome_for_hops, HopRecord, PingRecord, TaskOutcome, TracerouteRecord};
use cloudy_netsim::Protocol;
use cloudy_probes::{Platform, ProbeId};
use cloudy_store::{
    Agg, ChunkRows, GroupId, GroupKey, GroupRow, Moments, P2Quantile, Query, Reader, RecordKind,
    RttRow, ScanFilter, Writer, WriterOptions,
};
use cloudy_topology::Asn;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

const PLACES: [(&str, Continent); 5] = [
    ("DE", Continent::Europe),
    ("JP", Continent::Asia),
    ("BR", Continent::SouthAmerica),
    ("KE", Continent::Africa),
    ("US", Continent::NorthAmerica),
];

/// A small ASN pool so ISP predicates actually hit rows (and still miss
/// whole chunks often enough to exercise the dictionary prune).
const ASNS: [u32; 4] = [64500, 64501, 64502, 64503];

fn arb_rtt() -> impl Strategy<Value = f64> {
    (0u8..2, 0.001f64..5_000.0).prop_map(|(quantized, v)| {
        if quantized == 1 {
            (v * 1000.0).round() / 1000.0
        } else {
            v
        }
    })
}

fn arb_ping() -> impl Strategy<Value = PingRecord> {
    (
        any::<u64>(),
        prop::sample::select(PLACES.to_vec()),
        0usize..Provider::ALL.len(),
        0usize..ASNS.len(),
        0u16..40,
        arb_rtt(),
        0u64..96,
        0u8..8,
    )
        .prop_map(|(probe, (cc, continent), prov, isp, region, rtt_ms, hour, out)| PingRecord {
            probe: ProbeId(probe),
            platform: Platform::Speedchecker,
            country: CountryCode::new(cc),
            continent,
            city: "c".into(),
            isp: Asn(ASNS[isp]),
            access: AccessType::ALL[isp % 4],
            region: RegionId(region),
            provider: Provider::ALL[prov],
            proto: if probe % 2 == 0 { Protocol::Tcp } else { Protocol::Icmp },
            outcome: match out {
                0 => TaskOutcome::Lost,
                1 => TaskOutcome::Timeout(rtt_ms),
                2 => TaskOutcome::ProbeOffline,
                _ => TaskOutcome::Ok(rtt_ms),
            },
            hour,
        })
}

fn arb_trace() -> impl Strategy<Value = TracerouteRecord> {
    (
        any::<u64>(),
        prop::sample::select(PLACES.to_vec()),
        0usize..Provider::ALL.len(),
        0usize..ASNS.len(),
        0u16..40,
        any::<u32>(),
        prop::collection::vec(prop::option::of((any::<u32>(), arb_rtt())), 0..8),
        0u64..96,
        0u8..8,
    )
        .prop_map(|(probe, (cc, continent), prov, isp, region, src, hops, hour, out)| {
            let hops: Vec<HopRecord> = hops
                .into_iter()
                .enumerate()
                .map(|(i, h)| HopRecord {
                    ttl: (i + 1) as u8,
                    ip: h.map(|(ip, _)| Ipv4Addr::from(ip)),
                    rtt_ms: h.map(|(_, r)| r),
                })
                .collect();
            let outcome = match out {
                0 => TaskOutcome::Lost,
                1 => TaskOutcome::Timeout(1.5),
                _ => outcome_for_hops(&hops),
            };
            TracerouteRecord {
                probe: ProbeId(probe),
                platform: Platform::Speedchecker,
                country: CountryCode::new(cc),
                continent,
                city: "c".into(),
                isp: Asn(ASNS[isp]),
                access: AccessType::ALL[isp % 4],
                region: RegionId(region),
                provider: Provider::ALL[prov],
                proto: if probe % 2 == 0 { Protocol::Tcp } else { Protocol::Icmp },
                src_ip: Ipv4Addr::from(src),
                hops,
                outcome,
                hour,
            }
        })
}

fn store_of(pings: &[PingRecord], traces: &[TracerouteRecord], chunk_rows: usize) -> Reader {
    let mut w =
        Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows }).unwrap();
    let mut ps = pings.iter();
    let mut ts = traces.iter();
    loop {
        match (ps.next(), ts.next()) {
            (None, None) => break,
            (p, t) => {
                if let Some(p) = p {
                    w.push_ping(p.clone()).unwrap();
                }
                if let Some(t) = t {
                    w.push_trace(t.clone()).unwrap();
                }
            }
        }
    }
    Reader::from_bytes(w.finish().unwrap().0).unwrap()
}

/// Ground truth built without the query engine: decode *full records*
/// through the legacy chunk decoder and project/filter by hand.
fn truth_rows(reader: &Reader) -> Vec<(RttRow, Asn)> {
    let mut rows = Vec::new();
    reader
        .for_each(&ScanFilter::default(), |chunk| match chunk {
            ChunkRows::Pings(pings) => {
                for p in pings {
                    if let Some(rtt_ms) = p.rtt_ms() {
                        rows.push((
                            RttRow {
                                kind: RecordKind::Ping,
                                provider: p.provider,
                                country: p.country,
                                region: p.region,
                                hour: p.hour,
                                rtt_ms,
                            },
                            p.isp,
                        ));
                    }
                }
            }
            ChunkRows::Traces(traces) => {
                for t in traces {
                    // The RTT projection only carries delivered traces
                    // whose last hop responded.
                    if !t.outcome.is_ok() {
                        continue;
                    }
                    if let Some(rtt_ms) = t.end_to_end_ms() {
                        rows.push((
                            RttRow {
                                kind: RecordKind::Trace,
                                provider: t.provider,
                                country: t.country,
                                region: t.region,
                                hour: t.hour,
                                rtt_ms,
                            },
                            t.isp,
                        ));
                    }
                }
            }
            // The fixture stores here are user-plane only; the cloud
            // kernel has its own equivalence coverage in chunk tests.
            ChunkRows::CloudPings(_) => {}
        })
        .unwrap();
    rows
}

/// Render rows losslessly (f64 as raw bits) so equality means bit equality.
fn render(rows: &[RttRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "{:?}|{:?}|{}|{}|{}|{:016x}",
                r.kind,
                r.provider,
                r.country.as_str(),
                r.region.0,
                r.hour,
                r.rtt_ms.to_bits()
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Footer + dictionary pushdown returns exactly the rows a full decode
    /// plus a hand-rolled filter returns, at one thread and eight.
    #[test]
    fn pushdown_equals_decode_then_filter(
        pings in prop::collection::vec(arb_ping(), 1..80),
        traces in prop::collection::vec(arb_trace(), 0..40),
        chunk_rows in 1usize..12,
        prov in prop::option::of(0usize..Provider::ALL.len()),
        place in prop::option::of(0usize..PLACES.len()),
        isp in prop::option::of(0usize..ASNS.len()),
        kind_sel in 0u8..3,
        rtt_lo in prop::option::of(0.0f64..2_000.0),
        hour_win in prop::option::of(0u64..90),
    ) {
        let reader = store_of(&pings, &traces, chunk_rows);
        let provider = prov.map(|i| Provider::ALL[i]);
        let country = place.map(|i| CountryCode::new(PLACES[i].0));
        let asn = isp.map(|i| Asn(ASNS[i]));

        let mut query = Query::rtts();
        if let Some(p) = provider { query = query.provider(p); }
        if let Some(c) = country { query = query.country(c); }
        if let Some(a) = asn { query = query.isp(a); }
        match kind_sel {
            0 => query = query.kind(RecordKind::Ping),
            1 => query = query.kind(RecordKind::Trace),
            _ => {}
        }
        if let Some(lo) = rtt_lo {
            query = query.min_rtt_ms(lo).max_rtt_ms(lo + 1_500.0);
        }
        if let Some(lo) = hour_win {
            query = query.hours(lo, lo + 12);
        }

        let expected: Vec<RttRow> = truth_rows(&reader)
            .into_iter()
            .filter(|(r, row_isp)| {
                provider.is_none_or(|p| r.provider == p)
                    && country.is_none_or(|c| r.country == c)
                    && asn.is_none_or(|a| *row_isp == a)
                    && match kind_sel {
                        0 => r.kind == RecordKind::Ping,
                        1 => r.kind == RecordKind::Trace,
                        _ => true,
                    }
                    && rtt_lo.is_none_or(|lo| r.rtt_ms >= lo && r.rtt_ms <= lo + 1_500.0)
                    && hour_win.is_none_or(|lo| r.hour >= lo && r.hour <= lo + 12)
            })
            .map(|(r, _)| r)
            .collect();

        for threads in [1usize, 8] {
            let (rows, stats) = query.clone().threads(threads).rows(&reader).unwrap();
            prop_assert_eq!(render(&rows), render(&expected), "threads={}", threads);
            prop_assert_eq!(stats.rows_matched as usize, expected.len());
            prop_assert_eq!(stats.chunks_scanned + stats.chunks_pruned, stats.chunks_total);
            // Dictionary pruning counts skipped chunks as pruned, never
            // as decoded rows.
            prop_assert!(stats.rows_decoded >= stats.rows_matched);
        }
    }

    /// Pushed-down group-by aggregation, for every user-plane key, at 1, 2
    /// and 8 threads: each group's count, mean, variance, P² p50 and p95
    /// equal, bit for bit, the public accumulators fed the full-decode
    /// truth rows in scan order, and its exact-quantile values are those
    /// rows' values in the same order. A `summary()` leg with a country or
    /// ISP filter is held to the same oracle.
    #[test]
    fn grouped_aggregates_are_thread_invariant_and_correct(
        pings in prop::collection::vec(arb_ping(), 1..120),
        traces in prop::collection::vec(arb_trace(), 0..40),
        chunk_rows in 1usize..12,
        key in prop::sample::select(vec![
            GroupKey::Country,
            GroupKey::Provider,
            GroupKey::Region,
            GroupKey::Isp,
            GroupKey::CountryProvider,
            GroupKey::CountryRegion,
        ]),
        place in 0usize..PLACES.len(),
        isp in prop::option::of(0usize..ASNS.len()),
    ) {
        let reader = store_of(&pings, &traces, chunk_rows);
        let agg = Agg::Moments | Agg::P2Quantiles | Agg::ExactQuantiles;
        let truth = truth_rows(&reader);

        // The oracle: the public accumulators, fed in scan order.
        let mut groups: BTreeMap<GroupId, Oracle> = BTreeMap::new();
        for (r, row_isp) in &truth {
            let id = match key {
                GroupKey::Country => GroupId::Country(r.country),
                GroupKey::Provider => GroupId::Provider(r.provider),
                GroupKey::Region => GroupId::Region(r.region),
                GroupKey::Isp => GroupId::Isp(*row_isp),
                GroupKey::CountryProvider => GroupId::CountryProvider(r.country, r.provider),
                _ => GroupId::CountryRegion(r.country, r.region),
            };
            groups.entry(id).or_default().observe(r.rtt_ms);
        }
        let want: Vec<(GroupId, String)> =
            groups.into_iter().map(|(id, acc)| (id, acc.render())).collect();

        // The summary leg: one ISP when drawn, else one country.
        let country = CountryCode::new(PLACES[place].0);
        let summary_query = match isp {
            Some(i) => Query::rtts().isp(Asn(ASNS[i])),
            None => Query::rtts().country(country),
        }
        .aggregate(agg);
        let mut summary = Oracle::default();
        for (r, row_isp) in &truth {
            if isp.map_or(r.country == country, |i| row_isp.0 == ASNS[i]) {
                summary.observe(r.rtt_ms);
            }
        }

        for threads in [1usize, 2, 8] {
            let query = Query::rtts().group_by(key).aggregate(agg).threads(threads);
            let (table, stats) = query.grouped(&reader).unwrap();
            let got: Vec<(GroupId, String)> =
                table.iter().map(|(id, row)| (*id, render_row(row))).collect();
            prop_assert_eq!(&got, &want, "{:?} at {} threads", key, threads);
            prop_assert_eq!(stats.rows_matched as usize, truth.len());

            let (row, _) = summary_query.clone().threads(threads).summary(&reader).unwrap();
            prop_assert_eq!(render_row(&row), summary.render(), "summary at {} threads", threads);
        }
    }
}

/// The scan-order oracle for one group: the public accumulators the query
/// engine uses, fed in the order the truth rows arrive.
struct Oracle {
    moments: Moments,
    p50: P2Quantile,
    p95: P2Quantile,
    values: Vec<f64>,
}

impl Default for Oracle {
    fn default() -> Oracle {
        Oracle {
            moments: Moments::default(),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            values: Vec::new(),
        }
    }
}

impl Oracle {
    fn observe(&mut self, x: f64) {
        self.moments.observe(x);
        self.p50.observe(x);
        self.p95.observe(x);
        self.values.push(x);
    }

    fn render(&self) -> String {
        render_parts(
            self.values.len() as u64,
            &self.moments,
            self.p50.estimate(),
            self.p95.estimate(),
            &self.values,
        )
    }
}

fn render_row(row: &GroupRow) -> String {
    render_parts(
        row.count,
        &row.moments.unwrap(),
        row.p50,
        row.p95,
        row.values.as_deref().unwrap(),
    )
}

/// Every aggregate of a group, f64s as raw bits, so equality is bit
/// equality.
fn render_parts(
    count: u64,
    m: &Moments,
    p50: Option<f64>,
    p95: Option<f64>,
    values: &[f64],
) -> String {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let values: Vec<u64> = values.iter().map(|x| x.to_bits()).collect();
    format!(
        "n={count}/{} mean={:016x} var={:016x} p50={:?} p95={:?} values={values:x?}",
        m.count(),
        m.mean().to_bits(),
        m.variance().to_bits(),
        bits(p50),
        bits(p95),
    )
}
