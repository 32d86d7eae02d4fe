//! Corruption sweep: a store file is external input, so every read of a
//! damaged file must return `Ok` or `Err(StoreError::Corrupt)` — never
//! panic.
//!
//! One small store holds a clean and a faulted chunk of each record kind
//! (ping, traceroute, inter-cloud). The faulted chunks carry every
//! `TaskOutcome` variant and the traceroutes carry `*` hops, so every
//! column block, dictionary, outcome block, the end-to-end column, every
//! chunk frame and the trailer are in the file. Each mutation family below
//! rewrites that file at every offset (or at seeded offsets) and pushes the
//! result through `Reader::from_bytes` and `Reader::salvage`, then each
//! reader that opens through `Reader::for_each` and every `Query` terminal,
//! each under `catch_unwind`. A last test cuts a writer's output at every
//! flush point and checks what `Reader::salvage` gives back. Public API
//! only.

use cloudy_cloud::{region, Provider, RegionId, RouteClass};
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_measure::{
    outcome_for_hops, CloudPingRecord, HopRecord, PingRecord, TaskOutcome, TracerouteRecord,
};
use cloudy_netsim::Protocol;
use cloudy_probes::{Platform, ProbeId};
use cloudy_store::{
    ChunkRows, GroupKey, Query, Reader, RecordKind, ScanFilter, StoreError, Writer, WriterOptions,
};
use cloudy_topology::Asn;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every failure variant plus a delivered row, in a fixed order.
fn outcome(i: u64, rtt: f64) -> TaskOutcome {
    match i % 6 {
        0 => TaskOutcome::Lost,
        1 => TaskOutcome::Timeout(900.0 + i as f64),
        2 => TaskOutcome::ProbeOffline,
        3 => TaskOutcome::RateLimited,
        _ => TaskOutcome::Ok(rtt),
    }
}

fn ping(i: u64, provider: Provider, faulted: bool) -> PingRecord {
    let rtt = 10.0 + i as f64 * 1.5;
    PingRecord {
        probe: ProbeId(100 + i),
        platform: Platform::Speedchecker,
        country: CountryCode::new(if i.is_multiple_of(2) { "DE" } else { "KE" }),
        continent: if i.is_multiple_of(2) { Continent::Europe } else { Continent::Africa },
        city: format!("City{}", i % 3),
        isp: Asn(3320 + (i % 2) as u32),
        access: AccessType::WifiHome,
        region: RegionId(3),
        provider,
        proto: if i.is_multiple_of(3) { Protocol::Icmp } else { Protocol::Tcp },
        outcome: if faulted { outcome(i, rtt) } else { TaskOutcome::Ok(rtt) },
        hour: i * 5,
    }
}

/// A traceroute whose middle hops alternate between answered and `*`.
fn trace(i: u64, provider: Provider, faulted: bool) -> TracerouteRecord {
    let hops: Vec<HopRecord> = (1..=4u8)
        .map(|ttl| {
            let star = ttl == 2 || (ttl == 4 && i.is_multiple_of(4));
            HopRecord {
                ttl,
                ip: (!star).then(|| Ipv4Addr::new(10, 0, ttl, 1)),
                rtt_ms: (!star).then_some(5.0 * f64::from(ttl) + i as f64),
            }
        })
        .collect();
    let delivered = outcome_for_hops(&hops);
    let (hops, outcome) = match outcome(i, 0.0) {
        TaskOutcome::Ok(_) => (hops, delivered),
        failed if faulted => (Vec::new(), failed),
        _ => (hops, delivered),
    };
    TracerouteRecord {
        probe: ProbeId(200 + i),
        platform: Platform::Speedchecker,
        country: CountryCode::new("BR"),
        continent: Continent::SouthAmerica,
        city: "Sao Paulo".into(),
        isp: Asn(27699),
        access: AccessType::Cellular,
        region: RegionId(9),
        provider,
        proto: Protocol::Icmp,
        src_ip: Ipv4Addr::new(11, 0, 0, 1),
        hops,
        outcome,
        hour: i * 7,
    }
}

/// An inter-cloud ping into `dst` (its provider is the chunk partition).
fn cloud(i: u64, src: RegionId, dst: RegionId, faulted: bool) -> CloudPingRecord {
    let rtt = 20.0 + i as f64 * 0.5;
    CloudPingRecord {
        src,
        dst,
        route: if i.is_multiple_of(2) { RouteClass::PrivateWan } else { RouteClass::PublicTransit },
        outcome: if faulted { outcome(i, rtt) } else { TaskOutcome::Ok(rtt) },
        hour: i * 3,
    }
}

fn first_region(p: Provider) -> RegionId {
    region::of_provider(p).map(|(id, _)| id).next().unwrap()
}

/// The swept store: per kind, one clean chunk (Google) and one faulted
/// chunk (Amazon) covering every outcome variant.
fn store() -> Vec<u8> {
    let mut w =
        Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 64 }).unwrap();
    let (goog, aws) = (first_region(Provider::Google), first_region(Provider::AmazonEc2));
    for i in 0..6 {
        w.push_ping(ping(i, Provider::Google, false)).unwrap();
        w.push_ping(ping(i, Provider::AmazonEc2, true)).unwrap();
        w.push_trace(trace(i, Provider::Google, false)).unwrap();
        w.push_trace(trace(i, Provider::AmazonEc2, true)).unwrap();
        w.push_cloud(cloud(i, aws, goog, false)).unwrap();
        w.push_cloud(cloud(i, goog, aws, true)).unwrap();
    }
    let (bytes, summary) = w.finish().unwrap();
    assert_eq!(summary.chunks, 6);
    bytes
}

/// Read `bytes` through every entry point. Returns one line per call that
/// panicked or failed with anything but `StoreError::Corrupt`.
fn read_everything(bytes: Vec<u8>) -> Vec<String> {
    fn check<T>(name: &str, out: &mut Vec<String>, call: impl FnOnce() -> Result<T, StoreError>) {
        match catch_unwind(AssertUnwindSafe(call)) {
            Ok(Ok(_) | Err(StoreError::Corrupt(_))) => {}
            Ok(Err(e)) => out.push(format!("{name}: non-corrupt error {e}")),
            Err(_) => out.push(format!("{name}: panicked")),
        }
    }
    let mut bad = Vec::new();
    let opens = [("from_bytes", Reader::from_bytes as fn(_) -> _), ("salvage", Reader::salvage)];
    for (open, read) in opens {
        let mut reader = None;
        check(open, &mut bad, || read(bytes.clone()).map(|r| reader = Some(r)));
        let Some(r) = reader else { continue };
        let from = bad.len();
        check("for_each", &mut bad, || r.for_each(&ScanFilter::default(), |_| {}));
        check("stream", &mut bad, || Query::rtts().stream(&r, |_| {}));
        check("rows", &mut bad, || Query::rtts().rows(&r));
        check("rows bounded", &mut bad, || Query::rtts().hours(5, 20).max_rtt_ms(40.0).rows(&r));
        check("values", &mut bad, || Query::rtts().values(&r));
        check("summary", &mut bad, || {
            Query::rtts().country(CountryCode::new("DE")).isp(Asn(3320)).summary(&r)
        });
        check("grouped", &mut bad, || Query::rtts().group_by(GroupKey::CountryRegion).grouped(&r));
        for line in &mut bad[from..] {
            *line = format!("{open} {line}");
        }
    }
    bad
}

/// Run every mutant, and fail with the first few offenders.
fn sweep(family: &str, mutants: impl Iterator<Item = (String, Vec<u8>)>) {
    let mut count = 0usize;
    let mut failures = Vec::new();
    for (label, bytes) in mutants {
        count += 1;
        failures.extend(read_everything(bytes).into_iter().map(|f| format!("{label}: {f}")));
    }
    assert!(count > 0);
    assert!(
        failures.is_empty(),
        "{family}: {} failing reads over {count} files, first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(12)]
    );
}

#[test]
fn the_swept_store_reads_back_every_kind() {
    let r = Reader::from_bytes(store()).unwrap();
    let kinds: Vec<RecordKind> = r.chunks().iter().map(|m| m.footer.kind).collect();
    assert_eq!(kinds.iter().filter(|k| **k == RecordKind::Ping).count(), 2);
    assert_eq!(kinds.iter().filter(|k| **k == RecordKind::Trace).count(), 2);
    assert_eq!(kinds.iter().filter(|k| **k == RecordKind::CloudPing).count(), 2);
    let mut failed = 0;
    let mut stars = 0;
    r.for_each(&ScanFilter::default(), |c| match c {
        ChunkRows::Pings(p) => failed += p.iter().filter(|x| !x.outcome.is_ok()).count(),
        ChunkRows::Traces(t) => {
            failed += t.iter().filter(|x| !x.outcome.is_ok()).count();
            stars += t.iter().flat_map(|x| &x.hops).filter(|h| h.ip.is_none()).count();
        }
        ChunkRows::CloudPings(c) => failed += c.iter().filter(|x| !x.outcome.is_ok()).count(),
    })
    .unwrap();
    assert_eq!(failed, 3 * 4, "four failed rows per faulted chunk");
    assert!(stars > 0);
    assert!(read_everything(store()).is_empty());
}

#[test]
fn truncation_at_every_length() {
    let clean = store();
    sweep("truncation", (0..clean.len()).map(|n| (format!("cut {n}"), clean[..n].to_vec())));
}

#[test]
fn xor_ff_at_every_offset() {
    let clean = store();
    sweep(
        "xor 0xff",
        (0..clean.len()).map(|at| {
            let mut b = clean.clone();
            b[at] ^= 0xff;
            (format!("xor at {at}"), b)
        }),
    );
}

#[test]
fn maximal_varint_at_every_offset() {
    // Ten bytes that decode to u64::MAX: a length or count field
    // overwritten with it must not size an allocation.
    const MAX_VARINT: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let clean = store();
    sweep(
        "max varint",
        (0..clean.len()).map(|at| {
            let mut b = clean.clone();
            for (slot, v) in b[at..].iter_mut().zip(MAX_VARINT) {
                *slot = v;
            }
            (format!("max varint at {at}"), b)
        }),
    );
}

#[test]
fn seeded_single_bit_flips() {
    let clean = store();
    // splitmix64: a fixed seed gives the same flips on every run.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let len = clean.len() as u64;
    sweep(
        "bit flip",
        (0..4000).map(|_| {
            let at = (next() % len) as usize;
            let bit = next() % 8;
            let mut b = clean.clone();
            b[at] ^= 1 << bit;
            (format!("flip bit {bit} at {at}"), b)
        }),
    );
}

/// Every chunk of `r` decoded whole, in file order.
fn chunk_rows(r: &Reader) -> Vec<ChunkRows> {
    let mut out = Vec::new();
    r.for_each(&ScanFilter::default(), |c| out.push(c.clone())).unwrap();
    out
}

/// Note the writer's size once it has grown: a chunk just flushed.
fn note_flush(w: &Writer<Vec<u8>>, flushes: &mut Vec<u64>) {
    if flushes.last() != Some(&w.bytes_written()) {
        flushes.push(w.bytes_written());
    }
}

#[test]
fn salvage_keeps_every_chunk_flushed_before_a_cut() {
    // Small chunks, so that most flushes happen while records stream in
    // and the rest inside `finish`.
    let mut w =
        Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 4 }).unwrap();
    let (goog, aws) = (first_region(Provider::Google), first_region(Provider::AmazonEc2));
    let (mut pings, mut traces, mut clouds) = (Vec::new(), Vec::new(), Vec::new());
    // The header alone: a cut there holds no chunk.
    let mut flushes = vec![w.bytes_written()];
    for i in 0..30 {
        let provider = if i % 3 == 0 { Provider::AmazonEc2 } else { Provider::Google };
        let faulted = i % 2 == 1;
        pings.push(ping(i, provider, faulted));
        w.push_ping(ping(i, provider, faulted)).unwrap();
        note_flush(&w, &mut flushes);
        traces.push(trace(i, provider, faulted));
        w.push_trace(trace(i, provider, faulted)).unwrap();
        note_flush(&w, &mut flushes);
        clouds.push(cloud(i, aws, goog, faulted));
        w.push_cloud(cloud(i, aws, goog, faulted)).unwrap();
        note_flush(&w, &mut flushes);
    }
    let (bytes, summary) = w.finish().unwrap();
    let full = Reader::from_bytes(bytes.clone()).unwrap();
    let ends: Vec<u64> = full.chunks().iter().map(|m| m.offset + m.len).collect();
    assert_eq!(ends.len(), summary.chunks);
    // Every flush seen while streaming ended a chunk, and `finish` flushed
    // the rest.
    assert!(flushes[1..].iter().all(|f| ends.contains(f)), "{flushes:?} vs {ends:?}");
    assert!(flushes.len() > 10 && flushes.len() <= ends.len(), "{}", flushes.len());

    // The whole file's chunks hold the rows written, partition by
    // partition in push order.
    let rows = chunk_rows(&full);
    for provider in [Provider::Google, Provider::AmazonEc2] {
        let (mut p, mut t) = (Vec::new(), Vec::new());
        for c in &rows {
            match c {
                ChunkRows::Pings(x) => p.extend(x.iter().filter(|r| r.provider == provider)),
                ChunkRows::Traces(x) => t.extend(x.iter().filter(|r| r.provider == provider)),
                ChunkRows::CloudPings(_) => {}
            }
        }
        assert_eq!(p, pings.iter().filter(|r| r.provider == provider).collect::<Vec<_>>());
        assert_eq!(t, traces.iter().filter(|r| r.provider == provider).collect::<Vec<_>>());
    }
    let c: Vec<&CloudPingRecord> = rows
        .iter()
        .flat_map(|c| match c {
            ChunkRows::CloudPings(x) => x.iter().collect(),
            _ => Vec::new(),
        })
        .collect();
    assert_eq!(c, clouds.iter().collect::<Vec<_>>());

    // Cut at every flush point and one byte either side: salvage keeps
    // exactly the chunks that ended before the cut, and they decode to
    // those chunks' rows.
    let header = flushes[0];
    for point in std::iter::once(header).chain(ends.iter().copied()) {
        for cut in [point.saturating_sub(1).max(header), point, point + 1] {
            let r = Reader::salvage(bytes[..cut as usize].to_vec()).unwrap();
            let kept = ends.iter().filter(|end| **end <= cut).count();
            assert_eq!(r.chunks(), &full.chunks()[..kept], "cut at {cut}");
            assert_eq!(chunk_rows(&r), rows[..kept], "cut at {cut}");
        }
    }
}
