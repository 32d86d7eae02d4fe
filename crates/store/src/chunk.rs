//! Chunk encoding: a fixed-size batch of records laid out column by column.
//!
//! Every column is a length-prefixed block, so readers can *skip* columns
//! they do not need — the RTT projection scan decodes 4 of the 10 ping
//! columns and none of the string data. Encodings per column:
//!
//! | column            | encoding                                   |
//! |-------------------|--------------------------------------------|
//! | probe, src_ip     | delta + zigzag + varint                    |
//! | country, city, isp| per-chunk dictionary + varint indices      |
//! | continent, access, proto, ttl | raw u8                         |
//! | region            | delta + zigzag + varint                    |
//! | rtt (ms)          | hybrid: delta+varint µs when lossless, else delta+varint of f64 bits |
//! | hour              | delta + zigzag + varint                    |
//! | hop ip / hop rtt  | presence bitmap + packed present values; hop RTTs cover every hop but a row's last |
//! | end-to-end rtt    | one per traceroute row: presence bitmap + the present values in the rtt encoding |
//! | outcome           | trailing optional block: one tag per row + f64 budget per `Timeout` row |
//!
//! A traceroute row's end-to-end RTT is its last hop's, absent when that
//! hop is a `*` or the row has no hops. It is stored once, in its own
//! column after the six hop blocks, and a full decode puts it back on the
//! last hop. So an RTT-only scan reads one value per row and length-skips
//! every hop block.
//!
//! Inter-cloud chunks are narrower: src/dst region (delta), route class
//! (raw u8), rtt, hour, and the same optional trailing outcome block —
//! probe metadata columns do not exist on that plane.
//!
//! The outcome block is appended at the very end of the chunk body and
//! *only when at least one row failed*; the rtt column then holds just the
//! delivered (`Ok`) rows' values.
//!
//! Reading goes through one column reader, `read`, with one arm per kind
//! stating that kind's column order. `decode_*` asks it for every column and
//! [`scan_chunk`] for the columns its projection and predicate name; every
//! other block stays a length-skip. Framing is strict: bytes after the
//! outcome block are corrupt. A length read from the file sizes an
//! allocation only once the bytes that remain bound it (every entry takes at
//! least one byte), so a damaged file fails with `StoreError::Corrupt`.

use crate::error::StoreError;
use crate::codec::{
    get_block, get_delta, get_entries, get_indices, get_rtts, get_sparse, put_bitmap,
    put_block, put_delta_u64, put_indices, put_rtts, put_varint, Cursor, DictBuilder,
};
use crate::schema::{
    access_from_tag, access_tag, continent_from_tag, continent_tag, outcome_from_tag, outcome_tag,
    proto_from_tag, proto_tag, route_from_tag, route_tag, RecordKind, OUTCOME_TIMEOUT,
};
use cloudy_cloud::{region, Provider, RegionId, RouteClass};
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_measure::{
    outcome_for_hops, CloudPingRecord, HopRecord, PingRecord, TaskOutcome, TracerouteRecord,
};
use cloudy_netsim::Protocol;
use cloudy_probes::{Platform, ProbeId};
use cloudy_topology::Asn;
use std::net::Ipv4Addr;

/// Per-chunk statistics kept in the chunk's frame; scans prune whole
/// chunks against these without touching the chunk bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkFooter {
    pub kind: RecordKind,
    pub provider: Provider,
    pub rows: u64,
    /// Primary-RTT bounds (ping RTT; traceroute end-to-end). `None` when no
    /// row in the chunk carries a primary RTT.
    pub rtt_ms: Option<(f64, f64)>,
    pub hour_min: u64,
    pub hour_max: u64,
    /// Sorted distinct probe countries present in the chunk.
    pub countries: Vec<CountryCode>,
}

impl ChunkFooter {
    fn from_rows(
        kind: RecordKind,
        provider: Provider,
        rows: u64,
        rtts: impl Iterator<Item = Option<f64>>,
        hours: &[u64],
        countries: &[CountryCode],
    ) -> ChunkFooter {
        let mut rtt_ms: Option<(f64, f64)> = None;
        for r in rtts.flatten() {
            rtt_ms = Some(match rtt_ms {
                None => (r, r),
                Some((lo, hi)) => (lo.min(r), hi.max(r)),
            });
        }
        let mut cs: Vec<CountryCode> = countries.to_vec();
        cs.sort();
        cs.dedup();
        ChunkFooter {
            kind,
            provider,
            rows,
            rtt_ms,
            hour_min: hours.iter().copied().min().unwrap_or(0),
            hour_max: hours.iter().copied().max().unwrap_or(0),
            countries: cs,
        }
    }
}

/// The metadata columns pings and traceroutes share.
struct MetaColumns {
    probe: Vec<u8>,
    country: Vec<u8>,
    continent: Vec<u8>,
    city: Vec<u8>,
    isp: Vec<u8>,
    access: Vec<u8>,
    region: Vec<u8>,
    proto: Vec<u8>,
    countries_seen: Vec<CountryCode>,
}

fn encode_meta<'a>(rows: impl Iterator<Item = MetaRow<'a>> + Clone) -> MetaColumns {
    let mut probe = Vec::new();
    put_delta_u64(&mut probe, rows.clone().map(|r| r.probe.0));

    let mut country_dict: DictBuilder<[u8; 2]> = DictBuilder::default();
    let mut countries_seen = Vec::new();
    for r in rows.clone() {
        let code: [u8; 2] = {
            let s = r.country.as_str().as_bytes();
            [s[0], s[1]]
        };
        country_dict.push(&code);
        countries_seen.push(r.country);
    }
    let mut country = Vec::new();
    put_varint(&mut country, country_dict.entries().len() as u64);
    for e in country_dict.entries() {
        country.extend_from_slice(e);
    }
    put_indices(&mut country, &country_dict.indices);

    let continent: Vec<u8> = rows.clone().map(|r| continent_tag(r.continent)).collect();

    let mut city_dict: DictBuilder<String> = DictBuilder::default();
    for r in rows.clone() {
        city_dict.push(r.city);
    }
    let mut city = Vec::new();
    put_varint(&mut city, city_dict.entries().len() as u64);
    for e in city_dict.entries() {
        put_varint(&mut city, e.len() as u64);
        city.extend_from_slice(e.as_bytes());
    }
    put_indices(&mut city, &city_dict.indices);

    let mut isp_dict: DictBuilder<u32> = DictBuilder::default();
    for r in rows.clone() {
        isp_dict.push(&r.isp.0);
    }
    let mut isp = Vec::new();
    put_varint(&mut isp, isp_dict.entries().len() as u64);
    for e in isp_dict.entries() {
        put_varint(&mut isp, u64::from(*e));
    }
    put_indices(&mut isp, &isp_dict.indices);

    let access: Vec<u8> = rows.clone().map(|r| access_tag(r.access)).collect();

    let mut region = Vec::new();
    put_delta_u64(&mut region, rows.clone().map(|r| u64::from(r.region.0)));

    let proto: Vec<u8> = rows.map(|r| proto_tag(r.proto)).collect();

    MetaColumns { probe, country, continent, city, isp, access, region, proto, countries_seen }
}

struct MetaRow<'a> {
    probe: ProbeId,
    country: CountryCode,
    continent: cloudy_geo::Continent,
    city: &'a String,
    isp: Asn,
    access: cloudy_lastmile::AccessType,
    region: RegionId,
    proto: cloudy_netsim::Protocol,
}

impl<'a> From<&'a PingRecord> for MetaRow<'a> {
    fn from(r: &'a PingRecord) -> MetaRow<'a> {
        MetaRow {
            probe: r.probe,
            country: r.country,
            continent: r.continent,
            city: &r.city,
            isp: r.isp,
            access: r.access,
            region: r.region,
            proto: r.proto,
        }
    }
}

impl<'a> From<&'a TracerouteRecord> for MetaRow<'a> {
    fn from(r: &'a TracerouteRecord) -> MetaRow<'a> {
        MetaRow {
            probe: r.probe,
            country: r.country,
            continent: r.continent,
            city: &r.city,
            isp: r.isp,
            access: r.access,
            region: r.region,
            proto: r.proto,
        }
    }
}

fn put_meta(out: &mut Vec<u8>, m: &MetaColumns) {
    put_block(out, &m.probe);
    put_block(out, &m.country);
    put_block(out, &m.continent);
    put_block(out, &m.city);
    put_block(out, &m.isp);
    put_block(out, &m.access);
    put_block(out, &m.region);
    put_block(out, &m.proto);
}

/// Append the outcome column — only when at least one row failed. All-`Ok`
/// chunks carry no outcome block.
fn put_outcomes<'a>(out: &mut Vec<u8>, outcomes: impl Iterator<Item = &'a TaskOutcome> + Clone) {
    if outcomes.clone().all(|o| o.is_ok()) {
        return;
    }
    let mut blk = Vec::new();
    for o in outcomes.clone() {
        blk.push(outcome_tag(o));
    }
    for o in outcomes {
        if let TaskOutcome::Timeout(budget) = o {
            blk.extend_from_slice(&budget.to_bits().to_le_bytes());
        }
    }
    put_block(out, &blk);
}

/// Encode one ping chunk; returns (body, footer).
pub fn encode_pings(rows: &[PingRecord], provider: Provider) -> (Vec<u8>, ChunkFooter) {
    let meta = encode_meta(rows.iter().map(MetaRow::from));
    let mut out = Vec::new();
    put_meta(&mut out, &meta);

    let mut rtt = Vec::new();
    put_rtts(&mut rtt, rows.iter().filter_map(PingRecord::rtt_ms));
    put_block(&mut out, &rtt);

    let mut hour = Vec::new();
    put_delta_u64(&mut hour, rows.iter().map(|r| r.hour));
    put_block(&mut out, &hour);

    put_outcomes(&mut out, rows.iter().map(|r| &r.outcome));

    let hours: Vec<u64> = rows.iter().map(|r| r.hour).collect();
    let footer = ChunkFooter::from_rows(
        RecordKind::Ping,
        provider,
        rows.len() as u64,
        rows.iter().map(|r| r.rtt_ms()),
        &hours,
        &meta.countries_seen,
    );
    (out, footer)
}

/// Encode one traceroute chunk; returns (body, footer).
pub fn encode_traces(rows: &[TracerouteRecord], provider: Provider) -> (Vec<u8>, ChunkFooter) {
    let meta = encode_meta(rows.iter().map(MetaRow::from));
    let mut out = Vec::new();
    put_meta(&mut out, &meta);

    let mut src_ip = Vec::new();
    put_delta_u64(&mut src_ip, rows.iter().map(|r| u64::from(u32::from(r.src_ip))));
    put_block(&mut out, &src_ip);

    let mut hour = Vec::new();
    put_delta_u64(&mut hour, rows.iter().map(|r| r.hour));
    put_block(&mut out, &hour);

    let mut hop_lens = Vec::new();
    for r in rows {
        put_varint(&mut hop_lens, r.hops.len() as u64);
    }
    put_block(&mut out, &hop_lens);

    let hops = rows.iter().flat_map(|r| r.hops.iter());

    let ttl: Vec<u8> = hops.clone().map(|h| h.ttl).collect();
    put_block(&mut out, &ttl);

    let mut ip_bitmap = Vec::new();
    put_bitmap(&mut ip_bitmap, hops.clone().map(|h| h.ip.is_some()));
    put_block(&mut out, &ip_bitmap);

    let mut ips = Vec::new();
    put_delta_u64(&mut ips, hops.filter_map(|h| h.ip).map(|ip| u64::from(u32::from(ip))));
    put_block(&mut out, &ips);

    // Every hop but a row's last: the last hop's RTT is the row's
    // end-to-end value, stored once in the column after these.
    let inner = rows.iter().flat_map(|r| r.hops.split_last().map_or(&[][..], |(_, rest)| rest));

    let mut rtt_bitmap = Vec::new();
    put_bitmap(&mut rtt_bitmap, inner.clone().map(|h| h.rtt_ms.is_some()));
    put_block(&mut out, &rtt_bitmap);

    let mut rtts = Vec::new();
    put_rtts(&mut rtts, inner.filter_map(|h| h.rtt_ms));
    put_block(&mut out, &rtts);

    let end_to_end = rows.iter().map(TracerouteRecord::end_to_end_ms);
    let mut e2e = Vec::new();
    put_bitmap(&mut e2e, end_to_end.clone().map(|v| v.is_some()));
    put_rtts(&mut e2e, end_to_end.flatten());
    put_block(&mut out, &e2e);

    // Delivered rows' outcomes are *derived* at decode via
    // `outcome_for_hops`, so only failure tags (and timeout budgets) are
    // stored. Callers must keep `Ok` outcomes consistent with the hop list,
    // as the campaign executor does.
    put_outcomes(&mut out, rows.iter().map(|r| &r.outcome));

    let hours: Vec<u64> = rows.iter().map(|r| r.hour).collect();
    let footer = ChunkFooter::from_rows(
        RecordKind::Trace,
        provider,
        rows.len() as u64,
        rows.iter().map(|r| if r.outcome.is_ok() { r.end_to_end_ms() } else { None }),
        &hours,
        &meta.countries_seen,
    );
    (out, footer)
}

/// Source-region countries of an inter-cloud chunk, for footer pruning
/// (`from_rows` sorts and dedups). Regions missing from the region table
/// contribute nothing: such a row has no country, so a country-filtered
/// scan cannot match it either.
fn cloud_countries(rows: &[CloudPingRecord]) -> Vec<CountryCode> {
    rows.iter().filter_map(|r| region::by_id(r.src).map(|reg| reg.country())).collect()
}

/// Encode one inter-cloud ping chunk; returns (body, footer). Column
/// layout: src region (delta), dst region (delta), route class (raw u8),
/// rtt (delivered rows only), hour (delta), then the optional trailing
/// outcome block shared with the ping format. The partition provider is
/// the *destination* provider — the writer's partition key.
pub fn encode_cloud_pings(rows: &[CloudPingRecord], provider: Provider) -> (Vec<u8>, ChunkFooter) {
    let mut out = Vec::new();

    let mut src = Vec::new();
    put_delta_u64(&mut src, rows.iter().map(|r| u64::from(r.src.0)));
    put_block(&mut out, &src);

    let mut dst = Vec::new();
    put_delta_u64(&mut dst, rows.iter().map(|r| u64::from(r.dst.0)));
    put_block(&mut out, &dst);

    let route: Vec<u8> = rows.iter().map(|r| route_tag(r.route)).collect();
    put_block(&mut out, &route);

    let mut rtt = Vec::new();
    put_rtts(&mut rtt, rows.iter().filter_map(CloudPingRecord::rtt_ms));
    put_block(&mut out, &rtt);

    let mut hour = Vec::new();
    put_delta_u64(&mut hour, rows.iter().map(|r| r.hour));
    put_block(&mut out, &hour);

    put_outcomes(&mut out, rows.iter().map(|r| &r.outcome));

    let hours: Vec<u64> = rows.iter().map(|r| r.hour).collect();
    let footer = ChunkFooter::from_rows(
        RecordKind::CloudPing,
        provider,
        rows.len() as u64,
        rows.iter().map(|r| r.rtt_ms()),
        &hours,
        &cloud_countries(rows),
    );
    (out, footer)
}

/// One row of the RTT projection: everything group-by aggregation needs,
/// nothing it does not (no strings, no hops).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttRow {
    pub kind: RecordKind,
    pub provider: Provider,
    pub country: CountryCode,
    pub region: RegionId,
    pub hour: u64,
    /// Primary RTT: ping RTT, or traceroute end-to-end (rows without one
    /// are skipped by the projection).
    pub rtt_ms: f64,
}

/// Row-level predicate resolved against one chunk by [`scan_chunk`].
/// Country and ISP filters are matched against the chunk's *dictionaries*
/// first: a value absent from the dictionary prunes the whole chunk before
/// any per-row column is decoded, and a present value is compared per row
/// against the row's dictionary entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowPred {
    pub country: Option<CountryCode>,
    pub isp: Option<Asn>,
    pub min_rtt_ms: Option<f64>,
    pub max_rtt_ms: Option<f64>,
    pub min_hour: Option<u64>,
    pub max_hour: Option<u64>,
    /// Route-class filter. Only inter-cloud rows carry a route, so it
    /// matches no ping or traceroute row (the query layer restricts a
    /// routed query to cloud chunks before the scan runs).
    pub route: Option<RouteClass>,
}

/// Which columns the scan must decode. Columns that are neither projected
/// nor filtered are skipped as length-prefixed blocks without reading a
/// row; the matching [`ProjRow`] fields then hold placeholder values
/// (`"ZZ"`, region 0, ASN 0, hour 0) that callers must not read.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProjSpec {
    pub country: bool,
    pub region: bool,
    pub isp: bool,
    pub hour: bool,
    /// Decode the inter-cloud route-class column (cloud chunks only).
    pub route: bool,
    /// Resolve the inter-cloud source provider (cloud chunks only).
    pub src_provider: bool,
    /// Decode the columns only full records carry: probe id, continent,
    /// city, access type, protocol, traceroute source IP and the six hop
    /// blocks.
    pub records: bool,
}

impl ProjSpec {
    /// Every column: what a full-record decode asks for.
    const ALL: ProjSpec = ProjSpec {
        country: true,
        region: true,
        isp: true,
        hour: true,
        route: true,
        src_provider: true,
        records: true,
    };

    /// The projection behind [`RttRow`] results: country, region,
    /// and hour decoded, ISP skipped.
    pub fn rtt_row() -> ProjSpec {
        ProjSpec { country: true, region: true, hour: true, ..ProjSpec::default() }
    }
}

/// One row emitted by the projection kernels: [`RttRow`] plus the ISP
/// column (needed by ISP filters and group-bys). Fields outside the
/// requested projection hold placeholder values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjRow {
    pub kind: RecordKind,
    pub provider: Provider,
    pub country: CountryCode,
    pub region: RegionId,
    pub isp: Asn,
    pub hour: u64,
    pub rtt_ms: f64,
    /// Inter-cloud route class; `None` for ping/trace rows (and when the
    /// route column was not projected).
    pub route: Option<RouteClass>,
    /// Inter-cloud source-region provider; `None` for ping/trace rows (and
    /// when unrequested). `provider` itself is the destination provider —
    /// the chunk partition key — for every row kind.
    pub src_provider: Option<Provider>,
}

impl ProjRow {
    pub fn to_rtt_row(self) -> RttRow {
        RttRow {
            kind: self.kind,
            provider: self.provider,
            country: self.country,
            region: self.region,
            hour: self.hour,
            rtt_ms: self.rtt_ms,
        }
    }
}

/// What a projection kernel did with one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkScan {
    /// A dictionary filter proved no row can match; the per-row columns
    /// were never decoded.
    Pruned,
    /// The chunk was decoded; `matched` rows passed the predicate.
    Scanned { matched: u64 },
}

/// Split the next `N` length-prefixed column blocks off a chunk body.
fn blocks<'a, const N: usize>(cur: &mut Cursor<'a>) -> Result<[Cursor<'a>; N], StoreError> {
    let mut out = [Cursor::new(&[]); N];
    for b in &mut out {
        *b = get_block(cur)?;
    }
    Ok(out)
}

/// The optional trailing outcome block, which must end the body.
fn outcome_block(mut cur: Cursor<'_>) -> Result<Option<Cursor<'_>>, StoreError> {
    let blk = if cur.remaining() == 0 { None } else { Some(get_block(&mut cur)?) };
    match cur.remaining() {
        0 => Ok(blk),
        n => Err(StoreError::corrupt(format!("{n} bytes after the outcome block"))),
    }
}

/// `n` delta-coded values, each narrowed to `U` (a region id's u16, an
/// IPv4 address's u32) and wrapped by `wrap`.
fn get_narrow<T, U: TryFrom<u64>>(
    cur: &mut Cursor<'_>,
    n: usize,
    wrap: fn(U) -> T,
) -> Result<Vec<T>, StoreError> {
    let overflow = |v| StoreError::corrupt(format!("{v} overflows {}", std::any::type_name::<U>()));
    get_delta(cur, n, |v| U::try_from(v).map(wrap).map_err(|_| overflow(v)))
}

fn country_entry(cur: &mut Cursor<'_>) -> Result<CountryCode, StoreError> {
    let raw = cur.bytes(2)?;
    std::str::from_utf8(raw)
        .ok()
        .and_then(CountryCode::try_new)
        .ok_or_else(|| StoreError::corrupt(format!("invalid country code {raw:?}")))
}

fn city_entry(cur: &mut Cursor<'_>) -> Result<String, StoreError> {
    let len = cur.varint()? as usize;
    let raw = cur.bytes(len)?;
    String::from_utf8(raw.to_vec()).map_err(|e| StoreError::corrupt(format!("city: {e}")))
}

fn isp_entry(cur: &mut Cursor<'_>) -> Result<Asn, StoreError> {
    u32::try_from(cur.varint()?).map(Asn).map_err(|e| StoreError::corrupt(format!("asn: {e}")))
}

/// A dictionary column: the chunk's dictionary, then one id per row.
struct Dict<T> {
    entries: Vec<T>,
    /// Per-row ids, validated against `entries`; empty when not decoded.
    ids: Vec<u32>,
}

impl<T> Default for Dict<T> {
    fn default() -> Dict<T> {
        Dict { entries: Vec::new(), ids: Vec::new() }
    }
}

impl<T: PartialEq> Dict<T> {
    /// Decode a dictionary block: an entry count, the entries (each read
    /// by `entry`), then one varint id per row. Nothing is decoded unless
    /// the ids are asked for or `filter` is set. `None` when `filter` is
    /// missing from the dictionary: no row can match, and no id has been
    /// decoded.
    fn read<'a>(
        mut blk: Cursor<'a>,
        rows: usize,
        ids: bool,
        filter: Option<T>,
        entry: impl FnMut(&mut Cursor<'a>) -> Result<T, StoreError>,
    ) -> Result<Option<Dict<T>>, StoreError> {
        if !ids && filter.is_none() {
            return Ok(Some(Dict::default()));
        }
        let n = blk.varint()? as usize;
        let entries = get_entries(&mut blk, n, entry)?;
        if filter.is_some_and(|f| !entries.contains(&f)) {
            return Ok(None);
        }
        let ids = get_indices(&mut blk, rows, entries.len())?;
        Ok(Some(Dict { entries, ids }))
    }

    /// Row `i`'s value; the ids must have been decoded.
    fn at(&self, i: usize) -> &T {
        &self.entries[self.ids[i] as usize]
    }

    /// Row `i`'s value, `None` when the ids were not decoded.
    fn get(&self, i: usize) -> Option<&T> {
        self.ids.get(i).map(|id| &self.entries[*id as usize])
    }
}

/// Read an outcome block: one validated tag per row, then an f64 budget
/// per `Timeout` row in row order. `Ok` rows come back as `Ok(0.0)`: their
/// payload lives in the rtt column (pings, inter-cloud) or the hops.
fn get_outcomes(blk: &mut Cursor<'_>, rows: usize) -> Result<Vec<TaskOutcome>, StoreError> {
    let tags = blk.bytes(rows)?;
    tags.iter()
        .map(|t| {
            let budget = if *t == OUTCOME_TIMEOUT { f64::from_bits(blk.u64_le()?) } else { 0.0 };
            outcome_from_tag(*t, budget)
        })
        .collect()
}

/// Every row's outcome, `Ok` rows carrying their RTT. The rtt column holds
/// only the delivered rows' values, in row order; a body without an
/// outcome block delivered every row.
fn rtt_outcomes(
    mut rtt: Cursor<'_>,
    outcome: Option<Cursor<'_>>,
    rows: usize,
) -> Result<Vec<TaskOutcome>, StoreError> {
    let Some(mut blk) = outcome else {
        return get_rtts(&mut rtt, rows, TaskOutcome::Ok);
    };
    let mut out = get_outcomes(&mut blk, rows)?;
    let rtts = get_rtts(&mut rtt, out.iter().filter(|o| o.is_ok()).count(), |v| v)?;
    for (o, v) in out.iter_mut().filter(|o| o.is_ok()).zip(rtts) {
        *o = TaskOutcome::Ok(v);
    }
    Ok(out)
}

/// One chunk's columns as [`read`] decoded them. A column the chunk's kind
/// lacks, or the read did not ask for, is empty.
#[derive(Default)]
struct Cols {
    probe: Vec<u64>,
    country: Dict<CountryCode>,
    continent: Vec<Continent>,
    city: Dict<String>,
    isp: Dict<Asn>,
    access: Vec<AccessType>,
    /// The probe's region; an inter-cloud row's destination region.
    region: Vec<RegionId>,
    proto: Vec<Protocol>,
    src_ip: Vec<Ipv4Addr>,
    /// An inter-cloud row's source region.
    src: Vec<RegionId>,
    route: Vec<RouteClass>,
    hour: Vec<u64>,
    /// A traceroute row's hops (full records only).
    hops: Vec<Vec<HopRecord>>,
    /// A traceroute row's end-to-end RTT: its last hop's, if it answered.
    /// Decoded for every traceroute read.
    end_to_end: Vec<Option<f64>>,
    /// Every row's outcome. `Ok` carries the RTT of a ping or inter-cloud
    /// row; a delivered traceroute's is derived from its hops.
    outcome: Vec<TaskOutcome>,
}

impl Cols {
    /// Decode the eight metadata blocks pings and traceroutes share, given
    /// in file order. `false` when a country or ISP filter misses its
    /// dictionary.
    fn read_meta(
        &mut self,
        meta: [Cursor<'_>; 8],
        rows: usize,
        pred: &RowPred,
        proj: ProjSpec,
    ) -> Result<bool, StoreError> {
        let [mut probe, country, mut continent, city, isp, mut access, mut region, mut proto] =
            meta;
        let country = Dict::read(country, rows, proj.country, pred.country, country_entry)?;
        let Some(country) = country else { return Ok(false) };
        let isp = Dict::read(isp, rows, proj.isp, pred.isp, isp_entry)?;
        let Some(isp) = isp else { return Ok(false) };
        // An unwanted column decodes zero rows: its block stays a skip.
        let n = |want: bool| if want { rows } else { 0 };
        let full = proj.records;
        self.country = country;
        self.isp = isp;
        self.city = Dict::read(city, rows, full, None, city_entry)?.unwrap_or_default();
        self.probe = get_delta(&mut probe, n(full), Ok)?;
        self.continent = get_entries(&mut continent, n(full), |b| continent_from_tag(b.u8()?))?;
        self.access = get_entries(&mut access, n(full), |b| access_from_tag(b.u8()?))?;
        self.region = get_narrow(&mut region, n(proj.region), RegionId)?;
        self.proto = get_entries(&mut proto, n(full), |b| proto_from_tag(b.u8()?))?;
        Ok(true)
    }

    /// Read the end-to-end column, and for full records walk the six hop
    /// blocks too. The end-to-end column is a presence bitmap over the
    /// rows, then the present values. The hop blocks are one varint hop
    /// count per row, then per hop a TTL byte, and the IP and RTT as
    /// presence bitmaps with the present values packed after each; the
    /// RTTs cover every hop but a row's last, which takes the row's
    /// end-to-end value. Without full records the hop blocks stay a skip.
    fn read_hops(
        &mut self,
        blocks: [Cursor<'_>; 6],
        mut end_to_end: Cursor<'_>,
        rows: usize,
        records: bool,
    ) -> Result<(), StoreError> {
        let get_ms = |c: &mut Cursor<'_>, n| get_rtts(c, n, |ms: f64| ms);
        let mut present = Cursor::new(end_to_end.bytes(rows.div_ceil(8))?);
        self.end_to_end = get_sparse(&mut present, &mut end_to_end, rows, get_ms)?.collect();
        if !records {
            return Ok(());
        }
        let [mut lens, mut ttl, mut ip_bitmap, mut ips, mut rtt_bitmap, mut rtts] = blocks;
        let (mut total, mut inner) = (0usize, 0usize);
        let overflow = || StoreError::corrupt("hop count overflow");
        let lens = get_entries(&mut lens, rows, |c| {
            let len = c.varint()? as usize;
            total = total.checked_add(len).ok_or_else(overflow)?;
            inner += len.saturating_sub(1);
            Ok(len)
        })?;
        let get_ips = |c: &mut Cursor<'_>, n| get_narrow(c, n, Ipv4Addr::from_bits);
        let ip = get_sparse(&mut ip_bitmap, &mut ips, total, get_ips)?;
        let mut ttl_ip = ttl.bytes(total)?.iter().copied().zip(ip);
        let mut rtt = get_sparse(&mut rtt_bitmap, &mut rtts, inner, get_ms)?;
        for (&len, &last) in lens.iter().zip(&self.end_to_end) {
            if len == 0 && last.is_some() {
                return Err(StoreError::corrupt("end-to-end RTT on a traceroute without hops"));
            }
            let hops = (1..=len).map_while(|hop| {
                let (ttl, ip) = ttl_ip.next()?;
                let rtt_ms = if hop == len { last } else { rtt.next().flatten() };
                Some(HopRecord { ttl, ip, rtt_ms })
            });
            self.hops.push(hops.collect());
        }
        Ok(())
    }
}

/// The column reader behind every decode and scan: frame `body` by its
/// kind's column order, then decode the columns `proj` and `pred` name.
/// `None` when a country or ISP filter misses its dictionary: no row can
/// match, and no per-row column has been decoded.
fn read(
    kind: RecordKind,
    body: &[u8],
    rows: usize,
    pred: &RowPred,
    proj: ProjSpec,
) -> Result<Option<Cols>, StoreError> {
    let mut cur = Cursor::new(body);
    let mut c = Cols::default();
    // An unwanted column decodes zero rows: its block stays a skip.
    let n = |want: bool| if want { rows } else { 0 };
    let hour_rows = n(proj.hour || pred.min_hour.is_some() || pred.max_hour.is_some());
    match kind {
        RecordKind::Ping => {
            let meta = blocks(&mut cur)?;
            let [rtt, mut hour] = blocks(&mut cur)?;
            let outcome = outcome_block(cur)?;
            if !c.read_meta(meta, rows, pred, proj)? {
                return Ok(None);
            }
            c.hour = get_delta(&mut hour, hour_rows, Ok)?;
            c.outcome = rtt_outcomes(rtt, outcome, rows)?;
        }
        RecordKind::Trace => {
            let meta = blocks(&mut cur)?;
            let [mut src_ip, mut hour] = blocks(&mut cur)?;
            let hops = blocks(&mut cur)?;
            let [end_to_end] = blocks(&mut cur)?;
            let outcome = outcome_block(cur)?;
            if !c.read_meta(meta, rows, pred, proj)? {
                return Ok(None);
            }
            c.src_ip = get_narrow(&mut src_ip, n(proj.records), Ipv4Addr::from_bits)?;
            c.hour = get_delta(&mut hour, hour_rows, Ok)?;
            c.read_hops(hops, end_to_end, rows, proj.records)?;
            c.outcome = match outcome {
                Some(mut blk) => get_outcomes(&mut blk, rows)?,
                None => vec![TaskOutcome::Ok(0.0); rows],
            };
        }
        RecordKind::CloudPing => {
            let [mut src, mut dst, mut route, rtt, mut hour] = blocks(&mut cur)?;
            let outcome = outcome_block(cur)?;
            let want_src = proj.country || proj.isp || proj.src_provider;
            let want_src = want_src || pred.country.is_some() || pred.isp.is_some();
            c.src = get_narrow(&mut src, n(want_src), RegionId)?;
            c.region = get_narrow(&mut dst, n(proj.region), RegionId)?;
            let route_rows = n(proj.route || pred.route.is_some());
            c.route = get_entries(&mut route, route_rows, |b| route_from_tag(b.u8()?))?;
            c.hour = get_delta(&mut hour, hour_rows, Ok)?;
            c.outcome = rtt_outcomes(rtt, outcome, rows)?;
        }
    }
    Ok(Some(c))
}

/// Every column of a chunk, for full records (no filter, so never pruned).
fn read_all(kind: RecordKind, body: &[u8], rows: usize) -> Result<Cols, StoreError> {
    Ok(read(kind, body, rows, &RowPred::default(), ProjSpec::ALL)?.unwrap_or_default())
}

/// Decode a ping chunk body into full records.
pub fn decode_pings(
    body: &[u8],
    rows: usize,
    platform: Platform,
    provider: Provider,
) -> Result<Vec<PingRecord>, StoreError> {
    let c = read_all(RecordKind::Ping, body, rows)?;
    Ok((0..rows)
        .map(|i| PingRecord {
            probe: ProbeId(c.probe[i]),
            platform,
            country: *c.country.at(i),
            continent: c.continent[i],
            city: c.city.at(i).clone(),
            isp: *c.isp.at(i),
            access: c.access[i],
            region: c.region[i],
            provider,
            proto: c.proto[i],
            outcome: c.outcome[i],
            hour: c.hour[i],
        })
        .collect())
}

/// Decode a traceroute chunk body into full records. A delivered row's
/// outcome is derived from its hops (`outcome_for_hops`).
pub fn decode_traces(
    body: &[u8],
    rows: usize,
    platform: Platform,
    provider: Provider,
) -> Result<Vec<TracerouteRecord>, StoreError> {
    let c = read_all(RecordKind::Trace, body, rows)?;
    Ok(c.hops
        .into_iter()
        .enumerate()
        .map(|(i, hops)| TracerouteRecord {
            probe: ProbeId(c.probe[i]),
            platform,
            country: *c.country.at(i),
            continent: c.continent[i],
            city: c.city.at(i).clone(),
            isp: *c.isp.at(i),
            access: c.access[i],
            region: c.region[i],
            provider,
            proto: c.proto[i],
            src_ip: c.src_ip[i],
            outcome: if c.outcome[i].is_ok() { outcome_for_hops(&hops) } else { c.outcome[i] },
            hops,
            hour: c.hour[i],
        })
        .collect())
}

/// Decode an inter-cloud chunk body into full records. No platform or
/// provider parameter: both endpoints are cloud regions, and the record
/// names them.
pub fn decode_cloud_pings(body: &[u8], rows: usize) -> Result<Vec<CloudPingRecord>, StoreError> {
    let c = read_all(RecordKind::CloudPing, body, rows)?;
    Ok((0..rows)
        .map(|i| CloudPingRecord {
            src: c.src[i],
            dst: c.region[i],
            route: c.route[i],
            outcome: c.outcome[i],
            hour: c.hour[i],
        })
        .collect())
}

/// Pushdown projection scan of one chunk: decodes only the columns
/// `proj`/`pred` name, prunes the whole chunk on a dictionary miss, and
/// emits the matching rows. A row's primary RTT is its ping RTT or its
/// traceroute end-to-end value (last hop's response, as in
/// `TracerouteRecord::end_to_end_ms`); failed rows have none and are never
/// emitted, so they can never aggregate as zero-latency samples.
///
/// An inter-cloud row fills [`ProjRow`] as follows: `provider` is the
/// destination provider (the partition key), `region` the destination
/// region, `country` the *source* region's country, and `isp` the source
/// provider's ASN — so country/ISP predicates ask "probes homed at this
/// source" just as they do for user rows. Rows whose source region is
/// missing from the region table never match a country or ISP predicate.
pub fn scan_chunk(
    kind: RecordKind,
    body: &[u8],
    rows: usize,
    provider: Provider,
    pred: &RowPred,
    proj: ProjSpec,
    emit: &mut impl FnMut(ProjRow),
) -> Result<ChunkScan, StoreError> {
    let Some(c) = read(kind, body, rows, pred, proj)? else {
        return Ok(ChunkScan::Pruned);
    };
    let mut matched = 0u64;
    for (i, outcome) in c.outcome.iter().enumerate() {
        let rtt = match kind {
            RecordKind::Trace => c.end_to_end[i].filter(|_| outcome.is_ok()),
            _ => outcome.rtt_ms(),
        };
        let Some(v) = rtt else { continue };
        let h = c.hour.get(i).copied().unwrap_or(0);
        if pred.min_rtt_ms.is_some_and(|min| v < min)
            || pred.max_rtt_ms.is_some_and(|max| v > max)
            || pred.min_hour.is_some_and(|min| h < min)
            || pred.max_hour.is_some_and(|max| h > max)
        {
            continue;
        }
        let (country, isp, route, src_provider) = if kind == RecordKind::CloudPing {
            let src = c.src.get(i).and_then(|s| region::by_id(*s));
            let (country, asn) = (src.map(|r| r.country()), src.map(|r| r.provider.asn()));
            (country, asn, c.route.get(i).copied(), src.map(|r| r.provider))
        } else {
            (c.country.get(i).copied(), c.isp.get(i).copied(), None, None)
        };
        if pred.country.is_some_and(|want| country != Some(want))
            || pred.isp.is_some_and(|want| isp != Some(want))
            || pred.route.is_some_and(|want| route != Some(want))
        {
            continue;
        }
        matched += 1;
        emit(ProjRow {
            kind,
            provider,
            country: country.unwrap_or_else(|| CountryCode::new("ZZ")),
            region: c.region.get(i).copied().unwrap_or(RegionId(0)),
            isp: isp.unwrap_or(Asn(0)),
            hour: h,
            rtt_ms: v,
            route,
            src_provider,
        });
    }
    Ok(ChunkScan::Scanned { matched })
}

/// One chunk as its frame describes it: the footer plus the body's place
/// in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    pub footer: ChunkFooter,
    /// Byte offset of the chunk body from the start of the file.
    pub offset: u64,
    /// Encoded length of the chunk body in bytes.
    pub len: u64,
}

/// Serialize the frame written before a chunk body of `len` bytes.
pub fn put_frame(out: &mut Vec<u8>, footer: &ChunkFooter, len: u64) {
    out.push(footer.kind.tag());
    out.push(crate::schema::provider_tag(footer.provider));
    put_varint(out, len);
    put_varint(out, footer.rows);
    match footer.rtt_ms {
        Some((lo, hi)) => {
            out.push(1);
            out.extend_from_slice(&lo.to_bits().to_le_bytes());
            out.extend_from_slice(&hi.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
    put_varint(out, footer.hour_min);
    put_varint(out, footer.hour_max);
    put_varint(out, footer.countries.len() as u64);
    for c in &footer.countries {
        let s = c.as_str().as_bytes();
        out.extend_from_slice(&[s[0], s[1]]);
    }
}

/// Read one frame and step over the body it frames. `cur` must span the
/// file from its first byte, so that its position is the body's offset.
/// A frame with no rows, more rows than body bytes (every kind writes at
/// least one byte per row) or a body past the end of `cur` is corrupt.
pub fn get_frame(cur: &mut Cursor<'_>) -> Result<ChunkMeta, StoreError> {
    let kind = RecordKind::from_tag(cur.u8()?)?;
    let provider = crate::schema::provider_from_tag(cur.u8()?)?;
    let len = cur.varint()?;
    let rows = cur.varint()?;
    let rtt_ms = match cur.u8()? {
        0 => None,
        1 => {
            let lo = f64::from_bits(cur.u64_le()?);
            let hi = f64::from_bits(cur.u64_le()?);
            Some((lo, hi))
        }
        other => return Err(StoreError::corrupt(format!("bad rtt-bounds flag {other}"))),
    };
    let hour_min = cur.varint()?;
    let hour_max = cur.varint()?;
    let n = cur.varint()? as usize;
    let countries = get_entries(cur, n, country_entry)?;
    if rows == 0 || rows > len {
        return Err(StoreError::corrupt(format!("chunk frame claims {rows} rows in {len} bytes")));
    }
    let offset = cur.position() as u64;
    let torn = || StoreError::corrupt(format!("chunk body of {len} bytes at {offset} is torn"));
    cur.bytes(usize::try_from(len).map_err(|_| torn())?).map_err(|_| torn())?;
    Ok(ChunkMeta {
        footer: ChunkFooter { kind, provider, rows, rtt_ms, hour_min, hour_max, countries },
        offset,
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::get_bitmap;
    use crate::testutil::{
        sample_cloud_ping, sample_failed_ping, sample_ping as ping, sample_trace as trace,
        trace_with_outcome,
    };

    /// The predicate-free [`RttRow`] projection of one chunk body.
    fn project(body: &[u8], rows: usize, kind: RecordKind, provider: Provider) -> Vec<RttRow> {
        let mut out = Vec::new();
        let (pred, proj) = (RowPred::default(), ProjSpec::rtt_row());
        let mut emit = |p: ProjRow| out.push(p.to_rtt_row());
        scan_chunk(kind, body, rows, provider, &pred, proj, &mut emit).unwrap();
        out
    }

    fn mixed_pings() -> Vec<PingRecord> {
        (0..50)
            .map(|i| match i % 5 {
                0 => sample_failed_ping(i, TaskOutcome::Lost),
                1 => sample_failed_ping(i, TaskOutcome::Timeout(800.0 + i as f64)),
                2 => sample_failed_ping(i, TaskOutcome::ProbeOffline),
                3 => sample_failed_ping(i, TaskOutcome::RateLimited),
                _ => ping(i, 15.0 + i as f64 * 0.25),
            })
            .collect()
    }

    #[test]
    fn faulted_ping_chunk_round_trips() {
        let rows = mixed_pings();
        let (body, footer) = encode_pings(&rows, Provider::Google);
        // Footer bounds see only the delivered rows.
        let (lo, hi) = footer.rtt_ms.unwrap();
        assert!(lo >= 15.0 && hi < 100.0, "failure payloads leaked into footer: {lo}..{hi}");
        let back = decode_pings(&body, rows.len(), Platform::Speedchecker, Provider::Google)
            .unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn faulted_trace_chunk_round_trips() {
        let rows: Vec<TracerouteRecord> = (0..30)
            .map(|i| match i % 4 {
                0 => trace_with_outcome(i, vec![], TaskOutcome::Lost),
                1 => trace_with_outcome(i, vec![], TaskOutcome::Timeout(800.0)),
                2 => trace_with_outcome(i, vec![], TaskOutcome::ProbeOffline),
                _ => trace(
                    i,
                    vec![HopRecord {
                        ttl: 1,
                        ip: Some(Ipv4Addr::new(20, 0, 0, 1)),
                        rtt_ms: Some(30.0 + i as f64),
                    }],
                ),
            })
            .collect();
        let (body, footer) = encode_traces(&rows, Provider::AmazonEc2);
        let (lo, _) = footer.rtt_ms.unwrap();
        assert!(lo >= 30.0);
        let back = decode_traces(&body, rows.len(), Platform::Speedchecker, Provider::AmazonEc2)
            .unwrap();
        assert_eq!(back, rows);
        // Failed rows have no end-to-end RTT, so the projection drops them.
        let proj = project(&body, rows.len(), RecordKind::Trace, Provider::AmazonEc2);
        assert_eq!(proj.len(), rows.iter().filter(|r| r.outcome.is_ok()).count());
    }

    #[test]
    fn ping_projection_drops_failed_rows() {
        let rows = mixed_pings();
        let (body, _) = encode_pings(&rows, Provider::Google);
        let proj = project(&body, rows.len(), RecordKind::Ping, Provider::Google);
        let ok_rows: Vec<&PingRecord> = rows.iter().filter(|r| r.outcome.is_ok()).collect();
        assert_eq!(proj.len(), ok_rows.len());
        for (p, r) in proj.iter().zip(&ok_rows) {
            assert_eq!(Some(p.rtt_ms), r.rtt_ms());
            assert_eq!(p.hour, r.hour);
        }
        // No projected row may surface a failure as a zero-latency sample.
        assert!(proj.iter().all(|p| p.rtt_ms >= 15.0));
    }

    #[test]
    fn all_ok_chunks_carry_no_outcome_block() {
        let rows: Vec<PingRecord> = (0..20).map(|i| ping(i, 9.0 + i as f64)).collect();
        let (body, _) = encode_pings(&rows, Provider::Google);
        // Walk the ping column layout: 8 meta blocks + rtt + hour. An
        // all-Ok chunk must end exactly there.
        let mut cur = Cursor::new(&body);
        for _ in 0..10 {
            get_block(&mut cur).unwrap();
        }
        assert_eq!(cur.remaining(), 0, "unexpected trailing outcome block");

        let faulted = mixed_pings();
        let (faulted_body, _) = encode_pings(&faulted, Provider::Google);
        let mut cur = Cursor::new(&faulted_body);
        for _ in 0..10 {
            get_block(&mut cur).unwrap();
        }
        assert!(cur.remaining() > 0, "outcome block missing from faulted chunk");
    }

    #[test]
    fn corrupt_faulted_chunk_is_an_error_not_a_panic() {
        let rows = mixed_pings();
        let (body, _) = encode_pings(&rows, Provider::Google);
        for cut in (body.len() - 80)..body.len() {
            assert!(decode_pings(&body[..cut], rows.len(), Platform::Speedchecker, Provider::Google)
                .is_err());
        }
        // A bogus outcome tag is corrupt, not a panic. The outcome block
        // trails the body: 50 tag bytes then 10 × 8 budget bytes.
        let mut bad = body.clone();
        let n = bad.len();
        bad[n - 81] = 9; // the last tag byte
        assert!(decode_pings(&bad, rows.len(), Platform::Speedchecker, Provider::Google)
            .is_err());
    }

    #[test]
    fn ping_chunk_round_trips() {
        let rows: Vec<PingRecord> = (0..100).map(|i| ping(i, 10.0 + i as f64 * 0.125)).collect();
        let (body, footer) = encode_pings(&rows, Provider::Google);
        assert_eq!(footer.rows, 100);
        assert_eq!(footer.kind, RecordKind::Ping);
        assert_eq!(footer.countries.len(), 2);
        let back = decode_pings(&body, 100, Platform::Speedchecker, Provider::Google).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn trace_chunk_round_trips_with_stars() {
        let rows: Vec<TracerouteRecord> = (0..40)
            .map(|i| {
                let hops = (0..(i % 6) as u8)
                    .map(|t| HopRecord {
                        ttl: t + 1,
                        ip: if t % 2 == 0 { Some(Ipv4Addr::new(10, 0, t, 1)) } else { None },
                        rtt_ms: if t % 3 == 0 { Some(5.0 + f64::from(t)) } else { None },
                    })
                    .collect();
                trace(i, hops)
            })
            .collect();
        let (body, footer) = encode_traces(&rows, Provider::AmazonEc2);
        assert_eq!(footer.rows, 40);
        let back = decode_traces(&body, 40, Platform::Speedchecker, Provider::AmazonEc2).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn ping_projection_matches_full_decode() {
        let rows: Vec<PingRecord> = (0..64).map(|i| ping(i, 7.5 + i as f64)).collect();
        let (body, _) = encode_pings(&rows, Provider::Google);
        let proj = project(&body, 64, RecordKind::Ping, Provider::Google);
        assert_eq!(proj.len(), 64);
        for (p, r) in proj.iter().zip(&rows) {
            assert_eq!(Some(p.rtt_ms), r.rtt_ms());
            assert_eq!(p.country, r.country);
            assert_eq!(p.region, r.region);
            assert_eq!(p.hour, r.hour);
        }
    }

    #[test]
    fn trace_projection_yields_end_to_end_only() {
        let with_end = trace(
            1,
            vec![
                HopRecord { ttl: 1, ip: None, rtt_ms: None },
                HopRecord { ttl: 2, ip: Some(Ipv4Addr::new(20, 0, 0, 1)), rtt_ms: Some(44.5) },
            ],
        );
        let silent_end = trace(
            2,
            vec![HopRecord { ttl: 1, ip: Some(Ipv4Addr::new(10, 0, 0, 1)), rtt_ms: Some(3.0) }, {
                HopRecord { ttl: 2, ip: None, rtt_ms: None }
            }],
        );
        let rows = vec![with_end.clone(), silent_end];
        let (body, footer) = encode_traces(&rows, Provider::AmazonEc2);
        let proj = project(&body, 2, RecordKind::Trace, Provider::AmazonEc2);
        assert_eq!(proj.len(), 1);
        assert_eq!(proj[0].rtt_ms, 44.5);
        assert_eq!(footer.rtt_ms, Some((44.5, 44.5)));
    }

    #[test]
    fn frame_round_trips() {
        let footer = ChunkFooter {
            kind: RecordKind::Trace,
            provider: Provider::Microsoft,
            rows: 4096,
            rtt_ms: Some((0.125, 812.25)),
            hour_min: 3,
            hour_max: 71,
            countries: vec![CountryCode::new("BR"), CountryCode::new("DE")],
        };
        let mut file = vec![0xaa; 9];
        put_frame(&mut file, &footer, 9_876);
        let offset = file.len() as u64;
        file.resize(file.len() + 9_876, 0);
        let mut cur = Cursor::new(&file);
        cur.bytes(9).unwrap();
        let want = ChunkMeta { footer, offset, len: 9_876 };
        assert_eq!(get_frame(&mut cur).unwrap(), want);
        assert_eq!(cur.remaining(), 0);
        // One body byte short is a torn chunk.
        let mut cur = Cursor::new(&file[..file.len() - 1]);
        cur.bytes(9).unwrap();
        assert!(matches!(get_frame(&mut cur), Err(StoreError::Corrupt(_))));
    }

    /// A body's length-prefixed blocks, in file order.
    fn body_blocks(body: &[u8]) -> Vec<Cursor<'_>> {
        let mut cur = Cursor::new(body);
        std::iter::from_fn(|| (cur.remaining() > 0).then(|| get_block(&mut cur).unwrap())).collect()
    }

    /// A body from blocks, `replace(i, block)` choosing each one's bytes.
    fn rebuild(body: &[u8], replace: impl Fn(usize, &[u8]) -> Vec<u8>) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, mut blk) in body_blocks(body).into_iter().enumerate() {
            let bytes = blk.bytes(blk.remaining()).unwrap();
            put_block(&mut out, &replace(i, bytes));
        }
        out
    }

    /// Traceroute block indices: 8 metadata blocks, source IP, hour, the
    /// six hop blocks, then the end-to-end column.
    const HOP_BLOCKS: std::ops::Range<usize> = 10..16;
    const END_TO_END: usize = 16;

    /// One `*`-last row, a failed row without hops, a one-hop row, and
    /// rows whose last hop answered.
    fn edge_traces() -> Vec<TracerouteRecord> {
        let hop = |ttl: u8, rtt_ms: Option<f64>| HopRecord {
            ttl,
            ip: rtt_ms.map(|_| Ipv4Addr::new(10, 0, ttl, 1)),
            rtt_ms,
        };
        vec![
            trace(0, vec![hop(1, Some(2.5)), hop(2, Some(7.125)), hop(3, None)]),
            trace_with_outcome(1, vec![], TaskOutcome::Lost),
            trace(2, vec![hop(1, Some(31.0))]),
            trace(3, vec![hop(1, None), hop(2, Some(1.0 / 3.0)), hop(3, Some(44.5))]),
            trace(4, vec![hop(1, Some(3.0)), hop(2, None), hop(3, Some(58.75))]),
        ]
    }

    #[test]
    fn edge_traces_round_trip_with_the_end_to_end_column() {
        let rows = edge_traces();
        let (body, footer) = encode_traces(&rows, Provider::AmazonEc2);
        let back = decode_traces(&body, rows.len(), Platform::Speedchecker, Provider::AmazonEc2);
        assert_eq!(back.unwrap(), rows);
        assert_eq!(footer.rtt_ms, Some((31.0, 58.75)));
        // The column holds one value per row whose last hop answered; the
        // hop stream holds the other hops' RTTs only.
        let blocks = body_blocks(&body);
        assert_eq!(blocks.len(), END_TO_END + 2, "the failed row adds the outcome block");
        let mut e2e = blocks[END_TO_END];
        let present = get_bitmap(&mut e2e, rows.len()).unwrap();
        assert_eq!(present, [false, false, true, true, true]);
        assert_eq!(get_rtts(&mut e2e, 3, |v| v).unwrap(), [31.0, 44.5, 58.75]);
        let mut hop_rtts = blocks[HOP_BLOCKS.end - 1];
        assert_eq!(get_rtts(&mut hop_rtts, 4, |v| v).unwrap(), [2.5, 7.125, 1.0 / 3.0, 3.0]);
        assert_eq!(hop_rtts.remaining(), 0);
    }

    #[test]
    fn an_end_to_end_value_without_hops_is_corrupt() {
        let rows = edge_traces();
        let (body, _) = encode_traces(&rows, Provider::AmazonEc2);
        // Give the failed, hop-less row 1 an end-to-end value.
        let forged = rebuild(&body, |i, blk| {
            if i != END_TO_END {
                return blk.to_vec();
            }
            let mut col = Vec::new();
            put_bitmap(&mut col, [false, true, true, true, true]);
            put_rtts(&mut col, [12.5, 31.0, 44.5, 58.75].into_iter());
            col
        });
        let back = decode_traces(&forged, rows.len(), Platform::Speedchecker, Provider::AmazonEc2);
        assert!(matches!(back, Err(StoreError::Corrupt(_))), "{back:?}");
    }

    #[test]
    fn rtt_only_scans_skip_every_hop_block() {
        let rows: Vec<TracerouteRecord> = edge_traces().into_iter().cycle().take(40).collect();
        let (body, _) = encode_traces(&rows, Provider::AmazonEc2);
        let hopless = rebuild(&body, |i, blk| {
            if HOP_BLOCKS.contains(&i) { Vec::new() } else { blk.to_vec() }
        });
        assert!(hopless.len() < body.len());
        let kind = RecordKind::Trace;
        let scan = |body: &[u8], proj: ProjSpec, pred: &RowPred| {
            let mut got = Vec::new();
            let p = Provider::AmazonEc2;
            scan_chunk(kind, body, rows.len(), p, pred, proj, &mut |r| got.push(r)).map(|_| got)
        };
        let all = ProjSpec { isp: true, ..ProjSpec::rtt_row() };
        let bounded = RowPred { min_rtt_ms: Some(40.0), min_hour: Some(2), ..RowPred::default() };
        for (proj, pred) in [(ProjSpec::rtt_row(), RowPred::default()), (all, bounded)] {
            let intact = scan(&body, proj, &pred).unwrap();
            assert!(!intact.is_empty());
            assert_eq!(scan(&hopless, proj, &pred).unwrap(), intact);
        }
        let full = decode_traces(&hopless, rows.len(), Platform::Speedchecker, Provider::AmazonEc2);
        assert!(matches!(full, Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn corrupt_chunk_is_an_error_not_a_panic() {
        let rows: Vec<PingRecord> = (0..10).map(|i| ping(i, 1.0)).collect();
        let (body, _) = encode_pings(&rows, Provider::Google);
        // Truncation at every prefix length must decode to Err, not panic.
        for cut in 0..body.len().min(60) {
            assert!(decode_pings(&body[..cut], 10, Platform::Speedchecker, Provider::Google)
                .is_err());
        }
        // Row-count lies are also errors.
        assert!(decode_pings(&body, 11, Platform::Speedchecker, Provider::Google).is_err());
    }

    fn mixed_cloud_pings() -> Vec<CloudPingRecord> {
        (0..50)
            .map(|i| {
                let mut r = sample_cloud_ping(i, 12.0 + i as f64 * 0.5);
                r.outcome = match i % 5 {
                    0 => TaskOutcome::Lost,
                    1 => TaskOutcome::Timeout(900.0 + i as f64),
                    2 => TaskOutcome::ProbeOffline,
                    _ => r.outcome,
                };
                r
            })
            .collect()
    }

    #[test]
    fn cloud_chunk_round_trips() {
        let rows: Vec<CloudPingRecord> =
            (0..80).map(|i| sample_cloud_ping(i, 8.0 + i as f64 * 0.25)).collect();
        let (body, footer) = encode_cloud_pings(&rows, Provider::Google);
        assert_eq!(footer.kind, RecordKind::CloudPing);
        assert_eq!(footer.rows, 80);
        // Footer countries are the *source* regions' countries, deduped.
        let mut want: Vec<CountryCode> =
            rows.iter().filter_map(|r| region::by_id(r.src).map(|reg| reg.country())).collect();
        want.sort();
        want.dedup();
        assert_eq!(footer.countries, want);
        let back = decode_cloud_pings(&body, 80).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn faulted_cloud_chunk_round_trips() {
        let rows = mixed_cloud_pings();
        let (body, footer) = encode_cloud_pings(&rows, Provider::Google);
        // Failure payloads (timeout budgets) must not leak into the footer
        // RTT bounds.
        let (lo, hi) = footer.rtt_ms.unwrap();
        assert!(lo >= 12.0 && hi < 40.0, "failure payloads leaked into footer: {lo}..{hi}");
        let back = decode_cloud_pings(&body, rows.len()).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn cloud_scan_projects_source_and_destination() {
        let rows = mixed_cloud_pings();
        let (body, _) = encode_cloud_pings(&rows, Provider::Google);
        let proj = ProjSpec {
            country: true,
            region: true,
            isp: true,
            hour: true,
            route: true,
            src_provider: true,
            records: false,
        };
        let mut got = Vec::new();
        let (pred, kind) = (RowPred::default(), RecordKind::CloudPing);
        let scan = scan_chunk(kind, &body, rows.len(), Provider::Google, &pred, proj, &mut |r| {
            got.push(r)
        })
        .unwrap();
        let ok: Vec<&CloudPingRecord> = rows.iter().filter(|r| r.outcome.is_ok()).collect();
        assert_eq!(scan, ChunkScan::Scanned { matched: ok.len() as u64 });
        assert_eq!(got.len(), ok.len());
        for (p, r) in got.iter().zip(&ok) {
            let src = region::by_id(r.src).unwrap();
            assert_eq!(p.kind, RecordKind::CloudPing);
            assert_eq!(p.provider, Provider::Google, "provider is the destination partition");
            assert_eq!(p.region, r.dst, "region is the destination region");
            assert_eq!(p.country, src.country(), "country resolves from the source region");
            assert_eq!(p.isp, src.provider.asn(), "isp is the source provider's ASN");
            assert_eq!(p.route, Some(r.route));
            assert_eq!(p.src_provider, Some(src.provider));
            assert_eq!(Some(p.rtt_ms), r.rtt_ms());
            assert_eq!(p.hour, r.hour);
        }
    }

    #[test]
    fn cloud_scan_skips_unrequested_columns() {
        let rows = mixed_cloud_pings();
        let (body, _) = encode_cloud_pings(&rows, Provider::Google);
        let mut got = Vec::new();
        scan_chunk(
            RecordKind::CloudPing,
            &body,
            rows.len(),
            Provider::Google,
            &RowPred::default(),
            ProjSpec::default(),
            &mut |r| got.push(r),
        )
        .unwrap();
        let ok: Vec<&CloudPingRecord> = rows.iter().filter(|r| r.outcome.is_ok()).collect();
        assert_eq!(got.len(), ok.len());
        // Unrequested columns hold the documented placeholders, and the
        // RTT column still decodes correctly around the skipped blocks.
        for (p, r) in got.iter().zip(&ok) {
            assert_eq!(p.country, CountryCode::new("ZZ"));
            assert_eq!(p.region, RegionId(0));
            assert_eq!(p.isp, Asn(0));
            assert_eq!(p.hour, 0);
            assert_eq!(p.route, None);
            assert_eq!(p.src_provider, None);
            assert_eq!(Some(p.rtt_ms), r.rtt_ms());
        }
    }

    #[test]
    fn cloud_scan_filters_route_country_and_bounds() {
        let rows = mixed_cloud_pings();
        let (body, _) = encode_cloud_pings(&rows, Provider::Google);
        let ok: Vec<&CloudPingRecord> = rows.iter().filter(|r| r.outcome.is_ok()).collect();
        let kind = RecordKind::CloudPing;

        // Route filter, with the route column *not* projected: the
        // predicate alone must force the decode.
        let pred = RowPred { route: Some(RouteClass::PrivateWan), ..RowPred::default() };
        let mut n = 0u64;
        let none = ProjSpec::default();
        scan_chunk(kind, &body, rows.len(), Provider::Google, &pred, none, &mut |_| n += 1)
            .unwrap();
        assert_eq!(n, ok.iter().filter(|r| r.route == RouteClass::PrivateWan).count() as u64);

        // Country filter matches against the source region's country.
        let want = region::by_id(ok[0].src).unwrap().country();
        let pred = RowPred { country: Some(want), ..RowPred::default() };
        let mut n = 0u64;
        let none = ProjSpec::default();
        scan_chunk(kind, &body, rows.len(), Provider::Google, &pred, none, &mut |_| n += 1)
            .unwrap();
        let expect = ok
            .iter()
            .filter(|r| region::by_id(r.src).map(|reg| reg.country()) == Some(want))
            .count() as u64;
        assert!(n > 0);
        assert_eq!(n, expect);

        // RTT and hour bounds behave as for user rows.
        let pred = RowPred { min_rtt_ms: Some(20.0), min_hour: Some(3), ..RowPred::default() };
        let mut n = 0u64;
        let none = ProjSpec::default();
        scan_chunk(kind, &body, rows.len(), Provider::Google, &pred, none, &mut |_| n += 1)
            .unwrap();
        let expect =
            ok.iter().filter(|r| r.rtt_ms().unwrap_or(0.0) >= 20.0 && r.hour >= 3).count() as u64;
        assert_eq!(n, expect);
    }

    #[test]
    fn corrupt_cloud_chunk_is_an_error_not_a_panic() {
        let rows = mixed_cloud_pings();
        let (body, _) = encode_cloud_pings(&rows, Provider::Google);
        for cut in 0..body.len() {
            assert!(decode_cloud_pings(&body[..cut], rows.len()).is_err());
        }
        // Row-count lies and bogus route tags are errors too.
        assert!(decode_cloud_pings(&body, rows.len() + 1).is_err());
        let mut bad = body.clone();
        // Route block: after the two region delta blocks, one raw byte per
        // row. Corrupt its first payload byte to an undefined route tag.
        let mut cur = Cursor::new(&body);
        get_block(&mut cur).unwrap();
        get_block(&mut cur).unwrap();
        get_block(&mut cur).unwrap();
        let route_payload = body.len() - cur.remaining() - rows.len();
        bad[route_payload] = 7;
        assert!(decode_cloud_pings(&bad, rows.len()).is_err());
    }
}
