//! The typed query engine: the store's one scan surface for projected
//! rows and aggregates.
//!
//! A [`Query`] names predicates (kind, provider, country, ISP, RTT and
//! hour bounds), an optional group-by, and an aggregate set; a terminal
//! ([`Query::stream`], [`Query::rows`], [`Query::values`],
//! [`Query::grouped`], [`Query::summary`]) plans and executes it. Full
//! records are not a query concern: [`Reader::for_each`] decodes them.
//! The engine applies four pushdowns:
//!
//! * **Footer pushdown** — chunks whose directory footers cannot match
//!   (kind, provider, country set, RTT/hour bounds) are pruned without
//!   reading a byte of the chunk.
//! * **Dictionary pushdown** — country/ISP filters are resolved against
//!   each chunk's dictionary before the per-row columns decode: a value
//!   absent from the dictionary prunes the chunk, a present one is
//!   compared per row against the row's dictionary entry. ISP pruning is
//!   real chunk-level pruning the footers cannot express (footers carry no
//!   ISP set).
//! * **Projection pushdown** — only the columns the query names (for its
//!   output *or* its predicates) are decoded; everything else is skipped
//!   as length-prefixed blocks.
//! * **Aggregation pushdown** — grouped terminals fold rows into
//!   per-group Welford/P²/exact accumulators inside the scan; no row
//!   vector is ever materialized on the serial grouped path.
//!
//! Determinism contract: every terminal's result is bit-identical for any
//! `threads` value. Parallel workers produce per-shard buffers in
//! directory order; the merge folds them back in directory order, so each
//! accumulator sees the exact observation sequence the serial scan feeds
//! it. The `Query` plan is a runtime-only shape — it never serializes, so
//! the file format and `wire.lock` are untouched.

use crate::agg::{Moments, P2Quantile};
use crate::chunk::{self, ChunkMeta, ChunkScan, ProjRow, ProjSpec, RowPred, RttRow};
use crate::error::StoreError;
use crate::reader::{effective_workers, Reader, ScanFilter, ScanStats};
use crate::schema::RecordKind;
use cloudy_cloud::{Provider, RegionId, RouteClass};
use cloudy_geo::CountryCode;
use cloudy_obs::LocalShard;
use cloudy_topology::Asn;
use std::collections::BTreeMap;
use std::ops::BitOr;

/// What a grouped query groups rows by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKey {
    Provider,
    Country,
    Region,
    Isp,
    CountryProvider,
    CountryRegion,
    /// Inter-cloud rows by (route class, source provider, destination
    /// provider). Only meaningful over cloud chunks; grouped terminals
    /// reject it unless the query is restricted to [`RecordKind::CloudPing`].
    RouteProviderPair,
}

/// One group's identity in a grouped result. Ordered (and `BTreeMap`-keyed)
/// so grouped results iterate deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupId {
    Provider(Provider),
    Country(CountryCode),
    Region(RegionId),
    Isp(Asn),
    CountryProvider(CountryCode, Provider),
    CountryRegion(CountryCode, RegionId),
    /// (route class, source provider, destination provider).
    RoutePair(RouteClass, Provider, Provider),
}

/// One aggregate a grouped query can compute. Combine with `|`:
/// `Agg::Moments | Agg::P2Quantiles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Welford mean/variance (exact, O(1) per group).
    Moments,
    /// P² p50/p95 estimates (approximate, O(1) per group).
    P2Quantiles,
    /// Keep each group's values for exact sorted-rank quantiles
    /// (O(rows) memory — the only aggregate that materializes values).
    ExactQuantiles,
}

/// A set of [`Agg`]s. Defaults to `Moments | P2Quantiles` — the O(groups)
/// memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSet {
    pub moments: bool,
    pub p2: bool,
    pub exact: bool,
}

impl Default for AggSet {
    fn default() -> AggSet {
        AggSet { moments: true, p2: true, exact: false }
    }
}

impl From<Agg> for AggSet {
    fn from(a: Agg) -> AggSet {
        let mut s = AggSet { moments: false, p2: false, exact: false };
        s.set(a);
        s
    }
}

impl AggSet {
    fn set(&mut self, a: Agg) {
        match a {
            Agg::Moments => self.moments = true,
            Agg::P2Quantiles => self.p2 = true,
            Agg::ExactQuantiles => self.exact = true,
        }
    }
}

impl BitOr for Agg {
    type Output = AggSet;
    fn bitor(self, rhs: Agg) -> AggSet {
        let mut s: AggSet = self.into();
        s.set(rhs);
        s
    }
}

impl BitOr<Agg> for AggSet {
    type Output = AggSet;
    fn bitor(mut self, rhs: Agg) -> AggSet {
        self.set(rhs);
        self
    }
}

/// One group's aggregates. Fields are `Some` iff the matching [`Agg`] was
/// requested (and, for the quantile estimates, the group is non-empty).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    pub count: u64,
    pub moments: Option<Moments>,
    /// P² median estimate.
    pub p50: Option<f64>,
    /// P² 95th-percentile estimate.
    pub p95: Option<f64>,
    /// The group's values in scan (directory) order, for exact quantiles.
    pub values: Option<Vec<f64>>,
}

/// A grouped query result: deterministic iteration order by [`GroupId`].
pub type GroupTable = BTreeMap<GroupId, GroupRow>;

/// Streaming per-group accumulator driven by an [`AggSet`].
struct GroupAccum {
    count: u64,
    moments: Moments,
    p50: P2Quantile,
    p95: P2Quantile,
    values: Vec<f64>,
}

impl GroupAccum {
    fn new() -> GroupAccum {
        GroupAccum {
            count: 0,
            moments: Moments::default(),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            values: Vec::new(),
        }
    }

    fn observe(&mut self, agg: AggSet, x: f64) {
        self.count += 1;
        if agg.moments {
            self.moments.observe(x);
        }
        if agg.p2 {
            self.p50.observe(x);
            self.p95.observe(x);
        }
        if agg.exact {
            self.values.push(x);
        }
    }

    fn finish(self, agg: AggSet) -> GroupRow {
        GroupRow {
            count: self.count,
            moments: agg.moments.then_some(self.moments),
            p50: if agg.p2 { self.p50.estimate() } else { None },
            p95: if agg.p2 { self.p95.estimate() } else { None },
            values: agg.exact.then_some(self.values),
        }
    }
}

/// A typed, composable scan over a store file. Build with [`Query::rtts`],
/// refine with the builder methods, execute with a terminal. See the
/// module docs for the pushdown and determinism contracts.
///
/// ```no_run
/// # use cloudy_store::{Agg, GroupKey, Query, Reader};
/// # use cloudy_cloud::Provider;
/// # fn demo(reader: &Reader) -> Result<(), cloudy_store::StoreError> {
/// let (groups, stats) = Query::rtts()
///     .provider(Provider::Google)
///     .group_by(GroupKey::CountryProvider)
///     .aggregate(Agg::Moments | Agg::P2Quantiles)
///     .threads(8)
///     .grouped(reader)?;
/// # let _ = (groups, stats); Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    ping: bool,
    trace: bool,
    cloud: bool,
    provider: Option<Provider>,
    route: Option<RouteClass>,
    country: Option<CountryCode>,
    isp: Option<Asn>,
    min_rtt_ms: Option<f64>,
    max_rtt_ms: Option<f64>,
    min_hour: Option<u64>,
    max_hour: Option<u64>,
    threads: usize,
    group_by: Option<GroupKey>,
    agg: AggSet,
}

impl Default for Query {
    fn default() -> Query {
        Query::rtts()
    }
}

impl Query {
    /// A query over all RTT-bearing rows of both record kinds.
    pub fn rtts() -> Query {
        Query {
            ping: true,
            trace: true,
            cloud: true,
            provider: None,
            route: None,
            country: None,
            isp: None,
            min_rtt_ms: None,
            max_rtt_ms: None,
            min_hour: None,
            max_hour: None,
            threads: 1,
            group_by: None,
            agg: AggSet::default(),
        }
    }

    /// Restrict to exactly one record kind.
    pub fn kind(mut self, kind: RecordKind) -> Query {
        self.ping = kind == RecordKind::Ping;
        self.trace = kind == RecordKind::Trace;
        self.cloud = kind == RecordKind::CloudPing;
        self
    }

    /// Restrict to the listed record kinds (an empty list matches nothing).
    pub fn kinds(mut self, kinds: &[RecordKind]) -> Query {
        self.ping = kinds.contains(&RecordKind::Ping);
        self.trace = kinds.contains(&RecordKind::Trace);
        self.cloud = kinds.contains(&RecordKind::CloudPing);
        self
    }

    /// Filter inter-cloud rows to one route class. Only cloud rows carry a
    /// route, so this also restricts the query to
    /// [`RecordKind::CloudPing`] chunks.
    pub fn route(mut self, route: RouteClass) -> Query {
        self.route = Some(route);
        self.ping = false;
        self.trace = false;
        self.cloud = true;
        self
    }

    pub fn provider(mut self, p: Provider) -> Query {
        self.provider = Some(p);
        self
    }

    pub fn country(mut self, c: CountryCode) -> Query {
        self.country = Some(c);
        self
    }

    /// Filter on the probe's ISP (ASN). Resolved against each chunk's ISP
    /// dictionary: chunks whose dictionary lacks the ASN are pruned before
    /// any per-row column decodes.
    pub fn isp(mut self, asn: Asn) -> Query {
        self.isp = Some(asn);
        self
    }

    pub fn min_rtt_ms(mut self, ms: f64) -> Query {
        self.min_rtt_ms = Some(ms);
        self
    }

    pub fn max_rtt_ms(mut self, ms: f64) -> Query {
        self.max_rtt_ms = Some(ms);
        self
    }

    /// Inclusive campaign-hour window.
    pub fn hours(mut self, lo: u64, hi: u64) -> Query {
        self.min_hour = Some(lo);
        self.max_hour = Some(hi);
        self
    }

    /// Decode survivor chunks on up to `threads` workers. Results are
    /// bit-identical for any value; only wall time changes.
    pub fn threads(mut self, threads: usize) -> Query {
        self.threads = threads;
        self
    }

    pub fn group_by(mut self, key: GroupKey) -> Query {
        self.group_by = Some(key);
        self
    }

    /// Which aggregates [`Query::grouped`] / [`Query::summary`] compute.
    pub fn aggregate(mut self, agg: impl Into<AggSet>) -> Query {
        self.agg = agg.into();
        self
    }

    /// The footer-pruning view of this query (no ISP term: footers carry
    /// no ISP set, so ISP pruning happens at the dictionary instead).
    fn scan_filter(&self) -> ScanFilter {
        ScanFilter {
            kind: match (self.ping, self.trace, self.cloud) {
                (true, false, false) => Some(RecordKind::Ping),
                (false, true, false) => Some(RecordKind::Trace),
                (false, false, true) => Some(RecordKind::CloudPing),
                _ => None,
            },
            provider: self.provider,
            country: self.country,
            min_rtt_ms: self.min_rtt_ms,
            max_rtt_ms: self.max_rtt_ms,
            min_hour: self.min_hour,
            max_hour: self.max_hour,
        }
    }

    /// The row/dictionary-level predicate for the chunk kernels.
    fn row_pred(&self) -> RowPred {
        RowPred {
            country: self.country,
            isp: self.isp,
            min_rtt_ms: self.min_rtt_ms,
            max_rtt_ms: self.max_rtt_ms,
            min_hour: self.min_hour,
            max_hour: self.max_hour,
            route: self.route,
        }
    }

    fn kind_enabled(&self, kind: RecordKind) -> bool {
        match kind {
            RecordKind::Ping => self.ping,
            RecordKind::Trace => self.trace,
            RecordKind::CloudPing => self.cloud,
        }
    }

    /// Footer-level plan: the survivor chunks, initial stats, and the
    /// effective worker count.
    fn plan<'a>(&self, reader: &'a Reader) -> (Vec<&'a ChunkMeta>, ScanStats, usize) {
        let filter = self.scan_filter();
        let mut stats = ScanStats { chunks_total: reader.chunks().len(), ..Default::default() };
        let survivors: Vec<&ChunkMeta> = reader
            .chunks()
            .iter()
            .filter(|m| self.kind_enabled(m.footer.kind) && filter.matches_chunk(m))
            .collect();
        stats.chunks_pruned = stats.chunks_total - survivors.len();
        let workers = effective_workers(self.threads, survivors.len());
        (survivors, stats, workers)
    }

    /// Stream the projected rows matching this query through `f`,
    /// sequentially, without materializing anything. The cheapest terminal
    /// for one-pass consumers; `threads` is ignored (use [`Query::rows`]
    /// or [`Query::grouped`] for parallel scans).
    pub fn stream(
        &self,
        reader: &Reader,
        mut f: impl FnMut(ProjRow),
    ) -> Result<ScanStats, StoreError> {
        let (survivors, mut stats, _) = self.plan(reader);
        let pred = self.row_pred();
        let proj = ProjSpec::rtt_row();
        let span = reader.obs_handle().now();
        for m in &survivors {
            let scan = scan_chunk(reader, m, &pred, proj, &mut f)?;
            apply_scan(&mut stats, m, scan);
        }
        reader.obs_handle().record_span("store.scan", span, 0);
        reader.export_scan_stats(&stats);
        Ok(stats)
    }

    /// Materialize the matching rows of the [`RttRow`] projection, in
    /// directory order, identical for any thread count.
    pub fn rows(&self, reader: &Reader) -> Result<(Vec<RttRow>, ScanStats), StoreError> {
        let (survivors, stats, workers) = self.plan(reader);
        let pred = self.row_pred();
        let proj = ProjSpec::rtt_row();
        let (shards, stats) = run_scan(
            reader,
            &survivors,
            stats,
            workers,
            &pred,
            proj,
            Vec::with_capacity,
            |out: &mut Vec<RttRow>, row| out.push(row.to_rtt_row()),
        )?;
        let mut out = Vec::with_capacity(shards.iter().map(Vec::len).sum());
        for mut shard in shards {
            out.append(&mut shard);
        }
        Ok((out, stats))
    }

    /// Materialize just the matching RTT values (no other column decoded
    /// beyond what the predicates need), in directory order. Feeds exact
    /// quantile code: the multiset and order equal a full decode followed
    /// by a hand-written projection, bit for bit.
    pub fn values(&self, reader: &Reader) -> Result<(Vec<f64>, ScanStats), StoreError> {
        let (survivors, stats, workers) = self.plan(reader);
        let pred = self.row_pred();
        let proj = ProjSpec::default();
        let (shards, stats) = run_scan(
            reader,
            &survivors,
            stats,
            workers,
            &pred,
            proj,
            Vec::with_capacity,
            |out: &mut Vec<f64>, row| out.push(row.rtt_ms),
        )?;
        let mut out = Vec::with_capacity(shards.iter().map(Vec::len).sum());
        for mut shard in shards {
            out.append(&mut shard);
        }
        Ok((out, stats))
    }

    /// Execute the group-by with aggregation pushed into the scan. The
    /// serial path streams every row straight into its group's
    /// accumulator — no row vector exists at any point (unless
    /// [`Agg::ExactQuantiles`] asks for per-group values). Parallel
    /// workers emit `(group, value)` pairs per shard; the merge folds the
    /// shards back in directory order, so every accumulator sees the
    /// serial observation sequence and the result is bit-identical for
    /// any thread count.
    ///
    /// Errors unless [`Query::group_by`] was set.
    pub fn grouped(&self, reader: &Reader) -> Result<(GroupTable, ScanStats), StoreError> {
        let Some(key) = self.group_by else {
            return Err(StoreError::invalid_options("grouped() requires group_by".to_string()));
        };
        if key == GroupKey::RouteProviderPair && (self.ping || self.trace) {
            return Err(StoreError::invalid_options(
                "RouteProviderPair groups inter-cloud rows only; restrict the query with \
                 .kind(RecordKind::CloudPing) or .route(..)",
            ));
        }
        let agg = self.agg;
        let (survivors, stats, workers) = self.plan(reader);
        let pred = self.row_pred();
        let proj = group_proj(key);
        let mut groups: BTreeMap<GroupId, GroupAccum> = BTreeMap::new();
        let stats = if workers <= 1 {
            let span = reader.obs_handle().now();
            let mut stats = stats;
            for m in &survivors {
                let scan = scan_chunk(reader, m, &pred, proj, &mut |row: ProjRow| {
                    groups
                        .entry(group_id(key, &row))
                        .or_insert_with(GroupAccum::new)
                        .observe(agg, row.rtt_ms);
                })?;
                apply_scan(&mut stats, m, scan);
            }
            reader.obs_handle().record_span("store.scan", span, 0);
            reader.export_scan_stats(&stats);
            stats
        } else {
            let (shards, stats) = run_scan(
                reader,
                &survivors,
                stats,
                workers,
                &pred,
                proj,
                Vec::with_capacity,
                |out: &mut Vec<(GroupId, f64)>, row| out.push((group_id(key, &row), row.rtt_ms)),
            )?;
            for shard in shards {
                for (id, x) in shard {
                    groups.entry(id).or_insert_with(GroupAccum::new).observe(agg, x);
                }
            }
            stats
        };
        let table: GroupTable = groups.into_iter().map(|(k, a)| (k, a.finish(agg))).collect();
        Ok((table, stats))
    }

    /// One ungrouped [`GroupRow`] over every matching row — the whole
    /// query folded into a single accumulator, observation order equal to
    /// the serial scan for any thread count.
    pub fn summary(&self, reader: &Reader) -> Result<(GroupRow, ScanStats), StoreError> {
        let agg = self.agg;
        let (survivors, stats, workers) = self.plan(reader);
        let pred = self.row_pred();
        let proj = ProjSpec::default();
        let mut acc = GroupAccum::new();
        let stats = if workers <= 1 {
            let span = reader.obs_handle().now();
            let mut stats = stats;
            for m in &survivors {
                let scan = scan_chunk(reader, m, &pred, proj, &mut |row: ProjRow| {
                    acc.observe(agg, row.rtt_ms);
                })?;
                apply_scan(&mut stats, m, scan);
            }
            reader.obs_handle().record_span("store.scan", span, 0);
            reader.export_scan_stats(&stats);
            stats
        } else {
            let (shards, stats) = run_scan(
                reader,
                &survivors,
                stats,
                workers,
                &pred,
                proj,
                Vec::with_capacity,
                |out: &mut Vec<f64>, row| out.push(row.rtt_ms),
            )?;
            for shard in shards {
                for x in shard {
                    acc.observe(agg, x);
                }
            }
            stats
        };
        Ok((acc.finish(agg), stats))
    }
}

/// The columns a group key needs decoded.
fn group_proj(key: GroupKey) -> ProjSpec {
    let mut proj = ProjSpec::default();
    match key {
        GroupKey::Provider => {}
        GroupKey::Country => proj.country = true,
        GroupKey::Region => proj.region = true,
        GroupKey::Isp => proj.isp = true,
        GroupKey::CountryProvider => proj.country = true,
        GroupKey::CountryRegion => {
            proj.country = true;
            proj.region = true;
        }
        GroupKey::RouteProviderPair => {
            proj.route = true;
            proj.src_provider = true;
        }
    }
    proj
}

fn group_id(key: GroupKey, row: &ProjRow) -> GroupId {
    match key {
        GroupKey::Provider => GroupId::Provider(row.provider),
        GroupKey::Country => GroupId::Country(row.country),
        GroupKey::Region => GroupId::Region(row.region),
        GroupKey::Isp => GroupId::Isp(row.isp),
        GroupKey::CountryProvider => GroupId::CountryProvider(row.country, row.provider),
        GroupKey::CountryRegion => GroupId::CountryRegion(row.country, row.region),
        // Ping/trace rows carry no route or source provider; grouped()
        // rejects this key unless the query is cloud-only, so these
        // fallbacks never reach a result.
        GroupKey::RouteProviderPair => GroupId::RoutePair(
            row.route.unwrap_or(RouteClass::PrivateWan),
            row.src_provider.unwrap_or(row.provider),
            row.provider,
        ),
    }
}

/// Scan one survivor chunk with the pushdown kernel.
fn scan_chunk(
    reader: &Reader,
    m: &ChunkMeta,
    pred: &RowPred,
    proj: ProjSpec,
    emit: &mut impl FnMut(ProjRow),
) -> Result<ChunkScan, StoreError> {
    let f = &m.footer;
    chunk::scan_chunk(f.kind, reader.body_of(m), f.rows as usize, f.provider, pred, proj, emit)
}

/// Fold one chunk's scan outcome into the stats: a dictionary-pruned chunk
/// counts as pruned (its rows never decoded), a scanned one as decoded.
fn apply_scan(stats: &mut ScanStats, m: &ChunkMeta, scan: ChunkScan) {
    match scan {
        ChunkScan::Pruned => stats.chunks_pruned += 1,
        ChunkScan::Scanned { matched } => {
            stats.chunks_scanned += 1;
            stats.rows_decoded += m.footer.rows;
            stats.rows_matched += matched;
        }
    }
}

/// One parallel worker's output: per-chunk scan outcomes aligned with its
/// shard, the shard accumulator, and the worker's metric shard.
type WorkerOut<A> = (Result<(Vec<ChunkScan>, A), StoreError>, LocalShard);

/// Shared scan driver: run the pushdown kernel over the survivors into
/// per-shard accumulators. One effective worker runs inline on the
/// caller's thread (span tid 0, like [`Reader::for_each`]); otherwise shards
/// are scanned on crossbeam scoped threads and merged in worker order, so
/// the returned shard list concatenates to directory order and obs
/// snapshots stay deterministic.
#[allow(clippy::too_many_arguments)]
fn run_scan<A, Mk, Em>(
    reader: &Reader,
    survivors: &[&ChunkMeta],
    mut stats: ScanStats,
    workers: usize,
    pred: &RowPred,
    proj: ProjSpec,
    make: Mk,
    emit: Em,
) -> Result<(Vec<A>, ScanStats), StoreError>
where
    A: Send,
    Mk: Fn(usize) -> A + Sync,
    Em: Fn(&mut A, ProjRow) + Sync,
{
    // At most the file size: `Reader::from_bytes` rejects chunks that
    // overlap or hold more rows than bytes.
    let row_cap =
        |chunks: &[&ChunkMeta]| chunks.iter().map(|m| m.footer.rows as usize).sum::<usize>();

    if workers <= 1 {
        let span = reader.obs_handle().now();
        let mut acc = make(row_cap(survivors));
        for m in survivors {
            let scan = scan_chunk(reader, m, pred, proj, &mut |row| emit(&mut acc, row))?;
            apply_scan(&mut stats, m, scan);
        }
        reader.obs_handle().record_span("store.scan", span, 0);
        reader.export_scan_stats(&stats);
        return Ok((vec![acc], stats));
    }

    let per = survivors.len().div_ceil(workers).max(1);
    let shards: Vec<&[&ChunkMeta]> = survivors.chunks(per).collect();
    let shard_results: Vec<WorkerOut<A>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(w, shard)| {
                let make = &make;
                let emit = &emit;
                let mut obs_shard = reader.obs_handle().local();
                s.spawn(move |_| {
                    let span = obs_shard.now();
                    let mut acc = make(row_cap(shard));
                    let mut scans = Vec::with_capacity(shard.len());
                    let mut res = Ok(());
                    for m in *shard {
                        match scan_chunk(reader, m, pred, proj, &mut |row| emit(&mut acc, row)) {
                            Ok(scan) => scans.push(scan),
                            Err(e) => {
                                res = Err(e);
                                break;
                            }
                        }
                    }
                    // The worker index is bounded by the thread count; the tid is a
                    // trace label, not a wire field.
                    obs_shard.record_span("store.scan", span, w as u32 + 1); // audit:allow(as-truncate)
                    (res.map(|()| (scans, acc)), obs_shard)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("scan worker panicked")).collect() // audit:allow(expect)
    })
    .expect("crossbeam scope"); // audit:allow(expect)

    let mut accs = Vec::with_capacity(shards.len());
    let mut first_err = None;
    for (shard, (res, obs_shard)) in shards.iter().zip(shard_results) {
        reader.obs_handle().merge(obs_shard);
        match res {
            Ok((scans, acc)) => {
                for (m, scan) in shard.iter().zip(scans) {
                    apply_scan(&mut stats, m, scan);
                }
                accs.push(acc);
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    reader.export_scan_stats(&stats);
    Ok((accs, stats))
}
