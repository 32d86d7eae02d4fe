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
//! * **Footer pushdown** — chunks whose frame footers cannot match
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
//!   per-group Welford/P²/exact accumulators inside the scan. A scan
//!   worker maps each row's group to a dense slot (first-seen order,
//!   through a per-worker hash map) and buffers one 16-byte `(slot,
//!   value)` pair per matched row. One worker folds its buffer after every
//!   chunk, so a serial group-by holds O(groups) plus one chunk; `n`
//!   workers buffer their whole shards, at most 16 B per matched row.
//!
//! Parallel scans cut the survivor chunks into contiguous shards of about
//! equal body bytes, one per worker. Determinism contract: every
//! terminal's result is bit-identical for any `threads` value. Row
//! terminals append the shards' buffers in directory order. Grouped
//! terminals fold on the same worker threads once every shard is
//! scanned: the sorted union of the shards' groups is cut into contiguous
//! ranges of about equal row counts, and each worker walks every shard's
//! buffer in directory order, folding only the groups in its range. P² is
//! order-sensitive only *within* a group, so each accumulator still sees
//! the exact observation sequence the serial scan feeds it. The `Query`
//! plan is a runtime-only shape — it never serializes, so the file format
//! and `wire.lock` are untouched.

use crate::agg::{Moments, P2Quantile};
use crate::chunk::{self, ChunkMeta, ChunkScan, ProjRow, ProjSpec, RowPred, RttRow};
use crate::error::StoreError;
use crate::reader::{effective_workers, Reader, ScanFilter, ScanStats};
use crate::schema::RecordKind;
use cloudy_cloud::{Provider, RegionId, RouteClass};
use cloudy_geo::CountryCode;
use cloudy_obs::LocalShard;
use cloudy_topology::Asn;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::ops::{BitOr, Range};
use std::sync::{Barrier, OnceLock};

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
/// so grouped results iterate deterministically; hashed only by a scan's
/// private group-slot maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

    /// Plan a scan: the footer survivors, the stats so far, the clamped
    /// worker count, and the kernel's predicate and projection.
    fn plan<'a>(&self, reader: &'a Reader, proj: ProjSpec) -> Scan<'a> {
        let filter = self.scan_filter();
        let mut stats = ScanStats { chunks_total: reader.chunks().len(), ..Default::default() };
        let survivors: Vec<&ChunkMeta> = reader
            .chunks()
            .iter()
            .filter(|m| self.kind_enabled(m.footer.kind) && filter.matches_chunk(m))
            .collect();
        stats.chunks_pruned = stats.chunks_total - survivors.len();
        let workers = effective_workers(self.threads, survivors.len());
        Scan { reader, survivors, stats, workers, pred: self.row_pred(), proj }
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
        let Scan { survivors, mut stats, pred, proj, .. } = self.plan(reader, ProjSpec::rtt_row());
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
        self.collect(reader, ProjSpec::rtt_row(), |out, row| out.push(row.to_rtt_row()))
    }

    /// Materialize just the matching RTT values (no other column decoded
    /// beyond what the predicates need), in directory order. Feeds exact
    /// quantile code: the multiset and order equal a full decode followed
    /// by a hand-written projection, bit for bit.
    pub fn values(&self, reader: &Reader) -> Result<(Vec<f64>, ScanStats), StoreError> {
        self.collect(reader, ProjSpec::default(), |out, row| out.push(row.rtt_ms))
    }

    /// [`Query::rows`] and [`Query::values`]: per-shard vectors, appended
    /// in directory order.
    fn collect<T: Send + Sync>(
        &self,
        reader: &Reader,
        proj: ProjSpec,
        emit: impl Fn(&mut Vec<T>, ProjRow) + Sync,
    ) -> Result<(Vec<T>, ScanStats), StoreError> {
        let (shards, _, stats): (_, Vec<()>, _) =
            self.plan(reader, proj).run(Vec::with_capacity, emit, None)?;
        let mut shards = shards.into_iter();
        let mut out = shards.next().unwrap_or_default();
        for mut shard in shards {
            out.append(&mut shard);
        }
        Ok((out, stats))
    }

    /// Execute the group-by with aggregation pushed into the scan. Each
    /// scan worker gives every group it meets a dense slot, numbered in
    /// first-seen order, and buffers one `(slot, value)` pair per matched
    /// row; no ordered map is touched per row. One worker folds its buffer
    /// into the groups' accumulators after every chunk, so memory stays
    /// O(groups) plus one chunk (unless [`Agg::ExactQuantiles`] asks for
    /// per-group values). `n` workers buffer their whole shards (at most
    /// 16 B per matched row), then each folds a contiguous range of the
    /// sorted groups holding about 1/n of the rows, walking every shard's
    /// buffer in directory order. Either way every accumulator sees the
    /// serial observation sequence, so the result is bit-identical for any
    /// thread count.
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
        let (groups, stats) =
            self.plan(reader, group_proj(key)).fold_groups(self.agg, |row| group_id(key, row))?;
        Ok((groups.into_iter().collect(), stats))
    }

    /// One ungrouped [`GroupRow`] over every matching row: the one-group
    /// case of [`Query::grouped`]'s scan and fold, so its observation
    /// order equals the serial scan for any thread count.
    pub fn summary(&self, reader: &Reader) -> Result<(GroupRow, ScanStats), StoreError> {
        let (groups, stats) = self.plan(reader, ProjSpec::default()).fold_groups(self.agg, |_| ())?;
        let row = groups.into_iter().next().map(|((), row)| row);
        Ok((row.unwrap_or_else(|| GroupAccum::new().finish(self.agg)), stats))
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

/// A planned scan (see [`Query::plan`]): what [`Scan::run`] executes.
struct Scan<'a> {
    reader: &'a Reader,
    survivors: Vec<&'a ChunkMeta>,
    stats: ScanStats,
    workers: usize,
    pred: RowPred,
    proj: ProjSpec,
}

/// What one call of a scan's fold sees.
enum FoldIn<'s, A> {
    /// One worker: its shard, right after each chunk's scan.
    Chunk(&'s mut A),
    /// Worker `w` of `shards.len()`, once every shard is scanned: all the
    /// shards, in directory order.
    Shards { w: usize, shards: &'s [&'s A] },
}

/// A scan's fold: feeds shards into a per-worker part.
type Fold<'f, A, B> = &'f (dyn Fn(&mut B, FoldIn<'_, A>) + Sync);

/// One parallel worker's output: per-chunk scan outcomes aligned with its
/// shard, its fold part (when every shard scanned cleanly), and its metric
/// shard. The shard itself is left in the worker's cell for the folds.
type WorkerOut<B> = (Result<Vec<ChunkScan>, StoreError>, Option<B>, LocalShard);

/// Waits at the barrier when dropped, so a worker that panics mid-scan
/// still releases the others; its panic then surfaces at `join`.
struct Arrive<'a>(&'a Barrier);

impl Drop for Arrive<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

impl Scan<'_> {
    /// The one scan driver: run the pushdown kernel over the survivors
    /// into per-shard accumulators made by `make` (given a row capacity)
    /// and filled by `emit`, then `fold` them into per-worker parts.
    ///
    /// One effective worker runs inline on the caller's thread (span tid
    /// 0, like [`Reader::for_each`]) and folds after every chunk. Otherwise
    /// the survivors are cut into contiguous shards of about equal body
    /// bytes and scanned on scoped threads; once every shard is
    /// scanned, each of the same threads folds once. Shards, parts and
    /// metric shards come back in worker order, so they concatenate to
    /// directory order and obs snapshots stay deterministic. Each fold
    /// call is a `store.fold` span on its worker's tid.
    fn run<A, B>(
        self,
        make: impl Fn(usize) -> A + Sync,
        emit: impl Fn(&mut A, ProjRow) + Sync,
        fold: Option<Fold<'_, A, B>>,
    ) -> Result<(Vec<A>, Vec<B>, ScanStats), StoreError>
    where
        A: Send + Sync,
        B: Default + Send,
    {
        let Scan { reader, survivors, mut stats, workers, pred, proj } = self;
        let obs = reader.obs_handle();
        // At most the file size: `Reader::from_bytes` rejects chunks that
        // overlap or hold more rows than bytes.
        let row_cap =
            |chunks: &[&ChunkMeta]| chunks.iter().map(|m| m.footer.rows as usize).sum::<usize>();

        if workers <= 1 {
            let span = obs.now();
            // A folded shard is drained after every chunk.
            let cap = match fold {
                Some(_) => survivors.iter().map(|m| m.footer.rows as usize).max().unwrap_or(0),
                None => row_cap(&survivors),
            };
            let mut acc = make(cap);
            let mut part = B::default();
            for m in &survivors {
                let scan = scan_chunk(reader, m, &pred, proj, &mut |row| emit(&mut acc, row))?;
                apply_scan(&mut stats, m, scan);
                if let Some(fold) = fold {
                    let span = obs.now();
                    fold(&mut part, FoldIn::Chunk(&mut acc));
                    obs.record_span("store.fold", span, 0);
                }
            }
            obs.record_span("store.scan", span, 0);
            reader.export_scan_stats(&stats);
            return Ok((vec![acc], vec![part], stats));
        }

        let bytes: Vec<u64> = survivors.iter().map(|m| m.len).collect();
        let shards: Vec<&[&ChunkMeta]> = weighted_cuts(&bytes, workers)
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(|r| &survivors[r])
            .collect();
        let cells: Vec<OnceLock<A>> = shards.iter().map(|_| OnceLock::new()).collect();
        let barrier = Barrier::new(shards.len());
        let results: Vec<WorkerOut<B>> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(w, shard)| {
                    let (make, emit, pred) = (&make, &emit, &pred);
                    let (cells, barrier) = (&cells, &barrier);
                    let mut obs_shard = obs.local();
                    s.spawn(move || {
                        // Trace lanes: 0 is the caller, workers count from 1.
                        let tid = u32::try_from(w + 1).unwrap_or(u32::MAX);
                        let scans = {
                            let _arrive = fold.map(|_| Arrive(barrier));
                            let span = obs_shard.now();
                            let mut acc = make(row_cap(shard));
                            let mut emit = |row| emit(&mut acc, row);
                            let scans = shard
                                .iter()
                                .map(|m| scan_chunk(reader, m, pred, proj, &mut emit))
                                .collect::<Result<Vec<_>, _>>();
                            obs_shard.record_span("store.scan", span, tid);
                            if scans.is_ok() {
                                cells[w].get_or_init(|| acc);
                            }
                            scans
                        };
                        // A shard that failed to scan leaves its cell empty:
                        // then no worker folds, and the error is returned.
                        let part = fold.and_then(|fold| {
                            let all: Vec<&A> =
                                cells.iter().map(OnceLock::get).collect::<Option<_>>()?;
                            let span = obs_shard.now();
                            let mut part = B::default();
                            fold(&mut part, FoldIn::Shards { w, shards: &all });
                            obs_shard.record_span("store.fold", span, tid);
                            Some(part)
                        });
                        (scans, part, obs_shard)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
        });

        let (mut accs, mut parts) = (Vec::with_capacity(shards.len()), Vec::new());
        let mut first_err = None;
        for ((shard, cell), (scans, part, obs_shard)) in shards.iter().zip(cells).zip(results) {
            obs.merge(obs_shard);
            match scans {
                Ok(scans) => {
                    for (m, scan) in shard.iter().zip(scans) {
                        apply_scan(&mut stats, m, scan);
                    }
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
            accs.extend(cell.into_inner());
            parts.extend(part);
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        reader.export_scan_stats(&stats);
        Ok((accs, parts, stats))
    }

    /// [`Query::grouped`] and [`Query::summary`]'s driver: scan into dense
    /// per-worker group slots keyed by `key`, fold every slot's values into
    /// its group's accumulator, and return each group's finished row (in no
    /// particular order). See [`Query::grouped`] for the fold's shape.
    fn fold_groups<K>(
        self,
        agg: AggSet,
        key: impl Fn(&ProjRow) -> K + Sync,
    ) -> Result<(Vec<(K, GroupRow)>, ScanStats), StoreError>
    where
        K: Copy + Ord + Hash + Send + Sync,
    {
        let plan = OnceLock::new();
        let fold = |part: &mut Vec<(K, GroupAccum)>, input: FoldIn<'_, Slots<K>>| match input {
            FoldIn::Chunk(slots) => {
                // One worker: slots are the accumulators' indices.
                part.extend(slots.keys[part.len()..].iter().map(|&k| (k, GroupAccum::new())));
                fold_pairs(agg, &slots.pairs, |slot| slot, 0, part);
                slots.pairs.clear();
            }
            FoldIn::Shards { w, shards } => {
                let plan = plan.get_or_init(|| FoldPlan::new(shards));
                let mine = plan.cuts[w].clone();
                if mine.is_empty() {
                    return;
                }
                part.extend(plan.keys[mine.clone()].iter().map(|&k| (k, GroupAccum::new())));
                for (shard, ranks) in shards.iter().zip(&plan.ranks) {
                    fold_pairs(agg, &shard.pairs, |slot| ranks[slot], mine.start, part);
                }
            }
        };
        let (_, parts, stats) = self.run(
            Slots::with_capacity,
            |slots: &mut Slots<K>, row| slots.push(key(&row), row.rtt_ms),
            Some(&fold),
        )?;
        let groups = parts.into_iter().flatten().map(|(k, acc)| (k, acc.finish(agg))).collect();
        Ok((groups, stats))
    }
}

/// One scan worker's dense group slots: each new key gets the next slot,
/// and every matched row buffers one `(slot, value)` pair in scan order.
/// The index keeps std's seeded hasher: keys come from the file.
struct Slots<K> {
    index: HashMap<K, usize>,
    keys: Vec<K>,
    /// Matched rows per slot: the fold's load-balancing weights.
    rows: Vec<u64>,
    pairs: Vec<(usize, f64)>,
}

impl<K: Copy + Eq + Hash> Slots<K> {
    fn with_capacity(rows: usize) -> Slots<K> {
        Slots {
            index: HashMap::default(),
            keys: Vec::new(),
            rows: Vec::new(),
            pairs: Vec::with_capacity(rows),
        }
    }

    fn push(&mut self, key: K, x: f64) {
        let next = self.keys.len();
        let slot = *self.index.entry(key).or_insert(next);
        if slot == next {
            self.keys.push(key);
            self.rows.push(0);
        }
        self.rows[slot] += 1;
        self.pairs.push((slot, x));
    }
}

/// The parallel fold's plan, built once after every shard is scanned.
struct FoldPlan<K> {
    /// The union of the shards' keys, sorted: the result order.
    keys: Vec<K>,
    /// Per shard, each slot's rank in `keys`.
    ranks: Vec<Vec<usize>>,
    /// Per worker, the ranks it folds: about equal matched rows each.
    cuts: Vec<Range<usize>>,
}

impl<K: Copy + Ord> FoldPlan<K> {
    fn new(shards: &[&Slots<K>]) -> FoldPlan<K> {
        let mut keys: Vec<K> = shards.iter().flat_map(|s| s.keys.iter().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut rows = vec![0u64; keys.len()];
        let ranks = shards
            .iter()
            .map(|s| {
                s.keys
                    .iter()
                    .zip(&s.rows)
                    .map(|(k, &n)| {
                        // Every shard key is in the union: the search is `Ok`.
                        let rank = keys.binary_search(k).unwrap_or_else(|at| at);
                        rows[rank] += n;
                        rank
                    })
                    .collect()
            })
            .collect();
        FoldPlan { keys, ranks, cuts: weighted_cuts(&rows, shards.len()) }
    }
}

/// The one fold: feed each `(slot, value)` pair to its group's
/// accumulator, `part[rank(slot) - lo]`. Pairs whose rank falls outside
/// `part` belong to another worker's range.
fn fold_pairs<K>(
    agg: AggSet,
    pairs: &[(usize, f64)],
    rank: impl Fn(usize) -> usize,
    lo: usize,
    part: &mut [(K, GroupAccum)],
) {
    for &(slot, x) in pairs {
        if let Some((_, acc)) = rank(slot).checked_sub(lo).and_then(|i| part.get_mut(i)) {
            acc.observe(agg, x);
        }
    }
}

/// Cut `0..weights.len()` into `parts` contiguous ranges, in order, of
/// about equal total weight: each item goes to the part its weight's
/// midpoint falls in. A part can be empty when one item outweighs it.
fn weighted_cuts(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let total = weights.iter().map(|&w| u128::from(w)).sum::<u128>().max(1);
    let mut sizes = vec![0usize; parts];
    let mut before = 0u128;
    for &w in weights {
        let w = u128::from(w);
        // Twice the midpoint is `2 * before + w`; scale it to `0..parts`.
        let part = (2 * before + w) * parts as u128 / (2 * total);
        sizes[usize::try_from(part).map_or(parts - 1, |p| p.min(parts - 1))] += 1;
        before += w;
    }
    let mut start = 0;
    sizes
        .into_iter()
        .map(|n| {
            start += n;
            start - n..start
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_ping, sample_trace};
    use crate::writer::{Writer, WriterOptions};
    use cloudy_measure::HopRecord;
    use cloudy_probes::Platform;
    use std::net::Ipv4Addr;

    /// A store of uneven chunks: three ping partitions of different sizes,
    /// so each ends on a partly filled chunk, and a traceroute partition
    /// whose rows are several times larger than a ping's.
    fn uneven_store() -> Reader {
        let opts = WriterOptions { chunk_rows: 48 };
        let mut w = Writer::new(Vec::new(), Platform::Speedchecker, opts).unwrap();
        for i in 0..700u64 {
            let mut p = sample_ping(i, 3.0 + (i * 37 % 200) as f64 / 7.0);
            p.provider = Provider::ALL[[0, 0, 0, 1, 1, 2][(i % 6) as usize]];
            p.country = CountryCode::new(["DE", "JP", "BR", "KE", "US"][(i % 5) as usize]);
            w.push_ping(p).unwrap();
            if i % 5 == 0 {
                let hops = (1..=(i % 9 + 2) as u8)
                    .map(|ttl| HopRecord {
                        ttl,
                        ip: Some(Ipv4Addr::new(10, 0, ttl, 1)),
                        rtt_ms: Some(f64::from(ttl) * 1.5 + (i % 13) as f64),
                    })
                    .collect();
                w.push_trace(sample_trace(i, hops)).unwrap();
            }
        }
        Reader::from_bytes(w.finish().unwrap().0).unwrap()
    }

    #[test]
    fn scan_and_fold_agree_at_any_worker_count() {
        let reader = uneven_store();
        let lens: Vec<u64> = reader.chunks().iter().map(|m| m.len).collect();
        assert!(lens.len() >= 12, "{} chunks", lens.len());
        assert!(lens.iter().max() > lens.iter().min().map(|l| l * 2).as_ref());
        let agg = Agg::Moments | Agg::P2Quantiles | Agg::ExactQuantiles;
        let keys = [
            GroupKey::Provider,
            GroupKey::Country,
            GroupKey::Region,
            GroupKey::Isp,
            GroupKey::CountryProvider,
            GroupKey::CountryRegion,
        ];
        // `workers` is set after the plan's clamp to the host's cores.
        let on = |query: Query, proj: ProjSpec, workers: usize| {
            let mut scan = query.plan(&reader, proj);
            scan.workers = workers;
            scan
        };
        for key in keys {
            let query = Query::rtts().aggregate(agg);
            let table = |workers| {
                let scan = on(query.clone(), group_proj(key), workers);
                let (groups, stats) = scan.fold_groups(agg, |row| group_id(key, row)).unwrap();
                (groups.into_iter().collect::<GroupTable>(), stats)
            };
            let (serial, serial_stats) = table(1);
            assert!(serial.len() > 1, "{key:?}");
            assert_eq!(serial, query.clone().group_by(key).grouped(&reader).unwrap().0);
            for workers in [2, 3, 5] {
                assert_eq!(table(workers), (serial.clone(), serial_stats), "{key:?} x{workers}");
            }
        }
        for query in [Query::rtts(), Query::rtts().country(CountryCode::new("JP"))] {
            let query = query.aggregate(agg);
            let summary = |workers| {
                let scan = on(query.clone(), ProjSpec::default(), workers);
                scan.fold_groups(agg, |_| ()).unwrap()
            };
            let (serial, serial_stats) = summary(1);
            assert_eq!(serial.len(), 1);
            assert_eq!(serial[0].1, query.summary(&reader).unwrap().0);
            for workers in [2, 3, 5] {
                assert_eq!(summary(workers), (serial.clone(), serial_stats), "x{workers}");
            }
        }
    }

    #[test]
    fn weighted_cuts_cover_in_order_and_balance() {
        let ranges = |w: &[u64], parts| weighted_cuts(w, parts);
        assert_eq!(ranges(&[1; 6], 3), vec![0..2, 2..4, 4..6]);
        // A heavy item takes its part alone; the light ones share the rest.
        assert_eq!(ranges(&[9, 1, 1, 1, 1, 1], 2), vec![0..1, 1..6]);
        assert_eq!(ranges(&[1, 1, 1, 1, 1, 1, 9], 2), vec![0..6, 6..7]);
        // More parts than items, and no weight at all: empty parts, full cover.
        assert_eq!(ranges(&[100, 1], 4), vec![0..0, 0..1, 1..1, 1..2]);
        assert_eq!(ranges(&[0, 0, 0], 2), vec![0..3, 3..3]);
        assert_eq!(ranges(&[], 3), vec![0..0, 0..0, 0..0]);
    }
}
