//! Store reader: footer-pruned scans over a columnar store file.
//!
//! The reader keeps the whole file as bytes plus the chunk list its frames
//! give; a scan walks the list, prunes chunks whose footers cannot match
//! the filter (kind, provider, country set, RTT bounds, hour window), and
//! only decodes the survivors. Because the writer partitions chunks by
//! (kind, provider), a provider-filtered scan typically skips ~9/10 chunks
//! without reading a byte of them.
//!
//! Scan order is file order — the writer's flush order — so records come
//! back grouped by partition, not in insert order. Order *within* a
//! partition is preserved.
//!
//! Two ways in: [`Reader::from_bytes`] reads a complete file and rejects
//! any damage, and [`Reader::salvage`] keeps what a torn or damaged file
//! still holds. Only format v2 (`CLDYSTO2`) is read; a v1 file is
//! corrupt, with a message that says so.

use crate::error::StoreError;
use crate::chunk::{decode_cloud_pings, decode_pings, decode_traces, get_frame, ChunkMeta};
use crate::codec::Cursor;
use crate::schema::{platform_from_tag, RecordKind};
use crate::writer::{END_MAGIC, MAGIC};
use cloudy_cloud::Provider;
use cloudy_geo::CountryCode;
use cloudy_measure::{CloudPingRecord, PingRecord, TracerouteRecord};
use cloudy_obs::Obs;
use cloudy_probes::Platform;

/// The leading magic of format v1, which had an end directory instead of
/// chunk frames.
const V1_MAGIC: &[u8; 8] = b"CLDYSTO1";
/// The magic and the platform byte.
const HEADER_LEN: usize = MAGIC.len() + 1;
/// The chunk count (u64le) and the end magic.
const TRAILER_LEN: usize = 8 + END_MAGIC.len();

/// Which chunks a scan should visit. `None` fields match everything;
/// pruning is conservative (a chunk survives if its footer *could* contain
/// a matching row). [`Reader::for_each`] hands surviving chunks over whole;
/// [`Query`](crate::query::Query) terminals filter rows exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanFilter {
    pub kind: Option<RecordKind>,
    pub provider: Option<Provider>,
    pub country: Option<CountryCode>,
    pub min_rtt_ms: Option<f64>,
    pub max_rtt_ms: Option<f64>,
    pub min_hour: Option<u64>,
    pub max_hour: Option<u64>,
}

impl ScanFilter {
    /// Can any row of a chunk with this footer match? Used to skip whole
    /// chunks from their frames alone.
    pub fn matches_chunk(&self, m: &ChunkMeta) -> bool {
        let f = &m.footer;
        if self.kind.is_some_and(|k| k != f.kind) {
            return false;
        }
        if self.provider.is_some_and(|p| p != f.provider) {
            return false;
        }
        if self.country.is_some_and(|c| !f.countries.contains(&c)) {
            return false;
        }
        if let Some((lo, hi)) = f.rtt_ms {
            if self.min_rtt_ms.is_some_and(|min| hi < min) {
                return false;
            }
            if self.max_rtt_ms.is_some_and(|max| lo > max) {
                return false;
            }
        } else if self.min_rtt_ms.is_some() || self.max_rtt_ms.is_some() {
            // No row in the chunk has a primary RTT, so an RTT-constrained
            // scan cannot match any of them.
            return false;
        }
        if self.min_hour.is_some_and(|min| f.hour_max < min) {
            return false;
        }
        if self.max_hour.is_some_and(|max| f.hour_min > max) {
            return false;
        }
        true
    }

}

/// What a scan did: how much pruning bought, how many rows the survivor
/// chunks held, and how many matched. Uniform across [`Reader::for_each`]
/// and every [`Query`](crate::query::Query) terminal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    pub chunks_total: usize,
    pub chunks_scanned: usize,
    pub chunks_pruned: usize,
    /// Rows held by the chunks that were actually decoded (footer- and
    /// dictionary-pruned chunks contribute nothing).
    pub rows_decoded: u64,
    pub rows_matched: u64,
}

/// All rows of one decoded chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkRows {
    Pings(Vec<PingRecord>),
    Traces(Vec<TracerouteRecord>),
    CloudPings(Vec<CloudPingRecord>),
}

impl ChunkRows {
    /// Decoded row count, uniform across the three kinds.
    pub fn len(&self) -> usize {
        match self {
            ChunkRows::Pings(p) => p.len(),
            ChunkRows::Traces(t) => t.len(),
            ChunkRows::CloudPings(c) => c.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A store file held in memory with its chunk list.
pub struct Reader {
    data: Vec<u8>,
    platform: Platform,
    dir: Vec<ChunkMeta>,
    obs: Obs,
}

/// The platform a store header names. A v1 file is corrupt.
fn header(data: &[u8]) -> Result<Platform, StoreError> {
    if data.starts_with(V1_MAGIC) {
        return Err(StoreError::corrupt(
            "store format v1 (CLDYSTO1) is not read; write the store again with this version",
        ));
    }
    if !data.starts_with(MAGIC) {
        return Err(StoreError::corrupt("bad store magic"));
    }
    let tag = data.get(MAGIC.len()).ok_or_else(|| StoreError::corrupt("store header truncated"))?;
    platform_from_tag(*tag)
}

/// The chunk frames in `data[HEADER_LEN..end]`, in file order. Items
/// after the first error mean nothing.
fn frames(data: &[u8], end: usize) -> impl Iterator<Item = Result<ChunkMeta, StoreError>> + '_ {
    let mut cur = Cursor::new(&data[..end]);
    let at_frames = cur.bytes(HEADER_LEN).is_ok();
    std::iter::from_fn(move || (at_frames && cur.remaining() > 0).then(|| get_frame(&mut cur)))
}

impl Reader {
    /// Parse a complete store file: the header, every chunk frame, and
    /// the trailer, whose chunk count must equal the frames walked. Each
    /// frame's body range and row count are checked before any scan
    /// touches the data.
    pub fn from_bytes(data: Vec<u8>) -> Result<Reader, StoreError> {
        let platform = header(&data)?;
        let end = data
            .len()
            .checked_sub(TRAILER_LEN)
            .filter(|end| *end >= HEADER_LEN && data.ends_with(END_MAGIC))
            .ok_or_else(|| StoreError::corrupt("no store trailer (truncated file?)"))?;
        let count = Cursor::new(&data[end..]).u64_le()?;
        let dir = frames(&data, end).collect::<Result<Vec<_>, _>>()?;
        if dir.len() as u64 != count {
            let n = dir.len();
            return Err(StoreError::corrupt(format!("trailer counts {count} chunks, {n} framed")));
        }
        Ok(Reader { data, platform, dir, obs: Obs::disabled() })
    }

    /// Read what a torn or damaged store file still holds: every chunk
    /// before the first whose frame is torn or does not parse, or whose
    /// body does not decode in full. The trailer is neither needed nor
    /// checked, so a file cut before [`Writer::finish`](crate::Writer::finish)
    /// gives back every chunk flushed before the cut. Only a damaged
    /// header is an error.
    pub fn salvage(data: Vec<u8>) -> Result<Reader, StoreError> {
        let platform = header(&data)?;
        let complete = data.len() >= HEADER_LEN + TRAILER_LEN && data.ends_with(END_MAGIC);
        let end = if complete { data.len() - TRAILER_LEN } else { data.len() };
        let dir = frames(&data, end).map_while(Result::ok).collect();
        let mut r = Reader { data, platform, dir, obs: Obs::disabled() };
        let whole = r.dir.iter().take_while(|m| r.decode_chunk(m).is_ok()).count();
        r.dir.truncate(whole);
        Ok(r)
    }

    /// Attach an observability registry: every scan then exports
    /// `store.scan.chunks_pruned` / `store.scan.chunks_decoded` /
    /// `store.scan.rows_matched` counters and a `span.store.scan` latency
    /// histogram (one span per scan or per parallel worker). Grouped and
    /// summary queries also time their fold as `span.store.fold`: once per
    /// chunk inside the scan span when one worker runs, or once per
    /// parallel worker after its scan. Metrics never change what a scan
    /// returns.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Fold one finished scan's pruning totals into the registry.
    pub(crate) fn export_scan_stats(&self, stats: &ScanStats) {
        if self.obs.is_enabled() {
            self.obs.add("store.scan.chunks_pruned", stats.chunks_pruned as u64);
            self.obs.add("store.scan.chunks_decoded", stats.chunks_scanned as u64);
            self.obs.add("store.scan.rows_matched", stats.rows_matched);
        }
    }

    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// One entry per chunk, in file (flush) order.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.dir
    }

    /// One chunk's body bytes.
    pub(crate) fn body_of(&self, m: &ChunkMeta) -> &[u8] {
        &self.data[m.offset as usize..(m.offset + m.len) as usize]
    }

    /// The attached registry, for the query executor's spans and shards.
    pub(crate) fn obs_handle(&self) -> &Obs {
        &self.obs
    }

    /// Decode every row of one chunk.
    fn decode_chunk(&self, m: &ChunkMeta) -> Result<ChunkRows, StoreError> {
        let body = self.body_of(m);
        let rows = m.footer.rows as usize;
        match m.footer.kind {
            RecordKind::Ping => {
                decode_pings(body, rows, self.platform, m.footer.provider).map(ChunkRows::Pings)
            }
            RecordKind::Trace => decode_traces(body, rows, self.platform, m.footer.provider)
                .map(ChunkRows::Traces),
            RecordKind::CloudPing => decode_cloud_pings(body, rows).map(ChunkRows::CloudPings),
        }
    }

    /// Sequential pruned scan over full records.
    pub fn for_each(
        &self,
        filter: &ScanFilter,
        mut f: impl FnMut(&ChunkRows),
    ) -> Result<ScanStats, StoreError> {
        let span = self.obs.now();
        let mut stats = ScanStats { chunks_total: self.dir.len(), ..Default::default() };
        for m in &self.dir {
            if !filter.matches_chunk(m) {
                stats.chunks_pruned += 1;
                continue;
            }
            stats.chunks_scanned += 1;
            stats.rows_decoded += m.footer.rows;
            let rows = self.decode_chunk(m)?;
            stats.rows_matched += rows.len() as u64;
            f(&rows);
        }
        self.obs.record_span("store.scan", span, 0);
        self.export_scan_stats(&stats);
        Ok(stats)
    }
}

/// Worker count a parallel scan should actually use: the requested thread
/// count clamped to the machine's available parallelism and to the number
/// of survivor chunks. Spawning more workers than cores only adds context
/// switches, and spawning at all is pure overhead when one worker would do
/// — scan *output* is worker-count-invariant, so the clamp is free.
pub(crate) fn effective_workers(threads: usize, chunks: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    threads.max(1).min(hw).min(chunks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::put_frame;
    use crate::query::{GroupKey, Query};
    use crate::testutil::sample_ping;
    use crate::writer::{Writer, WriterOptions};

    fn store_bytes(n: u64, chunk_rows: usize) -> Vec<u8> {
        let mut w = Writer::new(
            Vec::new(),
            Platform::Speedchecker,
            WriterOptions { chunk_rows },
        )
        .unwrap();
        for i in 0..n {
            let mut r = sample_ping(i, 5.0 + (i % 100) as f64);
            r.provider = Provider::ALL[(i % 3) as usize];
            w.push_ping(r).unwrap();
        }
        w.finish().unwrap().0
    }

    /// `bytes` with chunk `i`'s frame edited by `edit` and written again,
    /// before the same body.
    fn with_frame(bytes: &[u8], i: usize, edit: impl FnOnce(&mut ChunkMeta)) -> Vec<u8> {
        let r = Reader::from_bytes(bytes.to_vec()).unwrap();
        let mut out = bytes[..HEADER_LEN].to_vec();
        let mut edit = Some(edit);
        for (k, m) in r.chunks().iter().enumerate() {
            let mut frame = m.clone();
            if let Some(edit) = edit.take_if(|_| k == i) {
                edit(&mut frame);
            }
            put_frame(&mut out, &frame.footer, frame.len);
            out.extend_from_slice(r.body_of(m));
        }
        out.extend_from_slice(&bytes[bytes.len() - TRAILER_LEN..]);
        out
    }

    /// Every ping of the store, in scan order, through the full-record path.
    fn all_pings(r: &Reader) -> Vec<PingRecord> {
        let mut out = Vec::new();
        r.for_each(&ScanFilter::default(), |chunk| {
            if let ChunkRows::Pings(p) = chunk {
                out.extend(p.iter().cloned());
            }
        })
        .unwrap();
        out
    }

    #[test]
    fn reader_round_trips_and_reports_chunks() {
        let bytes = store_bytes(1000, 128);
        let r = Reader::from_bytes(bytes).unwrap();
        assert_eq!(r.platform(), Platform::Speedchecker);
        let total: u64 = r.chunks().iter().map(|m| m.footer.rows).sum();
        assert_eq!(total, 1000);
        assert_eq!(all_pings(&r).len(), 1000);
    }

    #[test]
    fn provider_filter_prunes_most_chunks() {
        let bytes = store_bytes(3000, 64);
        let r = Reader::from_bytes(bytes).unwrap();
        let (rows, stats) = Query::rtts().provider(Provider::Google).threads(4).rows(&r).unwrap();
        assert!(rows.iter().all(|row| row.provider == Provider::Google));
        assert_eq!(rows.len() as u64, stats.rows_matched);
        // 3 providers in the stream → two thirds of chunks pruned.
        assert!(
            stats.chunks_pruned * 2 >= stats.chunks_total,
            "pruned {}/{}",
            stats.chunks_pruned,
            stats.chunks_total
        );
    }

    #[test]
    fn parallel_scan_matches_sequential_for_any_thread_count() {
        let bytes = store_bytes(2000, 96);
        let r = Reader::from_bytes(bytes).unwrap();
        let query = Query::rtts().min_rtt_ms(50.0);
        let mut seq = Vec::new();
        let seq_stats = query.stream(&r, |row| seq.push(row.to_rtt_row())).unwrap();
        assert!(!seq.is_empty());
        for threads in [1, 3, 8] {
            let (par, stats) = query.clone().threads(threads).rows(&r).unwrap();
            assert_eq!(par, seq);
            assert_eq!(stats, seq_stats);
        }
    }

    #[test]
    fn obs_scan_counters_reconcile_with_stats() {
        let bytes = store_bytes(3000, 64);
        let mut r = Reader::from_bytes(bytes).unwrap();
        let obs = Obs::enabled();
        r.set_obs(obs.clone());
        let query = Query::rtts().provider(Provider::Google).threads(4);
        let plain = Reader::from_bytes(store_bytes(3000, 64)).unwrap();
        let (want_rows, want_stats) = query.rows(&plain).unwrap();
        let (rows, stats) = query.rows(&r).unwrap();
        assert_eq!(rows, want_rows, "metrics must not change scan results");
        assert_eq!(stats, want_stats);
        let snap = obs.snapshot().unwrap_or_default();
        assert_eq!(snap.counter("store.scan.chunks_pruned"), stats.chunks_pruned as u64);
        assert_eq!(snap.counter("store.scan.chunks_decoded"), stats.chunks_scanned as u64);
        assert_eq!(snap.counter("store.scan.rows_matched"), stats.rows_matched);
        // One span per parallel worker (or one inline span).
        let before_scans = snap.hist("span.store.scan").map(|h| h.count).unwrap_or(0);
        assert!(before_scans >= 1);
        // Row terminals fold nothing.
        assert_eq!(snap.hist("span.store.fold"), None);
        // A second, full-record scan accumulates on top.
        let filter = ScanFilter { provider: Some(Provider::Google), ..Default::default() };
        let seq_stats = r.for_each(&filter, |_| {}).unwrap();
        let snap = obs.snapshot().unwrap_or_default();
        assert_eq!(
            snap.counter("store.scan.rows_matched"),
            stats.rows_matched + seq_stats.rows_matched
        );
        // A grouped query times its fold apart from the scan, and the
        // metrics leave its table as it is.
        let grouped = Query::rtts().group_by(GroupKey::CountryRegion).threads(4);
        let (want_table, want_stats) = grouped.grouped(&plain).unwrap();
        let (table, stats) = grouped.grouped(&r).unwrap();
        assert_eq!(table, want_table, "metrics must not change a grouped table");
        assert_eq!(stats, want_stats);
        let snap = obs.snapshot().unwrap_or_default();
        let spans = |name| snap.hist(name).map(|h| h.count).unwrap_or(0);
        assert!(spans("span.store.fold") >= 1);
        // One fold per chunk inline, or one per parallel scan worker.
        let scans = spans("span.store.scan") - before_scans - 1;
        let folds = if scans == 1 { stats.chunks_scanned as u64 } else { scans };
        assert_eq!(spans("span.store.fold"), folds);
    }

    #[test]
    fn corrupt_files_error_cleanly() {
        let bytes = store_bytes(100, 32);
        let corrupt =
            |data: Vec<u8>| matches!(Reader::from_bytes(data), Err(StoreError::Corrupt(_)));
        let first = Reader::from_bytes(bytes.clone()).unwrap().chunks()[0].clone();
        let first_end = (first.offset + first.len) as usize;
        // Truncation anywhere: inside the header, mid-chunk, at a chunk's
        // end, mid-trailer, and one byte short of complete.
        for cut in [0, 3, MAGIC.len(), HEADER_LEN, bytes.len() / 2, first_end]
            .into_iter()
            .chain(bytes.len() - TRAILER_LEN..bytes.len())
        {
            assert!(corrupt(bytes[..cut].to_vec()), "truncation at {cut} of {}", bytes.len());
        }
        assert!(corrupt(b"CLDYSTO2x".to_vec()));
        let mut flipped = bytes.clone();
        flipped[0] = b'X';
        assert!(corrupt(flipped));
        let mut platform = bytes.clone();
        platform[MAGIC.len()] = 0xee;
        assert!(corrupt(platform));
        // A trailer that miscounts the chunks.
        let mut count = bytes.clone();
        count[bytes.len() - TRAILER_LEN] ^= 1;
        assert!(corrupt(count));
        // The frame rewrite itself round-trips.
        assert!(Reader::from_bytes(with_frame(&bytes, 1, |_| {})).is_ok());
        // A frame claiming more rows than its body has bytes (every kind
        // writes at least one byte per row, and scans size their buffers
        // from these counts), or none.
        assert!(corrupt(with_frame(&bytes, 1, |m| m.footer.rows = 1 << 61)));
        assert!(corrupt(with_frame(&bytes, 1, |m| m.footer.rows = 0)));
        // The last frame's body running into the trailer.
        let last = Reader::from_bytes(bytes.clone()).unwrap().chunks().len() - 1;
        assert!(corrupt(with_frame(&bytes, last, |m| m.len += 1)));
    }

    #[test]
    fn v1_files_are_corrupt_and_say_so() {
        let mut v1 = store_bytes(40, 64);
        v1[..MAGIC.len()].copy_from_slice(V1_MAGIC);
        for read in [Reader::from_bytes as fn(_) -> _, Reader::salvage] {
            match read(v1.clone()).err() {
                Some(StoreError::Corrupt(msg)) => assert!(msg.contains("v1"), "{msg}"),
                other => panic!("a v1 file read as {other:?}"),
            }
        }
    }

    #[test]
    fn salvage_of_a_complete_file_reads_it_whole() {
        let bytes = store_bytes(1000, 128);
        let whole = Reader::from_bytes(bytes.clone()).unwrap();
        let salvaged = Reader::salvage(bytes).unwrap();
        assert_eq!(salvaged.chunks(), whole.chunks());
        assert_eq!(all_pings(&salvaged), all_pings(&whole));
    }

    #[test]
    fn salvage_stops_at_the_first_chunk_that_does_not_decode() {
        let mut bytes = store_bytes(300, 32);
        let whole = Reader::from_bytes(bytes.clone()).unwrap();
        assert!(whole.chunks().len() > 4);
        // A maximal varint over chunk 2's first block length: the frames
        // still parse, the body no longer decodes.
        let at = whole.chunks()[2].offset as usize;
        bytes[at..at + 10].copy_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        let framed = Reader::from_bytes(bytes.clone()).unwrap();
        assert_eq!(framed.chunks(), whole.chunks());
        assert!(framed.for_each(&ScanFilter::default(), |_| {}).is_err());
        let salvaged = Reader::salvage(bytes).unwrap();
        assert_eq!(salvaged.chunks(), &whole.chunks()[..2]);
        // A bad header is the one thing salvage cannot get past.
        assert!(matches!(Reader::salvage(b"CLDYSTO".to_vec()), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn writer_round_trips_per_partition() {
        let pings: Vec<PingRecord> = (0..500)
            .map(|i| {
                let mut r = sample_ping(i, 1.0 + i as f64 * 0.5);
                r.provider = Provider::ALL[(i % 4) as usize];
                r
            })
            .collect();
        let mut w =
            Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 64 })
                .unwrap();
        for r in &pings {
            w.push_ping(r.clone()).unwrap();
        }
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.ping_rows, 500);
        let back = all_pings(&Reader::from_bytes(bytes).unwrap());
        // Scan order groups by provider; within a provider, insert order
        // is preserved and records are bit-identical.
        for p in Provider::ALL {
            let orig: Vec<_> = pings.iter().filter(|r| r.provider == p).collect();
            let got: Vec<_> = back.iter().filter(|r| r.provider == p).collect();
            assert_eq!(orig, got);
        }
    }
}
