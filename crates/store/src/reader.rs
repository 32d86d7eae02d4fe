//! Store reader: footer-pruned scans over a columnar store file.
//!
//! The reader keeps the whole file as bytes plus the decoded directory; a
//! scan walks the directory, prunes chunks whose footers cannot match the
//! filter (kind, provider, country set, RTT bounds, hour window), and only
//! decodes the survivors. Because the writer partitions chunks by
//! (kind, provider), a provider-filtered scan typically skips ~9/10 chunks
//! without reading a byte of them.
//!
//! Scan order is directory order — the writer's flush order — so records
//! come back grouped by partition, not in insert order. Order *within* a
//! partition is preserved.

use crate::error::StoreError;
use crate::chunk::{decode_cloud_pings, decode_pings, decode_traces, get_chunk_meta, ChunkMeta};
use crate::codec::{get_entries, Cursor};
use crate::schema::{platform_from_tag, RecordKind};
use crate::writer::{END_MAGIC, MAGIC};
use cloudy_cloud::Provider;
use cloudy_geo::CountryCode;
use cloudy_measure::{CloudPingRecord, PingRecord, TracerouteRecord};
use cloudy_obs::Obs;
use cloudy_probes::Platform;

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
    /// chunks from the directory alone.
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

/// A store file held in memory with its decoded directory.
pub struct Reader {
    data: Vec<u8>,
    platform: Platform,
    dir: Vec<ChunkMeta>,
    obs: Obs,
}

impl Reader {
    /// Parse a store file. Validates magic, trailer, directory, and every
    /// chunk's byte range and row count before any scan touches the data.
    pub fn from_bytes(data: Vec<u8>) -> Result<Reader, StoreError> {
        let header_len = MAGIC.len() + 1;
        let trailer_len = 16 + END_MAGIC.len();
        if data.len() < header_len + trailer_len {
            return Err(StoreError::corrupt(format!("store file too short: {} bytes", data.len())));
        }
        if &data[..MAGIC.len()] != MAGIC {
            return Err(StoreError::corrupt("bad store magic"));
        }
        if &data[data.len() - END_MAGIC.len()..] != END_MAGIC {
            return Err(StoreError::corrupt("bad store end magic (truncated file?)"));
        }
        let platform = platform_from_tag(data[MAGIC.len()])?;
        let mut tcur = Cursor::new(&data[data.len() - trailer_len..]);
        let dir_offset = tcur.u64_le()? as usize;
        let dir_len = tcur.u64_le()? as usize;
        if dir_offset < header_len
            || dir_offset
                .checked_add(dir_len)
                .is_none_or(|end| end != data.len() - trailer_len)
        {
            return Err(StoreError::corrupt(format!("directory range {dir_offset}+{dir_len} out of bounds")));
        }
        let mut dcur = Cursor::new(&data[dir_offset..dir_offset + dir_len]);
        let n = dcur.varint()? as usize;
        // Chunks follow the header in directory order without overlap, and
        // every chunk kind writes at least one byte per row: so the row
        // counts that size scan buffers sum to at most the file size.
        let mut prev_end = header_len as u64;
        let dir = get_entries(&mut dcur, n, |c| {
            let m = get_chunk_meta(c)?;
            let end = m
                .offset
                .checked_add(m.len)
                .ok_or_else(|| StoreError::corrupt("chunk range overflow"))?;
            if m.offset < prev_end || end > dir_offset as u64 {
                return Err(StoreError::corrupt(format!(
                    "chunk range {}+{} overlaps the header, another chunk or the directory",
                    m.offset, m.len
                )));
            }
            if m.footer.rows > m.len {
                return Err(StoreError::corrupt(format!(
                    "chunk claims {} rows in {} bytes",
                    m.footer.rows, m.len
                )));
            }
            prev_end = end;
            Ok(m)
        })?;
        if dcur.remaining() != 0 {
            return Err(StoreError::corrupt("trailing bytes in directory"));
        }
        Ok(Reader { data, platform, dir, obs: Obs::disabled() })
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

    /// The directory: one entry per chunk, in flush order.
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
    use crate::chunk::put_chunk_meta;
    use crate::codec::put_varint;
    use crate::query::{GroupKey, Query};
    use crate::testutil::sample_ping;
    use crate::writer::{write_dataset, Writer, WriterOptions};
    use cloudy_measure::Dataset;

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

    /// `bytes` with its directory decoded, edited by `edit`, and rewritten.
    fn with_directory(bytes: Vec<u8>, edit: impl FnOnce(&mut Vec<ChunkMeta>)) -> Vec<u8> {
        let mut trailer = Cursor::new(&bytes[bytes.len() - 16 - END_MAGIC.len()..]);
        let dir_offset = trailer.u64_le().unwrap() as usize;
        let dir_len = trailer.u64_le().unwrap() as usize;
        let mut cur = Cursor::new(&bytes[dir_offset..dir_offset + dir_len]);
        let n = cur.varint().unwrap();
        let mut dir: Vec<ChunkMeta> = (0..n).map(|_| get_chunk_meta(&mut cur).unwrap()).collect();
        edit(&mut dir);
        let mut out = bytes[..dir_offset].to_vec();
        put_varint(&mut out, dir.len() as u64);
        for m in &dir {
            put_chunk_meta(&mut out, m);
        }
        let new_len = (out.len() - dir_offset) as u64;
        out.extend_from_slice(&(dir_offset as u64).to_le_bytes());
        out.extend_from_slice(&new_len.to_le_bytes());
        out.extend_from_slice(END_MAGIC);
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
    fn reader_round_trips_and_reports_directory() {
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
        // Truncation anywhere: inside the header, mid-chunk, mid-directory,
        // mid-trailer, and one byte short of complete.
        let trailer = 16 + END_MAGIC.len();
        let mid_dir = bytes.len() - trailer - 8;
        for cut in [0, 3, MAGIC.len(), MAGIC.len() + 1, bytes.len() / 2, mid_dir]
            .into_iter()
            .chain(bytes.len() - trailer..bytes.len())
        {
            assert!(corrupt(bytes[..cut].to_vec()), "truncation at {cut} of {}", bytes.len());
        }
        assert!(corrupt(b"CLDYSTO1x".to_vec()));
        let mut flipped = bytes.clone();
        flipped[0] = b'X';
        assert!(corrupt(flipped));
        let mut platform = bytes.clone();
        platform[MAGIC.len()] = 0xee;
        assert!(corrupt(platform));
        // A trailer pointing the directory outside the file.
        let mut dir_ptr = bytes.clone();
        let at = bytes.len() - trailer;
        dir_ptr[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(corrupt(dir_ptr));
        // The directory rewrite itself round-trips.
        assert!(Reader::from_bytes(with_directory(store_bytes(40, 64), |_| {})).is_ok());
        // A directory entry claiming more rows than its chunk has bytes:
        // every kind writes at least one byte per row, and scans size their
        // buffers from these counts.
        assert!(corrupt(with_directory(store_bytes(40, 64), |dir| dir[0].footer.rows = 1 << 61)));
        // Chunks out of file order or overlapping.
        assert!(corrupt(with_directory(store_bytes(40, 64), |dir| dir[1].offset = dir[0].offset)));
        // Flipping a byte inside the directory region must not panic.
        let dirish = bytes.len() - 30;
        let mut scrambled = bytes;
        scrambled[dirish] ^= 0xff;
        let _ = Reader::from_bytes(scrambled);
    }

    #[test]
    fn write_dataset_round_trips_per_partition() {
        let mut ds = Dataset::new(Platform::Speedchecker);
        for i in 0..500 {
            let mut r = sample_ping(i, 1.0 + i as f64 * 0.5);
            r.provider = Provider::ALL[(i % 4) as usize];
            ds.pings.push(r);
        }
        let (bytes, summary) = write_dataset(&ds, WriterOptions { chunk_rows: 64 }).unwrap();
        assert_eq!(summary.ping_rows, 500);
        let back = all_pings(&Reader::from_bytes(bytes).unwrap());
        // Scan order groups by provider; within a provider, insert order
        // is preserved and records are bit-identical.
        for p in Provider::ALL {
            let orig: Vec<_> = ds.pings.iter().filter(|r| r.provider == p).collect();
            let got: Vec<_> = back.iter().filter(|r| r.provider == p).collect();
            assert_eq!(orig, got);
        }
    }
}
