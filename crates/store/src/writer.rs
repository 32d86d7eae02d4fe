//! Append-only streaming store writer.
//!
//! Records stream in one at a time and are partitioned into per-(kind,
//! provider) chunk builders; a builder flushes as soon as it holds
//! `chunk_rows` records, so memory stays bounded at roughly
//! `2 × |providers| × chunk_rows` buffered records no matter how many
//! records flow through. Partitioning by provider is what makes footer
//! pruning effective: a provider-filtered scan skips ~9/10 chunks.
//!
//! File layout:
//!
//! ```text
//! "CLDYSTO2" (8B)  platform (1B)          header
//! frame  chunk body                       one per chunk, in flush order
//! frame  chunk body ...
//! chunk count (u64le)  "CLDYSEND" (8B)    trailer, written by `finish`
//! ```
//!
//! A frame is the chunk's footer: kind (1B), provider (1B), then varints
//! for the body length and row count, the RTT bounds (a flag byte, then
//! two f64s when set), varints for the hour bounds, and the country
//! count followed by two bytes per country. Readers walk the frames from
//! the front, so every chunk flushed before a crash can still be read
//! back (`Reader::salvage`).
//!
//! The byte stream is a pure function of (platform, options, record
//! sequence) — no clocks, no randomness, no map-iteration order — so a
//! campaign that is deterministic across thread counts produces
//! byte-identical store files across thread counts.

use crate::chunk::{encode_cloud_pings, encode_pings, encode_traces, put_frame, ChunkFooter};
use crate::error::StoreError;
use crate::schema::{platform_tag, provider_tag};
use cloudy_cloud::Provider;
use cloudy_measure::{CloudPingRecord, MeasureError, PingRecord, RecordSink, TracerouteRecord};
use cloudy_obs::Obs;
use cloudy_probes::Platform;
use std::io::Write;

/// Leading file magic (version 2).
pub const MAGIC: &[u8; 8] = b"CLDYSTO2";
/// Trailing file magic.
pub const END_MAGIC: &[u8; 8] = b"CLDYSEND";

/// Writer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Records per chunk; a partition flushes when it reaches this many.
    pub chunk_rows: usize,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions { chunk_rows: 4096 }
    }
}

/// Totals reported by [`Writer::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    pub chunks: usize,
    pub ping_rows: u64,
    pub trace_rows: u64,
    pub cloud_rows: u64,
    /// Total file size in bytes, trailer included.
    pub bytes: u64,
}

/// Streaming columnar writer over any byte sink.
pub struct Writer<W: Write> {
    out: W,
    offset: u64,
    platform: Platform,
    chunk_rows: usize,
    ping_slots: Vec<Vec<PingRecord>>,
    trace_slots: Vec<Vec<TracerouteRecord>>,
    cloud_slots: Vec<Vec<CloudPingRecord>>,
    chunks: usize,
    ping_rows: u64,
    trace_rows: u64,
    cloud_rows: u64,
    obs: Obs,
}

impl<W: Write> Writer<W> {
    /// Start a store file: writes the header immediately.
    pub fn new(mut out: W, platform: Platform, options: WriterOptions) -> Result<Self, StoreError> {
        if options.chunk_rows == 0 {
            return Err(StoreError::invalid_options("chunk_rows must be positive"));
        }
        out.write_all(MAGIC).map_err(|e| StoreError::io(format!("write header: {e}")))?;
        out.write_all(&[platform_tag(platform)]).map_err(|e| StoreError::io(format!("write header: {e}")))?;
        let n = Provider::ALL.len();
        Ok(Writer {
            out,
            offset: (MAGIC.len() + 1) as u64,
            platform,
            chunk_rows: options.chunk_rows,
            ping_slots: vec![Vec::new(); n],
            trace_slots: vec![Vec::new(); n],
            cloud_slots: vec![Vec::new(); n],
            chunks: 0,
            ping_rows: 0,
            trace_rows: 0,
            cloud_rows: 0,
            obs: Obs::disabled(),
        })
    }

    /// Attach an observability registry: chunk flushes record
    /// `store.chunks.flushed` / `store.bytes_written` counters and a
    /// `span.store.flush` histogram; [`Writer::finish`] adds the row
    /// totals. Metrics never touch the byte stream.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Records currently buffered in unflushed partitions — the writer's
    /// whole memory footprint; bounded by `2 × |providers| × chunk_rows`.
    #[cfg(test)]
    fn buffered_rows(&self) -> usize {
        self.ping_slots.iter().map(Vec::len).sum::<usize>()
            + self.trace_slots.iter().map(Vec::len).sum::<usize>()
            + self.cloud_slots.iter().map(Vec::len).sum::<usize>()
    }

    /// Bytes emitted to the sink so far.
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    fn check_platform(&self, platform: Platform) -> Result<(), StoreError> {
        if platform == self.platform {
            Ok(())
        } else {
            Err(StoreError::PlatformMismatch { store: self.platform, record: platform })
        }
    }

    /// Write one chunk: its frame, then its body.
    fn emit(&mut self, body: Vec<u8>, footer: ChunkFooter) -> Result<(), StoreError> {
        let span = self.obs.now();
        let mut frame = Vec::new();
        put_frame(&mut frame, &footer, body.len() as u64);
        for bytes in [&frame, &body] {
            self.out.write_all(bytes).map_err(|e| StoreError::io(format!("write chunk: {e}")))?;
        }
        let written = (frame.len() + body.len()) as u64;
        self.offset += written;
        self.chunks += 1;
        self.obs.inc("store.chunks.flushed");
        self.obs.add("store.bytes_written", written);
        self.obs.record_span("store.flush", span, 0);
        Ok(())
    }

    fn flush_ping_slot(&mut self, slot: usize) -> Result<(), StoreError> {
        let rows = std::mem::take(&mut self.ping_slots[slot]);
        if rows.is_empty() {
            return Ok(());
        }
        let (body, footer) = encode_pings(&rows, Provider::ALL[slot]);
        self.emit(body, footer)
    }

    fn flush_trace_slot(&mut self, slot: usize) -> Result<(), StoreError> {
        let rows = std::mem::take(&mut self.trace_slots[slot]);
        if rows.is_empty() {
            return Ok(());
        }
        let (body, footer) = encode_traces(&rows, Provider::ALL[slot]);
        self.emit(body, footer)
    }

    /// Append one ping record.
    pub fn push_ping(&mut self, r: PingRecord) -> Result<(), StoreError> {
        self.check_platform(r.platform)?;
        let slot = provider_tag(r.provider) as usize;
        self.ping_slots[slot].push(r);
        self.ping_rows += 1;
        if self.ping_slots[slot].len() >= self.chunk_rows {
            self.flush_ping_slot(slot)?;
        }
        Ok(())
    }

    fn flush_cloud_slot(&mut self, slot: usize) -> Result<(), StoreError> {
        let rows = std::mem::take(&mut self.cloud_slots[slot]);
        if rows.is_empty() {
            return Ok(());
        }
        let (body, footer) = encode_cloud_pings(&rows, Provider::ALL[slot]);
        self.emit(body, footer)
    }

    /// Append one inter-cloud ping, partitioned by *destination* provider.
    /// No platform check: both endpoints are cloud regions, so the store's
    /// platform byte does not constrain this plane. A destination region
    /// missing from the region table cannot be partitioned and is an error.
    pub fn push_cloud(&mut self, r: CloudPingRecord) -> Result<(), StoreError> {
        let provider = r.dst_provider().ok_or_else(|| {
            StoreError::corrupt(format!("cloud ping dst region {} not in region table", r.dst.0))
        })?;
        let slot = provider_tag(provider) as usize;
        self.cloud_slots[slot].push(r);
        self.cloud_rows += 1;
        if self.cloud_slots[slot].len() >= self.chunk_rows {
            self.flush_cloud_slot(slot)?;
        }
        Ok(())
    }

    /// Append one traceroute record.
    pub fn push_trace(&mut self, r: TracerouteRecord) -> Result<(), StoreError> {
        self.check_platform(r.platform)?;
        let slot = provider_tag(r.provider) as usize;
        self.trace_slots[slot].push(r);
        self.trace_rows += 1;
        if self.trace_slots[slot].len() >= self.chunk_rows {
            self.flush_trace_slot(slot)?;
        }
        Ok(())
    }

    /// Flush remaining partitions (ping slots in provider order, then trace
    /// slots, then inter-cloud slots), write the trailer, and return the
    /// sink.
    pub fn finish(mut self) -> Result<(W, StoreSummary), StoreError> {
        for slot in 0..Provider::ALL.len() {
            self.flush_ping_slot(slot)?;
        }
        for slot in 0..Provider::ALL.len() {
            self.flush_trace_slot(slot)?;
        }
        for slot in 0..Provider::ALL.len() {
            self.flush_cloud_slot(slot)?;
        }
        let mut trailer = Vec::with_capacity(16);
        trailer.extend_from_slice(&(self.chunks as u64).to_le_bytes());
        trailer.extend_from_slice(END_MAGIC);
        self.out.write_all(&trailer).map_err(|e| StoreError::io(format!("write trailer: {e}")))?;
        self.out.flush().map_err(|e| StoreError::io(format!("flush: {e}")))?;
        let bytes = self.offset + trailer.len() as u64;
        let summary = StoreSummary {
            chunks: self.chunks,
            ping_rows: self.ping_rows,
            trace_rows: self.trace_rows,
            cloud_rows: self.cloud_rows,
            bytes,
        };
        if self.obs.is_enabled() {
            self.obs.add("store.rows.ping", summary.ping_rows);
            self.obs.add("store.rows.trace", summary.trace_rows);
            self.obs.add("store.rows.cloud", summary.cloud_rows);
            // Header + trailer bytes, so the counter's final value equals
            // the file size exactly.
            self.obs.add("store.bytes_written", (MAGIC.len() + 1 + trailer.len()) as u64);
        }
        Ok((self.out, summary))
    }
}

impl<W: Write> RecordSink for Writer<W> {
    fn sink_ping(&mut self, r: PingRecord) -> Result<(), MeasureError> {
        Ok(self.push_ping(r)?)
    }

    fn sink_trace(&mut self, r: TracerouteRecord) -> Result<(), MeasureError> {
        Ok(self.push_trace(r)?)
    }

    fn sink_cloud(&mut self, r: CloudPingRecord) -> Result<(), MeasureError> {
        Ok(self.push_cloud(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::platform_from_tag;

    #[test]
    fn empty_store_has_header_and_trailer() {
        let w = Writer::new(Vec::new(), Platform::RipeAtlas, WriterOptions::default()).unwrap();
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.chunks, 0);
        assert_eq!(summary.bytes, bytes.len() as u64);
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(platform_from_tag(bytes[8]).unwrap(), Platform::RipeAtlas);
        assert_eq!(&bytes[9..17], &0u64.to_le_bytes(), "a chunk count of zero");
        assert_eq!(&bytes[17..], END_MAGIC);
    }

    #[test]
    fn writer_rejects_wrong_platform() {
        let mut w =
            Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default()).unwrap();
        let mut r = crate::testutil::sample_ping(1, 10.0);
        r.platform = Platform::RipeAtlas;
        assert!(w.push_ping(r).is_err());
    }

    #[test]
    fn buffered_rows_stay_bounded_by_chunk_size() {
        let mut w =
            Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 64 })
                .unwrap();
        let mut max_buffered = 0usize;
        for i in 0..10_000u64 {
            w.push_ping(crate::testutil::sample_ping(i, 5.0 + i as f64 * 0.001)).unwrap();
            max_buffered = max_buffered.max(w.buffered_rows());
        }
        // One provider in the sample stream → one active partition.
        assert!(max_buffered <= 64, "buffered {max_buffered} rows");
        let (_, summary) = w.finish().unwrap();
        assert_eq!(summary.ping_rows, 10_000);
        assert!(summary.chunks >= 10_000 / 64);
    }

    #[test]
    fn obs_counters_reconcile_with_summary_and_bytes() {
        let plain = {
            let mut w =
                Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 32 })
                    .unwrap();
            for i in 0..200u64 {
                w.push_ping(crate::testutil::sample_ping(i, 9.0)).unwrap();
            }
            w.finish().unwrap()
        };
        let obs = Obs::enabled();
        let observed = {
            let mut w =
                Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 32 })
                    .unwrap();
            w.set_obs(obs.clone());
            for i in 0..200u64 {
                w.push_ping(crate::testutil::sample_ping(i, 9.0)).unwrap();
            }
            w.finish().unwrap()
        };
        assert_eq!(plain.0, observed.0, "metrics must not change store bytes");
        let snap = obs.snapshot().unwrap_or_default();
        assert_eq!(snap.counter("store.rows.ping"), 200);
        assert_eq!(snap.counter("store.chunks.flushed"), observed.1.chunks as u64);
        assert_eq!(snap.counter("store.bytes_written"), observed.1.bytes);
        assert_eq!(
            snap.hist("span.store.flush").map(|h| h.count),
            Some(observed.1.chunks as u64)
        );
    }
}
