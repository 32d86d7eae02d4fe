//! Record sinks: where campaign records stream as they are produced.
//!
//! [`RecordSink`] decouples campaign execution from record storage. The
//! in-memory [`Dataset`] is one sink; `cloudy-store`'s columnar `Writer`
//! is another — with a sink the campaign never needs the whole record set
//! resident, so runs scale past what a `Vec<Record>` can hold.

use crate::dataset::Dataset;
use crate::error::MeasureError;
use crate::record::{CloudPingRecord, PingRecord, TracerouteRecord};

/// A destination for campaign records, fed in deterministic plan order.
///
/// Sinks may fail (e.g. an I/O-backed store); the campaign aborts on the
/// first error. Implementations must be order-sensitive-safe: the executor
/// guarantees the record sequence is identical for every thread count, so
/// a deterministic sink yields byte-identical output across thread counts.
///
/// `sink_cloud` has no default on purpose: every sink must decide what an
/// inter-cloud row means for it (store it, count it, or reject it), rather
/// than silently dropping a record kind it predates.
pub trait RecordSink {
    fn sink_ping(&mut self, r: PingRecord) -> Result<(), MeasureError>;
    fn sink_trace(&mut self, r: TracerouteRecord) -> Result<(), MeasureError>;
    fn sink_cloud(&mut self, r: CloudPingRecord) -> Result<(), MeasureError>;
}

impl RecordSink for Dataset {
    fn sink_ping(&mut self, r: PingRecord) -> Result<(), MeasureError> {
        self.pings.push(r);
        Ok(())
    }

    fn sink_trace(&mut self, r: TracerouteRecord) -> Result<(), MeasureError> {
        self.traces.push(r);
        Ok(())
    }

    fn sink_cloud(&mut self, _r: CloudPingRecord) -> Result<(), MeasureError> {
        // The JSONL dataset codec predates the inter-cloud plane and its
        // shape is pinned by exported files; inter-cloud campaigns stream
        // to the columnar store (or a CloudPingSet) instead.
        Err(MeasureError::sink("Dataset does not accept inter-cloud records"))
    }
}

/// In-memory collection sink for inter-cloud rows (the `Dataset` analog for
/// the inter-cloud plane, without touching `Dataset`'s pinned JSONL codec).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CloudPingSet {
    pub pings: Vec<CloudPingRecord>,
}

impl RecordSink for CloudPingSet {
    fn sink_ping(&mut self, _r: PingRecord) -> Result<(), MeasureError> {
        Err(MeasureError::sink("CloudPingSet only accepts inter-cloud records"))
    }

    fn sink_trace(&mut self, _r: TracerouteRecord) -> Result<(), MeasureError> {
        Err(MeasureError::sink("CloudPingSet only accepts inter-cloud records"))
    }

    fn sink_cloud(&mut self, r: CloudPingRecord) -> Result<(), MeasureError> {
        self.pings.push(r);
        Ok(())
    }
}

/// Fan one record stream out to two sinks (e.g. a `Dataset` and a store
/// writer in the same campaign run, so both see the identical sequence).
pub struct TeeSink<'a, A: RecordSink, B: RecordSink> {
    pub a: &'a mut A,
    pub b: &'a mut B,
}

impl<'a, A: RecordSink, B: RecordSink> TeeSink<'a, A, B> {
    pub fn new(a: &'a mut A, b: &'a mut B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: RecordSink, B: RecordSink> RecordSink for TeeSink<'_, A, B> {
    fn sink_ping(&mut self, r: PingRecord) -> Result<(), MeasureError> {
        self.a.sink_ping(r.clone())?;
        self.b.sink_ping(r)
    }

    fn sink_trace(&mut self, r: TracerouteRecord) -> Result<(), MeasureError> {
        self.a.sink_trace(r.clone())?;
        self.b.sink_trace(r)
    }

    fn sink_cloud(&mut self, r: CloudPingRecord) -> Result<(), MeasureError> {
        self.a.sink_cloud(r)?;
        self.b.sink_cloud(r)
    }
}

/// A sink that only counts, for sizing runs without storing anything.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    pub pings: u64,
    pub traces: u64,
    pub clouds: u64,
}

impl RecordSink for CountingSink {
    fn sink_ping(&mut self, _r: PingRecord) -> Result<(), MeasureError> {
        self.pings += 1;
        Ok(())
    }

    fn sink_trace(&mut self, _r: TracerouteRecord) -> Result<(), MeasureError> {
        self.traces += 1;
        Ok(())
    }

    fn sink_cloud(&mut self, _r: CloudPingRecord) -> Result<(), MeasureError> {
        self.clouds += 1;
        Ok(())
    }
}
