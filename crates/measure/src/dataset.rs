//! The campaign dataset: in-memory container and JSON-lines export.
//!
//! The paper publishes its dataset (3.8M pings, 7M+ traceroutes) for
//! external analysis \[60\]. Here a study is written and read back as
//! columnar store files (`cloudy-store`; `cloudy-repro run` and `analyze`).
//! `to_jsonl` is a write-only export for outside tools: nothing in the
//! workspace parses it back.

use crate::error::MeasureError;
use crate::record::{PingRecord, TracerouteRecord};
use cloudy_probes::Platform;
use serde::Serialize;

/// The collected output of one platform's campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset {
    pub platform: Platform,
    pub pings: Vec<PingRecord>,
    pub traces: Vec<TracerouteRecord>,
}

impl Dataset {
    pub fn new(platform: Platform) -> Self {
        Dataset { platform, pings: Vec::new(), traces: Vec::new() }
    }

    /// Merge another dataset into this one. Errors (instead of panicking)
    /// when the platforms differ — mixed-platform merges are a caller bug
    /// the library must report, not abort on.
    pub fn merge(&mut self, other: Dataset) -> Result<(), MeasureError> {
        if self.platform != other.platform {
            return Err(MeasureError::dataset(format!(
                "platform mismatch: {:?} vs {:?}",
                self.platform, other.platform
            )));
        }
        self.pings.extend(other.pings);
        self.traces.extend(other.traces);
        Ok(())
    }

    /// Stream the JSON-lines export into any `fmt::Write` sink — one header
    /// line, then one line per record — without materialising the whole
    /// document. [`Dataset::to_jsonl`] is a thin wrapper over this.
    pub fn write_jsonl(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        let header = serde_json::to_string(&Header {
            platform: self.platform,
            pings: self.pings.len(),
            traces: self.traces.len(),
        })
        .map_err(|_| std::fmt::Error)?;
        out.write_str(&header)?;
        out.write_char('\n')?;
        for p in &self.pings {
            let line =
                serde_json::to_string(&LineRef::Ping(p)).map_err(|_| std::fmt::Error)?;
            out.write_str(&line)?;
            out.write_char('\n')?;
        }
        for t in &self.traces {
            let line =
                serde_json::to_string(&LineRef::Trace(t)).map_err(|_| std::fmt::Error)?;
            out.write_str(&line)?;
            out.write_char('\n')?;
        }
        Ok(())
    }

    /// Export as JSON lines: one header line, then one line per record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out).expect("write to String cannot fail"); // audit:allow(expect)
        out
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.pings.len() + self.traces.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pings.is_empty() && self.traces.is_empty()
    }
}

#[derive(Serialize)]
struct Header {
    platform: Platform,
    pings: usize,
    traces: usize,
}

/// One record line of the export, borrowed so streaming export never
/// clones records. (Manual impl: the serde shim derive does not support
/// lifetimes.)
enum LineRef<'a> {
    Ping(&'a PingRecord),
    Trace(&'a TracerouteRecord),
}

impl Serialize for LineRef<'_> {
    fn to_value(&self) -> serde::Value {
        match self {
            LineRef::Ping(p) => serde::Value::Object(vec![("Ping".to_string(), p.to_value())]),
            LineRef::Trace(t) => {
                serde::Value::Object(vec![("Trace".to_string(), t.to_value())])
            }
        }
    }
}

/// Summary statistics of a dataset (for reports and the README quickstart).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DatasetSummary {
    pub pings: usize,
    pub traces: usize,
    pub probes: usize,
    pub countries: usize,
}

impl Dataset {
    pub fn summary(&self) -> DatasetSummary {
        let mut probes = std::collections::HashSet::new();
        let mut countries = std::collections::HashSet::new();
        for p in &self.pings {
            probes.insert(p.probe);
            countries.insert(p.country);
        }
        for t in &self.traces {
            probes.insert(t.probe);
            countries.insert(t.country);
        }
        DatasetSummary {
            pings: self.pings.len(),
            traces: self.traces.len(),
            probes: probes.len(),
            countries: countries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_cloud::{Provider, RegionId};
    use cloudy_geo::{Continent, CountryCode};
    use cloudy_lastmile::AccessType;
    use cloudy_netsim::Protocol;
    use cloudy_probes::ProbeId;
    use cloudy_topology::Asn;
    use crate::record::{HopRecord, TaskOutcome};
    use std::net::Ipv4Addr;

    fn sample() -> Dataset {
        let mut ds = Dataset::new(Platform::Speedchecker);
        ds.pings.push(PingRecord {
            probe: ProbeId(1),
            platform: Platform::Speedchecker,
            country: CountryCode::new("DE"),
            continent: Continent::Europe,
            city: "Munich".into(),
            isp: Asn(3320),
            access: AccessType::WifiHome,
            region: RegionId(0),
            provider: Provider::AmazonEc2,
            proto: Protocol::Tcp,
            outcome: TaskOutcome::Ok(34.5),
            hour: 12,
        });
        ds.traces.push(TracerouteRecord {
            probe: ProbeId(1),
            platform: Platform::Speedchecker,
            country: CountryCode::new("DE"),
            continent: Continent::Europe,
            city: "Munich".into(),
            isp: Asn(3320),
            access: AccessType::WifiHome,
            region: RegionId(0),
            provider: Provider::AmazonEc2,
            proto: Protocol::Icmp,
            src_ip: Ipv4Addr::new(11, 0, 3, 4),
            hops: vec![
                HopRecord { ttl: 1, ip: Some(Ipv4Addr::new(192, 168, 0, 1)), rtt_ms: Some(11.0) },
                HopRecord { ttl: 2, ip: None, rtt_ms: None },
                HopRecord { ttl: 3, ip: Some(Ipv4Addr::new(11, 0, 0, 1)), rtt_ms: Some(25.0) },
            ],
            outcome: TaskOutcome::Ok(25.0),
            hour: 12,
        });
        ds
    }

    #[test]
    fn merge_and_summary() {
        let mut a = sample();
        let b = sample();
        a.merge(b).unwrap();
        assert_eq!(a.pings.len(), 2);
        let s = a.summary();
        assert_eq!(s.pings, 2);
        assert_eq!(s.traces, 2);
        assert_eq!(s.probes, 1);
        assert_eq!(s.countries, 1);
    }

    #[test]
    fn merge_rejects_platform_mismatch_without_panicking() {
        let mut a = sample();
        let b = Dataset::new(Platform::RipeAtlas);
        let err = a.merge(b).unwrap_err();
        assert!(err.to_string().contains("platform mismatch"), "{err}");
        // The failed merge must leave the receiver untouched.
        assert_eq!(a, sample());
    }

    #[test]
    fn streaming_jsonl_matches_string_api() {
        let ds = sample();
        let mut streamed = String::new();
        ds.write_jsonl(&mut streamed).unwrap();
        assert_eq!(streamed, ds.to_jsonl());
    }
}
