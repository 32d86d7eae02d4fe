//! Measurement records — the rows of the campaign dataset.
//!
//! Records deliberately carry only what a real measurement platform would
//! return plus probe-registry metadata (platform, country, declared access
//! type, serving ASN). Everything else — AS paths, interconnection types,
//! last-mile latencies, nearest datacenters — must be *derived* by the
//! analysis crate from the raw RTTs and hop IPs, exactly as the paper
//! derives them from its dataset.

use cloudy_cloud::{region, Provider, RegionId, RouteClass};
use cloudy_geo::{Continent, CountryCode};
use cloudy_lastmile::AccessType;
use cloudy_netsim::{Protocol, TraceHop};
use cloudy_probes::{Platform, ProbeId};
use cloudy_topology::Asn;
use serde::Serialize;
use std::net::Ipv4Addr;

/// How one measurement task resolved after its (bounded) retries.
///
/// Failures are first-class rows: they persist through every codec and the
/// store, and analysis must *opt in* to RTTs via [`TaskOutcome::rtt_ms`] —
/// a missing RTT can never silently aggregate as a zero-latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum TaskOutcome {
    /// Delivered; the end-to-end RTT in milliseconds.
    Ok(f64),
    /// Lost on the wire (intrinsic path loss or injected platform loss).
    Lost,
    /// Aborted at the scheduler's budget (ms).
    Timeout(f64),
    /// The probe was inside an offline window; never retried.
    ProbeOffline,
    /// Rejected by the platform's rate limiter.
    RateLimited,
}

impl TaskOutcome {
    /// The RTT, when the measurement delivered.
    pub fn rtt_ms(&self) -> Option<f64> {
        match self {
            TaskOutcome::Ok(rtt) => Some(*rtt),
            _ => None,
        }
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }

    /// Worth another attempt? Offline probes are gone for the whole
    /// window, so only wire-level failures retry.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TaskOutcome::Lost | TaskOutcome::Timeout(_) | TaskOutcome::RateLimited
        )
    }
}

/// One ping measurement.
///
/// Serialization is hand-written for wire compatibility: a delivered ping
/// writes its RTT as the historical `rtt_ms` field and a failed one writes
/// an explicit `outcome` field instead, so zero-fault exports stay
/// byte-identical to datasets collected before fault injection existed.
#[derive(Debug, Clone, PartialEq)]
pub struct PingRecord {
    pub probe: ProbeId,
    pub platform: Platform,
    pub country: CountryCode,
    pub continent: Continent,
    /// Probe's city (registry metadata; used for the Fig. 16 `<city, ASN>`
    /// matching).
    pub city: String,
    pub isp: Asn,
    /// Declared access type from the probe registry. The paper cannot see
    /// this for Speedchecker and infers it from traceroutes; we keep the
    /// ground truth here so the inference can be *validated*.
    pub access: AccessType,
    pub region: RegionId,
    pub provider: Provider,
    pub proto: Protocol,
    /// How the task resolved; [`TaskOutcome::Ok`] carries the RTT.
    pub outcome: TaskOutcome,
    /// Campaign hour of the measurement.
    pub hour: u64,
}

impl PingRecord {
    /// The RTT when the ping delivered; `None` for failed tasks.
    pub fn rtt_ms(&self) -> Option<f64> {
        self.outcome.rtt_ms()
    }
}

/// One inter-cloud ping: a region↔region measurement over one route plane.
///
/// Deliberately minimal — everything a reader might group by (provider,
/// country, continent) is derivable from the static region table via the
/// two region ids, so the wire shape stays small and stable. Serialization
/// is hand-written like [`PingRecord`]: delivered pings write `rtt_ms` and
/// omit `outcome`; `route` is written as [`RouteClass::label`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudPingRecord {
    /// Probing region.
    pub src: RegionId,
    /// Probed region.
    pub dst: RegionId,
    /// Which plane carried the probe.
    pub route: RouteClass,
    /// How the task resolved; [`TaskOutcome::Ok`] carries the RTT.
    pub outcome: TaskOutcome,
    /// Campaign hour of the measurement.
    pub hour: u64,
}

impl CloudPingRecord {
    /// The RTT when the ping delivered; `None` for failed tasks.
    pub fn rtt_ms(&self) -> Option<f64> {
        self.outcome.rtt_ms()
    }

    /// Provider of the probing region (from the static region table).
    pub fn src_provider(&self) -> Option<Provider> {
        region::by_id(self.src).map(|r| r.provider)
    }

    /// Provider of the probed region.
    pub fn dst_provider(&self) -> Option<Provider> {
        region::by_id(self.dst).map(|r| r.provider)
    }
}

impl Serialize for CloudPingRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("src".to_string(), self.src.to_value()),
            ("dst".to_string(), self.dst.to_value()),
            ("route".to_string(), self.route.label().to_string().to_value()),
        ];
        match self.outcome {
            TaskOutcome::Ok(rtt) => fields.push(("rtt_ms".to_string(), rtt.to_value())),
            ref failed => fields.push(("outcome".to_string(), failed.to_value())),
        }
        fields.push(("hour".to_string(), self.hour.to_value()));
        serde::Value::Object(fields)
    }
}

/// One traceroute hop response.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HopRecord {
    pub ttl: u8,
    pub ip: Option<Ipv4Addr>,
    pub rtt_ms: Option<f64>,
}

impl From<TraceHop> for HopRecord {
    fn from(t: TraceHop) -> Self {
        HopRecord { ttl: t.ttl, ip: t.ip, rtt_ms: t.rtt_ms }
    }
}

/// One traceroute measurement.
///
/// Serialization is hand-written for wire compatibility: when the outcome
/// is exactly [`outcome_for_hops`] of the hop list (every delivered trace)
/// the `outcome` field is omitted (a reader re-derives it from the hops),
/// so zero-fault exports keep the historical record shape byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct TracerouteRecord {
    pub probe: ProbeId,
    pub platform: Platform,
    pub country: CountryCode,
    pub continent: Continent,
    pub city: String,
    pub isp: Asn,
    pub access: AccessType,
    pub region: RegionId,
    pub provider: Provider,
    pub proto: Protocol,
    /// The probe's public source address.
    pub src_ip: Ipv4Addr,
    pub hops: Vec<HopRecord>,
    /// How the task resolved. Failed traceroutes carry no hops; for
    /// delivered ones `Ok` holds the destination hop's RTT (see
    /// [`outcome_for_hops`]).
    pub outcome: TaskOutcome,
    pub hour: u64,
}

/// The one derivation rule tying a delivered traceroute's hop list to its
/// outcome: `Ok(end-to-end RTT of the last hop)`. Used identically by the
/// executor, the store decoder, and test generators so round trips agree.
pub fn outcome_for_hops(hops: &[HopRecord]) -> TaskOutcome {
    TaskOutcome::Ok(hops.last().and_then(|h| h.rtt_ms).unwrap_or(0.0))
}

impl Serialize for PingRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("probe".to_string(), self.probe.to_value()),
            ("platform".to_string(), self.platform.to_value()),
            ("country".to_string(), self.country.to_value()),
            ("continent".to_string(), self.continent.to_value()),
            ("city".to_string(), self.city.to_value()),
            ("isp".to_string(), self.isp.to_value()),
            ("access".to_string(), self.access.to_value()),
            ("region".to_string(), self.region.to_value()),
            ("provider".to_string(), self.provider.to_value()),
            ("proto".to_string(), self.proto.to_value()),
        ];
        match self.outcome {
            TaskOutcome::Ok(rtt) => fields.push(("rtt_ms".to_string(), rtt.to_value())),
            ref failed => fields.push(("outcome".to_string(), failed.to_value())),
        }
        fields.push(("hour".to_string(), self.hour.to_value()));
        serde::Value::Object(fields)
    }
}

impl Serialize for TracerouteRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("probe".to_string(), self.probe.to_value()),
            ("platform".to_string(), self.platform.to_value()),
            ("country".to_string(), self.country.to_value()),
            ("continent".to_string(), self.continent.to_value()),
            ("city".to_string(), self.city.to_value()),
            ("isp".to_string(), self.isp.to_value()),
            ("access".to_string(), self.access.to_value()),
            ("region".to_string(), self.region.to_value()),
            ("provider".to_string(), self.provider.to_value()),
            ("proto".to_string(), self.proto.to_value()),
            ("src_ip".to_string(), self.src_ip.to_value()),
            ("hops".to_string(), self.hops.to_value()),
        ];
        if self.outcome != outcome_for_hops(&self.hops) {
            fields.push(("outcome".to_string(), self.outcome.to_value()));
        }
        fields.push(("hour".to_string(), self.hour.to_value()));
        serde::Value::Object(fields)
    }
}

impl TracerouteRecord {
    /// End-to-end RTT: the destination hop's response (the traceroute always
    /// reaches the VM in our simulator, as TCP traceroutes to an open port
    /// do in practice). Failed tasks have no hops and thus no latency.
    pub fn end_to_end_ms(&self) -> Option<f64> {
        self.hops.last().and_then(|h| h.rtt_ms)
    }

    /// Responding hops only.
    pub fn responding(&self) -> impl Iterator<Item = &HopRecord> {
        self.hops.iter().filter(|h| h.ip.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(ttl: u8, ip: Option<[u8; 4]>, rtt: Option<f64>) -> HopRecord {
        HopRecord { ttl, ip: ip.map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3])), rtt_ms: rtt }
    }

    fn trace(hops: Vec<HopRecord>) -> TracerouteRecord {
        let outcome = outcome_for_hops(&hops);
        TracerouteRecord {
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
            src_ip: Ipv4Addr::new(11, 0, 0, 9),
            hops,
            outcome,
            hour: 0,
        }
    }

    #[test]
    fn outcomes_expose_rtts_only_when_ok() {
        assert_eq!(TaskOutcome::Ok(12.5).rtt_ms(), Some(12.5));
        for o in [TaskOutcome::Lost, TaskOutcome::Timeout(800.0), TaskOutcome::ProbeOffline, TaskOutcome::RateLimited] {
            assert_eq!(o.rtt_ms(), None);
            assert!(!o.is_ok());
        }
        assert!(TaskOutcome::Lost.is_retryable());
        assert!(TaskOutcome::Timeout(800.0).is_retryable());
        assert!(TaskOutcome::RateLimited.is_retryable());
        assert!(!TaskOutcome::ProbeOffline.is_retryable());
        assert!(!TaskOutcome::Ok(1.0).is_retryable());
        let json = serde_json::to_string(&TaskOutcome::Timeout(800.0)).unwrap();
        assert_eq!(json, r#"{"Timeout":800}"#);
    }

    fn ping(outcome: TaskOutcome) -> PingRecord {
        PingRecord {
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
            outcome,
            hour: 3,
        }
    }

    #[test]
    fn delivered_records_keep_the_legacy_wire_shape() {
        // Byte compatibility with pre-fault datasets: a delivered ping
        // serializes its RTT as `rtt_ms` (no `outcome` field), and a
        // delivered trace omits `outcome` entirely.
        let json = serde_json::to_string(&ping(TaskOutcome::Ok(42.5))).unwrap();
        assert!(json.contains("\"rtt_ms\":42.5"), "{json}");
        assert!(!json.contains("outcome"), "{json}");
        let t = trace(vec![hop(1, Some([192, 168, 0, 1]), Some(12.0))]);
        let json = serde_json::to_string(&t).unwrap();
        assert!(!json.contains("outcome"), "{json}");
    }

    #[test]
    fn failed_records_write_an_outcome_field() {
        for outcome in [
            TaskOutcome::Lost,
            TaskOutcome::Timeout(800.0),
            TaskOutcome::ProbeOffline,
            TaskOutcome::RateLimited,
        ] {
            let p = ping(outcome);
            let json = serde_json::to_string(&p).unwrap();
            assert!(json.contains("outcome"), "{json}");
            assert!(!json.contains("rtt_ms"), "{json}");

            let mut t = trace(vec![]);
            t.outcome = outcome;
            let json = serde_json::to_string(&t).unwrap();
            assert!(json.contains("outcome"), "{json}");
        }
    }

    #[test]
    fn end_to_end_is_last_hop() {
        let t = trace(vec![
            hop(1, Some([192, 168, 0, 1]), Some(12.0)),
            hop(2, None, None),
            hop(3, Some([20, 0, 0, 1]), Some(45.0)),
        ]);
        assert_eq!(t.end_to_end_ms(), Some(45.0));
    }

    #[test]
    fn responding_filters_stars() {
        let t = trace(vec![
            hop(1, Some([192, 168, 0, 1]), Some(12.0)),
            hop(2, None, None),
            hop(3, Some([20, 0, 0, 1]), Some(45.0)),
        ]);
        assert_eq!(t.responding().count(), 2);
    }

    #[test]
    fn empty_trace_has_no_latency() {
        assert_eq!(trace(vec![]).end_to_end_ms(), None);
    }

    fn cloud_ping(outcome: TaskOutcome) -> CloudPingRecord {
        CloudPingRecord {
            src: RegionId(3),
            dst: RegionId(77),
            route: RouteClass::PrivateWan,
            outcome,
            hour: 9,
        }
    }

    #[test]
    fn cloud_pings_keep_the_ping_wire_discipline() {
        let json = serde_json::to_string(&cloud_ping(TaskOutcome::Ok(8.25))).unwrap();
        assert!(json.contains("\"rtt_ms\":8.25"), "{json}");
        assert!(json.contains("\"route\":\"private\""), "{json}");
        assert!(!json.contains("outcome"), "{json}");

        for outcome in [TaskOutcome::Lost, TaskOutcome::Timeout(800.0)] {
            let r = CloudPingRecord { route: RouteClass::PublicTransit, ..cloud_ping(outcome) };
            let json = serde_json::to_string(&r).unwrap();
            assert!(json.contains("outcome"), "{json}");
            assert!(json.contains("\"route\":\"public\""), "{json}");
            assert!(!json.contains("rtt_ms"), "{json}");
        }
    }

    #[test]
    fn cloud_ping_providers_resolve_from_region_table() {
        let r = cloud_ping(TaskOutcome::Ok(1.0));
        assert!(r.src_provider().is_some());
        assert!(r.dst_provider().is_some());
        let bad = CloudPingRecord { src: RegionId(u16::MAX), ..r };
        assert_eq!(bad.src_provider(), None);
    }
}
