//! §5's last-mile inference from traceroutes.
//!
//! "We infer the last-mile as the link segment between probe IP address and
//! first hop within ISP AS. [...] home VPs [...] traverse a private
//! first-hop (home router) before ingressing the ISP AS. [...] The SC cell
//! category includes measurements from VPs that have a direct one-hop link
//! to ISP ASN."
//!
//! The classifier sees only hop addresses — CGN'd home probes genuinely get
//! misclassified as cellular here, the false positive §5 documents. Tests in
//! `cloudy-core` quantify that error against simulator ground truth.

use crate::asmap::{Resolution, Resolver};
use cloudy_measure::TracerouteRecord;
use serde::Serialize;

/// Access class inferred from the traceroute (not ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum InferredAccess {
    /// Private first hop: home WiFi behind a home router.
    Home,
    /// Direct public/CGN first hop: cellular.
    Cell,
}

impl InferredAccess {
    pub fn label(&self) -> &'static str {
        match self {
            InferredAccess::Home => "SC home",
            InferredAccess::Cell => "SC cell",
        }
    }
}

/// Extracted last-mile latencies for one traceroute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LastMile {
    pub access: InferredAccess,
    /// USR→ISP: RTT to the first hop inside the serving ISP's AS.
    pub usr_isp_ms: f64,
    /// RTR→ISP: the wired part of a home connection (USR→ISP minus the RTT
    /// to the home router). `None` for cell probes or silent home routers.
    pub rtr_isp_ms: Option<f64>,
    /// End-to-end RTT of the same traceroute, when the destination answered.
    pub total_ms: Option<f64>,
}

impl LastMile {
    /// Last-mile share of the end-to-end latency (Fig. 7a / 19).
    pub fn share(&self) -> Option<f64> {
        let total = self.total_ms?;
        if total <= 0.0 {
            return None;
        }
        Some((self.usr_isp_ms / total).clamp(0.0, 1.0))
    }
}

/// Infer the last mile from one traceroute. Returns `None` when the
/// traceroute never shows a hop inside an AS (hopelessly filtered paths).
pub fn infer(trace: &TracerouteRecord, resolver: &Resolver) -> Option<LastMile> {
    let mut private_rtt: Option<f64> = None;
    let mut saw_private_or_cgn_first = false;
    let mut first_hop_seen = false;
    for hop in trace.responding() {
        let ip = hop.ip.expect("responding"); // audit:allow(expect)
        let rtt = hop.rtt_ms.expect("responding hop has rtt"); // audit:allow(expect)
        match resolver.resolve(ip) {
            Resolution::Private => {
                if !first_hop_seen {
                    private_rtt = Some(rtt);
                    saw_private_or_cgn_first = true;
                }
                first_hop_seen = true;
            }
            Resolution::Cgn => {
                // CGN space is *not* private per the classifier: the paper's
                // documented misclassification path.
                first_hop_seen = true;
            }
            Resolution::As(_) => {
                let access = if private_rtt.is_some() {
                    InferredAccess::Home
                } else {
                    InferredAccess::Cell
                };
                let rtr_isp_ms = private_rtt.map(|p| (rtt - p).max(0.0));
                let _ = saw_private_or_cgn_first;
                return Some(LastMile {
                    access,
                    usr_isp_ms: rtt,
                    rtr_isp_ms,
                    total_ms: trace.end_to_end_ms(),
                });
            }
            Resolution::Unknown => {
                first_hop_seen = true;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_cloud::{Provider, RegionId};
    use cloudy_geo::{Continent, CountryCode};
    use cloudy_lastmile::AccessType;
    use cloudy_measure::HopRecord;
    use cloudy_netsim::Protocol;
    use cloudy_probes::{Platform, ProbeId};
    use cloudy_topology::{Asn, IpPrefix, PrefixTable};
    use std::net::Ipv4Addr;

    fn table() -> PrefixTable {
        let mut t = PrefixTable::new();
        t.announce(IpPrefix::new(Ipv4Addr::new(11, 0, 0, 0), 16), Asn(10));
        t.announce(IpPrefix::new(Ipv4Addr::new(13, 0, 0, 0), 16), Asn(15169));
        t
    }

    fn trace(hops: Vec<(Option<[u8; 4]>, f64)>) -> TracerouteRecord {
        let hops: Vec<HopRecord> = hops
            .into_iter()
            .enumerate()
            .map(|(i, (ip, rtt))| HopRecord {
                ttl: (i + 1) as u8,
                ip: ip.map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3])),
                rtt_ms: ip.map(|_| rtt),
            })
            .collect();
        let outcome = cloudy_measure::outcome_for_hops(&hops);
        TracerouteRecord {
            probe: ProbeId(1),
            platform: Platform::Speedchecker,
            country: CountryCode::new("DE"),
            continent: Continent::Europe,
            city: "Munich".into(),
            isp: Asn(10),
            access: AccessType::WifiHome,
            region: RegionId(0),
            provider: Provider::Google,
            proto: Protocol::Icmp,
            src_ip: Ipv4Addr::new(11, 0, 0, 2),
            hops,
            outcome,
            hour: 0,
        }
    }

    #[test]
    fn home_probe_inferred_with_segments() {
        let t = table();
        let r = Resolver::new(&t);
        let tr = trace(vec![
            (Some([192, 168, 0, 1]), 12.0),
            (Some([11, 0, 0, 1]), 23.0),
            (Some([13, 0, 0, 1]), 40.0),
        ]);
        let lm = infer(&tr, &r).unwrap();
        assert_eq!(lm.access, InferredAccess::Home);
        assert_eq!(lm.usr_isp_ms, 23.0);
        assert_eq!(lm.rtr_isp_ms, Some(11.0));
        assert_eq!(lm.total_ms, Some(40.0));
        assert!((lm.share().unwrap() - 23.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn cell_probe_inferred() {
        let t = table();
        let r = Resolver::new(&t);
        let tr = trace(vec![(Some([11, 0, 0, 1]), 21.0), (Some([13, 0, 0, 1]), 50.0)]);
        let lm = infer(&tr, &r).unwrap();
        assert_eq!(lm.access, InferredAccess::Cell);
        assert_eq!(lm.usr_isp_ms, 21.0);
        assert_eq!(lm.rtr_isp_ms, None);
    }

    #[test]
    fn cgn_home_probe_misclassified_as_cell() {
        // The §5 false positive, reproduced on purpose.
        let t = table();
        let r = Resolver::new(&t);
        let tr = trace(vec![
            (Some([100, 70, 0, 1]), 14.0),
            (Some([11, 0, 0, 1]), 24.0),
            (Some([13, 0, 0, 1]), 45.0),
        ]);
        let lm = infer(&tr, &r).unwrap();
        assert_eq!(lm.access, InferredAccess::Cell);
    }

    #[test]
    fn silent_home_router_still_classifies_as_cell() {
        // If the home router drops probes, the first visible hop is the ISP:
        // indistinguishable from cellular (another documented artifact).
        let t = table();
        let r = Resolver::new(&t);
        let tr = trace(vec![(None, 0.0), (Some([11, 0, 0, 1]), 23.0), (Some([13, 0, 0, 1]), 40.0)]);
        let lm = infer(&tr, &r).unwrap();
        assert_eq!(lm.access, InferredAccess::Cell);
    }

    #[test]
    fn no_as_hops_is_none() {
        let t = table();
        let r = Resolver::new(&t);
        let tr = trace(vec![(Some([192, 168, 0, 1]), 12.0), (None, 0.0)]);
        assert!(infer(&tr, &r).is_none());
    }

    #[test]
    fn negative_wired_segment_clamped() {
        // Traceroute slop can make the ISP hop *look* faster than the home
        // router; the wired segment clamps at zero rather than going
        // negative.
        let t = table();
        let r = Resolver::new(&t);
        let tr = trace(vec![
            (Some([192, 168, 0, 1]), 25.0),
            (Some([11, 0, 0, 1]), 22.0),
            (Some([13, 0, 0, 1]), 40.0),
        ]);
        let lm = infer(&tr, &r).unwrap();
        assert_eq!(lm.rtr_isp_ms, Some(0.0));
    }
}
