//! Figs. 12/13/17/18: country-pair peering case studies.
//!
//! Each case study filters measurements from one probe country's named ISPs
//! to one datacenter country, builds the per-`<ISP, provider>`
//! interconnection matrix (the figures' heatmaps), and compares latency of
//! direct-peering vs. intermediate-AS paths per provider (the figures'
//! boxplots).

use super::Render;
use crate::Study;
use cloudy_analysis::peering::{classify, Interconnection, InterconnectBreakdown};
use cloudy_analysis::report::{ms, pct, Table};
use cloudy_analysis::{AsLevelPath, BoxStats, Resolver};
use cloudy_cloud::{region, Provider};
use cloudy_geo::CountryCode;
use cloudy_topology::{known, Asn};
use std::collections::HashMap;

/// The four case studies in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStudy {
    /// Fig. 12: German ISPs → UK datacenters.
    GermanyToUk,
    /// Fig. 13: Japanese ISPs → Indian datacenters.
    JapanToIndia,
    /// Fig. 17: Ukrainian ISPs → UK datacenters.
    UkraineToUk,
    /// Fig. 18: Bahraini ISPs → Indian datacenters.
    BahrainToIndia,
}

impl CaseStudy {
    pub fn vp_country(&self) -> CountryCode {
        CountryCode::new(match self {
            CaseStudy::GermanyToUk => "DE",
            CaseStudy::JapanToIndia => "JP",
            CaseStudy::UkraineToUk => "UA",
            CaseStudy::BahrainToIndia => "BH",
        })
    }

    pub fn dc_country(&self) -> CountryCode {
        CountryCode::new(match self {
            CaseStudy::GermanyToUk | CaseStudy::UkraineToUk => "GB",
            CaseStudy::JapanToIndia | CaseStudy::BahrainToIndia => "IN",
        })
    }

    pub fn isps(&self) -> &'static [(Asn, &'static str)] {
        match self {
            CaseStudy::GermanyToUk => known::GERMAN_ISPS,
            CaseStudy::JapanToIndia => known::JAPANESE_ISPS,
            CaseStudy::UkraineToUk => known::UKRAINIAN_ISPS,
            CaseStudy::BahrainToIndia => known::BAHRAINI_ISPS,
        }
    }

    pub fn figure(&self) -> &'static str {
        match self {
            CaseStudy::GermanyToUk => "Fig 12",
            CaseStudy::JapanToIndia => "Fig 13",
            CaseStudy::UkraineToUk => "Fig 17",
            CaseStudy::BahrainToIndia => "Fig 18",
        }
    }
}

/// One matrix cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    pub isp: Asn,
    pub isp_name: &'static str,
    pub provider: Provider,
    pub dominant: Option<(Interconnection, f64)>,
    pub paths: usize,
}

/// One latency comparison row.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    pub provider: Provider,
    pub direct: Option<BoxStats>,
    pub transit: Option<BoxStats>,
    pub direct_n: usize,
    pub transit_n: usize,
}

#[derive(Debug, Clone)]
pub struct PeeringCase {
    pub case: CaseStudy,
    pub matrix: Vec<MatrixCell>,
    pub latency: Vec<LatencyRow>,
}

impl PeeringCase {
    pub fn cell(&self, isp: Asn, provider: Provider) -> Option<&MatrixCell> {
        self.matrix.iter().find(|c| c.isp == isp && c.provider == provider)
    }
}

pub fn run(study: &Study, case: CaseStudy) -> PeeringCase {
    let resolver = Resolver::new(&study.sim.net.prefixes);
    let vp = case.vp_country();
    let dc = case.dc_country();

    // Interconnection per (isp, provider) from traceroutes.
    let mut breakdowns: HashMap<(Asn, Provider), InterconnectBreakdown> = HashMap::new();
    for t in &study.sc.traces {
        if t.country != vp {
            continue;
        }
        if region::by_id(t.region).map(|r| r.country() != dc).unwrap_or(true) {
            continue;
        }
        if !case.isps().iter().any(|(a, _)| *a == t.isp) {
            continue;
        }
        let path = AsLevelPath::from_trace(t, &resolver, &study.sim.net.ixps);
        breakdowns.entry((t.isp, t.provider)).or_default().add(classify(&path));
    }

    let mut matrix = Vec::new();
    for (isp, name) in case.isps() {
        for p in Provider::FIGURE_NINE {
            let b = breakdowns.get(&(*isp, p));
            matrix.push(MatrixCell {
                isp: *isp,
                isp_name: name,
                provider: p,
                dominant: b.and_then(|b| b.dominant()),
                paths: b.map(|b| b.classified_total()).unwrap_or(0),
            });
        }
    }

    // Latency split: a ping is "direct" when its (isp, provider) cell is
    // dominated by Direct/OneIxp adjacency, "transit" otherwise.
    let mut direct: HashMap<Provider, Vec<f64>> = HashMap::new();
    let mut transit: HashMap<Provider, Vec<f64>> = HashMap::new();
    for ping in &study.sc.pings {
        if ping.country != vp {
            continue;
        }
        if region::by_id(ping.region).map(|r| r.country() != dc).unwrap_or(true) {
            continue;
        }
        if !case.isps().iter().any(|(a, _)| *a == ping.isp) {
            continue;
        }
        let Some(rtt) = ping.rtt_ms() else { continue };
        let Some(b) = breakdowns.get(&(ping.isp, ping.provider)) else { continue };
        let Some((dom, _)) = b.dominant() else { continue };
        match dom {
            Interconnection::Direct | Interconnection::OneIxp => {
                direct.entry(ping.provider).or_default().push(rtt)
            }
            Interconnection::OneAs | Interconnection::TwoPlusAs => {
                transit.entry(ping.provider).or_default().push(rtt)
            }
        }
    }
    let min_group = 5usize;
    let mut latency = Vec::new();
    for p in Provider::FIGURE_NINE {
        let d = direct.get(&p).filter(|v| v.len() >= min_group);
        let t = transit.get(&p).filter(|v| v.len() >= min_group);
        if d.is_none() && t.is_none() {
            continue;
        }
        latency.push(LatencyRow {
            provider: p,
            direct: d.and_then(|v| BoxStats::from_samples(v)),
            transit: t.and_then(|v| BoxStats::from_samples(v)),
            direct_n: direct.get(&p).map(Vec::len).unwrap_or(0),
            transit_n: transit.get(&p).map(Vec::len).unwrap_or(0),
        });
    }

    PeeringCase { case, matrix, latency }
}

impl Render for PeeringCase {
    fn render(&self) -> String {
        let mut mt = Table::new(vec!["ISP", "Provider", "Dominant", "Share", "Paths"]);
        for c in &self.matrix {
            if c.paths == 0 {
                continue;
            }
            let (dom, share) = c.dominant.expect("paths>0 implies dominant"); // audit:allow(expect)
            mt.add_row(vec![
                format!("{} (AS{})", c.isp_name, c.isp.0),
                c.provider.abbrev().to_string(),
                dom.label().to_string(),
                pct(share),
                c.paths.to_string(),
            ]);
        }
        let fmt = |b: &Option<BoxStats>| {
            b.map(|s| format!("{} [{}..{}]", ms(s.median), ms(s.q1), ms(s.q3)))
                .unwrap_or_else(|| "-".into())
        };
        let mut lt = Table::new(vec!["Provider", "direct (med [q1..q3])", "transit", "n d/t"]);
        for r in &self.latency {
            lt.add_row(vec![
                r.provider.abbrev().to_string(),
                fmt(&r.direct),
                fmt(&r.transit),
                format!("{}/{}", r.direct_n, r.transit_n),
            ]);
        }
        format!(
            "{fig}a: {vp} ISPs x providers interconnection matrix (to {dc} DCs)\n{m}\n\
             {fig}b: direct vs transit latency\n{l}",
            fig = self.case.figure(),
            vp = self.case.vp_country(),
            dc = self.case.dc_country(),
            m = mt.render(),
            l = lt.render(),
        )
    }
}
