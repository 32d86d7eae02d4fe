//! DESIGN.md §5's four ablations, typed and rendered like the figures.
//!
//! Each removes one modelling choice the paper's conclusions lean on and
//! reports whether the conclusion survives:
//!
//! * [`routing`]: valley-free vs. a naive shortest-AS-path router, over
//!   every access ISP and provider. Does Fig. 10's direct / 1 AS / 2+ AS
//!   split need policy routing?
//! * [`wan`]: the cloud WAN's queueing swept from 2 % to 18 % of
//!   propagation at JP→IN scale. Where does Fig. 13b's consistency go?
//! * [`bias`]: Fig. 5 re-run against Atlas probes placed exactly like
//!   Speedchecker's but wired and managed. How much of the platform gap is
//!   placement, how much the last mile?
//! * [`lastmile`]: the last-mile distribution family swapped. Which
//!   families keep Figs. 7/8's (median, Cv) envelope?

use super::platform_diff::{self, DiffSeries, PlatformDiff};
use super::Render;
use crate::Study;
use cloudy_analysis::report::{ms, pct, Table};
use cloudy_analysis::{BoxStats, Cdf};
use cloudy_cloud::Provider;
use cloudy_geo::Continent;
use cloudy_lastmile::stats_math::sample_cv;
use cloudy_lastmile::{AccessType, LatencyProcess};
use cloudy_measure::campaign::run_campaign;
use cloudy_netsim::FlowRng;
use cloudy_probes::Platform;
use cloudy_topology::routing::{select_route, shortest_unrestricted};
use cloudy_topology::Asn;
use std::cmp::Ordering;

/// Fig. 10's path classes by AS hop count: 1 hop is direct, 2 hops cross
/// one AS, 3 or more cross two or more.
const CLASSES: [&str; 3] = ["direct", "1 AS", "2+ AS"];

fn class_of(hops: usize) -> usize {
    hops.clamp(1, CLASSES.len()) - 1
}

/// Ablation 1: AS-path lengths under both routers, every access ISP to
/// every provider.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingAblation {
    /// (ISP, provider) pairs both routers reach.
    pub pairs: usize,
    /// Pairs where the valley-free path has more AS hops than the naive one.
    pub vf_longer: usize,
    /// Pairs where the valley-free path is shorter. The naive router is a
    /// lower bound, so this counts broken routers and must stay 0.
    pub vf_shorter: usize,
    /// AS hops summed over all pairs, per router.
    pub vf_hops: usize,
    pub naive_hops: usize,
    /// Pairs per Fig. 10 class ([`CLASSES`] order), per router. A
    /// valley-free path is never shorter, so equal counts mean no pair
    /// changed class.
    pub vf_classes: [usize; 3],
    pub naive_classes: [usize; 3],
}

impl RoutingAblation {
    /// Pairs where both routers find paths of the same length.
    pub fn equal(&self) -> usize {
        self.pairs - self.vf_longer - self.vf_shorter
    }
}

pub fn routing(study: &Study) -> RoutingAblation {
    let graph = &study.sim.net.graph;
    let mut isps: Vec<Asn> = study.isps_by_country.values().flatten().copied().collect();
    isps.sort();
    isps.dedup();
    let mut r = RoutingAblation::default();
    for isp in isps {
        for p in Provider::ALL {
            let (Some(vf), Some(naive)) =
                (select_route(graph, isp, p.asn()), shortest_unrestricted(graph, isp, p.asn()))
            else {
                continue;
            };
            let (vf_hops, naive_hops) = (vf.hop_count(), naive.len().saturating_sub(1));
            r.pairs += 1;
            r.vf_hops += vf_hops;
            r.naive_hops += naive_hops;
            match vf_hops.cmp(&naive_hops) {
                Ordering::Greater => r.vf_longer += 1,
                Ordering::Equal => {}
                Ordering::Less => r.vf_shorter += 1,
            }
            r.vf_classes[class_of(vf_hops)] += 1;
            r.naive_classes[class_of(naive_hops)] += 1;
        }
    }
    r
}

impl Render for RoutingAblation {
    fn render(&self) -> String {
        let mean = |hops: usize| format!("{:.2}", hops as f64 / self.pairs.max(1) as f64);
        let mut t = Table::new(vec!["metric", "valley-free", "naive"]);
        t.add_row(vec!["mean AS hops".to_string(), mean(self.vf_hops), mean(self.naive_hops)]);
        for (i, class) in CLASSES.iter().enumerate() {
            t.add_row(vec![
                format!("Fig 10 class: {class}"),
                self.vf_classes[i].to_string(),
                self.naive_classes[i].to_string(),
            ]);
        }
        format!(
            "Ablation: valley-free vs naive shortest-AS-path routing, every access ISP x provider\n\
             {} pairs: valley-free longer in {}, equal in {}, shorter in {}\n{}",
            self.pairs,
            self.vf_longer,
            self.equal(),
            self.vf_shorter,
            t.render()
        )
    }
}

/// JP→IN-scale propagation RTT (ms), the distance of Fig. 13b.
const WAN_PROP_RTT_MS: f64 = 90.0;
/// WAN queueing as a fraction of propagation, from "as engineered" up to
/// public-Internet levels. The last point is the public reference.
const WAN_QUEUE_FRACTIONS: [f64; 5] = [0.02, 0.04, 0.08, 0.12, 0.18];
const WAN_SAMPLES: usize = 40_000;
/// A sweep point is consistent while its IQR stays below this share of
/// the public reference's.
const WAN_CONSISTENT_IQR_SHARE: f64 = 0.6;
/// `FlowRng` stream of the sweep. Every point redraws the same stream, so
/// the points differ only in the queueing process.
const WAN_FLOW: u64 = 0xAB1A_0002;

/// One point of the WAN sweep.
#[derive(Debug, Clone)]
pub struct WanPoint {
    pub queue_fraction: f64,
    pub rtt: BoxStats,
    /// IQR below [`WAN_CONSISTENT_IQR_SHARE`] of the public reference's.
    pub consistent: bool,
}

/// Ablation 2: RTT spread as the WAN's queueing grows.
#[derive(Debug, Clone)]
pub struct WanAblation {
    /// One point per queue fraction, ascending; the last is the public
    /// reference.
    pub points: Vec<WanPoint>,
}

pub fn wan(seed: u64) -> WanAblation {
    let lastmile = LatencyProcess::spiky(5.0, 17.0, 0.5, 0.06, 4.0);
    let mut points: Vec<WanPoint> = WAN_QUEUE_FRACTIONS
        .iter()
        .filter_map(|&queue_fraction| {
            let queue = LatencyProcess::spiky(
                0.0,
                (0.5 + queue_fraction * WAN_PROP_RTT_MS).max(0.05),
                1.0,
                0.005 + queue_fraction / 4.0,
                4.0,
            );
            let mut rng = FlowRng::new(seed, WAN_FLOW);
            let samples: Vec<f64> = (0..WAN_SAMPLES)
                .map(|_| WAN_PROP_RTT_MS + queue.sample(&mut rng) + lastmile.sample(&mut rng))
                .collect();
            let rtt = BoxStats::from_samples(&samples)?;
            Some(WanPoint { queue_fraction, rtt, consistent: false })
        })
        .collect();
    let public_iqr = points.last().map_or(0.0, |p| p.rtt.iqr());
    for p in &mut points {
        p.consistent = p.rtt.iqr() < public_iqr * WAN_CONSISTENT_IQR_SHARE;
    }
    WanAblation { points }
}

impl Render for WanAblation {
    fn render(&self) -> String {
        let mut t = Table::new(vec![
            "WAN queue fraction",
            "median [ms]",
            "IQR [ms]",
            "p95 [ms]",
            "consistent?",
        ]);
        for (i, p) in self.points.iter().enumerate() {
            let public = if i + 1 == self.points.len() { " (public reference)" } else { "" };
            t.add_row(vec![
                format!("{:.0}%{public}", p.queue_fraction * 100.0),
                ms(p.rtt.median),
                ms(p.rtt.iqr()),
                ms(p.rtt.p95),
                if p.consistent { "yes" } else { "no" }.to_string(),
            ]);
        }
        format!(
            "Ablation: cloud-WAN queueing sweep at JP->IN scale \
             (consistent = IQR below {WAN_CONSISTENT_IQR_SHARE}x the public reference's)\n{}",
            t.render()
        )
    }
}

/// Ablation 3: Fig. 5 against the real Atlas and against an Atlas
/// re-scattered like Speedchecker.
#[derive(Debug, Clone)]
pub struct BiasAblation {
    pub real: PlatformDiff,
    /// Speedchecker against Atlas hardware (wired, managed) at
    /// Speedchecker's placement: same countries, cities and ISPs.
    pub rescattered: PlatformDiff,
}

impl BiasAblation {
    /// (real, re-scattered) comparison for one continent.
    pub fn get(&self, c: Continent) -> Option<(&DiffSeries, &DiffSeries)> {
        Some((self.real.get(c)?, self.rescattered.get(c)?))
    }
}

pub fn bias(study: &Study) -> BiasAblation {
    let world = study.config.build_world();
    let mut pop = study.config.sc_population(&world);
    pop.platform = Platform::RipeAtlas;
    for p in &mut pop.probes {
        p.platform = Platform::RipeAtlas;
        p.access = AccessType::Wired;
        p.quality = 0.9;
    }
    let rescattered = run_campaign(&study.config.campaign_config(), &study.sim, &pop);
    BiasAblation {
        real: platform_diff::run(study),
        rescattered: platform_diff::between(&study.sc, &rescattered),
    }
}

impl Render for BiasAblation {
    fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Continent",
            "SC faster vs real Atlas",
            "median gap [ms]",
            "SC faster vs re-scattered Atlas",
            "median gap [ms]",
        ]);
        for (real, cf) in Continent::ALL.iter().filter_map(|c| self.get(*c)) {
            t.add_row(vec![
                real.continent.code().to_string(),
                pct(real.sc_faster),
                ms(real.median_gap()),
                pct(cf.sc_faster),
                ms(cf.median_gap()),
            ]);
        }
        format!(
            "Ablation: deployment bias, real Atlas vs Atlas re-scattered like Speedchecker \
             (gap = SC - Atlas)\n{}",
            t.render()
        )
    }
}

/// EU-scale non-last-mile RTT (propagation, queueing, processing; ms).
const EU_REST_MS: f64 = 22.0;
const LASTMILE_SAMPLES: usize = 60_000;
/// `FlowRng` stream of the families; each redraws it, as the WAN sweep does.
const LASTMILE_FLOW: u64 = 0xAB1A_0004;

/// One last-mile family's observables, as Figs. 7/8 measure them.
#[derive(Debug, Clone)]
pub struct FamilyRow {
    pub family: &'static str,
    pub median_ms: f64,
    pub cv: f64,
    pub p95_ms: f64,
    /// Last-mile share of an EU-scale path's median RTT.
    pub eu_share: f64,
    /// Median 18–28 ms and Cv 0.35–0.75: the envelope of Figs. 7/8.
    pub consistent: bool,
}

/// Ablation 4: the last-mile distribution family swapped.
#[derive(Debug, Clone)]
pub struct LastMileAblation {
    /// The model's family first.
    pub rows: Vec<FamilyRow>,
}

pub fn lastmile(seed: u64) -> LastMileAblation {
    let families = [
        ("lognormal+spikes (model)", LatencyProcess::spiky(5.0, 17.0, 0.50, 0.06, 4.0)),
        ("pure lognormal", LatencyProcess::smooth(5.0, 17.0, 0.50)),
        ("heavy spikes", LatencyProcess::spiky(5.0, 17.0, 0.50, 0.20, 6.0)),
        ("exponential-like tail", LatencyProcess::smooth(5.0, 14.0, 1.40)),
        ("near-deterministic", LatencyProcess::smooth(18.0, 4.0, 0.10)),
    ];
    let rows = families
        .into_iter()
        .map(|(family, process)| {
            let mut rng = FlowRng::new(seed, LASTMILE_FLOW);
            let samples: Vec<f64> =
                (0..LASTMILE_SAMPLES).map(|_| process.sample(&mut rng)).collect();
            let cv = sample_cv(&samples);
            let cdf = Cdf::new(samples);
            let median_ms = cdf.median();
            FamilyRow {
                family,
                median_ms,
                cv,
                p95_ms: cdf.quantile(0.95),
                eu_share: median_ms / (median_ms + EU_REST_MS),
                consistent: (18.0..=28.0).contains(&median_ms) && (0.35..=0.75).contains(&cv),
            }
        })
        .collect();
    LastMileAblation { rows }
}

impl Render for LastMileAblation {
    fn render(&self) -> String {
        let mut t = Table::new(vec![
            "family",
            "median [ms]",
            "Cv",
            "p95 [ms]",
            "EU share",
            "matches Figs. 7/8?",
        ]);
        for r in &self.rows {
            t.add_row(vec![
                r.family.to_string(),
                ms(r.median_ms),
                format!("{:.2}", r.cv),
                ms(r.p95_ms),
                format!("{:.0}%", r.eu_share * 100.0),
                if r.consistent { "yes" } else { "no" }.to_string(),
            ]);
        }
        format!("Ablation: last-mile distribution family\n{}", t.render())
    }
}
