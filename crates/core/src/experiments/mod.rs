//! One module per table/figure of the paper, plus DESIGN.md §5's ablations.
//!
//! Every experiment exposes `run(&Study) -> <TypedResult>` where the result
//! implements [`Render`] — producing the same rows/series the paper's
//! artifact plots. [`run_one`] renders any [`ExperimentId`] for
//! `cloudy-repro experiment`; [`run_all`] renders the paper's artifacts for
//! `cloudy-repro all`, `EXPERIMENTS.md` and the benchmark's `repro`
//! workload.

use crate::Study;

pub mod ablation;
pub mod continent_cdf;
pub mod util;
pub mod country_map;
pub mod deployment;
pub mod diurnal;
pub mod export;
pub mod interconnect;
pub mod intercontinental;
pub mod lastmile_cv;
pub mod lastmile_share;
pub mod peering_case;
pub mod pervasiveness;
pub mod platform_diff;
pub mod protocol_compare;

/// Anything that renders to the textual figure/table artifact.
pub trait Render {
    fn render(&self) -> String;
}

/// Experiment identifiers, matching the paper's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    Table1,
    Fig1Deployment,
    Fig2Atlas,
    Fig3CountryMap,
    Fig4ContinentCdf,
    Fig5PlatformDiff,
    Fig6Intercontinental,
    Fig7LastMile,
    Fig8Cv,
    Fig9CvCountries,
    Fig10Interconnect,
    Fig11Pervasiveness,
    Fig12EuCase,
    Fig13AsiaCase,
    Fig14Closeness,
    Fig15IcmpTcp,
    Fig16Matched,
    Fig17UaCase,
    Fig18BhCase,
    Fig19LastMileNearest,
    AblationRouting,
    AblationWan,
    AblationBias,
    AblationLastMile,
}

impl ExperimentId {
    pub const ALL: [ExperimentId; 20] = [
        ExperimentId::Table1,
        ExperimentId::Fig1Deployment,
        ExperimentId::Fig2Atlas,
        ExperimentId::Fig3CountryMap,
        ExperimentId::Fig4ContinentCdf,
        ExperimentId::Fig5PlatformDiff,
        ExperimentId::Fig6Intercontinental,
        ExperimentId::Fig7LastMile,
        ExperimentId::Fig8Cv,
        ExperimentId::Fig9CvCountries,
        ExperimentId::Fig10Interconnect,
        ExperimentId::Fig11Pervasiveness,
        ExperimentId::Fig12EuCase,
        ExperimentId::Fig13AsiaCase,
        ExperimentId::Fig14Closeness,
        ExperimentId::Fig15IcmpTcp,
        ExperimentId::Fig16Matched,
        ExperimentId::Fig17UaCase,
        ExperimentId::Fig18BhCase,
        ExperimentId::Fig19LastMileNearest,
    ];

    /// DESIGN.md §5's ablations. `experiment` runs them by slug; `all`,
    /// `analyze` and the CSV export iterate only [`ExperimentId::ALL`].
    pub const ABLATIONS: [ExperimentId; 4] = [
        ExperimentId::AblationRouting,
        ExperimentId::AblationWan,
        ExperimentId::AblationBias,
        ExperimentId::AblationLastMile,
    ];

    /// Short CLI slug ("table1", "fig3", "fig12", ...).
    pub fn slug(&self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Fig1Deployment => "fig1",
            ExperimentId::Fig2Atlas => "fig2",
            ExperimentId::Fig3CountryMap => "fig3",
            ExperimentId::Fig4ContinentCdf => "fig4",
            ExperimentId::Fig5PlatformDiff => "fig5",
            ExperimentId::Fig6Intercontinental => "fig6",
            ExperimentId::Fig7LastMile => "fig7",
            ExperimentId::Fig8Cv => "fig8",
            ExperimentId::Fig9CvCountries => "fig9",
            ExperimentId::Fig10Interconnect => "fig10",
            ExperimentId::Fig11Pervasiveness => "fig11",
            ExperimentId::Fig12EuCase => "fig12",
            ExperimentId::Fig13AsiaCase => "fig13",
            ExperimentId::Fig14Closeness => "fig14",
            ExperimentId::Fig15IcmpTcp => "fig15",
            ExperimentId::Fig16Matched => "fig16",
            ExperimentId::Fig17UaCase => "fig17",
            ExperimentId::Fig18BhCase => "fig18",
            ExperimentId::Fig19LastMileNearest => "fig19",
            ExperimentId::AblationRouting => "ablation_routing",
            ExperimentId::AblationWan => "ablation_wan",
            ExperimentId::AblationBias => "ablation_bias",
            ExperimentId::AblationLastMile => "ablation_lastmile",
        }
    }

    /// Parse a CLI slug.
    pub fn parse(s: &str) -> Option<ExperimentId> {
        let s = s.to_ascii_lowercase();
        ExperimentId::ALL.iter().chain(&ExperimentId::ABLATIONS).copied().find(|id| id.slug() == s)
    }

    pub fn label(&self) -> &'static str {
        match self {
            ExperimentId::Table1 => "Table 1: provider deployment & backbone",
            ExperimentId::Fig1Deployment => "Fig 1a/1b: datacenter & Speedchecker probe distribution",
            ExperimentId::Fig2Atlas => "Fig 2: RIPE Atlas probe distribution",
            ExperimentId::Fig3CountryMap => "Fig 3: median latency to closest DC per country",
            ExperimentId::Fig4ContinentCdf => "Fig 4: RTT distribution per continent vs MTP/HPL/HRT",
            ExperimentId::Fig5PlatformDiff => "Fig 5: Speedchecker vs Atlas latency difference",
            ExperimentId::Fig6Intercontinental => "Fig 6: intra vs inter-continental latency (AF, SA)",
            ExperimentId::Fig7LastMile => "Fig 7: wireless last-mile share & absolute latency",
            ExperimentId::Fig8Cv => "Fig 8: last-mile Cv per continent",
            ExperimentId::Fig9CvCountries => "Fig 9: last-mile Cv, representative countries",
            ExperimentId::Fig10Interconnect => "Fig 10: ISP-cloud interconnection breakdown",
            ExperimentId::Fig11Pervasiveness => "Fig 11: cloud provider pervasiveness",
            ExperimentId::Fig12EuCase => "Fig 12: DE->UK peering matrix & latency",
            ExperimentId::Fig13AsiaCase => "Fig 13: JP->IN peering matrix & latency",
            ExperimentId::Fig14Closeness => "Fig 14 (A.1): probe closeness density",
            ExperimentId::Fig15IcmpTcp => "Fig 15 (A.2): ICMP vs TCP latency",
            ExperimentId::Fig16Matched => "Fig 16 (A.3): matched <city,ASN> platform comparison",
            ExperimentId::Fig17UaCase => "Fig 17 (A.4): UA->UK peering matrix & latency",
            ExperimentId::Fig18BhCase => "Fig 18 (A.4): BH->IN peering matrix & latency",
            ExperimentId::Fig19LastMileNearest => "Fig 19 (A.5): last-mile share to nearest DC",
            ExperimentId::AblationRouting => "Ablation §5.1: valley-free vs naive routing (Fig 10)",
            ExperimentId::AblationWan => "Ablation §5.2: cloud-WAN queueing sweep (Fig 13b)",
            ExperimentId::AblationBias => "Ablation §5.3: probe-deployment bias (Fig 5)",
            ExperimentId::AblationLastMile => "Ablation §5.4: last-mile distribution (Figs 7/8)",
        }
    }
}

/// Run one experiment by id, returning the rendered artifact.
pub fn run_one(study: &Study, id: ExperimentId) -> String {
    match id {
        ExperimentId::Table1 => deployment::table1().render(),
        ExperimentId::Fig1Deployment => deployment::fig1(study).render(),
        ExperimentId::Fig2Atlas => deployment::fig2(study).render(),
        ExperimentId::Fig3CountryMap => country_map::run(study).render(),
        ExperimentId::Fig4ContinentCdf => continent_cdf::run(study).render(),
        ExperimentId::Fig5PlatformDiff => platform_diff::run(study).render(),
        ExperimentId::Fig6Intercontinental => intercontinental::run(study).render(),
        ExperimentId::Fig7LastMile => lastmile_share::run(study).render(),
        ExperimentId::Fig8Cv => lastmile_cv::run_continents(study).render(),
        ExperimentId::Fig9CvCountries => lastmile_cv::run_countries(study).render(),
        ExperimentId::Fig10Interconnect => interconnect::run(study).render(),
        ExperimentId::Fig11Pervasiveness => pervasiveness::run(study).render(),
        ExperimentId::Fig12EuCase => {
            peering_case::run(study, peering_case::CaseStudy::GermanyToUk).render()
        }
        ExperimentId::Fig13AsiaCase => {
            peering_case::run(study, peering_case::CaseStudy::JapanToIndia).render()
        }
        ExperimentId::Fig14Closeness => deployment::fig14(study).render(),
        ExperimentId::Fig15IcmpTcp => protocol_compare::run(study).render(),
        ExperimentId::Fig16Matched => platform_diff::run_matched(study).render(),
        ExperimentId::Fig17UaCase => {
            peering_case::run(study, peering_case::CaseStudy::UkraineToUk).render()
        }
        ExperimentId::Fig18BhCase => {
            peering_case::run(study, peering_case::CaseStudy::BahrainToIndia).render()
        }
        ExperimentId::Fig19LastMileNearest => lastmile_share::run_nearest(study).render(),
        ExperimentId::AblationRouting => ablation::routing(study).render(),
        ExperimentId::AblationWan => ablation::wan(study.config.seed).render(),
        ExperimentId::AblationBias => ablation::bias(study).render(),
        ExperimentId::AblationLastMile => ablation::lastmile(study.config.seed).render(),
    }
}

/// Run every paper artifact and return (id, rendered artifact) pairs — the
/// body of `EXPERIMENTS.md` and the full-study examples.
pub fn run_all(study: &Study) -> Vec<(ExperimentId, String)> {
    ExperimentId::ALL.iter().map(|id| (*id, run_one(study, *id))).collect()
}

