//! Fig. 5 and Fig. 16: Speedchecker vs. RIPE Atlas.
//!
//! Fig. 5: per-continent quantile-difference distribution of nearest-DC
//! latencies (left/negative = Speedchecker faster). Fig. 16: the same
//! comparison restricted to `<city, ASN, region>`-matched measurement
//! groups — the apples-to-apples subset.

use super::util;
use super::Render;
use crate::Study;
use cloudy_analysis::compare;
use cloudy_analysis::report::{ms, pct, Table};
use cloudy_analysis::Cdf;
use cloudy_geo::Continent;
use cloudy_measure::{Dataset, PingRecord};

/// One continent's difference series (Fig. 5).
#[derive(Debug, Clone)]
pub struct DiffSeries {
    pub continent: Continent,
    /// Quantile-wise SC − Atlas differences.
    pub diffs: Vec<f64>,
    /// Fraction of quantiles where Speedchecker is faster.
    pub sc_faster: f64,
    pub sc_samples: usize,
    pub atlas_samples: usize,
}

impl DiffSeries {
    /// SC − Atlas at the 0.5 quantile: the gap between the two medians.
    pub fn median_gap(&self) -> f64 {
        self.diffs.get(self.diffs.len() / 2).copied().unwrap_or(f64::NAN)
    }
}

#[derive(Debug, Clone)]
pub struct PlatformDiff {
    pub series: Vec<DiffSeries>,
}

impl PlatformDiff {
    pub fn get(&self, c: Continent) -> Option<&DiffSeries> {
        self.series.iter().find(|s| s.continent == c)
    }
}

pub fn run(study: &Study) -> PlatformDiff {
    between(&study.sc, &study.atlas)
}

/// Fig. 5's comparison of any two campaigns: `sc` against `atlas`, each
/// reduced to its samples to the nearest same-continent DC.
pub fn between(sc: &Dataset, atlas: &Dataset) -> PlatformDiff {
    let sc_samples = util::samples_to_nearest(sc);
    let atlas_samples = util::samples_to_nearest(atlas);
    let sc_by_cont = util::group_rtts(&sc_samples, |p| p.continent);
    let at_by_cont = util::group_rtts(&atlas_samples, |p| p.continent);
    let mut series = Vec::new();
    for continent in Continent::ALL {
        let (Some(sc), Some(at)) = (sc_by_cont.get(&continent), at_by_cont.get(&continent))
        else {
            continue;
        };
        if sc.len() < 10 || at.len() < 10 {
            continue;
        }
        let sc_cdf = Cdf::new(sc.clone());
        let at_cdf = Cdf::new(at.clone());
        let diffs = compare::quantile_differences(&sc_cdf, &at_cdf, 101);
        let sc_faster = compare::fraction_a_faster(&sc_cdf, &at_cdf, 101);
        series.push(DiffSeries {
            continent,
            diffs,
            sc_faster,
            sc_samples: sc.len(),
            atlas_samples: at.len(),
        });
    }
    PlatformDiff { series }
}

impl Render for PlatformDiff {
    fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Continent",
            "SC faster",
            "median diff [ms]",
            "p25 diff",
            "p75 diff",
            "n(SC)/n(Atlas)",
        ]);
        for s in &self.series {
            let d = Cdf::new(s.diffs.clone());
            t.add_row(vec![
                s.continent.code().to_string(),
                pct(s.sc_faster),
                ms(d.median()),
                ms(d.quantile(0.25)),
                ms(d.quantile(0.75)),
                format!("{}/{}", s.sc_samples, s.atlas_samples),
            ]);
        }
        format!(
            "Fig 5: SC vs Atlas nearest-DC latency differences (negative = SC faster)\n{}",
            t.render()
        )
    }
}

/// Fig. 16: matched `<city, ASN>` comparison.
#[derive(Debug, Clone)]
pub struct MatchedDiff {
    /// (continent, per-matched-group SC − Atlas median differences).
    pub series: Vec<(Continent, Vec<f64>)>,
    /// Continents excluded for lack of intersections (the paper excludes
    /// AF, SA, OC).
    pub excluded: Vec<Continent>,
}

pub fn run_matched(study: &Study) -> MatchedDiff {
    let sc_samples = util::samples_to_nearest(&study.sc);
    let at_samples = util::samples_to_nearest(&study.atlas);
    let mut series = Vec::new();
    let mut excluded = Vec::new();
    for continent in Continent::ALL {
        let sc: Vec<&PingRecord> =
            sc_samples.iter().copied().filter(|p| p.continent == continent).collect();
        let at: Vec<&PingRecord> =
            at_samples.iter().copied().filter(|p| p.continent == continent).collect();
        let diffs = compare::matched_median_differences(&sc, &at);
        if diffs.len() >= 3 {
            series.push((continent, diffs));
        } else {
            excluded.push(continent);
        }
    }
    MatchedDiff { series, excluded }
}

impl MatchedDiff {
    pub fn get(&self, c: Continent) -> Option<&Vec<f64>> {
        self.series.iter().find(|(cc, _)| *cc == c).map(|(_, v)| v)
    }
}

impl Render for MatchedDiff {
    fn render(&self) -> String {
        let mut t = Table::new(vec!["Continent", "matched groups", "SC faster", "median diff [ms]"]);
        for (c, diffs) in &self.series {
            let faster = diffs.iter().filter(|d| **d < 0.0).count() as f64 / diffs.len() as f64;
            let d = Cdf::new(diffs.clone());
            t.add_row(vec![
                c.code().to_string(),
                diffs.len().to_string(),
                pct(faster),
                ms(d.median()),
            ]);
        }
        let excluded: Vec<&str> = self.excluded.iter().map(|c| c.code()).collect();
        format!(
            "Fig 16: matched <city,ASN> SC vs Atlas differences\n{}\nexcluded (insufficient intersections): {}\n",
            t.render(),
            excluded.join(", ")
        )
    }
}
