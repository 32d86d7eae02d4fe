//! EXPERIMENTS.md's headline numbers, pinned.
//!
//! The "This reproduction measures" column of EXPERIMENTS.md comes from
//! one reference run: seed 42, 12 simulated days, 2 % of the Speedchecker
//! population and 25 % of Atlas (`cloudy-repro all --days 12`, or
//! `cargo run --release --example full_reproduction`). This suite builds
//! that study once and checks every number the doc prints for Figs. 3, 4,
//! 5, 6, 7, 8, 9, 10, 11, 12b, 13b, 14, 15, 16, 17, 18 and 19, at the
//! precision the doc prints it. A change that moves one of them fails
//! here: update the doc's row and the expected value below together.

use cloudy_analysis::peering::Interconnection;
use cloudy_analysis::{BoxStats, Cdf};
use cloudy_cloud::Provider;
use cloudy_core::experiments::peering_case::{CaseStudy, LatencyRow, PeeringCase};
use cloudy_core::experiments::*;
use cloudy_core::{Study, StudyConfig};
use cloudy_geo::{country, Continent};
use cloudy_topology::known;
use std::sync::OnceLock;

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        let mut cfg = StudyConfig::tiny(42);
        cfg.sc_fraction = 0.02;
        cfg.atlas_fraction = 0.25;
        cfg.duration_days = 12;
        Study::run(cfg)
    })
}

/// A fraction as a percentage with `digits` decimals.
fn pct(x: f64, digits: usize) -> String {
    format!("{:.*}", digits, x * 100.0)
}

/// The lowest and highest of `values`, at one decimal, as `lo–hi`.
fn span(values: impl IntoIterator<Item = f64>) -> String {
    let (lo, hi) = values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
    format!("{lo:.1}–{hi:.1}")
}

/// One case study's latency row for `provider`.
fn latency(case: &PeeringCase, provider: Provider) -> &LatencyRow {
    case.latency.iter().find(|r| r.provider == provider).expect("provider measured")
}

/// The direct and the transit medians of a case's latency rows, as spans.
fn latency_spans(case: &PeeringCase) -> (String, String) {
    let medians = |side: fn(&LatencyRow) -> Option<BoxStats>| {
        span(case.latency.iter().filter_map(side).map(|b| b.median))
    };
    (medians(|r| r.direct), medians(|r| r.transit))
}

/// Whether every provider with both direct and transit paths has
/// overlapping direct and transit IQRs.
fn iqrs_overlap(case: &PeeringCase) -> String {
    let both: Vec<(BoxStats, BoxStats)> =
        case.latency.iter().filter_map(|r| r.direct.zip(r.transit)).collect();
    assert!(!both.is_empty(), "no provider with both kinds of path");
    both.iter().all(|(d, t)| d.q1 <= t.q3 && t.q1 <= d.q3).to_string()
}

/// Compare (what, measured, as EXPERIMENTS.md prints it) rows and report
/// every mismatch at once.
fn check(rows: &[(&str, String, &str)]) {
    let stale: Vec<String> = rows
        .iter()
        .filter(|(_, got, doc)| got != doc)
        .map(|(what, got, doc)| format!("{what}: measured {got}, EXPERIMENTS.md says {doc}"))
        .collect();
    assert!(stale.is_empty(), "stale numbers:\n{}", stale.join("\n"));
}

#[test]
fn fig3_band_counts() {
    let map = country_map::run(study());
    let gated = map.rows.len();
    let share = |n: usize| pct(n as f64 / gated as f64, 0);
    let countries = |keep: fn(&country_map::CountryRow) -> bool| {
        let mut ccs: Vec<&str> =
            map.rows.iter().filter(|r| keep(r)).map(|r| r.country.as_str()).collect();
        ccs.sort_unstable();
        ccs.join(",")
    };
    check(&[
        ("countries below MTP", map.mtp_countries.to_string(), "1"),
        ("countries below HPL", map.hpl_countries.to_string(), "55"),
        ("countries below HRT", map.hrt_countries.to_string(), "71"),
        ("gated countries", gated.to_string(), "76"),
        ("HPL share of countries", share(map.hpl_countries), "72"),
        ("HRT share of countries", share(map.hrt_countries), "93"),
        ("the sub-MTP country", countries(|r| r.qoe.mtp), "SG"),
        ("the HRT violators", countries(|r| !r.qoe.hrt), "AE,JO,LB,MY,YE"),
        ("CN clears the sample gate", map.row("CN").is_some().to_string(), "false"),
    ]);
}

#[test]
fn fig4_share_below_hpl_per_continent() {
    let cdf = continent_cdf::run(study());
    let below_hpl = |c| pct(cdf.get(c).expect("continent measured").below_hpl, 1);
    let af_below_hrt = pct(cdf.get(Continent::Africa).expect("AF measured").below_hrt, 0);
    check(&[
        ("EU below HPL", below_hpl(Continent::Europe), "99.9"),
        ("NA below HPL", below_hpl(Continent::NorthAmerica), "97.7"),
        ("SA below HPL", below_hpl(Continent::SouthAmerica), "92.9"),
        ("AS below HPL", below_hpl(Continent::Asia), "72.7"),
        ("AF below HPL", below_hpl(Continent::Africa), "0.0"),
        ("AF below HRT", af_below_hrt, "100"),
    ]);
}

#[test]
fn fig5_share_of_quantiles_where_speedchecker_is_faster() {
    let diff = platform_diff::run(study());
    let sc_faster = |c| pct(diff.get(c).expect("continent measured").sc_faster, 0);
    check(&[
        ("EU", sc_faster(Continent::Europe), "1"),
        ("AF", sc_faster(Continent::Africa), "0"),
        ("NA", sc_faster(Continent::NorthAmerica), "4"),
        ("AS", sc_faster(Continent::Asia), "34"),
        ("SA", sc_faster(Continent::SouthAmerica), "78"),
    ]);
}

#[test]
fn fig7_last_mile_medians_and_shares() {
    let lm = lastmile_share::run(study());
    let g = lm.global();
    let median = |b: Option<cloudy_analysis::BoxStats>| b.expect("samples").median;
    let home_share = |c| pct(median(lm.continent(c).expect("continent measured").home_share), 0);
    check(&[
        ("global home share", pct(median(g.home_share), 0), "46"),
        ("EU home share", home_share(Continent::Europe), "57"),
        ("AS home share", home_share(Continent::Asia), "16"),
        ("home last mile [ms]", format!("{:.1}", median(g.home_abs)), "24.4"),
        ("cell last mile [ms]", format!("{:.1}", median(g.cell_abs)), "23.4"),
        ("RTR to ISP [ms]", format!("{:.1}", median(g.rtr_abs)), "10.3"),
        ("Atlas last mile [ms]", format!("{:.1}", median(g.atlas_abs)), "10.0"),
        ("Atlas share", pct(median(g.atlas_share), 0), "25"),
    ]);
}

/// A Cv box's median at one decimal, or `-` when the cell has no box.
fn cv(b: Option<BoxStats>) -> String {
    b.map_or_else(|| "-".to_string(), |b| format!("{:.1}", b.median))
}

#[test]
fn fig8_median_cv_per_continent() {
    let fig = lastmile_cv::run_continents(study());
    let af_home_pairs = fig.get(Continent::Africa).expect("AF measured").home_pairs;
    let groups: Vec<String> = fig.rows.iter().map(|r| r.key.code().to_string()).collect();
    let cells = |home: bool| {
        let medians: Vec<String> = fig
            .rows
            .iter()
            .map(|r| format!("{} {}", r.key.code(), cv(if home { r.home } else { r.cell })))
            .collect();
        medians.join(", ")
    };
    check(&[
        ("continents", groups.join(","), "AF,AS,EU,NA,SA"),
        ("home Cv", cells(true), "AF -, AS 0.3, EU 0.2, NA 0.3, SA 0.2"),
        ("cell Cv", cells(false), "AF 0.4, AS 0.3, EU 0.3, NA 0.3, SA 0.3"),
        ("AF home pairs", af_home_pairs.to_string(), "0"),
    ]);
}

#[test]
fn fig9_representative_countries_with_rows() {
    let fig = lastmile_cv::run_countries(study());
    let countries: Vec<&str> = fig.rows.iter().map(|r| r.key.as_str()).collect();
    let ma_home = cv(fig.get(country::CountryCode::new("MA")).expect("MA measured").home);
    let medians = fig.rows.iter().flat_map(|r| [r.home, r.cell]).flatten().map(|b| b.median);
    check(&[
        ("countries with rows", countries.len().to_string(), "8"),
        ("which", countries.join(","), "BR,GB,IR,JP,MA,MX,UA,US"),
        ("MA home", ma_home, "-"),
        ("medians", span(medians), "0.2–0.4"),
    ]);
}

#[test]
fn fig15_icmp_above_tcp() {
    let fig = protocol_compare::run(study());
    let gap = |c| {
        let r = fig.get(c).expect("continent measured");
        format!("{:+.1}", r.icmp.median - r.tcp.median)
    };
    let everywhere = fig.rows.iter().all(|r| r.icmp.median >= r.tcp.median);
    check(&[
        ("ICMP >= TCP in every continent", everywhere.to_string(), "true"),
        ("EU gap [ms]", gap(Continent::Europe), "+1.9"),
        ("AS gap [ms]", gap(Continent::Asia), "+12.6"),
    ]);
}

#[test]
fn fig10_interconnection_classes() {
    let ic = interconnect::run(study());
    // [direct, 1 IXP, 1 AS, 2+ AS] shares of each provider's paths.
    let class = |p, ix: usize| {
        pct(ic.get(p).expect("provider measured").fractions().expect("paths")[ix], 0)
    };
    check(&[
        ("AMZN direct", class(Provider::AmazonEc2, 0), "84"),
        ("GCP direct", class(Provider::Google, 0), "83"),
        ("MSFT direct", class(Provider::Microsoft, 0), "82"),
        ("VLTR 2+ AS", class(Provider::Vultr, 3), "50"),
        ("ORCL 2+ AS", class(Provider::Oracle, 3), "72"),
        ("BABA 2+ AS", class(Provider::Alibaba, 3), "74"),
        ("IBM 1 AS", class(Provider::Ibm, 2), "51"),
        ("IBM 1 IXP", class(Provider::Ibm, 1), "5"),
        ("DO 1 IXP", class(Provider::DigitalOcean, 1), "13"),
    ]);
}

#[test]
fn fig11_pervasiveness() {
    let pv = pervasiveness::run(study());
    let overall = |p| format!("{:.2}", pv.overall_of(p).expect("provider measured"));
    check(&[
        ("AMZN", overall(Provider::AmazonEc2), "0.57"),
        ("GCP", overall(Provider::Google), "0.57"),
        ("MSFT", overall(Provider::Microsoft), "0.57"),
        ("VLTR", overall(Provider::Vultr), "0.33"),
        ("LIN", overall(Provider::Linode), "0.33"),
        ("ORCL", overall(Provider::Oracle), "0.29"),
        ("BABA", overall(Provider::Alibaba), "0.29"),
    ]);
}

#[test]
fn fig6_intercontinental_medians() {
    let inter = intercontinental::run(study());
    let rows = |rows: &[intercontinental::InterRow]| {
        let named: Vec<String> =
            rows.iter().map(|r| format!("{} {}", r.country, r.target.code())).collect();
        named.join(", ")
    };
    let median = |cc, target| {
        format!("{:.0}", inter.row(cc, target).expect("row measured").stats.median)
    };
    check(&[
        ("6a rows", rows(&inter.africa), "DZ AF, EG AF, MA AF, MA NA"),
        ("DZ to AF", median("DZ", Continent::Africa), "162"),
        ("EG to AF", median("EG", Continent::Africa), "167"),
        ("MA to AF", median("MA", Continent::Africa), "169"),
        ("MA to NA", median("MA", Continent::NorthAmerica), "164"),
        ("6b rows", rows(&inter.south_america), "BR SA, BR NA, CO SA, CO NA"),
        ("BR to SA", median("BR", Continent::SouthAmerica), "29"),
        ("BR to NA", median("BR", Continent::NorthAmerica), "185"),
        ("CO to SA", median("CO", Continent::SouthAmerica), "101"),
        ("CO to NA", median("CO", Continent::NorthAmerica), "80"),
    ]);
}

#[test]
fn fig12b_direct_vs_transit_de_to_uk() {
    let case = peering_case::run(study(), CaseStudy::GermanyToUk);
    let (direct, transit) = latency_spans(&case);
    check(&[
        ("direct medians [ms]", direct, "32.7–36.5"),
        ("transit medians [ms]", transit, "36.4–48.4"),
        ("IQRs overlap", iqrs_overlap(&case), "true"),
    ]);
}

#[test]
fn fig13b_direct_vs_transit_jp_to_in() {
    let case = peering_case::run(study(), CaseStudy::JapanToIndia);
    let side = |p, direct: bool| {
        let r = latency(&case, p);
        (if direct { r.direct } else { r.transit }).expect("paths measured")
    };
    let median = |p, direct| format!("{:.0}", side(p, direct).median);
    let iqr = |p, direct| format!("{:.0}", side(p, direct).iqr());
    check(&[
        ("AMZN direct", median(Provider::AmazonEc2, true), "118"),
        ("AMZN transit", median(Provider::AmazonEc2, false), "152"),
        ("LIN transit", median(Provider::Linode, false), "314"),
        ("ORCL transit", median(Provider::Oracle, false), "342"),
        ("LIN transit IQR", iqr(Provider::Linode, false), "189"),
        ("ORCL transit IQR", iqr(Provider::Oracle, false), "212"),
        ("LIN direct", median(Provider::Linode, true), "129"),
        ("ORCL direct", median(Provider::Oracle, true), "127"),
        ("LIN direct IQR", iqr(Provider::Linode, true), "13"),
        ("ORCL direct IQR", iqr(Provider::Oracle, true), "19"),
    ]);
}

#[test]
fn fig14_probe_closeness() {
    let fig = deployment::fig14(study());
    let spread = |cc| format!("{:.0}", fig.row(cc).expect("country measured").2);
    let named = |rows: Vec<&(cloudy_geo::CountryCode, usize, f64)>| {
        rows.iter().map(|r| r.0.as_str()).collect::<Vec<_>>().join(", ")
    };
    let in_bucket = |bucket| {
        named(fig.rows.iter().filter(|r| deployment::Fig14::bucket(r.2) == bucket).collect())
    };
    let on = |c| {
        fig.rows.iter().filter(move |r| country::lookup(r.0).expect("known country").continent == c)
    };
    check(&[
        ("countries", fig.rows.len().to_string(), "31"),
        ("scattered", in_bucket("scattered (>1000 km)"), "US"),
        ("US [km]", spread("US"), "1958"),
        ("spread", in_bucket("spread (400-1000 km)"), "IN, VN, BR, UA"),
        ("IN [km]", spread("IN"), "877"),
        ("VN [km]", spread("VN"), "650"),
        ("BR [km]", spread("BR"), "492"),
        ("UA [km]", spread("UA"), "409"),
        ("under 400 km", fig.rows.iter().filter(|r| r.2 < 400.0).count().to_string(), "26"),
        (
            "European at 400 km or more",
            named(on(Continent::Europe).filter(|r| r.2 >= 400.0).collect()),
            "UA",
        ),
        ("African countries", on(Continent::Africa).count().to_string(), "0"),
    ]);
}

#[test]
fn fig16_matched_groups() {
    let matched = platform_diff::run_matched(study());
    let diffs = |c| matched.get(c).expect("continent matched");
    let groups = |c| diffs(c).len().to_string();
    let share = |c, faster: fn(f64) -> bool| {
        let d = diffs(c);
        pct(d.iter().filter(|x| faster(**x)).count() as f64 / d.len() as f64, 0)
    };
    let median = |c| format!("{:.1}", Cdf::new(diffs(c).clone()).median());
    let excluded: Vec<&str> = matched.excluded.iter().map(|c| c.code()).collect();
    check(&[
        ("EU groups", groups(Continent::Europe), "73"),
        ("EU Atlas faster", share(Continent::Europe, |d| d > 0.0), "89"),
        ("EU median diff", median(Continent::Europe), "11.6"),
        ("AS groups", groups(Continent::Asia), "28"),
        ("AS SC faster", share(Continent::Asia, |d| d < 0.0), "11"),
        ("AS median diff", median(Continent::Asia), "14.8"),
        ("SA groups", groups(Continent::SouthAmerica), "3"),
        ("excluded", excluded.join(", "), "AF, NA, OC"),
    ]);
}

#[test]
fn fig17_ua_to_uk() {
    let case = peering_case::run(study(), CaseStudy::UkraineToUk);
    let hypergiants_direct = known::UKRAINIAN_ISPS.iter().all(|(isp, _)| {
        [Provider::AmazonEc2, Provider::Google, Provider::Microsoft].into_iter().all(|p| {
            let cell = case.cell(*isp, p).expect("cell");
            matches!(cell.dominant, Some((Interconnection::Direct, _)))
        })
    });
    let (direct, transit) = latency_spans(&case);
    check(&[
        ("hypergiant cells direct", hypergiants_direct.to_string(), "true"),
        ("direct medians [ms]", direct, "47.4–52.1"),
        ("transit medians [ms]", transit, "55.4–76.2"),
        ("IQRs overlap", iqrs_overlap(&case), "true"),
    ]);
}

#[test]
fn fig18_bh_to_in() {
    let case = peering_case::run(study(), CaseStudy::BahrainToIndia);
    let direct_cells: Vec<String> = case
        .matrix
        .iter()
        .filter(|c| matches!(c.dominant, Some((Interconnection::Direct, _))))
        .map(|c| format!("{} {}", c.isp_name, c.provider.abbrev()))
        .collect();
    let zain_gcp = case.cell(known::ZAIN_BH, Provider::Google).and_then(|c| c.dominant);
    let side = |p, direct: bool| {
        let r = latency(&case, p);
        let b = if direct { r.direct } else { r.transit };
        format!("{:.1}", b.expect("paths measured").median)
    };
    let others = case
        .latency
        .iter()
        .filter(|r| r.direct.is_none())
        .filter_map(|r| r.transit.map(|b| b.median));
    check(&[
        ("direct cells", direct_cells.join(", "), "Batelco GCP, Batelco MSFT, ZAIN GCP, ZAIN MSFT"),
        ("ZAIN to GCP direct share", pct(zain_gcp.map_or(0.0, |(_, s)| s), 0), "50"),
        ("MSFT direct", side(Provider::Microsoft, true), "74.6"),
        ("MSFT transit", side(Provider::Microsoft, false), "213.1"),
        ("GCP direct", side(Provider::Google, true), "60.5"),
        ("GCP transit", side(Provider::Google, false), "175.9"),
        ("other providers [ms]", span(others), "183.3–395.6"),
    ]);
}

#[test]
fn fig19_last_mile_share_to_the_nearest_dc() {
    let nearest = lastmile_share::run_nearest(study());
    let overall = lastmile_share::run(study());
    let median = |b: Option<BoxStats>| b.expect("samples").median;
    check(&[
        ("nearest home share", pct(median(nearest.global().home_share), 0), "68"),
        ("overall home share", pct(median(overall.global().home_share), 0), "46"),
        ("nearest Atlas share", pct(median(nearest.global().atlas_share), 0), "46"),
    ]);
}
