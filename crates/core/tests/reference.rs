//! EXPERIMENTS.md's headline numbers, pinned.
//!
//! The "This reproduction measures" column of EXPERIMENTS.md comes from
//! one reference run: seed 42, 12 simulated days, 2 % of the Speedchecker
//! population and 25 % of Atlas (`cloudy-repro all --days 12`, or
//! `cargo run --release --example full_reproduction`). This suite builds
//! that study once and checks every number the doc prints for Figs. 3, 4,
//! 5, 7, 10 and 11, at the precision the doc prints it. A change that
//! moves one of them fails here: update the doc's row and the expected
//! value below together.

use cloudy_cloud::Provider;
use cloudy_core::experiments::*;
use cloudy_core::{Study, StudyConfig};
use cloudy_geo::Continent;
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
