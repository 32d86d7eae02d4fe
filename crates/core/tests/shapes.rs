//! Shape validation: every figure's *qualitative* result from the paper,
//! asserted against a reduced-scale reproduction study.
//!
//! These tests check who wins, by roughly what factor, and where crossovers
//! fall — never absolute numbers (our substrate is a simulator, not the
//! authors' testbed). One study is shared across all tests via `OnceLock`.

use cloudy_analysis::Cdf;
use cloudy_core::experiments::*;
use cloudy_core::{Study, StudyConfig};
use cloudy_geo::Continent;
use cloudy_cloud::Provider;
use std::sync::OnceLock;

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        let mut cfg = StudyConfig::tiny(2026);
        // A little more volume than `tiny` so every figure has samples.
        cfg.sc_fraction = 0.02;
        cfg.atlas_fraction = 0.25;
        cfg.duration_days = 10;
        Study::run(cfg)
    })
}

// ---- Fig. 3 -----------------------------------------------------------

#[test]
fn fig3_geography_drives_latency() {
    let map = country_map::run(study());
    assert!(map.rows.len() >= 30, "only {} countries passed the gate", map.rows.len());
    // Countries with in-land DCs beat countries without, grossly.
    let de = map.row("DE").expect("Germany present").median_ms;
    assert!(de < 80.0, "DE median {de}");
    // The takeaway's ordering: most countries meet HRT, many meet HPL,
    // almost none meet MTP.
    assert!(map.mtp_countries <= map.hpl_countries);
    assert!(map.hpl_countries <= map.hrt_countries);
    assert!(
        map.hrt_countries as f64 >= map.rows.len() as f64 * 0.9,
        "HRT: {}/{}",
        map.hrt_countries,
        map.rows.len()
    );
    assert!(
        map.mtp_countries <= map.rows.len() / 10,
        "MTP should be nearly impossible: {}/{}",
        map.mtp_countries,
        map.rows.len()
    );
}

#[test]
fn fig3_china_is_fastest_band() {
    let map = country_map::run(study());
    if let Some(cn) = map.row("CN") {
        if cn.samples >= 12 {
            assert!(cn.median_ms < 40.0, "CN median {}", cn.median_ms);
        }
    }
}

// ---- Fig. 4 -----------------------------------------------------------

#[test]
fn fig4_continent_ordering() {
    let cdf = continent_cdf::run(study());
    let eu = cdf.get(Continent::Europe).expect("EU");
    let na = cdf.get(Continent::NorthAmerica).expect("NA");
    let af = cdf.get(Continent::Africa).expect("AF");
    let asx = cdf.get(Continent::Asia).expect("AS");
    // Well-provisioned continents: high HPL compliance.
    assert!(eu.below_hpl > 0.75, "EU HPL {}", eu.below_hpl);
    assert!(na.below_hpl > 0.70, "NA HPL {}", na.below_hpl);
    // Africa is the worst-hit continent.
    assert!(af.below_hpl < eu.below_hpl - 0.3, "AF {} vs EU {}", af.below_hpl, eu.below_hpl);
    assert!(af.below_hrt > 0.4, "AF HRT {}", af.below_hrt);
    // Asia sits between.
    assert!(asx.below_hpl < eu.below_hpl, "AS {} vs EU {}", asx.below_hpl, eu.below_hpl);
    assert!(asx.below_hpl > af.below_hpl, "AS {} vs AF {}", asx.below_hpl, af.below_hpl);
    // MTP nearly unachievable everywhere.
    for s in &cdf.series {
        assert!(s.below_mtp < 0.35, "{}: MTP fraction {}", s.continent, s.below_mtp);
    }
}

// ---- Fig. 5 -----------------------------------------------------------

#[test]
fn fig5_atlas_faster_except_south_america() {
    let diff = platform_diff::run(study());
    let eu = diff.get(Continent::Europe).expect("EU");
    assert!(eu.sc_faster < 0.45, "EU: SC faster at {} of quantiles", eu.sc_faster);
    let af = diff.get(Continent::Africa).expect("AF");
    assert!(af.sc_faster < 0.4, "AF: SC faster at {}", af.sc_faster);
    let sa = diff.get(Continent::SouthAmerica).expect("SA");
    assert!(sa.sc_faster > 0.5, "SA: SC faster at only {}", sa.sc_faster);
}

// ---- Fig. 6 -----------------------------------------------------------

#[test]
fn fig6a_north_africa_reaches_europe_faster_than_in_continent() {
    let inter = intercontinental::run(study());
    for cc in ["EG", "MA", "DZ"] {
        let (Some(to_eu), Some(to_af)) = (
            inter.row(cc, Continent::Europe),
            inter.row(cc, Continent::Africa),
        ) else {
            continue;
        };
        assert!(
            to_eu.stats.median < to_af.stats.median,
            "{cc}: EU {} should beat AF {}",
            to_eu.stats.median,
            to_af.stats.median
        );
    }
    // South Africa reaches in-continent DCs fastest.
    if let (Some(za_af), Some(za_eu)) = (
        inter.row("ZA", Continent::Africa),
        inter.row("ZA", Continent::Europe),
    ) {
        assert!(za_af.stats.median < za_eu.stats.median, "ZA in-land should win");
    }
}

#[test]
fn fig6b_brazil_in_continent_wins_andes_compete_via_cables() {
    let inter = intercontinental::run(study());
    if let (Some(br_sa), Some(br_na)) = (
        inter.row("BR", Continent::SouthAmerica),
        inter.row("BR", Continent::NorthAmerica),
    ) {
        assert!(br_sa.stats.median < br_na.stats.median, "BR: in-continent should win");
    }
    // Peru: NA about as good as SA (within 40%).
    if let (Some(pe_sa), Some(pe_na)) = (
        inter.row("PE", Continent::SouthAmerica),
        inter.row("PE", Continent::NorthAmerica),
    ) {
        let ratio = pe_na.stats.median / pe_sa.stats.median;
        assert!(ratio < 1.45, "PE NA/SA ratio {ratio}");
    }
}

// ---- Fig. 7 / 19 ------------------------------------------------------

#[test]
fn fig7_lastmile_medians_and_shares() {
    let lm = lastmile_share::run(study());
    let g = lm.global();
    let home = g.home_abs.expect("home samples");
    let cell = g.cell_abs.expect("cell samples");
    // ~20-25ms for both access types; similar to each other.
    assert!((14.0..=32.0).contains(&home.median), "home abs {}", home.median);
    assert!((14.0..=32.0).contains(&cell.median), "cell abs {}", cell.median);
    assert!((home.median - cell.median).abs() < 8.0);
    // Wired segment ≈ 10 ms, Atlas ≈ 10 ms.
    let rtr = g.rtr_abs.expect("rtr samples");
    assert!((6.0..=16.0).contains(&rtr.median), "RTR-ISP {}", rtr.median);
    let atlas = g.atlas_abs.expect("atlas samples");
    assert!((6.0..=16.0).contains(&atlas.median), "Atlas {}", atlas.median);
    // Global share ≈ 40-50%.
    let share = g.home_share.expect("share").median;
    assert!((0.25..=0.70).contains(&share), "home share {share}");
    // Share higher in EU/NA than AS (denominator effect).
    let eu = lm.continent(Continent::Europe).and_then(|r| r.home_share);
    let asx = lm.continent(Continent::Asia).and_then(|r| r.home_share);
    if let (Some(eu), Some(asx)) = (eu, asx) {
        assert!(eu.median > asx.median, "EU share {} vs AS {}", eu.median, asx.median);
    }
}

#[test]
fn fig19_nearest_dc_share_exceeds_overall() {
    let all = lastmile_share::run(study());
    let near = lastmile_share::run_nearest(study());
    let s_all = all.global().home_share.expect("share").median;
    let s_near = near.global().home_share.expect("share").median;
    assert!(
        s_near > s_all,
        "share to nearest DC ({s_near}) should exceed overall ({s_all})"
    );
    assert!(s_near > 0.4, "nearest-DC share {s_near} should approach ~50%");
}

// ---- Fig. 8 / 9 -------------------------------------------------------

#[test]
fn fig8_cv_similar_across_access_types() {
    let cv = lastmile_cv::run_continents(study());
    let mut checked = 0;
    for row in &cv.rows {
        if let (Some(h), Some(c)) = (row.home, row.cell) {
            assert!((0.15..=1.4).contains(&h.median), "{:?} home cv {}", row.key, h.median);
            assert!((0.15..=1.4).contains(&c.median), "{:?} cell cv {}", row.key, c.median);
            assert!(
                (h.median - c.median).abs() < 0.45,
                "{:?}: home {} vs cell {}",
                row.key,
                h.median,
                c.median
            );
            checked += 1;
        }
    }
    assert!(checked >= 2, "need at least two continents with both series");
}

#[test]
fn fig9_representative_countries_have_cv_rows() {
    let cv = lastmile_cv::run_countries(study());
    assert!(cv.rows.len() >= 4, "only {} of the ten countries had data", cv.rows.len());
    for row in &cv.rows {
        let any = row.home.or(row.cell).expect("row implies samples");
        assert!((0.1..=1.6).contains(&any.median), "{}: cv {}", row.key, any.median);
    }
}

// ---- Fig. 10 ----------------------------------------------------------

#[test]
fn fig10_hypergiants_direct_small_providers_public() {
    let ic = interconnect::run(study());
    for p in [Provider::AmazonEc2, Provider::Google, Provider::Microsoft] {
        let f = ic.get(p).expect("provider measured").fractions().expect("paths");
        let direct_ish = f[0] + f[1];
        assert!(direct_ish > 0.5, "{p}: direct+ixp {direct_ish}");
    }
    for p in [Provider::Vultr, Provider::Linode, Provider::Oracle] {
        let f = ic.get(p).expect("provider measured").fractions().expect("paths");
        assert!(f[3] > 0.35, "{p}: 2+AS fraction {}", f[3]);
        assert!(f[0] < 0.25, "{p}: direct fraction {}", f[0]);
    }
    // IBM: hybrid — between hypergiants and small providers.
    let ibm = ic.get(Provider::Ibm).expect("IBM").fractions().expect("paths");
    assert!(ibm[2] + ibm[1] > 0.25, "IBM should lean on 1-AS/IXP: {ibm:?}");
}

// ---- Fig. 11 ----------------------------------------------------------

#[test]
fn fig11_pervasiveness_ordering() {
    let pv = pervasiveness::run(study());
    for p in [Provider::AmazonEc2, Provider::Google, Provider::Microsoft] {
        let v = pv.overall_of(p).expect("measured");
        assert!(v > 0.45, "{p}: pervasiveness {v}");
    }
    for p in [Provider::Vultr, Provider::Linode] {
        let v = pv.overall_of(p).expect("measured");
        assert!(v < 0.45, "{p}: pervasiveness {v}");
    }
    let google = pv.overall_of(Provider::Google).unwrap();
    let vultr = pv.overall_of(Provider::Vultr).unwrap();
    assert!(google > vultr + 0.15, "Google {google} vs Vultr {vultr}");
}

// ---- Figs. 12 / 13 / 17 / 18 ------------------------------------------

#[test]
fn fig12a_german_matrix_shape() {
    let case = peering_case::run(study(), peering_case::CaseStudy::GermanyToUk);
    use cloudy_analysis::Interconnection;
    use cloudy_topology::known;
    for (isp, _) in known::GERMAN_ISPS {
        for p in [Provider::AmazonEc2, Provider::Google, Provider::Microsoft] {
            if let Some(cell) = case.cell(*isp, p) {
                if cell.paths >= 3 {
                    let (dom, _) = cell.dominant.unwrap();
                    assert_eq!(
                        dom,
                        Interconnection::Direct,
                        "{} -> {p} should be direct",
                        cell.isp_name
                    );
                }
            }
        }
    }
}

#[test]
fn fig12b_direct_vs_transit_negligible_in_europe() {
    let case = peering_case::run(study(), peering_case::CaseStudy::GermanyToUk);
    // Across providers with both classes somewhere in the matrix, medians
    // are close (the paper: "minimal effect").
    let mut any = false;
    let direct_meds: Vec<f64> =
        case.latency.iter().filter_map(|r| r.direct.map(|d| d.median)).collect();
    let transit_meds: Vec<f64> =
        case.latency.iter().filter_map(|r| r.transit.map(|d| d.median)).collect();
    if !direct_meds.is_empty() && !transit_meds.is_empty() {
        let d = direct_meds.iter().sum::<f64>() / direct_meds.len() as f64;
        let t = transit_meds.iter().sum::<f64>() / transit_meds.len() as f64;
        assert!((t - d).abs() < 20.0, "EU direct {d} vs transit {t}");
        any = true;
    }
    assert!(any, "no latency rows for DE->UK");
}

#[test]
fn fig13b_direct_reduces_variance_to_india() {
    let case = peering_case::run(study(), peering_case::CaseStudy::JapanToIndia);
    // Pool IQRs: direct paths should be tighter than transit paths.
    let diqr: Vec<f64> = case.latency.iter().filter_map(|r| r.direct.map(|d| d.iqr())).collect();
    let tiqr: Vec<f64> = case.latency.iter().filter_map(|r| r.transit.map(|d| d.iqr())).collect();
    assert!(!diqr.is_empty(), "no direct rows JP->IN");
    assert!(!tiqr.is_empty(), "no transit rows JP->IN");
    let d = diqr.iter().sum::<f64>() / diqr.len() as f64;
    let t = tiqr.iter().sum::<f64>() / tiqr.len() as f64;
    assert!(t > d, "JP->IN transit IQR {t} should exceed direct IQR {d}");
}

#[test]
fn fig18b_direct_clearly_faster_from_bahrain() {
    let case = peering_case::run(study(), peering_case::CaseStudy::BahrainToIndia);
    let direct: Vec<f64> = case.latency.iter().filter_map(|r| r.direct.map(|d| d.median)).collect();
    let transit: Vec<f64> =
        case.latency.iter().filter_map(|r| r.transit.map(|d| d.median)).collect();
    assert!(!direct.is_empty(), "no direct rows BH->IN");
    assert!(!transit.is_empty(), "no transit rows BH->IN");
    let d = direct.iter().sum::<f64>() / direct.len() as f64;
    let t = transit.iter().sum::<f64>() / transit.len() as f64;
    assert!(t > d + 15.0, "BH->IN: transit {t} should clearly exceed direct {d}");
}

#[test]
fn fig17_ukraine_hypergiants_direct() {
    let case = peering_case::run(study(), peering_case::CaseStudy::UkraineToUk);
    use cloudy_analysis::Interconnection;
    use cloudy_topology::known;
    let mut direct_cells = 0;
    for (isp, _) in known::UKRAINIAN_ISPS {
        for p in [Provider::AmazonEc2, Provider::Google, Provider::Microsoft] {
            if let Some(cell) = case.cell(*isp, p) {
                if cell.paths >= 3 && cell.dominant.unwrap().0 == Interconnection::Direct {
                    direct_cells += 1;
                }
            }
        }
    }
    assert!(direct_cells >= 3, "only {direct_cells} direct hypergiant cells from UA");
}

// ---- Fig. 15 ----------------------------------------------------------

#[test]
fn fig15_icmp_slightly_above_tcp() {
    let pc = protocol_compare::run(study());
    assert!(pc.rows.len() >= 3, "only {} continents", pc.rows.len());
    let mut icmp_sum = 0.0;
    let mut tcp_sum = 0.0;
    for r in &pc.rows {
        // Per continent: comparable medians (within a few percent either
        // way — the paper reports "within 2% range").
        assert!(
            r.icmp.median >= r.tcp.median * 0.92,
            "{}: ICMP {} vs TCP {}",
            r.continent,
            r.icmp.median,
            r.tcp.median
        );
        assert!(
            r.icmp.median <= r.tcp.median * 1.25,
            "{}: ICMP {} too far above TCP {}",
            r.continent,
            r.icmp.median,
            r.tcp.median
        );
        icmp_sum += r.icmp.median;
        tcp_sum += r.tcp.median;
    }
    // In aggregate, ICMP must not be faster than TCP.
    assert!(icmp_sum >= tcp_sum * 0.98, "aggregate ICMP {icmp_sum} vs TCP {tcp_sum}");
}

// ---- Fig. 16 ----------------------------------------------------------

#[test]
fn fig16_matched_comparison_favors_atlas() {
    let m = platform_diff::run_matched(study());
    assert!(!m.series.is_empty(), "no matched groups anywhere");
    // In EU (the densest intersection), the majority of matched groups show
    // Atlas faster (positive SC−Atlas diff).
    if let Some(eu) = m.get(Continent::Europe) {
        let atlas_faster = eu.iter().filter(|d| **d > 0.0).count() as f64 / eu.len() as f64;
        assert!(atlas_faster > 0.5, "EU matched: Atlas faster in only {atlas_faster}");
    }
}

// ---- classifier validation against ground truth ------------------------

#[test]
fn home_cell_inference_mostly_matches_ground_truth() {
    use cloudy_analysis::lastmile::{infer, InferredAccess};
    use cloudy_analysis::Resolver;
    use cloudy_lastmile::AccessType;
    let s = study();
    let resolver = Resolver::new(&s.sim.net.prefixes);
    let mut agree = 0usize;
    let mut total = 0usize;
    for t in &s.sc.traces {
        let Some(lm) = infer(t, &resolver) else { continue };
        total += 1;
        let truth_home = t.access == AccessType::WifiHome;
        let inferred_home = lm.access == InferredAccess::Home;
        if truth_home == inferred_home {
            agree += 1;
        }
    }
    assert!(total > 500, "need traces");
    let acc = agree as f64 / total as f64;
    // CGN (~10% of home probes) plus silent home routers put accuracy below
    // 100% — which is the point — but it must stay high.
    assert!(acc > 0.85, "inference accuracy {acc}");
    assert!(acc < 0.999, "suspiciously perfect inference: {acc}");
}

// ---- DESIGN.md §5 ablations -------------------------------------------

#[test]
fn ablation_routing_lengthens_paths_but_keeps_fig10_classes() {
    let r = ablation::routing(study());
    // Every access ISP of the world, to each of the ten providers.
    assert_eq!(r.pairs, 5050, "{r:?}");
    // The naive router is a lower bound on AS hops ...
    assert_eq!(r.vf_shorter, 0, "valley-free shorter than unrestricted: {r:?}");
    // ... and policy routing really does take the long way round sometimes.
    assert!(r.vf_longer > 0, "{r:?}");
    // Yet no pair changes its Fig. 10 class: every lengthened path is 2+ AS
    // under either router. Counts measured at the shared study's seed.
    assert_eq!(r.vf_classes, r.naive_classes, "{r:?}");
    assert_eq!(r.vf_classes, [1987, 314, 2749], "{r:?}");
}

#[test]
fn ablation_wan_consistency_needs_an_engineered_wan() {
    let w = ablation::wan(study().config.seed);
    assert_eq!(w.points.len(), 5);
    for pair in w.points.windows(2) {
        assert!(
            pair[1].rtt.iqr() > pair[0].rtt.iqr(),
            "IQR must rise with queueing: {:.0}% {:.1} ms vs {:.0}% {:.1} ms",
            pair[0].queue_fraction * 100.0,
            pair[0].rtt.iqr(),
            pair[1].queue_fraction * 100.0,
            pair[1].rtt.iqr()
        );
    }
    let (engineered, public) = (&w.points[0], &w.points[4]);
    assert!(engineered.consistent, "2% WAN not consistent: {engineered:?}");
    assert!(!public.consistent, "the public reference cannot beat itself: {public:?}");
}

#[test]
fn ablation_bias_separates_placement_from_the_last_mile() {
    let s = study();
    let b = ablation::bias(s);
    // AF: most of the gap was placement; re-scattering shrinks it.
    let (af, af_cf) = b.get(Continent::Africa).expect("AF in both comparisons");
    assert!(
        af_cf.median_gap().abs() < af.median_gap().abs(),
        "AF gap {:.1} -> {:.1} ms",
        af.median_gap(),
        af_cf.median_gap()
    );
    // SA: the inversion (Speedchecker faster) is a placement artefact.
    let (sa, sa_cf) = b.get(Continent::SouthAmerica).expect("SA in both comparisons");
    assert!(sa.sc_faster > 0.5, "SA inversion missing: {}", sa.sc_faster);
    assert!(sa_cf.sc_faster < 0.5, "SA inversion survives re-scattering: {}", sa_cf.sc_faster);
    // EU: placement already matches, so what is left is the wired-vs-
    // wireless delta that Fig. 16's matched <city, ASN> groups isolate.
    let (_, eu_cf) = b.get(Continent::Europe).expect("EU in both comparisons");
    let matched = platform_diff::run_matched(s);
    let eu_matched = Cdf::new(matched.get(Continent::Europe).expect("EU matched").clone()).median();
    assert!(eu_cf.median_gap() > 0.0, "wired Atlas lost in EU: {}", eu_cf.median_gap());
    assert!(
        (eu_cf.median_gap() - eu_matched).abs() < 3.0,
        "EU re-scattered gap {:.1} ms vs Fig 16 matched {eu_matched:.1} ms",
        eu_cf.median_gap()
    );
}

#[test]
fn ablation_lastmile_only_lognormal_families_fit_figs_7_and_8() {
    let l = ablation::lastmile(study().config.seed);
    let verdicts: Vec<(&str, bool)> = l.rows.iter().map(|r| (r.family, r.consistent)).collect();
    assert_eq!(
        verdicts,
        vec![
            ("lognormal+spikes (model)", true),
            ("pure lognormal", true),
            ("heavy spikes", false),
            ("exponential-like tail", false),
            ("near-deterministic", false),
        ],
        "{l:?}"
    );
}
