//! `repro`: the paper reproduction as `cloudy-repro all` runs it — a study
//! (world, both platform campaigns into in-memory datasets) followed by all
//! twenty tables and figures. It is the number users feel, and the only
//! workload that runs the figures and the in-memory `Dataset` sink.

use super::{layer_metrics, peak_rss_mb, run_campaign, secs_since, Rep, Tally, THREADS};
use crate::check::Fnv;
use crate::trace::Recorder;
use cloudy_core::experiments::{self, ExperimentId};
use cloudy_core::study::build_registry;
use cloudy_core::{Study, StudyConfig};
use cloudy_measure::{Dataset, MeasureError};
use cloudy_netsim::build::{build, WorldConfig};
use cloudy_netsim::Simulator;
use cloudy_obs::Obs;
use cloudy_probes::{atlas, speedchecker};
use std::time::Instant;

/// The study both `repro` and `query_mix` run (the latter stores only its
/// Speedchecker campaign).
pub(super) fn config(seed: u64, smoke: bool) -> StudyConfig {
    let mut cfg = StudyConfig::tiny(seed);
    (cfg.sc_fraction, cfg.atlas_fraction, cfg.duration_days) = if smoke {
        (0.005, 0.05, 4)
    } else {
        (0.04, 0.3, 20)
    };
    cfg.threads = THREADS;
    cfg
}

pub fn run(seed: u64, smoke: bool, rec: &Recorder, ready: &mut dyn FnMut()) -> Rep {
    let cfg = config(seed, smoke);
    let mut rep = Rep::default();
    let mut tally = Tally::default();
    // `Study::run` builds its own world, so there is nothing to set up:
    // every `cloudy-repro all` pays for the whole pipeline.
    rec.span("bench.setup", || ());
    ready();
    let t0 = Instant::now();
    let result = rec.span("bench.timed", || {
        let study = if rec.is_on() {
            traced_study(rec, &mut tally, cfg)?
        } else {
            Study::run(cfg)
        };
        let sections = if rec.is_on() {
            rec.span("core.figures", || {
                ExperimentId::ALL
                    .iter()
                    .map(|&id| {
                        let span = format!("core.figures.{}", id.slug());
                        (id, rec.span(&span, || experiments::run_one(&study, id)))
                    })
                    .collect()
            })
        } else {
            experiments::run_all(&study)
        };
        Ok::<_, MeasureError>((study, sections))
    });
    rep.wall_s = secs_since(t0);
    rep.peak_rss_mb = peak_rss_mb();
    let (study, sections) = match result {
        Ok(v) => v,
        Err(e) => {
            rep.error("study", e);
            return rep;
        }
    };

    let sizes = [
        study.sc.pings.len(),
        study.sc.traces.len(),
        study.atlas.pings.len(),
        study.atlas.traces.len(),
    ];
    rep.records = sizes.iter().sum::<usize>() as u64;
    rep.check("study", sizes.iter().all(|&n| n > 0), || {
        format!("empty dataset among (sc pings, sc traces, atlas pings, atlas traces) = {sizes:?}")
    });
    rep.check(
        "figures.count",
        sections.len() == ExperimentId::ALL.len(),
        || {
            format!(
                "{} sections, want {}",
                sections.len(),
                ExperimentId::ALL.len()
            )
        },
    );
    let mut digest = Fnv::default();
    for (id, text) in &sections {
        rep.check(
            &format!("figures.{}", id.slug()),
            !text.trim().is_empty(),
            || "empty artifact".into(),
        );
        digest.bytes(id.label().as_bytes());
        digest.bytes(normalized(*id, text).as_bytes());
    }
    rep.digest = digest.finish();
    rep.content = Some(rep.digest);
    if rec.is_on() {
        rep.extra = layer_metrics(rec, &tally);
    }
    rep
}

/// Rows that tie on the sort key come out in `HashMap` order in two
/// sections (`crates/core/src/experiments/deployment.rs`): Fig. 14 rows
/// tied on spread, and Fig. 1b continents tied on probe count. Those two
/// sections are compared as sorted sets of lines; every other section is
/// compared byte for byte.
fn normalized(id: ExperimentId, text: &str) -> String {
    if !matches!(
        id,
        ExperimentId::Fig1Deployment | ExperimentId::Fig14Closeness
    ) {
        return text.to_string();
    }
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// `Study::run`, step by step through the same public calls, with a span
/// around each layer. The output digest holds it to `Study::run`'s output.
fn traced_study(
    rec: &Recorder,
    tally: &mut Tally,
    config: StudyConfig,
) -> Result<Study, MeasureError> {
    let world = rec.span("netsim.build", || {
        build(&WorldConfig {
            seed: config.seed,
            isps_per_country: config.isps_per_country,
            countries: None,
        })
    });
    let sc_pop = rec.span("probes.population", || {
        speedchecker::population(&world, config.sc_fraction, config.seed ^ 0x5C)
    });
    let atlas_pop = rec.span("probes.population", || {
        atlas::population(&world, config.atlas_fraction, config.seed ^ 0xA7)
    });
    let isps_by_country = world.isps_by_country.clone();
    let registry = rec.span("core.registry", || build_registry(&world.net));
    let sim = Simulator::new(world.net);

    let obs = Obs::enabled();
    let mut campaign_cfg = config.campaign_config();
    campaign_cfg.obs = obs.clone();
    let mut sc = Dataset::new(sc_pop.platform);
    run_campaign(rec, tally, &campaign_cfg, &sim, &sc_pop, &mut sc)?;
    let mut atlas = Dataset::new(atlas_pop.platform);
    run_campaign(rec, tally, &campaign_cfg, &sim, &atlas_pop, &mut atlas)?;
    tally.read_obs(&obs);
    Ok(Study {
        config,
        sim,
        isps_by_country,
        registry,
        sc,
        atlas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_tie_ordered_sections_are_normalised() {
        let text = "b row\na row";
        assert_eq!(
            normalized(ExperimentId::Fig14Closeness, text),
            "a row\nb row"
        );
        assert_eq!(
            normalized(ExperimentId::Fig1Deployment, text),
            "a row\nb row"
        );
        assert_eq!(normalized(ExperimentId::Fig3CountryMap, text), text);
    }
}
