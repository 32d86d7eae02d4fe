//! Build the world, run both campaigns, hold the data.

use cloudy_geo::CountryCode;
use cloudy_lastmile::ArtifactConfig;
use cloudy_measure::campaign::{run_campaign, run_campaign_into, CampaignConfig};
use cloudy_measure::plan::{PlanConfig, TaskKindSet};
use cloudy_measure::{Dataset, FailureStats, MeasureError, RecordSink};
use cloudy_netsim::build::{build, BuiltWorld, WorldConfig};
use cloudy_netsim::{FaultProfile, Simulator};
use cloudy_probes::{atlas, speedchecker, Population};
use cloudy_topology::registry::RegistryEntry;
use cloudy_topology::{Asn, Registry};
use std::collections::HashMap;

/// Full study configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    pub seed: u64,
    /// Fraction of the full Speedchecker population (1.0 = 115k probes).
    pub sc_fraction: f64,
    /// Fraction of the full Atlas population (1.0 = ~8.3k probes).
    pub atlas_fraction: f64,
    /// Campaign length in days (the paper ran ~180).
    pub duration_days: u32,
    /// Worker threads for campaign execution.
    pub threads: usize,
    /// Synthetic ISPs per country.
    pub isps_per_country: usize,
    /// Probes tasked per country per active day.
    pub probes_per_country_day: usize,
    /// Regions per probe per active day.
    pub regions_per_probe: usize,
    /// Measurement artifacts (CGN/VPN).
    pub artifacts: ArtifactConfig,
    /// Fault-injection profile for both campaigns. Under
    /// `FaultProfile::none()` each task gets one attempt and a lost ping
    /// leaves no record.
    pub faults: FaultProfile,
}

impl StudyConfig {
    /// Test-sized study: minutes of compute, every experiment still runs.
    pub fn tiny(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            sc_fraction: 0.012,
            atlas_fraction: 0.15,
            duration_days: 8,
            threads: 4,
            isps_per_country: 3,
            probes_per_country_day: 12,
            regions_per_probe: 6,
            artifacts: ArtifactConfig::realistic(),
            faults: FaultProfile::none(),
        }
    }

    /// Example-sized study (~minutes).
    pub fn small() -> StudyConfig {
        StudyConfig {
            seed: 42,
            sc_fraction: 0.01,
            atlas_fraction: 0.12,
            duration_days: 14,
            threads: 8,
            isps_per_country: 3,
            probes_per_country_day: 20,
            regions_per_probe: 8,
            artifacts: ArtifactConfig::realistic(),
            faults: FaultProfile::none(),
        }
    }

    /// The scale knob used when gating per-country sample counts: relative
    /// measurement volume vs. the paper's campaign.
    pub fn volume_scale(&self) -> f64 {
        (self.sc_fraction * self.duration_days as f64 / 180.0).min(1.0)
    }

    /// The world this configuration measures, rebuilt bit-identically from
    /// the seed.
    pub fn build_world(&self) -> BuiltWorld {
        build(&WorldConfig {
            seed: self.seed,
            isps_per_country: self.isps_per_country,
            countries: None,
        })
    }

    /// The Speedchecker probe population the study measures.
    pub fn sc_population(&self, world: &BuiltWorld) -> Population {
        speedchecker::population(world, self.sc_fraction, self.seed ^ 0x5C)
    }

    /// The RIPE Atlas probe population the study measures.
    pub(crate) fn atlas_population(&self, world: &BuiltWorld) -> Population {
        atlas::population(world, self.atlas_fraction, self.seed ^ 0xA7)
    }

    /// The campaign configuration both [`Study::run`] and
    /// [`run_study_into`] execute — one place, so the streaming and
    /// in-memory paths can never drift apart.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            plan: PlanConfig {
                seed: self.seed,
                duration_days: self.duration_days,
                cycle_days: 14.min(self.duration_days).max(1),
                min_probes_per_country: 2,
                probes_per_country_day: self.probes_per_country_day,
                regions_per_probe: self.regions_per_probe,
                samples_per_measurement: 4,
                quota_per_day: 1440,
                census_reserve: 6,
                kinds: TaskKindSet::BOTH,
            },
            artifacts: self.artifacts,
            threads: self.threads,
            faults: self.faults,
            ..CampaignConfig::default()
        }
    }
}

/// Build the world and stream both campaigns' records into the given sinks
/// instead of materialising `Dataset`s — e.g. two `cloudy_store::Writer`s,
/// so a study far larger than memory still runs in bounded space. Record
/// order per sink is identical to the corresponding [`Study::run`] dataset
/// (and invariant under `threads`). Returns the (Speedchecker, Atlas)
/// failure accounting.
pub fn run_study_into(
    config: &StudyConfig,
    sc_sink: &mut impl RecordSink,
    atlas_sink: &mut impl RecordSink,
) -> Result<(FailureStats, FailureStats), MeasureError> {
    let world = config.build_world();
    let (sc_pop, atlas_pop) = (config.sc_population(&world), config.atlas_population(&world));
    let sim = Simulator::new(world.net);

    let campaign_cfg = config.campaign_config();
    let sc_stats = run_campaign_into(&campaign_cfg, &sim, &sc_pop, sc_sink)?;
    let atlas_stats = run_campaign_into(&campaign_cfg, &sim, &atlas_pop, atlas_sink)?;
    Ok((sc_stats, atlas_stats))
}

/// The executed study: simulator + both datasets + registry.
pub struct Study {
    pub config: StudyConfig,
    pub sim: Simulator,
    pub isps_by_country: HashMap<CountryCode, Vec<Asn>>,
    pub registry: Registry,
    /// Speedchecker campaign output.
    pub sc: Dataset,
    /// RIPE Atlas campaign output (the Corneo et al. dataset analog).
    pub atlas: Dataset,
}

impl Study {
    /// Rebuild the world for a config and attach previously-collected
    /// datasets (e.g. loaded from a `cloudy-repro run` export). The seed and
    /// ISP count must match the collecting run or IP→AS resolution will not
    /// line up — callers should take them from the export's `study.meta`.
    pub fn from_datasets(config: StudyConfig, sc: Dataset, atlas: Dataset) -> Study {
        let world = config.build_world();
        let isps_by_country = world.isps_by_country.clone();
        let registry = build_registry(&world.net);
        let sim = Simulator::new(world.net);
        Study { config, sim, isps_by_country, registry, sc, atlas }
    }

    /// Build everything and run both campaigns.
    pub fn run(config: StudyConfig) -> Study {
        let world = config.build_world();
        let (sc_pop, atlas_pop) = (config.sc_population(&world), config.atlas_population(&world));

        let isps_by_country = world.isps_by_country.clone();
        let registry = build_registry(&world.net);
        let sim = Simulator::new(world.net);

        let campaign_cfg = config.campaign_config();
        let sc = run_campaign(&campaign_cfg, &sim, &sc_pop);
        let atlas = run_campaign(&campaign_cfg, &sim, &atlas_pop);

        Study { config, sim, isps_by_country, registry, sc, atlas }
    }
}

/// Build the PeeringDB-analog registry from the assembled network — org
/// names, network types and IXP presence, as the analysis pipeline expects.
pub fn build_registry(net: &cloudy_netsim::Network) -> Registry {
    let mut reg = Registry::new();
    for info in net.graph.ases() {
        reg.insert(RegistryEntry {
            asn: info.asn,
            org_name: info.name.clone(),
            kind: info.kind,
            country: info.country,
            ixps: Vec::new(),
        });
    }
    for ixp in net.ixps.iter() {
        for member in &ixp.members {
            reg.add_ixp_presence(*member, ixp.id);
        }
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study_runs_and_produces_data() {
        let s = Study::run(StudyConfig::tiny(5));
        assert!(!s.sc.pings.is_empty(), "no SC pings");
        assert!(!s.sc.traces.is_empty(), "no SC traces");
        assert!(!s.atlas.pings.is_empty(), "no Atlas pings");
        let summary = s.sc.summary();
        assert!(summary.countries > 20, "only {} countries", summary.countries);
    }

    #[test]
    fn registry_covers_all_ases() {
        let s = Study::run(StudyConfig::tiny(6));
        for info in s.sim.net.graph.ases() {
            assert!(s.registry.get(info.asn).is_some(), "{} missing", info.asn);
        }
        // Cloud networks flagged as cloud.
        assert!(s.registry.is_cloud(cloudy_cloud::Provider::Google.asn()));
        assert!(!s.registry.is_cloud(cloudy_topology::known::TELIA));
    }

    #[test]
    fn from_datasets_round_trips_a_run() {
        let a = Study::run(StudyConfig::tiny(8));
        let b = Study::from_datasets(a.config.clone(), a.sc.clone(), a.atlas.clone());
        // The rebuilt study resolves the same addresses to the same ASes.
        for t in a.sc.traces.iter().take(50) {
            assert_eq!(
                a.sim.net.prefixes.lookup(t.src_ip),
                b.sim.net.prefixes.lookup(t.src_ip)
            );
        }
        assert_eq!(a.sc, b.sc);
    }

    #[test]
    fn streaming_study_matches_in_memory_datasets() {
        let cfg = StudyConfig::tiny(5);
        let s = Study::run(cfg.clone());
        let mut sc = cloudy_measure::CountingSink::default();
        let mut atlas = cloudy_measure::CountingSink::default();
        run_study_into(&cfg, &mut sc, &mut atlas).unwrap();
        assert_eq!(sc.pings, s.sc.pings.len() as u64);
        assert_eq!(sc.traces, s.sc.traces.len() as u64);
        assert_eq!(atlas.pings, s.atlas.pings.len() as u64);
        assert_eq!(atlas.traces, s.atlas.traces.len() as u64);
    }

    #[test]
    fn study_is_deterministic() {
        let a = Study::run(StudyConfig::tiny(7));
        let b = Study::run(StudyConfig::tiny(7));
        assert_eq!(a.sc.pings.len(), b.sc.pings.len());
        assert_eq!(a.sc.pings.first(), b.sc.pings.first());
        assert_eq!(a.atlas.traces.len(), b.atlas.traces.len());
    }
}
