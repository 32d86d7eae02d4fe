//! The measurement schedule — §3.3 as code.
//!
//! The planner walks simulated days, charging a daily API quota (with a
//! census reserve), cycling through countries so that a full pass over the
//! platform takes about two weeks, selecting connected probes via the churn
//! model, and targeting every same-continent region plus the §4.3
//! inter-continental additions (African probes also target EU and NA
//! datacenters; South American probes also target NA).
//!
//! Two practical refinements mirror how the authors actually collected
//! enough data for their figures:
//!
//! * **Case-study priority**: the four case-study countries (DE, JP, UA,
//!   BH) are measured every day, with their partner datacenter countries
//!   (GB, IN) always in the target set — §6.2's matrices need dense
//!   per-`<ISP, provider>` coverage.
//! * **Multi-sample measurements**: each granted measurement sends several
//!   ping packets / traceroute runs (`samples_per_measurement`), which is
//!   what makes per-`<probe, datacenter>` Cv (Figs. 8/9) computable.

use cloudy_cloud::{region, RegionId};
use cloudy_geo::{Continent, CountryCode};
use cloudy_netsim::rng::mix;
use cloudy_netsim::Protocol;
use cloudy_probes::quota::QuotaResult;
use cloudy_probes::{Availability, DailyQuota, Platform, Population};
use serde::{Deserialize, Serialize};

/// What a single probe task executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    Ping(Protocol),
    Traceroute(Protocol),
}

/// Which task kinds the planner emits per granted measurement. The paper's
/// campaign pairs every ping with a traceroute ([`TaskKindSet::BOTH`],
/// the default); route-heavy benchmarks and ping-only studies narrow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskKindSet {
    pub pings: bool,
    pub traceroutes: bool,
}

impl TaskKindSet {
    pub const BOTH: TaskKindSet = TaskKindSet { pings: true, traceroutes: true };
    pub const PINGS_ONLY: TaskKindSet = TaskKindSet { pings: true, traceroutes: false };
    pub const TRACEROUTES_ONLY: TaskKindSet = TaskKindSet { pings: false, traceroutes: true };

    /// An empty set schedules nothing; [`crate::CampaignConfig::validate`]
    /// rejects it.
    pub fn is_empty(&self) -> bool {
        !self.pings && !self.traceroutes
    }
}

impl Default for TaskKindSet {
    fn default() -> Self {
        TaskKindSet::BOTH
    }
}

/// One scheduled measurement sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Index into the population's probe vector.
    pub probe_ix: u32,
    pub region: RegionId,
    pub kind: TaskKind,
    pub hour: u64,
    /// Sequence number for flow derivation (unique per (probe, region,
    /// kind) over the campaign).
    pub seq: u64,
}

/// The full campaign schedule for one platform.
#[derive(Debug, Clone)]
pub struct MeasurementPlan {
    pub platform: Platform,
    pub tasks: Vec<Task>,
    /// Countries that met the probe threshold and were scheduled.
    pub scheduled_countries: usize,
}

/// Planner parameters.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    pub seed: u64,
    pub duration_days: u32,
    /// Days for one full pass over all countries (paper: ~two weeks).
    pub cycle_days: u32,
    /// Minimum connected probes for a country to be scheduled in a pass
    /// (paper: 100 at full scale — scale this with the population).
    pub min_probes_per_country: usize,
    /// Probes actually tasked per country per active day.
    pub probes_per_country_day: usize,
    /// Regions targeted per probe per active day.
    pub regions_per_probe: usize,
    /// Samples per granted measurement (ping packets / traceroute runs).
    pub samples_per_measurement: usize,
    /// Daily API quota and census reserve.
    pub quota_per_day: u32,
    pub census_reserve: u32,
    /// Task kinds emitted per granted measurement (default: both).
    pub kinds: TaskKindSet,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            seed: 1,
            duration_days: 14,
            cycle_days: 14,
            min_probes_per_country: 5,
            probes_per_country_day: 20,
            regions_per_probe: 8,
            samples_per_measurement: 4,
            quota_per_day: 1440, // one request per minute, §3.3
            census_reserve: 6,   // four-hourly census
            kinds: TaskKindSet::BOTH,
        }
    }
}

/// The §6.2 case-study pairs: probe country → datacenter country whose
/// regions are always kept in the probe's target set.
pub const PRIORITY_PAIRS: [(&str, &str); 4] =
    [("DE", "GB"), ("JP", "IN"), ("UA", "GB"), ("BH", "IN")];

fn partner_of(cc: CountryCode) -> Option<CountryCode> {
    PRIORITY_PAIRS
        .iter()
        .find(|(vp, _)| CountryCode::new(vp) == cc)
        .map(|(_, dc)| CountryCode::new(dc))
}

/// Regions a probe on `continent` targets: all same-continent regions plus
/// the paper's §4.3 neighbouring-continent additions.
pub fn target_regions(continent: Continent) -> Vec<RegionId> {
    let mut out: Vec<RegionId> = region::in_continent(continent).map(|(id, _)| id).collect();
    for extra in continent.intercontinental_targets() {
        out.extend(region::in_continent(*extra).map(|(id, _)| id));
    }
    out
}

/// Protocol pairing per platform: Speedchecker runs TCP pings + ICMP
/// traceroutes; the Atlas dataset has ICMP pings + TCP traceroutes (§3.2).
pub fn protocols(platform: Platform) -> (Protocol, Protocol) {
    match platform {
        Platform::Speedchecker => (Protocol::Tcp, Protocol::Icmp),
        Platform::RipeAtlas => (Protocol::Icmp, Protocol::Tcp),
    }
}

/// Pick the day's region set for one probe: partner-country regions first
/// (case studies), then same-continent, then inter-continental — rotated on
/// a 4-day cadence so `<probe, region>` pairs accumulate repeat samples.
fn select_targets(
    seed: u64,
    probe_id: u64,
    country: CountryCode,
    continent: Continent,
    day: u64,
    k: usize,
) -> Vec<RegionId> {
    let mut chosen: Vec<RegionId> = Vec::with_capacity(k);
    let window = day / 4;

    // A probe always keeps its own country's regions (up to two, rotating)
    // in scope: Fig. 3's nearest-DC estimation needs in-country candidates,
    // and countries with in-land datacenters are exactly the interesting
    // ones.
    let own: Vec<RegionId> = region::all()
        .filter(|(_, r)| r.country() == country)
        .map(|(id, _)| id)
        .collect();
    if !own.is_empty() {
        let r0 = (mix(&[seed, probe_id, window, 0x0117]) % own.len() as u64) as usize;
        for i in 0..own.len().min(2) {
            chosen.push(own[(r0 + i) % own.len()]);
        }
    }

    if let Some(partner) = partner_of(country) {
        let partner_regions: Vec<RegionId> = region::all()
            .filter(|(_, r)| r.country() == partner)
            .map(|(id, _)| id)
            .filter(|id| !chosen.contains(id))
            .collect();
        if !partner_regions.is_empty() {
            let cap = (k / 2).max(1).min(partner_regions.len());
            let r0 = (mix(&[seed, probe_id, window, 0x9A12]) % partner_regions.len() as u64)
                as usize;
            for i in 0..cap {
                chosen.push(partner_regions[(r0 + i) % partner_regions.len()]);
            }
        }
    }

    let same: Vec<RegionId> = region::in_continent(continent)
        .map(|(id, _)| id)
        .filter(|id| !chosen.contains(id))
        .collect();
    let extra: Vec<RegionId> = continent
        .intercontinental_targets()
        .iter()
        .flat_map(|c| region::in_continent(*c).map(|(id, _)| id))
        .filter(|id| !chosen.contains(id))
        .collect();

    let remaining = k.saturating_sub(chosen.len());
    // Two thirds of the remaining budget stays on-continent; the paper's
    // intra-continental share is ~70%.
    let same_budget = if extra.is_empty() {
        remaining
    } else {
        remaining - remaining / 3
    };
    let pick_from = |pool: &[RegionId], n: usize, salt: u64, out: &mut Vec<RegionId>| {
        if pool.is_empty() || n == 0 {
            return;
        }
        let r0 = (mix(&[seed, probe_id, window, salt]) % pool.len() as u64) as usize;
        for i in 0..n.min(pool.len()) {
            out.push(pool[(r0 + i) % pool.len()]);
        }
    };
    pick_from(&same, same_budget, 0x5A3E, &mut chosen);
    pick_from(&extra, remaining.saturating_sub(same_budget), 0xE874, &mut chosen);
    chosen
}

/// Distinct (probe, region) pairs of a task slice, in first-appearance
/// order. The batched executor routes each pair once per block instead of
/// once per task; first-appearance order keeps the pass deterministic and
/// independent of how many threads later consume the block.
pub fn block_pairs(tasks: &[Task]) -> Vec<(u32, RegionId)> {
    let mut seen = std::collections::HashSet::with_capacity(tasks.len() / 4);
    let mut out = Vec::new();
    for t in tasks {
        if seen.insert((t.probe_ix, t.region)) {
            out.push((t.probe_ix, t.region));
        }
    }
    out
}

/// Build the schedule.
pub fn plan(cfg: &PlanConfig, pop: &Population) -> MeasurementPlan {
    let avail = Availability::new(cfg.seed);
    let mut quota = DailyQuota::new(cfg.quota_per_day, cfg.census_reserve);
    let (ping_proto, trace_proto) = protocols(pop.platform);

    // Countries sorted for determinism; each is active on a fixed phase of
    // the cycle. Case-study countries are active every day.
    let mut countries = pop.countries_with_at_least(1);
    countries.sort();
    let n_countries = countries.len().max(1);
    let priority_set: Vec<CountryCode> =
        PRIORITY_PAIRS.iter().map(|(vp, _)| CountryCode::new(vp)).collect();

    // Pre-index probes per country.
    let mut by_country: std::collections::HashMap<_, Vec<u32>> = std::collections::HashMap::new();
    for (ix, p) in pop.probes.iter().enumerate() {
        by_country.entry(p.country).or_default().push(ix as u32);
    }

    let mut tasks = Vec::new();
    let mut scheduled = std::collections::HashSet::new();
    for day in 0..cfg.duration_days as u64 {
        quota.advance_to_day(day);
        // Census calls at each four-hour epoch.
        for _ in 0..6 {
            let _ = quota.request_census(day);
        }
        // Countries active today: a contiguous slice of the cycle, plus the
        // case-study countries.
        let phase = (day % cfg.cycle_days as u64) as usize;
        let per_day = n_countries.div_ceil(cfg.cycle_days as usize);
        let start = phase * per_day;
        let mut today: Vec<usize> = (start..(start + per_day).min(n_countries)).collect();
        for (ci, cc) in countries.iter().enumerate() {
            if priority_set.contains(cc) && !today.contains(&ci) {
                today.push(ci);
            }
        }
        for ci in today {
            let cc = countries[ci];
            let probe_ixs = &by_country[&cc];
            // Connected probes this day (first epoch of the day).
            let epoch = day * 24 / 4;
            let connected: Vec<u32> = probe_ixs
                .iter()
                .copied()
                .filter(|ix| avail.is_available(&pop.probes[*ix as usize], epoch))
                .collect();
            if connected.len() < cfg.min_probes_per_country {
                continue;
            }
            scheduled.insert(cc);
            // Deterministic probe rotation: a hash-rotated window, sliding
            // slowly so probes recur across consecutive days.
            let rot = (mix(&[cfg.seed, day / 4, ci as u64]) % connected.len() as u64) as usize;
            let chosen: Vec<u32> = (0..cfg.probes_per_country_day.min(connected.len()))
                .map(|k| connected[(rot + k) % connected.len()])
                .collect();
            for ix in chosen {
                let probe = &pop.probes[ix as usize];
                let targets = select_targets(
                    cfg.seed,
                    probe.id.0,
                    probe.country,
                    probe.continent,
                    day,
                    cfg.regions_per_probe,
                );
                for (k, region) in targets.into_iter().enumerate() {
                    if quota.request_measurement(day) == QuotaResult::Exhausted {
                        break;
                    }
                    // Measurements spread across the whole day (the platform
                    // rate-limits to ~1/minute); the hour must not correlate
                    // with the target index or diurnal analyses confound
                    // time-of-day with region choice.
                    let hour = day * 24 + mix(&[cfg.seed, probe.id.0, day, k as u64, 0x40]) % 24;
                    for rep in 0..cfg.samples_per_measurement as u64 {
                        let seq = day * 1024 + (k as u64) * 16 + rep;
                        if cfg.kinds.pings {
                            tasks.push(Task {
                                probe_ix: ix,
                                region,
                                kind: TaskKind::Ping(ping_proto),
                                hour,
                                seq,
                            });
                        }
                        if cfg.kinds.traceroutes {
                            tasks.push(Task {
                                probe_ix: ix,
                                region,
                                kind: TaskKind::Traceroute(trace_proto),
                                hour,
                                seq,
                            });
                        }
                    }
                }
            }
        }
    }
    MeasurementPlan { platform: pop.platform, tasks, scheduled_countries: scheduled.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_netsim::build::{build, WorldConfig};

    fn pop() -> Population {
        let w = build(&WorldConfig::default());
        cloudy_probes::speedchecker::population(&w, 0.01, 3)
    }

    #[test]
    fn plan_is_deterministic() {
        let p = pop();
        let cfg = PlanConfig::default();
        let a = plan(&cfg, &p);
        let b = plan(&cfg, &p);
        assert_eq!(a.tasks, b.tasks);
        assert!(!a.tasks.is_empty());
    }

    #[test]
    fn pings_and_traceroutes_are_paired() {
        let p = pop();
        let m = plan(&PlanConfig::default(), &p);
        let pings = m.tasks.iter().filter(|t| matches!(t.kind, TaskKind::Ping(_))).count();
        let traces = m.tasks.iter().filter(|t| matches!(t.kind, TaskKind::Traceroute(_))).count();
        assert_eq!(pings, traces);
    }

    #[test]
    fn speedchecker_protocol_pairing() {
        let p = pop();
        let m = plan(&PlanConfig::default(), &p);
        for t in &m.tasks {
            match t.kind {
                TaskKind::Ping(proto) => assert_eq!(proto, Protocol::Tcp),
                TaskKind::Traceroute(proto) => assert_eq!(proto, Protocol::Icmp),
            }
        }
    }

    #[test]
    fn quota_bounds_daily_measurement_grants() {
        let p = pop();
        let cfg = PlanConfig { quota_per_day: 50, ..Default::default() };
        let m = plan(&cfg, &p);
        // Each grant produces samples_per_measurement pings; count grants.
        let mut per_day: std::collections::HashMap<u64, usize> = Default::default();
        for t in &m.tasks {
            if matches!(t.kind, TaskKind::Ping(_)) {
                *per_day.entry(t.hour / 24).or_default() += 1;
            }
        }
        for (day, n) in per_day {
            assert!(
                n <= 50 * cfg.samples_per_measurement,
                "day {day}: {n} ping samples"
            );
        }
    }

    #[test]
    fn african_probes_target_europe_and_na() {
        let targets = target_regions(Continent::Africa);
        let continents: std::collections::HashSet<_> = targets
            .iter()
            .map(|id| cloudy_cloud::region::by_id(*id).unwrap().continent())
            .collect();
        assert!(continents.contains(&Continent::Africa));
        assert!(continents.contains(&Continent::Europe));
        assert!(continents.contains(&Continent::NorthAmerica));
        let eu = target_regions(Continent::Europe);
        assert!(eu
            .iter()
            .all(|id| cloudy_cloud::region::by_id(*id).unwrap().continent() == Continent::Europe));
    }

    #[test]
    fn daily_selection_keeps_same_continent_majority() {
        // African probes must still hit their 3 in-continent regions.
        let t = select_targets(1, 99, CountryCode::new("KE"), Continent::Africa, 0, 6);
        let af = t
            .iter()
            .filter(|id| {
                cloudy_cloud::region::by_id(**id).unwrap().continent() == Continent::Africa
            })
            .count();
        assert!(af >= 3, "AF regions in selection: {af} of {:?}", t.len());
    }

    #[test]
    fn priority_countries_scheduled_daily_with_partner_targets() {
        let p = pop();
        let m = plan(&PlanConfig::default(), &p);
        // German tasks should exist on most days, and GB regions should be
        // heavily represented among them.
        let de_probes: std::collections::HashSet<u32> = p
            .probes
            .iter()
            .enumerate()
            .filter(|(_, pr)| pr.country == CountryCode::new("DE"))
            .map(|(i, _)| i as u32)
            .collect();
        let mut days = std::collections::HashSet::new();
        let mut gb_tasks = 0usize;
        let mut de_tasks = 0usize;
        for t in &m.tasks {
            if de_probes.contains(&t.probe_ix) {
                days.insert(t.hour / 24);
                de_tasks += 1;
                if cloudy_cloud::region::by_id(t.region).unwrap().country()
                    == CountryCode::new("GB")
                {
                    gb_tasks += 1;
                }
            }
        }
        assert!(days.len() >= 10, "DE active on only {} days", days.len());
        assert!(
            gb_tasks as f64 / de_tasks as f64 > 0.3,
            "GB share of DE tasks: {gb_tasks}/{de_tasks}"
        );
    }

    #[test]
    fn repeats_accumulate_per_pair() {
        let p = pop();
        let m = plan(&PlanConfig::default(), &p);
        let mut per_pair: std::collections::HashMap<(u32, RegionId), usize> = Default::default();
        for t in &m.tasks {
            if matches!(t.kind, TaskKind::Traceroute(_)) {
                *per_pair.entry((t.probe_ix, t.region)).or_default() += 1;
            }
        }
        let with_4_plus = per_pair.values().filter(|n| **n >= 4).count();
        assert!(
            with_4_plus as f64 / per_pair.len() as f64 > 0.8,
            "pairs with >=4 traceroutes: {with_4_plus}/{}",
            per_pair.len()
        );
    }

    #[test]
    fn kinds_filter_narrows_the_schedule() {
        let p = pop();
        let both = plan(&PlanConfig::default(), &p);
        let pings_only =
            plan(&PlanConfig { kinds: TaskKindSet::PINGS_ONLY, ..Default::default() }, &p);
        assert!(!pings_only.tasks.is_empty());
        assert!(pings_only.tasks.iter().all(|t| matches!(t.kind, TaskKind::Ping(_))));
        // Ping tasks themselves are unchanged — only the traceroutes drop.
        let both_pings: Vec<_> =
            both.tasks.iter().filter(|t| matches!(t.kind, TaskKind::Ping(_))).collect();
        assert_eq!(pings_only.tasks.len(), both_pings.len());
        let traces_only =
            plan(&PlanConfig { kinds: TaskKindSet::TRACEROUTES_ONLY, ..Default::default() }, &p);
        assert!(traces_only.tasks.iter().all(|t| matches!(t.kind, TaskKind::Traceroute(_))));
        assert!(TaskKindSet { pings: false, traceroutes: false }.is_empty());
        assert_eq!(TaskKindSet::default(), TaskKindSet::BOTH);
    }

    #[test]
    fn block_pairs_dedupes_in_first_appearance_order() {
        let p = pop();
        let m = plan(&PlanConfig::default(), &p);
        let block = &m.tasks[..m.tasks.len().min(2048)];
        let pairs = block_pairs(block);
        // Far fewer pairs than tasks: the workload is cache-shaped.
        assert!(pairs.len() * 2 <= block.len(), "{} pairs / {} tasks", pairs.len(), block.len());
        // No duplicates, and ordered by first appearance.
        let mut seen = std::collections::HashSet::new();
        assert!(pairs.iter().all(|p| seen.insert(*p)));
        let first = (block[0].probe_ix, block[0].region);
        assert_eq!(pairs[0], first);
        for t in block {
            assert!(seen.contains(&(t.probe_ix, t.region)));
        }
    }

    #[test]
    fn longer_campaigns_produce_more_tasks() {
        let p = pop();
        let short = plan(&PlanConfig { duration_days: 7, ..Default::default() }, &p);
        let long = plan(&PlanConfig { duration_days: 28, ..Default::default() }, &p);
        assert!(long.tasks.len() > short.tasks.len() * 2);
    }
}
