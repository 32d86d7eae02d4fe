//! Determinism race check: every plane must produce the same bytes no
//! matter how many worker threads run it, whether routes come from the
//! route cache, and whether metrics and tracing are on.
//!
//! The workspace's determinism rests on per-flow RNG streams keyed by
//! stable task identity and on an in-order drain of the block executor; a
//! data race or an accidental dependence on thread interleaving would
//! break byte-for-byte reproducibility silently. The check is one table of
//! *legs*. A leg is one run of a plane, and each of its named outputs is
//! compared byte for byte with the same output of a reference run:
//!
//! * **campaign**, clean and under the default fault profile: N threads,
//!   1 and N threads without the route cache, and N threads with metrics
//!   and tracing on, each against the family's 1-thread cached run. A
//!   campaign tees every record into a `Dataset` (written out as JSON
//!   lines) and a columnar store, two independent encodings of one stream.
//! * **serve**: the virtual-time service (tenant arrivals, admission,
//!   live aggregates on top of the executor) at N threads, plain and
//!   instrumented, against 1 thread: its report and its store.
//! * **query**: `Query::rows` at 1 and N threads against a full decode of
//!   the clean campaign's store, and `Query::grouped` by country and
//!   provider and by country and region at N threads against 1 (P² is
//!   order-sensitive, so this proves the parallel fold keeps each group's
//!   serial observation order).
//! * **inter-cloud**: the region-to-region campaign at N threads against
//!   1, both its store and the latency-gap matrix folded from it.
//! * **placement**: the optimizer over the N-thread campaign's store, and
//!   again over the 1-thread store, against its run over the 1-thread
//!   store.
//!
//! A divergence names the leg and the output, and gives both FNV-1a
//! hashes, both lengths and the first differing byte, so a CI log shows
//! which side changed. A runner that fails, and a reference that would
//! make its legs vacuous (no records, no groups, a fault profile that
//! injected nothing), is an error finding too.

use crate::finding::{AuditReport, Severity};
use cloudy_intercloud::{
    choose, latency_matrix, median_gap_ms, run_into, stats_from_store, IntercloudConfig,
};
use cloudy_lastmile::ArtifactConfig;
use cloudy_measure::plan::PlanConfig;
use cloudy_measure::{run_campaign_into, CampaignConfig, Dataset, TeeSink};
use cloudy_netsim::{FaultProfile, Simulator};
use cloudy_obs::Obs;
use cloudy_probes::{speedchecker, Platform};
use cloudy_serve::{default_world, ServeConfig, Service};
use cloudy_store::{
    Agg, ChunkRows, GroupKey, GroupTable, Query, Reader, RecordKind, RttRow, ScanFilter, Writer,
    WriterOptions,
};
use std::fmt::Display;

/// Configuration for the race check.
#[derive(Debug, Clone, Copy)]
pub struct RaceConfig {
    /// World + plan seed.
    pub seed: u64,
    /// Thread count for the parallel legs (the reference runs use 1).
    pub threads: usize,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig { seed: 1, threads: 8 }
    }
}

/// The named outputs of one run, each compared whole.
type Outputs = Vec<(&'static str, Vec<u8>)>;

const CACHE: &str = "the route cache changed observable output";
const METRICS: &str = "metrics leaked into bytes";

/// FNV-1a over the serialized dataset: cheap, dependency-free, and stable
/// across platforms — good enough to fingerprint a diff in a CI log.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run the race matrix: every leg of the table in the module doc.
pub fn race_check(cfg: &RaceConfig) -> AuditReport {
    let mut report = AuditReport::default();
    let (seed, n) = (cfg.seed, cfg.threads);
    if n < 2 {
        report.checks_run += 1;
        report.push(
            Severity::Warning,
            "race",
            format!("threads = {n} exercises no concurrency; nothing to race"),
        );
        return report;
    }
    let r = &mut report;
    let (clean, parallel) = campaign_legs(r, seed, n, FaultProfile::none(), None);
    campaign_legs(r, seed, n, FaultProfile::default_profile(), clean.as_ref());

    if let Some(want) = reference(r, "1-thread serve run", serve(seed, 1, Obs::disabled())) {
        let why = "the service schedule depends on execution order";
        check(r, &format!("{n}-thread serve run"), why, &want, serve(seed, n, Obs::disabled()));
        let got = serve(seed, n, Obs::with_trace());
        check(r, &format!("{n}-thread instrumented serve run"), METRICS, &want, got);
    }
    if let Some(want) = reference(r, "1-thread inter-cloud campaign", intercloud(seed, 1)) {
        let why = "the inter-cloud stream depends on execution order";
        check(r, &format!("{n}-thread inter-cloud campaign"), why, &want, intercloud(seed, n));
    }

    // The query engine and the optimizer, over the clean campaign's stores.
    let Some(clean) = clean else { return report };
    let store = output(&clean, "store");
    if let Some(want) = reference(r, "full-decode rows", full_decode_rows(store)) {
        for t in [1, n] {
            let why = "the query engine changed scan results";
            check(r, &format!("{t}-thread query rows"), why, &want, query_rows(store, t));
        }
    }
    for key in [GroupKey::CountryProvider, GroupKey::CountryRegion] {
        let leg = |t: usize| format!("{t}-thread {key:?} grouped query");
        if let Some(want) = reference(r, &leg(1), grouped(store, key, 1)) {
            let why = "the parallel fold reordered observations";
            check(r, &leg(n), why, &want, grouped(store, key, n));
        }
    }
    if let Some(want) = reference(r, "placement over the 1-thread store", placement(store)) {
        let why = "placement depends on execution order";
        if let Some(parallel) = &parallel {
            let got = placement(output(parallel, "store"));
            check(r, &format!("placement over the {n}-thread store"), why, &want, got);
        }
        check(r, "placement again over the 1-thread store", why, &want, placement(store));
    }
    report
}

/// The campaign under one fault profile. Its 1-thread cached run is the
/// reference for N threads, for 1 and N threads without the route cache,
/// and for N threads instrumented. A faulted reference equal to the
/// `clean` one means the profile injected nothing, and its legs are
/// skipped. Returns the reference and the N-thread run.
fn campaign_legs(
    r: &mut AuditReport,
    seed: u64,
    n: usize,
    faults: FaultProfile,
    clean: Option<&Outputs>,
) -> (Option<Outputs>, Option<Outputs>) {
    let (family, order) = match clean {
        None => ("clean", "the campaign depends on execution order"),
        Some(_) => ("faulted", "fault injection depends on execution order"),
    };
    let name = |threads: usize, how: &str| format!("{threads}-thread{how} {family} campaign");
    let run = |threads, route_cache, obs| campaign(seed, threads, route_cache, faults, obs);
    let Some(want) = reference(r, &name(1, ""), run(1, true, Obs::disabled())) else {
        return (None, None);
    };
    if clean == Some(&want) {
        let why = "the fault profile injected no failures, so its legs race-check nothing";
        r.push(Severity::Error, "race", format!("{}: {why}", name(1, "")));
        return (None, None);
    }
    let parallel = check(r, &name(n, ""), order, &want, run(n, true, Obs::disabled()));
    for (threads, route_cache, obs, how, why) in [
        (1, false, Obs::disabled(), " uncached", CACHE),
        (n, false, Obs::disabled(), " uncached", CACHE),
        (n, true, Obs::with_trace(), " instrumented", METRICS),
    ] {
        check(r, &name(threads, how), why, &want, run(threads, route_cache, obs));
    }
    (Some(want), parallel)
}

/// Count a reference run. A runner error is an error finding that names
/// it, and its legs are skipped: there is nothing to hold them to.
fn reference(r: &mut AuditReport, leg: &str, run: Result<Outputs, String>) -> Option<Outputs> {
    r.checks_run += 1;
    run.map_err(|e| r.push(Severity::Error, "race", format!("{leg}: {e}"))).ok()
}

/// Count one leg and compare its outputs with the reference's, one by
/// one. A divergence names the leg and the output, gives the leg's and
/// the reference's hash and length and the first differing byte, and
/// `why`: the invariant it breaks. Returns the leg's outputs when its
/// runner succeeded.
fn check(
    r: &mut AuditReport,
    leg: &str,
    why: &str,
    want: &Outputs,
    got: Result<Outputs, String>,
) -> Option<Outputs> {
    let got = reference(r, leg, got)?;
    for ((name, want), (_, got)) in want.iter().zip(&got) {
        if want == got {
            continue;
        }
        let at = want.iter().zip(got).position(|(a, b)| a != b);
        r.push(
            Severity::Error,
            "race",
            format!(
                "{leg}: {name} diverges from the reference (fnv1a {:016x} vs {:016x}, lengths \
                 {} vs {}, first difference at byte {}) — {why}",
                fnv1a(got),
                fnv1a(want),
                got.len(),
                want.len(),
                at.unwrap_or(want.len().min(got.len())),
            ),
        );
    }
    Some(got)
}

/// A run's output by name (empty when it has none).
fn output<'a>(outputs: &'a Outputs, name: &str) -> &'a [u8] {
    outputs.iter().find(|(n, _)| *n == name).map(|(_, bytes)| bytes.as_slice()).unwrap_or_default()
}

fn err(e: impl Display) -> String {
    e.to_string()
}

fn open(store: &[u8]) -> Result<Reader, String> {
    Reader::from_bytes(store.to_vec()).map_err(err)
}

/// A store with no rows would make every leg held to it pass vacuously.
/// It is never zero bytes (its magic and trailer are always written), so
/// count its chunks.
fn has_rows(store: &[u8]) -> Result<(), String> {
    if open(store)?.chunks().is_empty() {
        return Err("the run stored no records, so its legs race-check nothing".into());
    }
    Ok(())
}

/// A store writer with small chunks, so every run crosses many flush
/// boundaries.
fn small_chunks() -> Result<Writer<Vec<u8>>, String> {
    Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 256 }).map_err(err)
}

/// The campaign on the 4-country default world, teeing every record into
/// a `Dataset` and a store: outputs `jsonl` and `store`.
fn campaign(
    seed: u64,
    threads: usize,
    route_cache: bool,
    faults: FaultProfile,
    obs: Obs,
) -> Result<Outputs, String> {
    let world = default_world(seed);
    let pop = speedchecker::population(&world, 0.02, seed);
    let sim = Simulator::new(world.net);
    let cfg = CampaignConfig {
        plan: PlanConfig { seed, duration_days: 2, ..PlanConfig::default() },
        artifacts: ArtifactConfig::realistic(),
        threads,
        route_cache,
        faults,
        obs: obs.clone(),
    };
    let mut ds = Dataset::new(Platform::Speedchecker);
    let mut writer = small_chunks()?;
    writer.set_obs(obs);
    run_campaign_into(&cfg, &sim, &pop, &mut TeeSink::new(&mut ds, &mut writer)).map_err(err)?;
    let (store, _) = writer.finish().map_err(err)?;
    has_rows(&store)?;
    Ok(vec![("jsonl", ds.to_jsonl().into_bytes()), ("store", store)])
}

/// The virtual-time service: outputs `report` (its JSON) and `store`. A
/// modest tenant count keeps the matrix fast; the 50-tenant acceptance
/// run lives in `cloudy-serve`'s own test suite.
fn serve(seed: u64, threads: usize, obs: Obs) -> Result<Outputs, String> {
    let cfg = ServeConfig { seed, tenants: 12, hours: 1, threads, obs, ..ServeConfig::default() };
    let mut svc = Service::new(cfg).map_err(err)?;
    svc.run().map_err(err)?;
    let (report, store) = svc.finish().map_err(err)?;
    has_rows(&store)?;
    let report = serde_json::to_string(&report).map_err(err)?;
    Ok(vec![("report", report.into_bytes()), ("store", store)])
}

/// The small inter-cloud campaign: outputs `store` and `matrix`, a
/// lossless render (raw f64 bits) of the latency-gap matrix folded from
/// that store.
fn intercloud(seed: u64, threads: usize) -> Result<Outputs, String> {
    let cfg = IntercloudConfig {
        seed,
        regions_per_provider: 1,
        hours: 2,
        samples_per_hour: 2,
        threads,
        ..IntercloudConfig::default()
    };
    let mut writer = small_chunks()?;
    run_into(&cfg, &mut writer).map_err(err)?;
    let (store, _) = writer.finish().map_err(err)?;
    has_rows(&store)?;
    let rows = latency_matrix(&open(&store)?).map_err(err)?;
    let mut matrix = String::new();
    for r in &rows {
        matrix.push_str(&format!(
            "{:?}|{:?}|{:016x}|{:016x}|{:016x}|{}|{}\n",
            r.src,
            r.dst,
            r.private_p50_ms.to_bits(),
            r.public_p50_ms.to_bits(),
            r.gap_ms.to_bits(),
            r.private_count,
            r.public_count,
        ));
    }
    let gap = median_gap_ms(&rows).ok_or("the gap matrix is empty")?;
    matrix.push_str(&format!("median_gap|{:016x}\n", gap.to_bits()));
    Ok(vec![("store", store), ("matrix", matrix.into_bytes())])
}

/// The placement optimizer over one campaign store: output `placement`,
/// the shortlist size, the picks and the objective's raw f64 bits.
fn placement(store: &[u8]) -> Result<Outputs, String> {
    let mut stats = stats_from_store(&open(store)?).map_err(err)?;
    stats.restrict_to_top(12);
    let p = choose(&stats, 3).map_err(err)?;
    let picks: Vec<String> = p.regions.iter().map(|r| r.0.to_string()).collect();
    let text = format!(
        "shortlist {}|regions [{}]|p95 {:016x}",
        stats.candidates.len(),
        picks.join(","),
        p.p95_ms.to_bits()
    );
    Ok(vec![("placement", text.into_bytes())])
}

/// The scan the pushdown engine replaced: decode whole records, then
/// project and filter by hand. Output `rows`, as [`query_rows`] renders
/// them.
fn full_decode_rows(store: &[u8]) -> Result<Outputs, String> {
    let mut rows = Vec::new();
    open(store)?
        .for_each(&ScanFilter::default(), |chunk| match chunk {
            ChunkRows::Pings(pings) => rows.extend(pings.iter().filter_map(|p| {
                Some(RttRow {
                    kind: RecordKind::Ping,
                    provider: p.provider,
                    country: p.country,
                    region: p.region,
                    hour: p.hour,
                    rtt_ms: p.rtt_ms()?,
                })
            })),
            // The RTT projection carries only delivered traces whose last
            // hop responded.
            ChunkRows::Traces(traces) => rows.extend(traces.iter().filter_map(|t| {
                let rtt_ms = t.end_to_end_ms().filter(|_| t.outcome.is_ok())?;
                Some(RttRow {
                    kind: RecordKind::Trace,
                    provider: t.provider,
                    country: t.country,
                    region: t.region,
                    hour: t.hour,
                    rtt_ms,
                })
            })),
            // A user campaign writes no inter-cloud rows.
            ChunkRows::CloudPings(_) => {}
        })
        .map_err(err)?;
    Ok(vec![("rows", render_rows(&rows))])
}

/// `Query::rows` over a store at `threads`: output `rows`.
fn query_rows(store: &[u8], threads: usize) -> Result<Outputs, String> {
    let (rows, _) = Query::rtts().threads(threads).rows(&open(store)?).map_err(err)?;
    Ok(vec![("rows", render_rows(&rows))])
}

/// `Query::grouped` by `key` over a store at `threads`: output `groups`,
/// every f64 aggregate as raw bits. A table with no groups is an error.
fn grouped(store: &[u8], key: GroupKey, threads: usize) -> Result<Outputs, String> {
    let (table, _) = Query::rtts()
        .group_by(key)
        .aggregate(Agg::Moments | Agg::P2Quantiles)
        .threads(threads)
        .grouped(&open(store)?)
        .map_err(err)?;
    if table.is_empty() {
        return Err("the query aggregated no groups, so its legs race-check nothing".into());
    }
    Ok(vec![("groups", render_groups(&table))])
}

/// Render RTT rows losslessly (f64 as raw bits), so byte equality means
/// bit equality.
fn render_rows(rows: &[RttRow]) -> Vec<u8> {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{:?}|{:?}|{}|{}|{}|{:016x}\n",
            r.kind,
            r.provider,
            r.country.as_str(),
            r.region.0,
            r.hour,
            r.rtt_ms.to_bits()
        ));
    }
    out.into_bytes()
}

fn render_groups(table: &GroupTable) -> Vec<u8> {
    let mut out = String::new();
    for (id, row) in table {
        let mean = row.moments.map(|m| m.mean().to_bits()).unwrap_or(0);
        let p50 = row.p50.map(f64::to_bits).unwrap_or(0);
        let p95 = row.p95.map(f64::to_bits).unwrap_or(0);
        out.push_str(&format!("{id:?}|{}|{mean:016x}|{p50:016x}|{p95:016x}\n", row.count));
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn check_names_the_leg_the_output_and_the_first_differing_byte() {
        let want: Outputs = vec![("jsonl", b"same".to_vec()), ("store", b"abcdef".to_vec())];
        let mut got = want.clone();
        got[1].1[3] ^= 1;
        let mut r = AuditReport::default();
        assert!(check(&mut r, "leg", "why", &want, Ok(want.clone())).is_some());
        assert!(check(&mut r, "leg", "why", &want, Ok(got)).is_some());
        assert_eq!(r.checks_run, 2);
        let details: Vec<&str> = r.errors().map(|f| f.detail.as_str()).collect();
        assert_eq!(details.len(), 1, "{}", r.render());
        for part in ["leg: store diverges", "lengths 6 vs 6", "first difference at byte 3", "why"] {
            assert!(details[0].contains(part), "no {part:?} in {}", details[0]);
        }
        // A cut output differs first where the shorter one ends.
        let mut r = AuditReport::default();
        check(&mut r, "leg", "why", &want, Ok(vec![want[0].clone(), ("store", b"abc".to_vec())]));
        let text = r.render();
        assert!(text.contains("lengths 3 vs 6, first difference at byte 3"), "{text}");
    }

    #[test]
    fn a_runner_error_is_an_error_finding_not_a_panic() {
        let mut r = AuditReport::default();
        assert!(reference(&mut r, "ref", Err("no world".into())).is_none());
        assert!(check(&mut r, "leg", "why", &Vec::new(), Err("boom".into())).is_none());
        assert_eq!(r.checks_run, 2);
        let details: Vec<&str> = r.errors().map(|f| f.detail.as_str()).collect();
        assert_eq!(details, ["ref: no world", "leg: boom"]);
    }

    #[test]
    fn a_store_without_rows_is_vacuous_though_not_empty() {
        let (empty, _) = small_chunks().unwrap().finish().unwrap();
        assert!(!empty.is_empty(), "a store always has its magic and trailer");
        assert!(has_rows(&empty).unwrap_err().contains("no records"));
        assert!(grouped(&empty, GroupKey::CountryProvider, 1).unwrap_err().contains("no groups"));
    }

    #[test]
    fn a_fault_profile_that_injects_nothing_is_vacuous() {
        let clean = campaign(1, 1, true, FaultProfile::none(), Obs::disabled()).unwrap();
        assert!(has_rows(output(&clean, "store")).is_ok());
        let mut r = AuditReport::default();
        let legs = campaign_legs(&mut r, 1, 2, FaultProfile::none(), Some(&clean));
        assert!(legs.0.is_none() && legs.1.is_none());
        assert_eq!(r.checks_run, 1, "the legs of a vacuous reference are skipped");
        assert!(r.render().contains("injected no failures"), "{}", r.render());
    }

    #[test]
    fn single_thread_config_is_a_warning_not_an_error() {
        let report = race_check(&RaceConfig { seed: 1, threads: 1 });
        assert!(report.is_clean());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let report = race_check(&RaceConfig { seed: 7, threads: 4 });
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.checks_run, 25);
    }
}
