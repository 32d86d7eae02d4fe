//! Determinism race check: the campaign executor must produce the same
//! dataset no matter how many worker threads run it.
//!
//! The workspace's determinism story rests on per-flow RNG streams and a
//! post-execution stable sort of the collected records; a data race or an
//! accidental dependence on thread interleaving would break byte-for-byte
//! reproducibility silently. This check runs a small (but real) campaign
//! twice — single-threaded and at N threads — streaming each run through a
//! [`TeeSink`] into both a `Dataset` and a columnar `cloudy-store` writer,
//! and compares the serialized JSONL *and* the store file byte for byte,
//! reporting FNV-1a content hashes so a CI log shows *which* side changed
//! across commits.
//!
//! Since the route-plan cache landed, the check also runs cached and
//! uncached legs: memoizing routes may change *when* a route is computed,
//! never *what* it contains, so every leg — serial/parallel ×
//! cached/uncached — must produce byte-identical JSONL and store files.
//!
//! With the fault-injection layer, the same matrix runs again under the
//! default fault profile: fault draws, retries, and offline windows are
//! keyed only by stable task identity, so a faulted campaign must be every
//! bit as thread- and cache-invariant as a clean one.
//!
//! Finally, `cloudy-serve` joins the matrix: the virtual-time service
//! layers tenant arrival processes, admission control, and live
//! aggregates on top of the executor, and its service report and store
//! stream must be byte-identical across thread counts too.
//!
//! With the observability layer, instrumented legs join the matrix: a
//! campaign or serve run with metrics and tracing fully enabled must be
//! byte-identical to the uninstrumented reference — observability reads
//! the wall clock, so a single leaked byte would destroy reproducibility.
//!
//! The inter-cloud plane joins last: the region↔region campaign streams
//! [`cloudy_measure::CloudPingRecord`]s through the same block executor,
//! so its store bytes — and the latency-gap matrix folded from them —
//! must be identical across thread counts. The placement optimizer sits downstream of the
//! store-backed grouped query; its picks and objective bits must not
//! depend on which campaign leg produced the store it reads.

use crate::finding::{AuditReport, Severity};
use cloudy_intercloud::{
    choose, latency_matrix, median_gap_ms, run_into, stats_from_store, IntercloudConfig,
};
use cloudy_lastmile::ArtifactConfig;
use cloudy_measure::plan::PlanConfig;
use cloudy_measure::{run_campaign_into, CampaignConfig, Dataset, TeeSink};
use cloudy_netsim::build::{build, BuiltWorld, WorldConfig};
use cloudy_netsim::{FaultProfile, Simulator};
use cloudy_obs::Obs;
use cloudy_probes::{speedchecker, Platform};
use cloudy_serve::{ServeConfig, Service};
use cloudy_store::{Reader, Writer, WriterOptions};

/// Configuration for the race check.
#[derive(Debug, Clone, Copy)]
pub struct RaceConfig {
    /// World + plan seed.
    pub seed: u64,
    /// Thread count for the parallel leg (the serial leg is always 1).
    pub threads: usize,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig { seed: 1, threads: 8 }
    }
}

/// The representative 4-country world used for the check: one country per
/// paper macro-region that the seed world models densely enough to probe.
fn small_world(seed: u64) -> BuiltWorld {
    build(&WorldConfig {
        seed,
        isps_per_country: 2,
        countries: Some(
            ["DE", "JP", "BR", "KE"].iter().map(|c| cloudy_geo::CountryCode::new(c)).collect(),
        ),
    })
}

/// Run the campaign at `threads` workers, teeing every record into both a
/// `Dataset` (serialized to JSONL) and a columnar store writer: two
/// independent byte encodings of the same record stream to compare.
fn campaign_outputs(
    seed: u64,
    threads: usize,
    route_cache: bool,
    faults: FaultProfile,
    obs: Obs,
) -> (String, Vec<u8>) {
    let world = small_world(seed);
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
    // Small chunks so the race check exercises many flush boundaries.
    let mut writer =
        Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 256 })
            .expect("chunk_rows is positive"); // audit:allow(expect)
    writer.set_obs(obs);
    let mut tee = TeeSink::new(&mut ds, &mut writer);
    run_campaign_into(&cfg, &sim, &pop, &mut tee).expect("Dataset and Vec sinks are infallible"); // audit:allow(expect)
    let (store_bytes, _) = writer.finish().expect("Vec-backed store writer cannot fail"); // audit:allow(expect)
    (ds.to_jsonl(), store_bytes)
}

/// Run the virtual-time measurement service at `threads` workers and
/// return its serialized report plus the store file it streamed out. A
/// modest tenant count keeps the matrix fast; the 50-tenant acceptance
/// run lives in `cloudy-serve`'s own test suite.
fn serve_outputs(seed: u64, threads: usize, obs: Obs) -> (String, Vec<u8>) {
    let cfg = ServeConfig {
        seed,
        tenants: 12,
        hours: 1,
        threads,
        obs,
        ..ServeConfig::default()
    };
    let mut svc = Service::new(cfg).expect("the small serve world always builds"); // audit:allow(expect)
    svc.run().expect("Vec-backed serve runs are infallible"); // audit:allow(expect)
    let (report, bytes) = svc.finish().expect("Vec-backed serve writers cannot fail"); // audit:allow(expect)
    (serde_json::to_string(&report).expect("the report has no non-serializable fields"), bytes) // audit:allow(expect)
}

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

/// Run the 1-vs-N-thread determinism check.
pub fn race_check(cfg: &RaceConfig) -> AuditReport {
    let mut report = AuditReport::default();
    report.checks_run += 1;
    if cfg.threads < 2 {
        report.push(
            Severity::Warning,
            "race",
            format!("threads = {} exercises no concurrency; nothing to race", cfg.threads),
        );
        return report;
    }
    let (serial, serial_store) = campaign_outputs(cfg.seed, 1, true, FaultProfile::none(), Obs::disabled());
    let (parallel, parallel_store) =
        campaign_outputs(cfg.seed, cfg.threads, true, FaultProfile::none(), Obs::disabled());
    let (h1, hn) = (fnv1a(serial.as_bytes()), fnv1a(parallel.as_bytes()));
    if serial != parallel {
        let first_diff = serial
            .bytes()
            .zip(parallel.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| serial.len().min(parallel.len()));
        report.push(
            Severity::Error,
            "race",
            format!(
                "1-thread and {}-thread campaigns diverge (fnv1a {h1:016x} vs {hn:016x}, \
                 lengths {} vs {}, first difference at byte {first_diff})",
                cfg.threads,
                serial.len(),
                parallel.len(),
            ),
        );
    }
    report.checks_run += 1;
    let (s1, sn) = (fnv1a(&serial_store), fnv1a(&parallel_store));
    if serial_store != parallel_store {
        let first_diff = serial_store
            .iter()
            .zip(parallel_store.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| serial_store.len().min(parallel_store.len()));
        report.push(
            Severity::Error,
            "race",
            format!(
                "1-thread and {}-thread campaign store files diverge (fnv1a {s1:016x} vs \
                 {sn:016x}, lengths {} vs {}, first difference at byte {first_diff})",
                cfg.threads,
                serial_store.len(),
                parallel_store.len(),
            ),
        );
    }
    if serial.is_empty() {
        report.push(Severity::Error, "race", "campaign produced an empty dataset".into());
    }
    // Route-cache legs: memoization must not change a single output byte,
    // serially or under thread contention on the shared cache shards.
    for (label, threads) in [("1-thread", 1usize), ("N-thread", cfg.threads)] {
        report.checks_run += 1;
        let (jsonl, store) = campaign_outputs(cfg.seed, threads, false, FaultProfile::none(), Obs::disabled());
        if jsonl != serial || store != serial_store {
            let (hu, hc) = (fnv1a(jsonl.as_bytes()), fnv1a(serial.as_bytes()));
            report.push(
                Severity::Error,
                "race",
                format!(
                    "{label} uncached campaign diverges from the cached reference \
                     (jsonl fnv1a {hu:016x} vs {hc:016x}, store lengths {} vs {}) — \
                     the route cache changed observable output",
                    store.len(),
                    serial_store.len(),
                ),
            );
        }
    }
    // Faulted legs: retries, offline windows, and failure rows must be
    // exactly as deterministic as clean samples — same matrix, default
    // fault profile, one faulted serial/cached run as the reference.
    let profile = FaultProfile::default_profile();
    report.checks_run += 1;
    let (faulted_ref, faulted_ref_store) = campaign_outputs(cfg.seed, 1, true, profile, Obs::disabled());
    if faulted_ref == serial {
        report.push(
            Severity::Error,
            "race",
            "the default fault profile injected no failures — the faulted legs race-check \
             nothing"
                .into(),
        );
    }
    for (label, threads, route_cache) in [
        ("N-thread cached", cfg.threads, true),
        ("1-thread uncached", 1, false),
        ("N-thread uncached", cfg.threads, false),
    ] {
        report.checks_run += 1;
        let (jsonl, store) = campaign_outputs(cfg.seed, threads, route_cache, profile, Obs::disabled());
        if jsonl != faulted_ref || store != faulted_ref_store {
            let (hu, hc) = (fnv1a(jsonl.as_bytes()), fnv1a(faulted_ref.as_bytes()));
            report.push(
                Severity::Error,
                "race",
                format!(
                    "{label} faulted campaign diverges from the faulted reference \
                     (jsonl fnv1a {hu:016x} vs {hc:016x}, store lengths {} vs {}) — \
                     fault injection depends on execution order",
                    store.len(),
                    faulted_ref_store.len(),
                ),
            );
        }
    }
    // Serve legs: the virtual-time service schedules tenants, admits
    // campaigns, and streams slices through the same executor; its report
    // and store bytes must be invariant under the thread count.
    report.checks_run += 1;
    let (serve_ref, serve_ref_store) = serve_outputs(cfg.seed, 1, Obs::disabled());
    if serve_ref_store.is_empty() {
        report.push(Severity::Error, "race", "the serve reference run wrote no store bytes".into());
    }
    report.checks_run += 1;
    let (json, store) = serve_outputs(cfg.seed, cfg.threads, Obs::disabled());
    if json != serve_ref || store != serve_ref_store {
        let (hu, hc) = (fnv1a(json.as_bytes()), fnv1a(serve_ref.as_bytes()));
        report.push(
            Severity::Error,
            "race",
            format!(
                "N-thread serve run diverges from the serve reference (report fnv1a \
                 {hu:016x} vs {hc:016x}, store lengths {} vs {}) — the service \
                 schedule depends on execution order",
                store.len(),
                serve_ref_store.len(),
            ),
        );
    }
    // Instrumented legs: metrics + tracing fully on, compared byte-for-byte
    // against the uninstrumented references. Run at N threads so shard
    // merging is exercised, and under faults so retry spans are too.
    report.checks_run += 1;
    let (jsonl, store) =
        campaign_outputs(cfg.seed, cfg.threads, true, FaultProfile::none(), Obs::with_trace());
    if jsonl != serial || store != serial_store {
        report.push(
            Severity::Error,
            "race",
            format!(
                "instrumented clean campaign diverges from the reference (jsonl fnv1a \
                 {:016x} vs {:016x}, store lengths {} vs {}) — metrics leaked into bytes",
                fnv1a(jsonl.as_bytes()),
                fnv1a(serial.as_bytes()),
                store.len(),
                serial_store.len(),
            ),
        );
    }
    report.checks_run += 1;
    let (jsonl, store) =
        campaign_outputs(cfg.seed, cfg.threads, true, profile, Obs::with_trace());
    if jsonl != faulted_ref || store != faulted_ref_store {
        report.push(
            Severity::Error,
            "race",
            format!(
                "instrumented faulted campaign diverges from the faulted reference (jsonl \
                 fnv1a {:016x} vs {:016x}, store lengths {} vs {}) — metrics leaked into bytes",
                fnv1a(jsonl.as_bytes()),
                fnv1a(faulted_ref.as_bytes()),
                store.len(),
                faulted_ref_store.len(),
            ),
        );
    }
    report.checks_run += 1;
    let (json, store) = serve_outputs(cfg.seed, cfg.threads, Obs::with_trace());
    if json != serve_ref || store != serve_ref_store {
        report.push(
            Severity::Error,
            "race",
            format!(
                "instrumented serve run diverges from the serve reference (report fnv1a \
                 {:016x} vs {:016x}, store lengths {} vs {}) — metrics leaked into bytes",
                fnv1a(json.as_bytes()),
                fnv1a(serve_ref.as_bytes()),
                store.len(),
                serve_ref_store.len(),
            ),
        );
    }
    // Query-path legs: the pushdown engine (dictionary pruning, projection
    // skips, in-scan aggregation) must reproduce the legacy full-decode
    // scan byte for byte, at one thread and N.
    query_legs(&mut report, &serial_store, cfg.threads);
    // Inter-cloud legs: the region↔region campaign and the placement
    // optimizer downstream of the user stores.
    intercloud_legs(&mut report, cfg, &serial_store, &parallel_store);
    report
}

/// Run the small inter-cloud campaign at `threads` workers and return its
/// store bytes plus a lossless (raw f64 bits) render of the latency-gap
/// matrix folded from them — the two observable outputs of the plane.
fn intercloud_outputs(seed: u64, threads: usize) -> (Vec<u8>, String) {
    let cfg = IntercloudConfig {
        seed,
        regions_per_provider: 1,
        hours: 2,
        samples_per_hour: 2,
        threads,
        ..IntercloudConfig::default()
    };
    // Small chunks again, so block drains cross flush boundaries.
    let mut writer =
        Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 256 })
            .expect("chunk_rows is positive"); // audit:allow(expect)
    run_into(&cfg, &mut writer).expect("the small inter-cloud campaign always runs"); // audit:allow(expect)
    let (bytes, _) = writer.finish().expect("Vec-backed store writer cannot fail"); // audit:allow(expect)
    let reader = Reader::from_bytes(bytes.clone()).expect("a just-written store parses"); // audit:allow(expect)
    let rows = latency_matrix(&reader).expect("the campaign covers every roster pair"); // audit:allow(expect)
    let mut out = String::new();
    for r in &rows {
        out.push_str(&format!(
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
    let gap = median_gap_ms(&rows).expect("the matrix is non-empty"); // audit:allow(expect)
    out.push_str(&format!("median_gap|{:016x}\n", gap.to_bits()));
    (bytes, out)
}

/// Render the placement optimizer's output over one user-campaign store,
/// losslessly: shortlist size, picks, and the objective's raw f64 bits.
fn placement_render(store_bytes: &[u8]) -> String {
    let reader =
        Reader::from_bytes(store_bytes.to_vec()).expect("a just-written store parses"); // audit:allow(expect)
    let mut stats = stats_from_store(&reader).expect("the race campaign delivers pings"); // audit:allow(expect)
    stats.restrict_to_top(12);
    let p = choose(&stats, 3).expect("the shortlist is non-degenerate"); // audit:allow(expect)
    let picks: Vec<String> = p.regions.iter().map(|r| r.0.to_string()).collect();
    format!("shortlist {}|regions [{}]|p95 {:016x}", stats.candidates.len(), picks.join(","), p.p95_ms.to_bits())
}

/// The inter-cloud legs of the matrix: campaign store bytes and the
/// derived gap matrix at 1 and N threads, plus the placement optimizer
/// over both user-campaign stores.
fn intercloud_legs(
    report: &mut AuditReport,
    cfg: &RaceConfig,
    serial_store: &[u8],
    parallel_store: &[u8],
) {
    report.checks_run += 1;
    let (ref_store, ref_matrix) = intercloud_outputs(cfg.seed, 1);
    if ref_store.is_empty() {
        report.push(
            Severity::Error,
            "race",
            "the inter-cloud reference campaign wrote no store bytes".into(),
        );
    }
    report.checks_run += 1;
    let (store, matrix) = intercloud_outputs(cfg.seed, cfg.threads);
    if store != ref_store || matrix != ref_matrix {
        report.push(
            Severity::Error,
            "race",
            format!(
                "N-thread inter-cloud campaign diverges from the reference (store fnv1a \
                 {:016x} vs {:016x}, matrix fnv1a {:016x} vs {:016x}) — the inter-cloud \
                 stream depends on execution order",
                fnv1a(&store),
                fnv1a(&ref_store),
                fnv1a(matrix.as_bytes()),
                fnv1a(ref_matrix.as_bytes()),
            ),
        );
    }
    // Optimizer leg: the same picks and objective bits no matter which
    // campaign leg produced the store the optimizer reads, and across
    // repeated runs over the same bytes (its fold and search must hold no
    // order-sensitive state).
    report.checks_run += 1;
    let (ps, pp) = (placement_render(serial_store), placement_render(parallel_store));
    if ps != pp || ps != placement_render(serial_store) {
        report.push(
            Severity::Error,
            "race",
            format!(
                "placement optimizer output diverges across campaign legs (fnv1a {:016x} vs \
                 {:016x}: `{ps}` vs `{pp}`) — placement depends on execution order",
                fnv1a(ps.as_bytes()),
                fnv1a(pp.as_bytes()),
            ),
        );
    }
}

/// Render the RTT projection losslessly (f64 as raw bits) so byte equality
/// means bit equality.
fn render_rtt_rows(rows: &[cloudy_store::RttRow]) -> String {
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
    out
}

/// Render a grouped result losslessly (all f64 aggregates as raw bits).
fn render_groups(table: &cloudy_store::GroupTable) -> String {
    let mut out = String::new();
    for (id, row) in table {
        let mean = row.moments.map(|m| m.mean().to_bits()).unwrap_or(0);
        let p50 = row.p50.map(f64::to_bits).unwrap_or(0);
        let p95 = row.p95.map(f64::to_bits).unwrap_or(0);
        out.push_str(&format!(
            "{id:?}|{}|{mean:016x}|{p50:016x}|{p95:016x}\n",
            row.count
        ));
    }
    out
}

/// The query-engine legs of the matrix, run against the campaign's store
/// bytes: (1) `Query::rows` at 1 and N threads must equal a reference
/// built by decoding *full records* and projecting by hand — the
/// decode-then-filter path the pushdown engine replaced; (2) `Query::grouped`
/// country×provider and country×region aggregations must be bit-identical
/// at 1 and N threads (P² is order-sensitive, so this proves the parallel
/// fold preserves each group's serial observation sequence).
fn query_legs(report: &mut AuditReport, store_bytes: &[u8], threads: usize) {
    use cloudy_store::{Agg, ChunkRows, GroupKey, Query, Reader, RecordKind, RttRow};

    report.checks_run += 1;
    let reader = match Reader::from_bytes(store_bytes.to_vec()) {
        Ok(r) => r,
        Err(e) => {
            report.push(
                Severity::Error,
                "race",
                format!("query leg could not parse the campaign store: {e}"),
            );
            return;
        }
    };
    // Legacy reference: decode whole records, project and filter by hand.
    let mut legacy: Vec<RttRow> = Vec::new();
    let full_decode = reader.for_each(&cloudy_store::ScanFilter::default(), |rows| match rows {
        ChunkRows::Pings(pings) => {
            for p in pings {
                if let Some(rtt_ms) = p.rtt_ms() {
                    legacy.push(RttRow {
                        kind: RecordKind::Ping,
                        provider: p.provider,
                        country: p.country,
                        region: p.region,
                        hour: p.hour,
                        rtt_ms,
                    });
                }
            }
        }
        ChunkRows::Traces(traces) => {
            for t in traces {
                // The RTT projection only carries delivered traces whose
                // last hop responded.
                if !t.outcome.is_ok() {
                    continue;
                }
                if let Some(rtt_ms) = t.end_to_end_ms() {
                    legacy.push(RttRow {
                        kind: RecordKind::Trace,
                        provider: t.provider,
                        country: t.country,
                        region: t.region,
                        hour: t.hour,
                        rtt_ms,
                    });
                }
            }
        }
        // The race world's user campaign produces no inter-cloud rows;
        // the inter-cloud legs check those stores separately.
        ChunkRows::CloudPings(_) => {}
    });
    if let Err(e) = full_decode {
        report.push(Severity::Error, "race", format!("query leg reference scan failed: {e}"));
        return;
    }
    let legacy_rendered = render_rtt_rows(&legacy);
    for t in [1usize, threads] {
        report.checks_run += 1;
        match Query::rtts().threads(t).rows(&reader) {
            Ok((rows, _)) => {
                let rendered = render_rtt_rows(&rows);
                if rendered != legacy_rendered {
                    report.push(
                        Severity::Error,
                        "race",
                        format!(
                            "{t}-thread pushdown query diverges from the legacy full-decode \
                             reference (fnv1a {:016x} vs {:016x}, {} vs {} rows) — the query \
                             engine changed scan results",
                            fnv1a(rendered.as_bytes()),
                            fnv1a(legacy_rendered.as_bytes()),
                            rows.len(),
                            legacy.len(),
                        ),
                    );
                }
            }
            Err(e) => {
                report.push(Severity::Error, "race", format!("{t}-thread query leg failed: {e}"));
            }
        }
    }
    // Grouped legs: in-scan aggregation must be thread-count-invariant,
    // for country×provider and for Fig. 3's country×region.
    for key in [GroupKey::CountryProvider, GroupKey::CountryRegion] {
        let grouped_at = |t: usize| {
            Query::rtts()
                .group_by(key)
                .aggregate(Agg::Moments | Agg::P2Quantiles)
                .threads(t)
                .grouped(&reader)
        };
        report.checks_run += 1;
        match (grouped_at(1), grouped_at(threads)) {
            (Ok((serial, _)), Ok((parallel, _))) => {
                let (rs, rp) = (render_groups(&serial), render_groups(&parallel));
                if rs.is_empty() {
                    report.push(
                        Severity::Error,
                        "race",
                        format!(
                            "{key:?} grouped query leg aggregated no groups — nothing \
                             race-checked"
                        ),
                    );
                }
                if rs != rp {
                    report.push(
                        Severity::Error,
                        "race",
                        format!(
                            "{key:?} grouped pushdown query diverges across thread counts (fnv1a \
                             {:016x} vs {:016x}) — the parallel fold reordered observations",
                            fnv1a(rs.as_bytes()),
                            fnv1a(rp.as_bytes()),
                        ),
                    );
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                let msg = format!("{key:?} grouped query leg failed: {e}");
                report.push(Severity::Error, "race", msg);
            }
        }
    }
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
    fn single_thread_config_is_a_warning_not_an_error() {
        let report = race_check(&RaceConfig { seed: 1, threads: 1 });
        assert!(report.is_clean());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let report = race_check(&RaceConfig { seed: 7, threads: 4 });
        assert!(report.is_clean(), "{}", report.render());
    }
}
