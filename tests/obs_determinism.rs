//! The observability layer must be invisible in every wire byte: campaign
//! JSONL, store files, and service reports are identical with metrics off,
//! on, and on-with-tracing — across thread counts and fault profiles. The
//! instrumented legs also check the metrics were really collected, so a
//! silently-disabled registry can't fake a pass.

use cloudy::geo::CountryCode;
use cloudy::lastmile::ArtifactConfig;
use cloudy::measure::campaign::{run_campaign_into, CampaignConfig};
use cloudy::measure::plan::PlanConfig;
use cloudy::measure::{Dataset, TeeSink};
use cloudy::netsim::build::{build, WorldConfig};
use cloudy::netsim::{FaultProfile, Simulator};
use cloudy::obs::Obs;
use cloudy::probes::{speedchecker, Platform};
use cloudy::serve::{ServeConfig, Service};
use cloudy::store::{Writer, WriterOptions};

fn world_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        isps_per_country: 2,
        countries: Some(["DE", "JP", "BR"].iter().map(|c| CountryCode::new(c)).collect()),
    }
}

/// Run a small campaign teed into both a `Dataset` (JSONL) and a store
/// writer, with the given observability handle attached to both the
/// executor and the writer. Also returns the records the sinks received.
fn campaign_outputs(threads: usize, faults: FaultProfile, obs: Obs) -> (String, Vec<u8>, u64) {
    let world = build(&world_cfg(7));
    let pop = speedchecker::population(&world, 0.01, 7);
    let sim = Simulator::new(world.net);
    let cfg = CampaignConfig {
        plan: PlanConfig { seed: 7, duration_days: 3, min_probes_per_country: 2, ..Default::default() },
        artifacts: ArtifactConfig::realistic(),
        threads,
        route_cache: true,
        faults,
        obs: obs.clone(),
    };
    let mut ds = Dataset::new(Platform::Speedchecker);
    let mut writer =
        Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions { chunk_rows: 128 })
            .expect("valid writer options");
    writer.set_obs(obs);
    let mut tee = TeeSink::new(&mut ds, &mut writer);
    run_campaign_into(&cfg, &sim, &pop, &mut tee).expect("Vec-backed sinks are infallible");
    let (bytes, summary) = writer.finish().expect("finish succeeds");
    assert!(summary.ping_rows > 0, "campaign produced no pings");
    (ds.to_jsonl(), bytes, ds.len() as u64)
}

#[test]
fn metrics_never_change_campaign_or_store_bytes() {
    for faults in [FaultProfile::none(), FaultProfile::default_profile()] {
        let (ref_jsonl, ref_store, _) = campaign_outputs(1, faults, Obs::disabled());
        for threads in [1usize, 8] {
            for obs in [Obs::enabled(), Obs::with_trace()] {
                let tracing = obs.trace_enabled();
                let (jsonl, store, records) = campaign_outputs(threads, faults, obs.clone());
                assert_eq!(
                    jsonl, ref_jsonl,
                    "JSONL changed at threads={threads} tracing={tracing}"
                );
                assert_eq!(
                    store, ref_store,
                    "store bytes changed at threads={threads} tracing={tracing}"
                );
                // The run really was instrumented.
                let snap = obs.snapshot().expect("enabled registry snapshots");
                assert!(snap.counter("campaign.tasks.executed") > 0, "no tasks counted");
                assert!(snap.counter("store.chunks.flushed") > 0, "no flushes counted");
                assert_eq!(
                    snap.counter("store.bytes_written"),
                    store.len() as u64,
                    "byte accounting drifted from the file size"
                );
                // Without faults only successful tasks produce records, so
                // the outcome counter reconciles with the sink exactly.
                if faults.is_none() {
                    assert_eq!(
                        snap.counter("campaign.outcome.ok"),
                        records,
                        "obs outcome counter disagrees with the sink"
                    );
                }
            }
        }
    }
}

#[test]
fn metrics_never_change_serve_report_or_store_bytes() {
    let run = |threads: usize, obs: Obs| {
        let cfg = ServeConfig {
            seed: 5,
            tenants: 8,
            hours: 1,
            threads,
            obs,
            ..ServeConfig::default()
        };
        let mut svc = Service::new(cfg).expect("the small serve world builds");
        svc.run().expect("Vec-backed serve runs are infallible");
        let (report, bytes) = svc.finish().expect("Vec-backed serve writers cannot fail");
        assert_eq!(report.reconcile(), Vec::<String>::new(), "report must reconcile");
        (serde_json::to_string(&report).expect("report serializes"), bytes)
    };
    let (ref_json, ref_store) = run(1, Obs::disabled());
    for threads in [1usize, 4] {
        let obs = Obs::with_trace();
        let (json, store) = run(threads, obs.clone());
        assert_eq!(json, ref_json, "serve report changed at threads={threads}");
        assert_eq!(store, ref_store, "serve store bytes changed at threads={threads}");
        let snap = obs.snapshot().expect("enabled registry snapshots");
        assert!(snap.counter("serve.events.submit") > 0, "no submissions counted");
        let trace = obs.trace_json().expect("tracing registry renders a trace");
        assert!(trace.contains("\"traceEvents\""), "not a Chrome trace: {trace:.40}");
    }
}
