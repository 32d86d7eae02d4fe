//! `campaign_ping` and `campaign_fresh`: one Speedchecker campaign streamed
//! into an in-memory store `Writer`.
//!
//! The two differ in how much work shares a route. `campaign_ping` sends
//! about 150 ping tasks down each (probe, region) route, so route building
//! is amortised and per-sample RTT draws, record building and ping-chunk
//! encoding dominate. `campaign_fresh` runs about 2.4 tasks per route over
//! a route working set several times larger, so route construction is
//! compulsory work; it also runs the default fault profile (retries,
//! outcome tags) and the traceroute encoder. A change to route handling
//! should show on `campaign_fresh` and not on `campaign_ping`.

use super::{layer_metrics, peak_rss_mb, run_campaign, secs_since, Rep, Tally, THREADS};
use crate::check::Fnv;
use crate::trace::Recorder;
use cloudy_core::StudyConfig;
use cloudy_measure::{CampaignConfig, TaskKindSet, TaskOutcome};
use cloudy_netsim::build::{build, WorldConfig};
use cloudy_netsim::{FaultProfile, Simulator};
use cloudy_obs::Obs;
use cloudy_probes::speedchecker;
use cloudy_store::{ChunkRows, Reader, ScanFilter, StoreError, Writer, WriterOptions};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ping,
    Fresh,
}

/// Population fraction and campaign configuration for one kind.
fn config(kind: Kind, seed: u64, smoke: bool) -> (f64, CampaignConfig) {
    // Start from the study's campaign shape so the plan's census, cycling
    // and targeting rules are the ones the reproduction uses.
    let mut study = StudyConfig::tiny(seed);
    study.threads = THREADS;
    let fraction = match kind {
        Kind::Ping => {
            (study.sc_fraction, study.duration_days) = if smoke { (0.005, 2) } else { (0.05, 30) };
            study.sc_fraction
        }
        Kind::Fresh => {
            (study.sc_fraction, study.duration_days) = if smoke { (0.005, 2) } else { (0.1, 14) };
            study.regions_per_probe = 16;
            study.probes_per_country_day = 40;
            study.faults = FaultProfile::default_profile();
            study.sc_fraction
        }
    };
    let mut cfg = study.campaign_config();
    match kind {
        Kind::Ping => {
            cfg.plan.kinds = TaskKindSet::PINGS_ONLY;
            cfg.plan.samples_per_measurement = if smoke { 16 } else { 128 };
        }
        Kind::Fresh => {
            cfg.plan.samples_per_measurement = 1;
            // High enough that the daily quota never binds: every planned
            // (probe, region) pair is measured.
            cfg.plan.quota_per_day = 1_000_000;
        }
    }
    (fraction, cfg)
}

pub fn run(kind: Kind, seed: u64, smoke: bool, rec: &Recorder, ready: &mut dyn FnMut()) -> Rep {
    let (fraction, mut cfg) = config(kind, seed, smoke);
    let obs = if rec.is_on() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    cfg.obs = obs.clone();
    let mut rep = Rep::default();
    let mut tally = Tally::default();

    let (sim, pop) = rec.span("bench.setup", || {
        let world = rec.span("netsim.build", || {
            build(&WorldConfig {
                seed,
                isps_per_country: 3,
                countries: None,
            })
        });
        let pop = rec.span("probes.population", || {
            speedchecker::population(&world, fraction, seed ^ 0x5C)
        });
        (Simulator::new(world.net), pop)
    });
    ready();
    let t0 = Instant::now();
    let result = rec.span("bench.timed", || {
        let mut writer = Writer::new(Vec::new(), pop.platform, WriterOptions::default())
            .map_err(|e| e.to_string())?;
        writer.set_obs(obs.clone());
        let stats = run_campaign(rec, &mut tally, &cfg, &sim, &pop, &mut writer)
            .map_err(|e| e.to_string())?;
        let (bytes, summary) = rec
            .span("store.finish", || writer.finish())
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((stats, bytes, summary))
    });
    rep.wall_s = secs_since(t0);
    rep.peak_rss_mb = peak_rss_mb();
    let (stats, bytes, summary) = match result {
        Ok(v) => v,
        Err(e) => {
            rep.error("campaign", e);
            return rep;
        }
    };
    rep.attempted += 1;

    let rows = summary.ping_rows + summary.trace_rows + summary.cloud_rows;
    rep.records = rows;
    // Under the zero-fault profile a lost ping is counted but writes no
    // row; under a faulted profile every planned task writes one row.
    let expected = if cfg.faults.is_none() {
        stats.ok
    } else {
        stats.total()
    };
    rep.check("sunk_equals_tally", rows == expected && rows > 0, || {
        format!("store holds {rows} rows, failure stats account for {expected}")
    });
    rep.extra(
        "store_bytes_per_record",
        bytes.len() as f64 / rows.max(1) as f64,
    );
    let mut digest = Fnv::default();
    digest.bytes(&bytes);
    rep.digest = digest.finish();

    if rec.is_on() {
        tally.read_obs(&obs);
        tally.store_rows = rows;
        tally.store_bytes = bytes.len() as u64;
        rep.extra.extend(layer_metrics(rec, &tally));
    }
    match round_trip(bytes) {
        Ok((read, content)) => {
            rep.check("reader_round_trip", read == rows, || {
                format!("reader decoded {read} rows, writer wrote {rows}")
            });
            rep.content = Some(content);
        }
        Err(e) => rep.error("reader_round_trip", e),
    }
    rep
}

/// Open the store and decode every chunk in full. Returns the decoded row
/// count and an order-independent digest of the records: each record's
/// fields are hashed and the hashes summed, so the digest pins what the
/// campaign measured and not how the store lays it out.
fn round_trip(bytes: Vec<u8>) -> Result<(u64, u64), StoreError> {
    let reader = Reader::from_bytes(bytes)?;
    let (mut rows, mut sum) = (0u64, 0u64);
    let mut add = |h: Fnv| {
        rows += 1;
        sum = sum.wrapping_add(h.finish());
    };
    reader.for_each(&ScanFilter::default(), |chunk| match chunk {
        ChunkRows::Pings(pings) => pings.iter().for_each(|p| add(record_head!(p))),
        ChunkRows::Traces(traces) => traces.iter().for_each(|t| {
            let mut h = record_head!(t);
            h.bytes(&t.src_ip.octets());
            for hop in &t.hops {
                h.bytes(&[hop.ttl]);
                h.bytes(&hop.ip.map_or([0; 4], |ip| ip.octets()));
                h.f64(hop.rtt_ms.unwrap_or(f64::NAN));
            }
            add(h)
        }),
        // Speedchecker campaigns write no inter-cloud rows; count any anyway.
        ChunkRows::CloudPings(c) => c.iter().for_each(|_| add(Fnv::default())),
    })?;
    Ok((rows, sum))
}

/// Hash the fields ping and traceroute records share.
macro_rules! record_head {
    ($r:expr) => {{
        let r = $r;
        let mut h = Fnv::default();
        h.u64(r.probe.0);
        h.bytes(&[
            r.platform as u8,
            r.continent as u8,
            r.access as u8,
            r.provider as u8,
            r.proto as u8,
        ]);
        h.bytes(r.country.as_str().as_bytes());
        h.bytes(r.city.as_bytes());
        h.u64(u64::from(r.isp.0));
        h.u64(u64::from(r.region.0));
        h.u64(r.hour);
        match r.outcome {
            TaskOutcome::Ok(v) => {
                h.bytes(&[0]);
                h.f64(v)
            }
            TaskOutcome::Lost => h.bytes(&[1]),
            TaskOutcome::Timeout(v) => {
                h.bytes(&[2]);
                h.f64(v)
            }
            TaskOutcome::ProbeOffline => h.bytes(&[3]),
            TaskOutcome::RateLimited => h.bytes(&[4]),
        }
        h
    }};
}
use record_head;
