//! The four workloads and what they share: one repetition's report, the
//! campaign runner with its traced decomposition, the timing sink, and the
//! per-layer metrics of a traced repetition.
//!
//! Every workload builds its inputs from the seed alone and touches the
//! program only through public APIs. One repetition runs in its own
//! process (see `main.rs`), so its peak RSS belongs to it alone.

pub mod campaign;
pub mod query_mix;
pub mod repro;

use crate::trace::Recorder;
use cloudy_measure::plan;
use cloudy_measure::{
    execute_tasks_into, run_campaign_into, warm_route_cache, CampaignConfig, CloudPingRecord,
    FailureStats, MeasureError, PingRecord, RecordSink, TracerouteRecord,
};
use cloudy_netsim::Simulator;
use cloudy_obs::Obs;
use cloudy_probes::Population;
use std::time::{Duration, Instant};

/// Worker threads for every parallel stage: the load comes from one
/// process using at most this many threads.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Repro,
    CampaignPing,
    CampaignFresh,
    QueryMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::CampaignPing,
        Workload::CampaignFresh,
        Workload::QueryMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::CampaignPing => "campaign_ping",
            Workload::CampaignFresh => "campaign_fresh",
            Workload::QueryMix => "query_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one repetition in this process. `ready` is called once set-up
    /// is done, just before the timed part starts.
    pub fn run(self, seed: u64, smoke: bool, rec: &Recorder, ready: &mut dyn FnMut()) -> Rep {
        let mut rep = match self {
            Workload::Repro => repro::run(seed, smoke, rec, ready),
            Workload::CampaignPing => campaign::run(campaign::Kind::Ping, seed, smoke, rec, ready),
            Workload::CampaignFresh => {
                campaign::run(campaign::Kind::Fresh, seed, smoke, rec, ready)
            }
            Workload::QueryMix => query_mix::run(seed, smoke, rec, ready),
        };
        if let (Some(want), Some(got)) =
            (crate::check::golden(self.name(), seed, smoke), rep.content)
        {
            rep.check("golden_digest", got == want, || {
                format!("content digest {got:016x}, committed {want:016x}")
            });
        }
        rep
    }
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the timed part, in seconds.
    pub wall_s: f64,
    /// Records the timed part produced (for `query_mix`: rows its queries matched).
    pub records: u64,
    /// Peak resident set of the process at the end of the timed part.
    pub peak_rss_mb: f64,
    /// Digest of the workload's output bytes; equal on every repetition
    /// of a seed, traced or not.
    pub digest: u64,
    /// Digest of what the output means (figure text, the set of campaign
    /// records), compared with the digest committed for known seeds. Store
    /// layout does not enter it, so a store-format change keeps it.
    pub content: Option<u64>,
    /// Operations run (figures, campaigns or queries) plus output checks.
    pub attempted: u64,
    /// Operations that returned an error plus output checks that failed.
    pub failed: u64,
    /// Failed checks and operations, with what went wrong.
    pub failures: Vec<String>,
    /// Further named values: workload extras and, when traced, the layers.
    pub extra: Vec<(String, f64)>,
    /// Per-query latencies in milliseconds, by query class.
    pub latencies: Vec<(&'static str, f64)>,
}

impl Rep {
    /// Count one operation or output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Count one operation that returned an error.
    pub fn error(&mut self, name: &str, err: impl std::fmt::Display) {
        self.check(name, false, || err.to_string());
    }

    pub fn extra(&mut self, name: &str, value: f64) {
        self.extra.push((name.to_string(), value));
    }
}

/// Counts taken alongside the spans of a traced repetition.
#[derive(Debug, Default)]
pub struct Tally {
    pub tasks: u64,
    pub pairs: u64,
    pub execute_cpu_s: f64,
    pub ok: u64,
    pub retries: u64,
    pub route_hits: u64,
    pub route_misses: u64,
    pub store_rows: u64,
    pub store_bytes: u64,
    pub chunks_flushed: u64,
    pub scan_decoded: u64,
    pub scan_matched: u64,
    pub scan_chunks: u64,
    pub scan_pruned: u64,
}

impl Tally {
    /// Read the program's own counters from an enabled registry (campaign
    /// outcomes, retries, route-cache totals, store flushes).
    pub fn read_obs(&mut self, obs: &Obs) {
        let Some(snap) = obs.snapshot() else { return };
        self.ok = snap.counter("campaign.outcome.ok");
        self.retries = snap.counter("campaign.retries");
        self.chunks_flushed = snap.counter("store.chunks.flushed");
        let gauge = |name: &str| {
            snap.gauge(name)
                .map_or(0, |v| u64::try_from(v).unwrap_or(0))
        };
        self.route_hits = gauge("route_cache.hits");
        self.route_misses = gauge("route_cache.misses");
    }
}

/// The per-layer metrics (name, unit), in report order. Times are self
/// times summed over the traced repetition; a share is a layer's self time
/// over the traced wall and reads 0 on a workload that never calls it.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("netsim.build_s", "s"),
    ("probes.population_s", "s"),
    ("measure.plan_s", "s"),
    ("netsim.route_s", "s"),
    ("measure.execute_s", "s"),
    ("measure.sink_s", "s"),
    ("trace.wall_s", "s"),
    ("core.registry.share", "share"),
    ("core.figures.share", "share"),
    ("store.finish.share", "share"),
    ("store.open.share", "share"),
    ("store.query.share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("measure.plan.tasks", "count"),
    ("netsim.route.pairs", "count"),
    ("netsim.route.us_per_pair", "us"),
    ("netsim.route_cache.hit_rate", "ratio"),
    ("measure.execute.cpu_util", "ratio"),
    ("measure.tasks_per_s", "1/s"),
    ("measure.retries", "count"),
    ("measure.useful_ratio", "ratio"),
    ("store.write.rows_per_s", "rows/s"),
    ("store.chunks_flushed", "count"),
    ("store.bytes_per_row", "B/row"),
    ("store.scan.decoded_per_matched", "ratio"),
    ("store.scan.pruned_ratio", "ratio"),
];

/// Compute the per-layer metrics of one traced repetition (all but
/// `trace.overhead_ratio`, which needs the untraced repetitions too).
pub fn layer_metrics(rec: &Recorder, t: &Tally) -> Vec<(String, f64)> {
    let self_times = rec.self_times();
    let layer = |prefix: &str| -> f64 {
        self_times
            .iter()
            .filter(|(name, _)| {
                name.as_str() == prefix
                    || name
                        .strip_prefix(prefix)
                        .is_some_and(|rest| rest.starts_with('.'))
            })
            .fold(0.0, |sum, (_, s)| sum + s)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wall = rec.root_secs();
    let unattributed = self_times.get("bench.setup").unwrap_or(&0.0)
        + self_times.get("bench.timed").unwrap_or(&0.0);
    let (execute, sink) = (layer("measure.execute"), layer("measure.sink"));
    let store_write = sink + layer("store.finish");
    let metrics = [
        ("netsim.build_s", layer("netsim.build")),
        ("probes.population_s", layer("probes.population")),
        ("measure.plan_s", layer("measure.plan")),
        ("netsim.route_s", layer("netsim.route")),
        ("measure.execute_s", execute),
        ("measure.sink_s", sink),
        ("trace.wall_s", wall),
        ("core.registry.share", ratio(layer("core.registry"), wall)),
        ("core.figures.share", ratio(layer("core.figures"), wall)),
        ("store.finish.share", ratio(layer("store.finish"), wall)),
        ("store.open.share", ratio(layer("store.open"), wall)),
        ("store.query.share", ratio(layer("store.query"), wall)),
        ("trace.unattributed_share", ratio(unattributed, wall)),
        ("measure.plan.tasks", t.tasks as f64),
        ("netsim.route.pairs", t.pairs as f64),
        (
            "netsim.route.us_per_pair",
            ratio(layer("netsim.route") * 1e6, t.pairs as f64),
        ),
        (
            "netsim.route_cache.hit_rate",
            ratio(t.route_hits as f64, (t.route_hits + t.route_misses) as f64),
        ),
        (
            "measure.execute.cpu_util",
            ratio(t.execute_cpu_s, (execute + sink) * THREADS as f64),
        ),
        ("measure.tasks_per_s", ratio(t.tasks as f64, execute)),
        ("measure.retries", t.retries as f64),
        (
            "measure.useful_ratio",
            ratio(t.ok as f64, (t.tasks + t.retries) as f64),
        ),
        (
            "store.write.rows_per_s",
            ratio(t.store_rows as f64, store_write),
        ),
        ("store.chunks_flushed", t.chunks_flushed as f64),
        (
            "store.bytes_per_row",
            ratio(t.store_bytes as f64, t.store_rows as f64),
        ),
        (
            "store.scan.decoded_per_matched",
            ratio(t.scan_decoded as f64, t.scan_matched as f64),
        ),
        (
            "store.scan.pruned_ratio",
            ratio(t.scan_pruned as f64, t.scan_chunks as f64),
        ),
    ];
    metrics
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

/// Run one campaign into `sink`.
///
/// Untraced, this is `run_campaign_into`, the call users make. Traced, it
/// is the sequence `execute_into` runs — plan, route-cache warming, block
/// execution — with each step in its own span and the sink timed from
/// outside, so sink time is split off the executor's. The output checks
/// hold both forms to the same output bytes.
pub fn run_campaign<S: RecordSink>(
    rec: &Recorder,
    tally: &mut Tally,
    cfg: &CampaignConfig,
    sim: &Simulator,
    pop: &Population,
    sink: &mut S,
) -> Result<FailureStats, MeasureError> {
    if !rec.is_on() {
        return run_campaign_into(cfg, sim, pop, sink);
    }
    let schedule = rec.span("measure.plan", || plan::plan(&cfg.plan, pop));
    tally.tasks += schedule.tasks.len() as u64;
    if cfg.route_cache {
        tally.pairs += rec.span("netsim.route", || {
            warm_route_cache(sim, pop, &cfg.artifacts, &schedule.tasks)
        }) as u64;
    }
    let cpu_before = cpu_seconds();
    let mut timed = TimedSink::new(sink);
    let stats = rec.span("measure.execute", || {
        let stats = execute_tasks_into(cfg, sim, pop, &schedule.tasks, &mut timed);
        timed.flush_burst();
        for &(start, end) in &timed.bursts {
            rec.closed("measure.sink", start, end);
        }
        stats
    });
    tally.execute_cpu_s += cpu_seconds() - cpu_before;
    stats
}

/// Sink calls closer together than this belong to one drain of the
/// executor; each drain becomes one `measure.sink` span.
const BURST_GAP: Duration = Duration::from_micros(20);

/// A [`RecordSink`] wrapper that times every call into the inner sink and
/// merges back-to-back calls into bursts.
struct TimedSink<'a, S> {
    inner: &'a mut S,
    burst: Option<(Instant, Instant)>,
    bursts: Vec<(Instant, Instant)>,
}

impl<'a, S: RecordSink> TimedSink<'a, S> {
    fn new(inner: &'a mut S) -> Self {
        TimedSink {
            inner,
            burst: None,
            bursts: Vec::new(),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner);
        let end = Instant::now();
        self.burst = match self.burst {
            Some((first, last)) if start.duration_since(last) < BURST_GAP => Some((first, end)),
            prev => {
                self.bursts.extend(prev);
                Some((start, end))
            }
        };
        out
    }

    fn flush_burst(&mut self) {
        self.bursts.extend(self.burst.take());
    }
}

impl<S: RecordSink> RecordSink for TimedSink<'_, S> {
    fn sink_ping(&mut self, r: PingRecord) -> Result<(), MeasureError> {
        self.timed(|s| s.sink_ping(r))
    }

    fn sink_trace(&mut self, r: TracerouteRecord) -> Result<(), MeasureError> {
        self.timed(|s| s.sink_trace(r))
    }

    fn sink_cloud(&mut self, r: CloudPingRecord) -> Result<(), MeasureError> {
        self.timed(|s| s.sink_cloud(r))
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// Resolution is one clock tick (10 ms); 0 where procfs is missing.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`) in MiB; 0 where
/// procfs is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }

    #[test]
    fn layer_metrics_cover_the_per_layer_list() {
        let rec = Recorder::on(1);
        rec.span("bench.timed", || rec.span("measure.execute", || ()));
        let names: Vec<String> = layer_metrics(&rec, &Tally::default())
            .into_iter()
            .map(|m| m.0)
            .collect();
        let want: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|n| *n != "trace.overhead_ratio")
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn procfs_readers_report_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_seconds() >= 0.0);
        }
    }
}
