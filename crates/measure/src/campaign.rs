//! Deterministic parallel campaign execution.
//!
//! Tasks are planned up-front ([`crate::plan`]), then executed over the
//! simulator in fixed-size blocks sharded across scoped threads. Because
//! every latency sample is derived from (seed, flow) — never from shared
//! RNG state — the record stream is bit-identical for any thread count.
//!
//! [`run_campaign_into`] streams records into any [`RecordSink`] with
//! bounded memory: tasks run in fixed [`BLOCK_TASKS`]-sized blocks, at most
//! `threads` blocks in flight, and each completed round is drained into the
//! sink in block order before the next round starts. Block size is a
//! constant (not a function of thread count), so the sink sees the same
//! record sequence no matter how many threads ran the round.
//! [`run_campaign`] collects that stream into an in-memory [`Dataset`].
//!
//! Every task runs through one attempt loop. Without a fault profile it
//! gets a single attempt and a lost ping leaves no record, as on the real
//! platform; under a profile every task records its final typed outcome.

use crate::dataset::Dataset;
use crate::error::MeasureError;
use crate::plan::{self, PlanConfig, TaskKind};
use crate::record::{outcome_for_hops, HopRecord, PingRecord, TaskOutcome, TracerouteRecord};
use crate::sink::RecordSink;
use cloudy_cloud::RegionId;
use cloudy_lastmile::ArtifactConfig;
use cloudy_netsim::{ClientCtx, FaultDraw, FaultModel, FaultProfile, RoutePath, Simulator};
use cloudy_obs::{LocalShard, Obs};
use cloudy_probes::{Availability, Population};
use std::collections::HashMap;
use std::sync::Arc;

/// Tasks per execution block in the streaming path. Fixed so the record
/// stream (and thus any sink output) is invariant under the thread count;
/// peak buffered records are bounded by `threads × BLOCK_TASKS` results.
pub const BLOCK_TASKS: usize = 2048;

/// Campaign parameters. `Default` is a valid baseline; adjust fields
/// directly and check the result with [`CampaignConfig::validate`].
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub plan: PlanConfig,
    pub artifacts: ArtifactConfig,
    pub threads: usize,
    /// Serve routes from the shared [`cloudy_netsim::RouteCache`] and batch
    /// each block by (probe, region). Off, every task rebuilds its client
    /// and route; both produce byte-identical output (enforced by the audit
    /// race check).
    pub route_cache: bool,
    /// Fault-injection profile. Under [`FaultProfile::none`] (the default)
    /// each task gets one attempt and an intrinsically lost ping produces
    /// no record. Any faulted profile records *every* planned task with a
    /// typed [`TaskOutcome`] and retries wire-level failures under the
    /// profile's bounded backoff policy.
    pub faults: FaultProfile,
    /// Observability registry. The default ([`Obs::disabled`]) records
    /// nothing; an enabled registry collects task/outcome/fault counters,
    /// per-block span histograms, and route-cache totals. Workers record
    /// into per-block [`LocalShard`]s merged in drain (block) order, so
    /// metrics never perturb the record stream — byte-identity with
    /// metrics on is part of the audit race matrix.
    pub obs: Obs,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            plan: PlanConfig::default(),
            artifacts: ArtifactConfig::realistic(),
            threads: 4,
            route_cache: true,
            faults: FaultProfile::none(),
            obs: Obs::disabled(),
        }
    }
}

impl CampaignConfig {
    /// Reject a configuration that would plan nothing or panic the
    /// planner, naming the offending field.
    pub fn validate(&self) -> Result<(), MeasureError> {
        let plan = &self.plan;
        if self.threads < 1 {
            return Err(MeasureError::config("threads", "must be >= 1"));
        }
        if plan.quota_per_day == 0 {
            return Err(MeasureError::config("quota_per_day", "must be non-zero"));
        }
        if plan.census_reserve > plan.quota_per_day {
            return Err(MeasureError::config("census_reserve", "must not exceed quota_per_day"));
        }
        if plan.kinds.is_empty() {
            return Err(MeasureError::config(
                "kinds",
                "task-kind set is empty; enable pings and/or traceroutes",
            ));
        }
        if plan.duration_days == 0 {
            return Err(MeasureError::config("duration_days", "must be >= 1"));
        }
        if plan.cycle_days == 0 {
            return Err(MeasureError::config("cycle_days", "must be >= 1"));
        }
        if plan.samples_per_measurement == 0 {
            return Err(MeasureError::config("samples_per_measurement", "must be >= 1"));
        }
        if plan.regions_per_probe == 0 {
            return Err(MeasureError::config("regions_per_probe", "must be >= 1"));
        }
        let in_unit = |probs: &[f64]| probs.iter().all(|p| (0.0..=1.0).contains(p));
        let a = &self.artifacts;
        if !in_unit(&[a.cgn_prob, a.vpn_prob]) {
            return Err(MeasureError::config("artifacts", "probabilities must be in [0, 1]"));
        }
        let f = &self.faults;
        let probs =
            [f.extra_loss, f.timeout_probability, f.rate_limit_probability, f.offline_probability];
        if !in_unit(&probs) {
            return Err(MeasureError::config("faults", "probabilities must be in [0, 1]"));
        }
        if f.timeout_probability > 0.0 && f.timeout_budget_ms <= 0.0 {
            return Err(MeasureError::config(
                "faults",
                "timeout_budget_ms must be > 0 when timeouts are enabled",
            ));
        }
        if f.offline_probability > 0.0
            && (f.offline_min_hours == 0
                || f.offline_max_hours < f.offline_min_hours
                || f.offline_max_hours > 24)
        {
            return Err(MeasureError::config(
                "faults",
                "offline window must satisfy 1 <= min <= max <= 24 hours",
            ));
        }
        Ok(())
    }
}

/// Per-campaign failure accounting: final outcomes by class plus retry
/// effort. Per-block stats are merged in drain (block) order, so the totals
/// are invariant under the thread count, and with a faulted profile they
/// reconcile exactly with the stored outcome tags (every planned task
/// produces one record).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FailureStats {
    /// Tasks whose final outcome delivered an RTT.
    pub ok: u64,
    /// Final outcome lost (intrinsic path loss or injected platform loss).
    pub lost: u64,
    /// Final outcome timed out at the profile's budget.
    pub timeout: u64,
    /// Final outcome rejected by the rate limiter.
    pub rate_limited: u64,
    /// Tasks scheduled inside a probe-offline window (never retried).
    pub probe_offline: u64,
    /// Retry attempts spent (beyond each task's first attempt).
    pub retries: u64,
    /// Tasks that failed at least once but delivered after a retry.
    pub recovered: u64,
    /// Total virtual backoff accumulated by the retry policy (ms).
    pub backoff_ms: f64,
}

impl FailureStats {
    /// Count one task's *final* outcome.
    fn record(&mut self, outcome: &TaskOutcome) {
        match outcome {
            TaskOutcome::Ok(_) => self.ok += 1,
            TaskOutcome::Lost => self.lost += 1,
            TaskOutcome::Timeout(_) => self.timeout += 1,
            TaskOutcome::ProbeOffline => self.probe_offline += 1,
            TaskOutcome::RateLimited => self.rate_limited += 1,
        }
    }

    /// Fold another block's stats into this one.
    pub fn merge(&mut self, other: &FailureStats) {
        self.ok += other.ok;
        self.lost += other.lost;
        self.timeout += other.timeout;
        self.rate_limited += other.rate_limited;
        self.probe_offline += other.probe_offline;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.backoff_ms += other.backoff_ms;
    }

    /// Tasks whose final outcome failed.
    pub fn failures(&self) -> u64 {
        self.lost + self.timeout + self.rate_limited + self.probe_offline
    }

    /// Tasks accounted (failures + deliveries).
    pub fn total(&self) -> u64 {
        self.ok + self.failures()
    }
}

/// Per-block fault context: the seeded draw model plus the availability
/// model driving probe-offline windows. Both are pure functions of stable
/// task identity, so sharing them across threads is free of ordering
/// effects.
#[derive(Clone, Copy)]
struct FaultCtx {
    model: FaultModel,
    avail: Availability,
}

impl FaultCtx {
    /// Whether the task's hour falls in its probe's offline window for the
    /// day. Windows are per (probe, day) and not retryable: the probe is
    /// gone for hours, not one scheduler tick.
    fn offline(&self, client: &ClientCtx, t: &plan::Task) -> bool {
        self.avail
            .offline_window(client.probe_hash, t.hour / 24, self.model.profile())
            .is_some_and(|(start, end)| t.hour >= start && t.hour < end)
    }

    /// The injected fault for one attempt, counted by class.
    fn draw(
        &self,
        client: &ClientCtx,
        t: &plan::Task,
        attempt: u32,
        shard: &mut LocalShard,
    ) -> FaultDraw {
        let kind_tag = match t.kind {
            TaskKind::Ping(_) => 0xD1A1u64,
            TaskKind::Traceroute(_) => 0x7124CEu64,
        };
        let drawn =
            self.model.draw(client.probe_hash, t.region.0 as u64, kind_tag, t.hour, t.seq, attempt);
        shard.inc(match drawn {
            FaultDraw::Deliver => "faults.draw.deliver",
            FaultDraw::Lost => "faults.draw.lost",
            FaultDraw::Timeout => "faults.draw.timeout",
            FaultDraw::RateLimited => "faults.draw.rate_limited",
        });
        drawn
    }
}

/// Plan and execute a campaign into an in-memory [`Dataset`].
pub fn run_campaign(cfg: &CampaignConfig, sim: &Simulator, pop: &Population) -> Dataset {
    let mut ds = Dataset::new(pop.platform);
    run_campaign_into(cfg, sim, pop, &mut ds).expect("Dataset sink is infallible"); // audit:allow(expect)
    ds
}

/// Plan and execute a campaign, streaming records into `sink` with bounded
/// memory, and return its failure accounting. Without a fault profile an
/// intrinsically lost ping is *counted* as `lost` but produces no record;
/// with one, every planned task produces a record and the stats reconcile
/// exactly with the stored outcome tags.
///
/// With `route_cache` on, the shared route cache is warmed from the whole
/// plan first (see [`warm_route_cache`]), so worker blocks start from a
/// fully populated cache instead of discovering pairs round by round.
///
/// With `cfg.obs` enabled, the planner and the warm pass are timed as the
/// `campaign.plan` and `campaign.route` spans on lane 0, and the routes
/// the warm pass builds count towards `netsim.routes.built`.
pub fn run_campaign_into(
    cfg: &CampaignConfig,
    sim: &Simulator,
    pop: &Population,
    sink: &mut impl RecordSink,
) -> Result<FailureStats, MeasureError> {
    let obs = &cfg.obs;
    let span = obs.now();
    let schedule = plan::plan(&cfg.plan, pop);
    obs.record_span("campaign.plan", span, 0);
    if cfg.route_cache {
        let span = obs.now();
        let misses = routes_built(sim, obs);
        warm_route_cache(sim, pop, &cfg.artifacts, &schedule.tasks);
        obs.add("netsim.routes.built", routes_built(sim, obs) - misses);
        obs.record_span("campaign.route", span, 0);
    }
    execute_tasks_into(cfg, sim, pop, &schedule.tasks, sink)
}

/// The shared route cache's lifetime miss count — one per route it
/// assembled — read only when `obs` is enabled (0 otherwise).
fn routes_built(sim: &Simulator, obs: &Obs) -> u64 {
    if obs.is_enabled() {
        sim.route_cache().stats().misses
    } else {
        0
    }
}

/// Run one task's attempts and return its final outcome (and, for
/// traceroutes, the delivered hops). Without a fault context the task gets
/// one `Deliver` attempt. With one, each attempt is one fault draw; a
/// `Deliver` draw falls through to the simulator, whose sample may still
/// be intrinsically lost or exceed the timeout budget. Wire-level failures
/// retry up to `max_retries` times with deterministic (virtual) backoff;
/// every retry re-keys both the fault draw and the latency flow by the
/// attempt number, so the whole loop is a pure function of task identity.
fn run_attempts(
    sim: &Simulator,
    faults: Option<&FaultCtx>,
    client: &ClientCtx,
    path: &RoutePath,
    t: &plan::Task,
    stats: &mut FailureStats,
    shard: &mut LocalShard,
) -> (TaskOutcome, Vec<HopRecord>) {
    let profile = faults.map_or(FaultProfile::none(), |fc| *fc.model.profile());
    let budget = profile.timeout_budget_ms;
    if faults.is_some_and(|fc| fc.offline(client, t)) {
        stats.record(&TaskOutcome::ProbeOffline);
        return (TaskOutcome::ProbeOffline, Vec::new());
    }
    let mut attempt = 0u32;
    let (outcome, hops) = loop {
        let drawn = faults.map_or(FaultDraw::Deliver, |fc| fc.draw(client, t, attempt, shard));
        let result = match drawn {
            FaultDraw::RateLimited => (TaskOutcome::RateLimited, Vec::new()),
            FaultDraw::Lost => (TaskOutcome::Lost, Vec::new()),
            FaultDraw::Timeout => (TaskOutcome::Timeout(budget), Vec::new()),
            FaultDraw::Deliver => match t.kind {
                TaskKind::Ping(proto) => {
                    match sim.ping_at(client, path, proto, t.seq, t.hour, attempt) {
                        None => (TaskOutcome::Lost, Vec::new()),
                        Some(rtt) if budget > 0.0 && rtt >= budget => {
                            (TaskOutcome::Timeout(budget), Vec::new())
                        }
                        Some(rtt) => (TaskOutcome::Ok(rtt), Vec::new()),
                    }
                }
                TaskKind::Traceroute(proto) => {
                    let hops: Vec<HopRecord> = sim
                        .traceroute_at(client, path, proto, t.seq, t.hour, attempt)
                        .into_iter()
                        .map(HopRecord::from)
                        .collect();
                    let e2e = hops.last().and_then(|h| h.rtt_ms).unwrap_or(0.0);
                    if budget > 0.0 && e2e >= budget {
                        // Aborted at the budget: the partial hop list is
                        // discarded, as a real scheduler would.
                        (TaskOutcome::Timeout(budget), Vec::new())
                    } else {
                        (outcome_for_hops(&hops), hops)
                    }
                }
            },
        };
        if !result.0.is_retryable() || attempt >= profile.max_retries {
            break result;
        }
        attempt += 1;
        stats.retries += 1;
        stats.backoff_ms += faults.map_or(0.0, |fc| fc.model.backoff_ms(attempt));
    };
    if outcome.is_ok() && attempt > 0 {
        stats.recovered += 1;
    }
    stats.record(&outcome);
    (outcome, hops)
}

/// Run all tasks of one block sequentially; this is the unit of work a
/// thread executes per round.
///
/// With `route_cache` on, a plan-level pass first groups the block's tasks
/// by (probe, region): each client context is built once per probe and each
/// route once per pair — fetched through the simulator's shared
/// [`cloudy_netsim::RouteCache`] as `Arc<RoutePath>` — then the tasks run
/// in their original order, so the record stream is unchanged. Off, every
/// task rebuilds its client and route from scratch (the reference leg of
/// the audit race check).
#[allow(clippy::too_many_arguments)] // internal work unit; the coordinator is the only caller
fn run_block(
    sim: &Simulator,
    pop: &Population,
    artifacts: &ArtifactConfig,
    tasks: &[plan::Task],
    route_cache: bool,
    faults: Option<&FaultCtx>,
    lane: u32,
    mut shard: LocalShard,
) -> (Vec<PingRecord>, Vec<TracerouteRecord>, FailureStats, LocalShard) {
    let span_start = shard.now();
    let mut pings = Vec::new();
    let mut traces = Vec::new();
    let mut stats = FailureStats::default();
    let mut clients: HashMap<u32, ClientCtx> = HashMap::new();
    let mut routes: HashMap<(u32, RegionId), Arc<RoutePath>> = HashMap::new();
    if route_cache {
        for (probe_ix, region) in plan::block_pairs(tasks) {
            let client = clients.entry(probe_ix).or_insert_with(|| {
                pop.probes[probe_ix as usize].client_ctx(&sim.net, artifacts)
            });
            routes.insert((probe_ix, region), sim.route(client, region));
        }
    }
    let mut fresh: Option<(ClientCtx, RoutePath)> = None;
    for t in tasks {
        let probe = &pop.probes[t.probe_ix as usize];
        let (client, path): (&ClientCtx, &RoutePath) = if route_cache {
            (&clients[&t.probe_ix], &routes[&(t.probe_ix, t.region)])
        } else {
            let client = probe.client_ctx(&sim.net, artifacts);
            let path = sim.route_uncached(&client, t.region);
            let (c, p) = fresh.insert((client, path));
            (c, p)
        };
        let (outcome, hops) = run_attempts(sim, faults, client, path, t, &mut stats, &mut shard);
        let provider = sim.net.region(t.region).region.provider;
        match t.kind {
            // Without a fault profile a lost ping leaves no record, as on
            // the real platform; it is still counted in `stats.lost`.
            TaskKind::Ping(_) if faults.is_none() && outcome == TaskOutcome::Lost => {}
            TaskKind::Ping(proto) => pings.push(PingRecord {
                probe: probe.id,
                platform: probe.platform,
                country: probe.country,
                continent: probe.continent,
                city: probe.city.clone(),
                isp: probe.isp,
                access: probe.access,
                region: t.region,
                provider,
                proto,
                outcome,
                hour: t.hour,
            }),
            TaskKind::Traceroute(proto) => traces.push(TracerouteRecord {
                probe: probe.id,
                platform: probe.platform,
                country: probe.country,
                continent: probe.continent,
                city: probe.city.clone(),
                isp: probe.isp,
                access: probe.access,
                region: t.region,
                provider,
                proto,
                src_ip: client.public_ip,
                hops,
                outcome,
                hour: t.hour,
            }),
        }
    }
    if shard.is_enabled() {
        shard.add("campaign.tasks.executed", tasks.len() as u64);
        shard.add("campaign.outcome.ok", stats.ok);
        shard.add("campaign.outcome.lost", stats.lost);
        shard.add("campaign.outcome.timeout", stats.timeout);
        shard.add("campaign.outcome.rate_limited", stats.rate_limited);
        shard.add("campaign.outcome.probe_offline", stats.probe_offline);
        shard.add("campaign.retries", stats.retries);
        shard.add("campaign.recovered", stats.recovered);
        // Worker lanes are numbered 1..=threads within a round; lane 0 is
        // the coordinating thread in trace output.
        shard.record_span("campaign.block", span_start, lane + 1);
    }
    (pings, traces, stats, shard)
}

/// Prime the simulator's shared route cache with every (probe, region)
/// pair `tasks` will visit. The plan knows all pairs up front, so the
/// executor never has to *discover* routes through a cold cache: after
/// warming, every block-level route lookup is a pure hit. Returns the
/// number of pairs warmed.
///
/// Warming computes exactly the routes the blocks would have computed on
/// first touch, through the same [`Simulator::route`] entry point, so the
/// record stream is byte-identical with or without a warm pass.
pub fn warm_route_cache(
    sim: &Simulator,
    pop: &Population,
    artifacts: &ArtifactConfig,
    tasks: &[plan::Task],
) -> usize {
    let mut clients: HashMap<u32, ClientCtx> = HashMap::new();
    let pairs = plan::block_pairs(tasks);
    for (probe_ix, region) in &pairs {
        let client = clients.entry(*probe_ix).or_insert_with(|| {
            pop.probes[*probe_ix as usize].client_ctx(&sim.net, artifacts)
        });
        let _ = sim.route(client, *region);
    }
    pairs.len()
}

/// Execute a task slice through the block executor — the batching,
/// route-cache, fault, and retry machinery of [`run_campaign_into`],
/// minus planning and cache warming (warm once per plan, not per slice).
///
/// Tasks are cut into fixed [`BLOCK_TASKS`]-sized blocks. Each round runs
/// up to `threads` blocks on scoped threads, then drains the round's
/// results into the sink in block order — so at most `threads ×
/// BLOCK_TASKS` task results are ever buffered, and the sink sees records
/// in plan order regardless of the thread count.
///
/// This is the entry point service schedulers build on: a long campaign
/// can be cut into bounded slices that interleave with other tenants'
/// work, and because blocks are a fixed size and drained in order, the
/// concatenated record stream over any slicing of the same task sequence
/// is identical to executing it in one call.
///
/// With `cfg.obs` enabled, each round's drain is one `campaign.drain`
/// span on lane 0, and `netsim.routes.built` counts the routes the blocks
/// assembled: route-cache misses with the cache on, one per task with it
/// off.
pub fn execute_tasks_into(
    cfg: &CampaignConfig,
    sim: &Simulator,
    pop: &Population,
    tasks: &[plan::Task],
    sink: &mut impl RecordSink,
) -> Result<FailureStats, MeasureError> {
    let fault_ctx = (!cfg.faults.is_none()).then(|| FaultCtx {
        model: FaultModel::new(sim.net.seed, cfg.faults),
        avail: Availability::new(cfg.plan.seed),
    });
    let mut totals = FailureStats::default();
    cfg.obs.add("campaign.tasks.planned", tasks.len() as u64);

    let artifacts = cfg.artifacts;
    let route_cache = cfg.route_cache;
    let obs = &cfg.obs;
    let misses = routes_built(sim, obs);
    // A round is `threads` blocks, as in `run_blocked`; the last may be
    // short. Its drain span opens at its first block and closes at its last.
    let threads = cfg.threads.max(1);
    let blocks = tasks.len().div_ceil(BLOCK_TASKS);
    let mut drained = 0;
    let mut round_span = None;
    run_blocked(
        cfg.threads,
        BLOCK_TASKS,
        tasks,
        |lane, block| {
            run_block(sim, pop, &artifacts, block, route_cache, fault_ctx.as_ref(), lane, obs.local())
        },
        |(pings, traces, stats, shard)| {
            if drained % threads == 0 {
                round_span = obs.now();
            }
            for p in pings {
                sink.sink_ping(p)?;
            }
            for t in traces {
                sink.sink_trace(t)?;
            }
            totals.merge(&stats);
            obs.merge(shard);
            drained += 1;
            if drained % threads == 0 || drained == blocks {
                obs.record_span("campaign.drain", round_span, 0);
            }
            Ok(())
        },
    )?;
    if obs.is_enabled() {
        let built = if route_cache {
            let stats = sim.route_cache().stats();
            stats.export_into(obs);
            stats.misses - misses
        } else {
            tasks.len() as u64
        };
        obs.add("netsim.routes.built", built);
    }
    Ok(totals)
}

/// The deterministic block-executor round loop, factored out of
/// [`execute_tasks_into`] so other planes (the inter-cloud campaign, the
/// service scheduler) can reuse it with their own task and result types.
///
/// `tasks` is cut into `block_tasks`-sized blocks; each round runs up to
/// `threads` blocks on scoped threads, calling `run(lane, block)` on a
/// worker, then drains the round's results into `drain` **in block
/// order**. The drain sequence is therefore a pure function of the task
/// sequence — invariant under `threads` — and at most `threads` results
/// are ever buffered. A panic in `run` reaches the caller with its own
/// payload once the round's other workers have finished.
///
/// `run` must itself be deterministic in `(block)` alone; the `lane`
/// argument is a within-round worker index for trace/span labeling only
/// and must not influence the result value.
pub fn run_blocked<T, R, E>(
    threads: usize,
    block_tasks: usize,
    tasks: &[T],
    run: impl Fn(u32, &[T]) -> R + Sync,
    mut drain: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
{
    let threads = threads.max(1);
    let blocks: Vec<&[T]> = tasks.chunks(block_tasks.max(1)).collect();
    let run = &run;
    for round in blocks.chunks(threads) {
        let results: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = round
                .iter()
                .enumerate()
                .map(|(lane, block)| s.spawn(move || run(lane as u32, block)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
        });
        for r in results {
            drain(r)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_netsim::build::{build, WorldConfig};

    fn setup() -> (Simulator, Population) {
        let w = build(&WorldConfig::default());
        let pop = cloudy_probes::speedchecker::population(&w, 0.005, 3);
        (Simulator::new(w.net), pop)
    }

    fn small_cfg(threads: usize) -> CampaignConfig {
        CampaignConfig {
            plan: PlanConfig { duration_days: 3, ..Default::default() },
            artifacts: ArtifactConfig::realistic(),
            threads,
            route_cache: true,
            faults: FaultProfile::none(),
            obs: Obs::disabled(),
        }
    }

    fn faulted_cfg(threads: usize) -> CampaignConfig {
        CampaignConfig { faults: FaultProfile::default_profile(), ..small_cfg(threads) }
    }

    #[test]
    fn campaign_produces_records() {
        let (sim, pop) = setup();
        let ds = run_campaign(&small_cfg(2), &sim, &pop);
        assert!(!ds.pings.is_empty());
        // A small share of pings is lost (loss model); traceroutes always
        // produce a record.
        assert!(ds.pings.len() <= ds.traces.len());
        let loss = 1.0 - ds.pings.len() as f64 / ds.traces.len() as f64;
        assert!(loss < 0.08, "ping loss {loss}");
        for t in ds.traces.iter().take(50) {
            assert!(t.end_to_end_ms().is_some(), "traceroute must reach the VM");
            assert!(t.hops.len() >= 4, "too few hops: {}", t.hops.len());
        }
        for p in ds.pings.iter().take(50) {
            let rtt = p.rtt_ms().expect("zero-fault pings always deliver");
            assert!(rtt > 0.0 && rtt < 2_000.0, "rtt {rtt}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (sim, pop) = setup();
        let a = run_campaign(&small_cfg(1), &sim, &pop);
        let b = run_campaign(&small_cfg(7), &sim, &pop);
        assert_eq!(a.pings.len(), b.pings.len());
        assert_eq!(a.pings, b.pings);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn streaming_sink_sees_same_records_for_any_thread_count() {
        let (sim, pop) = setup();
        let collected = run_campaign(&small_cfg(3), &sim, &pop);
        for threads in [1, 5] {
            let mut streamed = Dataset::new(pop.platform);
            run_campaign_into(&small_cfg(threads), &sim, &pop, &mut streamed).unwrap();
            assert_eq!(streamed, collected);
        }
        let mut counts = crate::sink::CountingSink::default();
        run_campaign_into(&small_cfg(2), &sim, &pop, &mut counts).unwrap();
        assert_eq!(counts.pings as usize, collected.pings.len());
        assert_eq!(counts.traces as usize, collected.traces.len());
    }

    #[test]
    fn sink_errors_abort_the_campaign() {
        struct FailingSink;
        impl RecordSink for FailingSink {
            fn sink_ping(&mut self, _r: PingRecord) -> Result<(), MeasureError> {
                Err(MeasureError::sink("sink full"))
            }
            fn sink_trace(&mut self, _r: TracerouteRecord) -> Result<(), MeasureError> {
                Err(MeasureError::sink("sink full"))
            }
            fn sink_cloud(
                &mut self,
                _r: crate::record::CloudPingRecord,
            ) -> Result<(), MeasureError> {
                Err(MeasureError::sink("sink full"))
            }
        }
        let (sim, pop) = setup();
        let err = run_campaign_into(&small_cfg(2), &sim, &pop, &mut FailingSink).unwrap_err();
        assert!(matches!(err, MeasureError::Sink(_)), "{err:?}");
        assert!(err.to_string().contains("sink full"));
    }

    #[test]
    fn route_cache_does_not_change_results() {
        let (sim, pop) = setup();
        let cached = run_campaign(&small_cfg(3), &sim, &pop);
        let uncached =
            run_campaign(&CampaignConfig { route_cache: false, ..small_cfg(3) }, &sim, &pop);
        assert_eq!(cached, uncached);
        // Within-block reuse never touches the shared cache (the batch pass
        // routes each pair once per block); hits come from pairs recurring
        // across blocks, so just require the cache to have been exercised.
        let stats = sim.route_cache().stats();
        assert!(stats.hits > 0, "expected cross-block cache hits, got {stats:?}");
        // Concurrent misses on one key both count as misses but produce a
        // single entry, so entries can only undershoot misses.
        assert!(stats.entries as u64 <= stats.misses, "more entries than misses: {stats:?}");
    }

    #[test]
    fn faulted_campaign_records_every_task_and_reconciles() {
        let (sim, pop) = setup();
        let cfg = faulted_cfg(3);
        let mut ds = Dataset::new(pop.platform);
        let stats = run_campaign_into(&cfg, &sim, &pop, &mut ds).unwrap();
        // Every planned task produced exactly one record.
        assert_eq!(stats.total() as usize, ds.pings.len() + ds.traces.len());
        // Counters reconcile exactly with the recorded outcome tags.
        let mut tally = FailureStats::default();
        for p in &ds.pings {
            tally.record(&p.outcome);
        }
        for t in &ds.traces {
            tally.record(&t.outcome);
        }
        assert_eq!(
            (tally.ok, tally.lost, tally.timeout, tally.rate_limited, tally.probe_offline),
            (stats.ok, stats.lost, stats.timeout, stats.rate_limited, stats.probe_offline)
        );
        // The default profile exercises the wire-level failure channels
        // (offline windows are too rare to guarantee in this tiny world;
        // see `offline_windows_take_probes_out`).
        assert!(stats.ok > 0, "{stats:?}");
        assert!(stats.lost > 0, "{stats:?}");
        assert!(stats.timeout > 0, "{stats:?}");
        assert!(stats.rate_limited > 0, "{stats:?}");
        assert!(stats.retries > 0 && stats.recovered > 0, "{stats:?}");
        assert!(stats.backoff_ms > 0.0, "{stats:?}");
        // Failed records carry no RTT and (for traces) no hops.
        for p in &ds.pings {
            assert_eq!(p.outcome.is_ok(), p.rtt_ms().is_some());
        }
        for t in &ds.traces {
            if !t.outcome.is_ok() {
                assert!(t.hops.is_empty(), "failed trace kept hops: {:?}", t.outcome);
                assert_eq!(t.end_to_end_ms(), None);
            }
        }
    }

    #[test]
    fn faulted_campaign_is_thread_and_cache_invariant() {
        let (sim, pop) = setup();
        let mut reference = Dataset::new(pop.platform);
        let ref_stats = run_campaign_into(&faulted_cfg(1), &sim, &pop, &mut reference).unwrap();
        for (threads, cache) in [(7, true), (1, false), (7, false)] {
            let cfg =
                CampaignConfig { route_cache: cache, ..faulted_cfg(threads) };
            let mut ds = Dataset::new(pop.platform);
            let stats = run_campaign_into(&cfg, &sim, &pop, &mut ds).unwrap();
            assert_eq!(ds, reference, "threads={threads} cache={cache}");
            assert_eq!(stats, ref_stats, "threads={threads} cache={cache}");
        }
    }

    #[test]
    fn metrics_never_perturb_records_and_reconcile_with_stats() {
        let (sim, pop) = setup();
        let obs = Obs::with_trace();
        let observed =
            run_campaign(&CampaignConfig { obs: obs.clone(), ..faulted_cfg(3) }, &sim, &pop);
        let plain = run_campaign(&faulted_cfg(3), &sim, &pop);
        assert_eq!(plain, observed, "an enabled registry must not change the record stream");
        let snap = obs.snapshot().unwrap_or_default();
        for span in ["campaign.plan", "campaign.route", "campaign.drain", "campaign.block"] {
            let count = snap.hist(&format!("span.{span}")).map(|h| h.count).unwrap_or(0);
            assert!(count > 0, "no {span} spans recorded: {snap:?}");
        }
        // On a fresh simulator the warm pass builds each (probe, region)
        // route once, and the blocks, all hits, build none.
        let tasks = plan::plan(&faulted_cfg(3).plan, &pop).tasks;
        assert_eq!(snap.counter("netsim.routes.built"), plan::block_pairs(&tasks).len() as u64);
        assert_eq!(
            snap.counter("campaign.tasks.planned"),
            snap.counter("campaign.tasks.executed"),
            "{snap:?}"
        );
        assert!(snap.counter("campaign.outcome.ok") > 0);
        assert!(snap.counter("faults.draw.deliver") > 0);
        assert!(snap.counter("faults.draw.lost") > 0);
        assert_eq!(
            snap.counter("campaign.tasks.executed"),
            snap.counter("campaign.outcome.ok")
                + snap.counter("campaign.outcome.lost")
                + snap.counter("campaign.outcome.timeout")
                + snap.counter("campaign.outcome.rate_limited")
                + snap.counter("campaign.outcome.probe_offline")
        );
        assert!(snap.gauge("route_cache.hits").is_some(), "cache totals folded in");
        let trace = obs.trace_json().unwrap_or_default();
        assert!(trace.contains("campaign.block"), "{trace}");

        // Without a fault profile nothing is drawn, and the outcome
        // counters are the returned stats: lost pings are counted, not
        // recorded.
        let obs = Obs::enabled();
        let mut clean = Dataset::new(pop.platform);
        let cfg = CampaignConfig { obs: obs.clone(), ..small_cfg(3) };
        let stats = run_campaign_into(&cfg, &sim, &pop, &mut clean).unwrap();
        assert_eq!(clean, run_campaign(&small_cfg(3), &sim, &pop));
        let snap = obs.snapshot().unwrap_or_default();
        assert!(snap.counters.keys().all(|k| !k.starts_with("faults.draw.")), "{snap:?}");
        assert_eq!(snap.counter("campaign.outcome.ok"), stats.ok);
        assert_eq!(snap.counter("campaign.outcome.lost"), stats.lost);
        assert!(stats.lost > 0, "{stats:?}");
        assert_eq!(stats.ok as usize, clean.pings.len() + clean.traces.len());
        assert_eq!(stats.total(), snap.counter("campaign.tasks.executed"));
        assert_eq!(snap.counter("netsim.routes.built"), 0, "a warm cache builds no route");

        // With the cache off every task builds its own route.
        let obs = Obs::enabled();
        let uncached = CampaignConfig { obs: obs.clone(), route_cache: false, ..small_cfg(3) };
        run_campaign(&uncached, &sim, &pop);
        let snap = obs.snapshot().unwrap_or_default();
        assert_eq!(snap.counter("netsim.routes.built"), tasks.len() as u64);
        assert_eq!(snap.hist("span.campaign.route").map(|h| h.count), None, "no warm pass");
    }

    #[test]
    fn merged_counters_are_thread_count_invariant() {
        let mut by_threads = Vec::new();
        for threads in [1usize, 7] {
            // A fresh simulator per leg: `netsim.routes.built` counts the
            // routes a campaign adds to the cache, so a warm one reads 0.
            let (sim, pop) = setup();
            let obs = Obs::enabled();
            run_campaign(&CampaignConfig { obs: obs.clone(), ..faulted_cfg(threads) }, &sim, &pop);
            by_threads.push(obs.snapshot().unwrap_or_default().counters);
        }
        assert_eq!(by_threads[0], by_threads[1]);
    }

    #[test]
    fn offline_windows_take_probes_out() {
        let (sim, pop) = setup();
        // Near-certain daily windows so the small test world reliably
        // schedules tasks inside them.
        let churny = FaultProfile {
            offline_probability: 0.9,
            offline_min_hours: 8,
            offline_max_hours: 24,
            ..FaultProfile::default_profile()
        };
        let cfg = CampaignConfig { faults: churny, ..small_cfg(2) };
        let mut ds = Dataset::new(pop.platform);
        let stats = run_campaign_into(&cfg, &sim, &pop, &mut ds).unwrap();
        assert!(stats.probe_offline > 0, "{stats:?}");
        // Offline tasks are recorded, carry no data, and are never retried.
        let offline_pings =
            ds.pings.iter().filter(|p| p.outcome == TaskOutcome::ProbeOffline).count();
        let offline_traces =
            ds.traces.iter().filter(|t| t.outcome == TaskOutcome::ProbeOffline).count();
        assert_eq!(offline_pings + offline_traces, stats.probe_offline as usize);
        for t in &ds.traces {
            if t.outcome == TaskOutcome::ProbeOffline {
                assert!(t.hops.is_empty());
            }
        }
    }

    #[test]
    fn retry_budget_and_backoff_are_deterministic() {
        let (sim, pop) = setup();
        // Every attempt is lost: each task must burn exactly its retry
        // budget and accumulate the exact exponential backoff schedule.
        let always_lost = FaultProfile {
            extra_loss: 1.0,
            timeout_probability: 0.0,
            rate_limit_probability: 0.0,
            offline_probability: 0.0,
            max_retries: 2,
            ..FaultProfile::default_profile()
        };
        let cfg = CampaignConfig { faults: always_lost, ..small_cfg(2) };
        let mut ds = Dataset::new(pop.platform);
        let stats = run_campaign_into(&cfg, &sim, &pop, &mut ds).unwrap();
        assert_eq!(stats.ok, 0);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.lost, stats.total());
        let retries_per_task = always_lost.max_retries as u64;
        assert_eq!(stats.retries, stats.total() * retries_per_task);
        // backoff(1) + backoff(2) = 250 + 500 per task.
        let per_task_backoff = 750.0;
        let expected = stats.total() as f64 * per_task_backoff;
        assert!(
            (stats.backoff_ms - expected).abs() < 1e-6 * expected.max(1.0),
            "backoff {} vs {expected}",
            stats.backoff_ms
        );
        for p in &ds.pings {
            assert_eq!(p.outcome, TaskOutcome::Lost);
        }
    }

    #[test]
    fn validate_accepts_the_defaults_and_names_each_bad_field() {
        let defaults = CampaignConfig::default();
        assert!(defaults.route_cache, "cache defaults on");
        assert!(defaults.faults.is_none(), "faults default off");
        assert!(defaults.validate().is_ok());
        assert!(faulted_cfg(2).validate().is_ok());

        let field_of = |cfg: CampaignConfig| match cfg.validate() {
            Err(MeasureError::Config { field, .. }) => field,
            other => panic!("expected a config error, got {other:?}"),
        };
        let plan_field = |plan| field_of(CampaignConfig { plan, ..small_cfg(2) });
        let fault_field = |faults| field_of(CampaignConfig { faults, ..small_cfg(2) });
        let artifact_field = |artifacts| field_of(CampaignConfig { artifacts, ..small_cfg(2) });
        let clean = ArtifactConfig::clean();
        // A CGN rate of 1.5 would put every probe behind CGN.
        assert_eq!(artifact_field(ArtifactConfig { cgn_prob: 1.5, ..clean }), "artifacts");
        assert_eq!(artifact_field(ArtifactConfig { vpn_prob: -0.1, ..clean }), "artifacts");
        let none = FaultProfile::none();
        assert_eq!(fault_field(FaultProfile { extra_loss: 1.5, ..none }), "faults");
        let no_budget = FaultProfile { timeout_probability: 0.1, timeout_budget_ms: 0.0, ..none };
        assert_eq!(fault_field(no_budget), "faults");
        let inverted_window = FaultProfile {
            offline_probability: 0.1,
            offline_min_hours: 6,
            offline_max_hours: 2,
            ..none
        };
        assert_eq!(fault_field(inverted_window), "faults");
        assert_eq!(field_of(small_cfg(0)), "threads");
        let quota = |quota_per_day| PlanConfig { quota_per_day, ..Default::default() };
        assert_eq!(plan_field(quota(0)), "quota_per_day");
        // The default census reserve (6) exceeds this quota; the planner's
        // `DailyQuota` would panic on it.
        assert_eq!(plan_field(quota(3)), "census_reserve");
        let no_kinds = plan::TaskKindSet { pings: false, traceroutes: false };
        assert_eq!(plan_field(PlanConfig { kinds: no_kinds, ..Default::default() }), "kinds");
        let no_days = PlanConfig { duration_days: 0, ..Default::default() };
        assert_eq!(plan_field(no_days), "duration_days");
        assert_eq!(plan_field(PlanConfig { cycle_days: 0, ..Default::default() }), "cycle_days");
        assert_eq!(
            plan_field(PlanConfig { samples_per_measurement: 0, ..Default::default() }),
            "samples_per_measurement"
        );
        assert_eq!(
            plan_field(PlanConfig { regions_per_probe: 0, ..Default::default() }),
            "regions_per_probe"
        );
    }

    #[test]
    #[should_panic(expected = "block 1 failed")]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let tasks = [0u32, 1, 2];
        let _ = run_blocked(
            2,
            1,
            &tasks,
            |_, block| {
                if block[0] == 1 {
                    panic!("block {} failed", block[0]);
                }
                block[0]
            },
            |_| Ok::<(), ()>(()),
        );
    }

    #[test]
    fn pings_only_config_runs_a_route_heavy_campaign() {
        let (sim, pop) = setup();
        let mut cfg = small_cfg(2);
        cfg.plan.duration_days = 2;
        cfg.plan.kinds = plan::TaskKindSet::PINGS_ONLY;
        cfg.validate().unwrap();
        let ds = run_campaign(&cfg, &sim, &pop);
        assert!(!ds.pings.is_empty());
        assert!(ds.traces.is_empty());
    }

    #[test]
    fn atlas_campaign_uses_its_protocols() {
        let w = build(&WorldConfig::default());
        let pop = cloudy_probes::atlas::population(&w, 0.05, 3);
        let sim = Simulator::new(w.net);
        let ds = run_campaign(&small_cfg(2), &sim, &pop);
        assert!(!ds.pings.is_empty());
        for p in &ds.pings {
            assert_eq!(p.proto, cloudy_netsim::Protocol::Icmp);
        }
        for t in &ds.traces {
            assert_eq!(t.proto, cloudy_netsim::Protocol::Tcp);
        }
    }
}
