//! Deterministic parallel campaign execution.
//!
//! Tasks are planned up-front ([`crate::plan`]), then executed over the
//! simulator in fixed-size blocks by persistent scoped worker threads.
//! Because every latency sample is derived from (seed, flow) — never from
//! shared RNG state — the record stream is bit-identical for any thread
//! count.
//!
//! [`run_campaign_into`] streams records into any [`RecordSink`] with
//! bounded memory, as one pipeline: `threads` workers claim fixed
//! [`BLOCK_TASKS`]-sized blocks in order, each building its block's routes
//! and then running its tasks, while the calling thread drains finished
//! blocks into the sink in block order. The workers may run at most
//! `2 × threads` blocks ahead of the drain, so at most that many block
//! results wait for it. Block size is a constant (not a function of thread
//! count), so the sink sees the same record sequence no matter how many
//! threads ran the blocks. [`run_campaign`] collects that stream into an
//! in-memory [`Dataset`].
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Tasks per execution block in the streaming path. Fixed so the record
/// stream (and thus any sink output) is invariant under the thread count.
/// [`run_blocked`]'s window keeps at most `2 × threads` blocks claimed but
/// not yet drained, plus the one being drained, so at most
/// `(2 × threads + 1) × BLOCK_TASKS` task results are alive at once.
pub const BLOCK_TASKS: usize = 2048;

/// Blocks per worker that [`run_blocked`]'s workers may run ahead of the
/// drain: a fixed multiple, so the memory bound depends on `threads` alone.
const WINDOW_PER_WORKER: usize = 2;

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
/// With `route_cache` on, each block builds its own pairs' routes on its
/// worker, through the simulator's shared route cache, while earlier blocks
/// drain (see [`execute_tasks_into`]).
///
/// With `cfg.obs` enabled, the planner is timed as the `campaign.plan` span
/// on lane 0, beside the executor's spans and counters.
pub fn run_campaign_into(
    cfg: &CampaignConfig,
    sim: &Simulator,
    pop: &Population,
    sink: &mut impl RecordSink,
) -> Result<FailureStats, MeasureError> {
    let span = cfg.obs.now();
    let schedule = plan::plan(&cfg.plan, pop);
    cfg.obs.record_span("campaign.plan", span, 0);
    execute_tasks_into(cfg, sim, pop, &schedule.tasks, sink)
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
/// worker claims.
///
/// With `route_cache` on, a pre-pass first groups the block's tasks by
/// (probe, region): each client context is built once per probe and each
/// route once per pair — fetched through the simulator's shared
/// [`cloudy_netsim::RouteCache`] as `Arc<RoutePath>`, so a pair another
/// block already built is a hit — then the tasks run in their original
/// order, so the record stream is unchanged. The pre-pass is the block's
/// `campaign.route` span. Off, every task rebuilds its client and route
/// from scratch (the reference leg of the audit race check).
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
        let route_span = shard.now();
        for (probe_ix, region) in plan::block_pairs(tasks) {
            let client = clients.entry(probe_ix).or_insert_with(|| {
                pop.probes[probe_ix as usize].client_ctx(&sim.net, artifacts)
            });
            routes.insert((probe_ix, region), sim.route(client, region));
        }
        shard.record_span("campaign.route", route_span, lane + 1);
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
        // Worker lanes are numbered 1..=threads; lane 0 is the draining
        // thread in trace output.
        shard.record_span("campaign.block", span_start, lane + 1);
    }
    (pings, traces, stats, shard)
}

/// Prime the simulator's shared route cache with every (probe, region)
/// pair `tasks` will visit, on the calling thread, and return the number
/// of pairs warmed.
///
/// No program path calls this: the executor builds each block's routes on
/// its worker. It stays only because the benchmark's traced campaign calls
/// it to time route building as a layer of its own; it goes once the
/// benchmark reads the campaign's own `campaign.route` spans instead
/// (ROADMAP.md). Warming computes the same routes the blocks would, through
/// the same [`Simulator::route`] entry point, so the record stream is
/// byte-identical with or without it.
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
/// minus planning.
///
/// Tasks are cut into fixed [`BLOCK_TASKS`]-sized blocks and run by
/// [`run_blocked`]: `threads` persistent workers each build a block's
/// routes and run its tasks, at most `2 × threads` blocks ahead of the
/// calling thread, which drains finished blocks into the sink in block
/// order. So at most `2 × threads` block results wait for the sink, and it
/// sees records in plan order regardless of the thread count.
///
/// This is the entry point service schedulers build on: a long campaign
/// can be cut into bounded slices that interleave with other tenants'
/// work, and because blocks are a fixed size and drained in order, the
/// concatenated record stream over any slicing of the same task sequence
/// is identical to executing it in one call.
///
/// With `cfg.obs` enabled, each block's drain is one `campaign.drain` span
/// on lane 0, each block's route pre-pass one `campaign.route` span on its
/// worker's lane, and `netsim.routes.built` counts the routes the blocks
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
    // The cache's lifetime misses, one per route it stored; read only when
    // enabled, so uninstrumented runs never take its shard locks here.
    let misses = if obs.is_enabled() { sim.route_cache().stats().misses } else { 0 };
    run_blocked(
        cfg.threads,
        BLOCK_TASKS,
        tasks,
        |lane, block| {
            run_block(sim, pop, &artifacts, block, route_cache, fault_ctx.as_ref(), lane, obs.local())
        },
        |(pings, traces, stats, shard)| {
            let span = obs.now();
            for p in pings {
                sink.sink_ping(p)?;
            }
            for t in traces {
                sink.sink_trace(t)?;
            }
            totals.merge(&stats);
            obs.merge(shard);
            obs.record_span("campaign.drain", span, 0);
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

/// The deterministic block-executor pipeline, factored out of
/// [`execute_tasks_into`] so other planes (the inter-cloud campaign, the
/// service scheduler) can reuse it with their own task and result types.
///
/// `tasks` is cut into `block_tasks`-sized blocks. `threads` workers live
/// for the whole call on scoped threads; each claims the next block in
/// order and calls `run(lane, block)` on it. Meanwhile the calling thread
/// hands the results to `drain` **in block order** as they arrive. The
/// drain sequence is therefore a pure function of the task sequence —
/// invariant under `threads` and under timing.
///
/// A worker may run at most `2 × threads` blocks ahead of the drain, so at
/// most that many results wait for it. A drain error stops the workers
/// (each finishes the block it holds) and is returned. A panic in `run`
/// stops the other workers and the drain, and reaches the caller with its
/// own payload; a panic in `drain` stops the workers and then unwinds.
///
/// `run` must itself be deterministic in `(block)` alone; the `lane`
/// argument, the worker's index, is for trace/span labeling only and must
/// not influence the result value.
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
    // A window longer than the block count would only allocate idle slots.
    let window = Window::new(threads.saturating_mul(WINDOW_PER_WORKER).min(blocks.len()));
    let (run, blocks, window) = (&run, &blocks, &window);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(blocks.len()) as u32)
            .map(|lane| {
                s.spawn(move || {
                    let _halt = HaltOnUnwind(window);
                    while let Some(ix) = window.claim(blocks.len()) {
                        window.file(ix, run(lane, blocks[ix]));
                    }
                })
            })
            .collect();
        let drained = {
            let _halt = HaltOnUnwind(window);
            (0..blocks.len()).map_while(|ix| window.take(ix)).try_for_each(&mut drain)
        };
        window.halt();
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        drained
    })
}

/// The state [`run_blocked`]'s workers and its drain share: which blocks
/// are claimed, which results wait in the window, and whether to stop.
struct Window<R> {
    state: Mutex<WindowState<R>>,
    /// Signalled when the drain takes a result (a window place frees) or
    /// the pipeline halts; workers wait on it.
    room: Condvar,
    /// Signalled when a worker files a result or the pipeline halts; the
    /// drain waits on it.
    filed: Condvar,
}

struct WindowState<R> {
    /// The next block a worker claims.
    next: usize,
    /// Blocks the drain has taken so far.
    taken: usize,
    /// Results filed but not taken: block `i` sits in slot `i % len`.
    /// Claims stay below `taken + len`, so a claimed block's slot is free.
    slots: Vec<Option<R>>,
    /// No worker claims another block, and the drain takes no more.
    halted: bool,
}

impl<R> Window<R> {
    fn new(len: usize) -> Window<R> {
        let slots = (0..len).map(|_| None).collect();
        Window {
            state: Mutex::new(WindowState { next: 0, taken: 0, slots, halted: false }),
            room: Condvar::new(),
            filed: Condvar::new(),
        }
    }

    /// Poison is ignored: nothing panics while holding the lock, and each
    /// update under it leaves the state valid.
    fn lock(&self) -> MutexGuard<'_, WindowState<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the next of `blocks` blocks, waiting while the window is full.
    /// `None` once every block is claimed or the pipeline halted.
    fn claim(&self, blocks: usize) -> Option<usize> {
        let mut st = self.lock();
        loop {
            if st.halted || st.next == blocks {
                return None;
            }
            if st.next < st.taken + st.slots.len() {
                st.next += 1;
                return Some(st.next - 1);
            }
            st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// File block `ix`'s result for the drain.
    fn file(&self, ix: usize, result: R) {
        let mut st = self.lock();
        let len = st.slots.len();
        st.slots[ix % len] = Some(result);
        self.filed.notify_one();
    }

    /// Wait for block `ix`'s result and take it, freeing its window place.
    /// `None` if the pipeline halted first.
    fn take(&self, ix: usize) -> Option<R> {
        let mut st = self.lock();
        let len = st.slots.len();
        loop {
            if st.halted {
                return None;
            }
            if let Some(result) = st.slots[ix % len].take() {
                st.taken += 1;
                self.room.notify_all();
                return Some(result);
            }
            st = self.filed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop the pipeline and wake every thread waiting on it.
    fn halt(&self) {
        self.lock().halted = true;
        self.room.notify_all();
        self.filed.notify_all();
    }
}

/// Halts the window when dropped by a panic, so no worker waits on a
/// drain that is gone and no drain waits on a worker that is gone.
struct HaltOnUnwind<'a, R>(&'a Window<R>);

impl<R> Drop for HaltOnUnwind<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_netsim::build::{build, WorldConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

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
        // Within-block reuse never touches the shared cache (the pre-pass
        // routes each pair once per block), and the uncached leg never
        // touches it at all: a pair's first block misses and hits come from
        // pairs recurring in later blocks.
        let stats = sim.route_cache().stats();
        assert!(stats.hits > 0, "expected cross-block cache hits, got {stats:?}");
        // Blocks that miss on one key at once count one miss between them,
        // so misses equal entries whatever the timing.
        assert_eq!(stats.entries as u64, stats.misses, "{stats:?}");
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
        // On a fresh simulator the blocks build each (probe, region) route
        // once between them, on their workers: the route spans sit on worker
        // lanes, never on the draining thread's lane 0.
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
        let route_lanes: Vec<u32> = trace
            .split("{\"name\":")
            .filter(|event| event.starts_with("\"campaign.route\""))
            .filter_map(|event| event.split("\"tid\":").nth(1))
            .map(|tid| tid.trim_end_matches(['}', ']', ',']).parse().unwrap())
            .collect();
        assert!(!route_lanes.is_empty(), "{trace}");
        assert!(route_lanes.iter().all(|lane| (1..=3).contains(lane)), "{route_lanes:?}");

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
        // This leg reuses the simulator the legs above filled, so every
        // block's pairs are already cached and it builds no route.
        assert_eq!(snap.counter("netsim.routes.built"), 0, "a filled cache builds no route");

        // With the cache off every task builds its own route.
        let obs = Obs::enabled();
        let uncached = CampaignConfig { obs: obs.clone(), route_cache: false, ..small_cfg(3) };
        run_campaign(&uncached, &sim, &pop);
        let snap = obs.snapshot().unwrap_or_default();
        assert_eq!(snap.counter("netsim.routes.built"), tasks.len() as u64);
        assert_eq!(snap.hist("span.campaign.route").map(|h| h.count), None, "no route pre-pass");
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

    /// How long a test waits on a channel before it calls the executor
    /// stalled. The channels force each interleaving; this bound only turns
    /// an executor that can never reach it into a failure instead of a hang.
    const STALL: std::time::Duration = std::time::Duration::from_secs(60);

    /// The message a `run_blocked` call panicked with, or `None` if it
    /// returned.
    fn panic_message(call: impl FnOnce() -> Result<(), ()>) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).err()?;
        payload.downcast::<String>().ok().map(|message| *message)
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let tasks = [0u32, 1, 2];
        let message = panic_message(|| {
            run_blocked(
                2,
                1,
                &tasks,
                |_, block| {
                    if block[0] == 1 {
                        panic!("block {} failed", block[0]);
                    }
                    block[0]
                },
                |_| Ok(()),
            )
        });
        assert_eq!(message.as_deref(), Some("block 1 failed"));

        // Block 0 panics only once blocks 1..=3 have finished on the other
        // worker, which then fills the 4-block window and waits for room.
        // The panic must wake it, stop the drain waiting on block 0, and
        // reach the caller instead of hanging the call.
        let tasks: Vec<u32> = (0..16).collect();
        let (done, finished) = mpsc::channel();
        let finished = Mutex::new(finished);
        let message = panic_message(|| {
            run_blocked(
                2,
                1,
                &tasks,
                |_, block| {
                    if block[0] == 0 {
                        let finished = finished.lock().unwrap();
                        for _ in 1..=3 {
                            finished.recv_timeout(STALL).unwrap();
                        }
                        panic!("block {} failed", block[0]);
                    }
                    done.send(block[0]).unwrap();
                    block[0]
                },
                |_| Ok(()),
            )
        });
        assert_eq!(message.as_deref(), Some("block 0 failed"));
    }

    #[test]
    fn the_drain_sees_blocks_in_order_when_they_finish_out_of_order() {
        let tasks = [0u32, 1];
        let (done, finished) = mpsc::channel();
        let finished = Mutex::new(finished);
        let finish_order = Mutex::new(Vec::new());
        let mut drained = Vec::new();
        run_blocked(
            2,
            1,
            &tasks,
            |_, block| {
                // Block 0 waits until block 1 has finished on the other worker.
                if block[0] == 0 {
                    finished.lock().unwrap().recv_timeout(STALL).unwrap();
                }
                finish_order.lock().unwrap().push(block[0]);
                if block[0] == 1 {
                    done.send(()).unwrap();
                }
                block[0]
            },
            |ix| {
                drained.push(ix);
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        assert_eq!(finish_order.into_inner().unwrap(), [1, 0]);
        assert_eq!(drained, [0, 1]);
    }

    #[test]
    fn a_drain_error_stops_the_workers_and_is_returned() {
        let threads = 2;
        let tasks: Vec<u32> = (0..64).collect();
        let ran = AtomicUsize::new(0);
        let result = run_blocked(
            threads,
            1,
            &tasks,
            |_, block| {
                ran.fetch_add(1, Ordering::SeqCst);
                block[0]
            },
            |ix| if ix == 3 { Err(ix) } else { Ok(()) },
        );
        assert_eq!(result, Err(3));
        // Blocks 0..=3 reached the drain; the workers may have run at most
        // one window beyond the failing block, and stopped there.
        let ran = ran.into_inner();
        assert!((4..=3 + 1 + 2 * threads).contains(&ran), "{ran} blocks ran");
    }

    #[test]
    fn no_more_than_two_blocks_per_worker_wait_for_the_drain() {
        let threads = 2;
        let window = 2 * threads;
        let tasks: Vec<u32> = (0..32).collect();
        let finished = AtomicUsize::new(0);
        let (done, finishes) = mpsc::channel();
        let mut most_waiting = 0;
        run_blocked(
            threads,
            1,
            &tasks,
            |_, block| {
                finished.fetch_add(1, Ordering::SeqCst);
                done.send(()).unwrap();
                block[0]
            },
            |ix| {
                // Hold the first drain until the workers have filled the
                // window behind it, so the bound is reached, not just kept.
                if ix == 0 {
                    for _ in 0..=window {
                        finishes.recv_timeout(STALL).unwrap();
                    }
                }
                // Results finished but not yet handed to the drain; block
                // `ix` is in the drain's hands already.
                let waiting = finished.load(Ordering::SeqCst) - (ix as usize + 1);
                most_waiting = most_waiting.max(waiting);
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        assert_eq!(most_waiting, window);
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
