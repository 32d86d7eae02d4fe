//! The virtual-time measurement service.
//!
//! [`Service`] wires the pieces together: an [`EventQueue`] of tenant
//! submissions and campaign slices, admission control over token-bucket
//! quotas, slice execution through `cloudy-measure`'s block executor, and
//! streaming of every record into a `cloudy-store` writer plus the live
//! aggregate table. A run is a pure function of [`ServeConfig::seed`]:
//! the store bytes and the final [`ServiceReport`] are byte-identical
//! across worker thread counts and route-cache settings (enforced by the
//! audit race check).

use crate::aggregate::LiveAggregates;
use crate::clock::{Event, EventKind, EventQueue, VirtualClock};
use crate::report::{AggregateSnapshot, ServiceReport, TenantReport};
use crate::tenant::{Admission, RejectReason, Tenant};
use cloudy_lastmile::ArtifactConfig;
use cloudy_measure::plan::{self, PlanConfig, TaskKindSet};
use cloudy_measure::{
    execute_tasks_into, CampaignConfig, MeasureError, PingRecord, RecordSink, TracerouteRecord,
};
use cloudy_netsim::build::{build, BuiltWorld, WorldConfig};
use cloudy_netsim::rng::mix;
use cloudy_netsim::{FaultProfile, Simulator};
use cloudy_obs::Obs;
use cloudy_probes::{speedchecker, Availability, Platform, Population};
use cloudy_store::{StoreError, Writer, WriterOptions};
use std::collections::BTreeMap;

/// Tasks per campaign slice: the unit of interleaving. One slice is one
/// executor block, so a slice is also the unit of bounded buffering.
pub const SLICE_TASKS: usize = 2048;

/// Virtual cost of one task; a full slice occupies ~41 virtual seconds.
pub const TASK_VIRT_MS: u64 = 20;

/// How often a gold-tier submission may be deferred before giving up.
pub const MAX_DEFERS: u32 = 3;

/// Service parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub seed: u64,
    /// Simulated tenants (tiers/cadences derived deterministically).
    pub tenants: u32,
    /// Virtual horizon: the service runs for this many virtual hours.
    pub hours: u64,
    /// Worker threads for slice execution. Never changes output.
    pub threads: usize,
    pub faults: FaultProfile,
    /// Groups in the report's top-k table.
    pub top_k: usize,
    /// Probe population sampling fraction for the service world.
    pub probe_fraction: f64,
    /// Observability registry. Disabled by default; when enabled it
    /// collects event/admission counters, queue-depth and virtual-vs-wall
    /// slip gauges, and the executor/store metrics of every slice. Never
    /// changes the store bytes or the report.
    pub obs: Obs,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 1,
            tenants: 8,
            hours: 4,
            threads: 1,
            faults: FaultProfile::default_profile(),
            top_k: 10,
            probe_fraction: 0.02,
            obs: Obs::disabled(),
        }
    }
}

/// Typed service error: everything the underlying layers can fail with.
#[derive(Debug)]
pub enum ServeError {
    Measure(MeasureError),
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Measure(e) => write!(f, "measure: {e}"),
            ServeError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<MeasureError> for ServeError {
    fn from(e: MeasureError) -> Self {
        ServeError::Measure(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// An admitted campaign waiting for (more) slice execution.
#[derive(Debug)]
struct Campaign {
    tenant: u32,
    tasks: Vec<plan::Task>,
    next: usize,
}

/// Streams slice records into the store writer and the aggregate table in
/// one pass.
struct ServiceSink<'a> {
    writer: &'a mut Writer<Vec<u8>>,
    agg: &'a mut LiveAggregates,
}

impl RecordSink for ServiceSink<'_> {
    fn sink_ping(&mut self, r: PingRecord) -> Result<(), MeasureError> {
        self.agg.observe_ping(&r);
        self.writer.sink_ping(r)
    }

    fn sink_trace(&mut self, r: TracerouteRecord) -> Result<(), MeasureError> {
        self.agg.observe_trace(&r);
        self.writer.sink_trace(r)
    }

    fn sink_cloud(&mut self, r: cloudy_measure::CloudPingRecord) -> Result<(), MeasureError> {
        // Tenants plan user-plane tasks only; the service never produces
        // inter-cloud rows, but the store accepts them, so pass through.
        self.writer.sink_cloud(r)
    }
}

/// The standing measurement service over one simulated world.
pub struct Service {
    cfg: ServeConfig,
    sim: Simulator,
    pop: Population,
    clock: VirtualClock,
    queue: EventQueue,
    tenants: Vec<Tenant>,
    /// Per-tenant planned task stream + the executor config that runs it.
    streams: Vec<Vec<plan::Task>>,
    exec_cfgs: Vec<CampaignConfig>,
    avails: Vec<Availability>,
    campaigns: BTreeMap<u64, Campaign>,
    next_campaign: u64,
    writer: Option<Writer<Vec<u8>>>,
    agg: LiveAggregates,
    horizon_ms: u64,
    events: u64,
    /// Wall-clock epoch of the run (obs-sanctioned; `None` when metrics
    /// are off), used only for the `serve.slip_ms` gauge.
    wall_start: Option<std::time::Instant>,
}

/// The service's default world: the audit race check's representative
/// 4-country world (one per paper macro-region), kept small enough that
/// a 50-tenant service still runs in seconds.
pub fn default_world(seed: u64) -> BuiltWorld {
    build(&WorldConfig {
        seed,
        isps_per_country: 2,
        countries: Some(
            ["DE", "JP", "BR", "KE"].iter().map(|c| cloudy_geo::CountryCode::new(c)).collect(),
        ),
    })
}

impl Service {
    /// Build the service on its default world.
    pub fn new(cfg: ServeConfig) -> Result<Service, ServeError> {
        let world = default_world(cfg.seed);
        Service::with_world(cfg, world)
    }

    /// Build the service on a caller-provided world.
    pub fn with_world(cfg: ServeConfig, world: BuiltWorld) -> Result<Service, ServeError> {
        let pop = speedchecker::population(&world, cfg.probe_fraction, cfg.seed);
        let sim = Simulator::new(world.net);
        let artifacts = ArtifactConfig::realistic();

        let mut tenants = Vec::with_capacity(cfg.tenants as usize);
        let mut streams = Vec::with_capacity(cfg.tenants as usize);
        let mut exec_cfgs = Vec::with_capacity(cfg.tenants as usize);
        let mut avails = Vec::with_capacity(cfg.tenants as usize);
        let mut queue = EventQueue::new();
        for id in 0..cfg.tenants {
            let tenant = Tenant::simulated(id);
            // Each tenant plans its own campaign stream off a split seed:
            // heterogeneous shapes (ping-only vs mixed, density) without
            // any shared RNG state.
            let plan_cfg = PlanConfig {
                seed: mix(&[cfg.seed, id as u64 + 1, 0x007E_4A17]),
                duration_days: 2,
                probes_per_country_day: 8 + (id as usize % 5) * 4,
                regions_per_probe: 4 + (id as usize % 3) * 2,
                samples_per_measurement: 2,
                kinds: if id % 2 == 0 { TaskKindSet::BOTH } else { TaskKindSet::PINGS_ONLY },
                ..PlanConfig::default()
            };
            let schedule = plan::plan(&plan_cfg, &pop);
            avails.push(Availability::new(plan_cfg.seed));
            exec_cfgs.push(CampaignConfig {
                plan: plan_cfg,
                artifacts,
                threads: cfg.threads,
                route_cache: true,
                faults: cfg.faults,
                obs: cfg.obs.clone(),
            });
            // First submission after one inter-arrival gap.
            let first = tenant.interarrival_ms(cfg.seed, 0);
            queue.push(first, id, EventKind::Submit { submission: 0, defers: 0 });
            streams.push(schedule.tasks);
            tenants.push(tenant);
        }

        let mut writer = Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default())?;
        writer.set_obs(cfg.obs.clone());
        Ok(Service {
            horizon_ms: cfg.hours * 3_600_000,
            wall_start: cfg.obs.now(),
            cfg,
            sim,
            pop,
            clock: VirtualClock::new(),
            queue,
            tenants,
            streams,
            exec_cfgs,
            avails,
            campaigns: BTreeMap::new(),
            next_campaign: 0,
            writer: Some(writer),
            agg: LiveAggregates::new(),
            events: 0,
        })
    }

    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Snapshot the live aggregates at the current virtual time.
    pub fn snapshot(&self, k: usize) -> AggregateSnapshot {
        self.agg.snapshot(self.clock.now_ms(), k)
    }

    /// Process every event up to (and including) virtual time `t_ms`,
    /// clamped to the horizon. Returns the number of events processed.
    pub fn run_until(&mut self, t_ms: u64) -> Result<u64, ServeError> {
        let t = t_ms.min(self.horizon_ms);
        let mut processed = 0u64;
        while let Some(at) = self.queue.peek_at() {
            if at > t {
                break;
            }
            let Some(ev) = self.queue.pop() else { break };
            self.clock.advance_to(ev.at_ms);
            self.events += 1;
            processed += 1;
            self.handle(ev)?;
        }
        self.clock.advance_to(t);
        if self.cfg.obs.is_enabled() {
            self.cfg.obs.gauge("serve.queue_depth", self.queue.len() as i64);
            if let Some(start) = self.wall_start {
                // How far virtual time has outrun the wall: the whole point
                // of a virtual-time service is that this is large.
                let wall_ms = start.elapsed().as_millis() as i64;
                self.cfg.obs.gauge("serve.slip_ms", self.clock.now_ms() as i64 - wall_ms);
            }
        }
        Ok(processed)
    }

    /// Run to the horizon.
    pub fn run(&mut self) -> Result<u64, ServeError> {
        self.run_until(self.horizon_ms)
    }

    fn handle(&mut self, ev: Event) -> Result<(), ServeError> {
        match ev.kind {
            EventKind::Submit { submission, defers } => {
                self.cfg.obs.inc("serve.events.submit");
                self.handle_submit(ev.tenant, submission, defers)
            }
            EventKind::RunSlice { campaign } => {
                self.cfg.obs.inc("serve.events.slice");
                self.run_slice(campaign)
            }
        }
    }

    /// Decide one submission: charge the bucket and start the campaign,
    /// defer it (gold tier), or reject it. Also schedules the tenant's
    /// *next* submission when this one first fires — the arrival process
    /// is independent of admission outcomes.
    fn handle_submit(&mut self, tenant_ix: u32, submission: u64, defers: u32) -> Result<(), ServeError> {
        let now = self.clock.now_ms();
        let seed = self.cfg.seed;
        let horizon = self.horizon_ms;
        let tenant = &mut self.tenants[tenant_ix as usize];

        if defers == 0 {
            tenant.counters.submissions += 1;
            let next_at = now + tenant.interarrival_ms(seed, submission + 1);
            if next_at <= horizon {
                self.queue.push(
                    next_at,
                    tenant_ix,
                    EventKind::Submit { submission: submission + 1, defers: 0 },
                );
            }
        }

        let cost = tenant.campaign_tasks as f64;
        let admission = if tenant.bucket.try_take(cost, now) {
            Admission::Admitted
        } else {
            match tenant.bucket.ms_until(cost, now) {
                None => Admission::Rejected(RejectReason::OverCapacity),
                Some(_) if tenant.priority != crate::tenant::Priority::Gold => {
                    Admission::Rejected(RejectReason::QuotaExhausted)
                }
                Some(_) if defers >= MAX_DEFERS => {
                    Admission::Rejected(RejectReason::DeferralBudgetExhausted)
                }
                Some(wait) => Admission::Deferred { until_ms: now + wait.max(1) },
            }
        };

        if self.cfg.obs.is_enabled() {
            let outcome = match &admission {
                Admission::Admitted => "admitted",
                Admission::Deferred { .. } => "deferred",
                Admission::Rejected(_) => "rejected",
            };
            self.cfg
                .obs
                .inc(&format!("serve.admission.{}.{}", tenant.priority.as_str(), outcome));
        }

        match admission {
            Admission::Rejected(_) => {
                tenant.counters.rejected += 1;
            }
            Admission::Deferred { until_ms } => {
                tenant.counters.deferred += 1;
                self.queue.push(until_ms, tenant_ix, EventKind::Submit { submission, defers: defers + 1 });
            }
            Admission::Admitted => {
                tenant.counters.admitted += 1;
                // Next `campaign_tasks` tasks off the tenant's planned
                // stream, wrapping around — a standing service re-measures
                // the same targets on a cycle.
                let stream = &self.streams[tenant_ix as usize];
                let want = tenant.campaign_tasks.min(stream.len());
                let mut tasks = Vec::with_capacity(want);
                let mut cursor = tenant.cursor;
                for _ in 0..want {
                    tasks.push(stream[cursor]);
                    cursor = (cursor + 1) % stream.len();
                }
                tenant.cursor = cursor;

                // Admission-time offline control: tasks whose probe sits in
                // a fault-profile offline window at their scheduled hour are
                // dropped here, so the executor never spends a slice slot on
                // a probe the fault model says is gone.
                let avail = &self.avails[tenant_ix as usize];
                let profile = &self.cfg.faults;
                let before = tasks.len();
                if !profile.is_none() {
                    let pop = &self.pop;
                    tasks.retain(|t| {
                        let day = t.hour / 24;
                        let hash = pop.probes[t.probe_ix as usize].hash();
                        !avail
                            .offline_window(hash, day, profile)
                            .is_some_and(|(start, end)| t.hour >= start && t.hour < end)
                    });
                }
                tenant.counters.offline_skipped += (before - tasks.len()) as u64;

                if !tasks.is_empty() {
                    let id = self.next_campaign;
                    self.next_campaign += 1;
                    self.campaigns.insert(id, Campaign { tenant: tenant_ix, tasks, next: 0 });
                    self.queue.push(now, tenant_ix, EventKind::RunSlice { campaign: id });
                }
            }
        }
        Ok(())
    }

    /// Execute one bounded slice of an admitted campaign through the
    /// measure block executor, streaming records into the store writer and
    /// the live aggregates, then schedule the campaign's next slice after
    /// the slice's virtual duration.
    fn run_slice(&mut self, id: u64) -> Result<(), ServeError> {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return Ok(());
        };
        let end = (campaign.next + SLICE_TASKS).min(campaign.tasks.len());
        let slice = &campaign.tasks[campaign.next..end];
        let tenant_ix = campaign.tenant;

        let Some(writer) = self.writer.as_mut() else {
            return Ok(());
        };
        let before = self.agg.records();
        let mut sink = ServiceSink { writer, agg: &mut self.agg };
        execute_tasks_into(&self.exec_cfgs[tenant_ix as usize], &self.sim, &self.pop, slice, &mut sink)?;

        let tenant = &mut self.tenants[tenant_ix as usize];
        tenant.counters.tasks_executed += slice.len() as u64;
        tenant.counters.records += self.agg.records() - before;

        let now = self.clock.now_ms();
        let virt = slice.len() as u64 * TASK_VIRT_MS;
        campaign.next = end;
        if campaign.next < campaign.tasks.len() {
            self.queue.push(now + virt, tenant_ix, EventKind::RunSlice { campaign: id });
        } else {
            self.campaigns.remove(&id);
        }
        Ok(())
    }

    /// Finish the run: close the store and assemble the final report.
    /// The store bytes and the report are both byte-identical across
    /// thread counts and route-cache settings.
    pub fn finish(mut self) -> Result<(ServiceReport, Vec<u8>), ServeError> {
        let Some(writer) = self.writer.take() else {
            return Err(ServeError::Store(StoreError::io("service already finished".to_string())));
        };
        let (bytes, _summary) = writer.finish()?;

        let per_tenant: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| TenantReport {
                id: t.id,
                name: t.name.clone(),
                priority: t.priority.as_str().to_string(),
                submissions: t.counters.submissions,
                admitted: t.counters.admitted,
                rejected: t.counters.rejected,
                deferred: t.counters.deferred,
                tasks_executed: t.counters.tasks_executed,
                records: t.counters.records,
                offline_skipped: t.counters.offline_skipped,
            })
            .collect();

        let total = |f: fn(&TenantReport) -> u64| per_tenant.iter().map(f).sum::<u64>();
        let records = self.agg.records();
        let virtual_ms = self.clock.now_ms();
        let report = ServiceReport {
            seed: self.cfg.seed,
            tenants: self.cfg.tenants,
            hours: self.cfg.hours,
            faults: if self.cfg.faults.is_none() { "none".to_string() } else { "default".to_string() },
            events: self.events,
            submissions: total(|t| t.submissions),
            admitted: total(|t| t.admitted),
            rejected: total(|t| t.rejected),
            deferred: total(|t| t.deferred),
            tasks_executed: total(|t| t.tasks_executed),
            offline_skipped: total(|t| t.offline_skipped),
            records,
            store_bytes: bytes.len() as u64,
            virtual_ms,
            virtual_records_per_s: if virtual_ms == 0 {
                0.0
            } else {
                records as f64 / (virtual_ms as f64 / 1000.0)
            },
            per_tenant,
            top_groups: self.agg.snapshot(virtual_ms, self.cfg.top_k).groups,
        };
        Ok((report, bytes))
    }
}
