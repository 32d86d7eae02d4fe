//! `cloudy-repro` — command-line front end for the reproduction. Run
//! `cloudy-repro help` for the commands and their options; [`usage`] is
//! the one place they are listed.
//!
//! `run` streams both platform campaigns straight into columnar
//! `cloudy-store` files (`speedchecker.cst`, `atlas.cst`; bounded memory —
//! records never sit in a `Dataset`), then writes a `study.meta` with the
//! seed, so a directory holding a `study.meta` is a complete export.
//! `analyze` reads such an export back and renders the figures.
//! `experiment`/`all` run the study and render the requested artifacts.
//! `store inspect` dumps a store's chunk directory and `store query` runs a
//! pruned scan with summary statistics.
//!
//! Every subcommand reads its flags through one [`Args`] cursor and
//! returns its errors to `main`, which prints `error: …` and exits 2.

use cloudy::core::experiments::{self, ExperimentId};
use cloudy::core::{run_study_into, Study, StudyConfig};
use cloudy::measure::{CampaignConfig, Dataset, TaskKindSet};
use cloudy::netsim::{FaultProfile, Simulator};
use cloudy::obs::Obs;
use cloudy::probes::{Platform, Population};
use cloudy::store::{ChunkRows, Query, Reader, RecordKind, ScanFilter, Writer, WriterOptions};
use std::error::Error;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

type CliResult<T = ExitCode> = Result<T, Box<dyn Error>>;

fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).collect());
    let result = match args.subcommand().as_str() {
        "list" => list(args),
        "world" => world(args),
        "audit" => audit(args),
        "analyze" => analyze(args),
        "run" => run(args),
        "campaign" => campaign(args),
        "experiment" => experiment(args),
        "all" => all(args),
        "store" => match args.subcommand().as_str() {
            "inspect" => store_inspect(args),
            "query" => store_query(args),
            "" => Err("store requires a subcommand: inspect | query".into()),
            other => Err(format!("unknown store subcommand {other:?} (inspect | query)").into()),
        },
        "serve" => serve(args),
        "intercloud" => intercloud(args),
        "obs" => obs_summary(args),
        "help" | "--help" | "-h" => {
            usage();
            Ok(ExitCode::SUCCESS)
        }
        "" => {
            usage();
            Ok(ExitCode::from(2))
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            usage();
            Ok(ExitCode::from(2))
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn usage() {
    eprintln!(
        "cloudy-repro — reproduce \"Cloudy with a Chance of Short RTTs\" (IMC 2021)\n\n\
         commands:\n\
         \x20 list                         list experiment ids\n\
         \x20 world [opts]                 print world statistics\n\
         \x20 audit [audit opts]           check the world invariants and run the\n\
         \x20                              1-vs-N-thread race check of every plane\n\
         \x20 audit lint [lint opts]       source gate: token lints + wire freeze;\n\
         \x20                              fails on any finding\n\
         \x20 run [opts] [--out DIR]       stream both campaigns into columnar stores\n\
         \x20                              (speedchecker.cst, atlas.cst), then write\n\
         \x20                              study.meta\n\
         \x20 analyze --dir DIR [<id>...] [opts]\n\
         \x20                              re-analyse a `run` export (every experiment\n\
         \x20                              unless ids are given); its study.meta\n\
         \x20                              overrides the study options\n\
         \x20 campaign [opts] [--out FILE] [--pings-only]\n\
         \x20                              one Speedchecker campaign with cache and\n\
         \x20                              failure reporting\n\
         \x20 experiment <id>... [opts]    run specific experiments (see `list`)\n\
         \x20 all [opts] [--out FILE] [--csv DIR]\n\
         \x20                              run every experiment; --out writes them as\n\
         \x20                              Markdown, --csv writes each figure's data\n\
         \x20 store inspect <FILE>         dump a store's chunk directory\n\
         \x20 store query <FILE> [--provider AB] [--country CC] [--isp ASN]\n\
         \x20             [--kind ping|trace] [--min-rtt MS] [--max-rtt MS]\n\
         \x20             [--group-by country|provider|country-provider|\n\
         \x20              country-region|isp] [--threads N]\n\
         \x20                              pushdown query with summary statistics;\n\
         \x20                              --group-by aggregates in-scan (O(groups))\n\
         \x20 serve [--tenants N] [--hours H] [--seed N] [--threads N]\n\
         \x20       [--faults none|default] [--top-k N] [--json] [--store FILE]\n\
         \x20                              run the virtual-time measurement service:\n\
         \x20                              N simulated tenants submit campaigns against\n\
         \x20                              token-bucket quotas for H virtual hours;\n\
         \x20                              prints the final service report (exits non-zero\n\
         \x20                              if the report fails to reconcile)\n\
         \x20 intercloud [--seed N] [--hours H] [--samples N]\n\
         \x20            [--regions-per-provider N] [--threads N]\n\
         \x20            [--k N] [--out FILE]\n\
         \x20                              region-to-region campaign across all nine\n\
         \x20                              providers, each pair probed over its private\n\
         \x20                              WAN and the public internet; prints the\n\
         \x20                              provider latency-gap matrix and a k-region\n\
         \x20                              placement from user-campaign aggregates\n\
         \x20 obs [opts] [--metrics FMT] [--trace-out FILE]\n\
         \x20                              run one instrumented campaign + store\n\
         \x20                              round-trip and print the metrics snapshot\n\
         \x20                              (text unless --metrics json) on stdout\n\n\
         options (world, run, analyze, campaign, experiment, all, obs):\n\
         \x20 --seed N            study seed (default 42)\n\
         \x20 --days N            campaign length in simulated days (default 10)\n\
         \x20 --sc-fraction F     Speedchecker population fraction (default 0.02)\n\
         \x20 --atlas-fraction F  Atlas population fraction (default 0.25)\n\
         \x20 --threads N         worker threads (default 4)\n\
         \x20 --faults P          fault-injection profile: none | default (default none);\n\
         \x20                     `default` injects loss, timeouts, rate limits and\n\
         \x20                     probe-offline windows, with bounded retry/backoff\n\n\
         observability options (run, campaign, serve, store query, obs):\n\
         \x20 --metrics FMT       collect metrics and print the snapshot (text | json)\n\
         \x20                     on stderr; never changes any output bytes\n\
         \x20 --trace-out FILE    also write a Chrome trace_event JSON file\n\
         \x20                     (open in a trace viewer, e.g. chrome://tracing)\n\n\
         audit options:\n\
         \x20 --json              machine-readable findings\n\
         \x20 --global            audit the full 195-country world (slow)\n\
         \x20 --pass NAME         run one pass: world | racecheck\n\
         \x20 --seed N            world seed (default 1)\n\
         \x20 --threads N         parallel leg of the race check (default 8)\n\n\
         audit lint options:\n\
         \x20 --format FMT        text | json | sarif (default text)\n\
         \x20 --root DIR          workspace root (default: this checkout)\n\
         \x20 --update-lock       regenerate wire.lock from the tree (intentional\n\
         \x20                     wire-format changes only)\n\n\
         audit exit codes:\n\
         \x20 audit:      0 clean · 2 usage error · 11 world invariant broken ·\n\
         \x20             12 race check failed\n\
         \x20 audit lint: 0 clean · 2 usage error or unreadable sources/wire.lock ·\n\
         \x20             10 lint findings · 13 wire drift and nothing else"
    );
}

/// The command line, consumed front to back by name: each subcommand takes
/// exactly the flags it accepts, and whatever is left must be positional.
struct Args(Vec<String>);

impl Args {
    /// Take the first argument (a command or subcommand name); `""` when
    /// none is left.
    fn subcommand(&mut self) -> String {
        if self.0.is_empty() {
            String::new()
        } else {
            self.0.remove(0)
        }
    }

    /// Take `--flag VALUE` and parse the value.
    fn value<T: FromStr>(&mut self, flag: &str) -> CliResult<Option<T>>
    where
        T::Err: Display,
    {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 == self.0.len() {
            return Err(format!("{flag} needs a value").into());
        }
        let value = self.0.remove(i + 1);
        self.0.remove(i);
        value.parse().map(Some).map_err(|e| format!("{flag}: {e}").into())
    }

    /// Take `--flag NAME` where `lookup` knows the names `want` lists.
    fn choice<T>(
        &mut self,
        flag: &str,
        want: &str,
        lookup: impl Fn(&str) -> Option<T>,
    ) -> CliResult<Option<T>> {
        let Some(name) = self.value::<String>(flag)? else {
            return Ok(None);
        };
        lookup(&name).map(Some).ok_or_else(|| format!("{flag}: want {want}, got {name:?}").into())
    }

    /// Take `--flag`; true when it was given.
    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() < before
    }

    /// The arguments left over once every accepted flag is taken. A
    /// `--flag` among them is one this subcommand does not accept (or one
    /// given twice).
    fn positionals(self) -> CliResult<Vec<String>> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unknown or repeated option {flag:?}").into()),
            None => Ok(self.0),
        }
    }

    /// Like [`Args::positionals`], for a subcommand that takes none.
    fn finish(self) -> CliResult<()> {
        match self.positionals()?.first() {
            Some(arg) => Err(format!("unexpected argument {arg:?}").into()),
            None => Ok(()),
        }
    }
}

/// The study options shared by every study-sized subcommand (see
/// [`usage`]), range-checked.
fn study_config(args: &mut Args) -> CliResult<StudyConfig> {
    let mut cfg = StudyConfig::tiny(42);
    cfg.sc_fraction = 0.02;
    cfg.atlas_fraction = 0.25;
    cfg.duration_days = 10;
    cfg.seed = args.value("--seed")?.unwrap_or(cfg.seed);
    cfg.duration_days = args.value("--days")?.unwrap_or(cfg.duration_days);
    cfg.sc_fraction = args.value("--sc-fraction")?.unwrap_or(cfg.sc_fraction);
    cfg.atlas_fraction = args.value("--atlas-fraction")?.unwrap_or(cfg.atlas_fraction);
    cfg.threads = args.value("--threads")?.unwrap_or(cfg.threads);
    cfg.faults =
        args.choice("--faults", "none | default", FaultProfile::parse)?.unwrap_or(cfg.faults);
    check_study(&cfg)?;
    Ok(cfg)
}

/// Separate from [`study_config`] because `analyze` checks again after an
/// export's metadata has overridden the flags.
fn check_study(cfg: &StudyConfig) -> Result<(), String> {
    if !(0.0..=1.0).contains(&cfg.sc_fraction) || cfg.sc_fraction <= 0.0 {
        return Err(format!("--sc-fraction must be in (0,1], got {}", cfg.sc_fraction));
    }
    if !(0.0..=1.0).contains(&cfg.atlas_fraction) || cfg.atlas_fraction <= 0.0 {
        return Err(format!("--atlas-fraction must be in (0,1], got {}", cfg.atlas_fraction));
    }
    if cfg.duration_days == 0 {
        return Err("--days must be >= 1".into());
    }
    Ok(())
}

fn list(args: Args) -> CliResult {
    args.finish()?;
    for id in ExperimentId::ALL.iter().chain(&ExperimentId::ABLATIONS) {
        println!("{:8} {}", id.slug(), id.label());
    }
    Ok(ExitCode::SUCCESS)
}

fn world(mut args: Args) -> CliResult {
    let cfg = study_config(&mut args)?;
    args.finish()?;
    let world = cfg.build_world();
    println!("seed: {}", cfg.seed);
    println!("ASes: {}", world.net.graph.len());
    println!("AS-level edges: {}", world.net.graph.edge_count());
    println!("announced prefixes: {}", world.net.prefixes.len());
    println!("IXPs: {}", world.net.ixps.len());
    println!("cloud regions: {}", world.net.regions.len());
    println!("countries with ISPs: {}", world.isps_by_country.len());
    let isps: usize = world.isps_by_country.values().map(Vec::len).sum();
    println!("access ISPs: {isps}");
    Ok(ExitCode::SUCCESS)
}

/// `audit` — the world invariants and the race check. Clean means at
/// least one check ran and no finding is an error; the source lints run
/// under `audit lint`.
fn audit(mut args: Args) -> CliResult {
    use cloudy::audit::racecheck::{race_check, RaceConfig};
    use cloudy::audit::{world, AuditPass, AuditReport};
    use cloudy::netsim::build::{build, WorldConfig};
    if args.0.first().is_some_and(|a| a == "lint") {
        args.subcommand();
        return audit_lint(args);
    }
    let defaults = RaceConfig::default();
    let global = args.switch("--global");
    let seed = args.value("--seed")?.unwrap_or(defaults.seed);
    let threads = args.value("--threads")?.unwrap_or(defaults.threads);
    let json = args.switch("--json");
    let only = args.choice("--pass", "world or racecheck", AuditPass::from_name)?;
    args.finish()?;
    let mut combined = AuditReport::default();
    let mut failed = None;
    for pass in AuditPass::ALL.into_iter().filter(|p| only.is_none_or(|o| o == *p)) {
        let report = match pass {
            AuditPass::World if global => {
                world::audit(&build(&WorldConfig { seed, ..WorldConfig::default() }))
            }
            AuditPass::World => world::audit(&cloudy::serve::default_world(seed)),
            AuditPass::RaceCheck => race_check(&RaceConfig { seed, threads }),
        };
        if !report.is_clean() {
            failed.get_or_insert(pass);
        }
        combined.merge(report);
    }
    if json {
        println!("{}", combined.render_json());
    } else {
        print!("{}", combined.render());
    }
    // Exit with the first failing pass's own code so CI can name the
    // broken gate (11 world, 12 racecheck).
    Ok(failed.map_or(ExitCode::SUCCESS, |p| ExitCode::from(p.exit_code() as u8)))
}

/// `audit lint` — the source gate, and the only command that runs the
/// token lints and the wire freeze. It fails on *any* finding.
fn audit_lint(mut args: Args) -> CliResult {
    use cloudy::audit::{detlint, output, wirefreeze};
    let format = args
        .choice("--format", "text|json|sarif", |f| {
            ["text", "json", "sarif"].into_iter().find(|&k| k == f)
        })?
        .unwrap_or("text");
    let root: PathBuf = args.value("--root")?.unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into());
    let update_lock = args.switch("--update-lock");
    args.finish()?;
    if update_lock {
        wirefreeze::update_lock(&root)?;
        eprintln!("wire.lock regenerated");
    }
    let mut report = detlint::lint_workspace(&root)?;
    report.merge(wirefreeze::check_workspace(&root)?);
    report.sort();
    match format {
        "json" => println!("{}", output::render_json(&report)),
        "sarif" => println!("{}", output::render_sarif(&report)),
        _ => print!("{}", output::render_text(&report)),
    }
    // 0 clean; 13 when only the wire freeze drifted; 10 for lint findings.
    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else if report.findings.iter().all(|f| f.rule == "wire-drift") {
        ExitCode::from(13)
    } else {
        ExitCode::from(10)
    })
}

/// Write a file the user asked for and say so on stderr.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    let contents = contents.as_ref();
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {path} ({} bytes)", contents.len());
    Ok(())
}

/// The store files of a `run` export, with the platform each must hold.
const EXPORT_STORES: [(&str, Platform); 2] =
    [("speedchecker.cst", Platform::Speedchecker), ("atlas.cst", Platform::RipeAtlas)];

/// `run` — stream both campaigns into the export's stores, then write
/// `study.meta` last: a directory that holds one is a complete export.
fn run(mut args: Args) -> CliResult {
    let cfg = study_config(&mut args)?;
    let out_dir = args.value("--out")?.unwrap_or_else(|| "cloudy-out".to_string());
    let metrics = metrics(&mut args, None)?;
    args.finish()?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let meta_path = format!("{out_dir}/study.meta");
    if let Err(e) = std::fs::remove_file(&meta_path) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(format!("remove stale {meta_path}: {e}").into());
        }
    }
    let open = |(name, platform): (&str, Platform)| -> CliResult<_> {
        let path = format!("{out_dir}/{name}");
        let file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = Writer::new(std::io::BufWriter::new(file), platform, WriterOptions::default())?;
        w.set_obs(metrics.obs.clone());
        Ok((path, w))
    };
    let (sc_path, mut sc) = open(EXPORT_STORES[0])?;
    let (atlas_path, mut atlas) = open(EXPORT_STORES[1])?;
    eprintln!("streaming study (seed {}, {} days) into stores...", cfg.seed, cfg.duration_days);
    let (sc_stats, atlas_stats) = run_study_into(&cfg, &mut sc, &mut atlas)?;
    println!("speedchecker {}", failure_summary(&sc_stats));
    println!("atlas {}", failure_summary(&atlas_stats));
    for (path, writer) in [(sc_path, sc), (atlas_path, atlas)] {
        let (_, summary) = writer.finish().map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {path}: {} chunks, {} pings + {} traceroutes, {} bytes",
            summary.chunks, summary.ping_rows, summary.trace_rows, summary.bytes
        );
    }
    let meta = format!(
        "seed={}\ndays={}\nsc_fraction={}\natlas_fraction={}\n",
        cfg.seed, cfg.duration_days, cfg.sc_fraction, cfg.atlas_fraction
    );
    write_file(&meta_path, meta)?;
    metrics.emit(false)?;
    Ok(ExitCode::SUCCESS)
}

/// The validated config, simulator and Speedchecker population for one
/// campaign over the study's world (`campaign`, `obs` and `intercloud`).
fn speedchecker_campaign(
    cfg: &StudyConfig,
    obs: &Obs,
    pings_only: bool,
) -> CliResult<(CampaignConfig, Simulator, Population)> {
    let mut campaign = cfg.campaign_config();
    campaign.obs = obs.clone();
    if pings_only {
        campaign.plan.kinds = TaskKindSet::PINGS_ONLY;
    }
    campaign.validate()?;
    let world = cfg.build_world();
    let pop = cfg.sc_population(&world);
    Ok((campaign, Simulator::new(world.net), pop))
}

/// Run a single Speedchecker campaign through the batched executor and
/// report route-cache effectiveness.
fn campaign(mut args: Args) -> CliResult {
    let cfg = study_config(&mut args)?;
    let pings_only = args.switch("--pings-only");
    let out: Option<String> = args.value("--out")?;
    let metrics = metrics(&mut args, None)?;
    args.finish()?;
    let (campaign_cfg, sim, pop) = speedchecker_campaign(&cfg, &metrics.obs, pings_only)?;
    eprintln!(
        "running campaign (seed {}, {} days, {} threads)...",
        cfg.seed, cfg.duration_days, cfg.threads
    );
    let mut ds = Dataset::new(Platform::Speedchecker);
    let fstats = cloudy::measure::run_campaign_into(&campaign_cfg, &sim, &pop, &mut ds)?;
    let summary = ds.summary();
    println!(
        "campaign: {} pings + {} traceroutes from {} probes in {} countries",
        summary.pings, summary.traces, summary.probes, summary.countries
    );
    let stats = sim.route_cache().stats();
    println!(
        "route cache: {} hits, {} misses, {} entries ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.hit_rate() * 100.0
    );
    println!("{}", failure_summary(&fstats));
    if !campaign_cfg.faults.is_none() {
        reconcile_outcomes(&ds, &fstats)?;
        println!("failure accounting reconciles with the stored outcome tags");
    }
    if let Some(path) = out {
        write_file(&path, ds.to_jsonl())?;
    }
    metrics.emit(false)?;
    Ok(ExitCode::SUCCESS)
}

/// One-line rendering of the executor's failure accounting.
fn failure_summary(stats: &cloudy::measure::FailureStats) -> String {
    format!(
        "outcomes: {} delivered, {} lost, {} timeout, {} rate-limited, {} offline \
         ({} retries, {} recovered, {:.0} ms virtual backoff)",
        stats.ok,
        stats.lost,
        stats.timeout,
        stats.rate_limited,
        stats.probe_offline,
        stats.retries,
        stats.recovered,
        stats.backoff_ms
    )
}

/// With a faulted profile every planned task records exactly one outcome
/// row, so the dataset's tags must reconcile with the executor's
/// accounting class by class.
fn reconcile_outcomes(ds: &Dataset, stats: &cloudy::measure::FailureStats) -> Result<(), String> {
    use cloudy::measure::TaskOutcome;
    let mut tally = [0u64; 5]; // delivered, lost, timeout, offline, rate-limited
    for o in ds.pings.iter().map(|p| &p.outcome).chain(ds.traces.iter().map(|t| &t.outcome)) {
        match o {
            TaskOutcome::Ok(_) => tally[0] += 1,
            TaskOutcome::Lost => tally[1] += 1,
            TaskOutcome::Timeout(_) => tally[2] += 1,
            TaskOutcome::ProbeOffline => tally[3] += 1,
            TaskOutcome::RateLimited => tally[4] += 1,
        }
    }
    let expected = [stats.ok, stats.lost, stats.timeout, stats.probe_offline, stats.rate_limited];
    if tally != expected {
        return Err(format!(
            "outcome tags do not reconcile with the failure accounting: \
             stored [ok, lost, timeout, offline, rate-limited] = {tally:?}, executor reported \
             {expected:?}"
        ));
    }
    Ok(())
}

fn experiment_ids(names: Vec<String>) -> CliResult<Vec<ExperimentId>> {
    names
        .iter()
        .map(|p| {
            ExperimentId::parse(p)
                .ok_or_else(|| format!("unknown experiment {p:?} (see `cloudy-repro list`)").into())
        })
        .collect()
}

fn experiment(mut args: Args) -> CliResult {
    let cfg = study_config(&mut args)?;
    let ids = experiment_ids(args.positionals()?)?;
    if ids.is_empty() {
        return Err("experiment requires at least one id (see `cloudy-repro list`)".into());
    }
    eprintln!("running study (seed {}, {} days)...", cfg.seed, cfg.duration_days);
    let study = Study::run(cfg);
    for id in ids {
        println!("==== {} ====\n{}", id.label(), experiments::run_one(&study, id));
    }
    Ok(ExitCode::SUCCESS)
}

fn all(mut args: Args) -> CliResult {
    let cfg = study_config(&mut args)?;
    let out: Option<String> = args.value("--out")?;
    let csv_dir: Option<String> = args.value("--csv")?;
    args.finish()?;
    eprintln!("running study (seed {}, {} days)...", cfg.seed, cfg.duration_days);
    let study = Study::run(cfg);
    let mut doc = String::new();
    for (id, artifact) in experiments::run_all(&study) {
        println!("==== {} ====\n{artifact}", id.label());
        doc.push_str(&format!("## {}\n\n```text\n{artifact}\n```\n\n", id.label()));
    }
    if let Some(path) = out {
        write_file(&path, doc)?;
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for (name, csv) in experiments::export::export_csv(&study) {
            write_file(&format!("{dir}/{name}.csv"), csv)?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn analyze(mut args: Args) -> CliResult {
    let mut cfg = study_config(&mut args)?;
    let dir: Option<String> = args.value("--dir")?;
    let ids = experiment_ids(args.positionals()?)?;
    let Some(dir) = dir else {
        return Err("analyze requires --dir pointing at a `cloudy-repro run` export".into());
    };
    // The export's metadata overrides the command line: the world must be
    // rebuilt from the collecting run's seed or IP→AS resolution is wrong.
    let meta_path = format!("{dir}/study.meta");
    let meta = std::fs::read_to_string(&meta_path).map_err(|e| format!("read {meta_path}: {e}"))?;
    for line in meta.lines().filter(|l| !l.trim().is_empty()) {
        let bad = |e: &dyn Display| format!("{meta_path}: bad line {line:?}: {e}");
        let Some((key, value)) = line.split_once('=') else {
            return Err(bad(&"expected key=value").into());
        };
        match key {
            "seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "days" => cfg.duration_days = value.parse().map_err(|e| bad(&e))?,
            "sc_fraction" => cfg.sc_fraction = value.parse().map_err(|e| bad(&e))?,
            "atlas_fraction" => cfg.atlas_fraction = value.parse().map_err(|e| bad(&e))?,
            _ => {}
        }
    }
    check_study(&cfg).map_err(|e| format!("{meta_path}: {e}"))?;
    let (sc, atlas) = (load_store(&dir, EXPORT_STORES[0])?, load_store(&dir, EXPORT_STORES[1])?);
    eprintln!(
        "rebuilding world (seed {}) and analyzing {} + {} records...",
        cfg.seed,
        sc.len(),
        atlas.len()
    );
    let study = Study::from_datasets(cfg, sc, atlas);
    let ids = if ids.is_empty() { ExperimentId::ALL.to_vec() } else { ids };
    for id in ids {
        println!("==== {} ====\n{}", id.label(), experiments::run_one(&study, id));
    }
    Ok(ExitCode::SUCCESS)
}

/// Decode one store of a `run` export into a `Dataset`. The header's
/// platform must be the one the file name says, and the file must hold
/// user measurements only: a swapped or foreign store is an error, never a
/// mislabelled analysis.
fn load_store(dir: &str, (name, platform): (&str, Platform)) -> CliResult<Dataset> {
    let path = format!("{dir}/{name}");
    let data = std::fs::read(&path).map_err(|e| format!("read {path}: {e}"))?;
    let reader = Reader::from_bytes(data).map_err(|e| format!("{path}: {e}"))?;
    if reader.platform() != platform {
        let found = reader.platform().label();
        return Err(format!("{path}: holds {found} records, not {}", platform.label()).into());
    }
    if reader.chunks().iter().any(|m| m.footer.kind == RecordKind::CloudPing) {
        return Err(format!("{path}: holds inter-cloud rows, not a `run` export").into());
    }
    let mut ds = Dataset::new(platform);
    reader
        .for_each(&ScanFilter::default(), |rows| match rows {
            ChunkRows::Pings(p) => ds.pings.extend_from_slice(p),
            ChunkRows::Traces(t) => ds.traces.extend_from_slice(t),
            ChunkRows::CloudPings(_) => {}
        })
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(ds)
}

/// Open the one store file `store inspect` / `store query` names.
fn open_store(positionals: Vec<String>) -> CliResult<Reader> {
    let [path] = positionals.as_slice() else {
        return Err("expected exactly one store file argument".into());
    };
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    Ok(Reader::from_bytes(data).map_err(|e| format!("{path}: {e}"))?)
}

fn store_inspect(args: Args) -> CliResult {
    let reader = open_store(args.positionals()?)?;
    println!("platform: {}", reader.platform().label());
    let (mut pings, mut traces, mut clouds, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for m in reader.chunks() {
        match m.footer.kind {
            cloudy::store::RecordKind::Ping => pings += m.footer.rows,
            cloudy::store::RecordKind::Trace => traces += m.footer.rows,
            cloudy::store::RecordKind::CloudPing => clouds += m.footer.rows,
        }
        bytes += m.len;
    }
    println!(
        "chunks: {}  ping rows: {pings}  trace rows: {traces}  cloud rows: {clouds}  chunk bytes: {bytes}",
        reader.chunks().len()
    );
    println!("#     kind   provider  rows    rtt_ms           hours       countries");
    for (i, m) in reader.chunks().iter().enumerate() {
        let f = &m.footer;
        let rtt = match f.rtt_ms {
            Some((lo, hi)) => format!("{lo:.2}..{hi:.2}"),
            None => "-".to_string(),
        };
        println!(
            "{i:<5} {:<6} {:<9} {:<7} {rtt:<16} {:>4}..{:<6} {}",
            f.kind.label(),
            f.provider.abbrev(),
            f.rows,
            f.hour_min,
            f.hour_max,
            f.countries.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn store_query(mut args: Args) -> CliResult {
    use cloudy::store::{Agg, GroupId, GroupKey, RecordKind};
    let mut query = Query::rtts().threads(args.value("--threads")?.unwrap_or(4));
    if let Some(p) =
        args.choice("--provider", "a provider abbrev", cloudy::cloud::Provider::from_abbrev)?
    {
        query = query.provider(p);
    }
    if let Some(c) =
        args.choice("--country", "a two-letter code", cloudy::geo::CountryCode::try_new)?
    {
        query = query.country(c);
    }
    if let Some(asn) = args.value("--isp")? {
        query = query.isp(cloudy::topology::Asn(asn));
    }
    let kind = args.choice("--kind", "ping or trace", |k| match k {
        "ping" => Some(RecordKind::Ping),
        "trace" => Some(RecordKind::Trace),
        _ => None,
    })?;
    if let Some(kind) = kind {
        query = query.kind(kind);
    }
    if let Some(ms) = args.value("--min-rtt")? {
        query = query.min_rtt_ms(ms);
    }
    if let Some(ms) = args.value("--max-rtt")? {
        query = query.max_rtt_ms(ms);
    }
    let group_by =
        args.choice("--group-by", "country|provider|country-provider|country-region|isp", |k| {
            match k {
                "country" => Some(GroupKey::Country),
                "provider" => Some(GroupKey::Provider),
                "country-provider" => Some(GroupKey::CountryProvider),
                "country-region" => Some(GroupKey::CountryRegion),
                "isp" => Some(GroupKey::Isp),
                _ => None,
            }
        })?;
    let metrics = metrics(&mut args, None)?;
    let mut reader = open_store(args.positionals()?)?;
    reader.set_obs(metrics.obs.clone());

    if let Some(key) = group_by {
        // Aggregation pushed into the scan: O(groups) memory, no rows.
        let q = query.group_by(key).aggregate(Agg::Moments | Agg::P2Quantiles);
        let (groups, stats) = q.grouped(&reader)?;
        println!(
            "rows matched: {}  (chunks: {} scanned, {} pruned of {}; rows decoded: {})",
            stats.rows_matched,
            stats.chunks_scanned,
            stats.chunks_pruned,
            stats.chunks_total,
            stats.rows_decoded
        );
        metrics.emit(false)?;
        println!("group                     count     mean      p50       p95");
        for (id, row) in &groups {
            let label = match id {
                GroupId::Provider(p) => p.abbrev().to_string(),
                GroupId::Country(c) => c.as_str().to_string(),
                GroupId::Region(r) => format!("region {}", r.0),
                GroupId::Isp(a) => format!("AS{}", a.0),
                GroupId::CountryProvider(c, p) => format!("{} {}", c.as_str(), p.abbrev()),
                GroupId::CountryRegion(c, r) => format!("{} region {}", c.as_str(), r.0),
                GroupId::RoutePair(rc, src, dst) => {
                    format!("{} {}->{}", rc.label(), src.abbrev(), dst.abbrev())
                }
            };
            println!(
                "{label:<25} {:<9} {:<9.2} {:<9.2} {:<9.2}",
                row.count,
                row.moments.map(|m| m.mean()).unwrap_or(0.0),
                row.p50.unwrap_or(0.0),
                row.p95.unwrap_or(0.0)
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let (rows, stats) = query.rows(&reader)?;
    println!(
        "rows matched: {}  (chunks: {} scanned, {} pruned of {})",
        stats.rows_matched, stats.chunks_scanned, stats.chunks_pruned, stats.chunks_total
    );
    metrics.emit(false)?;
    if rows.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    let mut moments = cloudy::store::Moments::default();
    let rtts: Vec<f64> = rows.iter().map(|r| r.rtt_ms).collect();
    if rtts.iter().any(|v| v.is_nan()) {
        return Err("NaN RTT in store scan".into());
    }
    for v in &rtts {
        moments.observe(*v);
    }
    let cdf = cloudy::analysis::Cdf::new(rtts);
    println!(
        "median: {:.2} ms  mean: {:.2} ms  cv: {:.3}",
        cdf.median(),
        moments.mean(),
        moments.cv()
    );
    Ok(ExitCode::SUCCESS)
}

/// Run the virtual-time measurement service and print its report. The
/// report itself contains only virtual-time quantities (it is part of the
/// determinism contract); wall-clock throughput is printed separately.
fn serve(mut args: Args) -> CliResult {
    use cloudy::serve::{ServeConfig, Service};
    let mut cfg = ServeConfig { tenants: 50, ..ServeConfig::default() };
    cfg.tenants = args.value("--tenants")?.unwrap_or(cfg.tenants);
    cfg.hours = args.value("--hours")?.unwrap_or(cfg.hours);
    cfg.seed = args.value("--seed")?.unwrap_or(cfg.seed);
    cfg.threads = args.value("--threads")?.unwrap_or(cfg.threads);
    cfg.top_k = args.value("--top-k")?.unwrap_or(cfg.top_k);
    cfg.faults =
        args.choice("--faults", "none | default", FaultProfile::parse)?.unwrap_or(cfg.faults);
    let json = args.switch("--json");
    let store_out: Option<String> = args.value("--store")?;
    let metrics = metrics(&mut args, None)?;
    args.finish()?;
    if cfg.tenants == 0 {
        return Err("--tenants must be >= 1".into());
    }
    if cfg.hours == 0 {
        return Err("--hours must be >= 1".into());
    }
    cfg.obs = metrics.obs.clone();
    eprintln!(
        "serving {} tenants for {} virtual hours (seed {}, {} threads)...",
        cfg.tenants, cfg.hours, cfg.seed, cfg.threads
    );
    // Wall clock is reported on stderr only, never in the report itself.
    // An always-on obs handle is the sanctioned way to read the clock.
    let wall_clock = Obs::enabled();
    let started = wall_clock.now();
    let mut svc = Service::new(cfg)?;
    svc.run()?;
    let (report, bytes) = svc.finish()?;
    let wall = started.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0);
    if json {
        println!("{}", serde_json::to_string(&report)?);
    } else {
        println!(
            "service report (seed {}, {} tenants, {} virtual hours, faults {})",
            report.seed, report.tenants, report.hours, report.faults
        );
        println!(
            "  events {}  submissions {}  admitted {}  rejected {}  deferred {}",
            report.events, report.submissions, report.admitted, report.rejected, report.deferred
        );
        println!(
            "  tasks executed {}  offline skipped {}  records {}  store bytes {}",
            report.tasks_executed, report.offline_skipped, report.records, report.store_bytes
        );
        println!(
            "  virtual throughput {:.0} records/s over {:.1} virtual hours",
            report.virtual_records_per_s,
            report.virtual_ms as f64 / 3_600_000.0
        );
        println!("\n  tenant       tier    sub  adm  rej  def     tasks   records  offline");
        for t in &report.per_tenant {
            println!(
                "  {:<12} {:<7} {:>4} {:>4} {:>4} {:>4} {:>9} {:>9} {:>8}",
                t.name,
                t.priority,
                t.submissions,
                t.admitted,
                t.rejected,
                t.deferred,
                t.tasks_executed,
                t.records,
                t.offline_skipped
            );
        }
        if !report.top_groups.is_empty() {
            println!("\n  top groups by sample count:");
            println!("  country  provider             samples   mean ms    p50 ms    p95 ms");
            for g in &report.top_groups {
                println!(
                    "  {:<8} {:<20} {:>8} {:>9.2} {:>9.2} {:>9.2}",
                    g.country, g.provider, g.samples, g.mean_ms, g.p50_ms, g.p95_ms
                );
            }
        }
    }
    eprintln!(
        "wall clock: {wall:.2}s ({:.0} records/s)",
        if wall > 0.0 { report.records as f64 / wall } else { 0.0 }
    );
    if let Some(path) = store_out {
        write_file(&path, &bytes)?;
    }
    metrics.emit(false)?;
    // The report must agree with its own per-tenant breakdown; a service
    // whose totals drifted must not exit 0.
    let problems = report.reconcile();
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("reconcile: {p}");
        }
        return Err("service report does not reconcile with its per-tenant tables".into());
    }
    Ok(ExitCode::SUCCESS)
}

fn intercloud(mut args: Args) -> CliResult {
    use cloudy::cloud::region;
    use cloudy::intercloud::{
        choose, latency_matrix, median_gap_ms, run_into, stats_from_store, IntercloudConfig,
    };

    let mut cfg = IntercloudConfig { hours: 6, threads: 4, ..IntercloudConfig::default() };
    cfg.seed = args.value("--seed")?.unwrap_or(cfg.seed);
    cfg.hours = args.value("--hours")?.unwrap_or(cfg.hours);
    cfg.samples_per_hour = args.value("--samples")?.unwrap_or(cfg.samples_per_hour);
    cfg.regions_per_provider =
        args.value("--regions-per-provider")?.unwrap_or(cfg.regions_per_provider);
    cfg.threads = args.value("--threads")?.unwrap_or(cfg.threads);
    let k: usize = args.value("--k")?.unwrap_or(3);
    let out: Option<String> = args.value("--out")?;
    args.finish()?;

    eprintln!(
        "inter-cloud campaign: {} providers x {} region(s), {} hours, seed {}, {} threads...",
        cfg.providers.len(),
        cfg.regions_per_provider,
        cfg.hours,
        cfg.seed,
        cfg.threads
    );
    let mut writer = Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default())?;
    let stats = run_into(&cfg, &mut writer)?;
    let (bytes, summary) = writer.finish()?;
    println!(
        "{} tasks -> {} records ({} delivered, {} lost), {} store rows in {} bytes",
        stats.tasks,
        stats.delivered + stats.lost,
        stats.delivered,
        stats.lost,
        summary.cloud_rows,
        bytes.len()
    );
    if let Some(path) = &out {
        write_file(path, &bytes)?;
    }

    let rows = latency_matrix(&Reader::from_bytes(bytes)?)?;
    println!("\nprovider latency-gap matrix (median RTT, ms):");
    println!("  src  -> dst     private    public       gap         n");
    for r in &rows {
        println!(
            "  {:<4} -> {:<4} {:>9.2} {:>9.2} {:>9.2} {:>5}/{:<5}",
            r.src.abbrev(),
            r.dst.abbrev(),
            r.private_p50_ms,
            r.public_p50_ms,
            r.gap_ms,
            r.private_count,
            r.public_count
        );
    }
    if let Some(gap) = median_gap_ms(&rows) {
        println!("median private-vs-public gap across pairs: {gap:.2} ms");
    }

    eprintln!("\nrunning user campaign for placement aggregates...");
    let mut scfg = StudyConfig::tiny(cfg.seed);
    scfg.sc_fraction = 0.02;
    scfg.duration_days = 2;
    let (campaign, sim, pop) = speedchecker_campaign(&scfg, &Obs::disabled(), false)?;
    let mut users = Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default())?;
    cloudy::measure::run_campaign_into(&campaign, &sim, &pop, &mut users)?;
    let mut pstats = stats_from_store(&Reader::from_bytes(users.finish()?.0)?)?;
    let all_candidates = pstats.candidates.len();
    // The exact search is exponential in the candidate count; greedily
    // keep a complementary shortlist first.
    pstats.restrict_to_top(k.max(16));
    let placement = choose(&pstats, k)?;
    println!(
        "\nplacement: best {} of {} candidate regions ({} before shortlisting):",
        placement.regions.len(),
        pstats.candidates.len(),
        all_candidates
    );
    for id in &placement.regions {
        match region::by_id(*id) {
            Some(r) => println!("  {:<4} {} ({})", r.provider.abbrev(), r.name, r.city),
            None => println!("  region #{}", id.0),
        }
    }
    if placement.p95_ms.is_finite() {
        println!("global weighted p95: {:.2} ms", placement.p95_ms);
    } else {
        println!(
            "global weighted p95: unbounded — more than 5% of user weight has no\n\
             measured latency to any chosen region; raise --k for full coverage"
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Parsed `--metrics FORMAT` / `--trace-out FILE` options plus the obs
/// handle they imply: disabled when neither is present, trace-collecting
/// when a trace file is requested.
struct Metrics {
    obs: Obs,
    format: Option<&'static str>,
    trace_out: Option<String>,
}

/// Read `--metrics` and `--trace-out` and build the obs handle. A
/// `default_format` collects even when neither flag is given.
fn metrics(args: &mut Args, default_format: Option<&'static str>) -> CliResult<Metrics> {
    let format = args
        .choice("--metrics", "text|json", |f| ["text", "json"].into_iter().find(|&k| k == f))?
        .or(default_format);
    let trace_out: Option<String> = args.value("--trace-out")?;
    let obs = match (format, &trace_out) {
        (_, Some(_)) => Obs::with_trace(),
        (Some(_), None) => Obs::enabled(),
        (None, None) => Obs::disabled(),
    };
    Ok(Metrics { obs, format, trace_out })
}

impl Metrics {
    /// Print the snapshot and write the trace file. Metrics go to stderr so
    /// they never mix into a command's primary stdout output (JSONL
    /// exports, `--json` reports, ...); pass `to_stdout` when the metrics
    /// ARE the primary output (`cloudy-repro obs`).
    fn emit(&self, to_stdout: bool) -> Result<(), String> {
        if let (Some(format), Some(snap)) = (self.format, self.obs.snapshot()) {
            let rendered = if format == "json" { snap.render_json() } else { snap.render_text() };
            if to_stdout {
                println!("{rendered}");
            } else {
                eprintln!("{rendered}");
            }
        }
        if let Some(path) = &self.trace_out {
            write_file(path, self.obs.trace_json().unwrap_or_default())?;
        }
        Ok(())
    }
}

/// `cloudy-repro obs` — run one instrumented campaign end to end (executor
/// → store write → store scan) and print the merged metrics snapshot.
/// The snapshot is the primary output here, so it goes to stdout.
fn obs_summary(mut args: Args) -> CliResult {
    let cfg = study_config(&mut args)?;
    let metrics = metrics(&mut args, Some("text"))?;
    args.finish()?;
    let (campaign_cfg, sim, pop) = speedchecker_campaign(&cfg, &metrics.obs, false)?;
    eprintln!(
        "instrumented campaign + store round-trip (seed {}, {} days, {} threads)...",
        cfg.seed, cfg.duration_days, cfg.threads
    );
    let mut writer = Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default())?;
    writer.set_obs(metrics.obs.clone());
    cloudy::measure::run_campaign_into(&campaign_cfg, &sim, &pop, &mut writer)?;
    let mut reader = Reader::from_bytes(writer.finish()?.0)?;
    reader.set_obs(metrics.obs.clone());
    Query::rtts().threads(cfg.threads).rows(&reader)?;
    metrics.emit(true)?;
    Ok(ExitCode::SUCCESS)
}
