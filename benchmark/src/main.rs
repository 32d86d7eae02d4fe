//! `cloudy-bench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cloudy-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!              [--trace-dir DIR] [--smoke]
//! ```
//!
//! Repetitions run round-robin over the chosen workloads (W1 W2 W3 W4, W1 W2
//! ...), so drift on the host hits every workload alike, until `--seconds`
//! have passed and at least [`MIN_ROUNDS`] rounds have run. Each repetition
//! is a child process of this binary (`cloudy-bench child ...`), so its
//! peak RSS is its own and every repetition doubles as a cross-process
//! determinism check. With `--trace 1` every round adds one traced
//! repetition per workload, which times each layer from outside and writes
//! a Chrome trace and a self-time table to `--trace-dir`.
//!
//! Output: one `workload metric value unit` line per metric, then a report
//! document (schema version, host, seed, median/q1/q3/n per metric), then
//! the result line `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. The exit
//! status is 1 when an output check fails and 2 on a usage error.
//!
//! `cloudy-bench compare BASE CHANGE` reads the result lines of two sets
//! of runs and gives each end-to-end metric a verdict (see `compare.rs`).

mod check;
mod compare;
mod stats;
mod trace;
mod workload;

use stats::{tail_percentile, Summary};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Recorder;
use workload::query_mix::Class;
use workload::{Workload, PER_LAYER};

const USAGE: &str =
    "usage: cloudy-bench [--workload repro|campaign_ping|campaign_fresh|query_mix|all] \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]";

/// Rounds run even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 5;

/// Version of the report document's layout.
const SCHEMA_VERSION: u32 = 1;

/// The end-to-end metrics (name, unit), in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MiB"),
];

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    smoke: bool,
    /// Set in a child: run one traced repetition under this run id.
    run: Option<u32>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        trace_dir: PathBuf::from("target/cloudy-bench-trace"),
        smoke: false,
        run: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => opts.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                opts.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--trace-dir" => opts.trace_dir = PathBuf::from(value),
            "--run" => opts.run = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (is_child, args) = match args.split_first() {
        Some((first, rest)) if first == "compare" => return compare_files(rest),
        Some((first, rest)) if first == "child" => (true, rest),
        _ => (false, &args[..]),
    };
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cloudy-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if is_child {
        child(&opts)
    } else {
        parent(&opts)
    }
}

/// `compare BASE CHANGE`: exit 1 if CHANGE regresses any end-to-end metric.
fn compare_files(args: &[String]) -> ExitCode {
    let [base, change] = args else {
        eprintln!("usage: cloudy-bench compare BASE CHANGE (files of run output)");
        return ExitCode::from(2);
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match (read("BENCHMARK.json"), read(base), read(change)) {
        (Ok(bench), Ok(base), Ok(change)) => match compare::compare(&bench, &base, &change) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("cloudy-bench compare: {e}");
                ExitCode::from(2)
            }
        },
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("cloudy-bench compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// One repetition, in this process. Prints `ready` when set-up is done,
/// then the repetition's report as `key value` lines for the parent.
fn child(opts: &Options) -> ExitCode {
    let [w] = opts.workloads[..] else {
        eprintln!(
            "cloudy-bench child: exactly one --workload, got {}",
            opts.workloads.len()
        );
        return ExitCode::from(2);
    };
    let rec = opts.run.map_or_else(Recorder::off, Recorder::on);
    let rep = w.run(opts.seed, opts.smoke, &rec, &mut || println!("ready"));
    let mut out = format!(
        "wall_s {}\nrecords {}\npeak_rss_mb {}\ndigest {:016x}\nops {} {}\n",
        rep.wall_s, rep.records, rep.peak_rss_mb, rep.digest, rep.attempted, rep.failed
    );
    if let Some(c) = rep.content {
        out.push_str(&format!("content {c:016x}\n"));
    }
    for f in &rep.failures {
        out.push_str(&format!("fail {f}\n"));
    }
    for (name, v) in &rep.extra {
        out.push_str(&format!("x {name} {v}\n"));
    }
    for (class, ms) in &rep.latencies {
        out.push_str(&format!("lat {class} {ms}\n"));
    }
    if let Some(run) = opts.run {
        let stem = opts
            .trace_dir
            .join(format!("{}-seed{}-run{run}", w.name(), opts.seed));
        let written = std::fs::create_dir_all(&opts.trace_dir)
            .and_then(|()| std::fs::write(stem.with_extension("trace.json"), rec.chrome_json()))
            .and_then(|()| {
                std::fs::write(stem.with_extension("selftime.txt"), rec.self_time_table())
            });
        if let Err(e) = written {
            out.push_str(&format!(
                "fail trace_files: {}: {e}\n",
                opts.trace_dir.display()
            ));
        }
    }
    print!("{out}");
    ExitCode::SUCCESS
}

/// What the parent learned from one child repetition.
#[derive(Debug, Default)]
struct Outcome {
    traced: bool,
    /// From launching the child to its `ready` line.
    setup_s: f64,
    values: BTreeMap<String, f64>,
    digest: Option<String>,
    content: Option<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    latencies: Vec<(String, f64)>,
}

fn run_child(opts: &Options, w: Workload, run: Option<u32>) -> Outcome {
    let mut out = Outcome {
        traced: run.is_some(),
        ..Outcome::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            out.failures
                .push(format!("cannot locate own executable: {e}"));
            return out;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        w.name(),
        "--seed",
        &opts.seed.to_string(),
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let Some(run) = run {
        cmd.arg("--run")
            .arg(run.to_string())
            .arg("--trace-dir")
            .arg(&opts.trace_dir);
    }
    let launched = Instant::now();
    let mut child = match cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn() {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("cannot start a repetition: {e}"));
            return out;
        }
    };
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("ready"), None, None) => out.setup_s = launched.elapsed().as_secs_f64(),
                (Some("digest"), Some(d), None) => out.digest = Some(d.to_string()),
                (Some("content"), Some(d), None) => out.content = Some(d.to_string()),
                (Some("ops"), Some(a), Some(f)) => {
                    out.attempted = a.parse().unwrap_or(0);
                    out.failed = f.parse().unwrap_or(0);
                }
                (Some("fail"), Some(first), rest) => {
                    out.failures
                        .push(format!("{first} {}", rest.unwrap_or_default()));
                }
                (Some("x"), Some(name), Some(v)) => {
                    out.values
                        .insert(name.to_string(), v.parse().unwrap_or(f64::NAN));
                }
                (Some("lat"), Some(class), Some(ms)) => {
                    out.latencies
                        .push((class.to_string(), ms.parse().unwrap_or(f64::NAN)));
                }
                (Some(key), Some(v), None) => {
                    out.values
                        .insert(key.to_string(), v.parse().unwrap_or(f64::NAN));
                }
                _ => out
                    .failures
                    .push(format!("unreadable line from repetition: {line:?}")),
            }
        }
    }
    match child.wait() {
        Ok(status) if status.success() => {}
        Ok(status) => out
            .failures
            .push(format!("repetition exited with {status}")),
        Err(e) => out
            .failures
            .push(format!("cannot wait for repetition: {e}")),
    }
    if out.digest.is_none() && out.failures.is_empty() {
        out.failures
            .push("repetition reported no output digest".into());
    }
    out
}

/// Medians and quartiles of one workload's repetitions.
struct WorkloadResult {
    workload: Workload,
    plain_reps: usize,
    traced_reps: usize,
    /// (metric, unit, summary) in print order.
    metrics: Vec<(String, &'static str, Summary)>,
    digest: String,
    content: String,
    attempted: u64,
    failed: u64,
}

fn summarize(opts: &Options, w: Workload, outcomes: &[Outcome]) -> WorkloadResult {
    // A repetition that died before reporting still counts as one failed
    // operation; one more check asks that every repetition, traced or not,
    // wrote the same output.
    let digests: BTreeSet<&str> = outcomes
        .iter()
        .filter_map(|o| o.digest.as_deref())
        .collect();
    let attempted: u64 = 1 + outcomes.iter().map(|o| o.attempted.max(1)).sum::<u64>();
    let failed: u64 = u64::from(digests.len() != 1)
        + outcomes
            .iter()
            .map(|o| {
                if o.failures.is_empty() {
                    o.failed
                } else {
                    o.failed.max(1)
                }
            })
            .sum::<u64>();
    if digests.len() != 1 {
        eprintln!(
            "cloudy-bench: {}: repetitions disagree on the output digest: {digests:?}",
            w.name()
        );
    }
    for f in outcomes.iter().flat_map(|o| &o.failures) {
        eprintln!("cloudy-bench: {}: {f}", w.name());
    }
    let plain: Vec<&Outcome> = outcomes.iter().filter(|o| !o.traced).collect();
    let traced: Vec<&Outcome> = outcomes.iter().filter(|o| o.traced).collect();
    let series = |reps: &[&Outcome], f: &dyn Fn(&Outcome) -> Option<f64>| -> Vec<f64> {
        reps.iter()
            .filter_map(|o| f(o))
            .filter(|v| v.is_finite())
            .collect()
    };
    let value = |name: &'static str| move |o: &Outcome| o.values.get(name).copied();
    let mut metrics: Vec<(String, &'static str, Summary)> = Vec::new();
    let mut push = |name: &str, unit: &'static str, values: &[f64]| {
        if let Some(s) = Summary::of(values) {
            metrics.push((name.to_string(), unit, s));
        }
    };

    push(
        "setup_s",
        "s",
        &series(&plain, &|o| Some(o.setup_s).filter(|&s| s > 0.0)),
    );
    push("wall_s", "s", &series(&plain, &value("wall_s")));
    push(
        "records_per_s",
        "records/s",
        &series(&plain, &|o| {
            Some(o.values.get("records")? / o.values.get("wall_s")?)
        }),
    );
    push("peak_rss_mb", "MiB", &series(&plain, &value("peak_rss_mb")));
    push("failed_ratio", "ratio", &[failed as f64 / attempted as f64]);
    push(
        "store_bytes_per_record",
        "B/record",
        &series(&plain, &value("store_bytes_per_record")),
    );
    push(
        "queries_per_s",
        "queries/s",
        &series(&plain, &value("queries_per_s")),
    );
    let mut latencies: Vec<f64> = plain
        .iter()
        .flat_map(|o| o.latencies.iter().map(|l| l.1))
        .collect();
    latencies.sort_by(f64::total_cmp);
    if let Some(p50) = stats::percentile(&latencies, 50.0) {
        push("query_p50_ms", "ms", &[p50]);
        if let Some((p, v)) = tail_percentile(&latencies) {
            push(&format!("query_p{p}_ms"), "ms", &[v]);
        }
        push("query_samples", "count", &[latencies.len() as f64]);
        for class in Class::ALL {
            let mut v: Vec<f64> = plain
                .iter()
                .flat_map(|o| {
                    o.latencies
                        .iter()
                        .filter(|l| l.0 == class.name())
                        .map(|l| l.1)
                })
                .collect();
            v.sort_by(f64::total_cmp);
            if let Some(p50) = stats::percentile(&v, 50.0) {
                push(
                    &format!("store.query.{}.p50_ms", class.name()),
                    "ms",
                    &[p50],
                );
            }
        }
    }
    if opts.trace {
        for (name, unit) in PER_LAYER {
            if name == "trace.overhead_ratio" {
                let (t, p) = (
                    series(&traced, &value("wall_s")),
                    series(&plain, &value("wall_s")),
                );
                if let (Some(t), Some(p)) = (Summary::of(&t), Summary::of(&p)) {
                    push(name, unit, &[t.median / p.median]);
                }
            } else {
                push(
                    name,
                    unit,
                    &series(&traced, &|o| o.values.get(name).copied()),
                );
            }
        }
    }
    WorkloadResult {
        workload: w,
        plain_reps: plain.len(),
        traced_reps: traced.len(),
        metrics,
        digest: digests.into_iter().collect::<Vec<_>>().join(","),
        content: outcomes
            .iter()
            .filter_map(|o| o.content.as_deref())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
            .join(","),
        attempted,
        failed,
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays parseable.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn parent(opts: &Options) -> ExitCode {
    if opts.workloads.contains(&Workload::Repro) {
        eprintln!(
            "cloudy-bench: warning: Fig. 14 rows tied on spread and Fig. 1b continents tied on \
             probe count come out in HashMap order, so `cloudy-repro all` output can differ \
             between runs; the repro check compares those two sections as sorted sets of rows"
        );
    }
    let started = Instant::now();
    let mut outcomes: Vec<Vec<Outcome>> = opts.workloads.iter().map(|_| Vec::new()).collect();
    let mut rounds = 0;
    let mut next_run = 0u32;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < opts.seconds {
        for (i, &w) in opts.workloads.iter().enumerate() {
            outcomes[i].push(run_child(opts, w, None));
            if opts.trace {
                next_run += 1;
                outcomes[i].push(run_child(opts, w, Some(next_run)));
            }
        }
        rounds += 1;
    }

    let results: Vec<WorkloadResult> = opts
        .workloads
        .iter()
        .zip(&outcomes)
        .map(|(&w, o)| summarize(opts, w, o))
        .collect();
    for r in &results {
        for (name, unit, s) in &r.metrics {
            println!("{} {name} {} {unit}", r.workload.name(), s.median);
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut doc = format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"host\":{{\"nproc\":{nproc},\"build_profile\":\"{profile}\"}},\
         \"seed\":{},\"seconds\":{},\"smoke\":{},\"trace\":{},\"workloads\":{{",
        opts.seed,
        num(opts.seconds),
        opts.smoke,
        opts.trace
    );
    for (i, r) in results.iter().enumerate() {
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                format!(
                    "\"{name}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"unit\":\"{unit}\"}}",
                    num(s.median),
                    num(s.q1),
                    num(s.q3),
                    s.n
                )
            })
            .collect();
        doc.push_str(&format!(
            "{}\"{}\":{{\"reps\":{},\"traced_reps\":{},\"digest\":\"{}\",\"content_digest\":\"{}\",\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            if i > 0 { "," } else { "" },
            r.workload.name(),
            r.plain_reps,
            r.traced_reps,
            r.digest,
            r.content,
            r.attempted,
            r.failed,
            metrics.join(",")
        ));
    }
    doc.push_str("}}");
    println!("{doc}");

    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let result_metrics: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut entries = Vec::new();
    for r in &results {
        for (name, unit) in result_metrics {
            let key = if results.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", r.workload.name())
            };
            let value = r
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .map_or(0.0, |m| m.2.median);
            entries.push(format!(
                "\"{key}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)
            ));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        entries.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
