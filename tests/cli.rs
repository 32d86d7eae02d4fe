//! The `cloudy-repro` surface, pinned: every invocation the docs and CI
//! show runs here at a small size, and its stdout must match a committed
//! fixture under `tests/fixtures/cli/` byte for byte. A change to what a
//! user sees shows up as a reviewed fixture diff.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! CLOUDY_BLESS=1 cargo test --test cli
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Study flags that keep every study-sized command to about a second.
const SMALL: [&str; 6] = ["--days", "1", "--sc-fraction", "0.01", "--atlas-fraction", "0.05"];

/// A fresh directory per test. Commands run inside it and take relative
/// paths, so no absolute path can reach a fixture.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cloudy-repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("cloudy-repro runs")
}

/// `args` followed by the small study flags.
fn small<'a>(args: &[&'a str]) -> Vec<&'a str> {
    [args, &SMALL[..]].concat()
}

/// Run a command that must exit 0 and return its stdout.
fn stdout_of(dir: &Path, args: &[&str]) -> String {
    let out = repro(dir, args);
    assert!(
        out.status.success(),
        "{args:?} exited {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("cli")
        .join(format!("{name}.txt"));
    if std::env::var_os("CLOUDY_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir has a parent"))
            .expect("create fixture dir");
        std::fs::write(&path, got).expect("write blessed fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{} unreadable ({e}); run with CLOUDY_BLESS=1 to create it", path.display())
    });
    assert_eq!(got, want, "stdout of {name} changed; bless only if the change is intentional");
}

#[test]
fn list_and_world() {
    let dir = scratch("list_and_world");
    check("list", &stdout_of(&dir, &["list"]));
    check("world_seed7", &stdout_of(&dir, &["world", "--seed", "7"]));
}

/// `analyze --dir DIR fig3` must exit 2 with an error that names `want`.
fn rejects(dir: &Path, export: &str, want: &str) {
    let out = repro(dir, &["analyze", "--dir", export, "fig3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{export} accepted:\n{stderr}");
    assert!(stderr.contains(want), "{export}: no {want:?} in:\n{stderr}");
}

#[test]
fn run_export_then_analyze() {
    let dir = scratch("run_export_then_analyze");
    check("run", &stdout_of(&dir, &small(&["run", "--out", "export"])));
    check("analyze_fig3", &stdout_of(&dir, &["analyze", "--dir", "export", "fig3"]));
    // Read back from the stores, every figure prints what `all` prints for
    // the same flags, so no figure may depend on record order.
    check("all", &stdout_of(&dir, &["analyze", "--dir", "export"]));
    // A store that is not what its file name says, or that does not
    // decode, is an error naming the file, never a figure.
    let export = dir.join("export");
    let sc = std::fs::read(export.join("speedchecker.cst")).expect("read speedchecker.cst");
    let atlas = std::fs::read(export.join("atlas.cst")).expect("read atlas.cst");
    let cut = sc[..sc.len() / 2].to_vec();
    let cases = [(atlas, "holds RIPE Atlas records"), (cut, "corrupt store: no store trailer")];
    for (bytes, reason) in cases {
        std::fs::write(export.join("speedchecker.cst"), bytes).expect("rewrite speedchecker.cst");
        rejects(&dir, "export", &format!("export/speedchecker.cst: {reason}"));
    }
    // A JSON-lines export is not read, however deeply it nests.
    let jsonl = dir.join("jsonl");
    std::fs::create_dir_all(&jsonl).expect("create jsonl export");
    std::fs::copy(export.join("study.meta"), jsonl.join("study.meta")).expect("copy study.meta");
    std::fs::write(jsonl.join("speedchecker.jsonl"), "[".repeat(200_000)).expect("write jsonl");
    rejects(&dir, "jsonl", "read jsonl/speedchecker.cst");
    // A metadata value that does not parse, or merges out of range, is an
    // error: falling back to the command line would rebuild the wrong world.
    for meta in ["seed=4x2\n", "seed=42\ndays=1\nsc_fraction=0\n"] {
        std::fs::write(export.join("study.meta"), meta).expect("rewrite study.meta");
        let out = repro(&dir, &["analyze", "--dir", "export", "--seed", "9", "fig3"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{meta:?} accepted:\n{stderr}");
        assert!(stderr.contains("study.meta"), "{stderr}");
    }
    // A `run` that fails leaves no `study.meta` behind, not even the last
    // one, so a directory that holds one is a complete export.
    std::fs::remove_file(export.join("atlas.cst")).expect("remove atlas.cst");
    std::fs::create_dir(export.join("atlas.cst")).expect("block atlas.cst");
    let out = repro(&dir, &small(&["run", "--out", "export"]));
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!export.join("study.meta").exists(), "a failed run left study.meta");
}

/// Every subcommand rejects a flag it does not accept, names it, and
/// exits 2 before doing any work.
#[test]
fn unknown_flags_exit_2() {
    let dir = scratch("unknown_flags_exit_2");
    let commands: [&[&str]; 14] = [
        &["list"],
        &["world"],
        &["run"],
        &["analyze", "--dir", "export"],
        &["campaign"],
        &["experiment", "fig3"],
        &["all"],
        &["store", "inspect", "st.cst"],
        &["store", "query", "st.cst"],
        &["serve"],
        &["intercloud"],
        &["obs"],
        &["audit"],
        &["audit", "lint"],
    ];
    for command in commands {
        let args = [command, &["--sed", "7"]].concat();
        let out = repro(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} exited {:?}:\n{stderr}",
            out.status.code()
        );
        assert!(stderr.contains("\"--sed\""), "{args:?}: {stderr}");
    }
    // `run` writes the stores; `store write` is gone.
    let out = repro(&dir, &["store", "write"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown store subcommand \"write\""), "{stderr}");
    // `audit --pass world` runs the world invariants; `--static` and
    // `world --audit` are gone.
    for args in [["audit", "--static"], ["world", "--audit"]] {
        let out = repro(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("{:?}", args[1])), "{args:?}: {stderr}");
    }
}

#[test]
fn campaign_variants() {
    let dir = scratch("campaign_variants");
    check("campaign", &stdout_of(&dir, &small(&["campaign"])));
    check("campaign_pings_only", &stdout_of(&dir, &small(&["campaign", "--pings-only"])));
    let faulted = stdout_of(&dir, &small(&["campaign", "--faults", "default"]));
    assert!(faulted.contains("reconciles with the stored outcome tags"), "{faulted}");
    check("campaign_faults_default", &faulted);
}

/// Metrics go to stderr and the trace to a file: the primary stdout bytes
/// are the same with observability on or off.
#[test]
fn campaign_stdout_is_unchanged_by_metrics_and_trace() {
    let dir = scratch("campaign_stdout_is_unchanged_by_metrics_and_trace");
    let plain = stdout_of(&dir, &small(&["campaign"]));
    let out = repro(&dir, &small(&["campaign", "--metrics", "json", "--trace-out", "trace.json"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "instrumented campaign failed:\n{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), plain);
    assert!(stderr.contains("\"campaign.tasks.executed\""), "{stderr}");
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace written");
    assert!(trace.contains("\"traceEvents\""), "{trace}");
}

#[test]
fn experiment_figures() {
    let dir = scratch("experiment_figures");
    check("experiment_fig10_fig13", &stdout_of(&dir, &small(&["experiment", "fig10", "fig13"])));
}

#[test]
fn experiment_ablations() {
    let dir = scratch("experiment_ablations");
    let ablations =
        ["experiment", "ablation_routing", "ablation_wan", "ablation_bias", "ablation_lastmile"];
    check("experiment_ablations", &stdout_of(&dir, &small(&ablations)));
}

#[test]
fn all_figures_to_markdown_and_csv() {
    let dir = scratch("all_figures_to_markdown_and_csv");
    check("all", &stdout_of(&dir, &small(&["all", "--out", "all.md", "--csv", "csv"])));
    let doc = std::fs::read_to_string(dir.join("all.md")).expect("--out written");
    assert!(doc.starts_with("## "), "{doc}");
    let csvs = std::fs::read_dir(dir.join("csv")).expect("--csv written").count();
    assert!(csvs > 0, "no CSV files written");
}

#[test]
fn store_inspect_query() {
    let dir = scratch("store_inspect_query");
    stdout_of(&dir, &small(&["run", "--out", "st"]));
    let file = "st/speedchecker.cst";
    check("store_inspect", &stdout_of(&dir, &["store", "inspect", file]));
    check("store_query", &stdout_of(&dir, &["store", "query", file]));
    check("store_query_country", &stdout_of(&dir, &["store", "query", file, "--country", "DE"]));
    check(
        "store_query_group_by",
        &stdout_of(&dir, &["store", "query", file, "--group-by", "country-provider"]),
    );
}

#[test]
fn serve_text_report() {
    let dir = scratch("serve_text_report");
    check("serve", &stdout_of(&dir, &["serve", "--tenants", "12", "--hours", "1"]));
}

#[test]
fn serve_json_report() {
    let dir = scratch("serve_json_report");
    check("serve_json", &stdout_of(&dir, &["serve", "--tenants", "12", "--hours", "1", "--json"]));
}

#[test]
fn intercloud_gap_matrix_and_placement() {
    let dir = scratch("intercloud_gap_matrix_and_placement");
    let args = ["intercloud", "--hours", "2", "--regions-per-provider", "1", "--out", "clouds.cst"];
    let out = stdout_of(&dir, &args);
    assert!(out.contains("median private-vs-public gap"), "{out}");
    check("intercloud", &out);
    // The cloud-ping store names the Speedchecker platform, but it is not
    // a `run` export: `analyze` refuses it rather than analyse no records.
    let export = dir.join("export");
    std::fs::create_dir_all(&export).expect("create export");
    std::fs::write(export.join("study.meta"), "seed=42\n").expect("write study.meta");
    std::fs::copy(dir.join("clouds.cst"), export.join("speedchecker.cst")).expect("copy store");
    rejects(&dir, "export", "export/speedchecker.cst: holds inter-cloud rows");
}

#[test]
fn audit_world_pass() {
    let dir = scratch("audit_world_pass");
    check("audit_world", &stdout_of(&dir, &["audit", "--pass", "world"]));
}

/// `obs` prints span timings, so only its exit status and metric names
/// are stable.
#[test]
fn obs_prints_the_metric_names() {
    let dir = scratch("obs_prints_the_metric_names");
    for format in [&[][..], &["--metrics", "json"]] {
        let args = [&["obs", "--days", "1", "--sc-fraction", "0.01"][..], format].concat();
        let out = stdout_of(&dir, &args);
        for name in ["campaign.tasks.executed", "store.rows.ping", "store.scan.rows_matched"] {
            assert!(out.contains(name), "{args:?} snapshot lacks {name}:\n{out}");
        }
    }
}
