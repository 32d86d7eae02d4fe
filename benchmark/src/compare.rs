//! `cloudy-bench compare BASE CHANGE`: judge a change against its parent,
//! or two sets of runs of one commit against each other.
//!
//! Each file holds the output of several runs of one workload (or of
//! `--workload all`); the result lines — the ones starting with
//! `{"correct"` — are read in order, so with alternating parent/change
//! runs the i-th line of each file forms a pair. Bounds and directions
//! come from `BENCHMARK.json` in the current directory.

use crate::stats::{agrees, Summary};
use serde_json::Value;
use std::collections::BTreeMap;

/// A change wins a metric only if it is better in this share of pairs.
const WIN_SHARE: f64 = 0.9;

struct Bound {
    lower_is_better: bool,
    bound: f64,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn bounds(bench_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc: Value =
        serde_json::from_str(bench_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = BTreeMap::new();
    for m in metrics {
        let (Some(Value::Str(name)), Some(Value::Str(better)), Some(bound)) =
            (m.get("name"), m.get("better"), m.get("bound").and_then(num))
        else {
            return Err(format!("malformed end_to_end entry {m:?}"));
        };
        out.insert(
            name.clone(),
            Bound {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(out)
}

/// Metric values of every result line in `text`, by metric key.
fn runs(text: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("{\"correct\"")) {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            continue;
        };
        for (key, m) in metrics {
            if let Some(v) = m.get("value").and_then(num) {
                out.entry(key.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Print one verdict per end-to-end metric; `Ok(false)` if any metric of
/// CHANGE is worse than BASE by more than its bound.
pub fn compare(bench_json: &str, base: &str, change: &str) -> Result<bool, String> {
    let bounds = bounds(bench_json)?;
    let (base, change) = (runs(base)?, runs(change)?);
    let mut clean = true;
    println!("metric base_median base_iqr change_median change_iqr change_wins verdict");
    for (key, b) in &base {
        let name = key.rsplit('/').next().unwrap_or(key);
        let (Some(bound), Some(c)) = (bounds.get(name), change.get(key)) else {
            continue;
        };
        let (Some(sb), Some(sc)) = (Summary::of(b), Summary::of(c)) else {
            continue;
        };
        let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
        let pairs = b.len().min(c.len());
        let wins = b.iter().zip(c).filter(|&(&x, &y)| better(y, x)).count();
        let worse_by = if bound.lower_is_better {
            sc.median / sb.median - 1.0
        } else {
            1.0 - sc.median / sb.median
        };
        // A regression is a median worse by more than the bound; a gain
        // needs 9 wins in 10 pairs and a median shift wider than the base's
        // own quartile spread; a spread wider than the bound leaves the
        // metric unresolved.
        let verdict = if worse_by > bound.bound {
            clean = false;
            "regression"
        } else if pairs > 0
            && wins as f64 >= WIN_SHARE * pairs as f64
            && (sc.median - sb.median).abs() > sb.q3 - sb.q1
        {
            "gain"
        } else if sb.relative_iqr() > bound.bound || !agrees(b, c, bound.bound) {
            "unresolved"
        } else {
            "agree"
        };
        println!(
            "{key} {} {:.4} {} {:.4} {wins}/{pairs} {verdict}",
            sb.median,
            sb.relative_iqr(),
            sc.median,
            sc.relative_iqr()
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "records_per_s", "unit": "records/s", "better": "higher", "bound": 0.1}]}"#;

    fn lines(values: &[(f64, f64)]) -> String {
        values
            .iter()
            .map(|(w, r)| {
                format!(
                    "noise\n{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\
                     \"wall_s\":{{\"value\":{w},\"unit\":\"s\"}},\
                     \"records_per_s\":{{\"value\":{r},\"unit\":\"records/s\"}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn reads_bounds_and_result_lines() {
        let b = bounds(BENCH).expect("valid");
        assert!(b["wall_s"].lower_is_better && !b["records_per_s"].lower_is_better);
        let r = runs(&lines(&[(1.0, 10.0), (2.0, 20.0)])).expect("valid");
        assert_eq!(r["wall_s"], vec![1.0, 2.0]);
        assert_eq!(r["records_per_s"], vec![10.0, 20.0]);
    }

    #[test]
    fn flags_a_regression_beyond_the_bound_only() {
        let base = lines(&[(1.0, 100.0), (1.01, 99.0), (0.99, 101.0)]);
        let same = lines(&[(1.02, 98.0), (1.0, 100.0), (1.01, 99.0)]);
        let slow = lines(&[(1.2, 80.0), (1.25, 79.0), (1.22, 81.0)]);
        assert_eq!(compare(BENCH, &base, &same), Ok(true));
        assert_eq!(compare(BENCH, &base, &slow), Ok(false));
        assert_eq!(compare(BENCH, &slow, &base), Ok(true));
    }
}
