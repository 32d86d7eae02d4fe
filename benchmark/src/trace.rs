//! The span recorder behind the traced run.
//!
//! Spans are taken from outside the program: the workload code wraps each
//! call into a layer's public API in [`Recorder::span`]. Each span keeps its
//! name, start, end, parent and the run id; all of them stay in memory
//! until the run ends, when they are written as a Chrome trace and a
//! self-time table. A disabled recorder runs the closures and records
//! nothing.

use cloudy_obs::trace::{render_trace, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Collects nested spans on the thread that drives the workload.
pub struct Recorder {
    run: Option<u32>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder::new(None)
    }

    /// A recording recorder; `run` tags every span it takes.
    pub fn on(run: u32) -> Recorder {
        Recorder::new(Some(run))
    }

    fn new(run: Option<u32>) -> Recorder {
        Recorder {
            run,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.run.is_some()
    }

    /// Run `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(run) = self.run else {
            return f();
        };
        let start = Instant::now();
        let ix = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                start,
                end: start,
                parent,
                run,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(ix);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[ix].end = Instant::now();
        out
    }

    /// Record an interval that was timed elsewhere (e.g. inside a sink) as
    /// a child of the innermost open span.
    pub fn closed(&self, name: &str, start: Instant, end: Instant) {
        let Some(run) = self.run else {
            return;
        };
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            run,
        });
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part its direct children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_secs) {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.secs() - children).max(0.0);
        }
        out
    }

    /// Total duration of the root spans, in seconds.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// The spans as a Chrome `trace_event` document (one lane per run id).
    pub fn chrome_json(&self) -> String {
        let events: Vec<TraceEvent> = self
            .spans
            .borrow()
            .iter()
            .map(|s| TraceEvent {
                name: s.name.clone(),
                ts_us: s.start.saturating_duration_since(self.origin).as_micros() as u64,
                dur_us: s.end.duration_since(s.start).as_micros() as u64,
                tid: s.run,
            })
            .collect();
        render_trace(&events)
    }

    /// The self-time table: one row per span name, largest first.
    pub fn self_time_table(&self) -> String {
        let total = self.root_secs();
        let mut rows: Vec<(String, f64)> = self.self_times().into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut out = format!("{:<40} {:>12} {:>8}\n", "span", "self_s", "share");
        for (name, secs) in rows {
            let share = if total > 0.0 { secs / total } else { 0.0 };
            out.push_str(&format!("{name:<40} {secs:>12.6} {share:>8.4}\n"));
        }
        out.push_str(&format!(
            "{:<40} {total:>12.6} {:>8.4}\n",
            "total (root spans)", 1.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(ms: u64) {
        let until = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::on(7);
        rec.span("outer", || {
            busy(6);
            let t = Instant::now();
            rec.closed("inner", t, t + Duration::from_millis(3));
            rec.closed("inner", t, t + Duration::from_millis(2));
        });
        let outer = rec.spans.borrow()[0].secs();
        let st = rec.self_times();
        assert!((st["inner"] - 0.005).abs() < 1e-9, "{st:?}");
        assert!((st["outer"] - (outer - 0.005)).abs() < 1e-9, "{st:?}");
        assert_eq!(rec.root_secs(), outer);
        assert!(rec.spans.borrow().iter().all(|s| s.run == 7));
    }

    #[test]
    fn closed_spans_nest_under_the_open_span() {
        let rec = Recorder::on(1);
        rec.span("execute", || {
            let t0 = Instant::now();
            busy(1);
            rec.closed("sink", t0, Instant::now());
        });
        let spans = rec.spans.borrow();
        assert_eq!(spans[1].name, "sink");
        assert_eq!(spans[1].parent, Some(0));
        let execute_self = spans[0].secs() - spans[1].secs();
        assert!((rec.self_times()["execute"] - execute_self).abs() < 1e-9);
    }

    #[test]
    fn off_recorder_runs_closures_and_records_nothing() {
        let rec = Recorder::off();
        assert_eq!(rec.span("x", || 41 + 1), 42);
        rec.closed("y", Instant::now(), Instant::now());
        assert!(rec.self_times().is_empty());
        assert_eq!(
            rec.chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn chrome_json_and_table_name_every_span() {
        let rec = Recorder::on(3);
        rec.span("a", || rec.span("b", || ()));
        let json = rec.chrome_json();
        assert!(json.contains("\"name\":\"a\"") && json.contains("\"name\":\"b\""));
        assert!(json.contains("\"tid\":3"));
        let table = rec.self_time_table();
        assert!(table.lines().any(|l| l.starts_with("a ")));
        assert!(table.lines().any(|l| l.starts_with("b ")));
    }
}
