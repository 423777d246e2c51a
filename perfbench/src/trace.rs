//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program crates (nothing inside the crates is instrumented). Each span
//! keeps its name, start, end, parent span, the pass it belongs to and an
//! id (the instance name or the serve `JobId`). The recorder is
//! single-threaded: spans open and close on the benchmark's main thread.
//!
//! [`Tracer::time`] always measures the call with a monotonic clock, so the
//! untraced run takes its end-to-end timings through the same code path; it
//! records a span only when tracing is on.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::{median, Json};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub key: String,
    pub parent: Option<usize>,
    pub pass: usize,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The span recorder; a no-op apart from timing while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    pass: Cell<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            pass: Cell::new(0),
        }
    }

    /// Turns span recording on or off for the calls that follow, so a run
    /// can interleave traced and untraced work.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Sets the pass index stamped on the spans that follow.
    pub fn set_pass(&self, pass: usize) {
        self.pass.set(pass);
    }

    /// Runs `f`, returning its value and wall time in seconds; records a
    /// span named `name` for `key` when tracing is enabled.
    pub fn time<T>(&self, name: &'static str, key: &str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled.get() {
            let start = Instant::now();
            let value = f();
            return (value, start.elapsed().as_secs_f64());
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                key: key.to_string(),
                parent: self.stack.borrow().last().copied(),
                pass: self.pass.get(),
                start_s: 0.0,
                end_s: 0.0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_s = start.duration_since(self.epoch).as_secs_f64();
        spans[index].end_s = end.duration_since(self.epoch).as_secs_f64();
        (value, end.duration_since(start).as_secs_f64())
    }

    /// Replaces the id of the span the last traced call recorded, for calls
    /// whose id is only known once they return (a submit's `JobId`). A
    /// no-op while disabled.
    pub fn relabel_last(&self, key: &str) {
        if !self.enabled.get() {
            return;
        }
        if let Some(span) = self.spans.borrow_mut().last_mut() {
            span.key = key.to_string();
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per-pass total of the spans named `name`, then the median over
    /// passes: "one pass of the workload spends this long in that layer".
    /// `NaN` when no such span exists.
    pub fn pass_median(&self, name: &str) -> f64 {
        let mut per_pass: BTreeMap<usize, f64> = BTreeMap::new();
        for span in self.spans.borrow().iter().filter(|s| s.name == name) {
            *per_pass.entry(span.pass).or_insert(0.0) += span.seconds();
        }
        let totals: Vec<f64> = per_pass.into_values().collect();
        median(&totals)
    }

    /// Median duration of the single spans named `name`.
    pub fn span_median(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect();
        median(&durations)
    }

    /// Self time per span name: a span's duration minus the part its child
    /// spans cover, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_time = vec![0.0; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_time[parent] += span.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_time) {
            *out.entry(span.name).or_insert(0.0) += span.seconds() - children;
        }
        out
    }

    /// All spans as JSON, for the trace file written at the end of a run.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .borrow()
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("span", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("id", Json::str(&s.key)),
                        (
                            "parent",
                            s.parent
                                .map_or(Json::Num(f64::NAN), |p| Json::Num(p as f64)),
                        ),
                        ("pass", Json::Num(s.pass as f64)),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tracer = Tracer::new(true);
        let (v, _) = tracer.time("outer", "a", || {
            let (inner, _) = tracer.time("inner", "a", || 2);
            inner + 1
        });
        assert_eq!(v, 3);
        assert_eq!(tracer.len(), 2);
        let spans = tracer.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].seconds() >= spans[1].seconds());
        drop(spans);
        let self_times = tracer.self_times();
        assert!(self_times["outer"] >= 0.0);
    }

    #[test]
    fn disabled_tracer_still_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let ((), secs) = tracer.time("x", "k", || ());
        assert!(secs >= 0.0);
        assert_eq!(tracer.len(), 0);
    }
}
