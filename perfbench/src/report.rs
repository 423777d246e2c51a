//! Correctness checks, metric sets and the result lines a run prints.

use std::collections::BTreeMap;

use crate::util::{host_fingerprint, Json};

/// End-to-end metrics: every workload prints each of them from an untraced
/// run. Order and units match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("gap_final", "ratio"),
    ("area_ratio", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every workload prints each of them from a traced
/// run. Order and units match `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("netlist.generate_s", "s"),
    ("circuit.build_s", "s"),
    ("circuit.nodes", "count"),
    ("circuit.edges", "count"),
    ("waveform.simulate_s", "s"),
    ("ordering.woss_s", "s"),
    ("coupling.build_s", "s"),
    ("coupling.pairs", "count"),
    ("flow.order_s", "s"),
    ("ogws.iterations", "count"),
    ("ogws.converged_frac", "ratio"),
    ("ogws.iter_s", "s"),
    ("lrs.sweeps", "count"),
    ("lrs.touched", "count"),
    ("lrs.ns_per_touch", "ns"),
    ("lrs.solve_s", "s"),
    ("projection.project_s", "s"),
    ("engine.timing_s", "s"),
    ("engine.metrics_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p99_s", "s"),
    ("serve.attempt_p50_s", "s"),
    ("serve.attempt_p99_s", "s"),
    ("serve.attempts", "count"),
    ("serve.requeued", "count"),
    ("serve.resumed", "count"),
    ("serve.retries", "count"),
    ("serve.checkpoints", "count"),
    ("serve.latency_p99_s", "s"),
    ("serve.goodput_per_s", "1/s"),
    ("serve.recovery_s", "s"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.bytes", "bytes"),
    ("journal.entries", "count"),
    ("journal.bytes", "bytes"),
    ("journal.read_s", "s"),
    ("client.late_p99_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The correctness checks of one run. An *operation* (one solve, one
/// served job) counts as failed when it errors or any of its checks fails;
/// `ok_frac` is the share of operations that did not.
#[derive(Debug, Default)]
pub struct Checks {
    counts: BTreeMap<&'static str, (usize, usize)>,
    /// Evaluations that passed without testing anything, per check.
    untested: BTreeMap<&'static str, usize>,
    failures: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
}

impl Checks {
    /// Records one evaluation of check `name`; returns `ok`.
    pub fn record(
        &mut self,
        name: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) -> bool {
        let entry = self.counts.entry(name).or_insert((0, 0));
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
        ok
    }

    /// Notes that the next evaluation of check `name` has nothing to test,
    /// so a check that passes vacuously shows in the detail line.
    pub fn untested(&mut self, name: &'static str) {
        *self.untested.entry(name).or_insert(0) += 1;
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    /// Counts one operation that ended in an error.
    pub fn error(&mut self, message: String) {
        self.record("no_error", false, || message);
        self.op(false);
    }

    /// Whether every check evaluation passed.
    pub fn all_passed(&self) -> bool {
        self.counts.values().all(|&(_, failed)| failed == 0) && self.failed == 0
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "runs",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(name, &(runs, failed))| {
                            (
                                name.to_string(),
                                Json::obj(vec![
                                    ("evaluated", Json::Num(runs as f64)),
                                    (
                                        "untested",
                                        Json::Num(
                                            self.untested.get(name).copied().unwrap_or(0) as f64
                                        ),
                                    ),
                                    ("failed", Json::Num(failed as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f)).collect()),
            ),
        ])
    }
}

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// A named collection of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn to_json(&self, with_samples: bool) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let mut fields =
                        vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                    if with_samples {
                        fields.push(("samples", Json::Num(m.samples as f64)));
                    }
                    (m.name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    /// The gated metrics of this run: end-to-end when untraced, per-layer
    /// when traced.
    pub headline: Metrics,
    /// Further numbers printed by name for reading, not gated: the
    /// workload-specific end-to-end metrics and the untraced figures a
    /// traced run compares itself against.
    pub extra: Metrics,
    pub checks: Checks,
    /// The traced run's spans and per-name self times, written to the
    /// trace file at the end of the run.
    pub trace: Option<Json>,
    /// Per-pass samples behind the medians, printed in the detail line.
    pub raw: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    /// Prints the human-readable table (stderr), the detail line and the
    /// final result line (stdout), and writes the detail to `out_path`.
    pub fn emit(&mut self, workload: &str, seed: u64, traced: bool, out_dir: &std::path::Path) {
        let stem = format!(
            "{workload}-seed{seed}-{}",
            if traced { "traced" } else { "untraced" }
        );
        let _ = std::fs::create_dir_all(out_dir);
        if let Some(trace) = &self.trace {
            let _ = std::fs::write(out_dir.join(format!("trace-{stem}.json")), trace.render());
        }
        self.checks
            .record("operations_attempted", self.checks.attempted > 0, || {
                "no operation ran".to_string()
            });
        let expected: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let missing: Vec<&str> = expected
            .iter()
            .filter(|(name, _)| self.headline.get(name).is_none_or(|v| !v.is_finite()))
            .map(|(name, _)| *name)
            .collect();
        self.checks
            .record("metrics_complete", missing.is_empty(), || {
                format!("missing or non-finite: {}", missing.join(", "))
            });
        // Print in the declared order with the declared units.
        let ordered = Metrics(
            expected
                .iter()
                .filter_map(|(name, unit)| {
                    self.headline
                        .0
                        .iter()
                        .find(|m| m.name == *name)
                        .map(|m| Metric { unit, ..m.clone() })
                })
                .collect(),
        );

        eprintln!(
            "== perfbench {workload} seed {seed} ({}) ==",
            if traced { "traced" } else { "untraced" }
        );
        for m in ordered.0.iter().chain(self.extra.0.iter()) {
            eprintln!(
                "  {:<26} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        eprintln!(
            "  checks: {} operations, {} failed, all checks passed: {}",
            self.checks.attempted,
            self.checks.failed,
            self.checks.all_passed()
        );

        let detail = Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("traced", Json::Bool(traced)),
            ("host", host_fingerprint()),
            ("metrics", ordered.to_json(true)),
            ("extra", self.extra.to_json(true)),
            ("checks", self.checks.to_json()),
            (
                "raw",
                Json::Obj(
                    self.raw
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.to_string(),
                                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render();
        let _ = std::fs::write(out_dir.join(format!("result-{stem}.json")), &detail);
        println!("{{\"detail\":{detail}}}");
        let result = Json::obj(vec![
            ("correct", Json::Bool(self.checks.all_passed())),
            ("attempted", Json::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            ("metrics", ordered.to_json(false)),
        ]);
        println!("{}", result.render());
    }
}
