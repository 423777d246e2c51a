//! Serving a job schedule through a durable `Server`: an open-loop client
//! submits each job at its due time, the server is then dropped without a
//! drain (a crash), `Server::recover` rebuilds it from disk and the
//! recovered server finishes the queue.
//!
//! Timing comes from outside the server: the client's own clock for
//! submits and lateness, and an event sink that stamps every JSON event
//! line with the instant it arrives (job submitted, attempt started,
//! requeued, completed).

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ncgws_core::snapshot::json;
use ncgws_core::CircuitMetrics;
use ncgws_serve::{
    DurableOptions, JobId, JobOutcome, JobSpec, JobState, Journal, Server, ServerConfig,
    ServerStats,
};

use crate::trace::Tracer;

/// One job of a schedule: when it is due (seconds after the loop starts),
/// what it runs, and which reference solve its result must equal.
#[derive(Debug, Clone)]
pub struct PlannedJob {
    pub due_s: f64,
    pub spec: JobSpec,
    pub reference: usize,
}

/// The per-job and aggregate observations of one served schedule.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub submit_s: Vec<f64>,
    pub late_s: Vec<f64>,
    /// Due time to completion, per completed job.
    pub latency_s: Vec<f64>,
    /// With alternating tracing: `latency_s` split by whether the job's
    /// submit was traced (`[untraced, traced]`).
    pub latency_by_trace: [Vec<f64>; 2],
    /// Submit (or requeue) to attempt start, per attempt.
    pub queue_wait_s: Vec<f64>,
    /// Attempt start to the attempt's settling event, per attempt.
    pub attempt_s: Vec<f64>,
    pub attempts: usize,
    /// Per planned job: its reference index and final outcome (`None` when
    /// the recovered server lost it).
    pub outcomes: Vec<(usize, Option<JobOutcome>)>,
    pub recovery_s: f64,
    pub stats: ServerStats,
    pub journal_entries: usize,
    pub journal_bytes: u64,
    pub journal_read_s: Vec<f64>,
    pub scheduled_s: f64,
}

/// Event lines stamped with their arrival instant.
#[derive(Clone, Default)]
struct EventLog {
    inner: Arc<Mutex<LogState>>,
}

/// The partial line being written and the complete stamped lines.
type LogState = (Vec<u8>, Vec<(Instant, String)>);

impl Write for EventLog {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let mut guard = self.inner.lock().expect("event log lock");
        let (pending, lines) = &mut *guard;
        for &byte in data {
            if byte == b'\n' {
                lines.push((now, String::from_utf8_lossy(pending).into_owned()));
                pending.clear();
            } else {
                pending.push(byte);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl EventLog {
    /// `(instant, event, job)` for every complete line.
    fn events(&self) -> Vec<(Instant, String, u64)> {
        let guard = self.inner.lock().expect("event log lock");
        guard
            .1
            .iter()
            .filter_map(|(at, line)| {
                let value = json::parse(line).ok()?;
                let obj = value.as_object()?;
                let event = json::get(obj, "event")?.as_str()?.to_string();
                let job = json::get(obj, "job").and_then(json::JsonValue::as_u64)?;
                Some((*at, event, job))
            })
            .collect()
    }
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Time to start a durable server on an empty directory (and stop it).
pub fn time_start(tracer: &Tracer, dir: &Path, config: &ServerConfig) -> Result<f64, String> {
    let (server, secs) = tracer.time("serve.start", "empty", || {
        Server::start_durable(dir, config.clone())
    });
    drop(server.map_err(|e| e.to_string())?);
    Ok(secs)
}

/// Serves `jobs` through a durable server rooted at `dir`. With `crash`,
/// the server is dropped right after the last submission, while work is
/// still queued and running; otherwise every job completes first. Either
/// way the directory is then recovered and the recovered server drained.
/// With `alternate`, only every other submit is traced.
pub fn run(
    tracer: &Tracer,
    dir: &Path,
    config: &ServerConfig,
    jobs: &[PlannedJob],
    crash: bool,
    alternate: bool,
) -> Result<ServeRun, String> {
    let log = EventLog::default();
    let mut out = ServeRun::default();
    let options = DurableOptions {
        events: Some(Box::new(log.clone())),
        ..DurableOptions::default()
    };
    let (server, _) = tracer.time("serve.start", "schedule", || {
        Server::start_durable_with(dir, config.clone(), options)
    });
    let server = server.map_err(|e| e.to_string())?;

    // Open loop: each job is submitted at its due time regardless of how
    // the server is doing.
    let t0 = Instant::now();
    let mut ids: Vec<(JobId, Instant, bool)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let traced = alternate && ids.len() % 2 == 1;
        if alternate {
            tracer.set_enabled(traced);
        }
        let due = t0 + Duration::from_secs_f64(job.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_s
            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        let (id, submit_s) = tracer.time("serve.submit", "", || server.submit(job.spec.clone()));
        let id = id.map_err(|e| format!("submit refused: {e}"))?;
        tracer.relabel_last(&id.to_string());
        out.submit_s.push(submit_s);
        ids.push((id, due, traced));
    }
    if alternate {
        tracer.set_enabled(true);
    }
    out.scheduled_s = jobs.last().map_or(0.0, |j| j.due_s);
    if !crash {
        for (id, ..) in &ids {
            server.wait(*id);
        }
    }
    let before_crash = server.stats();
    tracer.time("serve.crash", "schedule", || drop(server));

    let options = DurableOptions {
        events: Some(Box::new(log.clone())),
        ..DurableOptions::default()
    };
    let (recovered, recovery_s) = tracer.time("serve.recover", "schedule", || {
        Server::recover_with(dir, options)
    });
    let (recovered, _) = recovered.map_err(|e| format!("recover: {e}"))?;
    out.recovery_s = recovery_s;
    for (job, (id, ..)) in jobs.iter().zip(&ids) {
        let outcome = recovered
            .wait(*id)
            .filter(|_| recovered.job_state(*id) == Some(JobState::Completed));
        out.outcomes.push((job.reference, outcome));
    }
    let (after, _) = tracer.time("serve.drain", "schedule", || recovered.drain());
    out.stats = ServerStats {
        requeued: before_crash.requeued + after.requeued,
        resumed: before_crash.resumed + after.resumed,
        checkpoints: before_crash.checkpoints + after.checkpoints,
        attempts_retried: before_crash.attempts_retried + after.attempts_retried,
        completed: before_crash.completed + after.completed,
        ..after
    };

    // Latency, queue wait and attempt time from the stamped event lines.
    let due_of: HashMap<u64, (Instant, bool)> = ids
        .iter()
        .map(|(id, due, traced)| (id.as_u64(), (*due, *traced)))
        .collect();
    let mut ready_since: HashMap<u64, Instant> = HashMap::new();
    let mut started: HashMap<u64, Instant> = HashMap::new();
    for (at, event, job) in log.events() {
        match event.as_str() {
            "submitted" | "requeued" | "retried" => {
                if let Some(start) = started.remove(&job) {
                    out.attempt_s.push(at.duration_since(start).as_secs_f64());
                }
                ready_since.insert(job, at);
            }
            "started" => {
                out.attempts += 1;
                // Attempts of jobs the recovered server re-queued have no
                // requeue line of their own; they waited since recovery.
                if let Some(ready) = ready_since.remove(&job) {
                    out.queue_wait_s
                        .push(at.duration_since(ready).as_secs_f64());
                }
                started.insert(job, at);
            }
            "completed" | "failed" | "cancelled" => {
                if let Some(start) = started.remove(&job) {
                    out.attempt_s.push(at.duration_since(start).as_secs_f64());
                }
                if event == "completed" {
                    if let Some(&(due, traced)) = due_of.get(&job) {
                        let latency = at.duration_since(due).as_secs_f64();
                        out.latency_s.push(latency);
                        out.latency_by_trace[usize::from(traced)].push(latency);
                    }
                }
            }
            _ => {}
        }
    }

    // The journal the recovery replayed.
    out.journal_bytes =
        std::fs::metadata(dir.join(ncgws_serve::store::JOURNAL_FILE)).map_or(0, |m| m.len());
    for _ in 0..5 {
        let (entries, secs) =
            tracer.time("journal.read", "schedule", || Journal::read_entries(dir));
        out.journal_entries = entries.map_err(|e| e.to_string())?.len();
        out.journal_read_s.push(secs);
    }
    Ok(out)
}

/// Bitwise equality of two metric sets.
pub fn same_metrics(a: &CircuitMetrics, b: &CircuitMetrics) -> bool {
    let bits = |m: &CircuitMetrics| {
        [
            m.noise_pf,
            m.delay_ps,
            m.power_mw,
            m.area_um2,
            m.crosstalk_ff,
            m.delay_internal,
            m.total_capacitance_ff,
        ]
        .map(f64::to_bits)
    };
    bits(a) == bits(b)
}
