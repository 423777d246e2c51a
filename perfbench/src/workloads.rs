//! The three workloads and their untraced / traced runs.
//!
//! * `table1` — the ten Table-1 circuits at the default configuration
//!   (Exact strategy, sequential policy, WOSS, 100 iterations, 1 % gap).
//! * `wide-100k` — one 100k-component wide circuit, adaptive strategy,
//!   level-parallel policy with one worker per hardware thread.
//! * `serve-durable` — small jobs in an open loop into a durable server,
//!   a crash, `Server::recover`, and the drain.
//!
//! Every `CircuitSpec` seed and every serve choice derives from `--seed`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ncgws_core::{OptimizerConfig, Ordered, ParallelPolicy, SolveStrategy};
use ncgws_netlist::{table1_specs, xl_wide_spec, CircuitSpec, ProblemInstance};
use ncgws_serve::{JobInput, JobSpec, ServerConfig};

use crate::report::{Checks, Metrics, Report};
use crate::serve::{self, PlannedJob, ServeRun};
use crate::solver::{self, Counters, LayerTotals, SolveSummary};
use crate::trace::Tracer;
use crate::util::{geomean, median, mix, peak_rss_mib, quantile, secs, tail_percentile, Json};

/// Command-line options of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny inputs and a single pass, for the smoke tests.
    pub smoke: bool,
    /// Directory for server state, result files and traces.
    pub out_dir: PathBuf,
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["table1", "wide-100k", "serve-durable"];

/// Serve-layer latency limit behind `serve.goodput_per_s`.
const LATENCY_LIMIT_S: f64 = 1.0;

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "table1" => run_batch(opts, &table1_batch(opts)),
        "wide-100k" => run_batch(opts, &wide_batch(opts)),
        "serve-durable" => run_serve(opts),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

// ---------------------------------------------------------------------------
// Batch workloads: table1 and wide-100k.

/// A batch workload: generate → order every spec once, then size them
/// pass after pass.
///
/// The inputs are `sets` independent draws of the workload's circuits, all
/// derived from the seed. The run first sets up every set (generate and
/// `Flow::prepare(..).order()`), timing each set-up round, and keeps the
/// orderings; then solve pass `p` runs stage 2 on every ordering of set
/// `p % sets`. Solution quality is aggregated over every set, so it depends
/// on the seed far less than one draw would, and the solve time is the
/// median over many passes that cycle through the sets, so a drift in host
/// speed hits every set alike.
struct Batch {
    /// `sets[k]` holds the circuit specs of input set `k`.
    sets: Vec<Vec<CircuitSpec>>,
    config: OptimizerConfig,
    /// Timed set-up rounds of each set; `setup_s` is their median. Rounds
    /// after the first regenerate the set and check it is unchanged.
    setups_per_set: usize,
    min_passes: usize,
    max_passes: usize,
    /// Index of the spec whose mid-run checkpoint feeds the snapshot and
    /// store probes.
    checkpoint_spec: usize,
}

/// Input sets of the table1 workload per run.
const TABLE1_SETS: usize = 6;
/// Input sets of the wide-100k workload per run.
const WIDE_SETS: usize = 4;

fn table1_batch(opts: &Options) -> Batch {
    let set = |k: usize| -> Vec<CircuitSpec> {
        let mut specs: Vec<CircuitSpec> = table1_specs()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| spec.with_seed(mix(opts.seed, (k * 1000 + i + 1) as u64)))
            .collect();
        if opts.smoke {
            specs.sort_by_key(CircuitSpec::total_components);
            specs.truncate(3);
        }
        specs
    };
    let sets: Vec<_> = (0..if opts.smoke { 1 } else { TABLE1_SETS })
        .map(set)
        .collect();
    let checkpoint_spec = (0..sets[0].len())
        .max_by_key(|&i| sets[0][i].total_components())
        .unwrap_or(0);
    Batch {
        min_passes: 2 * sets.len(),
        max_passes: if opts.smoke { 2 } else { 200 },
        sets,
        config: OptimizerConfig::default(),
        setups_per_set: 2,
        checkpoint_spec,
    }
}

fn wide_batch(opts: &Options) -> Batch {
    let components = if opts.smoke { 4_000 } else { 100_000 };
    let sets: Vec<_> = (0..if opts.smoke { 1 } else { WIDE_SETS })
        .map(|k| vec![xl_wide_spec(components).with_seed(mix(opts.seed, (k * 1000 + 100) as u64))])
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Batch {
        min_passes: 2 * sets.len(),
        max_passes: if opts.smoke { 2 } else { 2000 },
        sets,
        config: OptimizerConfig {
            solve_strategy: SolveStrategy::adaptive(),
            parallel: ParallelPolicy::threads(nproc),
            ..OptimizerConfig::default()
        },
        // A 100k-component set-up takes seconds; the smoke run regenerates
        // so the regeneration check runs there too.
        setups_per_set: if opts.smoke { 2 } else { 1 },
        checkpoint_spec: 0,
    }
}

/// The generated instances of every input set and the time of every
/// set-up round (generate plus order of one whole set).
struct Inputs {
    instances: Vec<Vec<ProblemInstance>>,
    setup_s: Vec<f64>,
}

/// Generates every set once and keeps the instances; later rounds
/// regenerate and re-order each set for timing only, checking the
/// regenerated circuits equal the kept ones. Set-up round `r` is traced as
/// pass `r`. The time of each kept set's ordering is added by [`order_all`].
/// A set-up that fails ends the run.
fn generate_all(tracer: &Tracer, checks: &mut Checks, batch: &Batch) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        instances: Vec::with_capacity(batch.sets.len()),
        setup_s: Vec::new(),
    };
    for (k, specs) in batch.sets.iter().enumerate() {
        tracer.set_pass(k);
        let mut total = 0.0;
        let mut kept = Vec::with_capacity(specs.len());
        for spec in specs {
            let (instance, gen_s) = solver::generate(tracer, spec)?;
            total += gen_s;
            kept.push(instance);
        }
        inputs.instances.push(kept);
        inputs.setup_s.push(total);
    }
    for round in 1..batch.setups_per_set {
        for (k, (specs, kept)) in batch.sets.iter().zip(&inputs.instances).enumerate() {
            tracer.set_pass(round * batch.sets.len() + k);
            let mut total = 0.0;
            for (spec, instance) in specs.iter().zip(kept) {
                let (again, gen_s) = solver::generate(tracer, spec)?;
                let (_, order_s) = solver::order(tracer, &again, &batch.config)?;
                total += gen_s + order_s;
                let same = solver::same_circuit(&instance.circuit, &again.circuit);
                checks.record("regenerate_identical", same.is_ok(), || {
                    format!("{}: {}", spec.name, same.unwrap_err())
                });
            }
            inputs.setup_s.push(total);
        }
    }
    Ok(inputs)
}

/// Stage 1 of every kept instance; adds each set's ordering time to its
/// first set-up round.
fn order_all<'a>(
    tracer: &Tracer,
    batch: &Batch,
    instances: &'a [Vec<ProblemInstance>],
    setup_s: &mut [f64],
) -> Result<Vec<Vec<Ordered<'a>>>, String> {
    let mut sets = Vec::with_capacity(instances.len());
    for (k, set) in instances.iter().enumerate() {
        tracer.set_pass(k);
        let mut ordered = Vec::with_capacity(set.len());
        for instance in set {
            let (o, order_s) = solver::order(tracer, instance, &batch.config)?;
            setup_s[k] += order_s;
            ordered.push(o);
        }
        sets.push(ordered);
    }
    Ok(sets)
}

/// What one solve pass (every ordering of one set) measured.
#[derive(Debug, Default)]
struct Pass {
    /// Summed stage-2 time of the set's instances.
    solve_s: f64,
    /// Wall time of the pass, checks included.
    latency_s: f64,
    /// Whether spans were recorded during the pass.
    traced: bool,
    counters: Counters,
}

/// Stage 2 of every ordering of one set. The first solve of each instance
/// fills `first`; every later one must repeat it bit for bit. Each solve is
/// one operation of the run.
fn solve_set(
    tracer: &Tracer,
    checks: &mut Checks,
    ordered: &[Ordered<'_>],
    first: &mut [Option<SolveSummary>],
) -> Pass {
    let started = Instant::now();
    let mut out = Pass::default();
    for (o, first) in ordered.iter().zip(first.iter_mut()) {
        let name = &o.instance().name;
        let (sized, run, solve_s) = match solver::size(tracer, o) {
            Ok(solved) => solved,
            Err(e) => {
                checks.error(e);
                continue;
            }
        };
        out.solve_s += solve_s;
        let summary = SolveSummary::of(&sized);
        out.counters.add(&run, &summary);
        let mut ok = solver::check_solve(checks, name, &summary, &run);
        match first {
            None => *first = Some(summary),
            Some(expected) => {
                ok &= checks.record("repeat_identical", summary == *expected, || {
                    format!("{name}: repeated solve of one ordering differs")
                });
            }
        }
        checks.op(ok);
    }
    out.latency_s = secs(started);
    out
}

/// Solve passes until `budget_s` (counted from `started`) is spent: at
/// least `min_passes`, at most `max_passes`; a pass starts only if the
/// mean pass still fits. Pass `p` solves set `p % sets`. With `alternate`,
/// tracing is on for every other pass, shifted by one in each round over
/// the sets, so each set is solved both traced and untraced and a drift in
/// host speed hits both alike.
#[allow(clippy::too_many_arguments)]
fn solve_passes(
    tracer: &Tracer,
    checks: &mut Checks,
    batch: &Batch,
    ordered: &[Vec<Ordered<'_>>],
    first: &mut [Vec<Option<SolveSummary>>],
    started: Instant,
    budget_s: f64,
    alternate: bool,
) -> Vec<Pass> {
    let sets = ordered.len();
    let solving = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < batch.max_passes {
        let mean = if passes.is_empty() {
            0.0
        } else {
            secs(solving) / passes.len() as f64
        };
        if passes.len() >= batch.min_passes && secs(started) + mean > budget_s {
            break;
        }
        let p = passes.len();
        let traced = alternate && (p % sets + p / sets) % 2 == 1;
        tracer.set_enabled(traced || !alternate);
        tracer.set_pass(SOLVE_PASS_BASE + p);
        let mut pass = solve_set(tracer, checks, &ordered[p % sets], &mut first[p % sets]);
        pass.traced = traced;
        passes.push(pass);
    }
    tracer.set_enabled(true);
    passes
}

/// Per-layer probe state carried through a probe pass.
struct Probes<'a> {
    totals: LayerTotals,
    store_dir: &'a Path,
    snapshot_bytes: usize,
    store_bytes: u64,
}

/// Pass index of the first solve pass in span records, above every set-up
/// round.
const SOLVE_PASS_BASE: usize = 1 << 20;

/// Deterministic solution-quality metrics over a set of solves.
fn quality(metrics: &mut Metrics, summaries: &[SolveSummary]) {
    let n = summaries.len();
    let gaps: Vec<f64> = summaries.iter().map(|s| s.gap).collect();
    let ratios: Vec<f64> = summaries.iter().map(SolveSummary::area_ratio).collect();
    metrics.set("gap_final", "ratio", geomean(&gaps), n);
    metrics.set("area_ratio", "ratio", geomean(&ratios), n);
}

fn converged_frac(summaries: &[SolveSummary]) -> f64 {
    summaries.iter().filter(|s| s.converged).count() as f64 / summaries.len().max(1) as f64
}

fn run_batch(opts: &Options, batch: &Batch) -> Result<Report, String> {
    let mut report = Report::default();
    let started = Instant::now();
    let tracer = Tracer::new(opts.traced);
    let checks = &mut report.checks;
    let Inputs {
        instances,
        mut setup_s,
    } = generate_all(&tracer, checks, batch)?;
    let ordered = order_all(&tracer, batch, &instances, &mut setup_s)?;
    let mut first: Vec<Vec<Option<SolveSummary>>> =
        ordered.iter().map(|set| vec![None; set.len()]).collect();
    let passes = solve_passes(
        &tracer,
        checks,
        batch,
        &ordered,
        &mut first,
        started,
        opts.seconds,
        opts.traced,
    );
    let setups = &setup_s;
    let summaries: Vec<SolveSummary> = first.iter().flatten().flatten().copied().collect();
    let solves: Vec<f64> = passes.iter().map(|p| p.solve_s).collect();

    if !opts.traced {
        report.raw.push(("setup_s", setups.clone()));
        report.raw.push(("solve_s", solves.clone()));
        let m = &mut report.headline;
        m.set("setup_s", "s", median(setups), setups.len());
        m.set("solve_s", "s", median(&solves), solves.len());
        quality(m, &summaries);
        m.set(
            "ok_frac",
            "ratio",
            report.checks.ok_frac(),
            report.checks.attempted,
        );
        m.set("peak_rss_mib", "MiB", peak_rss_mib(), 1);
        report.extra.set(
            "converged_frac",
            "ratio",
            converged_frac(&summaries),
            summaries.len(),
        );
        return Ok(report);
    }

    // Traced run: the solve passes alternated untraced and traced (the
    // difference of their median pass latencies is the tracing overhead);
    // then one probe pass over the first set, and the first set served
    // through a durable server.
    let store_dir = opts
        .out_dir
        .join(format!("store-{}-{}", opts.workload, std::process::id()));
    let mut probes = Probes {
        totals: LayerTotals::default(),
        store_dir: &store_dir,
        snapshot_bytes: 0,
        store_bytes: 0,
    };
    tracer.set_pass(SOLVE_PASS_BASE + passes.len());
    probe_set(&tracer, checks, batch, &ordered[0], &first[0], &mut probes);
    let _ = std::fs::remove_dir_all(&store_dir);

    let references: Vec<SolveSummary> = first[0].iter().flatten().copied().collect();
    let jobs: Vec<PlannedJob> = batch.sets[0]
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut job = JobSpec::new(JobInput::Synthetic(spec.clone()), batch.config.clone())
                .with_tenant(format!("t{}", i % 3));
            if i % 2 == 0 {
                job = job.with_iteration_budget(3);
            }
            PlannedJob {
                due_s: 0.0,
                spec: job,
                reference: i,
            }
        })
        .collect();
    let served = serve_and_verify(opts, &tracer, checks, &jobs, &references, false, false);

    let latency = |traced: bool| {
        let of: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.latency_s)
            .collect();
        (median(&of), of.len())
    };
    let (lat_traced, n_traced) = latency(true);
    let (lat_untraced, n_untraced) = latency(false);
    let first_traced = passes.iter().find(|p| p.traced);
    let counters = first_traced.map(|p| p.counters.clone()).unwrap_or_default();
    let solve = first_traced.map_or(f64::NAN, |p| p.solve_s);
    let m = &mut report.headline;
    layer_metrics(m, &tracer, &probes.totals, &counters, solve);
    m.set("snapshot.bytes", "bytes", probes.snapshot_bytes as f64, 1);
    m.set("store.bytes", "bytes", probes.store_bytes as f64, 1);
    if let Some(served) = &served {
        serve_layer_metrics(m, served);
    }
    overhead_metrics(m, &tracer, lat_traced, lat_untraced, n_traced);
    report
        .extra
        .set("untraced_pass_s", "s", lat_untraced, n_untraced);
    report.trace = Some(trace_json(&tracer));
    Ok(report)
}

/// One traced solve of every ordering of a set, each followed by the
/// per-layer probes; the checkpoint spec also feeds the snapshot and store
/// probes.
fn probe_set(
    tracer: &Tracer,
    checks: &mut Checks,
    batch: &Batch,
    ordered: &[Ordered<'_>],
    first: &[Option<SolveSummary>],
    probes: &mut Probes<'_>,
) {
    for (i, (o, expected)) in ordered.iter().zip(first).enumerate() {
        let result = (|| -> Result<bool, String> {
            let (sized, run, _) = solver::size(tracer, o)?;
            let summary = SolveSummary::of(&sized);
            let mut ok = solver::check_solve(checks, &o.instance().name, &summary, &run);
            ok &= checks.record("repeat_identical", Some(summary) == *expected, || {
                format!("{}: probe solve differs", o.instance().name)
            });
            solver::probe_layers(tracer, checks, o.instance(), o, &sized, &mut probes.totals);
            if i == batch.checkpoint_spec {
                let (bytes, file) = solver::probe_snapshot(
                    tracer,
                    checks,
                    o,
                    summary.iterations,
                    probes.store_dir,
                    5,
                )?;
                probes.snapshot_bytes = bytes;
                probes.store_bytes = file;
            }
            Ok(ok)
        })();
        match result {
            Ok(ok) => checks.op(ok),
            Err(e) => checks.error(e),
        }
    }
}

/// The spans of a traced run plus each span name's self time.
fn trace_json(tracer: &Tracer) -> Json {
    Json::obj(vec![
        ("spans", tracer.to_json()),
        (
            "self_s",
            Json::Obj(
                tracer
                    .self_times()
                    .into_iter()
                    .map(|(name, s)| (name.to_string(), Json::Num(s)))
                    .collect(),
            ),
        ),
    ])
}

/// The per-layer metrics every traced run derives from its spans and
/// observer counts.
fn layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    totals: &LayerTotals,
    counters: &Counters,
    solve_s: f64,
) {
    for (metric, span) in [
        ("netlist.generate_s", "netlist.generate"),
        ("circuit.build_s", "circuit.build"),
        ("waveform.simulate_s", "waveform.simulate"),
        ("ordering.woss_s", "ordering.woss"),
        ("coupling.build_s", "coupling.build"),
        ("flow.order_s", "flow.order"),
        ("lrs.solve_s", "lrs.solve"),
        ("projection.project_s", "projection.project"),
        ("engine.timing_s", "engine.timing"),
        ("engine.metrics_s", "engine.metrics"),
    ] {
        m.set(metric, "s", tracer.pass_median(span), 1);
    }
    for (metric, span) in [
        ("snapshot.encode_s", "snapshot.encode"),
        ("snapshot.decode_s", "snapshot.decode"),
        ("store.save_s", "store.save"),
        ("store.load_s", "store.load"),
    ] {
        m.set(metric, "s", tracer.span_median(span), 5);
    }
    m.set("circuit.nodes", "count", totals.nodes as f64, 1);
    m.set("circuit.edges", "count", totals.edges as f64, 1);
    m.set("coupling.pairs", "count", totals.pairs as f64, 1);
    m.set(
        "ogws.iterations",
        "count",
        counters.iterations as f64,
        counters.solves,
    );
    m.set(
        "ogws.converged_frac",
        "ratio",
        counters.converged as f64 / counters.solves.max(1) as f64,
        counters.solves,
    );
    m.set(
        "ogws.iter_s",
        "s",
        median(&counters.iteration_seconds),
        counters.iteration_seconds.len(),
    );
    m.set(
        "lrs.sweeps",
        "count",
        counters.sweeps as f64,
        counters.solves,
    );
    m.set(
        "lrs.touched",
        "count",
        counters.touched as f64,
        counters.solves,
    );
    m.set(
        "lrs.ns_per_touch",
        "ns",
        solve_s * 1e9 / counters.touched.max(1) as f64,
        counters.solves,
    );
}

fn overhead_metrics(m: &mut Metrics, tracer: &Tracer, traced: f64, untraced: f64, n: usize) {
    m.set("trace.spans", "count", tracer.len() as f64, 1);
    m.set("trace.overhead_s", "s", traced - untraced, n);
    m.set(
        "trace.overhead_frac",
        "ratio",
        (traced - untraced) / untraced,
        n,
    );
}

// ---------------------------------------------------------------------------
// Serving.

/// Server policy of every served schedule: one worker per hardware thread,
/// a checkpoint every 5 iterations.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        checkpoint_every: Some(5),
        ..ServerConfig::default()
    }
}

/// Serves `jobs`, then checks that no job was lost and that every served
/// result equals the cold solve of its spec bit for bit. Each job is one
/// operation of the run.
fn serve_and_verify(
    opts: &Options,
    tracer: &Tracer,
    checks: &mut Checks,
    jobs: &[PlannedJob],
    references: &[SolveSummary],
    crash: bool,
    alternate: bool,
) -> Option<ServeRun> {
    let name = format!(
        "serve-{}-{}-{}",
        opts.workload,
        std::process::id(),
        tracer.len()
    );
    let served = serve::fresh_dir(&opts.out_dir, &name).and_then(|dir| {
        let run = serve::run(tracer, &dir, &server_config(), jobs, crash, alternate);
        let _ = std::fs::remove_dir_all(&dir);
        run
    });
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            checks.error(format!("serve: {e}"));
            return None;
        }
    };
    for (i, (reference, outcome)) in served.outcomes.iter().enumerate() {
        let kept = checks.record("no_lost_jobs", outcome.is_some(), || {
            format!("job {i} not completed after recovery")
        });
        let Some(o) = outcome else {
            checks.op(false);
            continue;
        };
        let feasible = checks.record("served_feasible", o.feasible, || {
            format!("job {i} reported infeasible")
        });
        // Exact solves resume bit for bit; the adaptive schedule promises
        // that only for a job that ran in one attempt.
        let exact = matches!(jobs[i].spec.config.solve_strategy, SolveStrategy::Exact);
        let mut bitwise = true;
        if exact || o.resumed_attempts == 0 {
            let same = o.final_metrics.is_some_and(|fm| {
                references
                    .get(*reference)
                    .is_some_and(|r| serve::same_metrics(&fm, &r.final_metrics))
            });
            bitwise = checks.record("served_equals_cold", same, || {
                format!(
                    "job {i} ({} resumed attempts) differs from its cold solve",
                    o.resumed_attempts
                )
            });
        }
        checks.op(kept && feasible && bitwise);
    }
    Some(served)
}

fn serve_layer_metrics(m: &mut Metrics, s: &ServeRun) {
    let n_att = s.attempt_s.len();
    let n_wait = s.queue_wait_s.len();
    let n_lat = s.latency_s.len();
    m.set("serve.submit_s", "s", median(&s.submit_s), s.submit_s.len());
    m.set(
        "serve.queue_wait_p50_s",
        "s",
        median(&s.queue_wait_s),
        n_wait,
    );
    m.set(
        "serve.queue_wait_p99_s",
        "s",
        quantile(&s.queue_wait_s, 0.99),
        n_wait,
    );
    m.set("serve.attempt_p50_s", "s", median(&s.attempt_s), n_att);
    m.set(
        "serve.attempt_p99_s",
        "s",
        quantile(&s.attempt_s, 0.99),
        n_att,
    );
    m.set("serve.attempts", "count", s.attempts as f64, 1);
    m.set("serve.requeued", "count", s.stats.requeued as f64, 1);
    m.set("serve.resumed", "count", s.stats.resumed as f64, 1);
    m.set("serve.retries", "count", s.stats.attempts_retried as f64, 1);
    m.set("serve.checkpoints", "count", s.stats.checkpoints as f64, 1);
    m.set(
        "serve.latency_p99_s",
        "s",
        quantile(&s.latency_s, 0.99),
        n_lat,
    );
    m.set("serve.goodput_per_s", "1/s", goodput(s), n_lat);
    m.set("serve.recovery_s", "s", s.recovery_s, 1);
    m.set("journal.entries", "count", s.journal_entries as f64, 1);
    m.set("journal.bytes", "bytes", s.journal_bytes as f64, 1);
    m.set(
        "journal.read_s",
        "s",
        median(&s.journal_read_s),
        s.journal_read_s.len(),
    );
    m.set(
        "client.late_p99_s",
        "s",
        quantile(&s.late_s, 0.99),
        s.late_s.len(),
    );
}

/// Completions within the latency limit per scheduled second.
fn goodput(s: &ServeRun) -> f64 {
    let within = s
        .latency_s
        .iter()
        .filter(|&&l| l <= LATENCY_LIMIT_S)
        .count();
    within as f64 / s.scheduled_s.max(1.0)
}

/// The serve-durable workload's inputs: a pool of distinct small circuit
/// specs and the open-loop schedule drawing from it.
struct ServeWorkload {
    pool: Vec<CircuitSpec>,
    config: OptimizerConfig,
    rate_per_s: f64,
}

/// Distinct circuits in the serve-durable pool: equal sizes, seeds drawn
/// from the benchmark seed.
const POOL: usize = 256;
/// Gates and wires of every pool circuit (about 500 components).
const JOB_GATES: usize = 150;
const JOB_WIRES: usize = 346;
/// OGWS iterations of every job (at most 15; see `serve_workload`).
const JOB_ITERATIONS: usize = 15;
/// Open-loop arrival rate (jobs per second), about half the capacity: on a
/// 2-vCPU x86-64 host (Xeon, AVX-512) a burst of 600 of these jobs, all
/// due at once, drains at 200–220 jobs per second.
const RATE_PER_S: f64 = 100.0;
/// Longest open-loop schedule, in seconds: 1 000 jobs, enough for ten
/// samples above the 99th latency percentile.
const MAX_SCHEDULE_S: f64 = 10.0;
/// Per-attempt iteration budget of the budgeted share of jobs, a third of
/// what every job needs, so those jobs checkpoint, requeue and resume twice.
const SHORT_BUDGET: usize = 5;
/// Bare durable-server starts timed for `server_start_s`.
const START_REPEATS: usize = 200;
/// Set-up rounds (server start plus every pool circuit) timed for
/// `setup_s`.
const SETUP_ROUNDS: usize = 3;
/// Time left at the end of a run for recovery, the drain and the checks.
const TAIL_S: f64 = 3.0;

fn serve_workload(opts: &Options) -> ServeWorkload {
    let pool = (0..POOL)
        .map(|i| {
            CircuitSpec::new(format!("job{i}"), JOB_GATES, JOB_WIRES)
                .with_seed(mix(opts.seed, 200 + i as u64))
                .with_num_patterns(32)
        })
        .collect();
    ServeWorkload {
        pool,
        // Every job runs exactly `JOB_ITERATIONS` iterations: the gap
        // tolerance is out of reach and the stagnation stop (15 iterations
        // without progress) cannot fire first. Equal work per job keeps the
        // latency distribution from depending on which circuits a seed
        // draws, and makes "a budget below the job's need" exact.
        config: OptimizerConfig {
            max_iterations: JOB_ITERATIONS,
            gap_tolerance: 1e-9,
            ..OptimizerConfig::default()
        },
        rate_per_s: RATE_PER_S,
    }
}

fn schedule(opts: &Options, w: &ServeWorkload, duration_s: f64, stream: u64) -> Vec<PlannedJob> {
    let duration_s = duration_s.min(MAX_SCHEDULE_S);
    let n = ((duration_s * w.rate_per_s).floor() as usize).max(if opts.smoke { 12 } else { 20 });
    (0..n)
        .map(|i| {
            let r = mix(opts.seed, stream.wrapping_mul(1 << 32) + i as u64);
            let reference = (r % POOL as u64) as usize;
            let mut spec = JobSpec::new(
                JobInput::Synthetic(w.pool[reference].clone()),
                w.config.clone(),
            )
            .with_tenant(format!("tenant{}", (r >> 8) % 3))
            .with_priority(((r >> 16) % 3) as i32);
            if (r >> 24).is_multiple_of(3) {
                spec = spec.with_iteration_budget(SHORT_BUDGET);
            }
            PlannedJob {
                due_s: i as f64 / w.rate_per_s,
                spec,
                reference,
            }
        })
        .collect()
}

/// Cold generate → order → size of every pool spec outside the server:
/// rounds over the whole pool until `budget_s` is spent (at least
/// `min_rounds`). Returns the first round's summaries, indexed like the
/// pool, and each round's total stage-2 time.
#[allow(clippy::too_many_arguments)]
fn cold_solves(
    tracer: &Tracer,
    checks: &mut Checks,
    w: &ServeWorkload,
    budget_s: f64,
    min_rounds: usize,
    pass: usize,
    mut probes: Option<&mut Probes<'_>>,
    counters: &mut Counters,
) -> (Vec<SolveSummary>, Vec<f64>) {
    tracer.set_pass(pass);
    let started = Instant::now();
    let instances: Vec<_> = w
        .pool
        .iter()
        .filter_map(|spec| {
            solver::generate(tracer, spec)
                .map_err(|e| checks.error(e))
                .ok()
        })
        .map(|(instance, _)| instance)
        .collect();
    let ordered: Vec<_> = instances
        .iter()
        .filter_map(|i| {
            solver::order(tracer, i, &w.config)
                .map_err(|e| checks.error(e))
                .ok()
        })
        .map(|(ordered, _)| ordered)
        .collect();
    let mut first: Vec<Option<SolveSummary>> = vec![None; ordered.len()];
    let mut ok = vec![true; ordered.len()];
    let mut times = Vec::new();
    let mut round = 0;
    while round < min_rounds || secs(started) < budget_s {
        let mut round_s = 0.0;
        for (i, o) in ordered.iter().enumerate() {
            let name = &o.instance().name;
            let (sized, run, solve_s) = match solver::size(tracer, o) {
                Ok(solved) => solved,
                Err(e) => {
                    ok[i] = checks.record("no_error", false, || e);
                    continue;
                }
            };
            round_s += solve_s;
            let summary = SolveSummary::of(&sized);
            ok[i] &= solver::check_solve(checks, name, &summary, &run);
            if let Some(expected) = first[i] {
                ok[i] &= checks.record("repeat_identical", summary == expected, || {
                    format!("{name}: repeated solve differs")
                });
                continue;
            }
            counters.add(&run, &summary);
            first[i] = Some(summary);
            if let Some(p) = probes.as_deref_mut() {
                solver::probe_layers(tracer, checks, o.instance(), o, &sized, &mut p.totals);
                if i == 0 {
                    match solver::probe_snapshot(
                        tracer,
                        checks,
                        o,
                        summary.iterations,
                        p.store_dir,
                        5,
                    ) {
                        Ok((bytes, file)) => (p.snapshot_bytes, p.store_bytes) = (bytes, file),
                        Err(e) => ok[i] = checks.record("no_error", false, || e),
                    }
                }
            }
        }
        times.push(round_s);
        round += 1;
    }
    for passed in ok {
        checks.op(passed);
    }
    (first.into_iter().flatten().collect(), times)
}

fn run_serve(opts: &Options) -> Result<Report, String> {
    let w = serve_workload(opts);
    let mut report = Report::default();
    let started = Instant::now();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;

    // Set-up: a durable server start on an empty directory plus generate
    // and `Flow::prepare(..).order()` of every pool circuit, as the solver
    // workloads define it. The bare start alone (tens of microseconds) is
    // also timed many times and reported by name.
    let quiet = Tracer::new(false);
    let start_dir = serve::fresh_dir(&opts.out_dir, &format!("start-{}", std::process::id()))?;
    let mut starts = Vec::with_capacity(START_REPEATS);
    for _ in 0..START_REPEATS {
        let dir = serve::fresh_dir(&start_dir, "s")?;
        starts.push(serve::time_start(&quiet, &dir, &server_config())?);
    }
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    for _ in 0..if opts.smoke { 1 } else { SETUP_ROUNDS } {
        let dir = serve::fresh_dir(&start_dir, "s")?;
        let mut total = serve::time_start(&quiet, &dir, &server_config())?;
        for spec in &w.pool {
            let (instance, gen_s) = solver::generate(&quiet, spec)?;
            total += gen_s + solver::order(&quiet, &instance, &w.config)?.1;
        }
        setups.push(total);
    }
    let _ = std::fs::remove_dir_all(&start_dir);

    // Reference solves: every pool circuit solved cold outside the server,
    // twice, for the repeat check and the bitwise comparison with what the
    // server returns.
    let mut counters = Counters::default();
    let (references, _) = cold_solves(
        &quiet,
        &mut report.checks,
        &w,
        0.0,
        2,
        0,
        None,
        &mut counters,
    );

    let remaining = (opts.seconds - secs(started)).max(1.0);
    if !opts.traced {
        let jobs = schedule(opts, &w, remaining - TAIL_S, 1);
        let served = serve_and_verify(
            opts,
            &quiet,
            &mut report.checks,
            &jobs,
            &references,
            true,
            false,
        );
        let m = &mut report.headline;
        m.set("setup_s", "s", median(&setups), setups.len());
        report
            .extra
            .set("server_start_s", "s", median(&starts), starts.len());
        if let Some(s) = &served {
            m.set("solve_s", "s", median(&s.attempt_s), s.attempt_s.len());
            let x = &mut report.extra;
            x.set(
                "latency_p50_s",
                "s",
                median(&s.latency_s),
                s.latency_s.len(),
            );
            // p99 only when at least ten samples lie above it; otherwise the
            // highest percentile that has ten.
            let n = s.latency_s.len();
            let p = tail_percentile(n);
            if p >= 99.0 {
                x.set("latency_p99_s", "s", quantile(&s.latency_s, 0.99), n);
            } else {
                x.set("latency_tail_percentile", "%", p, n);
                x.set("latency_tail_s", "s", quantile(&s.latency_s, p / 100.0), n);
            }
            x.set("goodput_per_s", "1/s", goodput(s), s.latency_s.len());
            x.set("recovery_s", "s", s.recovery_s, 1);
            x.set(
                "client.late_p99_s",
                "s",
                quantile(&s.late_s, 0.99),
                s.late_s.len(),
            );
            x.set("jobs", "count", jobs.len() as f64, 1);
        }
        let m = &mut report.headline;
        quality(m, &references);
        m.set(
            "ok_frac",
            "ratio",
            report.checks.ok_frac(),
            report.checks.attempted,
        );
        m.set("peak_rss_mib", "MiB", peak_rss_mib(), 1);
        report.extra.set(
            "converged_frac",
            "ratio",
            converged_frac(&references),
            references.len(),
        );
        return Ok(report);
    }

    // Traced run: one schedule whose submits alternate untraced and traced
    // (the difference of the two halves' p50 latency is the tracing
    // overhead), then a probe pass over the pool.
    let tracer = Tracer::new(true);
    let jobs = schedule(opts, &w, remaining - TAIL_S, 1);
    let served = serve_and_verify(
        opts,
        &tracer,
        &mut report.checks,
        &jobs,
        &references,
        true,
        true,
    );
    let store_dir = opts
        .out_dir
        .join(format!("store-{}-{}", opts.workload, std::process::id()));
    let mut probes = Probes {
        totals: LayerTotals::default(),
        store_dir: &store_dir,
        snapshot_bytes: 0,
        store_bytes: 0,
    };
    let mut probe_counters = Counters::default();
    let (_, probe_times) = cold_solves(
        &tracer,
        &mut report.checks,
        &w,
        0.0,
        1,
        1,
        Some(&mut probes),
        &mut probe_counters,
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    let m = &mut report.headline;
    let pool_solve: f64 = probe_times.iter().sum();
    layer_metrics(m, &tracer, &probes.totals, &probe_counters, pool_solve);
    m.set("snapshot.bytes", "bytes", probes.snapshot_bytes as f64, 1);
    m.set("store.bytes", "bytes", probes.store_bytes as f64, 1);
    if let Some(s) = &served {
        serve_layer_metrics(m, s);
        let [untraced, traced] = &s.latency_by_trace;
        overhead_metrics(m, &tracer, median(traced), median(untraced), traced.len());
        report
            .extra
            .set("latency_p50_s", "s", median(untraced), untraced.len());
    }
    report.trace = Some(trace_json(&tracer));
    Ok(report)
}
