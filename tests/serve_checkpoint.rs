//! Facade-level contract tests for checkpointing, resume, and the serving
//! layer:
//!
//! * **kill/resume equivalence** (property tests): a run killed at an
//!   arbitrary iteration and resumed from its on-interrupt snapshot must
//!   reproduce the uninterrupted run — bitwise under the default exact
//!   strategy, to 1e-6 under the adaptive strategy, and bitwise for
//!   iteration-0 snapshots under both;
//! * **serde round trips**: every decoded type (job specs, outcomes,
//!   snapshots, every enum variant) survives encode → decode → encode byte
//!   for byte, committed documents in the journal and snapshot formats
//!   still decode, and documents that break an invariant are errors, never
//!   panics;
//! * **memory accounting**: `Server::memory_bytes` covers queued specs and
//!   retained snapshots;
//! * **fault injection**: a server fed budget-killed and cancelled jobs
//!   drains with every job accounted for.

use ncgws::circuit::NodeKind;
use ncgws::core::snapshot::json;
use ncgws::core::{OptimizerConfig, RunControl, StopReason};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws::{
    CheckpointPolicy, Flow, JobInput, JobOutcome, JobSpec, Server, ServerConfig, Snapshot,
    SnapshotStore, SolveStrategy,
};
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("ckpt-{seed}"), gates, gates * 2 + 10)
            .with_seed(seed)
            .with_num_patterns(16),
    )
    .generate()
    .expect("generation succeeds")
}

fn quick_config() -> OptimizerConfig {
    OptimizerConfig::builder()
        .max_iterations(30)
        .max_lrs_sweeps(20)
        .build()
        .expect("valid configuration")
}

fn adaptive_config() -> OptimizerConfig {
    OptimizerConfig::builder()
        .max_iterations(30)
        .max_lrs_sweeps(20)
        .adaptive_schedule()
        .build()
        .expect("valid configuration")
}

/// Runs cold, kills a second run after `k` iterations (capturing the
/// on-interrupt snapshot), resumes from the snapshot (after a JSON round
/// trip), and returns `(cold, snapshot, resumed)`.
fn kill_and_resume(
    inst: &ProblemInstance,
    config: &OptimizerConfig,
    k: usize,
) -> (
    ncgws::core::flow::SizedOutcome,
    Snapshot,
    ncgws::core::flow::SizedOutcome,
) {
    let cold = Flow::prepare(inst, config.clone())
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("cold run");

    let snapshot = snapshot_after(inst, config, k);
    assert_eq!(snapshot.iterations_done, k);

    // The snapshot must survive its own JSON form exactly.
    let snapshot = Snapshot::from_json(&snapshot.to_json()).expect("snapshot JSON parses");

    let resumed = Flow::prepare(inst, config.clone())
        .expect("prepare")
        .order()
        .expect("order")
        .size_resume(&snapshot, &RunControl::new())
        .expect("resumed run");
    (cold, snapshot, resumed)
}

/// The on-interrupt snapshot of a run killed after `k` iterations.
fn snapshot_after(inst: &ProblemInstance, config: &OptimizerConfig, k: usize) -> Snapshot {
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(k)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    let killed = Flow::prepare(inst, config.clone())
        .expect("prepare")
        .order()
        .expect("order")
        .size_with(&control)
        .expect("killed run");
    assert_eq!(killed.report.stop_reason, StopReason::BudgetExhausted);
    store.take().expect("on-interrupt snapshot captured")
}

fn relative_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Exact strategy: resume is bitwise — same sizes, same metrics, and
    /// not a single completed iteration is redone. `k` sweeps the whole
    /// range of kill points including 0 (the pre-first-iteration
    /// snapshot).
    #[test]
    fn kill_resume_is_bitwise_under_exact(seed in 0u64..300, gates in 15usize..45, kill in 0usize..64) {
        let inst = instance(seed, gates);
        let config = quick_config();
        let probe = Flow::prepare(&inst, config.clone())
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("probe run");
        if probe.report.iterations < 1 {
            return;
        }
        let k = kill % probe.report.iterations;

        let (cold, snapshot, resumed) = kill_and_resume(&inst, &config, k);
        prop_assert_eq!(resumed.sizes(), cold.sizes());
        prop_assert_eq!(&resumed.report.final_metrics, &cold.report.final_metrics);
        prop_assert_eq!(resumed.report.stop_reason, cold.report.stop_reason);
        prop_assert_eq!(resumed.report.feasible, cold.report.feasible);
        prop_assert_eq!(
            snapshot.iterations_done + resumed.report.iterations,
            cold.report.iterations,
            "resume must redo no completed iterations"
        );
    }

    /// Adaptive strategy: the restored schedule state re-derives its
    /// warm-start decisions, so resume matches to 1e-6 rather than
    /// bitwise.
    #[test]
    fn kill_resume_matches_adaptive_to_1e6(seed in 0u64..300, gates in 15usize..45, kill in 1usize..64) {
        let inst = instance(seed, gates);
        let config = adaptive_config();
        let probe = Flow::prepare(&inst, config.clone())
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("probe run");
        if probe.report.iterations < 2 {
            return;
        }
        let k = 1 + kill % (probe.report.iterations - 1);

        let (cold, _snapshot, resumed) = kill_and_resume(&inst, &config, k);
        let cold_metrics = &cold.report.final_metrics;
        let warm_metrics = &resumed.report.final_metrics;
        prop_assert!(relative_close(warm_metrics.area_um2, cold_metrics.area_um2));
        prop_assert!(relative_close(warm_metrics.delay_ps, cold_metrics.delay_ps));
        prop_assert!(relative_close(warm_metrics.noise_pf, cold_metrics.noise_pf));
        for (a, b) in resumed.sizes().iter().zip(cold.sizes()) {
            prop_assert!(relative_close(*a, *b), "size diverged: {} vs {}", a, b);
        }
    }
}

/// An iteration-0 snapshot (killed before the first iteration completed)
/// resumes bitwise under *both* strategies: nothing has happened yet, so
/// the resumed run IS the cold run.
#[test]
fn iteration_zero_snapshot_resumes_bitwise_under_both_strategies() {
    let inst = instance(42, 24);
    for config in [quick_config(), adaptive_config()] {
        let (cold, snapshot, resumed) = kill_and_resume(&inst, &config, 0);
        assert_eq!(snapshot.iterations_done, 0);
        assert_eq!(resumed.sizes(), cold.sizes());
        assert_eq!(resumed.report.final_metrics, cold.report.final_metrics);
        assert_eq!(resumed.report.iterations, cold.report.iterations);
    }
}

/// Every `StopReason` variant serializes to its name and parses back.
#[test]
fn stop_reason_serde_round_trips_every_variant() {
    let variants = [
        (StopReason::Converged, "Converged"),
        (StopReason::Stagnated, "Stagnated"),
        (StopReason::IterationLimit, "IterationLimit"),
        (StopReason::BudgetExhausted, "BudgetExhausted"),
        (StopReason::Cancelled, "Cancelled"),
        (StopReason::DeadlineExpired, "DeadlineExpired"),
    ];
    for (reason, name) in variants {
        let encoded = serde_json::to_string(&reason).expect("serializes");
        assert_eq!(encoded, format!("\"{name}\""));
        let decoded: StopReason = serde_json::from_str(&encoded).expect("decodes");
        assert_eq!(decoded, reason);
    }
}

/// The snapshot's JSON form is a faithful round trip (field-for-field
/// equality via `PartialEq`), rejects garbage, and reports a plausible
/// memory footprint.
#[test]
fn snapshot_json_round_trip_is_exact() {
    let snapshot = snapshot_after(&instance(7, 20), &quick_config(), 3);

    let round_tripped = Snapshot::from_json(&snapshot.to_json()).expect("parses");
    assert_eq!(round_tripped, snapshot);
    assert!(snapshot.memory_bytes() >= snapshot.sizes.len() * std::mem::size_of::<f64>());
    assert!(Snapshot::from_json("{not json").is_err());
    assert!(Snapshot::from_json("[1,2,3]").is_err());
}

/// `Server::memory_bytes` is exactly the queue + snapshot gauges, and the
/// snapshot gauge covers a retained checkpoint.
#[test]
fn server_memory_accounting_covers_queue_and_snapshots() {
    let spec = CircuitSpec::new("mem", 20, 45)
        .with_seed(9)
        .with_num_patterns(16);
    let job = JobSpec::new(JobInput::Synthetic(spec), quick_config()).with_iteration_budget(2);
    assert!(job.memory_bytes() > 0);

    let server = Server::start(ServerConfig {
        workers: 1,
        max_attempts: 64,
        ..ServerConfig::default()
    });
    let mut ids = Vec::new();
    for _ in 0..3 {
        ids.push(server.submit(job.clone()).expect("queue accepts"));
    }
    for id in &ids {
        server.wait(*id).expect("job resolves");
    }
    let stats = server.stats();
    assert!(
        stats.snapshot_bytes > 0,
        "budget kills must retain snapshots"
    );
    assert_eq!(
        server.memory_bytes(),
        stats.queue_bytes + stats.snapshot_bytes
    );
    let snapshot = server.snapshot_of(ids[0]).expect("retained checkpoint");
    assert!(stats.snapshot_bytes >= snapshot.memory_bytes());
    server.drain();
}

/// Fault injection through the facade: budget-killed, deadline-killed and
/// cancelled jobs all drain with zero lost jobs, and a resumed completion
/// matches a cold run bitwise (exact strategy).
#[test]
fn server_fault_injection_drains_with_zero_lost_jobs() {
    let config = quick_config();
    let server = Server::start(ServerConfig {
        workers: 2,
        checkpoint_every: Some(4),
        max_attempts: 64,
        ..ServerConfig::default()
    });

    let mut ids = Vec::new();
    for i in 0..12u64 {
        let spec = CircuitSpec::new(format!("fault-{i}"), 18 + (i as usize % 5), 50)
            .with_seed(100 + i)
            .with_num_patterns(16);
        let mut job = JobSpec::new(JobInput::Synthetic(spec), config.clone())
            .with_tenant(format!("t{}", i % 3));
        if i % 2 == 0 {
            job = job.with_iteration_budget(3);
        }
        if i % 5 == 4 {
            job = job.with_attempt_timeout_ms(10);
        }
        ids.push(server.submit(job).expect("queue accepts"));
    }
    // Cancel two immediately; the rest must still resolve. (No assert on
    // the return value: a fast worker may already have finished them.)
    server.cancel(ids[1]);
    server.cancel(ids[7]);

    let mut resumed_completed = None;
    for (i, id) in ids.iter().enumerate() {
        let outcome = server.wait(*id).expect("job resolves");
        if !outcome.stop_reason.is_interrupted() && outcome.resumed_attempts > 0 {
            resumed_completed.get_or_insert((i as u64, outcome));
        }
    }
    let stats = server.drain();
    assert_eq!(
        stats.completed + stats.cancelled + stats.failed,
        stats.submitted,
        "every job is accounted for"
    );
    assert_eq!(stats.failed, 0, "the attempt cap must never be reached");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(
        stats.requeued > 0,
        "budget jobs must be killed and requeued"
    );

    let (i, outcome) = resumed_completed.expect("some budget job completed after resuming");
    let inst = SyntheticGenerator::new(
        CircuitSpec::new(format!("fault-{i}"), 18 + (i as usize % 5), 50)
            .with_seed(100 + i)
            .with_num_patterns(16),
    )
    .generate()
    .expect("generation succeeds");
    let cold = Flow::prepare(&inst, config)
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("cold");
    assert_eq!(outcome.iterations, cold.report.iterations);
    assert_eq!(
        outcome.final_metrics.expect("completed jobs carry metrics"),
        cold.report.final_metrics
    );
}

/// Snapshot JSON for the mutation property below, built once (a real
/// mid-run checkpoint, not a synthetic document).
fn mutation_fixture() -> &'static (ProblemInstance, String) {
    static FIXTURE: std::sync::OnceLock<(ProblemInstance, String)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let inst = instance(3, 18);
        let json = snapshot_after(&inst, &quick_config(), 2).to_json();
        (inst, json)
    })
}

/// A journaled job spec with a prepared instance (graph, channels,
/// patterns) for the spec mutation property below, built once.
fn spec_fixture() -> &'static String {
    static FIXTURE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let input = JobInput::Instance(Box::new(instance(5, 4)));
        serde_json::to_string(&JobSpec::new(input, adaptive_config())).expect("serializes")
    })
}

/// Decodes a journaled spec the way `Server::recover` does.
fn decode_spec(text: &str) -> Result<JobSpec, String> {
    let spec: JobSpec = serde_json::from_str(text).map_err(|e| e.to_string())?;
    spec.validate().map(|()| spec)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Robustness: arbitrary single-byte mutations of a valid snapshot
    /// document either fail to parse (`Err`) or produce a snapshot that
    /// still answers `validate_for` — never a panic, never an
    /// out-of-bounds resume. Truncations must always be rejected.
    #[test]
    fn mutated_snapshot_json_never_panics(pos in 0usize..100_000, byte in 0u8..=255u8, cut in 0usize..100_000) {
        let (inst, json) = mutation_fixture();

        // Single-byte mutation (any value, any position).
        let mut bytes = json.clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(snapshot) = Snapshot::from_json(&text) {
                // A mutation that survives parsing (e.g. a flipped digit)
                // must still be safe to screen: validation may accept or
                // reject it, but must not panic or index out of bounds.
                let _ = snapshot.validate_for(&inst.circuit);
            }
        }

        // Any strict prefix is an incomplete document: always an error.
        let cut = cut % json.len();
        if json.is_char_boundary(cut) {
            prop_assert!(Snapshot::from_json(&json[..cut]).is_err());
        }
    }

    /// The same property for a journaled job spec: a mutated `submitted`
    /// payload decodes and validates or is rejected, never panics, and
    /// every strict prefix is an error.
    #[test]
    fn mutated_job_spec_json_never_panics(pos in 0usize..100_000, byte in 0u8..=255u8, cut in 0usize..100_000) {
        let json = spec_fixture();
        let mut bytes = json.clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = decode_spec(&text);
        }
        let cut = cut % json.len();
        if json.is_char_boundary(cut) {
            prop_assert!(decode_spec(&json[..cut]).is_err());
        }
    }
}

/// Decodes `text` as a `T`, requiring the re-encoding to give `text` back.
fn reencode<T: serde::Serialize + serde::de::DeserializeOwned>(text: &str) -> T {
    let value: T = serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(serde_json::to_string(&value).expect("serializes"), text);
    value
}

/// The job spec inside [`SUBMITTED_LINE`], as the encoder wrote it.
fn submitted_spec() -> String {
    let framing = r#"{"entry":"submitted","job":3,"resume":false,"spec":"#;
    let spec = SUBMITTED_LINE
        .strip_prefix(framing)
        .and_then(|s| s.strip_suffix('}'));
    spec.expect("a submitted line").to_string()
}

/// Every type the journal and snapshots decode survives encode → decode →
/// encode byte for byte, across every enum variant, both `Option` arms and
/// a negative zero.
#[test]
fn every_decoded_type_round_trips_byte_identically() {
    let spec = submitted_spec();
    let adaptive = serde_json::to_string(&SolveStrategy::adaptive()).expect("serializes");
    let adaptive = format!("\"solve_strategy\":{adaptive}");
    // Each edit swaps one field of the committed spec for another variant
    // or `Option` arm.
    #[rustfmt::skip]
    let edits = [
        (r#""step_schedule":{"SqrtDecay""#, r#""step_schedule":{"Harmonic""#),
        (r#""step_schedule":{"SqrtDecay""#, r#""step_schedule":{"Constant""#),
        (r#""ordering":"Woss""#, r#""ordering":"Identity""#),
        (r#""ordering":"Woss""#, r#""ordering":"BestStartNearestNeighbor""#),
        (r#""ordering":"Woss""#, r#""ordering":"Exact""#),
        (r#""ordering":"Woss""#, r#""ordering":{"Random":{"seed":18446744073709551612}}"#),
        (r#""solve_strategy":"Exact""#, &adaptive),
        (r#""extra_constraints":[]"#, r#""extra_constraints":[{"PerNetCrosstalk":{"factor":1.5}},{"DrivenLoad":{"factor":2.0}}]"#),
        (r#""parallel":"Sequential""#, r#""parallel":{"Level":{"threads":0}}"#),
        (r#""parallel":"Sequential""#, r#""parallel":{"Level":{"threads":3}}"#),
        (r#""initial_size":null"#, r#""initial_size":0.5"#),
        (r#""absolute_bounds":null"#, r#""absolute_bounds":{"delay":1.0,"total_capacitance":2.0,"crosstalk":-0.0}"#),
        (r#""iteration_budget":2"#, r#""iteration_budget":null"#),
        (r#""attempt_timeout_ms":null"#, r#""attempt_timeout_ms":18446744073709551615"#),
        (r#""priority":0"#, r#""priority":-2147483648"#),
    ];
    for (from, to) in edits {
        let edited = spec.replacen(from, to, 1);
        assert_ne!(edited, spec, "`{from}` not found");
        reencode::<JobSpec>(&edited)
            .validate()
            .expect("decoded spec validates");
    }
    // A prepared instance input: graph, channels, patterns.
    reencode::<JobSpec>(spec_fixture());

    let metrics = r#"{"noise_pf":-0.0,"delay_ps":1.5,"power_mw":2.5,"area_um2":3.5,"crosstalk_ff":4.5,"delay_internal":5.5,"total_capacitance_ff":6.5}"#;
    let reasons = "Converged Stagnated IterationLimit BudgetExhausted Cancelled DeadlineExpired";
    for (i, reason) in reasons.split(' ').enumerate() {
        let (metrics, error) = if i % 2 == 0 {
            (metrics, "null")
        } else {
            ("null", r#""boom \"quoted\"""#)
        };
        let outcome: JobOutcome = reencode(&format!(
            r#"{{"stop_reason":"{reason}","iterations":{i},"attempts":2,"resumed_attempts":1,"feasible":true,"final_metrics":{metrics},"error":{error}}}"#
        ));
        if let Some(m) = outcome.final_metrics {
            assert_eq!(m.noise_pf.to_bits(), (-0.0f64).to_bits());
        }
    }

    // Exact and adaptive (schedule `None`/`Some`), at iteration 0 (no
    // feasible iterate yet) and mid-run.
    let inst = instance(11, 8);
    for config in [quick_config(), adaptive_config()] {
        for k in [0, 2] {
            let snapshot = snapshot_after(&inst, &config, k);
            let text = snapshot.to_json();
            assert_eq!(reencode::<Snapshot>(&text), snapshot);
        }
    }

    let kinds = "Source Driver Wire Sink"
        .split(' ')
        .map(|k| format!("\"{k}\""));
    let gates = "Buf Inv And Nand Or Nor Xor Xnor".split(' ');
    for kind in kinds.chain(gates.map(|g| format!(r#"{{"Gate":"{g}"}}"#))) {
        reencode::<NodeKind>(&kind);
    }
}

/// A journal `server` line, a `submitted` line and a snapshot, written by
/// the encoder this decoder must keep reading.
const SERVER_LINE: &str = r#"{"entry":"server","workers":2,"max_in_flight_per_tenant":18446744073709551615,"max_queued_per_tenant":18446744073709551615,"checkpoint_every":null,"max_attempts":64}"#;
const SUBMITTED_LINE: &str = r#"{"entry":"submitted","job":3,"resume":false,"spec":{"input":{"Synthetic":{"name":"fx","num_gates":4,"num_wires":6,"seed":5,"technology":{"supply_voltage":3.3,"frequency":200000000.0,"gate_unit_resistance":10.0,"gate_unit_capacitance":0.16,"gate_area_coefficient":4.0,"wire_unit_resistance":0.07,"wire_unit_capacitance":0.024,"wire_fringing_per_um":0.01,"wire_area_coefficient":1.0,"coupling_fringing_per_um":0.03,"min_size":0.1,"max_size":10.0,"default_driver_resistance":100.0,"default_output_load":10.0},"max_fanin":4,"wire_length_range":[25.0,400.0],"driver_resistance_range":[80.0,250.0],"output_load_range":[4.0,20.0],"channel_size":10,"channel_pitch":11.0,"overlap_fraction":0.6,"num_patterns":128,"pattern_toggle_probability":0.35,"locality_window":64}},"config":{"initial_size":null,"delay_bound_factor":1.0,"power_bound_factor":0.13,"crosstalk_bound_factor":0.115,"absolute_bounds":null,"max_iterations":100,"gap_tolerance":0.01,"step_schedule":{"SqrtDecay":{"scale":8.0}},"max_lrs_sweeps":50,"lrs_tolerance":0.000001,"ordering":"Woss","effective_coupling":false,"initial_edge_multiplier":1.0,"initial_scalar_multiplier":1.0,"extra_constraints":[],"solve_strategy":"Exact","parallel":"Sequential"},"priority":0,"tenant":"default","iteration_budget":2,"attempt_timeout_ms":null,"retry":{"max_retries":0,"base_delay_ms":0,"multiplier":1.0,"max_delay_ms":0,"jitter":0.0,"seed":0}}}"#;
const SNAPSHOT_DOC: &str = r#"{"format":1,"iterations_done":2,"num_components":7,"sizes":{"values":[0.1,0.1,0.1,0.8651420727845929,0.11935282448057254,1.5703762946326887,0.4098341381428664]},"multipliers":{"values":[0.02049705498128313,0.00736998193383295,0.012132963084883935,0.02049705498128313,0.00736998193383295,0.012132963084883935,0.02049705498128313,0.02049705498128313,0.0073699819338329505,0.012132963084883935,0.02049705498128313,0.04000000000000001,0.04000000000000001],"offsets":[0,0,1,2,3,4,5,6,7,8,11,12,13],"beta":0.04000000000000001,"gamma":0.04000000000000001,"extra":[]},"best_sizes":{"values":[0.1,0.1,0.1,0.8651420727845929,0.11935282448057254,1.5703762946326887,0.4098341381428664]},"best_area":157.96375414595093,"best_gap":7.428685270935522,"best_dual":-1015.4992596197548,"stagnant":0,"schedule":{"calm":[3,2,2,1,1,1,2],"frozen":[true,true,true,true,true,true,true],"global_sweep":9}}"#;

/// The committed documents decode and re-encode to the same bytes, so the
/// journal and snapshot formats did not change.
#[test]
fn committed_journal_and_snapshot_documents_decode() {
    let config: ServerConfig = serde_json::from_str(SERVER_LINE).expect("server line decodes");
    assert_eq!((config.workers, config.max_attempts), (2, 64));
    assert_eq!(config.max_queued_per_tenant, usize::MAX);
    assert_eq!(config.checkpoint_every, None);
    let every = SERVER_LINE.replace("\"checkpoint_every\":null", "\"checkpoint_every\":3");
    let config: ServerConfig = serde_json::from_str(&every).expect("server line decodes");
    assert_eq!(config.checkpoint_every, Some(3));

    // Through the journal framing, as `Server::recover` reads it.
    let entry = json::parse(SUBMITTED_LINE).expect("journal line parses");
    let spec = json::get(entry.as_object().expect("object"), "spec").expect("has a spec");
    let spec: JobSpec = serde_json::from_value(spec.clone()).expect("spec decodes");
    assert_eq!(serde_json::to_string(&spec).ok(), Some(submitted_spec()));

    let snapshot = Snapshot::from_json(SNAPSHOT_DOC).expect("snapshot decodes");
    assert_eq!(snapshot.to_json(), SNAPSHOT_DOC);
    assert!(snapshot.schedule.is_some() && snapshot.has_feasible());
}

/// Every check the decoders make: a document that breaks one is an `Err`,
/// never a panic, and the unbroken document decodes.
#[test]
fn documents_breaking_an_invariant_are_errors() {
    let (synthetic, prepared) = (&submitted_spec(), spec_fixture());
    let deep = format!("\"tenant\":{}{}", "[".repeat(200), "]".repeat(200));
    #[rustfmt::skip]
    let spec_cases = [
        ("Technology::validate", synthetic, "\"min_size\":0.1", "\"min_size\":-1.0"),
        ("OptimizerConfig::validate", synthetic, "\"gap_tolerance\":0.01", "\"gap_tolerance\":-1.0"),
        ("4097 workers", synthetic, "\"parallel\":\"Sequential\"", "\"parallel\":{\"Level\":{\"threads\":4097}}"),
        ("i32 priority", synthetic, "\"priority\":0", "\"priority\":2147483648"),
        ("finite f64", synthetic, "\"gap_tolerance\":0.01", "\"gap_tolerance\":1e999"),
        ("MAX_DEPTH", synthetic, "\"tenant\":\"default\"", &deep),
        ("missing field", synthetic, "\"tenant\":\"default\",", ""),
        ("graph shape", prepared, "\"num_sizable\":", "\"num_sizable\":1"),
        ("graph edges", prepared, "\"fanin\":[[]", "\"fanin\":[[1]"),
        ("graph technology", prepared, "\"max_size\":10.0", "\"max_size\":0.01"),
        ("channel wire range", prepared, "\"channels\":[", "\"channels\":[[999999],"),
        ("pattern width", prepared, "\"vectors\":[[", "\"vectors\":[[true,"),
    ];
    assert!(decode_spec(synthetic).is_ok() && decode_spec(prepared).is_ok());
    assert!(decode_spec("null").is_err());
    for (check, doc, from, to) in spec_cases {
        let broken = doc.replacen(from, to, 1);
        assert_ne!(&broken, doc, "{check}: `{from}` not found");
        assert!(decode_spec(&broken).is_err(), "{check} must be rejected");
    }
    // The worker cap itself is still accepted.
    let cap = synthetic.replacen(r#""Sequential""#, r#"{"Level":{"threads":4096}}"#, 1);
    assert!(decode_spec(&cap).is_ok());

    #[rustfmt::skip]
    let snapshot_cases = [
        ("Multipliers CSR shape", "\"offsets\":[0,0,1", "\"offsets\":[1,1,1"),
        ("calm/frozen lengths", "\"calm\":[3,", "\"calm\":[3,3,"),
        ("u32 format", "\"format\":1", "\"format\":4294967297"),
        ("u32 offsets", "\"offsets\":[0,0,1", "\"offsets\":[0,0,4294967297"),
        ("u32 calm", "\"calm\":[3,", "\"calm\":[4294967299,"),
        ("finite f64", "\"beta\":0.04000000000000001", "\"beta\":1e999"),
    ];
    for (check, from, to) in snapshot_cases {
        let broken = SNAPSHOT_DOC.replacen(from, to, 1);
        assert_ne!(broken, SNAPSHOT_DOC, "{check}: `{from}` not found");
        assert!(
            Snapshot::from_json(&broken).is_err(),
            "{check} must be rejected"
        );
    }
}
