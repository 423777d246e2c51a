//! Calls into the solver crates shared by the workloads: set-up and stage-2
//! of one instance under an observing [`RunControl`], the correctness
//! checks on a solve, and the per-layer probes of the traced run.

use std::sync::Mutex;

use ncgws_circuit::{CircuitBuilder, CircuitGraph, NodeKind};
use ncgws_core::projection::project_flow_conservation;
use ncgws_core::{
    CheckpointPolicy, CircuitMetrics, IterationEvent, LrsSolver, Multipliers, Observer,
    OptimizerConfig, Ordered, RunControl, SizedOutcome, SizingProblem, Snapshot, SnapshotStore,
    StopReason,
};
use ncgws_coupling::{CouplingPair, CouplingSet, WirePairGeometry};
use ncgws_netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws_ordering::{woss, SsProblem};
use ncgws_serve::DiskSnapshotStore;
use ncgws_waveform::{LogicSimulator, SimilarityMatrix};

use crate::report::Checks;
use crate::trace::Tracer;

/// Per-solve accumulation of the `IterationRecord`s an OGWS run reports,
/// plus the weak-duality bookkeeping: every dual value is a lower bound on
/// the optimum, so it may never exceed the area of a feasible iterate. A
/// run without a feasible iterate has nothing to compare against.
#[derive(Debug, Default)]
pub struct RecordObserver {
    state: Mutex<ObservedRun>,
}

/// What [`RecordObserver`] collected from one run.
#[derive(Debug, Clone, Default)]
pub struct ObservedRun {
    pub iterations: usize,
    pub sweeps: usize,
    pub touched: usize,
    pub iteration_seconds: Vec<f64>,
    pub max_dual: f64,
    pub min_feasible_area: f64,
}

impl RecordObserver {
    pub fn take(&self) -> ObservedRun {
        std::mem::take(&mut *self.state.lock().expect("observer lock"))
    }
}

impl Observer for RecordObserver {
    fn on_iteration(&self, event: &IterationEvent<'_>) {
        let record = event.record;
        let mut s = self.state.lock().expect("observer lock");
        if s.iterations == 0 {
            s.max_dual = f64::NEG_INFINITY;
            s.min_feasible_area = f64::INFINITY;
        }
        s.iterations += 1;
        s.sweeps += record.lrs_sweeps;
        s.touched += record.touched_components;
        s.iteration_seconds.push(record.seconds);
        s.max_dual = s.max_dual.max(record.dual_value);
        if event.feasible {
            s.min_feasible_area = s.min_feasible_area.min(record.primal_area);
        }
    }
}

impl ObservedRun {
    /// Whether the run had a feasible iterate to test weak duality on.
    pub fn duality_tested(&self) -> bool {
        self.min_feasible_area.is_finite()
    }

    /// Weak duality over the whole run: the best dual bound never exceeds
    /// the smallest feasible area. Holds trivially when nothing was tested.
    pub fn weak_duality_holds(&self) -> bool {
        self.iterations > 0 && (!self.duality_tested() || self.max_dual <= self.min_feasible_area)
    }
}

/// The deterministic summary of one stage-2 run, compared bit for bit
/// between repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveSummary {
    pub iterations: usize,
    pub gap_bits: u64,
    pub area_bits: u64,
    pub initial_area: f64,
    pub final_area: f64,
    pub gap: f64,
    pub converged: bool,
    pub feasible: bool,
    pub final_metrics: CircuitMetrics,
}

impl SolveSummary {
    pub fn of(outcome: &SizedOutcome) -> Self {
        let report = &outcome.report;
        SolveSummary {
            final_metrics: report.final_metrics,
            iterations: report.iterations,
            gap_bits: report.duality_gap.to_bits(),
            area_bits: report.final_metrics.area_um2.to_bits(),
            initial_area: report.initial_metrics.area_um2,
            final_area: report.final_metrics.area_um2,
            gap: report.duality_gap,
            converged: report.stop_reason == StopReason::Converged,
            feasible: report.feasible,
        }
    }

    pub fn area_ratio(&self) -> f64 {
        self.final_area / self.initial_area
    }
}

/// Generates an instance from its spec.
pub fn generate(tracer: &Tracer, spec: &CircuitSpec) -> Result<(ProblemInstance, f64), String> {
    let (instance, secs) = tracer.time("netlist.generate", &spec.name, || {
        SyntheticGenerator::new(spec.clone()).generate()
    });
    Ok((
        instance.map_err(|e| format!("{}: generate: {e}", spec.name))?,
        secs,
    ))
}

/// Stage 1 (`Flow::prepare(..).order()`) of an instance.
pub fn order<'a>(
    tracer: &Tracer,
    instance: &'a ProblemInstance,
    config: &OptimizerConfig,
) -> Result<(Ordered<'a>, f64), String> {
    let (ordered, secs) = tracer.time("flow.order", &instance.name, || {
        ncgws_core::Flow::prepare(instance, config.clone()).and_then(|p| p.order())
    });
    Ok((
        ordered.map_err(|e| format!("{}: order: {e}", instance.name))?,
        secs,
    ))
}

/// Stage 2 (`Ordered::size`) under an observer; returns the outcome, what
/// the observer saw and the wall time.
pub fn size(
    tracer: &Tracer,
    ordered: &Ordered<'_>,
) -> Result<(SizedOutcome, ObservedRun, f64), String> {
    let observer = RecordObserver::default();
    let control = RunControl::new().with_observer(&observer);
    let (outcome, secs) = tracer.time("flow.size", &ordered.instance().name, || {
        ordered.size_with(&control)
    });
    let outcome = outcome.map_err(|e| format!("{}: size: {e}", ordered.instance().name))?;
    Ok((outcome, observer.take(), secs))
}

/// Records the per-solve checks (weak duality and reported feasibility)
/// and returns whether both held.
pub fn check_solve(
    checks: &mut Checks,
    name: &str,
    summary: &SolveSummary,
    run: &ObservedRun,
) -> bool {
    if !run.duality_tested() {
        checks.untested("weak_duality");
    }
    let duality = checks.record("weak_duality", run.weak_duality_holds(), || {
        format!(
            "{name}: max dual {} > min feasible area {}",
            run.max_dual, run.min_feasible_area
        )
    });
    let feasible = checks.record("feasible", summary.feasible, || {
        format!("{name}: reported infeasible")
    });
    duality && feasible
}

/// Sums of the observed counters over a set of solves.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub iterations: usize,
    pub sweeps: usize,
    pub touched: usize,
    pub converged: usize,
    pub solves: usize,
    pub iteration_seconds: Vec<f64>,
}

impl Counters {
    pub fn add(&mut self, run: &ObservedRun, summary: &SolveSummary) {
        self.iterations += run.iterations;
        self.sweeps += run.sweeps;
        self.touched += run.touched;
        self.converged += usize::from(summary.converged);
        self.solves += 1;
        self.iteration_seconds
            .extend_from_slice(&run.iteration_seconds);
    }
}

/// Per-layer probe results over one pass of a workload's instances.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub nodes: usize,
    pub edges: usize,
    pub pairs: usize,
}

/// Runs every per-layer probe on one instance, recording spans on
/// `tracer` and the equality checks on `checks`. Each probe calls one
/// crate's public entry point on the instance the workload generated.
pub fn probe_layers(
    tracer: &Tracer,
    checks: &mut Checks,
    instance: &ProblemInstance,
    ordered: &Ordered<'_>,
    sized: &SizedOutcome,
    totals: &mut LayerTotals,
) {
    let name = instance.name.as_str();
    let graph = &instance.circuit;
    totals.nodes += graph.num_nodes();
    totals.edges += graph.num_edges();

    // ncgws-circuit: rebuild the generated graph through the public builder.
    let (rebuilt, _) = tracer.time("circuit.build", name, || rebuild(instance));
    let same = rebuilt
        .as_ref()
        .map_err(String::clone)
        .and_then(|g| same_circuit(graph, g));
    checks.record("builder_roundtrip", same.is_ok(), || {
        format!("{name}: {}", same.clone().unwrap_err())
    });

    // ncgws-waveform: logic simulation of the instance's patterns.
    let (trace, _) = tracer.time("waveform.simulate", name, || {
        LogicSimulator::new(graph).simulate(&instance.patterns)
    });

    // ncgws-ordering: WOSS over every channel's switching-similarity problem
    // (the problems are built outside the span).
    let problems: Vec<SsProblem> = instance
        .channels
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| SsProblem::from_similarity(&SimilarityMatrix::from_trace(&trace, c)))
        .collect();
    let (orderings, _) = tracer.time("ordering.woss", name, || {
        problems.iter().map(woss).collect::<Vec<_>>()
    });

    // ncgws-coupling: the coupling set over the adjacent tracks of those
    // orderings; its pair count must match stage 1's.
    let pairs = adjacent_pairs(instance, &orderings);
    let (set, _) = tracer.time("coupling.build", name, || {
        pairs.and_then(|p| CouplingSet::new(graph, p).map_err(|e| e.to_string()))
    });
    let expected = ordered.ordering().coupling.len();
    let split = set.as_ref().map(CouplingSet::len);
    checks.record("coupling_split", split == Ok(expected), || {
        format!("{name}: coupling pairs {split:?}, stage 1 built {expected}")
    });
    totals.pairs += expected;

    // ncgws-core: the engine's timing and metrics passes on the final sizes,
    // one LRS solve at uniform multipliers, and the multiplier projection.
    let sizes = sized.sizes();
    let mut engine = ordered.engine();
    tracer.time("engine.timing", name, || {
        engine.timing(sizes).critical_path_delay
    });
    tracer.time("engine.metrics", name, || engine.metrics(sizes));
    let config = ordered.config();
    let coupling = &ordered.ordering().coupling;
    let multipliers = Multipliers::uniform(
        graph,
        config.initial_edge_multiplier,
        config.initial_scalar_multiplier,
    );
    if let Ok(problem) = SizingProblem::new(graph, coupling, ordered.bounds()) {
        let solver = LrsSolver::new(config.max_lrs_sweeps, config.lrs_tolerance);
        tracer.time("lrs.solve", name, || {
            solver.solve(&problem, &multipliers).sweeps
        });
    }
    let mut projected = multipliers.clone();
    tracer.time("projection.project", name, || {
        project_flow_conservation(graph, &mut projected)
    });
}

/// Adjacent-track coupling pairs of per-channel orderings, built the way
/// stage 1 builds them (physical coupling, no switching factor).
fn adjacent_pairs(
    instance: &ProblemInstance,
    orderings: &[ncgws_ordering::WireOrdering],
) -> Result<Vec<CouplingPair>, String> {
    let mut pairs = Vec::new();
    for ordering in orderings {
        for w in ordering.sequence().windows(2) {
            let (a, b) = (w[0], w[1]);
            let overlap = instance
                .geometry
                .overlap_length(instance.wire_length(a), instance.wire_length(b))
                .max(1e-3);
            let geometry = WirePairGeometry::new(
                overlap,
                instance.geometry.pitch,
                instance.geometry.unit_fringing,
            )
            .map_err(|e| e.to_string())?;
            pairs.push(CouplingPair::new(a, b, geometry).map_err(|e| e.to_string())?);
        }
    }
    Ok(pairs)
}

/// Rebuilds an instance's circuit through `CircuitBuilder`: every driver,
/// gate and wire, every edge between them, every primary-output load.
fn rebuild(instance: &ProblemInstance) -> Result<CircuitGraph, String> {
    let graph = &instance.circuit;
    let mut builder = CircuitBuilder::new(*graph.technology());
    let mut handle = vec![None; graph.num_nodes()];
    for id in graph.node_ids() {
        let node = graph.node(id);
        let built = match node.kind {
            NodeKind::Driver => builder.add_driver(&node.name, node.attrs.driver_resistance),
            NodeKind::Gate(kind) => builder.add_gate(&node.name, kind),
            NodeKind::Wire => builder.add_wire(&node.name, instance.wire_length(id)),
            NodeKind::Source | NodeKind::Sink => continue,
        };
        handle[id.index()] = Some(built.map_err(|e| e.to_string())?);
    }
    for id in graph.node_ids() {
        let Some(to) = handle[id.index()] else {
            continue;
        };
        for &from in graph.fanin(id) {
            if let Some(from) = handle[from.index()] {
                builder.connect(from, to).map_err(|e| e.to_string())?;
            }
        }
        if graph.drives_primary_output(id) {
            builder
                .connect_output(to, graph.node(id).attrs.output_load)
                .map_err(|e| e.to_string())?;
        }
    }
    builder.build().map_err(|e| e.to_string())
}

/// Structural equality of two circuits, matched by node name: kinds,
/// electrical attributes (wire parasitics to a relative 1e-12, since the
/// wire length is recovered from its area coefficient), fan-in sets and
/// primary-output loads.
pub fn same_circuit(a: &CircuitGraph, b: &CircuitGraph) -> Result<(), String> {
    if a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges() {
        return Err(format!(
            "{} nodes / {} edges rebuilt as {} / {}",
            a.num_nodes(),
            a.num_edges(),
            b.num_nodes(),
            b.num_edges()
        ));
    }
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs());
    let names = |g: &CircuitGraph, id| {
        let mut v: Vec<String> = g
            .fanin(id)
            .iter()
            .map(|&f| g.node(f).name.clone())
            .collect();
        v.sort_unstable();
        v
    };
    for id in a.node_ids() {
        let na = a.node(id);
        if matches!(na.kind, NodeKind::Source | NodeKind::Sink) {
            continue;
        }
        let other = b
            .node_by_name(&na.name)
            .ok_or_else(|| format!("node {} missing", na.name))?;
        let nb = b.node(other);
        let (x, y) = (&na.attrs, &nb.attrs);
        let attrs_match = close(x.unit_resistance, y.unit_resistance)
            && close(x.unit_capacitance, y.unit_capacitance)
            && close(x.fringing_capacitance, y.fringing_capacitance)
            && close(x.area_coefficient, y.area_coefficient)
            && x.lower_bound == y.lower_bound
            && x.upper_bound == y.upper_bound
            && x.driver_resistance == y.driver_resistance
            && x.output_load == y.output_load;
        if na.kind != nb.kind || !attrs_match || names(a, id) != names(b, other) {
            return Err(format!("node {} differs after rebuild", na.name));
        }
    }
    Ok(())
}

/// Snapshot and store probes on a checkpoint captured halfway through a
/// run of `iterations` iterations on `ordered`: encode/decode through `Snapshot`'s JSON form and a
/// save/load through the serve crate's disk store. Returns the encoded
/// size in bytes and the store file size.
pub fn probe_snapshot(
    tracer: &Tracer,
    checks: &mut Checks,
    ordered: &Ordered<'_>,
    iterations: usize,
    store_dir: &std::path::Path,
    repeats: usize,
) -> Result<(usize, u64), String> {
    let name = ordered.instance().name.clone();
    let sink = SnapshotStore::new();
    // Stop halfway through the run the workload just measured; the
    // checkpoint taken on that interrupt is the one a server would persist.
    let control = RunControl::new()
        .with_iteration_budget((iterations / 2).max(1))
        .with_checkpoints(&sink, CheckpointPolicy::new().on_interrupt(true));
    ordered
        .size_with(&control)
        .map_err(|e| format!("{name}: checkpointed solve: {e}"))?;
    let snapshot = sink
        .latest()
        .ok_or_else(|| format!("{name}: no checkpoint captured"))?;
    let mut text = String::new();
    let mut decoded: Result<Snapshot, String> = Err("not decoded".into());
    let store =
        DiskSnapshotStore::open(store_dir, Default::default()).map_err(|e| e.to_string())?;
    let mut loaded = Ok(None);
    for _ in 0..repeats {
        text = tracer
            .time("snapshot.encode", &name, || snapshot.to_json())
            .0;
        decoded = tracer
            .time("snapshot.decode", &name, || Snapshot::from_json(&text))
            .0;
        tracer
            .time("store.save", &name, || store.save(1, &snapshot))
            .0
            .map_err(|e| e.to_string())?;
        // A fresh store handle reads from disk instead of its resident cache.
        let cold =
            DiskSnapshotStore::open(store_dir, Default::default()).map_err(|e| e.to_string())?;
        loaded = tracer.time("store.load", &name, || cold.load(1)).0;
    }
    checks.record(
        "snapshot_roundtrip",
        decoded.as_ref().is_ok_and(|d| *d == snapshot),
        || format!("{name}: snapshot JSON round trip differs"),
    );
    checks.record(
        "store_roundtrip",
        matches!(&loaded, Ok(Some(s)) if *s == snapshot),
        || format!("{name}: disk store round trip differs"),
    );
    let file_bytes = std::fs::metadata(store_dir.join("snap-1.json")).map_or(0, |m| m.len());
    Ok((text.len(), file_bytes))
}
