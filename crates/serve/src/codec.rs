//! The read side of the durable job journal.
//!
//! The workspace's serde stand-in serializes but has no deserializer, so the
//! journal's JSON is decoded here by hand against the same recursive-descent
//! parser the snapshot codec uses ([`ncgws_core::snapshot::json`]). Every
//! decoder follows the stand-in derive's encoding conventions exactly:
//! named structs are objects, unit variants are their name as a string,
//! one-field tuple variants are `{"Variant": value}`, tuples are arrays,
//! `Option::None` is `null`.
//!
//! All input is untrusted (a crashed process may have left anything on
//! disk): decoders return `Err` on malformed shapes and re-validate
//! structural invariants (graph wiring, pattern widths, config ranges)
//! before handing values back to the optimizer.

use ncgws_circuit::{CircuitGraph, GateKind, Node, NodeAttrs, NodeId, NodeKind, Technology};
use ncgws_core::snapshot::json::{self, JsonValue};
use ncgws_core::{
    AdaptiveSchedule, CircuitMetrics, ConstraintBounds, ConstraintSpec, OptimizerConfig,
    OrderingStrategy, ParallelPolicy, SolveStrategy, StepSchedule, StopReason,
};
use ncgws_netlist::{ChannelGeometry, CircuitSpec, PatternSet, ProblemInstance};

use crate::job::{JobInput, JobOutcome, JobSpec, RetryPolicy};

type Pairs = [(String, JsonValue)];

fn as_obj<'a>(v: &'a JsonValue, what: &str) -> Result<&'a Pairs, String> {
    v.as_object()
        .ok_or_else(|| format!("{what} must be an object"))
}

fn field<'a>(obj: &'a Pairs, name: &str, what: &str) -> Result<&'a JsonValue, String> {
    json::get(obj, name).ok_or_else(|| format!("{what} is missing `{name}`"))
}

fn f64_field(obj: &Pairs, name: &str, what: &str) -> Result<f64, String> {
    field(obj, name, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}.{name} must be a finite number"))
}

fn usize_field(obj: &Pairs, name: &str, what: &str) -> Result<usize, String> {
    field(obj, name, what)?
        .as_usize()
        .ok_or_else(|| format!("{what}.{name} must be a non-negative integer"))
}

fn u64_field(obj: &Pairs, name: &str, what: &str) -> Result<u64, String> {
    field(obj, name, what)?
        .as_u64()
        .ok_or_else(|| format!("{what}.{name} must be a u64 integer"))
}

fn bool_field(obj: &Pairs, name: &str, what: &str) -> Result<bool, String> {
    field(obj, name, what)?
        .as_bool()
        .ok_or_else(|| format!("{what}.{name} must be a boolean"))
}

fn str_field<'a>(obj: &'a Pairs, name: &str, what: &str) -> Result<&'a str, String> {
    field(obj, name, what)?
        .as_str()
        .ok_or_else(|| format!("{what}.{name} must be a string"))
}

fn opt_usize_field(obj: &Pairs, name: &str, what: &str) -> Result<Option<usize>, String> {
    match field(obj, name, what)? {
        JsonValue::Null => Ok(None),
        v => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("{what}.{name} must be an integer or null")),
    }
}

fn opt_u64_field(obj: &Pairs, name: &str, what: &str) -> Result<Option<u64>, String> {
    match field(obj, name, what)? {
        JsonValue::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{what}.{name} must be a u64 or null")),
    }
}

/// A 2-tuple of floats, encoded as a 2-element array.
fn f64_pair(v: &JsonValue, what: &str) -> Result<(f64, f64), String> {
    let items = v
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| format!("{what} must be a 2-element array"))?;
    // In range: the filter above guarantees exactly two elements.
    let lo = items[0]
        .as_f64()
        .ok_or_else(|| format!("{what}[0] must be a finite number"))?;
    // In range: as above.
    let hi = items[1]
        .as_f64()
        .ok_or_else(|| format!("{what}[1] must be a finite number"))?;
    Ok((lo, hi))
}

/// An enum value: either `"Unit"` or `{"Variant": payload}`.
fn variant<'a>(v: &'a JsonValue, what: &str) -> Result<(&'a str, Option<&'a JsonValue>), String> {
    match v {
        JsonValue::String(name) => Ok((name, None)),
        JsonValue::Object(pairs) if pairs.len() == 1 => {
            // In range: the guard requires exactly one pair.
            Ok((pairs[0].0.as_str(), Some(&pairs[0].1)))
        }
        _ => Err(format!("{what} must be an enum variant")),
    }
}

/// Decodes a [`StopReason`] from its serialized variant name.
pub fn decode_stop_reason(v: &JsonValue) -> Result<StopReason, String> {
    let (name, payload) = variant(v, "stop reason")?;
    if payload.is_some() {
        return Err(format!("stop reason `{name}` takes no payload"));
    }
    match name {
        "Converged" => Ok(StopReason::Converged),
        "Stagnated" => Ok(StopReason::Stagnated),
        "IterationLimit" => Ok(StopReason::IterationLimit),
        "BudgetExhausted" => Ok(StopReason::BudgetExhausted),
        "Cancelled" => Ok(StopReason::Cancelled),
        "DeadlineExpired" => Ok(StopReason::DeadlineExpired),
        other => Err(format!("unknown stop reason `{other}`")),
    }
}

fn decode_step_schedule(v: &JsonValue) -> Result<StepSchedule, String> {
    let (name, payload) = variant(v, "step schedule")?;
    let payload = payload.ok_or("step schedule needs a payload")?;
    let obj = as_obj(payload, "step schedule payload")?;
    let scale = f64_field(obj, "scale", "step schedule")?;
    match name {
        "Harmonic" => Ok(StepSchedule::Harmonic { scale }),
        "SqrtDecay" => Ok(StepSchedule::SqrtDecay { scale }),
        "Constant" => Ok(StepSchedule::Constant { scale }),
        other => Err(format!("unknown step schedule `{other}`")),
    }
}

fn decode_ordering(v: &JsonValue) -> Result<OrderingStrategy, String> {
    let (name, payload) = variant(v, "ordering strategy")?;
    match (name, payload) {
        ("Woss", None) => Ok(OrderingStrategy::Woss),
        ("Identity", None) => Ok(OrderingStrategy::Identity),
        ("BestStartNearestNeighbor", None) => Ok(OrderingStrategy::BestStartNearestNeighbor),
        ("Exact", None) => Ok(OrderingStrategy::Exact),
        ("Random", Some(p)) => {
            let obj = as_obj(p, "Random ordering payload")?;
            Ok(OrderingStrategy::Random {
                seed: u64_field(obj, "seed", "Random ordering")?,
            })
        }
        (other, _) => Err(format!("unknown ordering strategy `{other}`")),
    }
}

fn decode_constraint_bounds(v: &JsonValue) -> Result<ConstraintBounds, String> {
    let obj = as_obj(v, "constraint bounds")?;
    Ok(ConstraintBounds {
        delay: f64_field(obj, "delay", "constraint bounds")?,
        total_capacitance: f64_field(obj, "total_capacitance", "constraint bounds")?,
        crosstalk: f64_field(obj, "crosstalk", "constraint bounds")?,
    })
}

fn decode_constraint_spec(v: &JsonValue) -> Result<ConstraintSpec, String> {
    let (name, payload) = variant(v, "constraint spec")?;
    let payload = payload.ok_or("constraint spec needs a payload")?;
    let obj = as_obj(payload, "constraint spec payload")?;
    let factor = f64_field(obj, "factor", "constraint spec")?;
    match name {
        "PerNetCrosstalk" => Ok(ConstraintSpec::PerNetCrosstalk { factor }),
        "DrivenLoad" => Ok(ConstraintSpec::DrivenLoad { factor }),
        other => Err(format!("unknown constraint spec `{other}`")),
    }
}

fn decode_solve_strategy(v: &JsonValue) -> Result<SolveStrategy, String> {
    let (name, payload) = variant(v, "solve strategy")?;
    match (name, payload) {
        ("Exact", None) => Ok(SolveStrategy::Exact),
        ("Adaptive", Some(p)) => {
            let obj = as_obj(p, "adaptive schedule")?;
            Ok(SolveStrategy::Adaptive(AdaptiveSchedule {
                warm_start: bool_field(obj, "warm_start", "adaptive schedule")?,
                active_set: bool_field(obj, "active_set", "adaptive schedule")?,
                freeze_tolerance: f64_field(obj, "freeze_tolerance", "adaptive schedule")?,
                freeze_after: usize_field(obj, "freeze_after", "adaptive schedule")?,
                verify_every: usize_field(obj, "verify_every", "adaptive schedule")?,
                incremental: bool_field(obj, "incremental", "adaptive schedule")?,
            }))
        }
        (other, _) => Err(format!("unknown solve strategy `{other}`")),
    }
}

fn decode_parallel(v: &JsonValue) -> Result<ParallelPolicy, String> {
    let (name, payload) = variant(v, "parallel policy")?;
    match (name, payload) {
        ("Sequential", None) => Ok(ParallelPolicy::Sequential),
        ("Level", Some(p)) => {
            let obj = as_obj(p, "Level policy payload")?;
            Ok(ParallelPolicy::Level {
                threads: usize_field(obj, "threads", "Level policy")?,
            })
        }
        (other, _) => Err(format!("unknown parallel policy `{other}`")),
    }
}

/// Decodes an [`OptimizerConfig`] and re-runs its own validation.
pub fn decode_optimizer_config(v: &JsonValue) -> Result<OptimizerConfig, String> {
    let obj = as_obj(v, "optimizer config")?;
    let what = "optimizer config";
    let initial_size = match field(obj, "initial_size", what)? {
        JsonValue::Null => None,
        v => Some(
            v.as_f64()
                .ok_or("optimizer config.initial_size must be a number or null")?,
        ),
    };
    let absolute_bounds = match field(obj, "absolute_bounds", what)? {
        JsonValue::Null => None,
        v => Some(decode_constraint_bounds(v)?),
    };
    let extra_constraints = field(obj, "extra_constraints", what)?
        .as_array()
        .ok_or("optimizer config.extra_constraints must be an array")?
        .iter()
        .map(decode_constraint_spec)
        .collect::<Result<Vec<_>, _>>()?;
    let config = OptimizerConfig {
        initial_size,
        delay_bound_factor: f64_field(obj, "delay_bound_factor", what)?,
        power_bound_factor: f64_field(obj, "power_bound_factor", what)?,
        crosstalk_bound_factor: f64_field(obj, "crosstalk_bound_factor", what)?,
        absolute_bounds,
        max_iterations: usize_field(obj, "max_iterations", what)?,
        gap_tolerance: f64_field(obj, "gap_tolerance", what)?,
        step_schedule: decode_step_schedule(field(obj, "step_schedule", what)?)?,
        max_lrs_sweeps: usize_field(obj, "max_lrs_sweeps", what)?,
        lrs_tolerance: f64_field(obj, "lrs_tolerance", what)?,
        ordering: decode_ordering(field(obj, "ordering", what)?)?,
        effective_coupling: bool_field(obj, "effective_coupling", what)?,
        initial_edge_multiplier: f64_field(obj, "initial_edge_multiplier", what)?,
        initial_scalar_multiplier: f64_field(obj, "initial_scalar_multiplier", what)?,
        extra_constraints,
        solve_strategy: decode_solve_strategy(field(obj, "solve_strategy", what)?)?,
        parallel: decode_parallel(field(obj, "parallel", what)?)?,
    };
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn decode_technology(v: &JsonValue) -> Result<Technology, String> {
    let obj = as_obj(v, "technology")?;
    let what = "technology";
    let tech = Technology {
        supply_voltage: f64_field(obj, "supply_voltage", what)?,
        frequency: f64_field(obj, "frequency", what)?,
        gate_unit_resistance: f64_field(obj, "gate_unit_resistance", what)?,
        gate_unit_capacitance: f64_field(obj, "gate_unit_capacitance", what)?,
        gate_area_coefficient: f64_field(obj, "gate_area_coefficient", what)?,
        wire_unit_resistance: f64_field(obj, "wire_unit_resistance", what)?,
        wire_unit_capacitance: f64_field(obj, "wire_unit_capacitance", what)?,
        wire_fringing_per_um: f64_field(obj, "wire_fringing_per_um", what)?,
        wire_area_coefficient: f64_field(obj, "wire_area_coefficient", what)?,
        coupling_fringing_per_um: f64_field(obj, "coupling_fringing_per_um", what)?,
        min_size: f64_field(obj, "min_size", what)?,
        max_size: f64_field(obj, "max_size", what)?,
        default_driver_resistance: f64_field(obj, "default_driver_resistance", what)?,
        default_output_load: f64_field(obj, "default_output_load", what)?,
    };
    tech.validate().map_err(|e| e.to_string())?;
    Ok(tech)
}

/// Decodes a synthetic benchmark [`CircuitSpec`] (exact: the `u64` seed
/// survives through the parser's integer lexemes).
pub fn decode_circuit_spec(v: &JsonValue) -> Result<CircuitSpec, String> {
    let obj = as_obj(v, "circuit spec")?;
    let what = "circuit spec";
    Ok(CircuitSpec {
        name: str_field(obj, "name", what)?.to_string(),
        num_gates: usize_field(obj, "num_gates", what)?,
        num_wires: usize_field(obj, "num_wires", what)?,
        seed: u64_field(obj, "seed", what)?,
        technology: decode_technology(field(obj, "technology", what)?)?,
        max_fanin: usize_field(obj, "max_fanin", what)?,
        wire_length_range: f64_pair(field(obj, "wire_length_range", what)?, "wire_length_range")?,
        driver_resistance_range: f64_pair(
            field(obj, "driver_resistance_range", what)?,
            "driver_resistance_range",
        )?,
        output_load_range: f64_pair(field(obj, "output_load_range", what)?, "output_load_range")?,
        channel_size: usize_field(obj, "channel_size", what)?,
        channel_pitch: f64_field(obj, "channel_pitch", what)?,
        overlap_fraction: f64_field(obj, "overlap_fraction", what)?,
        num_patterns: usize_field(obj, "num_patterns", what)?,
        pattern_toggle_probability: f64_field(obj, "pattern_toggle_probability", what)?,
        locality_window: usize_field(obj, "locality_window", what)?,
    })
}

fn decode_gate_kind(name: &str) -> Result<GateKind, String> {
    match name {
        "Buf" => Ok(GateKind::Buf),
        "Inv" => Ok(GateKind::Inv),
        "And" => Ok(GateKind::And),
        "Nand" => Ok(GateKind::Nand),
        "Or" => Ok(GateKind::Or),
        "Nor" => Ok(GateKind::Nor),
        "Xor" => Ok(GateKind::Xor),
        "Xnor" => Ok(GateKind::Xnor),
        other => Err(format!("unknown gate kind `{other}`")),
    }
}

fn decode_node_kind(v: &JsonValue) -> Result<NodeKind, String> {
    let (name, payload) = variant(v, "node kind")?;
    match (name, payload) {
        ("Source", None) => Ok(NodeKind::Source),
        ("Driver", None) => Ok(NodeKind::Driver),
        ("Wire", None) => Ok(NodeKind::Wire),
        ("Sink", None) => Ok(NodeKind::Sink),
        ("Gate", Some(p)) => {
            let kind = p.as_str().ok_or("Gate payload must be a string")?;
            Ok(NodeKind::Gate(decode_gate_kind(kind)?))
        }
        (other, _) => Err(format!("unknown node kind `{other}`")),
    }
}

fn decode_node(v: &JsonValue) -> Result<Node, String> {
    let obj = as_obj(v, "node")?;
    let attrs_obj = as_obj(field(obj, "attrs", "node")?, "node attrs")?;
    let what = "node attrs";
    let attrs = NodeAttrs {
        unit_resistance: f64_field(attrs_obj, "unit_resistance", what)?,
        unit_capacitance: f64_field(attrs_obj, "unit_capacitance", what)?,
        fringing_capacitance: f64_field(attrs_obj, "fringing_capacitance", what)?,
        area_coefficient: f64_field(attrs_obj, "area_coefficient", what)?,
        lower_bound: f64_field(attrs_obj, "lower_bound", what)?,
        upper_bound: f64_field(attrs_obj, "upper_bound", what)?,
        driver_resistance: f64_field(attrs_obj, "driver_resistance", what)?,
        output_load: f64_field(attrs_obj, "output_load", what)?,
    };
    Ok(Node {
        kind: decode_node_kind(field(obj, "kind", "node")?)?,
        name: str_field(obj, "name", "node")?.to_string(),
        attrs,
    })
}

fn decode_node_id_list(v: &JsonValue, what: &str) -> Result<Vec<NodeId>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .map(|id| {
            id.as_usize()
                .map(NodeId::new)
                .ok_or_else(|| format!("{what} entries must be node indices"))
        })
        .collect()
}

/// Decodes a full [`ProblemInstance`], re-validating the circuit graph's
/// structural invariants and the pattern-set width.
pub fn decode_instance(v: &JsonValue) -> Result<ProblemInstance, String> {
    let obj = as_obj(v, "problem instance")?;
    let what = "problem instance";
    let circuit_obj = as_obj(field(obj, "circuit", what)?, "circuit graph")?;
    let nodes = field(circuit_obj, "nodes", "circuit graph")?
        .as_array()
        .ok_or("circuit graph.nodes must be an array")?
        .iter()
        .map(decode_node)
        .collect::<Result<Vec<_>, _>>()?;
    let decode_adjacency = |name: &str| -> Result<Vec<Vec<NodeId>>, String> {
        field(circuit_obj, name, "circuit graph")?
            .as_array()
            .ok_or_else(|| format!("circuit graph.{name} must be an array"))?
            .iter()
            .map(|list| decode_node_id_list(list, name))
            .collect()
    };
    let fanin = decode_adjacency("fanin")?;
    let fanout = decode_adjacency("fanout")?;
    let tech = decode_technology(field(circuit_obj, "tech", "circuit graph")?)?;
    let num_drivers = usize_field(circuit_obj, "num_drivers", "circuit graph")?;
    let num_sizable = usize_field(circuit_obj, "num_sizable", "circuit graph")?;
    // `name_index` is also serialized but derivable; the constructor
    // rebuilds it from the node names.
    let circuit =
        CircuitGraph::from_serialized_parts(nodes, fanin, fanout, tech, num_drivers, num_sizable)
            .map_err(|e| format!("invalid circuit graph: {e}"))?;
    let channels = field(obj, "channels", what)?
        .as_array()
        .ok_or("problem instance.channels must be an array")?
        .iter()
        .map(|c| {
            let wires = decode_node_id_list(c, "channel")?;
            for &id in &wires {
                if id.index() >= circuit.num_nodes() {
                    return Err(format!("channel wire {id} is out of range"));
                }
            }
            Ok(wires)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let geom_obj = as_obj(field(obj, "geometry", what)?, "channel geometry")?;
    let geometry = ChannelGeometry {
        pitch: f64_field(geom_obj, "pitch", "channel geometry")?,
        overlap_fraction: f64_field(geom_obj, "overlap_fraction", "channel geometry")?,
        unit_fringing: f64_field(geom_obj, "unit_fringing", "channel geometry")?,
    };
    let patterns_obj = as_obj(field(obj, "patterns", what)?, "pattern set")?;
    let num_inputs = usize_field(patterns_obj, "num_inputs", "pattern set")?;
    let vectors = field(patterns_obj, "vectors", "pattern set")?
        .as_array()
        .ok_or("pattern set.vectors must be an array")?
        .iter()
        .map(|row| {
            let bits = row
                .as_array()
                .ok_or("pattern vector must be an array")?
                .iter()
                .map(|b| b.as_bool().ok_or("pattern bits must be booleans"))
                .collect::<Result<Vec<_>, _>>()?;
            if bits.len() != num_inputs {
                return Err(format!(
                    "pattern vector has {} bits, expected {num_inputs}",
                    bits.len()
                ));
            }
            Ok(bits)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ProblemInstance {
        name: str_field(obj, "name", what)?.to_string(),
        circuit,
        channels,
        geometry,
        patterns: PatternSet::from_vectors(num_inputs, vectors),
    })
}

fn decode_retry_policy(v: &JsonValue) -> Result<RetryPolicy, String> {
    let obj = as_obj(v, "retry policy")?;
    let what = "retry policy";
    Ok(RetryPolicy {
        max_retries: usize_field(obj, "max_retries", what)?,
        base_delay_ms: u64_field(obj, "base_delay_ms", what)?,
        multiplier: f64_field(obj, "multiplier", what)?,
        max_delay_ms: u64_field(obj, "max_delay_ms", what)?,
        jitter: f64_field(obj, "jitter", what)?,
        seed: u64_field(obj, "seed", what)?,
    })
}

/// Decodes a [`JobSpec`] from its serialized form in the journal.
pub fn decode_job_spec(v: &JsonValue) -> Result<JobSpec, String> {
    let obj = as_obj(v, "job spec")?;
    let what = "job spec";
    let (input_name, input_payload) = variant(field(obj, "input", what)?, "job input")?;
    let input = match (input_name, input_payload) {
        ("Synthetic", Some(p)) => JobInput::Synthetic(decode_circuit_spec(p)?),
        ("Instance", Some(p)) => JobInput::Instance(Box::new(decode_instance(p)?)),
        (other, _) => return Err(format!("unknown job input `{other}`")),
    };
    let priority_value = field(obj, "priority", what)?;
    let priority = priority_value
        .as_i64()
        .and_then(|p| i32::try_from(p).ok())
        .ok_or("job spec.priority must be an i32")?;
    Ok(JobSpec {
        input,
        config: decode_optimizer_config(field(obj, "config", what)?)?,
        priority,
        tenant: str_field(obj, "tenant", what)?.to_string(),
        iteration_budget: opt_usize_field(obj, "iteration_budget", what)?,
        attempt_timeout_ms: opt_u64_field(obj, "attempt_timeout_ms", what)?,
        retry: decode_retry_policy(field(obj, "retry", what)?)?,
    })
}

fn decode_metrics(v: &JsonValue) -> Result<CircuitMetrics, String> {
    let obj = as_obj(v, "circuit metrics")?;
    let what = "circuit metrics";
    Ok(CircuitMetrics {
        noise_pf: f64_field(obj, "noise_pf", what)?,
        delay_ps: f64_field(obj, "delay_ps", what)?,
        power_mw: f64_field(obj, "power_mw", what)?,
        area_um2: f64_field(obj, "area_um2", what)?,
        crosstalk_ff: f64_field(obj, "crosstalk_ff", what)?,
        delay_internal: f64_field(obj, "delay_internal", what)?,
        total_capacitance_ff: f64_field(obj, "total_capacitance_ff", what)?,
    })
}

/// Decodes a [`JobOutcome`] from a journal `completed`/`cancelled`/`failed`
/// entry.
pub fn decode_job_outcome(v: &JsonValue) -> Result<JobOutcome, String> {
    let obj = as_obj(v, "job outcome")?;
    let what = "job outcome";
    let final_metrics = match field(obj, "final_metrics", what)? {
        JsonValue::Null => None,
        v => Some(decode_metrics(v)?),
    };
    let error = match field(obj, "error", what)? {
        JsonValue::Null => None,
        v => Some(
            v.as_str()
                .ok_or("job outcome.error must be a string or null")?
                .to_string(),
        ),
    };
    Ok(JobOutcome {
        stop_reason: decode_stop_reason(field(obj, "stop_reason", what)?)?,
        iterations: usize_field(obj, "iterations", what)?,
        attempts: usize_field(obj, "attempts", what)?,
        resumed_attempts: usize_field(obj, "resumed_attempts", what)?,
        feasible: bool_field(obj, "feasible", what)?,
        final_metrics,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_netlist::SyntheticGenerator;

    fn round_trip_spec(spec: &JobSpec) -> JobSpec {
        let encoded = serde_json::to_string(spec).expect("spec serializes");
        let value = json::parse(&encoded).expect("spec JSON parses");
        decode_job_spec(&value).expect("spec decodes")
    }

    #[test]
    fn synthetic_spec_round_trips_exactly() {
        let spec = JobSpec::new(
            JobInput::Synthetic(CircuitSpec::new("rt", 40, 20).with_seed(u64::MAX - 3)),
            OptimizerConfig::default(),
        )
        .with_priority(-3)
        .with_tenant("team-a")
        .with_iteration_budget(7)
        .with_attempt_timeout_ms(250)
        .with_retry(RetryPolicy::retries(4).with_seed(99));
        let back = round_trip_spec(&spec);
        // Re-encoding must reproduce the original byte stream: the encoder
        // is deterministic, so byte equality implies field equality.
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&spec).unwrap()
        );
        match &back.input {
            JobInput::Synthetic(s) => assert_eq!(s.seed, u64::MAX - 3),
            _ => panic!("expected synthetic input"),
        }
    }

    #[test]
    fn instance_spec_round_trips_exactly() {
        let instance = SyntheticGenerator::new(CircuitSpec::new("inst", 24, 52))
            .generate()
            .expect("generation succeeds");
        let spec = JobSpec::new(
            JobInput::Instance(Box::new(instance)),
            OptimizerConfig::default(),
        );
        let back = round_trip_spec(&spec);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&spec).unwrap()
        );
    }

    #[test]
    fn malformed_specs_are_rejected_not_panicked() {
        let spec = JobSpec::new(
            JobInput::Synthetic(CircuitSpec::new("rt", 10, 5)),
            OptimizerConfig::default(),
        );
        let encoded = serde_json::to_string(&spec).unwrap();
        // Dropping any single field must produce Err, never panic.
        for cut in ["\"priority\":0,", "\"tenant\":\"default\",", "\"retry\":"] {
            let mangled = encoded.replacen(cut, "\"x\":0,", 1);
            if let Ok(value) = json::parse(&mangled) {
                assert!(decode_job_spec(&value).is_err(), "cut {cut}");
            }
        }
        assert!(decode_job_spec(&JsonValue::Null).is_err());
        assert!(decode_stop_reason(&JsonValue::Bool(true)).is_err());
    }

    #[test]
    fn journaled_thread_policies_keep_decoding() {
        for policy in [
            ParallelPolicy::Sequential,
            ParallelPolicy::threads(0),
            ParallelPolicy::threads(3),
        ] {
            let config = OptimizerConfig {
                parallel: policy,
                ..OptimizerConfig::default()
            };
            let spec = JobSpec::new(JobInput::Synthetic(CircuitSpec::new("rt", 10, 5)), config);
            assert_eq!(round_trip_spec(&spec).config.parallel, policy);
        }

        // Decoding re-validates: an absurd worker count is an error.
        let spec = JobSpec::new(
            JobInput::Synthetic(CircuitSpec::new("rt", 10, 5)),
            OptimizerConfig {
                parallel: ParallelPolicy::threads(3),
                ..OptimizerConfig::default()
            },
        );
        let encoded = serde_json::to_string(&spec).unwrap();
        let mangled = encoded.replacen("\"threads\":3", "\"threads\":100000", 1);
        assert_ne!(mangled, encoded);
        let value = json::parse(&mangled).unwrap();
        assert!(decode_job_spec(&value).is_err());
    }

    #[test]
    fn stop_reasons_round_trip() {
        for reason in [
            StopReason::Converged,
            StopReason::Stagnated,
            StopReason::IterationLimit,
            StopReason::BudgetExhausted,
            StopReason::Cancelled,
            StopReason::DeadlineExpired,
        ] {
            let encoded = serde_json::to_string(&reason).unwrap();
            let value = json::parse(&encoded).unwrap();
            assert_eq!(decode_stop_reason(&value).unwrap(), reason);
        }
    }
}
