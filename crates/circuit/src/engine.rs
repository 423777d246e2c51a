//! The reusable evaluation engine: the Elmore model over dense circuit
//! state, plus a pre-sized scratch workspace.
//!
//! The sizing engine evaluates the same per-node quantities (downstream
//! capacitances, weighted upstream resistances, delays, arrival times)
//! thousands of times per optimization run. The original free-function
//! style ([`ElmoreAnalyzer`](crate::ElmoreAnalyzer)) walks the pointer-rich
//! [`CircuitGraph`] (`Vec<Vec<NodeId>>` adjacency, `Node` structs whose
//! inline `String` names spread the numeric fields across cache lines) and
//! allocates fresh result vectors on every call, so the constant factor of
//! the paper's `O(V + E + P)` sweep is dominated by cache misses and the
//! allocator rather than the arithmetic. This module is the replacement:
//!
//! * [`CircuitTopology`] — CSR adjacency plus flat per-node RC coefficient
//!   arrays, built once per circuit. Its methods are the Elmore model of
//!   the paper's Section 2.1: each fills caller-provided slices in one
//!   sequential topological walk, with no allocation. The fused
//!   Gauss–Seidel sweeps and the sparse incremental updates of the
//!   adaptive solve schedule live here too.
//! * [`EvalWorkspace`] — one bundle of dense scratch buffers, sized once per
//!   circuit and reused for every evaluation.
//!
//! All arithmetic is performed in exactly the same order as the
//! `ElmoreAnalyzer` reference path, so results are bitwise identical
//! between the two — pinned down by the unit tests below and the
//! `property_eval_engine` integration test at the workspace root.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::CircuitGraph;
use crate::id::NodeId;
use crate::node::NodeKind;
use crate::sizing::SizeVector;

/// Sentinel for "no predecessor" in dense predecessor arrays.
pub const NO_PRED: usize = usize::MAX;

/// Sentinel for "not a sizable component" in dense component-index arrays.
const NOT_SIZABLE: usize = usize::MAX;

/// Scratch buffers for the sparse incremental evaluation paths
/// ([`CircuitTopology::downstream_caps_update`],
/// [`CircuitTopology::upstream_resistance_update`]): pending per-node deltas plus
/// the ordered worklists that drive the delta propagation. Sized once per
/// circuit and reused; between calls every dense buffer is all-zero and
/// every worklist empty, so a sparse update touches memory proportional to
/// the perturbed subgraph only.
#[derive(Debug, Clone, Default)]
pub struct IncrementalWorkspace {
    /// Own-term delta per node: capacitance change in the downstream pass,
    /// resistance change in the upstream pass.
    own: Vec<f64>,
    /// Extra (coupling) capacitance delta per node (downstream pass only).
    extra: Vec<f64>,
    /// Accumulated incoming delta per node: child-load changes in the
    /// downstream pass, upstream-resistance changes in the upstream pass.
    pending: Vec<f64>,
    /// Whether a node is already on a worklist.
    queued: Vec<bool>,
    /// Reverse-topological worklist (max-heap on raw node index).
    down_heap: BinaryHeap<u32>,
    /// Forward-topological worklist (min-heap on raw node index).
    up_heap: BinaryHeap<Reverse<u32>>,
}

impl IncrementalWorkspace {
    /// Creates a workspace sized for `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        IncrementalWorkspace {
            own: vec![0.0; num_nodes],
            extra: vec![0.0; num_nodes],
            pending: vec![0.0; num_nodes],
            queued: vec![false; num_nodes],
            down_heap: BinaryHeap::new(),
            up_heap: BinaryHeap::new(),
        }
    }

    /// Bytes held by the workspace buffers (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.own.capacity() + self.extra.capacity() + self.pending.capacity()) * size_of::<f64>()
            + self.queued.capacity() * size_of::<bool>()
            + self.down_heap.capacity() * size_of::<u32>()
            + self.up_heap.capacity() * size_of::<u32>()
            + size_of::<Self>()
    }

    fn assert_sized(&self, num_nodes: usize) {
        assert_eq!(
            self.queued.len(),
            num_nodes,
            "incremental workspace must match the circuit"
        );
    }
}

/// Compact per-node role tag used by [`CircuitTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KindTag {
    /// The artificial source.
    Source,
    /// An input driver.
    Driver,
    /// A sizable gate.
    Gate,
    /// A sizable wire.
    Wire,
    /// The artificial sink.
    Sink,
}

/// Dense, cache-friendly snapshot of a circuit: CSR adjacency plus flat
/// per-node RC coefficient arrays. Immutable once built; this is the
/// "dense-indexed state owned by the engine" that the hot loops traverse
/// instead of the pointer-rich [`CircuitGraph`].
///
/// One Elmore evaluation is a reverse pass for the charged capacitances, a
/// per-node delay product and a forward arrival pass, all into the
/// reusable buffers of an [`EvalWorkspace`]:
///
/// ```rust
/// use ncgws_circuit::{
///     CircuitBuilder, CircuitTopology, EvalWorkspace, GateKind, Technology, TimingAnalysis,
/// };
///
/// # fn main() -> Result<(), ncgws_circuit::CircuitError> {
/// let mut b = CircuitBuilder::new(Technology::dac99());
/// let d = b.add_driver("d", 100.0)?;
/// let w1 = b.add_wire("w1", 50.0)?;
/// let g = b.add_gate("g", GateKind::Inv)?;
/// let w2 = b.add_wire("w2", 80.0)?;
/// b.connect(d, w1)?;
/// b.connect(w1, g)?;
/// b.connect(g, w2)?;
/// b.connect_output(w2, 5.0)?;
/// let circuit = b.build()?;
///
/// let topo = CircuitTopology::new(&circuit);
/// let mut ws = EvalWorkspace::new(&circuit);
/// let sizes = circuit.uniform_sizes(1.5);
/// topo.downstream_caps_into(&sizes, None, &mut ws.charged, &mut ws.presented);
/// topo.delays_into(&sizes, &ws.charged, &mut ws.delays);
/// let delay = topo.propagate_arrivals(
///     &ws.delays,
///     &mut ws.arrival,
///     &mut ws.pred,
///     &mut ws.critical_path,
/// );
///
/// // The dense walk reproduces the graph-walking timing analysis bitwise.
/// let reference = TimingAnalysis::run(&circuit, &sizes, None);
/// assert_eq!(delay, reference.critical_path_delay);
/// assert_eq!(ws.critical_path, reference.critical_path);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitTopology {
    num_components: usize,
    /// Raw index of the artificial sink.
    sink: usize,
    kind: Vec<KindTag>,
    /// Dense component index per node ([`NOT_SIZABLE`] for the rest).
    comp_of: Vec<usize>,
    /// Raw node index per dense component index (inverse of `comp_of`).
    node_of_comp: Vec<u32>,
    /// `r̂` for gates/wires, `R_D` for drivers, zero otherwise.
    unit_resistance: Vec<f64>,
    /// `ĉ` for gates/wires, zero otherwise.
    unit_capacitance: Vec<f64>,
    /// `f` for wires, zero otherwise.
    fringing: Vec<f64>,
    /// Primary-output load per node (zero when the node drives no output).
    output_load: Vec<f64>,
    fanout_start: Vec<u32>,
    fanout_list: Vec<u32>,
    fanin_start: Vec<u32>,
    fanin_list: Vec<u32>,
}

impl CircuitTopology {
    /// Builds the dense snapshot of a circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than `u32::MAX` nodes or edges (the
    /// CSR lists store 32-bit indices; the unchecked hot loops rely on the
    /// casts below being lossless).
    pub fn new(graph: &CircuitGraph) -> Self {
        let n = graph.num_nodes();
        assert!(
            n <= u32::MAX as usize,
            "circuit too large for 32-bit CSR node indices"
        );
        assert!(
            graph.num_edges() <= u32::MAX as usize,
            "circuit too large for 32-bit CSR edge offsets"
        );
        let mut kind = Vec::with_capacity(n);
        let mut comp_of = Vec::with_capacity(n);
        let mut node_of_comp = vec![0u32; graph.num_components()];
        let mut unit_resistance = Vec::with_capacity(n);
        let mut unit_capacitance = Vec::with_capacity(n);
        let mut fringing = Vec::with_capacity(n);
        let mut output_load = Vec::with_capacity(n);
        let mut fanout_start = Vec::with_capacity(n + 1);
        let mut fanout_list = Vec::with_capacity(graph.num_edges());
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin_list = Vec::with_capacity(graph.num_edges());

        for id in graph.node_ids() {
            let node = graph.node(id);
            kind.push(match node.kind {
                NodeKind::Source => KindTag::Source,
                NodeKind::Driver => KindTag::Driver,
                NodeKind::Gate(_) => KindTag::Gate,
                NodeKind::Wire => KindTag::Wire,
                NodeKind::Sink => KindTag::Sink,
            });
            let comp = graph.component_index(id).unwrap_or(NOT_SIZABLE);
            if comp != NOT_SIZABLE {
                node_of_comp[comp] = id.index() as u32;
            }
            comp_of.push(comp);
            unit_resistance.push(match node.kind {
                NodeKind::Driver => node.attrs.driver_resistance,
                NodeKind::Gate(_) | NodeKind::Wire => node.attrs.unit_resistance,
                _ => 0.0,
            });
            unit_capacitance.push(node.attrs.unit_capacitance);
            fringing.push(node.attrs.fringing_capacitance);
            output_load.push(node.attrs.output_load);
            fanout_start.push(fanout_list.len() as u32);
            fanout_list.extend(graph.fanout(id).iter().map(|succ| succ.index() as u32));
            fanin_start.push(fanin_list.len() as u32);
            fanin_list.extend(graph.fanin(id).iter().map(|pred| pred.index() as u32));
        }
        fanout_start.push(fanout_list.len() as u32);
        fanin_start.push(fanin_list.len() as u32);

        CircuitTopology {
            num_components: graph.num_components(),
            sink: graph.sink().index(),
            kind,
            comp_of,
            node_of_comp,
            unit_resistance,
            unit_capacitance,
            fringing,
            output_load,
            fanout_start,
            fanout_list,
            fanin_start,
            fanin_list,
        }
    }

    /// Number of nodes in the snapshot.
    pub fn num_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Dense component index of node `idx`, when the node is sizable.
    #[inline(always)]
    pub fn component_of(&self, idx: usize) -> Option<usize> {
        let comp = self.comp_of[idx];
        (comp != NOT_SIZABLE).then_some(comp)
    }

    /// Raw node index of the dense component `comp`.
    #[inline(always)]
    pub fn node_of_component(&self, comp: usize) -> usize {
        self.node_of_comp[comp] as usize
    }

    /// Fanout (successor) node indices of node `idx`.
    #[inline(always)]
    pub fn fanout(&self, idx: usize) -> &[u32] {
        &self.fanout_list[self.fanout_start[idx] as usize..self.fanout_start[idx + 1] as usize]
    }

    /// Fanin (predecessor) node indices of node `idx`.
    #[inline(always)]
    pub fn fanin(&self, idx: usize) -> &[u32] {
        &self.fanin_list[self.fanin_start[idx] as usize..self.fanin_start[idx + 1] as usize]
    }

    /// The role of node `idx`.
    #[inline(always)]
    pub fn kind(&self, idx: usize) -> KindTag {
        self.kind[idx]
    }

    /// Size of node `idx` under `sizes` (1.0 for non-sizable nodes), exactly
    /// as [`CircuitGraph::size_of`].
    #[inline(always)]
    pub fn size_of(&self, idx: usize, sizes: &SizeVector) -> f64 {
        let comp = self.comp_of[idx];
        if comp == NOT_SIZABLE {
            1.0
        } else {
            sizes[comp]
        }
    }

    /// Resistance of node `idx`, exactly as `Node::resistance`.
    #[inline(always)]
    pub fn resistance(&self, idx: usize, sizes: &SizeVector) -> f64 {
        match self.kind[idx] {
            KindTag::Driver => self.unit_resistance[idx],
            KindTag::Gate | KindTag::Wire => {
                let x = self.size_of(idx, sizes);
                if x > 0.0 {
                    self.unit_resistance[idx] / x
                } else {
                    f64::INFINITY
                }
            }
            KindTag::Source | KindTag::Sink => 0.0,
        }
    }

    /// Capacitance of node `idx` (excluding coupling), exactly as
    /// `Node::capacitance`.
    #[inline(always)]
    pub fn capacitance(&self, idx: usize, sizes: &SizeVector) -> f64 {
        match self.kind[idx] {
            KindTag::Gate => self.unit_capacitance[idx] * self.size_of(idx, sizes),
            KindTag::Wire => {
                self.unit_capacitance[idx] * self.size_of(idx, sizes) + self.fringing[idx]
            }
            _ => 0.0,
        }
    }

    /// Asserts the slice-length invariants the unchecked hot loops rely on.
    /// Every node index stored in the CSR lists and `comp_of` is in range by
    /// construction (the topology is built from a validated graph and is
    /// immutable), so after these checks the per-element indexing below
    /// cannot go out of bounds.
    #[inline]
    fn assert_node_slices(&self, slices: &[(&str, usize)]) {
        let n = self.num_nodes();
        for (name, len) in slices {
            assert_eq!(*len, n, "{name} must have one entry per node");
        }
    }

    /// Size of node `idx` (1.0 for non-sizable nodes) over a raw size slice.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes` and `sizes.len() == num_components`.
    #[inline(always)]
    unsafe fn size_of_unchecked(&self, idx: usize, sizes: &[f64]) -> f64 {
        let comp = *self.comp_of.get_unchecked(idx);
        if comp == NOT_SIZABLE {
            1.0
        } else {
            *sizes.get_unchecked(comp)
        }
    }

    /// Resistance of node `idx`, exactly as `Node::resistance`.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes` and `sizes.len() == num_components`.
    #[inline(always)]
    unsafe fn resistance_unchecked(&self, idx: usize, sizes: &[f64]) -> f64 {
        match *self.kind.get_unchecked(idx) {
            KindTag::Driver => *self.unit_resistance.get_unchecked(idx),
            KindTag::Gate | KindTag::Wire => {
                let x = self.size_of_unchecked(idx, sizes);
                if x > 0.0 {
                    *self.unit_resistance.get_unchecked(idx) / x
                } else {
                    f64::INFINITY
                }
            }
            KindTag::Source | KindTag::Sink => 0.0,
        }
    }

    /// Capacitance of node `idx`, exactly as `Node::capacitance`.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes` and `sizes.len() == num_components`.
    #[inline(always)]
    unsafe fn capacitance_unchecked(&self, idx: usize, sizes: &[f64]) -> f64 {
        match *self.kind.get_unchecked(idx) {
            KindTag::Gate => {
                *self.unit_capacitance.get_unchecked(idx) * self.size_of_unchecked(idx, sizes)
            }
            KindTag::Wire => {
                *self.unit_capacitance.get_unchecked(idx) * self.size_of_unchecked(idx, sizes)
                    + *self.fringing.get_unchecked(idx)
            }
            _ => 0.0,
        }
    }

    /// Fanout slice of node `idx` without bounds checks.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes`; the CSR offsets are valid by construction.
    #[inline(always)]
    unsafe fn fanout_unchecked(&self, idx: usize) -> &[u32] {
        let start = *self.fanout_start.get_unchecked(idx) as usize;
        let end = *self.fanout_start.get_unchecked(idx + 1) as usize;
        self.fanout_list.get_unchecked(start..end)
    }

    /// Fanin slice of node `idx` without bounds checks.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes`; the CSR offsets are valid by construction.
    #[inline(always)]
    unsafe fn fanin_unchecked(&self, idx: usize) -> &[u32] {
        let start = *self.fanin_start.get_unchecked(idx) as usize;
        let end = *self.fanin_start.get_unchecked(idx + 1) as usize;
        self.fanin_list.get_unchecked(start..end)
    }

    /// `child_load` over raw slices without bounds checks.
    ///
    /// # Safety
    ///
    /// `parent` and `child` are valid node indices; `sizes.len() ==
    /// num_components`; `presented.len() == num_nodes`.
    #[inline(always)]
    unsafe fn child_load_unchecked(
        &self,
        parent: usize,
        child: usize,
        sizes: &[f64],
        presented: &[f64],
    ) -> f64 {
        match *self.kind.get_unchecked(child) {
            KindTag::Sink => *self.output_load.get_unchecked(parent),
            KindTag::Gate => self.capacitance_unchecked(child, sizes),
            KindTag::Wire => *presented.get_unchecked(child),
            // Drivers and the source can never be fanout children.
            KindTag::Driver | KindTag::Source => 0.0,
        }
    }

    /// Bytes held by the snapshot (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.kind.capacity() * size_of::<KindTag>()
            + self.comp_of.capacity() * size_of::<usize>()
            + self.node_of_comp.capacity() * size_of::<u32>()
            + (self.unit_resistance.capacity()
                + self.unit_capacitance.capacity()
                + self.fringing.capacity()
                + self.output_load.capacity())
                * size_of::<f64>()
            + (self.fanout_start.capacity()
                + self.fanout_list.capacity()
                + self.fanin_start.capacity()
                + self.fanin_list.capacity())
                * size_of::<u32>()
            + size_of::<Self>()
    }

    /// Computes `C_i` (`charged`) and the load each node presents to its
    /// stage parent (`presented`) for every node, by one reverse-topological
    /// traversal.
    ///
    /// `extra_cap`, when provided, holds one value per node and is added on
    /// the downstream side of that node (the coupling load).
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match the circuit.
    pub fn downstream_caps_into(
        &self,
        sizes: &SizeVector,
        extra_cap: Option<&[f64]>,
        charged: &mut [f64],
        presented: &mut [f64],
    ) {
        let n = self.num_nodes();
        self.assert_node_slices(&[("charged", charged.len()), ("presented", presented.len())]);
        assert_eq!(
            sizes.len(),
            self.num_components,
            "sizes must match the circuit"
        );
        if let Some(extra) = extra_cap {
            self.assert_node_slices(&[("extra_cap", extra.len())]);
        }
        let sizes = sizes.as_slice();

        for idx in (0..n).rev() {
            // SAFETY: `idx < n`, all slice lengths asserted above, and every
            // index stored in the topology is in range by construction.
            unsafe {
                let extra = extra_cap.map(|e| *e.get_unchecked(idx)).unwrap_or(0.0);
                match *self.kind.get_unchecked(idx) {
                    KindTag::Source | KindTag::Sink => {
                        *charged.get_unchecked_mut(idx) = 0.0;
                        *presented.get_unchecked_mut(idx) = 0.0;
                    }
                    KindTag::Driver => {
                        let mut c = 0.0;
                        for &child in self.fanout_unchecked(idx) {
                            c += self.child_load_unchecked(idx, child as usize, sizes, presented);
                        }
                        c += extra;
                        *charged.get_unchecked_mut(idx) = c;
                        *presented.get_unchecked_mut(idx) = 0.0;
                    }
                    KindTag::Gate => {
                        let mut c = 0.0;
                        for &child in self.fanout_unchecked(idx) {
                            c += self.child_load_unchecked(idx, child as usize, sizes, presented);
                        }
                        // Coupling on a gate output (rare, but allowed) loads the stage.
                        c += extra;
                        *charged.get_unchecked_mut(idx) = c;
                        *presented.get_unchecked_mut(idx) = self.capacitance_unchecked(idx, sizes);
                    }
                    KindTag::Wire => {
                        let own = self.capacitance_unchecked(idx, sizes);
                        let mut downstream = 0.0;
                        for &child in self.fanout_unchecked(idx) {
                            downstream +=
                                self.child_load_unchecked(idx, child as usize, sizes, presented);
                        }
                        // π-model: the far half of the wire's own capacitance plus
                        // all coupling capacitance is charged through r_i.
                        *charged.get_unchecked_mut(idx) = own / 2.0 + extra + downstream;
                        // The full wire capacitance loads everything upstream.
                        *presented.get_unchecked_mut(idx) = own + extra + downstream;
                    }
                }
            }
        }
    }

    /// Computes the λ-weighted upstream resistance `R_i` of Theorem 5 for
    /// every node into `upstream`. `weights` holds `λ_k` per raw node index.
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match the circuit.
    pub fn upstream_resistance_into(
        &self,
        sizes: &SizeVector,
        weights: &[f64],
        upstream: &mut [f64],
    ) {
        let n = self.num_nodes();
        self.assert_node_slices(&[("weights", weights.len()), ("upstream", upstream.len())]);
        assert_eq!(
            sizes.len(),
            self.num_components,
            "sizes must match the circuit"
        );
        let sizes = sizes.as_slice();
        for idx in 0..n {
            // SAFETY: `idx < n`, all slice lengths asserted above, and every
            // index stored in the topology is in range by construction.
            unsafe {
                let mut acc = 0.0;
                for &pred in self.fanin_unchecked(idx) {
                    let p = pred as usize;
                    match *self.kind.get_unchecked(p) {
                        KindTag::Source => {}
                        KindTag::Driver | KindTag::Gate => {
                            acc += *weights.get_unchecked(p) * self.resistance_unchecked(p, sizes);
                        }
                        KindTag::Wire => {
                            acc += *upstream.get_unchecked(p)
                                + *weights.get_unchecked(p) * self.resistance_unchecked(p, sizes);
                        }
                        KindTag::Sink => unreachable!("sink has no fanout"),
                    }
                }
                *upstream.get_unchecked_mut(idx) = acc;
            }
        }
    }

    /// Computes the per-component delays `D_i` from precomputed charged
    /// capacitances into `delays` (zero for source and sink).
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match the circuit.
    pub fn delays_into(&self, sizes: &SizeVector, charged: &[f64], delays: &mut [f64]) {
        let n = self.num_nodes();
        self.assert_node_slices(&[("charged", charged.len()), ("delays", delays.len())]);
        assert_eq!(
            sizes.len(),
            self.num_components,
            "sizes must match the circuit"
        );
        let sizes = sizes.as_slice();
        for idx in 0..n {
            // SAFETY: `idx < n`, slice lengths asserted above.
            unsafe {
                *delays.get_unchecked_mut(idx) = match *self.kind.get_unchecked(idx) {
                    KindTag::Source | KindTag::Sink => 0.0,
                    _ => self.resistance_unchecked(idx, sizes) * *charged.get_unchecked(idx),
                };
            }
        }
    }

    /// Propagates arrival times from precomputed per-node delays and
    /// extracts one critical path, writing only into the provided buffers;
    /// returns the critical-path delay. The same per-kind recurrence as
    /// [`propagate_arrivals_into`], traversing the dense topology instead of
    /// the pointer-rich graph — bitwise identical (same node order, same
    /// fanin order, same `>=` tie-breaking).
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match the circuit.
    pub fn propagate_arrivals(
        &self,
        delays: &[f64],
        arrival: &mut [f64],
        pred: &mut [usize],
        critical_path: &mut Vec<NodeId>,
    ) -> f64 {
        let n = self.num_nodes();
        self.assert_node_slices(&[
            ("delays", delays.len()),
            ("arrival", arrival.len()),
            ("pred", pred.len()),
        ]);
        for idx in 0..n {
            // SAFETY: `idx < n`, slice lengths asserted above, and every
            // index stored in the topology is in range by construction.
            unsafe {
                *pred.get_unchecked_mut(idx) = NO_PRED;
                match *self.kind.get_unchecked(idx) {
                    KindTag::Source => *arrival.get_unchecked_mut(idx) = 0.0,
                    KindTag::Sink => {
                        let mut best = 0.0;
                        let mut best_pred = NO_PRED;
                        for &j in self.fanin_unchecked(idx) {
                            let j = j as usize;
                            if *arrival.get_unchecked(j) >= best {
                                best = *arrival.get_unchecked(j);
                                best_pred = j;
                            }
                        }
                        *arrival.get_unchecked_mut(idx) = best;
                        *pred.get_unchecked_mut(idx) = best_pred;
                    }
                    KindTag::Driver => {
                        *arrival.get_unchecked_mut(idx) = *delays.get_unchecked(idx);
                    }
                    KindTag::Gate | KindTag::Wire => {
                        let mut best = 0.0;
                        let mut best_pred = NO_PRED;
                        for &j in self.fanin_unchecked(idx) {
                            let j = j as usize;
                            if matches!(*self.kind.get_unchecked(j), KindTag::Source) {
                                continue;
                            }
                            if *arrival.get_unchecked(j) >= best {
                                best = *arrival.get_unchecked(j);
                                best_pred = j;
                            }
                        }
                        *arrival.get_unchecked_mut(idx) = best + *delays.get_unchecked(idx);
                        *pred.get_unchecked_mut(idx) = best_pred;
                    }
                }
            }
        }

        let critical_path_delay = arrival[self.sink];
        critical_path.clear();
        let mut cursor = pred[self.sink];
        while cursor != NO_PRED {
            critical_path.push(NodeId::new(cursor));
            cursor = pred[cursor];
        }
        critical_path.reverse();
        critical_path_delay
    }

    /// Incrementally brings `charged`/`presented` — currently reflecting
    /// `prev_sizes` and the pre-delta coupling load — up to date with
    /// `sizes`, given the dense component indices whose size changed
    /// (`changed_comps`) and the per-node coupling-load deltas already
    /// applied to the extra-capacitance table (`extra_delta`, as
    /// `(raw node index, delta)` pairs).
    ///
    /// The capacitance change of every resized component and every
    /// coupling-load delta is scattered onto its node and propagated
    /// upstream along the fanin DAG, in reverse topological (descending node
    /// index) order, touching only the perturbed subgraph. The result
    /// differs from a full rebuild only by floating-point accumulation
    /// noise.
    #[allow(clippy::too_many_arguments)]
    pub fn downstream_caps_update(
        &self,
        sizes: &SizeVector,
        prev_sizes: &[f64],
        changed_comps: &[u32],
        extra_cap: &[f64],
        extra_delta: &[(u32, f64)],
        charged: &mut [f64],
        presented: &mut [f64],
        inc: &mut IncrementalWorkspace,
    ) {
        let n = self.num_nodes();
        self.assert_node_slices(&[
            ("charged", charged.len()),
            ("presented", presented.len()),
            ("extra_cap", extra_cap.len()),
        ]);
        assert_eq!(sizes.len(), self.num_components);
        assert_eq!(prev_sizes.len(), self.num_components);
        inc.assert_sized(n);
        let sizes = sizes.as_slice();

        // Seed the worklist: own-capacitance deltas of the resized
        // components, plus the coupling-load deltas already applied to the
        // extra-capacitance table.
        for &comp in changed_comps {
            let comp = comp as usize;
            let idx = self.node_of_component(comp);
            inc.own[idx] += self.unit_capacitance[idx] * (sizes[comp] - prev_sizes[comp]);
            if !inc.queued[idx] {
                inc.queued[idx] = true;
                inc.down_heap.push(idx as u32);
            }
        }
        for &(node, delta) in extra_delta {
            let idx = node as usize;
            inc.extra[idx] += delta;
            if !inc.queued[idx] {
                inc.queued[idx] = true;
                inc.down_heap.push(idx as u32);
            }
        }

        // Propagate in descending node-index order (nodes are stored in
        // topological order, so every fanout child has a larger index than
        // its parents and has settled before the parent is popped).
        while let Some(idx) = inc.down_heap.pop() {
            let idx = idx as usize;
            inc.queued[idx] = false;
            let own = std::mem::take(&mut inc.own[idx]);
            let extra = std::mem::take(&mut inc.extra[idx]);
            let incoming = std::mem::take(&mut inc.pending[idx]);
            // `dc` is the change of the capacitance charged through the
            // node's resistance, `dp` the change of the load the node
            // presents to its stage parents — mirroring the per-kind
            // arithmetic of `downstream_caps_into` (a gate's presented load
            // is its own capacitance, so `dp = own` there).
            let (dc, dp) = match self.kind[idx] {
                KindTag::Source | KindTag::Sink => (0.0, 0.0),
                KindTag::Driver => (incoming + extra, 0.0),
                KindTag::Gate => (incoming + extra, own),
                KindTag::Wire => (own / 2.0 + extra + incoming, own + extra + incoming),
            };
            charged[idx] += dc;
            presented[idx] += dp;
            if dp != 0.0 {
                for &parent in self.fanin(idx) {
                    let p = parent as usize;
                    if matches!(self.kind[p], KindTag::Source) {
                        continue;
                    }
                    inc.pending[p] += dp;
                    if !inc.queued[p] {
                        inc.queued[p] = true;
                        inc.down_heap.push(parent);
                    }
                }
            }
        }
    }

    /// Fused downstream-accumulation + resize sweep (Gauss–Seidel): walks
    /// the circuit once in reverse topological order, computing each node's
    /// charged capacitance from the *already updated* downstream state, and
    /// immediately invokes `resize` for every sizable component so parents
    /// see their children's fresh sizes within the same sweep. The coupling
    /// load (`extra_cap`) and the upstream-resistance table the caller's
    /// `resize` closure reads stay fixed for the duration of the sweep
    /// (Jacobi in those directions).
    ///
    /// `resize(comp, node, charged, x)` returns the component's new size
    /// (returning `x` unchanged leaves it as is — how callers skip frozen
    /// components). `charged`/`presented` are left consistent with the
    /// post-sweep sizes.
    ///
    /// The fixed points of this iteration are exactly those of the separate
    /// Jacobi-style passes (both solve the same componentwise equations),
    /// but the one-directional freshness roughly squares the contraction
    /// factor per sweep, so solves converge in far fewer sweeps.
    pub fn fused_downstream_resize<F: FnMut(usize, usize, f64, f64) -> f64>(
        &self,
        sizes: &mut SizeVector,
        extra_cap: &[f64],
        charged: &mut [f64],
        presented: &mut [f64],
        resize: &mut F,
    ) {
        let n = self.num_nodes();
        self.assert_node_slices(&[
            ("extra_cap", extra_cap.len()),
            ("charged", charged.len()),
            ("presented", presented.len()),
        ]);
        assert_eq!(
            sizes.len(),
            self.num_components,
            "sizes must match the circuit"
        );
        let xs = sizes.as_mut_slice();
        for idx in (0..n).rev() {
            // SAFETY: `idx < n`, slice lengths asserted above, and every
            // index stored in the topology is in range by construction.
            unsafe {
                let extra = *extra_cap.get_unchecked(idx);
                match *self.kind.get_unchecked(idx) {
                    KindTag::Source | KindTag::Sink => {
                        *charged.get_unchecked_mut(idx) = 0.0;
                        *presented.get_unchecked_mut(idx) = 0.0;
                    }
                    KindTag::Driver => {
                        let mut c = 0.0;
                        for &child in self.fanout_unchecked(idx) {
                            c += self.child_load_unchecked(idx, child as usize, xs, presented);
                        }
                        *charged.get_unchecked_mut(idx) = c + extra;
                        *presented.get_unchecked_mut(idx) = 0.0;
                    }
                    KindTag::Gate => {
                        let mut c = 0.0;
                        for &child in self.fanout_unchecked(idx) {
                            c += self.child_load_unchecked(idx, child as usize, xs, presented);
                        }
                        let c = c + extra;
                        *charged.get_unchecked_mut(idx) = c;
                        let comp = *self.comp_of.get_unchecked(idx);
                        let x = *xs.get_unchecked(comp);
                        let x_new = resize(comp, idx, c, x);
                        if x_new != x {
                            *xs.get_unchecked_mut(comp) = x_new;
                        }
                        *presented.get_unchecked_mut(idx) =
                            *self.unit_capacitance.get_unchecked(idx) * x_new;
                    }
                    KindTag::Wire => {
                        let mut downstream = 0.0;
                        for &child in self.fanout_unchecked(idx) {
                            downstream +=
                                self.child_load_unchecked(idx, child as usize, xs, presented);
                        }
                        let comp = *self.comp_of.get_unchecked(idx);
                        let x = *xs.get_unchecked(comp);
                        let unit_cap = *self.unit_capacitance.get_unchecked(idx);
                        let fringing = *self.fringing.get_unchecked(idx);
                        let own = unit_cap * x + fringing;
                        // π-model split, exactly as `downstream_caps_into`.
                        let c = own / 2.0 + extra + downstream;
                        let x_new = resize(comp, idx, c, x);
                        if x_new != x {
                            *xs.get_unchecked_mut(comp) = x_new;
                            let own_new = unit_cap * x_new + fringing;
                            *charged.get_unchecked_mut(idx) = own_new / 2.0 + extra + downstream;
                            *presented.get_unchecked_mut(idx) = own_new + extra + downstream;
                        } else {
                            *charged.get_unchecked_mut(idx) = c;
                            *presented.get_unchecked_mut(idx) = own + extra + downstream;
                        }
                    }
                }
            }
        }
    }

    /// Forward counterpart of
    /// [`fused_downstream_resize`](Self::fused_downstream_resize): walks the
    /// circuit once in forward topological order, computing each node's
    /// λ-weighted upstream resistance from the *already updated* upstream
    /// state, and immediately invokes `resize(comp, node, upstream, x)` for
    /// every sizable component — so downstream nodes see their parents'
    /// fresh sizes within the same pass. The charged-capacitance table the
    /// caller's closure reads stays fixed for the pass (Jacobi in that
    /// direction); alternating forward and backward fused passes refreshes
    /// both directions with one traversal each.
    pub fn fused_upstream_resize<F: FnMut(usize, usize, f64, f64) -> f64>(
        &self,
        sizes: &mut SizeVector,
        weights: &[f64],
        upstream: &mut [f64],
        resize: &mut F,
    ) {
        let n = self.num_nodes();
        self.assert_node_slices(&[("weights", weights.len()), ("upstream", upstream.len())]);
        assert_eq!(
            sizes.len(),
            self.num_components,
            "sizes must match the circuit"
        );
        let xs = sizes.as_mut_slice();
        for idx in 0..n {
            // SAFETY: `idx < n`, slice lengths asserted above, and every
            // index stored in the topology is in range by construction.
            unsafe {
                // Accumulate exactly as `upstream_resistance_into`, but over
                // the current (partially resized) sizes.
                let mut acc = 0.0;
                for &pred in self.fanin_unchecked(idx) {
                    let p = pred as usize;
                    match *self.kind.get_unchecked(p) {
                        KindTag::Source | KindTag::Sink => {}
                        KindTag::Driver | KindTag::Gate => {
                            acc += *weights.get_unchecked(p) * self.resistance_unchecked(p, xs);
                        }
                        KindTag::Wire => {
                            acc += *upstream.get_unchecked(p)
                                + *weights.get_unchecked(p) * self.resistance_unchecked(p, xs);
                        }
                    }
                }
                *upstream.get_unchecked_mut(idx) = acc;
                let comp = *self.comp_of.get_unchecked(idx);
                if comp != NOT_SIZABLE {
                    let x = *xs.get_unchecked(comp);
                    let x_new = resize(comp, idx, acc, x);
                    if x_new != x {
                        *xs.get_unchecked_mut(comp) = x_new;
                    }
                }
            }
        }
    }

    /// Incrementally brings the λ-weighted upstream resistances — currently
    /// reflecting `prev_sizes` under the same `weights` — up to date with
    /// `sizes`, given the dense component indices whose size changed. The
    /// resistance change of every resized component is propagated
    /// downstream along the fanout DAG in forward topological (ascending
    /// node index) order. The weights must be the ones the current table
    /// was computed with (they are fixed within an LRS solve).
    pub fn upstream_resistance_update(
        &self,
        sizes: &SizeVector,
        prev_sizes: &[f64],
        changed_comps: &[u32],
        weights: &[f64],
        upstream: &mut [f64],
        inc: &mut IncrementalWorkspace,
    ) {
        let n = self.num_nodes();
        self.assert_node_slices(&[("weights", weights.len()), ("upstream", upstream.len())]);
        assert_eq!(sizes.len(), self.num_components);
        assert_eq!(prev_sizes.len(), self.num_components);
        inc.assert_sized(n);
        let sizes = sizes.as_slice();

        // Seed: resistance deltas of the resized components (`own` doubles
        // as the per-node resistance delta in this pass).
        for &comp in changed_comps {
            let comp = comp as usize;
            let idx = self.node_of_component(comp);
            let r_new = if sizes[comp] > 0.0 {
                self.unit_resistance[idx] / sizes[comp]
            } else {
                f64::INFINITY
            };
            let r_old = if prev_sizes[comp] > 0.0 {
                self.unit_resistance[idx] / prev_sizes[comp]
            } else {
                f64::INFINITY
            };
            inc.own[idx] += r_new - r_old;
            if !inc.queued[idx] {
                inc.queued[idx] = true;
                inc.up_heap.push(Reverse(idx as u32));
            }
        }

        // Ascending order: every fanin parent has settled before a node is
        // popped, so each node is processed exactly once.
        while let Some(Reverse(idx)) = inc.up_heap.pop() {
            let idx = idx as usize;
            inc.queued[idx] = false;
            let d_r = std::mem::take(&mut inc.own[idx]);
            let d_up = std::mem::take(&mut inc.pending[idx]);
            upstream[idx] += d_up;
            // Change of this node's contribution to each fanout child's
            // upstream sum: its weighted resistance delta, plus (for wires)
            // its own upstream change, mirroring `upstream_resistance_into`.
            let d_contrib = match self.kind[idx] {
                KindTag::Source | KindTag::Sink => 0.0,
                KindTag::Driver | KindTag::Gate => weights[idx] * d_r,
                KindTag::Wire => weights[idx] * d_r + d_up,
            };
            if d_contrib != 0.0 {
                for &child in self.fanout(idx) {
                    let c = child as usize;
                    inc.pending[c] += d_contrib;
                    if !inc.queued[c] {
                        inc.queued[c] = true;
                        inc.up_heap.push(Reverse(child));
                    }
                }
            }
        }
    }
}

/// Pre-sized dense scratch buffers for one circuit, reused across every
/// evaluation so the hot loops never touch the allocator.
///
/// Per-node buffers are indexed by raw node index, per-component buffers by
/// the graph's dense component index. The workspace is deliberately dumb —
/// all semantics live in [`CircuitTopology`] and the solvers that drive it.
#[derive(Debug, Clone)]
pub struct EvalWorkspace {
    /// `C_i` per node: capacitance charged through the node's resistance.
    pub charged: Vec<f64>,
    /// Load each node presents to its stage parent, per node.
    pub presented: Vec<f64>,
    /// λ-weighted upstream resistance `R_i` per node.
    pub upstream: Vec<f64>,
    /// Extra (coupling) capacitance per node, filled by the coupling layer.
    pub extra_cap: Vec<f64>,
    /// Per-component Elmore delays `D_i`, per node.
    pub delays: Vec<f64>,
    /// Arrival times `a_i` per node.
    pub arrival: Vec<f64>,
    /// Node delay weights `λ_i` per node.
    pub node_weights: Vec<f64>,
    /// Critical-path predecessor per node ([`NO_PRED`] when none).
    pub pred: Vec<usize>,
    /// One critical path (driver → primary-output driver); capacity is
    /// reserved for the longest possible path so pushes never reallocate.
    pub critical_path: Vec<NodeId>,
}

impl EvalWorkspace {
    /// Creates a workspace sized for `graph`.
    pub fn new(graph: &CircuitGraph) -> Self {
        let n = graph.num_nodes();
        EvalWorkspace {
            charged: vec![0.0; n],
            presented: vec![0.0; n],
            upstream: vec![0.0; n],
            extra_cap: vec![0.0; n],
            delays: vec![0.0; n],
            arrival: vec![0.0; n],
            node_weights: vec![0.0; n],
            pred: vec![NO_PRED; n],
            critical_path: Vec::with_capacity(n),
        }
    }

    /// Total bytes held by the workspace buffers (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.charged.capacity()
            + self.presented.capacity()
            + self.upstream.capacity()
            + self.extra_cap.capacity()
            + self.delays.capacity()
            + self.arrival.capacity()
            + self.node_weights.capacity())
            * size_of::<f64>()
            + self.pred.capacity() * size_of::<usize>()
            + self.critical_path.capacity() * size_of::<NodeId>()
            + size_of::<Self>()
    }
}

/// Propagates arrival times from precomputed delays and extracts one
/// critical path, writing only into the provided buffers. Returns the
/// critical-path delay.
///
/// This is the allocation-free core of
/// [`TimingAnalysis::from_delays`](crate::TimingAnalysis::from_delays) and
/// the graph-walking oracle of [`CircuitTopology::propagate_arrivals`].
///
/// # Panics
///
/// Panics in debug builds when a slice length does not match the circuit.
pub fn propagate_arrivals_into(
    graph: &CircuitGraph,
    delays: &[f64],
    arrival: &mut [f64],
    pred: &mut [usize],
    critical_path: &mut Vec<NodeId>,
) -> f64 {
    let n = graph.num_nodes();
    debug_assert_eq!(delays.len(), n);
    debug_assert_eq!(arrival.len(), n);
    debug_assert_eq!(pred.len(), n);

    for id in graph.node_ids() {
        let idx = id.index();
        pred[idx] = NO_PRED;
        match graph.node(id).kind {
            NodeKind::Source => arrival[idx] = 0.0,
            NodeKind::Sink => {
                let mut best = 0.0;
                let mut best_pred = NO_PRED;
                for &j in graph.fanin(id) {
                    if arrival[j.index()] >= best {
                        best = arrival[j.index()];
                        best_pred = j.index();
                    }
                }
                arrival[idx] = best;
                pred[idx] = best_pred;
            }
            NodeKind::Driver => {
                arrival[idx] = delays[idx];
            }
            NodeKind::Gate(_) | NodeKind::Wire => {
                let mut best = 0.0;
                let mut best_pred = NO_PRED;
                for &j in graph.fanin(id) {
                    if j == graph.source() {
                        continue;
                    }
                    if arrival[j.index()] >= best {
                        best = arrival[j.index()];
                        best_pred = j.index();
                    }
                }
                arrival[idx] = best + delays[idx];
                pred[idx] = best_pred;
            }
        }
    }

    let critical_path_delay = arrival[graph.sink().index()];
    critical_path.clear();
    let mut cursor = pred[graph.sink().index()];
    while cursor != NO_PRED {
        critical_path.push(NodeId::new(cursor));
        cursor = pred[cursor];
    }
    critical_path.reverse();
    critical_path_delay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::elmore::ElmoreAnalyzer;
    use crate::node::GateKind;
    use crate::tech::Technology;
    use crate::timing::TimingAnalysis;

    fn chain() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let d2 = b.add_driver("d2", 80.0).unwrap();
        let w1 = b.add_wire("w1", 100.0).unwrap();
        let w2 = b.add_wire("w2", 150.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 200.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(w2, g1).unwrap();
        b.connect(g1, w3).unwrap();
        b.connect_output(w3, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn topology_matches_analyzer_bitwise() {
        let c = chain();
        let sizes = c.uniform_sizes(1.3);
        let analyzer = ElmoreAnalyzer::new(&c);
        let mut ws = EvalWorkspace::new(&c);
        let topo = CircuitTopology::new(&c);

        let mut extra = vec![0.0; c.num_nodes()];
        extra[c.node_by_name("w1").unwrap().index()] = 3.5;

        let caps = analyzer.downstream_caps(&sizes, Some(&extra));
        topo.downstream_caps_into(&sizes, Some(&extra), &mut ws.charged, &mut ws.presented);
        assert_eq!(caps.charged, ws.charged);
        assert_eq!(caps.presented, ws.presented);

        let weights = vec![0.7; c.num_nodes()];
        let upstream = analyzer.weighted_upstream_resistance(&sizes, &weights);
        topo.upstream_resistance_into(&sizes, &weights, &mut ws.upstream);
        assert_eq!(upstream, ws.upstream);

        let delays = analyzer.delays(&sizes, Some(&extra));
        topo.delays_into(&sizes, &ws.charged, &mut ws.delays);
        assert_eq!(delays, ws.delays);
    }

    #[test]
    fn arrival_propagation_matches_timing_analysis() {
        let c = chain();
        let sizes = c.uniform_sizes(2.0);
        let reference = TimingAnalysis::run(&c, &sizes, None);

        let mut ws = EvalWorkspace::new(&c);
        let topo = CircuitTopology::new(&c);
        topo.downstream_caps_into(&sizes, None, &mut ws.charged, &mut ws.presented);
        topo.delays_into(&sizes, &ws.charged, &mut ws.delays);

        let delay = propagate_arrivals_into(
            &c,
            &ws.delays,
            &mut ws.arrival,
            &mut ws.pred,
            &mut ws.critical_path,
        );
        assert_eq!(delay, reference.critical_path_delay);
        assert_eq!(ws.arrival, reference.arrival.values);
        assert_eq!(ws.critical_path, reference.critical_path);

        // The CSR walk reproduces the graph walk bitwise.
        let mut dense = EvalWorkspace::new(&c);
        let csr_delay = topo.propagate_arrivals(
            &ws.delays,
            &mut dense.arrival,
            &mut dense.pred,
            &mut dense.critical_path,
        );
        assert_eq!(csr_delay, delay);
        assert_eq!(dense.arrival, ws.arrival);
        assert_eq!(dense.critical_path, ws.critical_path);
    }

    #[test]
    fn topology_mirrors_graph_adjacency() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        assert_eq!(topo.num_nodes(), c.num_nodes());
        for id in c.node_ids() {
            let fanout: Vec<usize> = topo
                .fanout(id.index())
                .iter()
                .map(|&x| x as usize)
                .collect();
            let expected: Vec<usize> = c.fanout(id).iter().map(|n| n.index()).collect();
            assert_eq!(fanout, expected);
            let fanin: Vec<usize> = topo.fanin(id.index()).iter().map(|&x| x as usize).collect();
            let expected: Vec<usize> = c.fanin(id).iter().map(|n| n.index()).collect();
            assert_eq!(fanin, expected);
        }
        let sizes = c.uniform_sizes(1.7);
        for id in c.node_ids() {
            assert_eq!(
                topo.resistance(id.index(), &sizes),
                c.resistance(id, &sizes)
            );
            assert_eq!(
                topo.capacitance(id.index(), &sizes),
                c.capacitance(id, &sizes)
            );
        }
        assert!(topo.memory_bytes() > 0);
    }

    #[test]
    fn incremental_updates_match_full_rebuild() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let mut inc = IncrementalWorkspace::new(n);

        let prev = c.uniform_sizes(1.0);
        let mut extra = vec![0.0; n];
        let w1 = c.node_by_name("w1").unwrap().index();
        extra[w1] = 2.0;

        // Full state at the previous sizes.
        let mut charged = vec![0.0; n];
        let mut presented = vec![0.0; n];
        topo.downstream_caps_into(&prev, Some(&extra), &mut charged, &mut presented);
        let weights = vec![0.4; n];
        let mut upstream = vec![0.0; n];
        topo.upstream_resistance_into(&prev, &weights, &mut upstream);

        // Perturb two components and one coupling load.
        let mut sizes = prev.clone();
        let comp_a = c.component_index(c.node_by_name("w2").unwrap()).unwrap();
        let comp_b = c.component_index(c.node_by_name("g1").unwrap()).unwrap();
        sizes[comp_a] = 3.5;
        sizes[comp_b] = 0.7;
        let changed = [comp_a as u32, comp_b as u32];
        let extra_delta = [(w1 as u32, 1.25)];
        extra[w1] += 1.25;

        topo.downstream_caps_update(
            &sizes,
            prev.as_slice(),
            &changed,
            &extra,
            &extra_delta,
            &mut charged,
            &mut presented,
            &mut inc,
        );
        topo.upstream_resistance_update(
            &sizes,
            prev.as_slice(),
            &changed,
            &weights,
            &mut upstream,
            &mut inc,
        );

        let mut full_charged = vec![0.0; n];
        let mut full_presented = vec![0.0; n];
        topo.downstream_caps_into(&sizes, Some(&extra), &mut full_charged, &mut full_presented);
        let mut full_upstream = vec![0.0; n];
        topo.upstream_resistance_into(&sizes, &weights, &mut full_upstream);

        for i in 0..n {
            assert!(
                (charged[i] - full_charged[i]).abs() <= 1e-9 * full_charged[i].abs().max(1.0),
                "charged[{i}]: {} vs {}",
                charged[i],
                full_charged[i]
            );
            assert!(
                (presented[i] - full_presented[i]).abs() <= 1e-9 * full_presented[i].abs().max(1.0),
                "presented[{i}]: {} vs {}",
                presented[i],
                full_presented[i]
            );
            assert!(
                (upstream[i] - full_upstream[i]).abs() <= 1e-9 * full_upstream[i].abs().max(1.0),
                "upstream[{i}]: {} vs {}",
                upstream[i],
                full_upstream[i]
            );
        }
        assert!(inc.memory_bytes() > 0);
    }

    #[test]
    fn incremental_noop_update_changes_nothing() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let mut inc = IncrementalWorkspace::new(n);
        let sizes = c.uniform_sizes(1.6);
        let extra = vec![0.0; n];

        let mut charged = vec![0.0; n];
        let mut presented = vec![0.0; n];
        topo.downstream_caps_into(&sizes, Some(&extra), &mut charged, &mut presented);
        let before = charged.clone();
        topo.downstream_caps_update(
            &sizes,
            sizes.as_slice(),
            &[],
            &extra,
            &[],
            &mut charged,
            &mut presented,
            &mut inc,
        );
        assert_eq!(charged, before, "empty dirty set must be a no-op");
    }

    #[test]
    fn topology_maps_components_to_nodes() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        for id in c.component_ids() {
            let comp = c.component_index(id).unwrap();
            assert_eq!(topo.node_of_component(comp), id.index());
        }
    }

    /// A deterministic, value-dependent resize, so a sweep that read a
    /// stale neighbour would land on different sizes.
    fn resize_by_value(_comp: usize, _node: usize, value: f64, x: f64) -> f64 {
        (x * 0.5 + value.sqrt().min(4.0) * 0.5).clamp(0.2, 8.0)
    }

    #[test]
    fn fused_passes_with_an_identity_resize_match_the_separate_traversals() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let mut extra = vec![0.0; n];
        extra[c.node_by_name("w2").unwrap().index()] = 1.75;
        let weights = vec![0.6; n];
        let reference = c.uniform_sizes(1.4);

        let mut charged = vec![0.0; n];
        let mut presented = vec![0.0; n];
        topo.downstream_caps_into(&reference, Some(&extra), &mut charged, &mut presented);
        let mut upstream = vec![0.0; n];
        topo.upstream_resistance_into(&reference, &weights, &mut upstream);

        let mut sizes = reference.clone();
        let mut fused_charged = vec![0.0; n];
        let mut fused_presented = vec![0.0; n];
        topo.fused_downstream_resize(
            &mut sizes,
            &extra,
            &mut fused_charged,
            &mut fused_presented,
            &mut |_, _, _, x| x,
        );
        let mut fused_upstream = vec![0.0; n];
        topo.fused_upstream_resize(
            &mut sizes,
            &weights,
            &mut fused_upstream,
            &mut |_, _, _, x| x,
        );

        assert_eq!(sizes, reference);
        assert_eq!(fused_charged, charged);
        assert_eq!(fused_presented, presented);
        assert_eq!(fused_upstream, upstream);
    }

    #[test]
    fn fused_downstream_resize_leaves_the_tables_consistent_with_the_new_sizes() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let mut extra = vec![0.0; n];
        extra[c.node_by_name("w1").unwrap().index()] = 0.9;
        let mut sizes = c.uniform_sizes(1.0);
        let mut charged = vec![0.0; n];
        let mut presented = vec![0.0; n];
        topo.fused_downstream_resize(
            &mut sizes,
            &extra,
            &mut charged,
            &mut presented,
            &mut resize_by_value,
        );
        assert_ne!(sizes, c.uniform_sizes(1.0), "the resize must move sizes");

        // Children settle before their parents, so one full traversal at the
        // post-sweep sizes reproduces the sweep's tables bitwise.
        let mut full_charged = vec![0.0; n];
        let mut full_presented = vec![0.0; n];
        topo.downstream_caps_into(&sizes, Some(&extra), &mut full_charged, &mut full_presented);
        assert_eq!(charged, full_charged);
        assert_eq!(presented, full_presented);
    }

    #[test]
    fn fused_upstream_resize_leaves_the_table_consistent_with_the_new_sizes() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let weights: Vec<f64> = (0..n).map(|i| 0.2 + 0.1 * i as f64).collect();
        let mut sizes = c.uniform_sizes(2.0);
        let mut upstream = vec![0.0; n];
        topo.fused_upstream_resize(&mut sizes, &weights, &mut upstream, &mut resize_by_value);
        assert_ne!(sizes, c.uniform_sizes(2.0), "the resize must move sizes");

        // Parents settle before their children, so one full traversal at the
        // post-pass sizes reproduces the pass's table bitwise.
        let mut full_upstream = vec![0.0; n];
        topo.upstream_resistance_into(&sizes, &weights, &mut full_upstream);
        assert_eq!(upstream, full_upstream);
    }

    #[test]
    fn fused_downstream_resize_visits_each_component_once_children_first() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let extra = vec![0.0; n];
        let mut sizes = c.uniform_sizes(1.0);
        let mut charged = vec![0.0; n];
        let mut presented = vec![0.0; n];
        let mut visits: Vec<(usize, usize)> = Vec::new();
        topo.fused_downstream_resize(
            &mut sizes,
            &extra,
            &mut charged,
            &mut presented,
            &mut |comp, node, _, x| {
                visits.push((comp, node));
                x
            },
        );

        let mut comps: Vec<usize> = visits.iter().map(|&(comp, _)| comp).collect();
        comps.sort_unstable();
        assert_eq!(comps, (0..c.num_components()).collect::<Vec<_>>());
        for (pos, &(comp, node)) in visits.iter().enumerate() {
            assert_eq!(topo.node_of_component(comp), node);
            // Every sizable fanout child was resized before its parent.
            for &child in topo.fanout(node) {
                if topo.component_of(child as usize).is_some() {
                    let child_pos = visits.iter().position(|&(_, v)| v == child as usize);
                    assert!(
                        child_pos.is_some_and(|p| p < pos),
                        "child {child} of {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_upstream_resize_visits_each_component_once_parents_first() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let weights = vec![0.5; n];
        let mut sizes = c.uniform_sizes(1.0);
        let mut upstream = vec![0.0; n];
        let mut visits: Vec<(usize, usize)> = Vec::new();
        topo.fused_upstream_resize(
            &mut sizes,
            &weights,
            &mut upstream,
            &mut |comp, node, _, x| {
                visits.push((comp, node));
                x
            },
        );

        let mut comps: Vec<usize> = visits.iter().map(|&(comp, _)| comp).collect();
        comps.sort_unstable();
        assert_eq!(comps, (0..c.num_components()).collect::<Vec<_>>());
        for (pos, &(comp, node)) in visits.iter().enumerate() {
            assert_eq!(topo.node_of_component(comp), node);
            // Every sizable fanin parent was resized before its child.
            for &parent in topo.fanin(node) {
                if topo.component_of(parent as usize).is_some() {
                    let parent_pos = visits.iter().position(|&(_, v)| v == parent as usize);
                    assert!(
                        parent_pos.is_some_and(|p| p < pos),
                        "parent {parent} of {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_buffers_are_sized_for_the_circuit() {
        let c = chain();
        let ws = EvalWorkspace::new(&c);
        assert_eq!(ws.charged.len(), c.num_nodes());
        assert!(ws.critical_path.capacity() >= c.num_nodes());
        assert!(ws.memory_bytes() > 0);
    }
}
