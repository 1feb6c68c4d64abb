//! Compiled programs and the graph interpreter that runs them — the
//! model-side client of the graph fusion pass (paper §4.1.1) and the one
//! executor every model path shares.
//!
//! A [`Program`] is a small IR: the model emits one **fine-grained** op
//! sequence (one node per kernel a training framework would launch),
//! [`compile`](Program::compile) runs `tt_graph::fusion::fuse` over it and
//! derives, once, everything execution needs: the topological order, each
//! activation's `{first_op, last_op, size}` lifetime record (paper Alg. 1's
//! input) and, per tensor, where its bytes come from. Every program knows
//! how many memory-bound passes the pass elided
//! ([`Program::elided_passes`]).
//!
//! Execution is the paper's runtime pipeline: the sequence-length-aware
//! allocator of the caller's [`Workspace`] plans a `(chunk, offset)` for
//! every activation, the plan is validated, and the nodes run in order,
//! each reading its inputs and writing its output directly inside the
//! shared chunks. Tensors whose lifetimes do not overlap share bytes; the
//! arena re-checks at runtime that no node's output aliases its inputs, so
//! a planner bug becomes a panic, not a silent corruption. The same loop
//! runs the serving runtime's whole-model encoder graphs, `Bert::forward`
//! and every GPT decode step, optionally timing each op into
//! [`ExecutorMetrics`] and recording request-scoped spans.
//!
//! GEMM nodes whose second operand is a 2-D weight consult the
//! [`WeightStore`]'s int8 sidecar ([`tt_tensor::Q8Matrix`]): when present
//! (and its layout matches the node's transpose flag), the node runs
//! through `sgemm_q8` — per-output-channel scales, f32 accumulate, a
//! quarter of the weight traffic on the bandwidth-bound decode GEMVs.

use std::collections::HashMap;
use std::sync::Arc;

use tt_alloc::{TensorUsage, TurboAllocator};
use tt_graph::{fusion, lifetime::activation_lifetimes, Graph, Node, NodeId, OpKind};
use tt_graph::{TensorClass, TensorId};
use tt_kernels as k;
use tt_telemetry::{AttrValue, Counter, Histogram, Registry, SpanContext, Stopwatch, Tracer};
use tt_tensor::storage::{Arena, Region};
use tt_tensor::{batched_sgemm, sgemm, sgemm_q8, GemmSpec, Q8Matrix, Trans};

use crate::weights::WeightStore;

/// Every operator class the interpreter dispatches, in a fixed order. The
/// per-op time-share metrics (paper Table 2's GEMM / non-GEMM split) key
/// off these names.
pub const OP_NAMES: [&str; 15] = [
    "matmul",
    "add_bias",
    "gelu",
    "add_bias_gelu",
    "split_heads",
    "add_bias_split_heads",
    "merge_heads",
    "scale",
    "mask",
    "softmax",
    "scale_mask_softmax",
    "residual",
    "layer_norm",
    "add_bias_residual_layer_norm",
    "embedding",
];

/// Index of an op kind into [`OP_NAMES`].
pub fn op_index(kind: &OpKind) -> usize {
    match kind {
        OpKind::MatMul { .. } => 0,
        OpKind::AddBias => 1,
        OpKind::Gelu => 2,
        OpKind::AddBiasGelu => 3,
        OpKind::SplitHeads { .. } => 4,
        OpKind::AddBiasSplitHeads { .. } => 5,
        OpKind::MergeHeads => 6,
        OpKind::Scale { .. } => 7,
        OpKind::Mask => 8,
        OpKind::Softmax => 9,
        OpKind::ScaleMaskSoftmax { .. } => 10,
        OpKind::Residual => 11,
        OpKind::LayerNorm { .. } => 12,
        OpKind::AddBiasResidualLayerNorm { .. } => 13,
        OpKind::Embedding => 14,
    }
}

/// Per-op-kind wall-clock histograms, mirroring the paper's Table 2
/// breakdown of where inference time goes. Handles are resolved once at
/// registration; the hot path pays one `Instant` read plus two relaxed
/// atomic adds per node.
#[derive(Debug, Clone)]
pub struct ExecutorMetrics {
    op_ns: Vec<Arc<Histogram>>,
    gemm_mflops: Arc<Histogram>,
    gemm_flops_total: Arc<Counter>,
    fused_ops_total: Arc<Counter>,
}

impl ExecutorMetrics {
    /// Register one `executor_op_nanoseconds{op=...}` histogram per
    /// operator class in `registry`, plus the GEMM throughput pair:
    /// `executor_gemm_mflops` (achieved MFLOP/s per MatMul node — the
    /// utilization the paper's Table 2 GEMM-dominance argument rests on)
    /// and `executor_gemm_flops_total`.
    pub fn register(registry: &Registry) -> Self {
        let op_ns = OP_NAMES
            .iter()
            .map(|name| {
                registry.histogram(
                    "executor_op_nanoseconds",
                    "Wall-clock nanoseconds per executed operator, by kind",
                    &[("op", name)],
                )
            })
            .collect();
        let gemm_mflops = registry.histogram(
            "executor_gemm_mflops",
            "Achieved MFLOP/s per executed MatMul node (2mnk / wall time)",
            &[],
        );
        let gemm_flops_total = registry.counter(
            "executor_gemm_flops_total",
            "Total floating point operations issued through MatMul nodes",
            &[],
        );
        let fused_ops_total = registry.counter(
            "executor_fused_ops_total",
            "Fused kernels (bias+GELU, bias+residual+LN, scale+mask+softmax, \
             bias+split-heads) executed in place of their unfused chains",
            &[],
        );
        ExecutorMetrics { op_ns, gemm_mflops, gemm_flops_total, fused_ops_total }
    }

    #[inline]
    fn observe(&self, kind: &OpKind, nanos: u64, flops: Option<u64>) {
        self.op_ns[op_index(kind)].record(nanos);
        if kind.is_fused() {
            self.fused_ops_total.inc();
        }
        if let Some(flops) = flops {
            self.gemm_flops_total.add(flops);
            // flops/ns = GFLOP/s; ×1000 for MFLOP/s resolution in the log₂
            // histogram buckets.
            self.gemm_mflops.record(flops.saturating_mul(1000) / nanos.max(1));
        }
    }
}

/// Flops of one graph node if it is a MatMul (2·batch·m·n·k), mirroring the
/// shape derivation in the interpreter's dispatch step; `None` for every
/// other op.
pub fn matmul_flops(graph: &Graph, node: &Node) -> Option<u64> {
    let OpKind::MatMul { trans_b, .. } = &node.kind else {
        return None;
    };
    let a = &graph.tensors[node.inputs[0]].shape;
    let b = &graph.tensors[node.inputs[1]].shape;
    let (batch, m, k, n) = if b.len() == 2 {
        (
            1,
            a[..a.len() - 1].iter().product::<usize>(),
            a[a.len() - 1],
            if *trans_b { b[0] } else { b[1] },
        )
    } else {
        (a[0] * a[1], a[2], a[3], if *trans_b { b[2] } else { b[3] })
    };
    Some(2 * batch as u64 * m as u64 * k as u64 * n as u64)
}

/// Tracing hook for one execution: the collector plus the parent span
/// contexts to record under. A batch can carry several sampled requests,
/// so the allocator-plan and per-op spans are recorded once per parent —
/// each request's trace tells its own complete story.
pub type TraceHook<'a> = (&'a Tracer, &'a [SpanContext]);

/// The mutable state programs run in: the turbo allocator (whose chunk
/// cache persists across runs — the point of the paper's allocator), the
/// arena backing its chunks, and optional instrumentation. One workspace
/// serves any number of programs, one run at a time.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Sequence-length-aware planner of every run's activations.
    pub allocator: TurboAllocator,
    /// Chunk memory the planned regions live in.
    pub arena: Arena,
    /// Per-op timing sink; `None` skips the clock reads.
    pub metrics: Option<ExecutorMetrics>,
    /// Arms the interpreter's `tt-chaos` fault points (plan failure, op
    /// panic, op slowdown). Only callers that catch the resulting panics
    /// — the serving runtime's encoder path — set it.
    pub chaos: bool,
}

/// Most inputs any op takes (`AddBiasResidualLayerNorm`: x, bias,
/// residual, γ, β).
const MAX_INPUTS: usize = 5;

/// Where a tensor's bytes live during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// `weight_table[slot]` in the store.
    Weight(usize),
    /// `inputs[slot]` of the run.
    Input(usize),
    /// A planned arena region.
    Activation,
    /// The run's `slot`-th output buffer.
    Output(usize),
    /// Declared without a slot; no node may touch it.
    Unbound,
}

/// A fused, topologically ordered op sequence with named parameter slots.
///
/// Weights are *slots*, not store indices: the same compiled program runs
/// every layer of a model by passing a different weight-index table to
/// [`run`](Program::run) (ALBERT-style sharing falls out for free).
#[derive(Debug, Clone)]
pub struct Program {
    /// The compiled (fused) graph. Read-only by contract: the execution
    /// plan below is derived from it at compile time.
    pub graph: Graph,
    order: Vec<NodeId>,
    usages: Vec<TensorUsage>,
    operands: Vec<Operand>,
    weight_slots: Vec<TensorId>,
    input_slots: Vec<TensorId>,
    output_slots: Vec<TensorId>,
    fine_nodes: usize,
}

impl Program {
    /// Compile a fine-grained graph: run the fusion pass, then bind the
    /// declared weight/input/output tensors (re-located by name — the pass
    /// only drops anonymous intermediates) and derive the execution plan.
    ///
    /// `weights`, `inputs` and `outputs` are tensor ids *in the fine
    /// graph*; their order defines the slot order `run` expects.
    pub fn compile(
        fine: &Graph,
        weights: &[TensorId],
        inputs: &[TensorId],
        outputs: &[TensorId],
    ) -> Program {
        let names = |ids: &[TensorId]| -> Vec<&str> {
            ids.iter().map(|&t| fine.tensors[t].name.as_str()).collect()
        };
        let graph = fusion::fuse(fine);
        Program::bind(graph, &names(weights), &names(inputs), &names(outputs), fine.nodes.len())
    }

    /// The unfused twin: every fused kernel expanded back into its
    /// fine-grained constituents (`tt_graph::fusion::decompose`), with the
    /// same slots. This is the numerical reference the fused/unfused
    /// identity tests pin against, and the PyTorch-like baseline of the
    /// runtime variants. It elides nothing.
    pub fn decomposed(&self) -> Program {
        let graph = fusion::decompose(&self.graph);
        let names = |ids: &[TensorId]| -> Vec<&str> {
            ids.iter().map(|&t| self.graph.tensors[t].name.as_str()).collect()
        };
        let (weights, inputs) = (names(&self.weight_slots), names(&self.input_slots));
        let fine_nodes = graph.nodes.len();
        Program::bind(graph, &weights, &inputs, &names(&self.output_slots), fine_nodes)
    }

    /// Bind the weight, input and output slot names to `graph`'s tensors
    /// and derive the execution plan: topological order, activation
    /// lifetimes, and each tensor's operand source. Every check that can
    /// fail on a malformed graph fails here, not mid-run.
    fn bind(
        graph: Graph,
        weights: &[&str],
        inputs: &[&str],
        outputs: &[&str],
        fine_nodes: usize,
    ) -> Program {
        let by_name: HashMap<&str, TensorId> =
            graph.tensors.iter().enumerate().map(|(id, t)| (t.name.as_str(), id)).collect();
        let mut operands: Vec<Operand> = graph
            .tensors
            .iter()
            .map(|t| match t.class {
                TensorClass::Activation => Operand::Activation,
                _ => Operand::Unbound,
            })
            .collect();
        let mut slots = |names: &[&str], operand: fn(usize) -> Operand| -> Vec<TensorId> {
            let ids: Vec<TensorId> = names
                .iter()
                .map(|&name| *by_name.get(name).unwrap_or_else(|| panic!("{name} lost in fusion")))
                .collect();
            for (slot, &t) in ids.iter().enumerate() {
                operands[t] = operand(slot);
            }
            ids
        };
        let weight_slots = slots(weights, Operand::Weight);
        let input_slots = slots(inputs, Operand::Input);
        let output_slots = slots(outputs, Operand::Output);
        for node in &graph.nodes {
            assert!(node.inputs.len() <= MAX_INPUTS, "{:?} takes too many inputs", node.kind);
            for &t in &node.inputs {
                let name = &graph.tensors[t].name;
                match operands[t] {
                    Operand::Unbound => panic!("tensor {name} is read but has no slot"),
                    Operand::Output(_) => panic!("output tensor {name} used as an input"),
                    _ => {}
                }
            }
            assert!(
                matches!(operands[node.output], Operand::Activation | Operand::Output(_)),
                "node writes unbound tensor {}",
                graph.tensors[node.output].name
            );
        }
        for &t in &output_slots {
            assert!(
                graph.nodes.iter().any(|n| n.output == t),
                "output {} never produced",
                graph.tensors[t].name
            );
        }
        let (usages, order) = activation_lifetimes(&graph);
        Program {
            graph,
            order,
            usages,
            operands,
            weight_slots,
            input_slots,
            output_slots,
            fine_nodes,
        }
    }

    /// Nodes issued per run (post-fusion).
    pub fn nodes(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Fused custom kernels in the compiled stream.
    pub fn fused_ops(&self) -> usize {
        self.graph.nodes.iter().filter(|n| n.kind.is_fused()).count()
    }

    /// Memory-bound passes the fusion pass removed (fine-grained node
    /// count minus compiled node count).
    pub fn elided_passes(&self) -> usize {
        self.fine_nodes - self.graph.nodes.len()
    }

    /// Number of weight slots `run` expects.
    pub fn weight_slot_count(&self) -> usize {
        self.weight_slots.len()
    }

    /// Op-kind debug names in execution order (for tests and trace
    /// attribution).
    pub fn op_names(&self) -> Vec<String> {
        self.order.iter().map(|&i| format!("{:?}", self.graph.nodes[i].kind)).collect()
    }

    /// The activation lifetime records every run plans, in execution
    /// order (the allocator's input, computed once at compile time).
    pub fn usages(&self) -> &[TensorUsage] {
        &self.usages
    }

    /// Activation bytes a run must place (sum over live tensors, before
    /// any reuse).
    pub fn activation_bytes(&self) -> usize {
        self.usages.iter().map(|u| u.size).sum()
    }

    /// Shape of output slot `slot`.
    pub fn output_shape(&self, slot: usize) -> &[usize] {
        &self.graph.tensors[self.output_slots[slot]].shape
    }

    /// Execute the program in `ws`. `weight_table[slot]` is the store
    /// index bound to weight slot `slot`; `inputs` follow the compiled
    /// input-slot order. Returns one buffer per output slot.
    pub fn run(
        &self,
        store: &WeightStore,
        weight_table: &[usize],
        inputs: &[&[f32]],
        ws: &mut Workspace,
    ) -> Vec<Vec<f32>> {
        self.run_traced(store, weight_table, inputs, ws, None, None)
    }

    /// [`run`](Program::run), additionally recording request-scoped spans:
    /// one `alloc_plan` span (chunks touched, bytes reused) and one span
    /// per executed operator (shape; achieved GFLOP/s for MatMuls; modeled
    /// `energy_uj` when per-node joules are supplied) under every parent
    /// context in the hook. `energies` is indexed by node id.
    pub fn run_traced(
        &self,
        store: &WeightStore,
        weight_table: &[usize],
        inputs: &[&[f32]],
        ws: &mut Workspace,
        trace: Option<TraceHook<'_>>,
        energies: Option<&[f64]>,
    ) -> Vec<Vec<f32>> {
        assert_eq!(weight_table.len(), self.weight_slots.len(), "weight table arity");
        assert_eq!(inputs.len(), self.input_slots.len(), "input arity");
        let graph = &self.graph;
        for (&t, x) in self.input_slots.iter().zip(inputs) {
            let info = &graph.tensors[t];
            assert_eq!(x.len(), info.elements(), "input {} has the wrong length", info.name);
        }
        let Workspace { allocator, arena, metrics, chaos } = ws;
        let chaos = *chaos;

        let plan_start = trace.map(|(t, _)| (t.now_ns(), Stopwatch::start()));
        if chaos {
            // An unsatisfiable allocation plan (device memory exhausted,
            // pathological fragmentation). Panics here unwind to the
            // serving loop's catch_unwind — one dropped batch, never a
            // dead engine.
            tt_chaos::alloc_plan_fail();
        }
        let plan = allocator.plan(&self.usages);
        if let (Some((tracer, parents)), Some((start_ns, watch))) = (trace, plan_start) {
            let dur_ns = watch.elapsed_nanos();
            let stats = allocator.last_stats();
            for ctx in parents {
                tracer.record_span(
                    ctx.trace,
                    Some(ctx.span),
                    "alloc_plan",
                    start_ns,
                    dur_ns,
                    vec![
                        ("chunks", AttrValue::Int(plan.chunk_sizes.len() as i64)),
                        ("new_chunks", AttrValue::Int(stats.new_chunks as i64)),
                        ("new_bytes", AttrValue::Int(stats.new_bytes as i64)),
                        (
                            "reused_bytes",
                            AttrValue::Int(stats.footprint.saturating_sub(stats.new_bytes) as i64),
                        ),
                        ("footprint_bytes", AttrValue::Int(stats.footprint as i64)),
                    ],
                );
            }
        }
        tt_alloc::validate_plan(&self.usages, &plan).expect("allocator produced an unsafe plan");

        // Materialize chunks (bytes → f32 elements; all sizes are 4-aligned).
        for (i, &size) in plan.chunk_sizes.iter().enumerate() {
            debug_assert_eq!(size % 4, 0);
            arena.ensure_chunk(i, size / 4);
        }
        arena.truncate_chunks(plan.chunk_sizes.len().max(1));
        // Planned region of each activation, indexed by tensor id.
        let mut regions = vec![Region::new(0, 0, 0); graph.tensors.len()];
        for a in &plan.assignments {
            debug_assert_eq!(a.offset % 4, 0);
            regions[a.tensor] = Region::new(a.chunk, a.offset / 4, a.size / 4);
        }

        let mut outputs: Vec<Vec<f32>> =
            self.output_slots.iter().map(|&t| vec![0.0f32; graph.tensors[t].elements()]).collect();
        let external = |t: TensorId| -> Option<&[f32]> {
            match self.operands[t] {
                Operand::Weight(slot) => Some(store.get(weight_table[slot]).as_slice()),
                Operand::Input(slot) => Some(inputs[slot]),
                _ => None,
            }
        };

        for &node_id in &self.order {
            let node = &graph.nodes[node_id];
            if chaos {
                // A kernel panic (bad launch, device-side assert) or an op
                // running far slower than its cost-table estimate.
                tt_chaos::executor_op_panic();
                if let Some(delay) = tt_chaos::op_slowdown() {
                    std::thread::sleep(delay);
                }
            }
            // int8 sidecar lookup: a MatMul whose second operand is a bound
            // weight may run through the quantized kernel (dispatch checks
            // the layout actually matches the node's transpose flag).
            let quant = match node.kind {
                OpKind::MatMul { .. } => match self.operands[node.inputs[1]] {
                    Operand::Weight(slot) => store.quant(weight_table[slot]),
                    _ => None,
                },
                _ => None,
            };

            let op_start_ns = trace.map(|(t, _)| t.now_ns());
            let watch = (metrics.is_some() || trace.is_some()).then(Stopwatch::start);
            let n = node.inputs.len();
            if let Operand::Output(slot) = self.operands[node.output] {
                // Outputs go to their own buffers; the arena is read-only.
                let mut ins: [&[f32]; MAX_INPUTS] = [&[]; MAX_INPUTS];
                for (dst, &t) in ins.iter_mut().zip(&node.inputs) {
                    *dst = external(t).unwrap_or_else(|| arena.slice(regions[t]));
                }
                dispatch(graph, node, &ins[..n], quant, &mut outputs[slot]);
            } else {
                let mut planned = [Region::new(0, 0, 0); MAX_INPUTS];
                let mut k = 0;
                for &t in &node.inputs {
                    if external(t).is_none() {
                        planned[k] = regions[t];
                        k += 1;
                    }
                }
                let (arena_ins, out) = arena.io(&planned[..k], regions[node.output]);
                let mut arena_ins = arena_ins.into_iter();
                let mut ins: [&[f32]; MAX_INPUTS] = [&[]; MAX_INPUTS];
                for (dst, &t) in ins.iter_mut().zip(&node.inputs) {
                    *dst = external(t)
                        .unwrap_or_else(|| arena_ins.next().expect("one arena view per region"));
                }
                dispatch(graph, node, &ins[..n], quant, out);
            }
            if let Some(w) = watch {
                let nanos = w.elapsed_nanos();
                let flops = matmul_flops(graph, node);
                if let Some(m) = metrics {
                    m.observe(&node.kind, nanos, flops);
                }
                if let (Some((tracer, parents)), Some(start_ns)) = (trace, op_start_ns) {
                    let shape = graph.tensors[node.output]
                        .shape
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join("x");
                    for ctx in parents {
                        let mut attrs = vec![("shape", AttrValue::Str(shape.clone()))];
                        if let Some(flops) = flops {
                            // flops per nanosecond is numerically GFLOP/s.
                            let gflops = flops as f64 / nanos.max(1) as f64;
                            attrs.push(("gflops", AttrValue::Float(gflops)));
                        }
                        if let Some(joules) = energies.and_then(|e| e.get(node_id)) {
                            attrs
                                .push(("energy_uj", AttrValue::Int((joules * 1e6).round() as i64)));
                        }
                        tracer.record_span(
                            ctx.trace,
                            Some(ctx.span),
                            OP_NAMES[op_index(&node.kind)],
                            start_ns,
                            nanos,
                            attrs,
                        );
                    }
                }
            }
        }
        outputs
    }
}

/// A whole-model [`Program`] plus the weight table binding its slots to the
/// model's [`WeightStore`] — what the encoder graph builders return.
/// Dereferences to the program (`bound.graph`, `bound.usages()`, ...).
#[derive(Debug, Clone)]
pub struct BoundProgram {
    /// The compiled program.
    pub program: Program,
    /// Store index of each weight slot.
    pub weights: Vec<usize>,
}

impl BoundProgram {
    /// Compile `fine` (see [`Program::compile`]) with one weight slot per
    /// `(tensor, store index)` binding, in binding order.
    pub fn compile(
        fine: &Graph,
        bindings: &[(TensorId, usize)],
        inputs: &[TensorId],
        outputs: &[TensorId],
    ) -> BoundProgram {
        let (ids, weights): (Vec<TensorId>, Vec<usize>) = bindings.iter().copied().unzip();
        BoundProgram { program: Program::compile(fine, &ids, inputs, outputs), weights }
    }
}

impl std::ops::Deref for BoundProgram {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

/// Execute one operator: `ins` in the node's input order, `out` the
/// preallocated output region. `quant` is the int8 sidecar of a MatMul's
/// weight operand, when one exists.
fn dispatch(graph: &Graph, node: &Node, ins: &[&[f32]], quant: Option<&Q8Matrix>, out: &mut [f32]) {
    let shape_of = |i: usize| -> &[usize] { &graph.tensors[node.inputs[i]].shape };
    let out_shape: &[usize] = &graph.tensors[node.output].shape;

    match &node.kind {
        OpKind::MatMul { trans_b, alpha } => {
            let a = shape_of(0);
            let b = shape_of(1);
            if b.len() == 2 {
                // 2-D weight: `[k, n]`, or `[n, k]` under trans_b (the
                // tied-embedding lm head layout).
                let m: usize = a[..a.len() - 1].iter().product();
                let kk = a[a.len() - 1];
                let (tb, n) = if *trans_b { (Trans::Yes, b[0]) } else { (Trans::No, b[1]) };
                if let Some(q) = quant {
                    if q.trans() == tb && q.k == kk && q.n == n {
                        sgemm_q8(m, *alpha, ins[0], q, out);
                        return;
                    }
                }
                let spec = GemmSpec { m, k: kk, n, ta: Trans::No, tb, alpha: *alpha, beta: 0.0 };
                sgemm(spec, ins[0], ins[1], out);
            } else {
                let batch = a[0] * a[1];
                let (m, kk) = (a[2], a[3]);
                let (tb, n) = if *trans_b { (Trans::Yes, b[2]) } else { (Trans::No, b[3]) };
                let spec = GemmSpec { m, k: kk, n, ta: Trans::No, tb, alpha: *alpha, beta: 0.0 };
                batched_sgemm(batch, spec, ins[0], ins[1], out);
            }
        }
        OpKind::AddBias => {
            let cols = *out_shape.last().expect("rank >= 1");
            out.copy_from_slice(ins[0]);
            k::add_bias(out.len() / cols, cols, out, ins[1]);
        }
        OpKind::Gelu => {
            out.copy_from_slice(ins[0]);
            k::gelu(out);
        }
        OpKind::AddBiasGelu => {
            let cols = *out_shape.last().expect("rank >= 1");
            out.copy_from_slice(ins[0]);
            k::add_bias_gelu(out.len() / cols, cols, out, ins[1]);
        }
        OpKind::SplitHeads { heads } => {
            let (b, s) = (shape_of(0)[0], shape_of(0)[1]);
            let d = out_shape[3];
            k::split_heads(b, s, *heads, d, ins[0], out);
        }
        OpKind::AddBiasSplitHeads { heads } => {
            let (b, s) = (shape_of(0)[0], shape_of(0)[1]);
            let d = out_shape[3];
            k::add_bias_split_heads(b, s, *heads, d, ins[0], ins[1], out);
        }
        OpKind::MergeHeads => {
            let src = shape_of(0); // [b, h, s, d]
            k::merge_heads(src[0], src[2], src[1], src[3], ins[0], out);
        }
        OpKind::Scale { alpha } => {
            for (o, &x) in out.iter_mut().zip(ins[0]) {
                *o = x * alpha;
            }
        }
        OpKind::Mask => {
            // scores [b, h, sq, sk] + mask [b, sk].
            let s = shape_of(0);
            let (b, h, sq, sk) = (s[0], s[1], s[2], s[3]);
            for ((row, o_row), i_row) in
                (0..b * h * sq).zip(out.chunks_mut(sk)).zip(ins[0].chunks(sk))
            {
                let bi = row / (h * sq);
                let mrow = &ins[1][bi * sk..(bi + 1) * sk];
                for ((o, &x), &m) in o_row.iter_mut().zip(i_row).zip(mrow) {
                    *o = x + m;
                }
            }
        }
        OpKind::Softmax => {
            let len = *out_shape.last().expect("rank >= 1");
            out.copy_from_slice(ins[0]);
            k::softmax_rows(out.len() / len, len, out);
        }
        OpKind::ScaleMaskSoftmax { scale } => {
            let s = shape_of(0);
            let sk = *s.last().expect("rank >= 1");
            out.copy_from_slice(ins[0]);
            if s.len() == 4 {
                // Attention scores [b, h, sq, sk], mask broadcast per batch.
                k::scale_mask_softmax(s[0], s[1], s[2], sk, *scale, ins.get(1).copied(), out);
            } else {
                // Generic fused scale+softmax over the last dim (a fusion
                // of Scale→Softmax outside the attention pattern).
                assert!(ins.len() == 1, "mask requires [b, h, sq, sk] scores");
                tt_tensor::ops::scale_inplace(out, *scale);
                k::softmax_rows(out.len() / sk.max(1), sk, out);
            }
        }
        OpKind::Residual => {
            out.copy_from_slice(ins[0]);
            k::residual_add(out, ins[1]);
        }
        OpKind::LayerNorm { eps } => {
            let hidden = *out_shape.last().expect("rank >= 1");
            k::layer_norm(out.len() / hidden, hidden, ins[0], ins[1], ins[2], *eps, out);
        }
        OpKind::AddBiasResidualLayerNorm { eps } => {
            let hidden = *out_shape.last().expect("rank >= 1");
            k::add_bias_residual_layer_norm(
                out.len() / hidden,
                hidden,
                ins[0],
                ins[1],
                ins[2],
                ins[3],
                ins[4],
                *eps,
                out,
            );
        }
        OpKind::Embedding => {
            // inputs: ids [b, s] (f32), word table, pos table.
            let ids_shape = shape_of(0);
            let (b, s) = (ids_shape[0], ids_shape[1]);
            let hidden = *out_shape.last().expect("rank >= 1");
            let ids: Vec<u32> = ins[0].iter().map(|&v| v as u32).collect();
            k::embed(b, s, hidden, &ids, ins[1], ins[2], None, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::albert::{Albert, AlbertConfig};
    use crate::bert::{Bert, BertConfig};
    use crate::{ids_batch, pad_batch};
    use tt_graph::TensorClass::{Activation, Input, Output, Weight};
    use tt_tensor::Tensor;

    /// x·W + b → GELU, fine-grained; the pass must fuse bias+GELU.
    fn linear_gelu_program() -> (Program, Graph) {
        let mut g = Graph::new();
        let x = g.add_tensor("x", vec![3, 8], Input);
        let w = g.add_tensor("w", vec![8, 4], Weight);
        let b = g.add_tensor("b", vec![4], Weight);
        let h = g.add_tensor("h", vec![3, 4], Activation);
        let hb = g.add_tensor("hb", vec![3, 4], Activation);
        let y = g.add_tensor("y", vec![3, 4], Output);
        g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![x, w], h);
        g.add_node(OpKind::AddBias, vec![h, b], hb);
        g.add_node(OpKind::Gelu, vec![hb], y);
        (Program::compile(&g, &[w, b], &[x], &[y]), g)
    }

    /// Run a whole-model program in a fresh workspace.
    fn run_model(bound: &BoundProgram, store: &WeightStore, inputs: &[&[f32]]) -> Vec<f32> {
        let mut ws = Workspace::default();
        bound.run(store, &bound.weights, inputs, &mut ws).pop().unwrap()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn compile_fuses_and_counts_elisions() {
        let (p, fine) = linear_gelu_program();
        assert_eq!(fine.nodes.len(), 3);
        assert_eq!(p.nodes(), 2, "MatMul + AddBiasGelu");
        assert_eq!(p.fused_ops(), 1);
        assert_eq!(p.elided_passes(), 1);
        assert!(p.op_names().iter().any(|n| n.contains("AddBiasGelu")));
        let d = p.decomposed();
        assert_eq!((d.nodes(), d.fused_ops(), d.elided_passes()), (3, 0, 0));
        assert_eq!(d.weight_slot_count(), 2);
    }

    #[test]
    fn run_matches_hand_called_kernels() {
        let (p, _) = linear_gelu_program();
        let mut store = WeightStore::new();
        let w = store.push(Tensor::from_fn([8, 4], |_| 0.3));
        let b = store.push(Tensor::from_fn([4], |_| -0.1));
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.17).sin()).collect();

        let got = p.run(&store, &[w, b], &[&x], &mut Workspace::default());

        let mut want = vec![0.0f32; 12];
        sgemm(GemmSpec::nn(3, 8, 4), &x, store.get(w).as_slice(), &mut want);
        k::add_bias_gelu(3, 4, &mut want, store.get(b).as_slice());
        assert_eq!(got.len(), 1);
        for (g, w) in got[0].iter().zip(&want) {
            assert!((g - w).abs() < 1e-6, "{g} vs {w}");
        }
    }

    #[test]
    fn trans_b_weight_gemm_runs_and_quantizes() {
        // lm-head shape: x [1, 8] · embᵀ where emb is [n=5, k=8].
        let mut g = Graph::new();
        let x = g.add_tensor("x", vec![1, 8], Input);
        let e = g.add_tensor("emb", vec![5, 8], Weight);
        let y = g.add_tensor("logits", vec![1, 5], Output);
        g.add_node(OpKind::MatMul { trans_b: true, alpha: 1.0 }, vec![x, e], y);
        let p = Program::compile(&g, &[e], &[x], &[y]);

        let mut store = WeightStore::new();
        let e = store.push(Tensor::from_fn([5, 8], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1));
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut ws = Workspace::default();

        let f32_out = p.run(&store, &[e], &[&x], &mut ws);
        let want: Vec<f32> = (0..5)
            .map(|v| {
                x.iter().zip(&store.get(e).as_slice()[v * 8..(v + 1) * 8]).map(|(a, b)| a * b).sum()
            })
            .collect();
        for (g, w) in f32_out[0].iter().zip(&want) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }

        // Quantize the head and re-run: within the per-channel error bound.
        store.quantize(e, Trans::Yes);
        let q8_out = p.run(&store, &[e], &[&x], &mut ws);
        let q = store.quant(e).unwrap();
        for (j, (g, w)) in q8_out[0].iter().zip(&want).enumerate() {
            let bound = q.error_bound(j, &x) + 1e-6;
            assert!((g - w).abs() <= bound, "channel {j}: |{g} - {w}| > {bound}");
        }
    }

    #[test]
    fn weight_table_rebinds_slots_per_call() {
        // One program, two weight tables — the per-layer reuse BERT relies on.
        let mut g = Graph::new();
        let x = g.add_tensor("x", vec![2, 4], Input);
        let w = g.add_tensor("w", vec![4, 4], Weight);
        let y = g.add_tensor("y", vec![2, 4], Output);
        g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![x, w], y);
        let p = Program::compile(&g, &[w], &[x], &[y]);

        let mut store = WeightStore::new();
        let w1 = store.push(Tensor::full([4, 4], 1.0));
        let w2 = store.push(Tensor::full([4, 4], 2.0));
        let x = vec![1.0f32; 8];
        let mut ws = Workspace::default();
        let a = p.run(&store, &[w1], &[&x], &mut ws);
        let b = p.run(&store, &[w2], &[&x], &mut ws);
        assert!(a[0].iter().all(|&v| (v - 4.0).abs() < 1e-6));
        assert!(b[0].iter().all(|&v| (v - 8.0).abs() < 1e-6));
    }

    #[test]
    fn compile_relocates_slots_by_name_through_renumbering() {
        // Fusion drops the anonymous intermediates, so the fused graph
        // renumbers every tensor declared after them; slots must follow the
        // names, in declaration order, not the fine-graph ids.
        let mut g = Graph::new();
        let h = g.add_tensor("h", vec![2, 4], Activation);
        let x = g.add_tensor("x", vec![2, 4], Input);
        let w = g.add_tensor("w", vec![4, 4], Weight);
        let hb = g.add_tensor("hb", vec![2, 4], Activation);
        let b = g.add_tensor("b", vec![4], Weight);
        let y = g.add_tensor("y", vec![2, 4], Output);
        g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![x, w], h);
        g.add_node(OpKind::AddBias, vec![h, b], hb);
        g.add_node(OpKind::Gelu, vec![hb], y);
        let p = Program::compile(&g, &[b, w], &[x], &[y]);
        assert!(p.graph.tensors.len() < g.tensors.len(), "fusion dropped intermediates");

        let mut store = WeightStore::new();
        let bias = store.push(Tensor::full([4], 0.5));
        let weight = store.push(Tensor::full([4, 4], 0.25));
        let out = p.run(&store, &[bias, weight], &[&[1.0f32; 8]], &mut Workspace::default());
        let mut want = vec![1.5f32; 8];
        k::gelu(&mut want);
        assert!(max_diff(&out[0], &want) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "has no slot")]
    fn unbound_input_is_rejected_at_compile_time() {
        let mut g = Graph::new();
        let x = g.add_tensor("x", vec![2, 4], Input);
        let y = g.add_tensor("y", vec![2, 4], Output);
        g.add_node(OpKind::Gelu, vec![x], y);
        Program::compile(&g, &[], &[], &[y]);
    }

    #[test]
    fn graph_execution_matches_eager_bert() {
        let model = Bert::new_random(&BertConfig::tiny(), 21);
        let ids = ids_batch(&[&[3, 1, 4, 1, 5]]);
        let eager = model.forward(&ids, None);
        let out = run_model(&model.build_graph(1, 5, false), model.weights(), &[ids.as_slice()]);
        let diff = max_diff(&out, eager.as_slice());
        assert!(diff < 1e-4, "planned-arena execution must match eager: diff {diff}");
    }

    #[test]
    fn masked_graph_execution_matches_eager() {
        let model = Bert::new_random(&BertConfig::tiny(), 22);
        let (ids, mask, max_len) = pad_batch(&[&[9, 8, 7], &[1, 2, 3, 4, 5]]);
        let eager = model.forward(&ids, Some(&mask));
        let bound = model.build_graph(2, max_len, true);
        let out = run_model(&bound, model.weights(), &[ids.as_slice(), mask.as_slice()]);
        assert!(max_diff(&out, eager.as_slice()) < 1e-4);
    }

    #[test]
    fn decomposed_graph_computes_the_same_numbers() {
        // The fusion pass must be semantics-preserving end to end.
        let model = Bert::new_random(&BertConfig::tiny(), 23);
        let ids = ids_batch(&[&[10, 20, 30, 40]]);
        let bound = model.build_graph(1, 4, false);
        let fused = run_model(&bound, model.weights(), &[ids.as_slice()]);
        let decomposed =
            BoundProgram { program: bound.decomposed(), weights: bound.weights.clone() };
        assert!(decomposed.nodes() > bound.nodes());
        let unfused = run_model(&decomposed, model.weights(), &[ids.as_slice()]);
        let diff = max_diff(&fused, &unfused);
        assert!(diff < 1e-4, "fused and decomposed graphs must agree: diff {diff}");
    }

    #[test]
    fn albert_graph_execution_matches_eager() {
        let model = Albert::new_random(&AlbertConfig::tiny(), 31);
        let ids = ids_batch(&[&[5, 6, 7, 8]]);
        let eager = model.forward(&ids, None);
        let out = run_model(&model.build_graph(1, 4, false), model.weights(), &[ids.as_slice()]);
        assert!(max_diff(&out, eager.as_slice()) < 1e-4);
    }

    #[test]
    fn arena_is_reused_across_variable_lengths() {
        let cfg = BertConfig::tiny();
        let model = Bert::new_random(&cfg, 24);
        let mut ws = Workspace::default();

        // Long request warms the chunks; short requests reuse them.
        for &len in &[20usize, 5, 12, 20, 3] {
            let row: Vec<u32> = (0..len as u32).collect();
            let ids = ids_batch(&[&row]);
            let bound = model.build_graph(1, len, false);
            let out = bound.run(model.weights(), &bound.weights, &[ids.as_slice()], &mut ws);
            assert_eq!(out[0].len(), len * cfg.model_dim());
            assert_eq!(bound.output_shape(0), &[1, len, cfg.model_dim()]);
            if len < 20 {
                assert_eq!(
                    ws.allocator.last_stats().new_bytes,
                    0,
                    "shorter requests must not allocate (len {len})"
                );
            }
        }
    }

    #[test]
    fn plan_footprint_is_far_below_total_activations() {
        // The reuse headline: planned footprint ≪ sum of activation sizes.
        let model = Bert::new_random(&BertConfig::tiny(), 25);
        let ids = ids_batch(&[&[1u32; 32][..]]);
        let bound = model.build_graph(1, 32, false);
        let mut ws = Workspace {
            allocator: TurboAllocator::new(tt_alloc::TurboConfig {
                default_chunk_size: 16 * 1024,
                ..Default::default()
            }),
            ..Workspace::default()
        };
        bound.run(model.weights(), &bound.weights, &[ids.as_slice()], &mut ws);
        let footprint = ws.allocator.last_stats().footprint;
        assert!(
            footprint * 2 < bound.activation_bytes(),
            "lifetime reuse should at least halve the footprint: {footprint} vs {}",
            bound.activation_bytes()
        );
    }
}
