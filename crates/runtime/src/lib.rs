//! # tt-runtime — the TurboTransformers inference runtime
//!
//! Ties together everything below it, exactly as the paper's "inference
//! runtime" box (Fig. 2) does:
//!
//! - compiles each request shape into one fused program (`tt-graph`,
//!   `tt-model`);
//! - runs it through the model crate's interpreter
//!   ([`tt_model::program`]), which plans activation memory per request
//!   with the sequence-length-aware allocator (`tt-alloc`) and executes the
//!   real numerics over the shared chunk arena, timing each op into the
//!   [`executor`] metrics;
//! - prices the same execution on a simulated GPU (`tt-gpusim`) so
//!   experiments can reason about device time without physical hardware
//!   ([`cost`]);
//! - and exposes every baseline runtime of the paper's evaluation as a
//!   [`RuntimeKind`] variant of the same substrate ([`variants`]).
//!
//! ```
//! use tt_model::bert::{Bert, BertConfig};
//! use tt_model::ids_batch;
//! use tt_runtime::{RuntimeConfig, TurboRuntime};
//! use tt_gpusim::device::DeviceKind;
//!
//! let model = Bert::new_random(&BertConfig::tiny(), 7);
//! let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
//! let out = rt.run_bert(&model, &ids_batch(&[&[1, 2, 3]])).unwrap();
//! assert_eq!(out.encoder_output.shape().dims(), &[1, 3, 16]);
//! assert!(out.sim_time > 0.0);
//! ```

pub mod cost;
pub mod decode;
pub mod executor;
pub mod variants;

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use tt_alloc::caching::CachingAllocator;
use tt_alloc::sim::replay;
use tt_alloc::TurboAllocator;
use tt_gpusim::device::{DeviceConfig, DeviceKind};
use tt_model::albert::{Albert, AlbertConfig};
use tt_model::bert::{Bert, BertConfig};
use tt_model::decoder::Seq2SeqDecoderConfig;
use tt_model::{BoundProgram, Program, Workspace};
use tt_tensor::Tensor;

pub use cost::CostBreakdown;
pub use variants::{AllocPolicy, FusionLevel, Precision, RuntimeKind, VariantProfile};

/// Simulated cost of one slow-path device allocation (`cudaMalloc`).
pub const DEVICE_MALLOC_SECONDS: f64 = 60e-6;
/// Simulated CPU cost of one offset-plan pass (paper: "lightweight").
pub const PLAN_BASE_SECONDS: f64 = 10e-6;
/// Simulated per-tensor cost of planning / pool lookups.
pub const PER_TENSOR_SECONDS: f64 = 0.3e-6;

/// Runtime construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Which runtime variant to emulate.
    pub kind: RuntimeKind,
    /// Which GPU to model.
    pub device: DeviceKind,
    /// Charge shape-pretuning time for fixed-shape runtimes when a new
    /// shape arrives (paper Fig. 10 semantics). When `false` (default, the
    /// paper's Fig. 11 semantics) shapes are assumed pre-tuned.
    pub include_pretune: bool,
    /// Numeric precision to model (FP32 in every paper experiment; FP16 is
    /// the released TurboTransformers' half-precision mode).
    pub precision: Precision,
}

impl RuntimeConfig {
    /// A runtime of the given kind on the given device.
    pub fn new(kind: RuntimeKind, device: DeviceKind) -> Self {
        RuntimeConfig { kind, device, include_pretune: false, precision: Precision::Fp32 }
    }

    /// Model FP16 execution (tensor-core GEMM, halved traffic).
    pub fn fp16(mut self) -> Self {
        self.precision = Precision::Fp16;
        self
    }

    /// The TurboTransformers runtime.
    pub fn turbo(device: DeviceKind) -> Self {
        Self::new(RuntimeKind::Turbo, device)
    }
}

/// Errors surfaced to callers of the run APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The request's sequence length exceeds the model's position table.
    SequenceTooLong {
        /// Requested length.
        got: usize,
        /// Model maximum.
        max: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::SequenceTooLong { got, max } => {
                write!(f, "sequence length {got} exceeds the model maximum {max}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Result of one runtime inference: real numerics plus simulated timing.
#[derive(Debug)]
pub struct EncoderRun {
    /// Final hidden states `[batch, seq, hidden]`.
    pub encoder_output: Tensor,
    /// Simulated device seconds for this inference under the variant.
    pub sim_time: f64,
    /// Component breakdown of `sim_time`.
    pub breakdown: CostBreakdown,
    /// Modeled energy of this inference in integer microjoules (kernel
    /// dynamic + static energy, plus idle draw over the allocator/overhead
    /// time). The same value is attributed to the attached
    /// [`EnergyMeter`](tt_telemetry::EnergyMeter) under the prefill phase,
    /// so per-request shares of this number reconcile exactly against the
    /// meter.
    pub energy_uj: u64,
    /// Allocator statistics of this inference's plan.
    pub plan_stats: tt_alloc::turbo::PlanStats,
}

#[derive(Debug)]
struct State {
    /// Where every inference runs: the allocator's chunk cache, the arena,
    /// per-op metrics once instrumented, and the armed chaos points.
    workspace: Workspace,
    /// Warm caching pool used to price `AllocPolicy::CachingPool` variants.
    caching_for_cost: CachingAllocator,
    /// Turbo allocator replica used to price `AllocPolicy::TurboChunks`.
    turbo_for_cost: TurboAllocator,
    tuned_shapes: HashSet<(usize, usize)>,
    bert_cost_cache: HashMap<CostKey, (CostBreakdown, f64)>,
    /// Memory-bound passes removed by the fusion pass, per executed graph.
    fusion_elided: Option<std::sync::Arc<tt_telemetry::Counter>>,
    /// Busy-energy sink, set by [`TurboRuntime::instrument_energy`]. Every
    /// executed inference attributes its modeled joules here under the
    /// prefill phase.
    energy_meter: Option<std::sync::Arc<tt_telemetry::EnergyMeter>>,
}

#[derive(Debug, PartialEq, Eq, Hash, Clone, Copy)]
struct CostKey {
    layers: usize,
    heads: usize,
    head_dim: usize,
    ffn: usize,
    batch: usize,
    seq: usize,
    masked: bool,
    albert: bool,
}

/// The runtime. Cheap to share behind a reference; interior state (chunk
/// cache, cost caches, tuned-shape set) is mutex-protected.
#[derive(Debug)]
pub struct TurboRuntime {
    config: RuntimeConfig,
    profile: VariantProfile,
    device: DeviceConfig,
    state: Mutex<State>,
}

impl TurboRuntime {
    /// Create a runtime.
    pub fn new(config: RuntimeConfig) -> Self {
        let mut profile = config.kind.profile();
        profile.precision = config.precision;
        TurboRuntime {
            profile,
            device: config.device.config(),
            config,
            state: Mutex::new(State {
                // The serving loop catches executor panics, so this is the
                // one workspace whose fault points are armed.
                workspace: Workspace { chaos: true, ..Workspace::default() },
                caching_for_cost: CachingAllocator::new(),
                turbo_for_cost: TurboAllocator::default(),
                tuned_shapes: HashSet::new(),
                bert_cost_cache: HashMap::new(),
                fusion_elided: None,
                energy_meter: None,
            }),
        }
    }

    /// Attach telemetry: per-op-kind execution timing (paper Table 2) and
    /// allocator chunk/byte metrics report into `registry` from every
    /// subsequent inference. Idempotent per registry — handles are
    /// get-or-create by name.
    pub fn instrument(&self, registry: &tt_telemetry::Registry) {
        let mut state = self.state.lock();
        state.workspace.metrics = Some(executor::ExecutorMetrics::register(registry));
        state.fusion_elided = Some(registry.counter(
            "fusion_elided_passes_total",
            "Memory-bound kernel passes the graph fusion pass removed before execution",
            &[],
        ));
        state.workspace.allocator.attach_metrics(tt_alloc::AllocMetrics::register(registry));
    }

    /// Attach an energy meter: every subsequent inference adds its modeled
    /// microjoules (the same value returned in [`EncoderRun::energy_uj`])
    /// under [`tt_telemetry::EnergyPhase::Prefill`] — full-sequence encoder
    /// forwards are the prefill-shaped work in this stack. The sampler in
    /// `tt_telemetry::energy` turns the meter into `power_watts` /
    /// `energy_joules_total` metric families.
    pub fn instrument_energy(&self, meter: std::sync::Arc<tt_telemetry::EnergyMeter>) {
        self.state.lock().energy_meter = Some(meter);
    }

    /// The variant this runtime emulates.
    pub fn kind(&self) -> RuntimeKind {
        self.config.kind
    }

    /// The variant profile.
    pub fn profile(&self) -> &VariantProfile {
        &self.profile
    }

    /// The modelled device.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Apply the variant's graph form (fused programs de-fuse for
    /// fine-grained variants; the weight slots are unchanged).
    fn transform<'p>(&self, program: &'p Program) -> Cow<'p, Program> {
        match self.profile.fusion {
            FusionLevel::Fused => Cow::Borrowed(program),
            FusionLevel::Decomposed => Cow::Owned(program.decomposed()),
        }
    }

    /// Allocator-overhead seconds for executing `program` once, advancing
    /// the warm allocator replicas.
    fn alloc_overhead(&self, state: &mut State, program: &Program) -> f64 {
        let usages = program.usages();
        match self.profile.allocator {
            AllocPolicy::TurboChunks => {
                let _ = state.turbo_for_cost.plan(usages);
                let st = state.turbo_for_cost.last_stats();
                PLAN_BASE_SECONDS
                    + usages.len() as f64 * PER_TENSOR_SECONDS
                    + st.new_chunks as f64 * DEVICE_MALLOC_SECONDS
            }
            AllocPolicy::CachingPool => {
                let report = replay(&mut state.caching_for_cost, usages);
                report.device_allocs as f64 * DEVICE_MALLOC_SECONDS
                    + usages.len() as f64 * PER_TENSOR_SECONDS
            }
            AllocPolicy::StaticExactFit => 0.0,
        }
    }

    /// Pretuning seconds owed for this shape (and mark it tuned).
    fn pretune_cost(&self, state: &mut State, batch: usize, seq: usize) -> f64 {
        if self.config.include_pretune
            && self.profile.fixed_shape_only
            && state.tuned_shapes.insert((batch, seq))
        {
            self.profile.pretune_seconds
        } else {
            0.0
        }
    }

    /// Price one compiled program under this runtime (no numerics).
    /// Advances the warm allocator/tuning state exactly as a real execution
    /// would.
    pub fn cost_bound(&self, program: &Program, batch: usize, seq: usize) -> CostBreakdown {
        self.priced_bound(program, batch, seq).0
    }

    /// Time and energy for one program: the cost breakdown plus modeled
    /// *steady-state* joules — dynamic kernel energy plus idle draw over
    /// the per-inference framework overhead. Cold allocator / pretune
    /// windows are deliberately excluded from the energy: they depend on
    /// warm-up order, and the scheduler's energy table needs shapes to be
    /// comparable regardless of the order they were priced in.
    fn priced_bound(&self, program: &Program, batch: usize, seq: usize) -> (CostBreakdown, f64) {
        let transformed = self.transform(program);
        let mut cb = cost::graph_cost(&self.device, &self.profile, &transformed.graph);
        let mut state = self.state.lock();
        cb.alloc = self.alloc_overhead(&mut state, &transformed);
        cb.overhead = self.profile.per_infer_overhead + self.pretune_cost(&mut state, batch, seq);
        let joules = cost::graph_energy(&self.device, &self.profile, &transformed.graph).total()
            + self.device.static_energy(self.profile.per_infer_overhead);
        (cb, joules)
    }

    /// Cached BERT `(cost breakdown, joules)` for a `(batch, seq)` shape.
    fn bert_priced(
        &self,
        cfg: &BertConfig,
        batch: usize,
        seq: usize,
        masked: bool,
    ) -> (CostBreakdown, f64) {
        let key = CostKey {
            layers: cfg.num_layers,
            heads: cfg.num_heads,
            head_dim: cfg.head_dim,
            ffn: cfg.ffn_dim,
            batch,
            seq,
            masked,
            albert: false,
        };
        if let Some(entry) = self.state.lock().bert_cost_cache.get(&key) {
            return *entry;
        }
        let bound = tt_model::bert::graph_skeleton(cfg, batch, seq, masked);
        let entry = self.priced_bound(&bound, batch, seq);
        self.state.lock().bert_cost_cache.insert(key, entry);
        entry
    }

    /// Cached BERT inference cost for a `(batch, seq)` shape — the
    /// building block of the serving framework's `cached_cost` table.
    pub fn bert_cost(&self, cfg: &BertConfig, batch: usize, seq: usize, masked: bool) -> f64 {
        self.bert_priced(cfg, batch, seq, masked).0.total()
    }

    /// Cached modeled BERT inference energy in joules for a `(batch, seq)`
    /// shape — the building block of the serving framework's energy table
    /// when scheduling under `TT_SCHED_OBJECTIVE=energy`. Shares the cache
    /// (and the warm allocator replica advance) with
    /// [`bert_cost`](Self::bert_cost).
    pub fn bert_energy(&self, cfg: &BertConfig, batch: usize, seq: usize, masked: bool) -> f64 {
        self.bert_priced(cfg, batch, seq, masked).1
    }

    /// Cached ALBERT inference cost.
    pub fn albert_cost(&self, cfg: &AlbertConfig, batch: usize, seq: usize, masked: bool) -> f64 {
        let key = CostKey {
            layers: cfg.num_layers,
            heads: cfg.num_heads,
            head_dim: cfg.head_dim,
            ffn: cfg.ffn_dim,
            batch,
            seq,
            masked,
            albert: true,
        };
        if let Some(entry) = self.state.lock().bert_cost_cache.get(&key) {
            return entry.0.total();
        }
        let bound = tt_model::albert::graph_skeleton(cfg, batch, seq, masked);
        let entry = self.priced_bound(&bound, batch, seq);
        self.state.lock().bert_cost_cache.insert(key, entry);
        entry.0.total()
    }

    /// Beam-search decoding cost (paper Fig. 10c's workload).
    pub fn decoder_cost(&self, cfg: &Seq2SeqDecoderConfig, src_len: usize, tgt_len: usize) -> f64 {
        cost::decoder_cost(&self.device, &self.profile, cfg, src_len, tgt_len).total()
    }

    /// GPT-style decoder-only generation cost (prompt prefill + `gen_len`
    /// sampled tokens) — the extension model beyond the paper's set.
    pub fn gpt_cost(
        &self,
        cfg: &tt_model::gpt::GptConfig,
        prompt_len: usize,
        gen_len: usize,
    ) -> f64 {
        cost::gpt_cost(&self.device, &self.profile, cfg, prompt_len, gen_len).total()
    }

    fn run_encoder(
        &self,
        bound: &BoundProgram,
        store: &tt_model::weights::WeightStore,
        inputs: &[&[f32]],
        batch: usize,
        seq: usize,
        trace: Option<executor::TraceHook<'_>>,
    ) -> EncoderRun {
        let transformed = self.transform(bound);
        let mut cb = cost::graph_cost(&self.device, &self.profile, &transformed.graph);
        let mut state = self.state.lock();
        cb.alloc = self.alloc_overhead(&mut state, &transformed);
        cb.overhead = self.profile.per_infer_overhead + self.pretune_cost(&mut state, batch, seq);
        if let Some(counter) = &state.fusion_elided {
            // Fine-grained passes this program would have issued unfused;
            // zero for `FusionLevel::Decomposed` by construction.
            counter.add(transformed.elided_passes() as u64);
        }
        // Per-node joules under this variant's profile, indexed like
        // `transformed.graph.nodes` — the executor stamps them onto per-op
        // spans, and their sum (plus idle draw over the allocator/overhead
        // windows) is what the energy meter and the caller both see, as one
        // integer, so attribution reconciles exactly.
        let energies = cost::node_energies(&self.device, &self.profile, &transformed.graph);
        let dynamic: f64 = energies.iter().sum();
        let energy_uj =
            ((dynamic + self.device.static_energy(cb.alloc + cb.overhead)) * 1e6).round() as u64;
        if let Some(meter) = &state.energy_meter {
            meter.add(tt_telemetry::EnergyPhase::Prefill, energy_uj);
        }
        let ws = &mut state.workspace;
        let mut outputs =
            transformed.run_traced(store, &bound.weights, inputs, ws, trace, Some(&energies));
        let encoder_output = Tensor::from_vec(
            transformed.output_shape(0).to_vec(),
            outputs.pop().expect("one output slot"),
        )
        .expect("output buffer sized from the shape");
        EncoderRun {
            encoder_output,
            sim_time: cb.total(),
            breakdown: cb,
            energy_uj,
            plan_stats: ws.allocator.last_stats(),
        }
    }

    /// Run BERT on unpadded `[batch, seq]` token ids.
    pub fn run_bert(&self, model: &Bert, ids: &Tensor) -> Result<EncoderRun, RunError> {
        self.run_bert_traced(model, ids, None)
    }

    /// [`run_bert`](Self::run_bert), recording allocator-plan and per-op
    /// spans under every parent context in `trace`.
    pub fn run_bert_traced(
        &self,
        model: &Bert,
        ids: &Tensor,
        trace: Option<executor::TraceHook<'_>>,
    ) -> Result<EncoderRun, RunError> {
        let (batch, seq) = (ids.shape().dim(0), ids.shape().dim(1));
        if seq > model.config.max_position {
            return Err(RunError::SequenceTooLong { got: seq, max: model.config.max_position });
        }
        let bound = model.build_graph(batch, seq, false);
        Ok(self.run_encoder(&bound, model.weights(), &[ids.as_slice()], batch, seq, trace))
    }

    /// Run BERT on a zero-padded batch with an additive attention mask
    /// (see [`tt_model::pad_batch`]).
    pub fn run_bert_masked(
        &self,
        model: &Bert,
        ids: &Tensor,
        mask: &Tensor,
    ) -> Result<EncoderRun, RunError> {
        self.run_bert_masked_traced(model, ids, mask, None)
    }

    /// [`run_bert_masked`](Self::run_bert_masked), recording allocator-plan
    /// and per-op spans under every parent context in `trace`.
    pub fn run_bert_masked_traced(
        &self,
        model: &Bert,
        ids: &Tensor,
        mask: &Tensor,
        trace: Option<executor::TraceHook<'_>>,
    ) -> Result<EncoderRun, RunError> {
        let (batch, seq) = (ids.shape().dim(0), ids.shape().dim(1));
        if seq > model.config.max_position {
            return Err(RunError::SequenceTooLong { got: seq, max: model.config.max_position });
        }
        let bound = model.build_graph(batch, seq, true);
        let inputs = [ids.as_slice(), mask.as_slice()];
        Ok(self.run_encoder(&bound, model.weights(), &inputs, batch, seq, trace))
    }

    /// Run ALBERT on unpadded `[batch, seq]` token ids.
    pub fn run_albert(&self, model: &Albert, ids: &Tensor) -> Result<EncoderRun, RunError> {
        let (batch, seq) = (ids.shape().dim(0), ids.shape().dim(1));
        if seq > model.config.max_position {
            return Err(RunError::SequenceTooLong { got: seq, max: model.config.max_position });
        }
        let bound = model.build_graph(batch, seq, false);
        Ok(self.run_encoder(&bound, model.weights(), &[ids.as_slice()], batch, seq, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_model::ids_batch;

    #[test]
    fn run_bert_produces_output_and_time() {
        let model = Bert::new_random(&BertConfig::tiny(), 1);
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let out = rt.run_bert(&model, &ids_batch(&[&[1, 2, 3, 4]])).unwrap();
        assert_eq!(out.encoder_output.shape().dims(), &[1, 4, 16]);
        assert!(out.sim_time > 0.0);
        assert!(out.breakdown.gemm > 0.0);
    }

    #[test]
    fn instrumented_runtime_reports_op_and_alloc_metrics() {
        let model = Bert::new_random(&BertConfig::tiny(), 3);
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let registry = tt_telemetry::Registry::new();
        rt.instrument(&registry);
        rt.run_bert(&model, &ids_batch(&[&[1, 2, 3, 4]])).unwrap();
        let snap = registry.snapshot();
        let matmul = snap.find("executor_op_nanoseconds", &[("op", "matmul")]).unwrap();
        let h = matmul.histogram.as_ref().unwrap();
        assert!(h.count() > 0, "a BERT layer must dispatch GEMMs");
        assert!(h.sum > 0, "GEMM time must be nonzero");
        assert_eq!(snap.find("alloc_plans_total", &[]).unwrap().counter, Some(1));
        assert!(snap.find("alloc_resident_bytes", &[]).unwrap().gauge.unwrap() > 0.0);
    }

    #[test]
    fn fusion_counters_report_fused_ops_and_elided_passes() {
        let cfg = BertConfig::tiny();
        let model = Bert::new_random(&cfg, 5);
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let registry = tt_telemetry::Registry::new();
        rt.instrument(&registry);
        rt.run_bert(&model, &ids_batch(&[&[1, 2, 3, 4]])).unwrap();
        let snap = registry.snapshot();
        // 7 fused kernels per encoder layer (3 bias+split-heads,
        // scale+softmax, bias+GELU, 2 bias+residual+LN).
        let fused = snap.find("executor_fused_ops_total", &[]).unwrap().counter.unwrap();
        assert_eq!(fused, 7 * cfg.num_layers as u64);
        // Each maskless layer elides 9 memory-bound passes.
        let elided = snap.find("fusion_elided_passes_total", &[]).unwrap().counter.unwrap();
        assert_eq!(elided, 9 * cfg.num_layers as u64);

        // A decomposed (PyTorch-like) runtime fuses nothing.
        let rt_pt =
            TurboRuntime::new(RuntimeConfig::new(RuntimeKind::PyTorchLike, DeviceKind::RTX2060));
        let reg_pt = tt_telemetry::Registry::new();
        rt_pt.instrument(&reg_pt);
        rt_pt.run_bert(&model, &ids_batch(&[&[1, 2, 3, 4]])).unwrap();
        let snap_pt = reg_pt.snapshot();
        assert_eq!(snap_pt.find("executor_fused_ops_total", &[]).unwrap().counter, Some(0));
        assert_eq!(snap_pt.find("fusion_elided_passes_total", &[]).unwrap().counter, Some(0));
    }

    #[test]
    fn encoder_runs_report_energy_and_reconcile_with_the_meter() {
        use tt_telemetry::{EnergyMeter, EnergyPhase};
        let model = Bert::new_random(&BertConfig::tiny(), 4);
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        // Warm the allocator first: cold chunk mallocs draw static power
        // that would otherwise swamp a tiny model's dynamic joules.
        rt.run_bert(&model, &ids_batch(&[&[1, 2, 3, 4], &[5, 6, 7, 8]])).unwrap();
        let meter = std::sync::Arc::new(EnergyMeter::new());
        rt.instrument_energy(std::sync::Arc::clone(&meter));
        let a = rt.run_bert(&model, &ids_batch(&[&[1, 2, 3, 4]])).unwrap();
        let b = rt.run_bert(&model, &ids_batch(&[&[1, 2, 3, 4], &[5, 6, 7, 8]])).unwrap();
        assert!(a.energy_uj > 0, "a forward pass must consume modeled energy");
        assert!(b.energy_uj > a.energy_uj, "a bigger batch costs more joules");
        // Exact reconciliation: the meter's prefill phase holds precisely
        // the microjoules the two runs reported — no rounding drift.
        assert_eq!(meter.phase_uj(EnergyPhase::Prefill), a.energy_uj + b.energy_uj);
        assert_eq!(meter.phase_uj(EnergyPhase::Decode), 0);
    }

    #[test]
    fn bert_energy_is_cached_and_consistent_with_cost() {
        let cfg = BertConfig::tiny();
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::V100));
        let e1 = rt.bert_energy(&cfg, 2, 16, false);
        assert!(e1 > 0.0);
        assert_eq!(rt.state.lock().bert_cost_cache.len(), 1);
        // Cost lookup for the same shape reuses the entry; repeated energy
        // lookups are stable.
        let _ = rt.bert_cost(&cfg, 2, 16, false);
        assert_eq!(rt.state.lock().bert_cost_cache.len(), 1);
        assert_eq!(rt.bert_energy(&cfg, 2, 16, false), e1);
        // More work, more joules.
        assert!(rt.bert_energy(&cfg, 4, 16, false) > e1);
    }

    #[test]
    fn quantized_bert_executes_within_int8_tolerance() {
        // The executor's int8 GEMM path: same graph, sidecar-quantized
        // weights, output within the weight-only-quantization budget.
        let cfg = BertConfig::tiny();
        let mut model = Bert::new_random(&cfg, 6);
        let ids = ids_batch(&[&[2, 4, 6, 8]]);
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let f32_out = rt.run_bert(&model, &ids).unwrap().encoder_output;
        model.quantize_int8();
        let q8_out = rt.run_bert(&model, &ids).unwrap().encoder_output;
        let diff = q8_out.max_abs_diff(&f32_out).unwrap();
        assert!(diff > 0.0, "int8 path must actually run");
        assert!(diff < 0.1, "int8 drift {diff} exceeds the documented budget");
    }

    #[test]
    fn traced_run_records_alloc_plan_and_per_op_spans() {
        use tt_telemetry::{Tracer, TracerConfig};
        let model = Bert::new_random(&BertConfig::tiny(), 3);
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let tracer = Tracer::new(TracerConfig { sample_every: 1, ..TracerConfig::default() });
        let root = tracer.start_root("execute", false).unwrap();
        let ctx = root.context();
        rt.run_bert_traced(&model, &ids_batch(&[&[1, 2, 3, 4]]), Some((&tracer, &[ctx]))).unwrap();
        drop(root);

        let spans = tracer.spans_of(ctx.trace);
        let plan = spans.iter().find(|s| s.name == "alloc_plan").expect("alloc_plan span");
        assert_eq!(plan.parent, Some(ctx.span));
        assert!(plan.attrs.iter().any(|(k, _)| *k == "chunks"));
        assert!(plan.attrs.iter().any(|(k, _)| *k == "reused_bytes"));
        let matmul = spans.iter().find(|s| s.name == "matmul").expect("matmul op span");
        assert_eq!(matmul.parent, Some(ctx.span));
        let shape = matmul.attrs.iter().find(|(k, _)| *k == "shape").expect("shape attr");
        assert!(matches!(&shape.1, tt_telemetry::AttrValue::Str(s) if s.contains('x')));
        let gflops = matmul.attrs.iter().find(|(k, _)| *k == "gflops").expect("gflops attr");
        assert!(matches!(&gflops.1, tt_telemetry::AttrValue::Float(v) if *v > 0.0));
        let energy = matmul.attrs.iter().find(|(k, _)| *k == "energy_uj").expect("energy attr");
        assert!(matches!(&energy.1, tt_telemetry::AttrValue::Int(v) if *v > 0));
        // Every recorded span nests inside the root's interval.
        let root_span = spans.iter().find(|s| s.name == "execute").unwrap();
        for s in &spans {
            assert!(s.start_ns >= root_span.start_ns);
            assert!(
                s.start_ns + s.dur_ns <= root_span.start_ns + root_span.dur_ns,
                "span {} must end within its root",
                s.name
            );
        }
    }

    #[test]
    fn sequence_too_long_is_an_error() {
        let model = Bert::new_random(&BertConfig::tiny(), 1);
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let long: Vec<u32> = (0..100).collect();
        let err = rt.run_bert(&model, &ids_batch(&[&long])).unwrap_err();
        assert!(matches!(err, RunError::SequenceTooLong { got: 100, max: 64 }));
    }

    #[test]
    fn all_variants_compute_identical_numerics() {
        let model = Bert::new_random(&BertConfig::tiny(), 2);
        let ids = ids_batch(&[&[7, 8, 9]]);
        let reference = model.forward(&ids, None);
        for kind in RuntimeKind::all() {
            let rt = TurboRuntime::new(RuntimeConfig::new(kind, DeviceKind::RTX2060));
            let out = rt.run_bert(&model, &ids).unwrap();
            assert!(
                out.encoder_output.approx_eq(&reference, 1e-4),
                "{kind:?} diverged numerically"
            );
        }
    }

    #[test]
    fn turbo_is_fastest_variant_on_long_input() {
        let cfg = BertConfig::base();
        let turbo = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let turbo_cost = turbo.bert_cost(&cfg, 1, 400, false);
        for kind in [RuntimeKind::PyTorchLike, RuntimeKind::OnnxRuntimeLike, RuntimeKind::XlaLike] {
            let rt = TurboRuntime::new(RuntimeConfig::new(kind, DeviceKind::RTX2060));
            let c = rt.bert_cost(&cfg, 1, 400, false);
            assert!(turbo_cost < c, "turbo {turbo_cost} must beat {kind:?} {c} at length 400");
        }
    }

    #[test]
    fn bert_cost_is_cached() {
        let cfg = BertConfig::base();
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        let a = rt.bert_cost(&cfg, 4, 64, true);
        let b = rt.bert_cost(&cfg, 4, 64, true);
        assert_eq!(a, b);
        assert_eq!(rt.state.lock().bert_cost_cache.len(), 1);
    }

    #[test]
    fn pretune_is_charged_once_per_shape_when_enabled() {
        let cfg = BertConfig::base();
        let mut rc = RuntimeConfig::new(RuntimeKind::TensorRTLike, DeviceKind::V100);
        rc.include_pretune = true;
        let rt = TurboRuntime::new(rc);
        let bound = tt_model::bert::graph_skeleton(&cfg, 1, 64, false);
        let first = rt.cost_bound(&bound, 1, 64);
        let second = rt.cost_bound(&bound, 1, 64);
        assert!(
            first.total() > second.total() + 1.0,
            "first sight of a shape pays tuning: {} vs {}",
            first.total(),
            second.total()
        );
    }

    #[test]
    fn caching_pool_warms_up() {
        // A PyTorch-like runtime pays device mallocs on the first request
        // of a given size, then serves from the pool.
        let cfg = BertConfig::base();
        let rt =
            TurboRuntime::new(RuntimeConfig::new(RuntimeKind::PyTorchLike, DeviceKind::RTX2060));
        let bound = tt_model::bert::graph_skeleton(&cfg, 1, 128, false);
        let cold = rt.cost_bound(&bound, 1, 128);
        let warm = rt.cost_bound(&bound, 1, 128);
        assert!(cold.alloc > warm.alloc, "pool must warm up: {} vs {}", cold.alloc, warm.alloc);
    }

    #[test]
    fn albert_and_decoder_costs_are_positive() {
        let rt = TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060));
        assert!(rt.albert_cost(&AlbertConfig::base(), 1, 64, false) > 0.0);
        assert!(rt.decoder_cost(&Seq2SeqDecoderConfig::base(), 60, 30) > 0.0);
    }
}
