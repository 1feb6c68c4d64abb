//! The simulated-GPU cost model: prices a computation graph (or a decoding
//! run) node by node under a [`VariantProfile`], using the kernel and
//! roofline models of `tt-gpusim`.

use tt_gpusim::cost::{
    gemm_energy_eff, gemm_time_eff, op_energy_timed, streaming_energy, streaming_time,
    EnergyEstimate,
};
use tt_gpusim::device::DeviceConfig;
use tt_gpusim::kernels::{layernorm_launches, softmax_launches, BatchShape};
use tt_gpusim::launch::{kernel_time, sequence_time, KernelLaunch};
use tt_graph::{Graph, Node, OpKind};
use tt_model::decoder::Seq2SeqDecoderConfig;

use crate::variants::VariantProfile;

/// Per-component cost of one simulated inference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// GEMM kernels.
    pub gemm: f64,
    /// Softmax kernels (incl. fused scale/mask).
    pub softmax: f64,
    /// LayerNorm kernels (incl. fused bias/residual).
    pub layernorm: f64,
    /// Remaining elementwise/transpose/embedding kernels.
    pub other: f64,
    /// Allocator overhead (plan time, device mallocs). Filled by the
    /// runtime, not by [`graph_cost`].
    pub alloc: f64,
    /// Fixed per-inference overhead (transfers, glue). Filled by the
    /// runtime.
    pub overhead: f64,
    /// Kernel launches issued (including launches internal to unfused
    /// softmax/LayerNorm).
    pub launches: usize,
}

impl CostBreakdown {
    /// Total simulated seconds.
    pub fn total(&self) -> f64 {
        self.gemm + self.softmax + self.layernorm + self.other + self.alloc + self.overhead
    }
}

/// Scale a device for a variant: launch overhead (async pipelining /
/// CUDA-graph capture shrink the effective per-kernel gap) and precision
/// (FP16 halves DRAM traffic and runs GEMM on tensor cores).
pub fn scaled_device(device: &DeviceConfig, profile: &VariantProfile) -> DeviceConfig {
    let mut dev = device.clone();
    dev.launch_overhead_us *= profile.launch_scale;
    dev.mem_bandwidth_gbps /= profile.precision.bytes_scale();
    dev.peak_tflops *= profile.precision.gemm_throughput_scale();
    dev
}

/// Price one node. Returns `(seconds, component, launches)` where component
/// indexes into the breakdown: 0 = gemm, 1 = softmax, 2 = layernorm,
/// 3 = other.
fn node_cost(
    dev: &DeviceConfig,
    profile: &VariantProfile,
    graph: &Graph,
    node: &Node,
) -> (f64, usize, usize) {
    let shape_of = |t: usize| -> &[usize] { &graph.tensors[t].shape };
    let elems_of = |t: usize| -> usize { graph.tensors[t].elements() };
    let out_shape = shape_of(node.output);

    match &node.kind {
        OpKind::MatMul { trans_b, .. } => {
            let a = shape_of(node.inputs[0]);
            let b = shape_of(node.inputs[1]);
            let (batch, m, k, n) = if b.len() == 2 {
                let m: usize = a[..a.len() - 1].iter().product();
                (1, m, a[a.len() - 1], b[1])
            } else {
                // Batched per-head product: a = [b, h, m, k].
                let batch = a[0] * a[1];
                let (m, k) = (a[2], a[3]);
                let n = if *trans_b { b[2] } else { b[3] };
                (batch, m, k, n)
            };
            (gemm_time_eff(dev, batch, m, k, n, profile.gemm_efficiency), 0, 1)
        }
        OpKind::Softmax | OpKind::ScaleMaskSoftmax { .. } => {
            let row_len = *out_shape.last().expect("softmax output has rank >= 1");
            let rows = elems_of(node.output) / row_len.max(1);
            let launches = softmax_launches(dev, profile.softmax, BatchShape { rows, row_len });
            (sequence_time(dev, &launches), 1, launches.len())
        }
        OpKind::LayerNorm { .. } | OpKind::AddBiasResidualLayerNorm { .. } => {
            let row_len = *out_shape.last().expect("layernorm output has rank >= 1");
            let rows = elems_of(node.output) / row_len.max(1);
            let launches = layernorm_launches(dev, profile.layernorm, BatchShape { rows, row_len });
            (sequence_time(dev, &launches), 2, launches.len())
        }
        OpKind::Embedding => {
            // Gather: read the rows it touches, write the output.
            let bytes = (2 * elems_of(node.output) * 4) as u64;
            (streaming_time(dev, bytes), 3, 1)
        }
        _ => {
            // Elementwise / transpose glue: stream all inputs + the output.
            let reads: usize = node.inputs.iter().map(|&t| elems_of(t)).sum();
            let bytes = ((reads + elems_of(node.output)) * 4) as u64;
            (streaming_time(dev, bytes), 3, 1)
        }
    }
}

/// Energy of a sequence of kernel launches: each launch's dynamic
/// flops/bytes energy plus static draw over its own kernel time.
fn launches_energy(dev: &DeviceConfig, launches: &[KernelLaunch]) -> EnergyEstimate {
    let mut e = EnergyEstimate::default();
    for l in launches {
        e.accumulate(&op_energy_timed(dev, l.flops, l.bytes, kernel_time(dev, l)));
    }
    e
}

/// Price one node's energy — the joules column next to [`node_cost`]'s
/// seconds, derived from the identical roofline activity (GEMM
/// flops/bytes, kernel-model launches, streaming traffic).
fn node_energy(
    dev: &DeviceConfig,
    profile: &VariantProfile,
    graph: &Graph,
    node: &Node,
) -> EnergyEstimate {
    let shape_of = |t: usize| -> &[usize] { &graph.tensors[t].shape };
    let elems_of = |t: usize| -> usize { graph.tensors[t].elements() };
    let out_shape = shape_of(node.output);

    match &node.kind {
        OpKind::MatMul { trans_b, .. } => {
            let a = shape_of(node.inputs[0]);
            let b = shape_of(node.inputs[1]);
            let (batch, m, k, n) = if b.len() == 2 {
                let m: usize = a[..a.len() - 1].iter().product();
                (1, m, a[a.len() - 1], b[1])
            } else {
                let batch = a[0] * a[1];
                let (m, k) = (a[2], a[3]);
                let n = if *trans_b { b[2] } else { b[3] };
                (batch, m, k, n)
            };
            gemm_energy_eff(dev, batch, m, k, n, profile.gemm_efficiency)
        }
        OpKind::Softmax | OpKind::ScaleMaskSoftmax { .. } => {
            let row_len = *out_shape.last().expect("softmax output has rank >= 1");
            let rows = elems_of(node.output) / row_len.max(1);
            let launches = softmax_launches(dev, profile.softmax, BatchShape { rows, row_len });
            launches_energy(dev, &launches)
        }
        OpKind::LayerNorm { .. } | OpKind::AddBiasResidualLayerNorm { .. } => {
            let row_len = *out_shape.last().expect("layernorm output has rank >= 1");
            let rows = elems_of(node.output) / row_len.max(1);
            let launches = layernorm_launches(dev, profile.layernorm, BatchShape { rows, row_len });
            launches_energy(dev, &launches)
        }
        OpKind::Embedding => {
            let bytes = (2 * elems_of(node.output) * 4) as u64;
            streaming_energy(dev, bytes)
        }
        _ => {
            let reads: usize = node.inputs.iter().map(|&t| elems_of(t)).sum();
            let bytes = ((reads + elems_of(node.output)) * 4) as u64;
            streaming_energy(dev, bytes)
        }
    }
}

/// Per-node modeled joules of a graph, indexed by node id — the vector the
/// executor threads into per-op trace spans (`energy_uj` attribute) and
/// whose sum the engines attribute to the energy meter.
pub fn node_energies(device: &DeviceConfig, profile: &VariantProfile, graph: &Graph) -> Vec<f64> {
    let dev = scaled_device(device, profile);
    graph.nodes.iter().map(|n| node_energy(&dev, profile, graph, n).total()).collect()
}

/// Total kernel energy of a graph under a profile (allocator and fixed
/// overheads are the runtime's responsibility, as with [`graph_cost`]).
pub fn graph_energy(
    device: &DeviceConfig,
    profile: &VariantProfile,
    graph: &Graph,
) -> EnergyEstimate {
    let dev = scaled_device(device, profile);
    let mut e = EnergyEstimate::default();
    for node in &graph.nodes {
        e.accumulate(&node_energy(&dev, profile, graph, node));
    }
    e
}

/// Energy of one GPT decode step at cache length `t` (the `t`-th token
/// overall, 1-based), mirroring [`gpt_cost`]'s per-step work; `sample`
/// adds the vocabulary projection. This is what the generative runtime
/// attributes to the meter per executed step.
pub fn gpt_step_energy(
    device: &DeviceConfig,
    profile: &VariantProfile,
    cfg: &tt_model::gpt::GptConfig,
    t: usize,
    sample: bool,
) -> EnergyEstimate {
    let dev = scaled_device(device, profile);
    let h = cfg.model_dim();
    let (heads, d) = (cfg.num_heads, cfg.head_dim);
    let eff = profile.gemm_efficiency;
    let t = t.clamp(1, cfg.max_position);
    let mut e = EnergyEstimate::default();
    for _ in 0..cfg.num_layers {
        e.accumulate(&gemm_energy_eff(&dev, 1, 1, h, h, eff));
        e.accumulate(&gemm_energy_eff(&dev, 1, 1, h, h, eff));
        e.accumulate(&gemm_energy_eff(&dev, 1, 1, h, h, eff));
        e.accumulate(&gemm_energy_eff(&dev, 1, 1, h, h, eff));
        e.accumulate(&gemm_energy_eff(&dev, heads, 1, d, t, eff));
        e.accumulate(&gemm_energy_eff(&dev, heads, 1, t, d, eff));
        let sm = softmax_launches(&dev, profile.softmax, BatchShape { rows: heads, row_len: t });
        e.accumulate(&launches_energy(&dev, &sm));
        let ln = layernorm_launches(&dev, profile.layernorm, BatchShape { rows: 1, row_len: h });
        let ln_e = launches_energy(&dev, &ln);
        e.accumulate(&ln_e);
        e.accumulate(&ln_e);
        e.accumulate(&gemm_energy_eff(&dev, 1, 1, h, cfg.ffn_dim, eff));
        e.accumulate(&gemm_energy_eff(&dev, 1, 1, cfg.ffn_dim, h, eff));
    }
    if sample {
        e.accumulate(&gemm_energy_eff(&dev, 1, 1, h, cfg.vocab_size, eff));
    }
    e
}

/// Energy of prefetching a whole prompt through the KV cache: the sum of
/// the per-position step energies, sampling only at the last position —
/// the decomposition [`gpt_cost`] uses for its timing.
pub fn gpt_prefill_energy(
    device: &DeviceConfig,
    profile: &VariantProfile,
    cfg: &tt_model::gpt::GptConfig,
    prompt_len: usize,
) -> EnergyEstimate {
    let total = prompt_len.min(cfg.max_position).max(1);
    let mut e = EnergyEstimate::default();
    for t in 1..=total {
        e.accumulate(&gpt_step_energy(device, profile, cfg, t, t == total));
    }
    e
}

/// Price a whole graph under a profile (kernel time only — allocator and
/// fixed overheads are the runtime's responsibility).
pub fn graph_cost(device: &DeviceConfig, profile: &VariantProfile, graph: &Graph) -> CostBreakdown {
    let dev = scaled_device(device, profile);
    let mut cb = CostBreakdown::default();
    for node in &graph.nodes {
        let (t, component, launches) = node_cost(&dev, profile, graph, node);
        match component {
            0 => cb.gemm += t,
            1 => cb.softmax += t,
            2 => cb.layernorm += t,
            _ => cb.other += t,
        }
        cb.launches += launches;
    }
    cb
}

/// One line of a per-operator profile.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfileLine {
    /// Operator kind label (e.g. `"MatMul"`).
    pub kind: String,
    /// Number of nodes of this kind.
    pub count: usize,
    /// Kernel launches these nodes issue.
    pub launches: usize,
    /// Total simulated seconds.
    pub seconds: f64,
}

/// Per-operator-kind breakdown of a graph's simulated time, sorted by
/// descending cost — the profiler view behind the paper's §4.1.1
/// motivation numbers (61.8 % GEMM at batch 20 / seq 128; 80.6 % idle at
/// batch 1 / seq 40).
pub fn profile_graph(
    device: &DeviceConfig,
    profile: &VariantProfile,
    graph: &Graph,
) -> Vec<OpProfileLine> {
    let dev = scaled_device(device, profile);
    let mut lines: Vec<OpProfileLine> = Vec::new();
    for node in &graph.nodes {
        let (t, _, launches) = node_cost(&dev, profile, graph, node);
        let kind = op_label(&node.kind);
        match lines.iter_mut().find(|l| l.kind == kind) {
            Some(l) => {
                l.count += 1;
                l.launches += launches;
                l.seconds += t;
            }
            None => lines.push(OpProfileLine { kind, count: 1, launches, seconds: t }),
        }
    }
    lines.sort_by(|a, b| b.seconds.partial_cmp(&a.seconds).expect("finite times"));
    lines
}

fn op_label(kind: &OpKind) -> String {
    match kind {
        OpKind::MatMul { .. } => "MatMul".into(),
        OpKind::ScaleMaskSoftmax { .. } => "ScaleMaskSoftmax".into(),
        OpKind::AddBiasResidualLayerNorm { .. } => "AddBiasResidualLayerNorm".into(),
        OpKind::AddBiasSplitHeads { .. } => "AddBiasSplitHeads".into(),
        OpKind::SplitHeads { .. } => "SplitHeads".into(),
        OpKind::LayerNorm { .. } => "LayerNorm".into(),
        OpKind::Scale { .. } => "Scale".into(),
        other => format!("{other:?}"),
    }
}

/// Price a full beam-search decoding run: `tgt_len` incremental steps of a
/// [`Seq2SeqDecoderConfig`] decoder over an encoder memory of `src_len`
/// (paper Fig. 10c's workload). Includes the one-time cross-attention K/V
/// projection but not the encoder itself.
pub fn decoder_cost(
    device: &DeviceConfig,
    profile: &VariantProfile,
    cfg: &Seq2SeqDecoderConfig,
    src_len: usize,
    tgt_len: usize,
) -> CostBreakdown {
    let dev = scaled_device(device, profile);
    let h = cfg.model_dim();
    let beams = cfg.beam_size;
    let heads = cfg.num_heads;
    let d = cfg.head_dim;
    let eff = profile.gemm_efficiency;
    let mut cb = CostBreakdown::default();

    // Cross-attention K/V projections, once per layer.
    for _ in 0..cfg.num_layers {
        cb.gemm += 2.0 * gemm_time_eff(&dev, 1, src_len, h, h, eff);
        cb.launches += 2;
    }

    for t in 1..=tgt_len.min(cfg.max_target_len) {
        for _ in 0..cfg.num_layers {
            // Self-attention: Q/K/V/O projections for the current token.
            cb.gemm += 4.0 * gemm_time_eff(&dev, 1, beams, h, h, eff);
            // Attend over t cached keys and back over values.
            cb.gemm += gemm_time_eff(&dev, beams * heads, 1, d, t, eff);
            cb.gemm += gemm_time_eff(&dev, beams * heads, 1, t, d, eff);
            cb.launches += 6;
            let sm = softmax_launches(
                &dev,
                profile.softmax,
                BatchShape { rows: beams * heads, row_len: t },
            );
            cb.softmax += sequence_time(&dev, &sm);
            cb.launches += sm.len();

            // Cross-attention: Q and O projections + attend over src_len.
            cb.gemm += 2.0 * gemm_time_eff(&dev, 1, beams, h, h, eff);
            cb.gemm += gemm_time_eff(&dev, beams * heads, 1, d, src_len, eff);
            cb.gemm += gemm_time_eff(&dev, beams * heads, 1, src_len, d, eff);
            cb.launches += 4;
            let smc = softmax_launches(
                &dev,
                profile.softmax,
                BatchShape { rows: beams * heads, row_len: src_len },
            );
            cb.softmax += sequence_time(&dev, &smc);
            cb.launches += smc.len();

            // FFN.
            cb.gemm += gemm_time_eff(&dev, 1, beams, h, cfg.ffn_dim, eff);
            cb.gemm += gemm_time_eff(&dev, 1, beams, cfg.ffn_dim, h, eff);
            cb.launches += 2;

            // Three LayerNorms.
            let ln =
                layernorm_launches(&dev, profile.layernorm, BatchShape { rows: beams, row_len: h });
            cb.layernorm += 3.0 * sequence_time(&dev, &ln);
            cb.launches += 3 * ln.len();
        }
        // Vocabulary projection.
        cb.gemm += gemm_time_eff(&dev, 1, beams, h, cfg.vocab_size, eff);
        cb.launches += 1;
    }
    // Fine-grained (framework) runtimes drive the generation loop from the
    // host language — PyTorch's beam search pays Python dispatch every
    // step, while the fused C++ runtimes pay it once per request.
    cb.overhead = match profile.fusion {
        crate::variants::FusionLevel::Decomposed => {
            profile.per_infer_overhead * tgt_len.max(1) as f64
        }
        crate::variants::FusionLevel::Fused => profile.per_infer_overhead,
    };
    cb
}

/// Price a GPT-style decoder-only generation: `prompt_len` cached prefill
/// steps plus `gen_len` generated tokens, single sequence. Pre-LN blocks
/// have no fused bias+residual+LN epilogue, so both variants pay plain
/// LayerNorms; the fusion axis shows up only in launch counts and the
/// per-step host overhead.
pub fn gpt_cost(
    device: &DeviceConfig,
    profile: &VariantProfile,
    cfg: &tt_model::gpt::GptConfig,
    prompt_len: usize,
    gen_len: usize,
) -> CostBreakdown {
    let dev = scaled_device(device, profile);
    let h = cfg.model_dim();
    let (heads, d) = (cfg.num_heads, cfg.head_dim);
    let eff = profile.gemm_efficiency;
    let mut cb = CostBreakdown::default();

    let total = (prompt_len + gen_len).min(cfg.max_position);
    for t in 1..=total {
        for _ in 0..cfg.num_layers {
            // QKV + output projections for one token.
            cb.gemm += 4.0 * gemm_time_eff(&dev, 1, 1, h, h, eff);
            // Attend over the causal cache of length t.
            cb.gemm += gemm_time_eff(&dev, heads, 1, d, t, eff);
            cb.gemm += gemm_time_eff(&dev, heads, 1, t, d, eff);
            cb.launches += 6;
            let sm =
                softmax_launches(&dev, profile.softmax, BatchShape { rows: heads, row_len: t });
            cb.softmax += sequence_time(&dev, &sm);
            cb.launches += sm.len();
            // Two pre-LN LayerNorms + FFN.
            let ln =
                layernorm_launches(&dev, profile.layernorm, BatchShape { rows: 1, row_len: h });
            cb.layernorm += 2.0 * sequence_time(&dev, &ln);
            cb.launches += 2 * ln.len();
            cb.gemm += gemm_time_eff(&dev, 1, 1, h, cfg.ffn_dim, eff);
            cb.gemm += gemm_time_eff(&dev, 1, 1, cfg.ffn_dim, h, eff);
            cb.launches += 2;
        }
        // Final LN + tied-embedding logits (only needed where a token is
        // actually sampled, i.e. from the last prompt position onward).
        if t >= prompt_len {
            cb.gemm += gemm_time_eff(&dev, 1, 1, h, cfg.vocab_size, eff);
            cb.launches += 1;
        }
    }
    cb.overhead = match profile.fusion {
        crate::variants::FusionLevel::Decomposed => {
            profile.per_infer_overhead * total.max(1) as f64
        }
        crate::variants::FusionLevel::Fused => profile.per_infer_overhead,
    };
    cb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::RuntimeKind;
    use tt_gpusim::device::DeviceKind;
    use tt_model::bert::{graph_skeleton, BertConfig};

    fn dev() -> DeviceConfig {
        DeviceKind::RTX2060.config()
    }

    #[test]
    fn turbo_beats_pytorch_on_bert_and_gap_grows_with_length() {
        let d = dev();
        let cfg = BertConfig::base();
        let cost = |kind: RuntimeKind, seq: usize| {
            let bg = graph_skeleton(&cfg, 1, seq, false);
            let profile = kind.profile();
            let graph = match profile.fusion {
                crate::variants::FusionLevel::Fused => bg.program.graph,
                crate::variants::FusionLevel::Decomposed => tt_graph::fusion::decompose(&bg.graph),
            };
            graph_cost(&d, &profile, &graph).total()
        };
        let sp_short = cost(RuntimeKind::PyTorchLike, 10) / cost(RuntimeKind::Turbo, 10);
        let sp_long = cost(RuntimeKind::PyTorchLike, 500) / cost(RuntimeKind::Turbo, 500);
        assert!(sp_short > 1.0, "turbo must win at short: {sp_short:.3}");
        assert!(sp_long > sp_short, "speedup grows with length: {sp_short:.3} vs {sp_long:.3}");
        assert!(
            (1.0..4.0).contains(&sp_short) && (1.3..6.0).contains(&sp_long),
            "speedups in a plausible band (paper: 1.10–2.58): {sp_short:.2}, {sp_long:.2}"
        );
    }

    #[test]
    fn decomposed_graphs_launch_more_kernels() {
        let d = dev();
        let cfg = BertConfig::base();
        let bg = graph_skeleton(&cfg, 1, 40, false);
        let turbo = RuntimeKind::Turbo.profile();
        let pt = RuntimeKind::PyTorchLike.profile();
        let fused = graph_cost(&d, &turbo, &bg.graph);
        let decomposed = graph_cost(&d, &pt, &tt_graph::fusion::decompose(&bg.graph));
        assert!(
            decomposed.launches > 2 * fused.launches,
            "decomposed {} vs fused {}",
            decomposed.launches,
            fused.launches
        );
    }

    #[test]
    fn gemm_dominates_fused_runtime_at_large_batch() {
        // Paper §4.1.1: with fused kernels, GEMM is ~60+ % of time at
        // batch 20 / seq 128.
        let d = DeviceKind::V100.config();
        let cfg = BertConfig::base();
        let bg = graph_skeleton(&cfg, 20, 128, false);
        let cb = graph_cost(&d, &RuntimeKind::Turbo.profile(), &bg.graph);
        let share = cb.gemm / cb.total();
        assert!(share > 0.5, "GEMM share should dominate the fused runtime: {share:.3}");
    }

    #[test]
    fn decoder_cost_scales_superlinearly_with_target_length() {
        let d = dev();
        let cfg = Seq2SeqDecoderConfig::base();
        let p = RuntimeKind::Turbo.profile();
        let short = decoder_cost(&d, &p, &cfg, 50, 20).total();
        let long = decoder_cost(&d, &p, &cfg, 50, 80).total();
        assert!(long > 3.5 * short, "4× steps ≥ ~4× cost: {short} vs {long}");
    }

    #[test]
    fn decoder_turbo_beats_pytorch() {
        // Paper Fig. 10c: 1.85–2.51× over PyTorch.
        let d = dev();
        let cfg = Seq2SeqDecoderConfig::base();
        let t = decoder_cost(&d, &RuntimeKind::Turbo.profile(), &cfg, 100, 50).total();
        let p = decoder_cost(&d, &RuntimeKind::PyTorchLike.profile(), &cfg, 100, 50).total();
        let sp = p / t;
        assert!((1.3..4.0).contains(&sp), "decoder speedup {sp:.2} plausible");
    }

    #[test]
    fn node_energies_sum_to_graph_energy_and_grow_with_batch() {
        let d = dev();
        let cfg = BertConfig::base();
        let p = RuntimeKind::Turbo.profile();
        let small = graph_skeleton(&cfg, 1, 40, false);
        let per_node = node_energies(&d, &p, &small.graph);
        assert_eq!(per_node.len(), small.graph.nodes.len());
        assert!(per_node.iter().all(|&j| j > 0.0), "every op consumes energy");
        let total: f64 = per_node.iter().sum();
        let ge = graph_energy(&d, &p, &small.graph);
        assert!((total - ge.total()).abs() < 1e-9 * ge.total().max(1.0));
        let big = graph_skeleton(&cfg, 8, 40, false);
        assert!(graph_energy(&d, &p, &big.graph).total() > 4.0 * ge.total());
    }

    #[test]
    fn fused_graph_spends_fewer_joules_than_decomposed() {
        // Fusion removes intermediate DRAM round-trips and launches, so its
        // energy must undercut the decomposed form of the same math.
        let d = dev();
        let cfg = BertConfig::base();
        let bg = graph_skeleton(&cfg, 1, 40, false);
        let p = RuntimeKind::Turbo.profile();
        let fused = graph_energy(&d, &p, &bg.graph).total();
        let decomposed = graph_energy(&d, &p, &tt_graph::fusion::decompose(&bg.graph)).total();
        assert!(fused < decomposed, "fused {fused} vs decomposed {decomposed}");
    }

    #[test]
    fn gpt_step_energy_grows_with_context_and_prefill_sums_steps() {
        let d = dev();
        let cfg = tt_model::gpt::GptConfig::tiny();
        let p = RuntimeKind::Turbo.profile();
        let early = gpt_step_energy(&d, &p, &cfg, 2, true).total();
        let late = gpt_step_energy(&d, &p, &cfg, 30, true).total();
        assert!(early > 0.0 && late > early, "longer prefix costs more: {early} vs {late}");
        let prefill = gpt_prefill_energy(&d, &p, &cfg, 8).total();
        assert!(prefill > gpt_step_energy(&d, &p, &cfg, 8, true).total());
    }
}
