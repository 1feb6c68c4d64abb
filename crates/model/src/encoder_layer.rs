//! One transformer encoder layer: fine-grained graph emission + a
//! program-backed forward.
//!
//! BERT and ALBERT share this module; ALBERT's cross-layer weight sharing
//! falls out naturally by emitting the same declared weight tensors for
//! every layer. [`emit_layer`] emits one node per *fine-grained* kernel —
//! the graph a training framework would execute — and every consumer
//! (graph builders, [`layer_forward`]) obtains the fused form by running
//! the `tt_graph::fusion` pass, never by hand-wiring fused kernels.

use tt_graph::{Graph, OpKind, TensorClass, TensorId};

use crate::program::{BoundProgram, Program, Workspace};
use crate::weights::{WeightInit, WeightStore};

/// Dimensions of an encoder layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderDims {
    /// Attention heads.
    pub heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// FFN inner dimension.
    pub ffn_dim: usize,
    /// LayerNorm epsilon.
    pub eps: f32,
}

impl EncoderDims {
    /// Model (hidden) dimension = heads · head_dim.
    pub fn hidden(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Attention score scale `1/√d`.
    pub fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }
}

/// Weight-store indices of one encoder layer's parameters.
#[derive(Debug, Clone, Copy)]
pub struct EncoderLayerWeights {
    /// Q/K/V/output projection matrices `[hidden, hidden]`.
    pub wq: usize,
    /// Q bias.
    pub bq: usize,
    /// K projection.
    pub wk: usize,
    /// K bias.
    pub bk: usize,
    /// V projection.
    pub wv: usize,
    /// V bias.
    pub bv: usize,
    /// Attention output projection.
    pub wo: usize,
    /// Attention output bias.
    pub bo: usize,
    /// Post-attention LayerNorm gain.
    pub ln1_gamma: usize,
    /// Post-attention LayerNorm shift.
    pub ln1_beta: usize,
    /// FFN first matrix `[hidden, ffn]`.
    pub w1: usize,
    /// FFN first bias.
    pub b1: usize,
    /// FFN second matrix `[ffn, hidden]`.
    pub w2: usize,
    /// FFN second bias.
    pub b2: usize,
    /// Post-FFN LayerNorm gain.
    pub ln2_gamma: usize,
    /// Post-FFN LayerNorm shift.
    pub ln2_beta: usize,
}

impl EncoderLayerWeights {
    /// Fabricate index-only weights (no backing store) for graph skeletons
    /// used purely for shape/cost analysis.
    pub fn fabricate(next: &mut usize) -> Self {
        let mut take = || {
            let i = *next;
            *next += 1;
            i
        };
        EncoderLayerWeights {
            wq: take(),
            bq: take(),
            wk: take(),
            bk: take(),
            wv: take(),
            bv: take(),
            wo: take(),
            bo: take(),
            ln1_gamma: take(),
            ln1_beta: take(),
            w1: take(),
            b1: take(),
            w2: take(),
            b2: take(),
            ln2_gamma: take(),
            ln2_beta: take(),
        }
    }

    /// Allocate and initialize one layer's weights in the store.
    pub fn create(store: &mut WeightStore, init: &mut WeightInit, dims: &EncoderDims) -> Self {
        let h = dims.hidden();
        EncoderLayerWeights {
            wq: store.push(init.linear(h, h)),
            bq: store.push(init.bias(h)),
            wk: store.push(init.linear(h, h)),
            bk: store.push(init.bias(h)),
            wv: store.push(init.linear(h, h)),
            bv: store.push(init.bias(h)),
            wo: store.push(init.linear(h, h)),
            bo: store.push(init.bias(h)),
            ln1_gamma: store.push(init.gamma(h)),
            ln1_beta: store.push(init.beta(h)),
            w1: store.push(init.linear(h, dims.ffn_dim)),
            b1: store.push(init.bias(dims.ffn_dim)),
            w2: store.push(init.linear(dims.ffn_dim, h)),
            b2: store.push(init.bias(h)),
            ln2_gamma: store.push(init.gamma(h)),
            ln2_beta: store.push(init.beta(h)),
        }
    }
}

// ---------------------------------------------------------------------------
// Program-backed forward
// ---------------------------------------------------------------------------

/// Compile one encoder layer as a [`Program`]: fine-grained emission
/// followed by the fusion pass. The weight slot order matches
/// [`encoder_weight_table`].
pub fn encoder_layer_program(
    dims: &EncoderDims,
    batch: usize,
    seq: usize,
    masked: bool,
) -> Program {
    let mut g = Graph::new();
    let x = g.add_tensor("x", vec![batch, seq, dims.hidden()], TensorClass::Input);
    let mask = masked.then(|| g.add_tensor("mask", vec![batch, seq], TensorClass::Input));
    let mut bindings = Vec::new();
    let mut fabricated = 0usize;
    let lw = EncoderLayerWeights::fabricate(&mut fabricated);
    let w = declare_layer_weights(&mut g, &mut bindings, &lw, dims, "layer");
    let y = emit_layer(&mut g, &w, dims, batch, seq, x, mask, "layer");
    g.tensors[y].class = TensorClass::Output;
    let inputs: Vec<TensorId> = std::iter::once(x).chain(mask).collect();
    BoundProgram::compile(&g, &bindings, &inputs, &[y]).program
}

/// The weight-index table binding one layer's store indices to the slots
/// of [`encoder_layer_program`] (i.e. [`declare_layer_weights`] order).
pub fn encoder_weight_table(lw: &EncoderLayerWeights) -> Vec<usize> {
    vec![
        lw.wq,
        lw.bq,
        lw.wk,
        lw.bk,
        lw.wv,
        lw.bv,
        lw.wo,
        lw.bo,
        lw.ln1_gamma,
        lw.ln1_beta,
        lw.w1,
        lw.b1,
        lw.w2,
        lw.b2,
        lw.ln2_gamma,
        lw.ln2_beta,
    ]
}

/// Run one encoder layer: `x` is `[batch, seq, hidden]` flat and is
/// replaced by the layer output. `mask` is the `[batch, seq]` additive
/// attention mask, if any.
///
/// The layer is compiled through the fusion pass and executed as a
/// [`Program`] in a fresh [`Workspace`] — the fused bias+GELU /
/// bias+residual+LayerNorm / scale+mask+softmax kernels are issued by the
/// pass, not hand-called.
pub fn layer_forward(
    store: &WeightStore,
    lw: &EncoderLayerWeights,
    dims: &EncoderDims,
    batch: usize,
    seq: usize,
    x: &mut Vec<f32>,
    mask: Option<&[f32]>,
) {
    assert_eq!(x.len(), batch * seq * dims.hidden(), "layer input size");
    let prog = encoder_layer_program(dims, batch, seq, mask.is_some());
    layer_forward_with(&prog, store, lw, x, mask, &mut Workspace::default());
}

/// [`layer_forward`] with a pre-compiled program (all layers of a model
/// share one compilation when their shapes agree) and a caller-owned
/// workspace (whose chunks every layer reuses).
pub fn layer_forward_with(
    prog: &Program,
    store: &WeightStore,
    lw: &EncoderLayerWeights,
    x: &mut Vec<f32>,
    mask: Option<&[f32]>,
    ws: &mut Workspace,
) {
    let table = encoder_weight_table(lw);
    let ins: Vec<&[f32]> = std::iter::once(x.as_slice()).chain(mask).collect();
    let mut outs = prog.run(store, &table, &ins, ws);
    *x = outs.pop().expect("one output slot");
}

// ---------------------------------------------------------------------------
// Graph emission
// ---------------------------------------------------------------------------

/// Graph tensor ids of one layer's declared weights.
#[derive(Debug, Clone, Copy)]
pub struct LayerGraphWeights {
    wq: TensorId,
    bq: TensorId,
    wk: TensorId,
    bk: TensorId,
    wv: TensorId,
    bv: TensorId,
    wo: TensorId,
    bo: TensorId,
    ln1_gamma: TensorId,
    ln1_beta: TensorId,
    w1: TensorId,
    b1: TensorId,
    w2: TensorId,
    b2: TensorId,
    ln2_gamma: TensorId,
    ln2_beta: TensorId,
}

/// Declare one layer's weight tensors in the graph and record their store
/// bindings. ALBERT calls this once and reuses the result for every layer.
pub fn declare_layer_weights(
    g: &mut Graph,
    bindings: &mut Vec<(TensorId, usize)>,
    lw: &EncoderLayerWeights,
    dims: &EncoderDims,
    prefix: &str,
) -> LayerGraphWeights {
    let h = dims.hidden();
    let mut decl = |name: &str, shape: Vec<usize>, store_idx: usize| {
        let t = g.add_tensor(format!("{prefix}.{name}"), shape, TensorClass::Weight);
        bindings.push((t, store_idx));
        t
    };
    LayerGraphWeights {
        wq: decl("wq", vec![h, h], lw.wq),
        bq: decl("bq", vec![h], lw.bq),
        wk: decl("wk", vec![h, h], lw.wk),
        bk: decl("bk", vec![h], lw.bk),
        wv: decl("wv", vec![h, h], lw.wv),
        bv: decl("bv", vec![h], lw.bv),
        wo: decl("wo", vec![h, h], lw.wo),
        bo: decl("bo", vec![h], lw.bo),
        ln1_gamma: decl("ln1_gamma", vec![h], lw.ln1_gamma),
        ln1_beta: decl("ln1_beta", vec![h], lw.ln1_beta),
        w1: decl("w1", vec![h, dims.ffn_dim], lw.w1),
        b1: decl("b1", vec![dims.ffn_dim], lw.b1),
        w2: decl("w2", vec![dims.ffn_dim, h], lw.w2),
        b2: decl("b2", vec![h], lw.b2),
        ln2_gamma: decl("ln2_gamma", vec![h], lw.ln2_gamma),
        ln2_beta: decl("ln2_beta", vec![h], lw.ln2_beta),
    }
}

/// Emit one **fine-grained** encoder layer into the graph (one node per
/// kernel launch a training framework would issue — no fused ops). Returns
/// the layer output tensor `[batch, seq, hidden]`.
///
/// Callers that want the paper's fused execution (Fig. 3) run
/// `tt_graph::fusion::fuse` over the finished graph; the pass collapses
/// the bias+split, scale+mask+softmax, bias+GELU and
/// bias+residual+LayerNorm chains emitted here into single kernels.
#[allow(clippy::too_many_arguments)]
pub fn emit_layer(
    g: &mut Graph,
    w: &LayerGraphWeights,
    dims: &EncoderDims,
    batch: usize,
    seq: usize,
    x: TensorId,
    mask: Option<TensorId>,
    prefix: &str,
) -> TensorId {
    let h = dims.hidden();
    let (heads, d) = (dims.heads, dims.head_dim);
    let act = |g: &mut Graph, name: &str, shape: Vec<usize>| {
        g.add_tensor(format!("{prefix}.{name}"), shape, TensorClass::Activation)
    };
    let tok_shape = vec![batch, seq, h];
    let head_shape = vec![batch, heads, seq, d];
    let score_shape = vec![batch, heads, seq, seq];

    let mm = OpKind::MatMul { trans_b: false, alpha: 1.0 };

    // Q/K/V projections: matmul → bias → head split.
    let qkv = |g: &mut Graph, name: &str, wm: TensorId, bm: TensorId| -> TensorId {
        let p0 = act(g, &format!("{name}0"), tok_shape.clone());
        g.add_node(mm.clone(), vec![x, wm], p0);
        let pb = act(g, &format!("{name}b"), tok_shape.clone());
        g.add_node(OpKind::AddBias, vec![p0, bm], pb);
        let p = act(g, name, head_shape.clone());
        g.add_node(OpKind::SplitHeads { heads }, vec![pb], p);
        p
    };
    let q = qkv(g, "q", w.wq, w.bq);
    let key = qkv(g, "k", w.wk, w.bk);
    let v = qkv(g, "v", w.wv, w.bv);

    // Attention scores: scale → (mask) → softmax, emitted separately.
    let scores = act(g, "scores", score_shape.clone());
    g.add_node(OpKind::MatMul { trans_b: true, alpha: 1.0 }, vec![q, key], scores);
    let scaled = act(g, "scores_scaled", score_shape.clone());
    g.add_node(OpKind::Scale { alpha: dims.scale() }, vec![scores], scaled);
    let pre_softmax = if let Some(m) = mask {
        let masked = act(g, "scores_masked", score_shape.clone());
        g.add_node(OpKind::Mask, vec![scaled, m], masked);
        masked
    } else {
        scaled
    };
    let probs = act(g, "probs", score_shape);
    g.add_node(OpKind::Softmax, vec![pre_softmax], probs);

    let ctx = act(g, "ctx", head_shape);
    g.add_node(mm.clone(), vec![probs, v], ctx);
    let merged = act(g, "merged", tok_shape.clone());
    g.add_node(OpKind::MergeHeads, vec![ctx], merged);

    // Output projection epilogue: bias → residual → LayerNorm.
    let attn = act(g, "attn", tok_shape.clone());
    g.add_node(mm.clone(), vec![merged, w.wo], attn);
    let attn_b = act(g, "attn_biased", tok_shape.clone());
    g.add_node(OpKind::AddBias, vec![attn, w.bo], attn_b);
    let sum1 = act(g, "attn_residual", tok_shape.clone());
    g.add_node(OpKind::Residual, vec![attn_b, x], sum1);
    let x1 = act(g, "x1", tok_shape.clone());
    g.add_node(OpKind::LayerNorm { eps: dims.eps }, vec![sum1, w.ln1_gamma, w.ln1_beta], x1);

    // FFN: bias → GELU, then the second epilogue.
    let inner = act(g, "ffn_inner", vec![batch, seq, dims.ffn_dim]);
    g.add_node(mm.clone(), vec![x1, w.w1], inner);
    let inner_b = act(g, "ffn_biased", vec![batch, seq, dims.ffn_dim]);
    g.add_node(OpKind::AddBias, vec![inner, w.b1], inner_b);
    let inner_act = act(g, "ffn_act", vec![batch, seq, dims.ffn_dim]);
    g.add_node(OpKind::Gelu, vec![inner_b], inner_act);
    let ffn_out = act(g, "ffn_out", tok_shape.clone());
    g.add_node(mm, vec![inner_act, w.w2], ffn_out);
    let ffn_b = act(g, "ffn_out_biased", tok_shape.clone());
    g.add_node(OpKind::AddBias, vec![ffn_out, w.b2], ffn_b);
    let sum2 = act(g, "ffn_residual", tok_shape.clone());
    g.add_node(OpKind::Residual, vec![ffn_b, x1], sum2);
    let x2 = act(g, "x2", tok_shape);
    g.add_node(OpKind::LayerNorm { eps: dims.eps }, vec![sum2, w.ln2_gamma, w.ln2_beta], x2);
    x2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dims() -> EncoderDims {
        EncoderDims { heads: 2, head_dim: 4, ffn_dim: 16, eps: 1e-6 }
    }

    fn setup() -> (WeightStore, EncoderLayerWeights, EncoderDims) {
        let dims = tiny_dims();
        let mut store = WeightStore::new();
        let mut init = WeightInit::new(7);
        let lw = EncoderLayerWeights::create(&mut store, &mut init, &dims);
        (store, lw, dims)
    }

    #[test]
    fn forward_produces_layernormed_output() {
        let (store, lw, dims) = setup();
        let (batch, seq) = (2, 3);
        let mut x: Vec<f32> =
            (0..batch * seq * dims.hidden()).map(|i| ((i * 13) % 17) as f32 * 0.1).collect();
        layer_forward(&store, &lw, &dims, batch, seq, &mut x, None);
        // Output rows are LayerNormed with γ=1, β=0 → zero mean, unit var.
        for row in x.chunks(dims.hidden()) {
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            let var: f32 =
                row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / row.len() as f32;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn masked_padding_does_not_change_valid_tokens() {
        // A length-2 request alone vs. the same request zero-padded to 4
        // with a mask: the valid token outputs must match.
        let (store, lw, dims) = setup();
        let h = dims.hidden();
        let content: Vec<f32> = (0..2 * h).map(|i| ((i * 7) % 11) as f32 * 0.2 - 1.0).collect();

        let mut alone = content.clone();
        layer_forward(&store, &lw, &dims, 1, 2, &mut alone, None);

        let mut padded = content.clone();
        padded.extend(std::iter::repeat_n(0.0, 2 * h));
        let mask = vec![0.0, 0.0, f32::NEG_INFINITY, f32::NEG_INFINITY];
        layer_forward(&store, &lw, &dims, 1, 4, &mut padded, Some(&mask));

        for (a, p) in alone.iter().zip(padded[..2 * h].iter()) {
            assert!((a - p).abs() < 1e-4, "padding must be invisible: {a} vs {p}");
        }
    }

    #[test]
    fn graph_emission_is_fine_grained_and_fuses_to_figure3() {
        let (_store, lw, dims) = setup();
        let mut g = Graph::new();
        let x = g.add_tensor("x", vec![1, 4, dims.hidden()], TensorClass::Activation);
        // x needs a producer for topo-order validity in this test: treat as
        // input instead.
        g.tensors[x].class = TensorClass::Input;
        let mut bindings = Vec::new();
        let w = declare_layer_weights(&mut g, &mut bindings, &lw, &dims, "l0");
        emit_layer(&mut g, &w, &dims, 1, 4, x, None, "l0");
        let stats = g.stats();
        assert_eq!(stats.gemm_nodes, 8, "QKV (3) + scores + ctx + output + FFN (2)");
        assert_eq!(stats.nodes, 25, "fine-grained: one node per kernel launch (maskless)");
        assert!(g.nodes.iter().all(|n| !n.kind.is_fused()), "emission stays fine-grained");
        assert_eq!(bindings.len(), 16);
        g.topo_order();

        // The fusion pass recovers exactly the paper's Fig. 3 layer.
        let f = tt_graph::fusion::fuse(&g);
        let fstats = f.stats();
        assert_eq!(fstats.gemm_nodes, 8);
        assert_eq!(fstats.nodes, 16, "8 GEMM + 3 bias-split + softmax + merge + gelu + 2 LN");
        assert_eq!(f.nodes.iter().filter(|n| n.kind.is_fused()).count(), 7);
    }

    #[test]
    fn shared_weights_emit_multiple_layers() {
        // ALBERT-style: one weight declaration, two layer emissions.
        let (_store, lw, dims) = setup();
        let mut g = Graph::new();
        let x = g.add_tensor("x", vec![1, 4, dims.hidden()], TensorClass::Input);
        let mut bindings = Vec::new();
        let w = declare_layer_weights(&mut g, &mut bindings, &lw, &dims, "shared");
        let h1 = emit_layer(&mut g, &w, &dims, 1, 4, x, None, "l0");
        let _h2 = emit_layer(&mut g, &w, &dims, 1, 4, h1, None, "l1");
        assert_eq!(bindings.len(), 16, "weights declared once");
        assert_eq!(g.stats().nodes, 50, "two fine-grained emissions of 25 nodes");
        assert_eq!(tt_graph::fusion::fuse(&g).stats().nodes, 32, "two fused layers of 16");
        g.topo_order();
    }

    #[test]
    fn layer_program_reports_fusion_savings() {
        let dims = tiny_dims();
        let masked = encoder_layer_program(&dims, 2, 4, true);
        assert_eq!(masked.nodes(), 16);
        assert_eq!(masked.fused_ops(), 7);
        assert_eq!(masked.elided_passes(), 10, "26 fine-grained kernels became 16");
        let maskless = encoder_layer_program(&dims, 2, 4, false);
        assert_eq!(maskless.elided_passes(), 9, "25 fine-grained kernels became 16");
    }
}
