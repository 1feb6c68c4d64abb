//! ALBERT (Lan et al.) — BERT with cross-layer weight sharing and a
//! factorized embedding.
//!
//! Both tricks matter for the serving system: weight sharing shrinks the
//! parameter footprint (one layer's weights serve all 12 layers), while the
//! factorized embedding inserts an extra projection GEMM the runtime must
//! schedule. Computation per token is the same as BERT, which is why paper
//! Figure 10's ALBERT latency curve tracks its BERT curve.

use tt_graph::{Graph, OpKind, TensorClass};
use tt_kernels as k;
use tt_tensor::{sgemm, GemmSpec, Tensor};

use crate::encoder_layer::{
    declare_layer_weights, emit_layer, encoder_layer_program, layer_forward_with, EncoderDims,
    EncoderLayerWeights,
};
use crate::program::{BoundProgram, Workspace};
use crate::weights::{WeightInit, WeightStore};

/// ALBERT hyper-parameters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlbertConfig {
    /// Encoder layer *applications* (all sharing one weight set).
    pub num_layers: usize,
    /// Attention heads.
    pub num_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// FFN inner dimension.
    pub ffn_dim: usize,
    /// Factorized embedding dimension `E` (ALBERT-base: 128).
    pub embedding_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum sequence length.
    pub max_position: usize,
    /// LayerNorm epsilon.
    pub layer_norm_eps: f32,
}

impl AlbertConfig {
    /// ALBERT-base per paper Table 3 (12 layers, 12 heads, head dim 64).
    pub fn base() -> Self {
        AlbertConfig {
            num_layers: 12,
            num_heads: 12,
            head_dim: 64,
            ffn_dim: 3072,
            embedding_dim: 128,
            vocab_size: 30000,
            max_position: 512,
            layer_norm_eps: 1e-12,
        }
    }

    /// Small test config.
    pub fn tiny() -> Self {
        AlbertConfig {
            num_layers: 3,
            num_heads: 2,
            head_dim: 8,
            ffn_dim: 32,
            embedding_dim: 8,
            vocab_size: 89,
            max_position: 64,
            layer_norm_eps: 1e-6,
        }
    }

    /// Model (hidden) dimension.
    pub fn model_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Shared layer dims.
    pub fn dims(&self) -> EncoderDims {
        EncoderDims {
            heads: self.num_heads,
            head_dim: self.head_dim,
            ffn_dim: self.ffn_dim,
            eps: self.layer_norm_eps,
        }
    }
}

/// An ALBERT model: config + (shared) weights.
#[derive(Debug)]
pub struct Albert {
    /// Hyper-parameters.
    pub config: AlbertConfig,
    store: WeightStore,
    word_emb: usize,
    pos_emb: usize,
    emb_proj: usize,
    emb_ln_gamma: usize,
    emb_ln_beta: usize,
    shared_layer: EncoderLayerWeights,
}

impl Albert {
    /// Build an ALBERT with seeded random weights.
    pub fn new_random(config: &AlbertConfig, seed: u64) -> Self {
        let mut store = WeightStore::new();
        let mut init = WeightInit::new(seed);
        let e = config.embedding_dim;
        let h = config.model_dim();
        let word_emb = store.push(init.embedding(config.vocab_size, e));
        let pos_emb = store.push(init.embedding(config.max_position, e));
        let emb_proj = store.push(init.linear(e, h));
        let emb_ln_gamma = store.push(init.gamma(h));
        let emb_ln_beta = store.push(init.beta(h));
        let shared_layer = EncoderLayerWeights::create(&mut store, &mut init, &config.dims());
        Albert {
            config: config.clone(),
            store,
            word_emb,
            pos_emb,
            emb_proj,
            emb_ln_gamma,
            emb_ln_beta,
            shared_layer,
        }
    }

    /// The weight store.
    pub fn weights(&self) -> &WeightStore {
        &self.store
    }

    /// Total parameter bytes — far below BERT's thanks to sharing.
    pub fn param_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Eager forward pass; see [`crate::bert::Bert::forward`].
    pub fn forward(&self, ids: &Tensor, mask: Option<&Tensor>) -> Tensor {
        let (batch, seq) = (ids.shape().dim(0), ids.shape().dim(1));
        let e = self.config.embedding_dim;
        let h = self.config.model_dim();
        let tokens = batch * seq;
        let ids_u32: Vec<u32> = ids.as_slice().iter().map(|&v| v as u32).collect();

        let mut emb = vec![0.0f32; tokens * e];
        k::embed(
            batch,
            seq,
            e,
            &ids_u32,
            self.store.get(self.word_emb).as_slice(),
            self.store.get(self.pos_emb).as_slice(),
            None,
            &mut emb,
        );
        // Factorized projection E → H.
        let mut x = vec![0.0f32; tokens * h];
        sgemm(GemmSpec::nn(tokens, e, h), &emb, self.store.get(self.emb_proj).as_slice(), &mut x);
        let mut normed = vec![0.0f32; x.len()];
        k::layer_norm(
            tokens,
            h,
            &x,
            self.store.get(self.emb_ln_gamma).as_slice(),
            self.store.get(self.emb_ln_beta).as_slice(),
            self.config.layer_norm_eps,
            &mut normed,
        );
        let mut x = normed;

        let dims = self.config.dims();
        let mask_slice = mask.map(|m| m.as_slice());
        let prog = encoder_layer_program(&dims, batch, seq, mask_slice.is_some());
        let mut ws = Workspace::default();
        for _ in 0..self.config.num_layers {
            layer_forward_with(&prog, &self.store, &self.shared_layer, &mut x, mask_slice, &mut ws);
        }
        Tensor::from_vec([batch, seq, h], x).expect("sized by construction")
    }

    /// Build the fused graph; the shared weights are declared once and
    /// referenced by every layer (compare [`crate::bert::Bert::build_graph`]).
    pub fn build_graph(&self, batch: usize, seq: usize, masked: bool) -> BoundProgram {
        build_albert_graph(
            &self.config,
            self.word_emb,
            self.pos_emb,
            self.emb_proj,
            self.emb_ln_gamma,
            self.emb_ln_beta,
            &self.shared_layer,
            batch,
            seq,
            masked,
        )
    }
}

/// Build the ALBERT graph *skeleton* with fabricated weight indices — for
/// shape/cost analysis without touching a weight store (see
/// [`crate::bert::graph_skeleton`]).
pub fn graph_skeleton(
    config: &AlbertConfig,
    batch: usize,
    seq: usize,
    masked: bool,
) -> BoundProgram {
    let mut next = 5usize;
    let shared = EncoderLayerWeights::fabricate(&mut next);
    build_albert_graph(config, 0, 1, 2, 3, 4, &shared, batch, seq, masked)
}

/// Shared graph builder over explicit weight indices.
#[allow(clippy::too_many_arguments)]
fn build_albert_graph(
    config: &AlbertConfig,
    word_emb: usize,
    pos_emb: usize,
    emb_proj: usize,
    emb_ln_gamma: usize,
    emb_ln_beta: usize,
    shared_layer: &EncoderLayerWeights,
    batch: usize,
    seq: usize,
    masked: bool,
) -> BoundProgram {
    {
        assert!(seq <= config.max_position, "seq {seq} exceeds position table");
        let mut g = Graph::new();
        let mut bindings = Vec::new();
        let e = config.embedding_dim;
        let h = config.model_dim();

        let ids = g.add_tensor("ids", vec![batch, seq], TensorClass::Input);
        let mask = masked.then(|| g.add_tensor("mask", vec![batch, seq], TensorClass::Input));

        let word = g.add_tensor("word_emb", vec![config.vocab_size, e], TensorClass::Weight);
        bindings.push((word, word_emb));
        let pos = g.add_tensor("pos_emb", vec![config.max_position, e], TensorClass::Weight);
        bindings.push((pos, pos_emb));
        let proj = g.add_tensor("emb_proj", vec![e, h], TensorClass::Weight);
        bindings.push((proj, emb_proj));
        let gamma = g.add_tensor("emb_ln_gamma", vec![h], TensorClass::Weight);
        bindings.push((gamma, emb_ln_gamma));
        let beta = g.add_tensor("emb_ln_beta", vec![h], TensorClass::Weight);
        bindings.push((beta, emb_ln_beta));

        let emb = g.add_tensor("emb", vec![batch, seq, e], TensorClass::Activation);
        g.add_node(OpKind::Embedding, vec![ids, word, pos], emb);
        let projected = g.add_tensor("emb_projected", vec![batch, seq, h], TensorClass::Activation);
        g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![emb, proj], projected);
        let mut x = g.add_tensor("emb_normed", vec![batch, seq, h], TensorClass::Activation);
        g.add_node(
            OpKind::LayerNorm { eps: config.layer_norm_eps },
            vec![projected, gamma, beta],
            x,
        );

        let dims = config.dims();
        let w = declare_layer_weights(&mut g, &mut bindings, shared_layer, &dims, "shared");
        for i in 0..config.num_layers {
            x = emit_layer(&mut g, &w, &dims, batch, seq, x, mask, &format!("layer{i}"));
        }
        g.tensors[x].class = TensorClass::Output;
        g.tensors[x].name = "encoder_output".into();

        // Fine-grained emission → fusion pass → bound program.
        let inputs: Vec<_> = std::iter::once(ids).chain(mask).collect();
        BoundProgram::compile(&g, &bindings, &inputs, &[x])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert::{Bert, BertConfig};
    use crate::ids_batch;

    #[test]
    fn forward_shapes_are_model_dim() {
        let cfg = AlbertConfig::tiny();
        let m = Albert::new_random(&cfg, 3);
        let out = m.forward(&ids_batch(&[&[1, 2, 3]]), None);
        assert_eq!(out.shape().dims(), &[1, 3, cfg.model_dim()]);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn weight_sharing_shrinks_parameters() {
        // Same shape budget as BERT-tiny but one shared layer: fewer params
        // despite the extra projection matrix.
        let a = Albert::new_random(&AlbertConfig::tiny(), 0);
        let mut bert_cfg = BertConfig::tiny();
        bert_cfg.num_layers = AlbertConfig::tiny().num_layers;
        let b = Bert::new_random(&bert_cfg, 0);
        assert!(
            a.param_bytes() < b.param_bytes(),
            "ALBERT {} must be smaller than BERT {}",
            a.param_bytes(),
            b.param_bytes()
        );
    }

    #[test]
    fn graph_declares_weights_once_but_applies_layers_n_times() {
        let cfg = AlbertConfig::tiny();
        let m = Albert::new_random(&cfg, 1);
        let bg = m.build_graph(1, 5, false);
        // 5 embedding-side weights + 16 shared layer weights.
        assert_eq!(bg.weights.len(), 5 + 16);
        // 3 embedding-side nodes + 16 per layer application.
        assert_eq!(bg.graph.stats().nodes, 3 + 16 * cfg.num_layers);
        bg.graph.topo_order();
    }

    #[test]
    fn deeper_albert_costs_no_extra_weights() {
        let mut cfg = AlbertConfig::tiny();
        let small = Albert::new_random(&cfg, 2).param_bytes();
        cfg.num_layers = 12;
        let big = Albert::new_random(&cfg, 2).param_bytes();
        assert_eq!(small, big, "layer count must not affect parameter bytes");
    }
}
