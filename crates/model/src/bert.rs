//! BERT encoder (Devlin et al.), the paper's primary evaluation model.

use std::sync::{Mutex, PoisonError};

use tt_graph::{Graph, OpKind, TensorClass};
use tt_kernels as k;
use tt_tensor::Tensor;

use crate::encoder_layer::{
    declare_layer_weights, emit_layer, encoder_layer_program, layer_forward_with, EncoderDims,
    EncoderLayerWeights,
};
use crate::program::{BoundProgram, Workspace};
use crate::weights::{WeightInit, WeightStore};

/// BERT hyper-parameters.
///
/// Paper Table 3 lists `num_layer=12, num_head=12, hidden_size=64`; the
/// "hidden_size" there is the *per-head* size (12 · 64 = 768 model dim,
/// i.e. BERT-base) — we name the fields unambiguously.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BertConfig {
    /// Encoder layers.
    pub num_layers: usize,
    /// Attention heads.
    pub num_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// FFN inner dimension (4 × model dim for BERT).
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum sequence length (position table rows).
    pub max_position: usize,
    /// Segment (token type) vocabulary; 0 disables segment embeddings.
    pub type_vocab_size: usize,
    /// LayerNorm epsilon.
    pub layer_norm_eps: f32,
}

impl BertConfig {
    /// BERT-base, the configuration of paper Table 3.
    pub fn base() -> Self {
        BertConfig {
            num_layers: 12,
            num_heads: 12,
            head_dim: 64,
            ffn_dim: 3072,
            vocab_size: 30522,
            max_position: 512,
            type_vocab_size: 2,
            layer_norm_eps: 1e-12,
        }
    }

    /// A small config for tests: 2 layers, 2 heads, model dim 16.
    pub fn tiny() -> Self {
        BertConfig {
            num_layers: 2,
            num_heads: 2,
            head_dim: 8,
            ffn_dim: 32,
            vocab_size: 97,
            max_position: 64,
            type_vocab_size: 2,
            layer_norm_eps: 1e-6,
        }
    }

    /// Model (hidden) dimension.
    pub fn model_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// The shared layer-dimension record.
    pub fn dims(&self) -> EncoderDims {
        EncoderDims {
            heads: self.num_heads,
            head_dim: self.head_dim,
            ffn_dim: self.ffn_dim,
            eps: self.layer_norm_eps,
        }
    }
}

/// A BERT model: config + weights, plus the workspace [`Bert::forward`]
/// plans its activations in (its chunks persist across calls).
#[derive(Debug)]
pub struct Bert {
    /// Hyper-parameters.
    pub config: BertConfig,
    store: WeightStore,
    word_emb: usize,
    pos_emb: usize,
    emb_ln_gamma: usize,
    emb_ln_beta: usize,
    layers: Vec<EncoderLayerWeights>,
    workspace: Mutex<Workspace>,
}

impl Bert {
    /// Build a BERT with seeded random weights.
    pub fn new_random(config: &BertConfig, seed: u64) -> Self {
        let mut store = WeightStore::new();
        let mut init = WeightInit::new(seed);
        let h = config.model_dim();
        let word_emb = store.push(init.embedding(config.vocab_size, h));
        let pos_emb = store.push(init.embedding(config.max_position, h));
        let emb_ln_gamma = store.push(init.gamma(h));
        let emb_ln_beta = store.push(init.beta(h));
        let dims = config.dims();
        let layers = (0..config.num_layers)
            .map(|_| EncoderLayerWeights::create(&mut store, &mut init, &dims))
            .collect();
        Bert {
            config: config.clone(),
            store,
            word_emb,
            pos_emb,
            emb_ln_gamma,
            emb_ln_beta,
            layers,
            workspace: Mutex::default(),
        }
    }

    /// The weight store (for graph execution).
    pub fn weights(&self) -> &WeightStore {
        &self.store
    }

    /// Rebuild a model around an existing weight store (checkpoint loading).
    /// The store must have been produced by a model of the same config —
    /// tensor count and key shapes are validated.
    pub fn from_store(config: &BertConfig, store: WeightStore) -> Result<Self, String> {
        let expected = 4 + 16 * config.num_layers;
        if store.len() != expected {
            return Err(format!("store has {} tensors, config needs {expected}", store.len()));
        }
        let h = config.model_dim();
        let check = |idx: usize, dims: &[usize], what: &str| -> Result<(), String> {
            let got = store.get(idx).shape().dims().to_vec();
            if got != dims {
                return Err(format!("{what} has shape {got:?}, expected {dims:?}"));
            }
            Ok(())
        };
        check(0, &[config.vocab_size, h], "word embedding")?;
        check(1, &[config.max_position, h], "position embedding")?;
        let mut next = 4usize;
        let layers: Vec<EncoderLayerWeights> =
            (0..config.num_layers).map(|_| EncoderLayerWeights::fabricate(&mut next)).collect();
        for (i, lw) in layers.iter().enumerate() {
            check(lw.wq, &[h, h], &format!("layer {i} wq"))?;
            check(lw.w1, &[h, config.ffn_dim], &format!("layer {i} ffn w1"))?;
            check(lw.ln2_beta, &[h], &format!("layer {i} ln2 beta"))?;
        }
        Ok(Bert {
            config: config.clone(),
            store,
            word_emb: 0,
            pos_emb: 1,
            emb_ln_gamma: 2,
            emb_ln_beta: 3,
            layers,
            workspace: Mutex::default(),
        })
    }

    /// Total parameter bytes.
    pub fn param_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Attach int8 sidecars to every encoder GEMM weight (`[k, n]` layout).
    /// The interpreter then routes those MatMuls through `sgemm_q8`;
    /// embeddings and LayerNorm parameters stay f32.
    pub fn quantize_int8(&mut self) {
        for i in 0..self.layers.len() {
            let lw = self.layers[i];
            for w in [lw.wq, lw.wk, lw.wv, lw.wo, lw.w1, lw.w2] {
                self.store.quantize(w, tt_tensor::Trans::No);
            }
        }
    }

    /// Eager forward pass: `ids` is `[batch, seq]` (f32-encoded token ids),
    /// `mask` an optional `[batch, seq]` additive attention mask. Returns
    /// the final hidden states `[batch, seq, hidden]`.
    pub fn forward(&self, ids: &Tensor, mask: Option<&Tensor>) -> Tensor {
        let (batch, seq) = (ids.shape().dim(0), ids.shape().dim(1));
        let h = self.config.model_dim();
        let ids_u32: Vec<u32> = ids.as_slice().iter().map(|&v| v as u32).collect();

        let mut x = vec![0.0f32; batch * seq * h];
        k::embed(
            batch,
            seq,
            h,
            &ids_u32,
            self.store.get(self.word_emb).as_slice(),
            self.store.get(self.pos_emb).as_slice(),
            None,
            &mut x,
        );
        let mut normed = vec![0.0f32; x.len()];
        k::layer_norm(
            batch * seq,
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
        // One fused-program compilation serves every layer: each call
        // rebinds the weight slots to that layer's store indices.
        let prog = encoder_layer_program(&dims, batch, seq, mask_slice.is_some());
        // A forward that panicked mid-run leaves the workspace valid: every
        // run re-plans, and writes each activation before reading it.
        let mut ws = self.workspace.lock().unwrap_or_else(PoisonError::into_inner);
        for lw in &self.layers {
            layer_forward_with(&prog, &self.store, lw, &mut x, mask_slice, &mut ws);
        }
        Tensor::from_vec([batch, seq, h], x).expect("sized by construction")
    }

    /// Compile the whole model for a `(batch, seq)` problem into one fused
    /// program bound to this model's weights. Inputs are the `[batch, seq]`
    /// f32 token ids, then (with `masked`, required for padded batches) the
    /// additive attention mask; the one output is the final hidden states.
    pub fn build_graph(&self, batch: usize, seq: usize, masked: bool) -> BoundProgram {
        build_bert_graph(
            &self.config,
            self.word_emb,
            self.pos_emb,
            self.emb_ln_gamma,
            self.emb_ln_beta,
            &self.layers,
            batch,
            seq,
            masked,
        )
    }
}

/// Build the BERT graph *skeleton* — identical structure and shapes to
/// [`Bert::build_graph`] but with fabricated weight indices and no weight
/// store. Used for shape/cost analysis (e.g. the serving framework's
/// `cached_cost` warm-up) where initializing 400 MB of parameters would be
/// pure waste.
pub fn graph_skeleton(config: &BertConfig, batch: usize, seq: usize, masked: bool) -> BoundProgram {
    let mut next = 4usize; // 0..4 are the embedding-side weights
    let layers: Vec<EncoderLayerWeights> =
        (0..config.num_layers).map(|_| EncoderLayerWeights::fabricate(&mut next)).collect();
    build_bert_graph(config, 0, 1, 2, 3, &layers, batch, seq, masked)
}

/// Shared graph builder over explicit weight indices.
#[allow(clippy::too_many_arguments)]
fn build_bert_graph(
    config: &BertConfig,
    word_emb: usize,
    pos_emb: usize,
    emb_ln_gamma: usize,
    emb_ln_beta: usize,
    layers: &[EncoderLayerWeights],
    batch: usize,
    seq: usize,
    masked: bool,
) -> BoundProgram {
    {
        assert!(seq <= config.max_position, "seq {seq} exceeds position table");
        let mut g = Graph::new();
        let mut bindings = Vec::new();
        let h = config.model_dim();

        let ids = g.add_tensor("ids", vec![batch, seq], TensorClass::Input);
        let mask = masked.then(|| g.add_tensor("mask", vec![batch, seq], TensorClass::Input));

        let word = g.add_tensor("word_emb", vec![config.vocab_size, h], TensorClass::Weight);
        bindings.push((word, word_emb));
        let pos = g.add_tensor("pos_emb", vec![config.max_position, h], TensorClass::Weight);
        bindings.push((pos, pos_emb));
        let gamma = g.add_tensor("emb_ln_gamma", vec![h], TensorClass::Weight);
        bindings.push((gamma, emb_ln_gamma));
        let beta = g.add_tensor("emb_ln_beta", vec![h], TensorClass::Weight);
        bindings.push((beta, emb_ln_beta));

        let emb = g.add_tensor("emb", vec![batch, seq, h], TensorClass::Activation);
        g.add_node(OpKind::Embedding, vec![ids, word, pos], emb);
        let mut x = g.add_tensor("emb_normed", vec![batch, seq, h], TensorClass::Activation);
        g.add_node(OpKind::LayerNorm { eps: config.layer_norm_eps }, vec![emb, gamma, beta], x);

        let dims = config.dims();
        for (i, lw) in layers.iter().enumerate() {
            let prefix = format!("layer{i}");
            let w = declare_layer_weights(&mut g, &mut bindings, lw, &dims, &prefix);
            x = emit_layer(&mut g, &w, &dims, batch, seq, x, mask, &prefix);
        }
        // Mark the last activation as the output.
        g.tensors[x].class = TensorClass::Output;
        g.tensors[x].name = "encoder_output".into();

        // Emission above is fine-grained; compiling runs the fusion pass
        // (weights/inputs/outputs survive it by name).
        let inputs: Vec<_> = std::iter::once(ids).chain(mask).collect();
        BoundProgram::compile(&g, &bindings, &inputs, &[x])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ids_batch, pad_batch};

    #[test]
    fn forward_shapes_and_determinism() {
        let cfg = BertConfig::tiny();
        let m1 = Bert::new_random(&cfg, 5);
        let m2 = Bert::new_random(&cfg, 5);
        let ids = ids_batch(&[&[1, 2, 3, 4, 5]]);
        let out1 = m1.forward(&ids, None);
        let out2 = m2.forward(&ids, None);
        assert_eq!(out1.shape().dims(), &[1, 5, cfg.model_dim()]);
        assert_eq!(out1, out2, "same seed, same output");
    }

    #[test]
    fn variable_lengths_work_without_retuning() {
        // The variable-length headline: the same model serves any length.
        let cfg = BertConfig::tiny();
        let m = Bert::new_random(&cfg, 9);
        for len in [1usize, 3, 17, 40] {
            let row: Vec<u32> = (0..len as u32).collect();
            let out = m.forward(&ids_batch(&[&row]), None);
            assert_eq!(out.shape().dims(), &[1, len, cfg.model_dim()]);
            assert!(out.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn padding_with_mask_preserves_valid_outputs() {
        let cfg = BertConfig::tiny();
        let m = Bert::new_random(&cfg, 11);
        let short: &[u32] = &[5, 6, 7];
        let long: &[u32] = &[8, 9, 10, 11, 12];

        let alone = m.forward(&ids_batch(&[short]), None);
        let (ids, mask, max_len) = pad_batch(&[short, long]);
        let batched = m.forward(&ids, Some(&mask));
        assert_eq!(max_len, 5);

        let h = cfg.model_dim();
        for s in 0..short.len() {
            for d in 0..h {
                let a = alone.get(&[0, s, d]);
                let b = batched.get(&[0, s, d]);
                assert!(
                    (a - b).abs() < 2e-3,
                    "padded batch must match standalone at [{s},{d}]: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn graph_matches_architecture() {
        let cfg = BertConfig::tiny();
        let m = Bert::new_random(&cfg, 1);
        let bg = m.build_graph(2, 7, true);
        let stats = bg.graph.stats();
        assert_eq!(stats.gemm_nodes, 8 * cfg.num_layers);
        assert_eq!(stats.nodes, 2 + 16 * cfg.num_layers);
        assert_eq!(bg.weights.len(), 4 + 16 * cfg.num_layers);
        assert_eq!(bg.weight_slot_count(), bg.weights.len());
        let inputs = bg.graph.tensors.iter().filter(|t| t.class == TensorClass::Input).count();
        assert_eq!(inputs, 2);
        bg.graph.topo_order();
    }

    #[test]
    fn base_config_matches_paper_sizes() {
        let cfg = BertConfig::base();
        assert_eq!(cfg.model_dim(), 768);
        let m = Bert::new_random(&cfg, 0);
        // Paper §4.2: "93.76 MB embedding matrix" (30522 × 768 × 4 bytes).
        let emb_bytes = cfg.vocab_size * cfg.model_dim() * 4;
        assert_eq!(emb_bytes, 93_763_584);
        // ≈ 440 MB of model parameters overall (paper Fig. 7 text).
        let mb = m.param_bytes() as f64 / (1024.0 * 1024.0);
        assert!((300.0..520.0).contains(&mb), "BERT-base params ≈ 440 MB, got {mb:.1}");
    }

    #[test]
    #[should_panic(expected = "exceeds position table")]
    fn graph_rejects_over_length() {
        let cfg = BertConfig::tiny();
        let m = Bert::new_random(&cfg, 1);
        m.build_graph(1, cfg.max_position + 1, false);
    }
}
