//! A GPT-2-style decoder-only language model — one of the transformer
//! families the paper's introduction motivates ("Seq2seq, BERT, GPT2,
//! XLNet, ALBERT") and a natural extension of the reproduction: causal
//! self-attention with a KV cache, pre-LayerNorm residual blocks, and
//! greedy / top-k sampling generation.
//!
//! Architecturally this differs from the Seq2Seq decoder in two ways that
//! matter to the runtime: *pre*-LN (`x + attn(ln(x))`) changes the fusion
//! pattern (no bias+residual+LN epilogue), and there is no cross-attention,
//! so generation cost is pure self-attention + FFN.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tt_alloc::{KvError, KvSeq, PagedKvArena, PagedKvConfig, TurboAllocator, TurboConfig};
use tt_graph::{Graph, OpKind, TensorClass};
use tt_kernels as k;
use tt_tensor::Trans;

use crate::program::{ExecutorMetrics, Program, Workspace};
use crate::weights::{int8_enabled, WeightInit, WeightStore};

/// GPT hyper-parameters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GptConfig {
    /// Transformer blocks.
    pub num_layers: usize,
    /// Attention heads.
    pub num_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// FFN inner dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum context length.
    pub max_position: usize,
    /// LayerNorm epsilon.
    pub layer_norm_eps: f32,
}

impl GptConfig {
    /// GPT-2 small: 12 layers, 12 heads, model dim 768.
    pub fn small() -> Self {
        GptConfig {
            num_layers: 12,
            num_heads: 12,
            head_dim: 64,
            ffn_dim: 3072,
            vocab_size: 50257,
            max_position: 1024,
            layer_norm_eps: 1e-5,
        }
    }

    /// Small test config.
    pub fn tiny() -> Self {
        GptConfig {
            num_layers: 2,
            num_heads: 2,
            head_dim: 4,
            ffn_dim: 16,
            vocab_size: 41,
            max_position: 32,
            layer_norm_eps: 1e-5,
        }
    }

    /// Model (hidden) dimension.
    pub fn model_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }
}

/// One block's weight indices.
#[derive(Debug, Clone, Copy)]
struct BlockWeights {
    ln1_gamma: usize,
    ln1_beta: usize,
    wq: usize,
    bq: usize,
    wk: usize,
    bk: usize,
    wv: usize,
    bv: usize,
    wo: usize,
    bo: usize,
    ln2_gamma: usize,
    ln2_beta: usize,
    w1: usize,
    b1: usize,
    w2: usize,
    b2: usize,
}

impl BlockWeights {
    fn create(store: &mut WeightStore, init: &mut WeightInit, h: usize, ffn: usize) -> Self {
        BlockWeights {
            ln1_gamma: store.push(init.gamma(h)),
            ln1_beta: store.push(init.beta(h)),
            wq: store.push(init.linear(h, h)),
            bq: store.push(init.bias(h)),
            wk: store.push(init.linear(h, h)),
            bk: store.push(init.bias(h)),
            wv: store.push(init.linear(h, h)),
            bv: store.push(init.bias(h)),
            wo: store.push(init.linear(h, h)),
            bo: store.push(init.bias(h)),
            ln2_gamma: store.push(init.gamma(h)),
            ln2_beta: store.push(init.beta(h)),
            w1: store.push(init.linear(h, ffn)),
            b1: store.push(init.bias(ffn)),
            w2: store.push(init.linear(ffn, h)),
            b2: store.push(init.bias(h)),
        }
    }
}

/// Per-layer KV cache, layout `[head][t][dim]` (single sequence).
#[derive(Debug, Clone, Default)]
struct Cache {
    k: Vec<f32>,
    v: Vec<f32>,
}

/// Incremental generation state.
#[derive(Debug, Clone)]
pub struct GptState {
    steps: usize,
    caches: Vec<Cache>,
}

impl GptState {
    /// Tokens consumed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// P1 — `ln1(x)` projected to Q, K, V for one token (m = 1). The AddBias
/// outputs are program outputs, so the pass correctly leaves them unfused.
fn compile_qkv_program(h: usize, eps: f32) -> Program {
    let mut g = Graph::new();
    let x = g.add_tensor("x", vec![1, h], TensorClass::Input);
    let gamma = g.add_tensor("ln1_gamma", vec![h], TensorClass::Weight);
    let beta = g.add_tensor("ln1_beta", vec![h], TensorClass::Weight);
    let normed = g.add_tensor("normed", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::LayerNorm { eps }, vec![x, gamma, beta], normed);
    let mut weights = vec![gamma, beta];
    let mut outs = Vec::new();
    for name in ["q", "k", "v"] {
        let w = g.add_tensor(format!("w{name}"), vec![h, h], TensorClass::Weight);
        let b = g.add_tensor(format!("b{name}"), vec![h], TensorClass::Weight);
        let raw = g.add_tensor(format!("{name}_raw"), vec![1, h], TensorClass::Activation);
        let out = g.add_tensor(name, vec![1, h], TensorClass::Output);
        g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![normed, w], raw);
        g.add_node(OpKind::AddBias, vec![raw, b], out);
        weights.extend([w, b]);
        outs.push(out);
    }
    Program::compile(&g, &weights, &[x], &outs)
}

/// P2 — everything after attention: output projection, first residual, and
/// the FFN with its residual. Pre-LN means the first residual's output has
/// *two* consumers (`ln2` and the final residual), so the pass must *not*
/// emit AddBiasResidualLayerNorm here — only the FFN's bias+GELU fuses.
fn compile_post_program(h: usize, ffn: usize, eps: f32) -> Program {
    let mut g = Graph::new();
    let attn = g.add_tensor("attn", vec![1, h], TensorClass::Input);
    let x = g.add_tensor("x", vec![1, h], TensorClass::Input);
    let wo = g.add_tensor("wo", vec![h, h], TensorClass::Weight);
    let bo = g.add_tensor("bo", vec![h], TensorClass::Weight);
    let gamma = g.add_tensor("ln2_gamma", vec![h], TensorClass::Weight);
    let beta = g.add_tensor("ln2_beta", vec![h], TensorClass::Weight);
    let w1 = g.add_tensor("w1", vec![h, ffn], TensorClass::Weight);
    let b1 = g.add_tensor("b1", vec![ffn], TensorClass::Weight);
    let w2 = g.add_tensor("w2", vec![ffn, h], TensorClass::Weight);
    let b2 = g.add_tensor("b2", vec![h], TensorClass::Weight);

    let o_raw = g.add_tensor("o_raw", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![attn, wo], o_raw);
    let o = g.add_tensor("o", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::AddBias, vec![o_raw, bo], o);
    let x1 = g.add_tensor("x1", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::Residual, vec![o, x], x1);
    let n2 = g.add_tensor("n2", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::LayerNorm { eps }, vec![x1, gamma, beta], n2);
    let i_raw = g.add_tensor("ffn_raw", vec![1, ffn], TensorClass::Activation);
    g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![n2, w1], i_raw);
    let i_bias = g.add_tensor("ffn_bias", vec![1, ffn], TensorClass::Activation);
    g.add_node(OpKind::AddBias, vec![i_raw, b1], i_bias);
    let i_act = g.add_tensor("ffn_act", vec![1, ffn], TensorClass::Activation);
    g.add_node(OpKind::Gelu, vec![i_bias], i_act);
    let f_raw = g.add_tensor("f_raw", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::MatMul { trans_b: false, alpha: 1.0 }, vec![i_act, w2], f_raw);
    let f = g.add_tensor("f", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::AddBias, vec![f_raw, b2], f);
    let y = g.add_tensor("y", vec![1, h], TensorClass::Output);
    g.add_node(OpKind::Residual, vec![f, x1], y);
    Program::compile(&g, &[wo, bo, gamma, beta, w1, b1, w2, b2], &[attn, x], &[y])
}

/// P3 — final LayerNorm + tied-embedding projection. The `trans_b` GEMM
/// over `tok_emb` `[vocab, h]` replaces the old scalar vocab loop: it rides
/// the dispatched dot kernel, and the int8 sidecar when quantized.
fn compile_lm_program(h: usize, vocab: usize, eps: f32) -> Program {
    let mut g = Graph::new();
    let x = g.add_tensor("x", vec![1, h], TensorClass::Input);
    let gamma = g.add_tensor("ln_f_gamma", vec![h], TensorClass::Weight);
    let beta = g.add_tensor("ln_f_beta", vec![h], TensorClass::Weight);
    let emb = g.add_tensor("tok_emb", vec![vocab, h], TensorClass::Weight);
    let normed = g.add_tensor("final_normed", vec![1, h], TensorClass::Activation);
    g.add_node(OpKind::LayerNorm { eps }, vec![x, gamma, beta], normed);
    let logits = g.add_tensor("logits", vec![1, vocab], TensorClass::Output);
    g.add_node(OpKind::MatMul { trans_b: true, alpha: 1.0 }, vec![normed, emb], logits);
    Program::compile(&g, &[gamma, beta, emb], &[x], &[logits])
}

/// The model. Its decode-step programs all run in one workspace, planned
/// per program by the turbo allocator; after the first step every plan is
/// served from the cached chunks.
#[derive(Debug)]
pub struct Gpt {
    /// Hyper-parameters.
    pub config: GptConfig,
    store: WeightStore,
    tok_emb: usize,
    pos_emb: usize,
    blocks: Vec<BlockWeights>,
    p_qkv: Program,
    p_post: Program,
    p_lm: Program,
    qkv_tables: Vec<Vec<usize>>,
    post_tables: Vec<Vec<usize>>,
    lm_table: Vec<usize>,
    workspace: Mutex<Workspace>,
}

impl Gpt {
    /// Build a GPT with seeded random weights. Decode-step programs are
    /// compiled once here (m = 1 shapes are fixed), and if `TT_GEMM_INT8`
    /// is set the weight GEMM operands get int8 sidecars immediately.
    pub fn new_random(config: &GptConfig, seed: u64) -> Self {
        let mut store = WeightStore::new();
        let mut init = WeightInit::new(seed);
        let h = config.model_dim();
        let tok_emb = store.push(init.embedding(config.vocab_size, h));
        let pos_emb = store.push(init.embedding(config.max_position, h));
        let ln_f_gamma = store.push(init.gamma(h));
        let ln_f_beta = store.push(init.beta(h));
        let blocks: Vec<BlockWeights> = (0..config.num_layers)
            .map(|_| BlockWeights::create(&mut store, &mut init, h, config.ffn_dim))
            .collect();
        let qkv_tables = blocks
            .iter()
            .map(|b| vec![b.ln1_gamma, b.ln1_beta, b.wq, b.bq, b.wk, b.bk, b.wv, b.bv])
            .collect();
        let post_tables = blocks
            .iter()
            .map(|b| vec![b.wo, b.bo, b.ln2_gamma, b.ln2_beta, b.w1, b.b1, b.w2, b.b2])
            .collect();
        let p_qkv = compile_qkv_program(h, config.layer_norm_eps);
        let p_post = compile_post_program(h, config.ffn_dim, config.layer_norm_eps);
        let p_lm = compile_lm_program(h, config.vocab_size, config.layer_norm_eps);
        // A decode step places a few KB of m = 1 activations: one chunk
        // sized to the largest program holds every plan, where the
        // allocator's 2 MB default would only cost page faults.
        let chunk = [&p_qkv, &p_post, &p_lm].map(|p| p.activation_bytes()).into_iter().max();
        let allocator = TurboAllocator::new(TurboConfig {
            default_chunk_size: chunk.expect("three programs"),
            ..TurboConfig::default()
        });
        let mut gpt = Gpt {
            config: config.clone(),
            store,
            tok_emb,
            pos_emb,
            blocks,
            p_qkv,
            p_post,
            p_lm,
            qkv_tables,
            post_tables,
            lm_table: vec![ln_f_gamma, ln_f_beta, tok_emb],
            workspace: Mutex::new(Workspace { allocator, ..Workspace::default() }),
        };
        if int8_enabled() {
            gpt.quantize_int8();
        }
        gpt
    }

    /// Total parameter bytes.
    pub fn param_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Attach int8 sidecars (per-output-channel scales, f32 accumulate) to
    /// every 2-D weight GEMM operand: the six projection matrices per block
    /// and the tied-embedding lm head. Decode-step GEMVs then move a
    /// quarter of the weight bytes. Biases and LayerNorm parameters stay
    /// f32 — they are O(h), not worth the accuracy cost.
    pub fn quantize_int8(&mut self) {
        for i in 0..self.blocks.len() {
            let bw = self.blocks[i];
            for w in [bw.wq, bw.wk, bw.wv, bw.wo, bw.w1, bw.w2] {
                self.store.quantize(w, Trans::No);
            }
        }
        self.store.quantize(self.tok_emb, Trans::Yes);
    }

    /// Time every op of every subsequent step into `metrics` (the
    /// `executor_op_nanoseconds{op}` family the encoder runtime reports
    /// into). Decode steps record no spans.
    pub fn attach_metrics(&mut self, metrics: ExecutorMetrics) {
        self.workspace.get_mut().unwrap_or_else(PoisonError::into_inner).metrics = Some(metrics);
    }

    /// True once [`quantize_int8`](Self::quantize_int8) has run.
    pub fn is_quantized(&self) -> bool {
        self.store.quantized_count() > 0
    }

    /// Switch between the fused programs and their decomposed (fine-grained)
    /// twins. `set_fused(false)` is the numerical reference for the
    /// fused/unfused identity tests and the un-fused benchmark baseline.
    pub fn set_fused(&mut self, fused: bool) {
        if fused {
            let cfg = &self.config;
            let h = cfg.model_dim();
            self.p_qkv = compile_qkv_program(h, cfg.layer_norm_eps);
            self.p_post = compile_post_program(h, cfg.ffn_dim, cfg.layer_norm_eps);
            self.p_lm = compile_lm_program(h, cfg.vocab_size, cfg.layer_norm_eps);
        } else {
            self.p_qkv = self.p_qkv.decomposed();
            self.p_post = self.p_post.decomposed();
            self.p_lm = self.p_lm.decomposed();
        }
    }

    /// Fused kernels issued per decode step (all layers + lm head).
    pub fn fused_ops_per_step(&self) -> usize {
        self.config.num_layers * (self.p_qkv.fused_ops() + self.p_post.fused_ops())
            + self.p_lm.fused_ops()
    }

    /// Memory-bound passes the fusion pass removed per decode step.
    pub fn elided_passes_per_step(&self) -> usize {
        self.config.num_layers * (self.p_qkv.elided_passes() + self.p_post.elided_passes())
            + self.p_lm.elided_passes()
    }

    /// Fresh generation state.
    pub fn init_state(&self) -> GptState {
        GptState { steps: 0, caches: vec![Cache::default(); self.blocks.len()] }
    }

    /// Token + position embedding for one token at position `t`.
    fn embed(&self, token: u32, t: usize) -> Vec<f32> {
        let cfg = &self.config;
        let h = cfg.model_dim();
        assert!(t < cfg.max_position, "context length exceeded");
        assert!((token as usize) < cfg.vocab_size, "token id out of vocabulary");
        let tok = self.store.get(self.tok_emb).as_slice();
        let pos = self.store.get(self.pos_emb).as_slice();
        (0..h).map(|i| tok[token as usize * h + i] + pos[t * h + i]).collect()
    }

    /// Pre-LN attention input: `ln1(x)` projected to Q, K, V — each laid
    /// out `[head][head_dim]` contiguously. Runs the compiled P1 program.
    fn qkv(&self, ws: &mut Workspace, li: usize, x: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut outs = self.p_qkv.run(&self.store, &self.qkv_tables[li], &[x], ws);
        let v = outs.pop().expect("v output");
        let kk = outs.pop().expect("k output");
        let q = outs.pop().expect("q output");
        (q, kk, v)
    }

    /// Everything after attention for block `li`: output projection +
    /// residual, then the pre-LN FFN + residual (compiled P2 program).
    fn post_attn_ffn(&self, ws: &mut Workspace, li: usize, attn: &[f32], x: &[f32]) -> Vec<f32> {
        let mut outs = self.p_post.run(&self.store, &self.post_tables[li], &[attn, x], ws);
        outs.pop().expect("block output")
    }

    /// Final LN + tied-embedding projection (GPT-2 ties output weights to
    /// the token embedding) — compiled P3 program, whose `trans_b` GEMM
    /// takes the dispatched dot/int8 path instead of a scalar vocab loop.
    fn lm_logits(&self, ws: &mut Workspace, x: &[f32]) -> Vec<f32> {
        self.p_lm.run(&self.store, &self.lm_table, &[x], ws).pop().expect("logits output")
    }

    /// The decode workspace (one step at a time per model). A step that
    /// panicked mid-run leaves it valid: every run re-plans, and writes
    /// each activation before reading it.
    fn workspace(&self) -> std::sync::MutexGuard<'_, Workspace> {
        self.workspace.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Feed one token; returns the `[vocab]` logits for the next position
    /// and grows the KV caches.
    pub fn step(&self, state: &mut GptState, token: u32) -> Vec<f32> {
        let cfg = &self.config;
        let h = cfg.model_dim();
        let (heads, d) = (cfg.num_heads, cfg.head_dim);
        let t = state.steps;
        let mut x = self.embed(token, t);
        let mut ws = self.workspace();

        let scale = 1.0 / (d as f32).sqrt();
        for li in 0..self.blocks.len() {
            // Pre-LN attention: x += attn(ln1(x)).
            let (q, knew, vnew) = self.qkv(&mut ws, li, &x);

            // Grow the cache to [head][t+1][d].
            let cache = &mut state.caches[li];
            let new_len = t + 1;
            let mut gk = vec![0.0f32; heads * new_len * d];
            let mut gv = vec![0.0f32; heads * new_len * d];
            for hd in 0..heads {
                gk[hd * new_len * d..hd * new_len * d + t * d]
                    .copy_from_slice(&cache.k[hd * t * d..(hd * t + t) * d]);
                gv[hd * new_len * d..hd * new_len * d + t * d]
                    .copy_from_slice(&cache.v[hd * t * d..(hd * t + t) * d]);
                gk[hd * new_len * d + t * d..hd * new_len * d + new_len * d]
                    .copy_from_slice(&knew[hd * d..(hd + 1) * d]);
                gv[hd * new_len * d + t * d..hd * new_len * d + new_len * d]
                    .copy_from_slice(&vnew[hd * d..(hd + 1) * d]);
            }
            cache.k = gk;
            cache.v = gv;

            // Causal attention over the cache (query attends to ≤ t).
            let mut attn = vec![0.0f32; h];
            let mut probs = vec![0.0f32; new_len];
            for hd in 0..heads {
                let qv = &q[hd * d..(hd + 1) * d];
                let base = hd * new_len * d;
                for (tt, p) in probs.iter_mut().enumerate() {
                    let kv = &cache.k[base + tt * d..base + (tt + 1) * d];
                    *p = qv.iter().zip(kv).map(|(a, b)| a * b).sum::<f32>() * scale;
                }
                k::softmax_rows(1, new_len, &mut probs);
                let dst = &mut attn[hd * d..(hd + 1) * d];
                for (tt, &p) in probs.iter().enumerate() {
                    let vv = &cache.v[base + tt * d..base + (tt + 1) * d];
                    for (o, &val) in dst.iter_mut().zip(vv) {
                        *o += p * val;
                    }
                }
            }
            // Output projection + residual, then pre-LN FFN + residual —
            // one compiled program (the bias+GELU fuses in the pass).
            x = self.post_attn_ffn(&mut ws, li, &attn, &x);
        }
        state.steps += 1;
        self.lm_logits(&mut ws, &x)
    }

    /// The [`PagedKvConfig`] matching this model's shape: an arena built
    /// from it accepts [`step_paged`](Self::step_paged) for this model.
    pub fn kv_config(&self, page_slots: usize, num_pages: usize) -> PagedKvConfig {
        PagedKvConfig {
            layers: self.config.num_layers,
            heads: self.config.num_heads,
            head_dim: self.config.head_dim,
            page_slots,
            num_pages,
        }
    }

    /// Feed one token of sequence `seq`, reading and growing its KV cache
    /// in the paged arena instead of a private [`GptState`]. The token's
    /// position is the sequence's current cache length, so interleaving
    /// steps of different sequences is safe — this is the decode step of
    /// the continuous-batching engine.
    ///
    /// Errors are typed and recoverable at the serving layer:
    /// [`KvError::OutOfPages`] means the arena (or the `kv_alloc_fail`
    /// chaos point) refused the next slot *before* any state changed.
    /// On any error the caller should release the sequence; its pages are
    /// reclaimed in full.
    pub fn step_paged(
        &self,
        arena: &mut PagedKvArena,
        seq: KvSeq,
        token: u32,
    ) -> Result<Vec<f32>, KvError> {
        let cfg = &self.config;
        let h = cfg.model_dim();
        let (heads, d) = (cfg.num_heads, cfg.head_dim);
        debug_assert_eq!(arena.config().layers, cfg.num_layers, "arena shape mismatch");
        debug_assert_eq!(arena.config().slot_floats(), h, "arena shape mismatch");
        let pos = arena.append(seq)?;
        let mut x = self.embed(token, pos);
        let mut ws = self.workspace();

        let scale = 1.0 / (d as f32).sqrt();
        for li in 0..self.blocks.len() {
            // Pre-LN attention: x += attn(ln1(x)), K/V through the page table.
            let (q, knew, vnew) = self.qkv(&mut ws, li, &x);
            arena.write(seq, li, pos, &knew, &vnew)?;

            let mut attn = vec![0.0f32; h];
            let mut probs = vec![0.0f32; pos + 1];
            for hd in 0..heads {
                let qv = &q[hd * d..(hd + 1) * d];
                for (tt, p) in probs.iter_mut().enumerate() {
                    let (kt, _) = arena.kv_at(seq, li, tt)?;
                    let kh = &kt[hd * d..(hd + 1) * d];
                    *p = qv.iter().zip(kh).map(|(a, b)| a * b).sum::<f32>() * scale;
                }
                k::softmax_rows(1, pos + 1, &mut probs);
                for (tt, &p) in probs.iter().enumerate() {
                    let (_, vt) = arena.kv_at(seq, li, tt)?;
                    let vh = &vt[hd * d..(hd + 1) * d];
                    let dst = &mut attn[hd * d..(hd + 1) * d];
                    for (o, &val) in dst.iter_mut().zip(vh) {
                        *o += p * val;
                    }
                }
            }
            // Output projection + residual, then pre-LN FFN + residual.
            x = self.post_attn_ffn(&mut ws, li, &attn, &x);
        }
        Ok(self.lm_logits(&mut ws, &x))
    }

    /// Run the whole prompt through [`step_paged`](Self::step_paged),
    /// returning the logits after the final prompt token (the first
    /// decode distribution). The sequence must be freshly admitted.
    pub fn prefill_paged(
        &self,
        arena: &mut PagedKvArena,
        seq: KvSeq,
        prompt: &[u32],
    ) -> Result<Vec<f32>, KvError> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let mut logits = Vec::new();
        for &tok in prompt {
            logits = self.step_paged(arena, seq, tok)?;
        }
        Ok(logits)
    }

    /// Greedy generation: feed the prompt, then extend by `n` tokens.
    pub fn generate_greedy(&self, prompt: &[u32], n: usize) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let mut state = self.init_state();
        let mut logits = Vec::new();
        for &tok in prompt {
            logits = self.step(&mut state, tok);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = tt_tensor::ops::argmax(&logits).expect("non-empty vocab") as u32;
            out.push(next);
            if state.steps() >= self.config.max_position {
                break;
            }
            logits = self.step(&mut state, next);
        }
        out
    }

    /// Top-k sampling generation with a seeded RNG.
    pub fn generate_top_k(&self, prompt: &[u32], n: usize, k_top: usize, seed: u64) -> Vec<u32> {
        assert!(!prompt.is_empty() && k_top >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = self.init_state();
        let mut logits = Vec::new();
        for &tok in prompt {
            logits = self.step(&mut state, tok);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            // Softmax over the top-k logits only.
            let mut idx: Vec<usize> = (0..logits.len()).collect();
            idx.sort_by(|&a, &b| logits[b].partial_cmp(&logits[a]).expect("finite logits"));
            idx.truncate(k_top);
            let max = logits[idx[0]];
            let weights: Vec<f32> = idx.iter().map(|&i| (logits[i] - max).exp()).collect();
            let total: f32 = weights.iter().sum();
            let mut r = rng.random_range(0.0..total);
            let mut chosen = idx[0];
            for (&i, &w) in idx.iter().zip(&weights) {
                if r < w {
                    chosen = i;
                    break;
                }
                r -= w;
            }
            out.push(chosen as u32);
            if state.steps() >= self.config.max_position {
                break;
            }
            logits = self.step(&mut state, chosen as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_produces_vocab_logits() {
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 17);
        let mut st = m.init_state();
        let logits = m.step(&mut st, 3);
        assert_eq!(logits.len(), cfg.vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
        assert_eq!(st.steps(), 1);
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 18);
        let a = m.generate_greedy(&[1, 2, 3], 6);
        let b = m.generate_greedy(&[1, 2, 3], 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&t| (t as usize) < cfg.vocab_size));
    }

    #[test]
    fn different_prompts_diverge() {
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 19);
        let a = m.generate_greedy(&[1, 2, 3], 5);
        let b = m.generate_greedy(&[30, 31, 32], 5);
        // Random weights: overwhelmingly likely to differ; equality would
        // indicate the prompt is being ignored (e.g. a cache bug).
        assert_ne!(a, b);
    }

    #[test]
    fn cache_matches_full_recompute() {
        // Step-by-step KV-cached logits must equal recomputing the whole
        // prefix from scratch at each position.
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 20);
        let tokens = [4u32, 9, 13, 2];

        let mut st = m.init_state();
        let mut cached = Vec::new();
        for &t in &tokens {
            cached = m.step(&mut st, t);
        }

        let mut fresh = m.init_state();
        let mut recomputed = Vec::new();
        for &t in &tokens {
            recomputed = m.step(&mut fresh, t);
        }
        for (a, b) in cached.iter().zip(recomputed.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn top_k_sampling_is_seeded_and_bounded() {
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 21);
        let a = m.generate_top_k(&[5], 8, 3, 42);
        let b = m.generate_top_k(&[5], 8, 3, 42);
        assert_eq!(a, b, "same seed, same sample");
        let c = m.generate_top_k(&[5], 8, 3, 43);
        assert!(a != c || a.len() == c.len(), "different seeds may differ");
        assert!(a.iter().all(|&t| (t as usize) < cfg.vocab_size));
    }

    #[test]
    #[should_panic(expected = "context length exceeded")]
    fn context_overflow_panics() {
        let mut cfg = GptConfig::tiny();
        cfg.max_position = 3;
        let m = Gpt::new_random(&cfg, 22);
        let mut st = m.init_state();
        for _ in 0..4 {
            m.step(&mut st, 1);
        }
    }

    #[test]
    fn paged_decode_matches_unpaged_step() {
        // The paged path must be numerically identical to the private-cache
        // path at every position, including across page boundaries
        // (page_slots = 3 with 7 tokens crosses two).
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 23);
        let tokens = [4u32, 9, 13, 2, 7, 1, 22];
        let mut st = m.init_state();
        let mut arena = PagedKvArena::new(m.kv_config(3, 16));
        let seq = arena.admit(3).unwrap();
        for &t in &tokens {
            let unpaged = m.step(&mut st, t);
            let paged = m.step_paged(&mut arena, seq, t).unwrap();
            for (a, b) in unpaged.iter().zip(&paged) {
                assert!((a - b).abs() < 1e-6, "paged logits diverge: {a} vs {b}");
            }
        }
        assert_eq!(arena.len_of(seq).unwrap(), tokens.len());
    }

    #[test]
    fn interleaved_paged_sequences_do_not_crosstalk() {
        // Two sequences stepped turn-by-turn through one arena must each
        // match their own serial unpaged run.
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 24);
        let prompts = [[3u32, 17, 5, 9], [30u32, 2, 28, 11]];
        let mut arena = PagedKvArena::new(m.kv_config(2, 16));
        let seqs = [arena.admit(4).unwrap(), arena.admit(4).unwrap()];
        let mut states = [m.init_state(), m.init_state()];
        for (step, (t0, t1)) in prompts[0].iter().zip(&prompts[1]).enumerate() {
            let toks = [*t0, *t1];
            for i in 0..2 {
                let unpaged = m.step(&mut states[i], toks[i]);
                let paged = m.step_paged(&mut arena, seqs[i], toks[i]).unwrap();
                for (a, b) in unpaged.iter().zip(&paged) {
                    assert!((a - b).abs() < 1e-6, "seq {i} step {step}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn prefill_paged_returns_first_decode_logits() {
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 25);
        let prompt = [1u32, 2, 3];
        let mut st = m.init_state();
        let mut serial = Vec::new();
        for &t in &prompt {
            serial = m.step(&mut st, t);
        }
        let mut arena = PagedKvArena::new(m.kv_config(4, 8));
        let seq = arena.admit(prompt.len()).unwrap();
        let logits = m.prefill_paged(&mut arena, seq, &prompt).unwrap();
        for (a, b) in serial.iter().zip(&logits) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn paged_exhaustion_mid_decode_is_typed_and_recoverable() {
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 26);
        // 2 pages of 2 slots: the fifth token has nowhere to go.
        let mut arena = PagedKvArena::new(m.kv_config(2, 2));
        let seq = arena.admit(2).unwrap();
        for t in 0..4 {
            m.step_paged(&mut arena, seq, t).unwrap();
        }
        let err = m.step_paged(&mut arena, seq, 4).unwrap_err();
        assert!(matches!(err, tt_alloc::KvError::OutOfPages { .. }));
        assert_eq!(arena.release(seq).unwrap(), 2, "all pages come back");
        assert_eq!(arena.free_pages(), 2);
    }

    #[test]
    fn gpt2_small_has_expected_parameter_scale() {
        let m = Gpt::new_random(&GptConfig::small(), 1);
        let params = m.param_bytes() / 4;
        // GPT-2 small ≈ 124 M parameters (with tied output embedding).
        assert!((100_000_000..160_000_000).contains(&params), "params {params}");
    }

    #[test]
    fn programs_report_pre_ln_fusion_shape() {
        // Pre-LN blocks the bias+residual+LN epilogue (the first residual's
        // output feeds both ln2 and the final residual), so exactly one
        // fusion fires per block: the FFN's bias+GELU.
        let cfg = GptConfig::tiny();
        let m = Gpt::new_random(&cfg, 30);
        assert_eq!(m.p_qkv.fused_ops(), 0);
        assert_eq!(m.p_post.fused_ops(), 1);
        assert_eq!(m.p_post.elided_passes(), 1);
        assert_eq!(m.p_lm.fused_ops(), 0);
        let names = m.p_post.op_names().join(" ");
        assert!(names.contains("AddBiasGelu"), "bias+GELU must fuse: {names}");
        assert!(
            !names.contains("AddBiasResidualLayerNorm"),
            "pre-LN must not fuse the residual epilogue: {names}"
        );
        assert_eq!(m.fused_ops_per_step(), cfg.num_layers);
        assert_eq!(m.elided_passes_per_step(), cfg.num_layers);
    }

    #[test]
    fn fused_forward_matches_decomposed_within_1e5() {
        // e2e pin: fused programs vs their decomposed twins, over prefill
        // (paged) and several decode steps.
        let cfg = GptConfig::tiny();
        let fused = Gpt::new_random(&cfg, 31);
        let mut unfused = Gpt::new_random(&cfg, 31);
        unfused.set_fused(false);
        assert_eq!(unfused.fused_ops_per_step(), 0);
        // The decomposed twin executes every fine-grained pass again.
        assert_eq!(unfused.elided_passes_per_step(), 0);
        assert!(unfused.p_post.nodes() > fused.p_post.nodes());

        let prompt = [3u32, 17, 5, 9];
        let mut arena_f = PagedKvArena::new(fused.kv_config(2, 16));
        let mut arena_u = PagedKvArena::new(unfused.kv_config(2, 16));
        let sf = arena_f.admit(4).unwrap();
        let su = arena_u.admit(4).unwrap();
        let mut lf = fused.prefill_paged(&mut arena_f, sf, &prompt).unwrap();
        let mut lu = unfused.prefill_paged(&mut arena_u, su, &prompt).unwrap();
        for _ in 0..3 {
            for (a, b) in lf.iter().zip(&lu) {
                assert!((a - b).abs() < 1e-5, "fused {a} vs unfused {b}");
            }
            let next = tt_tensor::ops::argmax(&lf).unwrap() as u32;
            lf = fused.step_paged(&mut arena_f, sf, next).unwrap();
            lu = unfused.step_paged(&mut arena_u, su, next).unwrap();
        }
    }

    #[test]
    fn int8_decode_tracks_f32_within_documented_tolerance() {
        // Weight-only int8 with per-channel scales: per-GEMM relative error
        // ≤ 0.5/127 ≈ 0.4 % of the channel's max weight (see
        // docs/KERNELS.md). Through a 2-layer tiny model the logits stay
        // within 0.1 abs of f32 — and must actually differ (sidecar used).
        let cfg = GptConfig::tiny();
        let f32_model = Gpt::new_random(&cfg, 32);
        let mut q8_model = Gpt::new_random(&cfg, 32);
        q8_model.quantize_int8();
        assert!(q8_model.is_quantized());
        assert!(!f32_model.is_quantized());

        let tokens = [4u32, 9, 13, 2, 7];
        let mut st_f = f32_model.init_state();
        let mut st_q = q8_model.init_state();
        let mut max_diff = 0.0f32;
        for &t in &tokens {
            let lf = f32_model.step(&mut st_f, t);
            let lq = q8_model.step(&mut st_q, t);
            for (a, b) in lf.iter().zip(&lq) {
                max_diff = max_diff.max((a - b).abs());
            }
        }
        assert!(max_diff > 0.0, "quantized path must actually run");
        assert!(max_diff < 0.1, "int8 drift {max_diff} exceeds documented tolerance");
    }

    /// Greedy paged generation: prefill, then argmax-feed `n` tokens.
    fn paged_greedy(m: &Gpt, prompt: &[u32], n: usize) -> Vec<u32> {
        let mut arena = PagedKvArena::new(m.kv_config(16, 64));
        let seq = arena.admit(prompt.len()).unwrap();
        let mut logits = m.prefill_paged(&mut arena, seq, prompt).unwrap();
        let mut out = Vec::new();
        for _ in 0..n {
            let next = tt_tensor::ops::argmax(&logits).unwrap() as u32;
            out.push(next);
            logits = m.step_paged(&mut arena, seq, next).unwrap();
        }
        out
    }

    #[test]
    fn greedy_tokens_match_recorded_goldens() {
        // Recorded from the per-node-buffer interpreter this planned-arena
        // one replaced; any numeric drift in the shared interpreter shows
        // up here as a changed token.
        let tiny = Gpt::new_random(&GptConfig::tiny(), 7);
        let cases: [(&[u32], Vec<u32>); 2] = [
            (&[1, 2, 3], vec![8, 8, 28, 28, 28, 28, 27, 28, 28, 28, 30, 8, 15, 35, 15, 35]),
            (
                &[30, 4, 11, 9, 2],
                vec![
                    28, 35, 11, 28, 27, 27, 27, 22, 30, 11, 27, 28, 28, 27, 28, 28, 28, 28, 22, 30,
                ],
            ),
        ];
        for (prompt, want) in &cases {
            assert_eq!(&tiny.generate_greedy(prompt, want.len()), want);
            assert_eq!(&paged_greedy(&tiny, prompt, want.len()), want);
        }
        // The serving benchmark's decoder: 4 layers, 4×16 heads, FFN 256.
        let cfg = GptConfig {
            num_layers: 4,
            num_heads: 4,
            head_dim: 16,
            ffn_dim: 256,
            vocab_size: 512,
            max_position: 256,
            layer_norm_eps: 1e-5,
        };
        let m = Gpt::new_random(&cfg, 2024);
        let cases: [(&[u32], Vec<u32>); 2] = [
            (
                &[5, 17, 42, 8, 100, 300],
                vec![
                    383, 383, 383, 383, 383, 383, 383, 383, 383, 383, 56, 56, 56, 56, 56, 56, 383,
                    383, 396, 81, 81, 396, 396, 81, 396, 396, 81, 396, 396, 396, 81, 81,
                ],
            ),
            (
                &[511, 0, 256, 77],
                vec![
                    235, 235, 56, 56, 149, 149, 142, 149, 142, 149, 149, 419, 149, 149, 149, 142,
                    142, 149, 149, 149, 142, 419, 87, 149,
                ],
            ),
        ];
        for (prompt, want) in &cases {
            assert_eq!(&m.generate_greedy(prompt, want.len()), want);
            assert_eq!(&paged_greedy(&m, prompt, want.len()), want);
        }
    }

    #[test]
    fn decode_steps_after_the_first_allocate_nothing() {
        // Every program of every step plans into the model's workspace;
        // once the first step has sized its chunks, each later plan must be
        // served entirely from them (a reuse hit, zero new bytes).
        let m = Gpt::new_random(&GptConfig::tiny(), 27);
        let registry = tt_telemetry::Registry::new();
        m.workspace().allocator.attach_metrics(tt_alloc::AllocMetrics::register(&registry));
        let counter = |name: &str| registry.counter(name, "", &[]).get();
        let mut arena = PagedKvArena::new(m.kv_config(4, 16));
        let seq = arena.admit(1).unwrap();
        m.step_paged(&mut arena, seq, 3).unwrap();
        let first_bytes = counter("alloc_new_chunk_bytes_total");
        assert!(first_bytes > 0, "the first step sizes the chunks");
        let (plans, hits) = (counter("alloc_plans_total"), counter("alloc_reuse_hits_total"));
        let per_step = 2 * GptConfig::tiny().num_layers as u64 + 1;
        let mut st = m.init_state();
        for t in 0..12u32 {
            m.step_paged(&mut arena, seq, t % 40).unwrap();
            m.step(&mut st, t % 40);
        }
        assert_eq!(counter("alloc_plans_total") - plans, 24 * per_step);
        assert_eq!(counter("alloc_reuse_hits_total") - hits, 24 * per_step);
        assert_eq!(counter("alloc_new_chunk_bytes_total"), first_bytes);
    }

    #[test]
    fn quantization_preserves_greedy_argmax_on_tiny() {
        // Not guaranteed in general, but on this seeded tiny model the
        // int8 logit drift is far below the argmax margin — a regression
        // here means the scale scheme broke, not that the property is deep.
        let cfg = GptConfig::tiny();
        let a = Gpt::new_random(&cfg, 33).generate_greedy(&[1, 2, 3], 6);
        let mut q = Gpt::new_random(&cfg, 33);
        q.quantize_int8();
        let b = q.generate_greedy(&[1, 2, 3], 6);
        assert_eq!(a, b);
    }
}
