//! # tt-model — the transformer model zoo of the paper's evaluation
//!
//! Paper Table 3 evaluates three networks; all are built here from
//! `tt-kernels` + `tt-graph`:
//!
//! | model | paper parameters | here |
//! |---|---|---|
//! | BERT | 12 layers, 12 heads, head dim 64 | [`bert::Bert`] (BERT-base: model dim 768, FFN 3072) |
//! | ALBERT | 12 layers, 12 heads, head dim 64 | [`albert::Albert`] (cross-layer weight sharing + factorized embedding) |
//! | Seq2Seq decoder | 6 layers, 16 heads, head dim 64, beam 4, max target 500 | [`decoder::Seq2SeqDecoder`] (KV-cached incremental decoding + beam search) |
//!
//! Beyond the paper's evaluation set, [`seq2seq::TranslationModel`] closes
//! the encoder–decoder loop of paper Fig. 1, and [`gpt::Gpt`] adds the
//! GPT-2-style decoder-only family the paper's introduction motivates
//! (pre-LN blocks, causal KV-cached generation, greedy/top-k sampling).
//!
//! Each encoder model offers two execution surfaces:
//!
//! - **eager forward** (`forward`) — the embedding by hand, then one
//!   compiled encoder-layer program per layer: the numerical oracle;
//! - **graph builder** (`build_graph`) — compiles the whole model into one
//!   fused [`Program`] (paper Fig. 3) bound to the model's weights, which
//!   `tt-runtime` runs over planned arena memory, de-fuses for baseline
//!   variants, and prices on the GPU cost model.
//!
//! Both surfaces, and every GPT decode step, execute through the same
//! interpreter: [`Program::run`] over a [`Workspace`]'s planned arena.
//!
//! Weights are deterministic seeded Xavier-style random values: the paper's
//! experiments measure *performance*, never task accuracy, so no pretrained
//! checkpoints are required (see DESIGN.md substitution table).

pub mod albert;
pub mod bert;
pub mod checkpoint;
pub mod decoder;
pub mod encoder_layer;
pub mod gpt;
pub mod program;
pub mod seq2seq;
pub mod tokenizer;
pub mod weights;

pub use program::{BoundProgram, Program, Workspace};

use tt_tensor::Tensor;

/// Pack token-id rows (one per request) into a `[batch, max_len]` f32 id
/// tensor plus the `[batch, max_len]` additive attention mask, zero-padding
/// short rows — the serving framework's batching primitive.
///
/// Returns `(ids, mask, max_len)`. The mask is `0.0` on valid positions and
/// `-inf` on padding.
pub fn pad_batch(rows: &[&[u32]]) -> (Tensor, Tensor, usize) {
    let batch = rows.len();
    let max_len = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut ids = vec![0.0f32; batch * max_len];
    let mut mask = vec![f32::NEG_INFINITY; batch * max_len];
    for (b, row) in rows.iter().enumerate() {
        for (s, &tok) in row.iter().enumerate() {
            ids[b * max_len + s] = tok as f32;
            mask[b * max_len + s] = 0.0;
        }
    }
    (
        Tensor::from_vec([batch, max_len], ids).expect("sized above"),
        Tensor::from_vec([batch, max_len], mask).expect("sized above"),
        max_len,
    )
}

/// Build a `[batch, len]` id tensor from equal-length rows (no padding).
pub fn ids_batch(rows: &[&[u32]]) -> Tensor {
    let batch = rows.len();
    let len = rows.first().map_or(0, |r| r.len());
    assert!(rows.iter().all(|r| r.len() == len), "ids_batch requires equal lengths; use pad_batch");
    let data = rows.iter().flat_map(|r| r.iter().map(|&t| t as f32)).collect();
    Tensor::from_vec([batch, len], data).expect("sized above")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_batch_pads_and_masks() {
        let (ids, mask, max_len) = pad_batch(&[&[1, 2, 3], &[7]]);
        assert_eq!(max_len, 3);
        assert_eq!(ids.shape().dims(), &[2, 3]);
        assert_eq!(ids.as_slice(), &[1.0, 2.0, 3.0, 7.0, 0.0, 0.0]);
        assert_eq!(mask.as_slice()[..4], [0.0, 0.0, 0.0, 0.0]);
        assert_eq!(mask.as_slice()[4], f32::NEG_INFINITY);
        assert_eq!(mask.as_slice()[5], f32::NEG_INFINITY);
    }

    #[test]
    fn ids_batch_builds_dense_tensor() {
        let t = ids_batch(&[&[5, 6], &[7, 8]]);
        assert_eq!(t.shape().dims(), &[2, 2]);
        assert_eq!(t.as_slice(), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn ids_batch_rejects_ragged_rows() {
        ids_batch(&[&[1, 2], &[3]]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (ids, mask, max_len) = pad_batch(&[]);
        assert_eq!(max_len, 0);
        assert!(ids.is_empty());
        assert!(mask.is_empty());
    }
}
