//! Random-graph fuzzing of the program interpreter + fusion pipeline:
//! build arbitrary valid op chains, compile and execute them through the
//! planned arena, and check that `fuse` and `decompose` never change the
//! numerics — the property behind the paper's claim that its graph rewrite
//! is free.

use proptest::prelude::*;

use tt_graph::fusion::decompose;
use tt_graph::{Graph, OpKind, TensorClass, TensorId};
use tt_model::weights::{WeightInit, WeightStore};
use tt_model::{BoundProgram, Workspace};
use tt_tensor::Tensor;

/// Ops the generator may append (all preserve the [rows, hidden] shape).
#[derive(Debug, Clone, Copy)]
enum GenOp {
    AddBias,
    Gelu,
    AddBiasGelu,
    Scale,
    Softmax,
    LayerNorm,
    ResidualWithInput,
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        Just(GenOp::AddBias),
        Just(GenOp::Gelu),
        Just(GenOp::AddBiasGelu),
        Just(GenOp::Scale),
        Just(GenOp::Softmax),
        Just(GenOp::LayerNorm),
        Just(GenOp::ResidualWithInput),
    ]
}

/// A random but valid fine graph over a `[rows, hidden]` input, its weight
/// bindings, input and output ids, plus the weight store backing it.
struct Chain {
    graph: Graph,
    bindings: Vec<(TensorId, usize)>,
    input: TensorId,
    output: TensorId,
    store: WeightStore,
}

impl Chain {
    /// Compile `graph` — the chain itself or a rewrite of it, which keeps
    /// every tensor id of the chain — with the chain's slots.
    fn compile(&self, graph: &Graph) -> BoundProgram {
        BoundProgram::compile(graph, &self.bindings, &[self.input], &[self.output])
    }
}

fn build(ops: &[GenOp], rows: usize, hidden: usize, seed: u64) -> Chain {
    let mut g = Graph::new();
    let mut store = WeightStore::new();
    let mut init = WeightInit::new(seed);
    let mut bindings = Vec::new();

    let input = g.add_tensor("x", vec![rows, hidden], TensorClass::Input);
    let mut cur = input;
    let mut weight = |g: &mut Graph, store: &mut WeightStore, t: Tensor, name: String| {
        let shape = t.shape().dims().to_vec();
        let idx = store.push(t);
        let tid = g.add_tensor(name, shape, TensorClass::Weight);
        bindings.push((tid, idx));
        tid
    };

    for (i, op) in ops.iter().enumerate() {
        let out = g.add_tensor(format!("t{i}"), vec![rows, hidden], TensorClass::Activation);
        match op {
            GenOp::AddBias => {
                let b = weight(
                    &mut g,
                    &mut store,
                    init.linear(1, hidden).reshape([hidden]).unwrap(),
                    format!("b{i}"),
                );
                g.add_node(OpKind::AddBias, vec![cur, b], out);
            }
            GenOp::Gelu => {
                g.add_node(OpKind::Gelu, vec![cur], out);
            }
            GenOp::AddBiasGelu => {
                let b = weight(
                    &mut g,
                    &mut store,
                    init.linear(1, hidden).reshape([hidden]).unwrap(),
                    format!("b{i}"),
                );
                g.add_node(OpKind::AddBiasGelu, vec![cur, b], out);
            }
            GenOp::Scale => {
                g.add_node(OpKind::Scale { alpha: 0.5 + (i % 3) as f32 * 0.25 }, vec![cur], out);
            }
            GenOp::Softmax => {
                g.add_node(OpKind::Softmax, vec![cur], out);
            }
            GenOp::LayerNorm => {
                let gamma =
                    weight(&mut g, &mut store, Tensor::full([hidden], 1.1), format!("g{i}"));
                let beta =
                    weight(&mut g, &mut store, Tensor::full([hidden], -0.05), format!("be{i}"));
                g.add_node(OpKind::LayerNorm { eps: 1e-5 }, vec![cur, gamma, beta], out);
            }
            GenOp::ResidualWithInput => {
                g.add_node(OpKind::Residual, vec![cur, input], out);
            }
        }
        cur = out;
    }
    g.tensors[cur].class = TensorClass::Output;
    Chain { graph: g, bindings, input, output: cur, store }
}

fn run(bound: &BoundProgram, store: &WeightStore, x: &Tensor) -> Tensor {
    let mut ws = Workspace::default();
    let out = bound.run(store, &bound.weights, &[x.as_slice()], &mut ws).pop().unwrap();
    Tensor::from_vec(bound.output_shape(0).to_vec(), out).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Executing a random chain's fused form, its decomposed form and the
    /// fused round trip of its decomposition all yield the same numbers.
    #[test]
    fn fusion_rewrites_preserve_numerics(
        ops in prop::collection::vec(op_strategy(), 1..10),
        rows in 1usize..5,
        hidden in 2usize..24,
        seed in 0u64..500,
    ) {
        let chain = build(&ops, rows, hidden, seed);
        let x = Tensor::from_fn([rows, hidden], |i| ((i as u64 * 29 + seed) % 13) as f32 * 0.3 - 1.5);

        // Fully fine-grained: the decomposed chain, compiled and de-fused.
        let fine = chain.compile(&decompose(&chain.graph));
        let fine = BoundProgram { program: fine.decomposed(), weights: fine.weights.clone() };
        prop_assert_eq!(fine.fused_ops(), 0);
        let base = run(&fine, &chain.store, &x);
        prop_assert!(base.as_slice().iter().all(|v| v.is_finite()));

        let fused = chain.compile(&chain.graph);
        let f = run(&fused, &chain.store, &x);
        prop_assert!(base.approx_eq(&f, 1e-4), "fuse changed numerics (diff {})",
            base.max_abs_diff(&f).unwrap());

        let decomposed = BoundProgram { program: fused.decomposed(), weights: fused.weights.clone() };
        let d = run(&decomposed, &chain.store, &x);
        prop_assert!(base.approx_eq(&d, 1e-4), "decompose changed numerics (diff {})",
            base.max_abs_diff(&d).unwrap());

        // And the round trip: fuse(decompose(chain)).
        let round = chain.compile(&decompose(&chain.graph));
        prop_assert_eq!(round.nodes(), fused.nodes());
        let rt = run(&round, &chain.store, &x);
        prop_assert!(base.approx_eq(&rt, 1e-4));
    }

    /// The allocator invariant holds on every random chain: plans validate
    /// and repeated execution with a warm arena is deterministic.
    #[test]
    fn warm_arena_execution_is_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..8),
        seed in 0u64..200,
    ) {
        let chain = build(&ops, 3, 8, seed);
        let bound = chain.compile(&chain.graph);
        let x = Tensor::from_fn([3, 8], |i| (i as f32 * 0.17).sin());
        let mut ws = Workspace::default();
        let a = bound.run(&chain.store, &bound.weights, &[x.as_slice()], &mut ws);
        let b = bound.run(&chain.store, &bound.weights, &[x.as_slice()], &mut ws);
        prop_assert_eq!(a, b);
    }
}
