//! Criterion bench of the planned-arena graph executor vs the eager
//! forward pass: the runtime's plumbing (lifetime analysis, offset
//! planning, arena dispatch) must cost little next to the math it
//! orchestrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tt_alloc::TurboAllocator;
use tt_model::bert::{Bert, BertConfig};
use tt_model::{ids_batch, Workspace};

fn bench_executor_vs_eager(c: &mut Criterion) {
    let cfg = BertConfig::tiny();
    let model = Bert::new_random(&cfg, 12);
    let mut g = c.benchmark_group("bert_tiny_inference");
    for &len in &[8usize, 40] {
        let row: Vec<u32> = (0..len as u32).map(|t| t % 90).collect();
        let ids = ids_batch(&[&row]);

        g.bench_with_input(BenchmarkId::new("eager", len), &ids, |b, ids| {
            b.iter(|| black_box(model.forward(ids, None)))
        });

        let bound = model.build_graph(1, len, false);
        g.bench_with_input(BenchmarkId::new("planned_arena", len), &ids, |b, ids| {
            // Warm allocator/arena: the steady-state serving path.
            let mut ws = Workspace::default();
            let inputs = [ids.as_slice()];
            let _ = bound.run(model.weights(), &bound.weights, &inputs, &mut ws);
            b.iter(|| black_box(bound.run(model.weights(), &bound.weights, &inputs, &mut ws)))
        });
    }
    g.finish();
}

fn bench_plan_only(c: &mut Criterion) {
    use tt_graph::lifetime::activation_lifetimes;
    let cfg = BertConfig::base();
    let bound = tt_model::bert::graph_skeleton(&cfg, 1, 200, false);
    let (usages, _) = activation_lifetimes(&bound.graph);
    c.bench_function("lifetimes_plus_plan_bert_base_200", |b| {
        let mut alloc = TurboAllocator::default();
        let _ = alloc.plan(&usages);
        b.iter(|| {
            let (usages, _) = activation_lifetimes(&bound.graph);
            black_box(alloc.plan(&usages))
        })
    });
}

criterion_group!(benches, bench_executor_vs_eager, bench_plan_only);
criterion_main!(benches);
