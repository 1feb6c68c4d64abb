//! The paper's §4.1.1 motivating measurements, reproduced:
//!
//! 1. "For a BERT inference on a Tesla V100 … batch 20 and sequence length
//!    128, only **61.8 %** of the time is spent on GEMM kernels, and
//!    **38.2 %** on non-GEMM cores" (PyTorch).
//! 2. "With batch size 1 and sequence length 40, the GPU is completely
//!    **idle 80.64 %** of the time" (launch-overhead-bound PyTorch).
//! 3. After fusion + Turbo kernels, the same shapes are GEMM-dominated.
//!
//! Plus the per-operator profile both runtimes see at each shape.

use tt_bench::{fmt_pct, fmt_time, print_table};
use tt_gpusim::device::DeviceKind;
use tt_graph::fusion::decompose;
use tt_model::bert::{graph_skeleton, BertConfig};
use tt_runtime::cost::{graph_cost, profile_graph, scaled_device};
use tt_runtime::{RuntimeKind, VariantProfile};

fn variant_graph(profile: &VariantProfile, batch: usize, seq: usize) -> tt_graph::Graph {
    let bound = graph_skeleton(&BertConfig::base(), batch, seq, false);
    match profile.fusion {
        tt_runtime::FusionLevel::Fused => bound.program.graph,
        tt_runtime::FusionLevel::Decomposed => decompose(&bound.graph),
    }
}

fn main() {
    let dev = DeviceKind::V100.config();

    for (kind, label) in [
        (RuntimeKind::PyTorchLike, "PyTorch-like (paper's measurement)"),
        (RuntimeKind::Turbo, "TurboTransformers"),
    ] {
        let profile = kind.profile();
        println!("\n# {label}\n");

        // --- claim 1: GEMM share at (20, 128) ---
        let graph = variant_graph(&profile, 20, 128);
        let cb = graph_cost(&dev, &profile, &graph);
        println!(
            "GEMM share at batch 20, seq 128: {}  (paper PyTorch: 61.8% GEMM / 38.2% non-GEMM)",
            fmt_pct(cb.gemm / cb.total())
        );

        // --- claim 2: launch-bound idleness at (1, 40) ---
        let graph_small = variant_graph(&profile, 1, 40);
        let cb_small = graph_cost(&dev, &profile, &graph_small);
        // Idle fraction: launch gaps as a share of wall time. Each launch
        // contributes the scaled overhead during which no kernel executes.
        let sdev = scaled_device(&dev, &profile);
        let launch_gap = cb_small.launches as f64 * sdev.launch_overhead();
        println!(
            "launch overhead share at batch 1, seq 40: {} of {} across {} launches  (paper PyTorch: GPU idle 80.64%)",
            fmt_pct(launch_gap / (cb_small.total() + profile.per_infer_overhead)),
            fmt_time(cb_small.total()),
            cb_small.launches
        );

        // --- per-operator profile at (20, 128) ---
        let lines = profile_graph(&dev, &profile, &graph);
        let total: f64 = lines.iter().map(|l| l.seconds).sum();
        let rows: Vec<Vec<String>> = lines
            .iter()
            .map(|l| {
                vec![
                    l.kind.clone(),
                    l.count.to_string(),
                    l.launches.to_string(),
                    fmt_time(l.seconds),
                    fmt_pct(l.seconds / total),
                ]
            })
            .collect();
        print_table(
            &format!("per-operator profile, batch 20 / seq 128 ({label})"),
            &["operator", "nodes", "launches", "time", "share"],
            &rows,
        );
    }
}
