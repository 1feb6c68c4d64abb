//! The runtime's name for the graph interpreter's instrumentation surface.
//!
//! Execution itself lives in [`tt_model::program`]: one interpreter runs
//! the encoder programs this runtime serves (planned arena, per-op metrics,
//! spans, energies, chaos points), `Bert::forward`, and every GPT decode
//! step. This module re-exports the pieces runtime callers name.

pub use tt_model::program::{matmul_flops, ExecutorMetrics, TraceHook, OP_NAMES};
