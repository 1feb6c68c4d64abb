//! # tt-serving — the TurboTransformers serving framework
//!
//! Paper §5 and Figure 2: requests arrive at a message queue, pass a
//! response cache, are grouped by a batch scheduler and executed by the
//! runtime. The framework's contribution is the **sequence-length-aware
//! batch scheduler** (paper Algorithm 3): a dynamic program over a profiled
//! `cached_cost[seq_len][batch_size]` table that splits the queued
//! variable-length requests into contiguous (in sorted length order)
//! batches minimizing total execution time — trading zero-padding waste
//! against batching gain.
//!
//! Modules:
//!
//! - [`request`] — requests and seeded workload generators (Poisson
//!   arrivals; uniform / clamped-normal / translation length
//!   distributions);
//! - [`cost_table`] — the `cached_cost` table and its warm-up construction
//!   from a `tt-runtime` cost model;
//! - [`deadline`] — one definition of "expired": wall-clock [`Deadline`]s
//!   for the live path plus the sim-clock expiry/EDF/lazy-trigger helpers
//!   shared by the simulators;
//! - [`scheduler`] — DP (Algorithm 3), naive single-batch, no-batch and
//!   pad-to-max (TF-serving-like) schedulers, plus a brute-force optimum
//!   used by tests;
//! - [`simulator`] — discrete-event simulation of the serving loop with
//!   *hungry* and *lazy* trigger strategies, producing the throughput and
//!   latency numbers of paper Figure 12 / Table 4;
//! - [`live`] — a real threaded serving engine (crossbeam channels + real
//!   numerics) proving the Fig. 2 architecture end to end;
//! - [`generate`] — iteration-level (continuous) batching for generative
//!   decoding: one decode step per active sequence per iteration over the
//!   paged KV arena, page-budget admission, per-token event streams;
//! - [`http`] — the network front-end: a dependency-free HTTP/1.1 server
//!   (worker pool over `TcpListener`) routing `POST /v1/infer` into the
//!   live engine, with `GET /metrics` Prometheus scraping, bounded-queue
//!   backpressure (`429` shedding), request-size limits and graceful
//!   drain-then-join shutdown;
//! - [`cluster`] — a multi-GPU extension: N simulated servers behind a
//!   load balancer (the "upper-level load balancer as the one in Nexus"
//!   the paper defers to);
//! - [`cache`] — the Clipper-style response cache (disabled in the paper's
//!   measurements, implemented for completeness);
//! - [`registry`] — model version management (the remaining §2.2 serving
//!   functionality): versioned handles, blue/green default switching;
//! - [`multi_model`] — several model classes sharing one GPU
//!   (earliest-deadline-first, the Nexus scenario) with SLO load shedding;
//! - [`supervisor`] — watchdog-supervised engine replicas: heartbeat
//!   liveness, panic/stall detection, leak-checked teardown and restart
//!   under a fresh generation stamp, typed errors for in-flight work;
//! - [`router`] — the [`Fleet`] front: health-gated (circuit breaker)
//!   least-estimated-work dispatch over supervised replicas, with
//!   optional hedged dispatch for the idempotent infer path;
//! - [`retry`] — bounded deadline-aware retries: seeded
//!   decorrelated-jitter backoff plus a global retry budget;
//! - [`stats`] — latency accumulation (avg / min / max / percentiles).

#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod config;
pub mod cost_table;
pub mod deadline;
pub mod generate;
pub mod http;
pub mod live;
pub mod multi_model;
pub mod registry;
pub mod request;
pub mod retry;
pub mod router;
pub mod scheduler;
pub mod simulator;
pub mod stats;
pub mod supervisor;

pub use cost_table::CachedCost;
pub use deadline::Deadline;
pub use generate::{FinishReason, GenClient, GenConfig, GenEngine, TokenEvent};
pub use http::{
    GenerateHandler, HttpConfig, HttpServer, InferError, InferHandler, InferReply, VocabGuard,
};
pub use request::{LengthDist, Request, WorkloadSpec};
pub use retry::{Backoff, RetryBudget, RetryConfig};
pub use router::{Fleet, FleetConfig, HealthConfig, HealthState};
pub use scheduler::{
    BatchScheduler, DpScheduler, EnergyAwareDpScheduler, InstrumentedScheduler, LatencyDpScheduler,
    MemoryAwareDpScheduler, NaiveBatchScheduler, NoBatchScheduler, PadToMaxScheduler,
    SchedObjective,
};
pub use simulator::{simulate, ServingConfig, ServingReport, Trigger};
pub use supervisor::{
    ReplicaFactory, ReplicaParts, ReplicaReport, SupervisedReplica, SupervisorConfig,
};
