//! HTTP/1.1 serving front-end: the network boundary of the Fig. 2 stack.
//!
//! The paper's serving framework sits behind a network front-end that
//! feeds the sequence-length-aware batch scheduler; this module is that
//! boundary, built directly on [`std::net::TcpListener`] with no external
//! dependencies, matching the offline build environment.
//!
//! Two **connection drivers** implement the byte-moving half, selected by
//! `TT_HTTP_DRIVER` behind the same public API (see `docs/NETWORKING.md`):
//!
//! - [`DriverKind::Reactor`] (default on Linux) — a readiness-driven
//!   epoll event loop: one reactor thread owns every socket nonblocking,
//!   per-connection state machines drive the incremental [`parser`], a
//!   timer wheel bounds slow peers, and parsed requests are handed to a
//!   bounded execution pool. Connection count decouples from thread
//!   count, so thousands of concurrent sockets ride on
//!   `workers + 2` threads.
//! - [`DriverKind::Threads`] — the classic blocking acceptor + worker
//!   pool (one connection per worker thread at a time); the portable
//!   fallback and the baseline the reactor is benchmarked against.
//!
//! Routes:
//!
//! - `POST /v1/infer` — JSON body `{"tokens": [101, 2023, 102]}`; the
//!   token ids go through an [`InferHandler`] (in production the
//!   [`LiveClient`] handle of a running
//!   [`LiveEngine`](crate::live::LiveEngine)) and the response carries the
//!   classification vector, end-to-end latency, and the batch shape the
//!   scheduler chose;
//! - `POST /v1/generate` — JSON body `{"prompt": [...], "max_new_tokens": 8}`;
//!   a **streaming** route: the response uses chunked transfer encoding,
//!   one NDJSON event per generated token as the continuous-batching
//!   [`GenEngine`](crate::generate::GenEngine) produces them, ending with
//!   a terminal `{"event":"done",...}` chunk (see `docs/GENERATION.md`
//!   for the wire format). Under the reactor driver, token events queue
//!   per connection and flush on socket writability — a stream holds no
//!   thread while it waits for the next token;
//! - `GET /metrics` — the live [`Registry`] rendered in the Prometheus
//!   text exposition format, scrapeable while the engine serves;
//! - `GET /v1/traces/<id>` — the recorded span tree of a sampled request
//!   as JSON (see `docs/OBSERVABILITY.md`);
//! - `GET /healthz` — liveness probe.
//!
//! When the server is started with a [`Tracer`]
//! ([`HttpServer::start_traced`]), sampled `POST /v1/infer` requests get a
//! root `http` span whose context rides the job through the engine; the
//! response carries the id in an `x-tt-trace-id` header, and appending
//! `?trace=1` to the target forces sampling for that one request.
//!
//! Robustness is part of the design, not an afterthought:
//!
//! - **Backpressure and SLO-aware admission.** Parsed requests hand off
//!   to the execution pool through a *bounded* queue
//!   (`pending_connections`); overflow sheds `429` instead of queueing
//!   unboundedly. In-flight inference is capped at `max_queue_depth`
//!   (beyond it: `429`), and on top of the cap the
//!   [`admission::AdmissionController`] sheds `503` when live queue-wait
//!   p99 plus this request's cost-table estimate exceeds its deadline.
//!   Every request carries an end-to-end deadline (`x-tt-deadline-ms`
//!   header, default `TT_SLO_MS`); expired work is dropped with `504` at
//!   admission and at the engine's pre-schedule/pre-execute boundaries.
//!   All shed responses carry a `Retry-After` derived from the observed
//!   drain rate. See `docs/ROBUSTNESS.md` for the full shed taxonomy.
//! - **Limits.** Request bodies above `max_body_bytes` are refused with
//!   `413` at header time; malformed requests/JSON get `400`; per
//!   connection read/write timeouts bound a slow peer's hold on the
//!   server (enforced by the reactor's timer wheel, or by socket
//!   timeouts under the threaded driver).
//! - **Graceful shutdown.** [`HttpServer::shutdown`] stops accepting,
//!   drains every registered connection and in-flight request, joins all
//!   threads, and returns a final metrics snapshot — no request that got
//!   a `2xx` admission is dropped.
//!
//! The server reports its own traffic through `tt-telemetry` the same way
//! the engine does: `http_requests_total{route,status}`, a per-route
//! latency histogram, an active-connections gauge, a shed counter and —
//! under the reactor — `reactor_*` event-loop health metrics all land in
//! the same registry `/metrics` renders, so the front-end is visible in
//! its own exposition.

pub mod admission;
pub mod parser;

#[cfg(target_os = "linux")]
mod reactor;
#[cfg(target_os = "linux")]
mod sys;
mod threaded;

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use tt_telemetry::{
    trace_tree_json, Counter, Gauge, Histogram, Registry, Span, SpanContext, TraceId, Tracer,
};

use crate::config::{knob, knob_ms, process_env, Lookup};
use crate::cost_table::CachedCost;
use crate::deadline::Deadline;
use crate::generate::{FinishReason, GenClient, TokenEvent};
use crate::live::{LiveClient, LiveError};
use admission::AdmissionController;
use parser::HttpRequest;

/// Configuration of the HTTP front-end. Every field has a `TT_HTTP_*`
/// environment override (see [`HttpConfig::from_env`] and the README
/// config-surface table).
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address (`TT_HTTP_ADDR`, default `127.0.0.1:7070`; use port 0
    /// for an ephemeral port, e.g. in tests).
    pub addr: String,
    /// Execution-pool threads running inference requests — and, under the
    /// threaded driver, connection-serving worker threads
    /// (`TT_HTTP_WORKERS`, default 4).
    pub workers: usize,
    /// Bounded hand-off queue into the execution pool: parsed requests
    /// under the reactor, accepted connections under the threaded driver
    /// (`TT_HTTP_PENDING`, default 64). When full, the reactor sheds
    /// `429`; the threaded acceptor blocks.
    pub pending_connections: usize,
    /// In-flight inference cap; beyond it `/v1/infer` sheds with `429`
    /// (`TT_HTTP_QUEUE_DEPTH`, default 32).
    pub max_queue_depth: usize,
    /// Request body size limit in bytes, enforced at header time with
    /// `413` (`TT_HTTP_MAX_BODY`, default 1 MiB).
    pub max_body_bytes: usize,
    /// Per-connection read/idle timeout (`TT_HTTP_READ_TIMEOUT_MS`,
    /// default 5000 ms). The reactor answers a mid-request stall with
    /// `408` from its timer wheel and closes idle keep-alive connections
    /// silently; the threaded driver applies it as the socket read
    /// timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout (`TT_HTTP_WRITE_TIMEOUT_MS`, default
    /// 5000 ms): how long a written-but-unflushed response may sit
    /// against a peer that stopped reading before the connection is
    /// abandoned.
    pub write_timeout: Duration,
    /// `Retry-After` seconds advertised on a shed before the server has
    /// observed a drain rate (`TT_HTTP_RETRY_AFTER_S`, default 1). Once
    /// completions flow, `Retry-After` derives from the observed drain
    /// rate instead (see [`admission::AdmissionController::retry_after`]).
    pub retry_after_s: u64,
    /// Upper clamp on any advertised `Retry-After` value in seconds
    /// (`TT_RETRY_AFTER_MAX`, default 30).
    pub retry_after_max: u64,
    /// Default end-to-end deadline budget for `/v1/infer` requests that
    /// carry no `x-tt-deadline-ms` header (`TT_SLO_MS`, default 1000 ms).
    pub slo: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 4,
            pending_connections: 64,
            max_queue_depth: 32,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_millis(5000),
            write_timeout: Duration::from_millis(5000),
            retry_after_s: 1,
            retry_after_max: 30,
            slo: Duration::from_millis(1000),
        }
    }
}

impl HttpConfig {
    /// Defaults overridden by any `TT_HTTP_*` environment variables that
    /// are set (plus `TT_RETRY_AFTER_MAX` and `TT_SLO_MS`).
    ///
    /// # Panics
    ///
    /// On a set but unparsable knob (see [`crate::config`]) — a serving
    /// binary must not come up quietly ignoring a typo'd environment.
    pub fn from_env() -> Self {
        Self::from_lookup(&process_env)
    }

    /// [`from_env`](Self::from_env) over any knob source.
    pub fn from_lookup(lookup: Lookup<'_>) -> Self {
        let d = HttpConfig::default();
        HttpConfig {
            addr: lookup("TT_HTTP_ADDR").unwrap_or(d.addr),
            workers: knob(lookup, "TT_HTTP_WORKERS", d.workers).max(1),
            pending_connections: knob(lookup, "TT_HTTP_PENDING", d.pending_connections).max(1),
            max_queue_depth: knob(lookup, "TT_HTTP_QUEUE_DEPTH", d.max_queue_depth).max(1),
            max_body_bytes: knob(lookup, "TT_HTTP_MAX_BODY", d.max_body_bytes),
            read_timeout: knob_ms(lookup, "TT_HTTP_READ_TIMEOUT_MS", d.read_timeout),
            write_timeout: knob_ms(lookup, "TT_HTTP_WRITE_TIMEOUT_MS", d.write_timeout),
            retry_after_s: knob(lookup, "TT_HTTP_RETRY_AFTER_S", d.retry_after_s),
            retry_after_max: knob(lookup, "TT_RETRY_AFTER_MAX", d.retry_after_max).max(1),
            slo: knob_ms(lookup, "TT_SLO_MS", d.slo).max(Duration::from_millis(1)),
        }
    }
}

/// Which connection driver moves bytes between sockets and the execution
/// pool. Selected by `TT_HTTP_DRIVER` (`reactor` | `threads`); exported
/// at `/metrics` as the `http_driver{driver}` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// Readiness-driven epoll event loop (Linux; the default there). One
    /// reactor thread owns every socket; requests execute on the bounded
    /// pool; streams flush on writability. See `docs/NETWORKING.md`.
    Reactor,
    /// Blocking acceptor + worker pool: one thread serves one connection
    /// at a time. Portable fallback (`TT_HTTP_DRIVER=threads`), and the
    /// default off Linux.
    Threads,
}

impl DriverKind {
    /// Stable lowercase name, used in logs and the `http_driver` gauge
    /// label.
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Reactor => "reactor",
            DriverKind::Threads => "threads",
        }
    }

    /// Driver selected by `TT_HTTP_DRIVER`, defaulting to the reactor on
    /// Linux and the threaded driver elsewhere. Asking for `reactor` on a
    /// platform without epoll falls back to `threads` rather than failing
    /// — the serving surface is identical.
    pub fn from_env() -> Self {
        let default =
            if cfg!(target_os = "linux") { DriverKind::Reactor } else { DriverKind::Threads };
        match std::env::var("TT_HTTP_DRIVER").ok().as_deref() {
            Some("threads") => DriverKind::Threads,
            Some("reactor") if cfg!(target_os = "linux") => DriverKind::Reactor,
            _ => default,
        }
    }
}

/// The seam between [`HttpServer`] and a running connection driver: the
/// server starts one at bind time and only ever needs to wake it for
/// shutdown and join its threads. Everything route-level (admission,
/// deadlines, tracing, chaos, metrics) lives above this seam and is
/// shared by both implementations.
trait ConnectionDriver: Send {
    /// Nudge the driver to notice `ServerShared::shutting_down` (self-pipe
    /// wake for the reactor, a throwaway connection for the blocking
    /// acceptor). Idempotent.
    fn begin_shutdown(&self);
    /// Block until every thread the driver spawned has drained and exited.
    fn join(&mut self);
}

/// The inference backend behind `POST /v1/infer`.
///
/// Production wires the [`LiveClient`] of a running
/// [`LiveEngine`](crate::live::LiveEngine); tests substitute stubs to
/// exercise shedding and shutdown without a model.
pub trait InferHandler: Send + Sync + 'static {
    /// Run one token sequence to completion; blocks until the engine
    /// answers. Errors map to HTTP statuses (see [`InferError`]); a panic
    /// is additionally caught and mapped to `503 Service Unavailable`, so
    /// a misbehaving backend cannot take a worker thread down.
    fn infer(&self, tokens: Vec<u32>) -> Result<InferReply, InferError>;

    /// Like [`infer`](Self::infer), but carrying the trace context of a
    /// sampled request so the backend can hang its own spans (queue wait,
    /// scheduling, execution) under the server's root `http` span. The
    /// default implementation drops the context — a handler that does not
    /// trace still serves.
    fn infer_traced(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
    ) -> Result<InferReply, InferError> {
        let _ = trace;
        self.infer(tokens)
    }

    /// The full request-context path: trace plus an end-to-end
    /// [`Deadline`]. A deadline-aware backend (the [`LiveClient`]) drops
    /// the job with [`InferError::DeadlineExceeded`] at its stage
    /// boundaries once the budget is gone; the default implementation
    /// ignores the deadline — a handler without deadline support still
    /// serves, it just never sheds in-queue.
    fn infer_deadline(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<InferReply, InferError> {
        let _ = deadline;
        self.infer_traced(tokens, trace)
    }
}

/// Why an [`InferHandler`] refused or failed a request.
#[derive(Debug, Clone)]
pub enum InferError {
    /// The request can never succeed against this model (e.g. token ids
    /// outside the vocabulary) — HTTP `400`.
    BadRequest(String),
    /// The engine cannot answer right now (shut down, or it dropped the
    /// job's batch after an execution failure) — HTTP `503`.
    Unavailable(String),
    /// The request's end-to-end deadline expired before execution — the
    /// engine shed it at a stage boundary rather than serve a dead answer
    /// — HTTP `504`.
    DeadlineExceeded(String),
}

/// Admission-time vocabulary check: wraps any handler and refuses token
/// ids the model cannot embed with [`InferError::BadRequest`], so a bad
/// request costs a `400` at the boundary instead of reaching the engine.
pub struct VocabGuard<H> {
    inner: H,
    vocab_size: u32,
}

impl<H: InferHandler> VocabGuard<H> {
    /// Guard `inner` with the model's vocabulary size.
    pub fn new(inner: H, vocab_size: usize) -> Self {
        VocabGuard { inner, vocab_size: vocab_size as u32 }
    }
}

impl<H: InferHandler> InferHandler for VocabGuard<H> {
    fn infer(&self, tokens: Vec<u32>) -> Result<InferReply, InferError> {
        self.infer_deadline(tokens, None, None)
    }

    fn infer_traced(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
    ) -> Result<InferReply, InferError> {
        self.infer_deadline(tokens, trace, None)
    }

    fn infer_deadline(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<InferReply, InferError> {
        if let Some(&bad) = tokens.iter().find(|&&t| t >= self.vocab_size) {
            return Err(InferError::BadRequest(format!(
                "token id {bad} out of range for vocabulary of {}",
                self.vocab_size
            )));
        }
        self.inner.infer_deadline(tokens, trace, deadline)
    }
}

/// What the backend hands back for one request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferReply {
    /// The `[CLS]`-position hidden vector — the classification logits'
    /// feature input.
    pub cls_vector: Vec<f32>,
    /// Engine-side latency in milliseconds (submission → completion).
    pub latency_ms: f64,
    /// How many requests shared the executed batch.
    pub batch_size: usize,
    /// Zero-padded sequence length of that batch.
    pub padded_len: usize,
}

impl InferHandler for LiveClient {
    fn infer(&self, tokens: Vec<u32>) -> Result<InferReply, InferError> {
        self.infer_deadline(tokens, None, None)
    }

    fn infer_traced(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
    ) -> Result<InferReply, InferError> {
        self.infer_deadline(tokens, trace, None)
    }

    fn infer_deadline(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<InferReply, InferError> {
        match self.infer_request(tokens, trace, deadline) {
            Ok(resp) => Ok(InferReply {
                cls_vector: resp.cls_vector,
                latency_ms: resp.latency.as_secs_f64() * 1e3,
                batch_size: resp.batch_size,
                padded_len: resp.padded_len,
            }),
            Err(LiveError::DeadlineExceeded) => Err(InferError::DeadlineExceeded(
                "deadline expired while the request waited in the engine queue".into(),
            )),
            Err(LiveError::Unavailable) => Err(InferError::Unavailable(
                "engine dropped the job (shut down, or its batch failed to execute)".into(),
            )),
        }
    }
}

/// The generative backend behind `POST /v1/generate`.
///
/// Production wires the [`GenClient`] of a running
/// [`GenEngine`](crate::generate::GenEngine); tests substitute stubs.
/// The returned receiver yields one [`TokenEvent`] per generated token
/// and always ends with a terminal [`TokenEvent::Done`].
pub trait GenerateHandler: Send + Sync + 'static {
    /// Start one generation; returns the event stream. Rejections that
    /// prevent a stream from existing at all map to [`InferError`];
    /// everything after that — including deadline expiry and page
    /// exhaustion mid-generation — arrives as a typed terminal event on
    /// the stream.
    fn generate(
        &self,
        prompt: Vec<u32>,
        max_new_tokens: usize,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<crossbeam::channel::Receiver<TokenEvent>, InferError>;
}

impl GenerateHandler for GenClient {
    fn generate(
        &self,
        prompt: Vec<u32>,
        max_new_tokens: usize,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<crossbeam::channel::Receiver<TokenEvent>, InferError> {
        self.generate_request(prompt, max_new_tokens, trace, deadline)
            .map_err(|_| InferError::Unavailable("generation engine is gone".into()))
    }
}

/// JSON body of `POST /v1/infer`.
#[derive(Debug, Deserialize)]
struct InferRequestBody {
    tokens: Vec<u32>,
}

/// JSON body of `POST /v1/generate`. An absent (or zero) `max_new_tokens`
/// means "server default" — [`DEFAULT_MAX_NEW_TOKENS`].
#[derive(Debug, Deserialize)]
struct GenerateRequestBody {
    prompt: Vec<u32>,
    #[serde(default)]
    max_new_tokens: usize,
}

/// Tokens generated when the client does not ask for a specific count.
const DEFAULT_MAX_NEW_TOKENS: usize = 16;

/// Server-side telemetry, reported into the same registry `/metrics`
/// renders.
#[derive(Clone)]
struct HttpMetrics {
    registry: Registry,
    latency: [(&'static str, Arc<Histogram>); 6],
    active_connections: Arc<Gauge>,
    infer_inflight: Arc<Gauge>,
    /// Shed counters by taxonomy: `capacity` (429, in-flight cap),
    /// `predicted_slo` (503, admission prediction), `deadline` (504,
    /// expired budget — at admission or inside the engine). Eagerly
    /// registered so the family scrapes complete from the first request.
    sheds_capacity: Arc<Counter>,
    sheds_predicted: Arc<Counter>,
    sheds_deadline: Arc<Counter>,
    /// Requests that were admitted, served 200 — but finished past their
    /// deadline anyway (the answer arrived too late to be useful).
    slo_violations: Arc<Counter>,
}

/// Route label for metrics: known routes verbatim, everything else pooled
/// so arbitrary client paths cannot grow label cardinality.
fn route_label(path: &str, method: &str) -> &'static str {
    match (method, path) {
        ("POST", "/v1/infer") => "/v1/infer",
        ("POST", "/v1/generate") => "/v1/generate",
        ("GET", "/metrics") => "/metrics",
        ("GET", "/healthz") => "/healthz",
        ("GET", p) if p.starts_with("/v1/traces/") => "/v1/traces",
        _ => "other",
    }
}

impl HttpMetrics {
    fn register(registry: &Registry) -> Self {
        let hist = |route: &'static str| {
            (
                route,
                registry.histogram(
                    "http_request_nanoseconds",
                    "Wall time from parsed request to written response",
                    &[("route", route)],
                ),
            )
        };
        HttpMetrics {
            registry: registry.clone(),
            latency: [
                hist("/v1/infer"),
                hist("/v1/generate"),
                hist("/metrics"),
                hist("/healthz"),
                hist("/v1/traces"),
                hist("other"),
            ],
            active_connections: registry.gauge(
                "http_active_connections",
                "Currently open client connections",
                &[],
            ),
            infer_inflight: registry.gauge(
                "http_infer_inflight",
                "Inference requests admitted and not yet answered",
                &[],
            ),
            sheds_capacity: registry.counter(
                "http_sheds_total",
                "Requests shed at admission, by reason",
                &[("reason", "capacity")],
            ),
            sheds_predicted: registry.counter(
                "http_sheds_total",
                "Requests shed at admission, by reason",
                &[("reason", "predicted_slo")],
            ),
            sheds_deadline: registry.counter(
                "http_sheds_total",
                "Requests shed at admission, by reason",
                &[("reason", "deadline")],
            ),
            slo_violations: registry.counter(
                "slo_violation_total",
                "Admitted requests answered 200 but past their deadline",
                &[],
            ),
        }
    }

    fn shed(&self, reason: &str) {
        match reason {
            "capacity" => self.sheds_capacity.inc(),
            "predicted_slo" => self.sheds_predicted.inc(),
            _ => self.sheds_deadline.inc(),
        }
    }

    fn observe(&self, route: &'static str, status: u16, nanos: u64) {
        // requests_total is registered lazily per (route, status) pair;
        // both label sets are bounded (4 routes × ~9 statuses).
        self.registry
            .counter(
                "http_requests_total",
                "HTTP requests served, by route and status",
                &[("route", route), ("status", status_label(status))],
            )
            .inc();
        if let Some((_, h)) = self.latency.iter().find(|(r, _)| *r == route) {
            h.record(nanos);
        }
    }
}

/// Static status-code strings so metric labels never allocate surprises.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        413 => "413",
        429 => "429",
        503 => "503",
        504 => "504",
        _ => "500",
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// A bounded blocking hand-off queue (std `Mutex` + `Condvar`; the
/// vendored crossbeam shim's receiver is single-consumer, and the pool
/// needs many consumers). The threaded driver queues accepted
/// connections through it; the reactor queues parsed requests for the
/// execution pool.
struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> WorkQueue<T> {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        }
    }

    /// Blocking bounded push; drops the item if the queue is closed.
    fn push(&self, item: T) {
        let mut state = self.state.lock().expect("queue lock");
        while state.items.len() >= self.capacity && !state.closed {
            state = self.writable.wait(state).expect("queue lock");
        }
        if state.closed {
            return; // shutting down: the un-handed-off item is dropped
        }
        state.items.push_back(item);
        self.readable.notify_one();
    }

    /// Non-blocking push: `Err(item)` back if the queue is full or
    /// closed, so a reactor thread can shed instead of stalling.
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.readable.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.writable.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.readable.wait(state).expect("queue lock");
        }
    }

    /// Stop accepting pushes; wake every waiter. Queued items still drain.
    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.readable.notify_all();
        self.writable.notify_all();
    }
}

/// Shared server state handed to every driver and execution-pool thread.
struct ServerShared {
    config: HttpConfig,
    handler: Arc<dyn InferHandler>,
    /// Generative backend; `/v1/generate` answers `503` when absent.
    generate: Option<Arc<dyn GenerateHandler>>,
    metrics: HttpMetrics,
    registry: Registry,
    tracer: Tracer,
    shutting_down: AtomicBool,
    infer_inflight: AtomicUsize,
    admission: AdmissionController,
}

/// A running HTTP front-end: a connection driver (reactor event loop or
/// blocking acceptor + worker pool, see [`DriverKind`]) over the shared
/// routing, admission and telemetry core.
///
/// ```no_run
/// use std::sync::Arc;
/// use tt_serving::http::{HttpConfig, HttpServer};
/// # use tt_serving::http::{InferError, InferHandler, InferReply};
/// # struct Stub;
/// # impl InferHandler for Stub {
/// #     fn infer(&self, _t: Vec<u32>) -> Result<InferReply, InferError> {
/// #         Ok(InferReply { cls_vector: vec![], latency_ms: 0.0, batch_size: 1, padded_len: 1 })
/// #     }
/// # }
/// let registry = tt_telemetry::Registry::new();
/// let server = HttpServer::start(HttpConfig::default(), Arc::new(Stub), &registry).unwrap();
/// println!("serving on http://{}", server.addr());
/// let final_metrics = server.shutdown();
/// ```
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    driver: Option<Box<dyn ConnectionDriver>>,
    kind: DriverKind,
}

impl HttpServer {
    /// Bind `config.addr`, register the `http_*` metric family in
    /// `registry`, and start the connection driver. The returned server
    /// is live: [`addr`](Self::addr) tells the (possibly ephemeral)
    /// bound address.
    pub fn start(
        config: HttpConfig,
        handler: Arc<dyn InferHandler>,
        registry: &Registry,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_traced(config, handler, registry, Tracer::disabled())
    }

    /// [`start`](Self::start), plus request tracing: sampled `/v1/infer`
    /// requests get a root `http` span (forceable per request with
    /// `?trace=1`), answer with an `x-tt-trace-id` header, and their span
    /// trees become queryable at `GET /v1/traces/<id>`. Share the same
    /// `tracer` with [`LiveEngine::start_traced`](crate::live::LiveEngine::start_traced)
    /// so engine-side spans land in the same trace.
    pub fn start_traced(
        config: HttpConfig,
        handler: Arc<dyn InferHandler>,
        registry: &Registry,
        tracer: Tracer,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_with_costs(config, handler, registry, tracer, None)
    }

    /// [`start_traced`](Self::start_traced), additionally handing the
    /// admission controller the engine's cost table. With it, SLO-aware
    /// admission prices each request's length (queue-wait p99 + execution
    /// estimate vs. its deadline) and sheds predictable violations with
    /// `503` before they reach the engine; without it, the prediction
    /// falls back to the queue-wait term alone.
    pub fn start_with_costs(
        config: HttpConfig,
        handler: Arc<dyn InferHandler>,
        registry: &Registry,
        tracer: Tracer,
        costs: Option<Arc<CachedCost>>,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_generative(config, handler, None, registry, tracer, costs)
    }

    /// [`start_with_costs`](Self::start_with_costs), additionally wiring a
    /// generative backend behind the streaming `POST /v1/generate` route
    /// (in production the [`GenClient`] of a running
    /// [`GenEngine`](crate::generate::GenEngine)). Servers started without
    /// one answer `503` on that route. The connection driver comes from
    /// `TT_HTTP_DRIVER` (see [`DriverKind::from_env`]).
    pub fn start_generative(
        config: HttpConfig,
        handler: Arc<dyn InferHandler>,
        generate: Option<Arc<dyn GenerateHandler>>,
        registry: &Registry,
        tracer: Tracer,
        costs: Option<Arc<CachedCost>>,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_with_driver(
            config,
            handler,
            generate,
            registry,
            tracer,
            costs,
            DriverKind::from_env(),
        )
    }

    /// [`start_generative`](Self::start_generative) with an explicit
    /// [`DriverKind`] instead of the `TT_HTTP_DRIVER` environment lookup
    /// — what benches and tests use to pin a driver without mutating
    /// process-global environment. On a platform without epoll a
    /// requested [`DriverKind::Reactor`] silently runs the threaded
    /// driver (and reports `threads` in [`driver`](Self::driver) and the
    /// `http_driver` gauge).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_driver(
        config: HttpConfig,
        handler: Arc<dyn InferHandler>,
        generate: Option<Arc<dyn GenerateHandler>>,
        registry: &Registry,
        tracer: Tracer,
        costs: Option<Arc<CachedCost>>,
        kind: DriverKind,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = HttpMetrics::register(registry);
        let shared = Arc::new(ServerShared {
            config,
            handler,
            generate,
            metrics,
            registry: registry.clone(),
            tracer,
            shutting_down: AtomicBool::new(false),
            infer_inflight: AtomicUsize::new(0),
            admission: AdmissionController::new(registry, costs),
        });

        #[cfg(not(target_os = "linux"))]
        let kind = match kind {
            DriverKind::Reactor => DriverKind::Threads,
            k => k,
        };
        let driver: Box<dyn ConnectionDriver> = match kind {
            #[cfg(target_os = "linux")]
            DriverKind::Reactor => Box::new(reactor::ReactorDriver::start(listener, &shared)?),
            #[cfg(not(target_os = "linux"))]
            DriverKind::Reactor => unreachable!("reactor remapped to threads above"),
            DriverKind::Threads => {
                Box::new(threaded::ThreadedDriver::start(listener, addr, &shared))
            }
        };
        // Mirrors `gemm_kernel_variant`: a labeled always-1 gauge so a
        // scrape can tell which driver a deployment is running.
        registry
            .gauge(
                "http_driver",
                "Active HTTP connection driver (labeled; value is always 1)",
                &[("driver", kind.name())],
            )
            .set(1.0);

        Ok(HttpServer { addr, shared, driver: Some(driver), kind })
    }

    /// The bound listen address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which connection driver this server is running.
    pub fn driver(&self) -> DriverKind {
        self.kind
    }

    /// Graceful shutdown: stop accepting, drain every registered
    /// connection and in-flight request, join all threads, and return a
    /// final snapshot of the registry in Prometheus text form — the last
    /// scrape a monitoring system would otherwise have missed.
    pub fn shutdown(mut self) -> String {
        self.begin_shutdown();
        if let Some(mut driver) = self.driver.take() {
            driver.join();
        }
        sync_chaos_metrics(&self.shared.registry);
        self.shared.registry.render_prometheus()
    }

    fn begin_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(driver) = &self.driver {
            driver.begin_shutdown();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(mut driver) = self.driver.take() {
            driver.join();
        }
    }
}

/// Routed response: status, content type, body, extra headers.
type Response = (u16, String, Vec<u8>, Vec<(String, String)>);

/// Route one parsed request to a complete response. `POST /v1/infer`
/// blocks on the engine, so only execution-pool (or threaded-driver
/// worker) threads may call this with that route; the reactor answers
/// the non-blocking routes inline and ships the blocking ones to the
/// pool.
fn dispatch(request: &HttpRequest, shared: &ServerShared) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => json_response(200, "{\"status\":\"ok\"}".into()),
        ("GET", "/metrics") => {
            sync_chaos_metrics(&shared.registry);
            (
                200,
                "text/plain; version=0.0.4".to_string(),
                shared.registry.render_prometheus().into_bytes(),
                Vec::new(),
            )
        }
        ("POST", "/v1/infer") => infer_route(request, shared),
        ("GET", p) if p.starts_with("/v1/traces/") => traces_route(p, shared),
        (_, "/healthz" | "/metrics" | "/v1/infer" | "/v1/generate") => {
            error_body(405, &format!("{} not allowed on {}", request.method, request.path()))
        }
        (_, p) if p.starts_with("/v1/traces/") => {
            error_body(405, &format!("{} not allowed on {}", request.method, request.path()))
        }
        _ => error_body(404, &format!("no route for {}", request.path())),
    }
}

/// Scrape-time sync of the `tt-chaos` fire counters into the registry as
/// `chaos_fired_total{point}`. The chaos counters are process-global raw
/// totals that [`tt_chaos::install`] resets on re-arm, while registry
/// counters are monotone — so this folds *deltas* in (a raw value below
/// the last-seen one means a reset happened, and the raw value itself is
/// the delta). Every injection point is registered even at zero, so the
/// family is visible to a scraper before the first fault fires.
fn sync_chaos_metrics(registry: &Registry) {
    const POINTS: usize = tt_chaos::FAULT_POINTS.len();
    static LAST_SEEN: [AtomicU64; POINTS] = [const { AtomicU64::new(0) }; POINTS];
    for (i, (point, fired)) in tt_chaos::fired_counts().into_iter().enumerate() {
        let last = LAST_SEEN[i].swap(fired, Ordering::Relaxed);
        let delta = if fired >= last { fired - last } else { fired };
        let counter = registry.counter(
            "chaos_fired_total",
            "Chaos faults fired, by injection point",
            &[("point", point.name())],
        );
        if delta > 0 {
            counter.add(delta);
        }
    }
}

/// Build a shed response: count it under its taxonomy reason, attach a
/// drain-rate-derived `Retry-After`, and answer with the shed status
/// (`429` capacity / `503` predicted SLO / `504` deadline).
fn shed_response(shared: &ServerShared, status: u16, reason: &str, message: &str) -> Response {
    shared.metrics.shed(reason);
    let (status, ct, body, mut extra) = error_body(status, message);
    let depth = shared.infer_inflight.load(Ordering::SeqCst);
    let retry = shared.admission.retry_after(
        depth,
        shared.config.retry_after_s,
        shared.config.retry_after_max,
    );
    extra.push(("Retry-After".to_string(), retry.to_string()));
    (status, ct, body, extra)
}

fn infer_route(request: &HttpRequest, shared: &ServerShared) -> Response {
    let body: InferRequestBody = match serde_json::from_slice(&request.body) {
        Ok(body) => body,
        Err(e) => return error_body(400, &format!("malformed JSON body: {e:?}")),
    };
    if body.tokens.is_empty() {
        return error_body(400, "tokens must be non-empty");
    }

    // End-to-end deadline: per-request header override, else the server's
    // SLO default. The deadline clock starts here, at admission — queue
    // wait, scheduling and execution all spend the same budget.
    let deadline = match parse_deadline(request, shared) {
        Ok(deadline) => deadline,
        Err(resp) => return resp,
    };

    // Admission boundary 1 — capacity: the in-flight cap bounds queue
    // depth outright; beyond it, shed instead of queuing.
    let depth = shared.infer_inflight.fetch_add(1, Ordering::SeqCst);
    if depth >= shared.config.max_queue_depth {
        shared.infer_inflight.fetch_sub(1, Ordering::SeqCst);
        return shed_response(shared, 429, "capacity", "engine queue is full; retry later");
    }
    // Admission boundary 2 — SLO prediction: observed queue-wait p99 plus
    // this request's execution estimate must fit its remaining budget,
    // else admitting it would predictably produce a dead answer.
    if shared.admission.predicts_violation(body.tokens.len(), &deadline) {
        shared.infer_inflight.fetch_sub(1, Ordering::SeqCst);
        if deadline.expired() {
            return shed_response(shared, 504, "deadline", "deadline expired before admission");
        }
        return shed_response(
            shared,
            503,
            "predicted_slo",
            "predicted completion time exceeds the request deadline; retry later",
        );
    }
    shared.metrics.infer_inflight.add(1.0);

    // Head sampling decides here, at the edge; `?trace=1` forces this one
    // request in regardless of the sampling rate.
    let force = request.query_param("trace").is_some_and(|v| v != "0");
    let mut root = shared.tracer.start_root("http", force);
    if let Some(span) = root.as_mut() {
        span.attr_str("route", "/v1/infer");
        span.attr_int("tokens", body.tokens.len() as i64);
    }
    let ctx = root.as_ref().map(|span| span.context());

    let handler = shared.handler.clone();
    let tokens = body.tokens;
    let result =
        catch_unwind(AssertUnwindSafe(move || handler.infer_deadline(tokens, ctx, Some(deadline))));

    shared.infer_inflight.fetch_sub(1, Ordering::SeqCst);
    shared.metrics.infer_inflight.add(-1.0);
    // Every answered admission — success or failure — is drain: the
    // Retry-After estimate tracks how fast slots free up.
    shared.admission.note_completion();

    let mut trace_headers = Vec::new();
    if let Some(ctx) = ctx {
        trace_headers.push(("x-tt-trace-id".to_string(), ctx.trace.to_string()));
    }

    let response = match result {
        Ok(Ok(reply)) => {
            if deadline.expired() {
                // Served, but past its budget: the answer shipped anyway
                // (the work was already spent) and the violation is
                // counted — this is the metric SLO-aware admission exists
                // to keep at zero.
                shared.metrics.slo_violations.inc();
            }
            if let Some(span) = root.as_mut() {
                span.attr_int("status", 200);
                span.attr_int("batch_size", reply.batch_size as i64);
                span.attr_int("padded_len", reply.padded_len as i64);
            }
            let json = serde_json::to_string(&reply).expect("reply serializes");
            json_response(200, json)
        }
        Ok(Err(InferError::BadRequest(message))) => error_body(400, &message),
        Ok(Err(InferError::Unavailable(message))) => error_body(503, &message),
        Ok(Err(InferError::DeadlineExceeded(message))) => {
            // Shed inside the engine (pre-schedule or pre-execute
            // boundary): same taxonomy bucket as an admission-time
            // deadline shed, same Retry-After contract.
            shed_response(shared, 504, "deadline", &message)
        }
        Err(_panic) => error_body(503, "inference engine is unavailable"),
    };
    if let Some(span) = root.as_mut() {
        if response.0 != 200 {
            span.attr_int("status", response.0 as i64);
        }
    }
    // Record the root span now so `GET /v1/traces/<id>` sees the full tree
    // as soon as the client receives this response.
    drop(root);

    let (status, ct, body, mut extra) = response;
    extra.extend(trace_headers);
    (status, ct, body, extra)
}

/// Per-request deadline: `x-tt-deadline-ms` header override, else the
/// configured SLO default. `Err` carries the `400` for a malformed header.
fn parse_deadline(request: &HttpRequest, shared: &ServerShared) -> Result<Deadline, Response> {
    match request.header("x-tt-deadline-ms") {
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Deadline::within(Duration::from_millis(ms))),
            _ => Err(error_body(
                400,
                &format!(
                    "x-tt-deadline-ms must be a positive integer of milliseconds, got '{raw}'"
                ),
            )),
        },
        None => Ok(Deadline::within(shared.config.slo)),
    }
}

/// One token event as an NDJSON line (the `/v1/generate` wire format; see
/// `docs/GENERATION.md`).
fn event_json(ev: &TokenEvent) -> String {
    match ev {
        TokenEvent::Token { index, token } => {
            format!("{{\"event\":\"token\",\"index\":{index},\"token\":{token}}}\n")
        }
        TokenEvent::Done { finish, tokens } => format!(
            "{{\"event\":\"done\",\"finish\":\"{}\",\"tokens\":{tokens},\"error\":{}}}\n",
            finish.as_str(),
            finish.is_error()
        ),
    }
}

/// Balances the in-flight admission slot taken by a generation stream, on
/// every exit path (including panics, mid-stream write failures, and —
/// under the reactor — client disconnects that cancel the stream-mux
/// entry owning this slot).
struct InflightSlot(Arc<ServerShared>);

impl Drop for InflightSlot {
    fn drop(&mut self) {
        self.0.infer_inflight.fetch_sub(1, Ordering::SeqCst);
        self.0.metrics.infer_inflight.add(-1.0);
        self.0.admission.note_completion();
    }
}

/// An admitted, started generation: the live token stream plus everything
/// whose lifetime must equal the stream's — the in-flight slot, the root
/// span (records on drop), and the trace id for the response head.
struct StreamState {
    events: crossbeam::channel::Receiver<TokenEvent>,
    slot: InflightSlot,
    span: Option<Span>,
    trace: Option<TraceId>,
}

/// How `POST /v1/generate` admission resolved.
enum GenAdmission {
    /// No stream: a complete (error or shed) response to write.
    Plain(Response),
    /// Admitted: the engine accepted the generation and will produce
    /// events. The first event still decides between a `200` chunked
    /// stream and a typed rejection (see [`classify_first_event`]).
    Stream(StreamState),
}

/// Everything `POST /v1/generate` does before the first token event:
/// body/deadline validation, backend presence, the capacity boundary
/// (taking an [`InflightSlot`]), the root span, and submission to the
/// engine. Shared verbatim by both drivers; only the event-pumping half
/// differs (blocking loop vs. reactor stream mux).
fn generate_admit(request: &HttpRequest, shared: &Arc<ServerShared>) -> GenAdmission {
    let body: GenerateRequestBody = match serde_json::from_slice(&request.body) {
        Ok(body) => body,
        Err(e) => {
            return GenAdmission::Plain(error_body(400, &format!("malformed JSON body: {e:?}")))
        }
    };
    if body.prompt.is_empty() {
        return GenAdmission::Plain(error_body(400, "prompt must be non-empty"));
    }
    let deadline = match parse_deadline(request, shared) {
        Ok(deadline) => deadline,
        Err(resp) => return GenAdmission::Plain(resp),
    };
    let Some(backend) = shared.generate.clone() else {
        return GenAdmission::Plain(error_body(
            503,
            "this server has no generative backend behind /v1/generate",
        ));
    };

    // Same capacity boundary as `/v1/infer`: a stream holds an in-flight
    // slot for its whole lifetime.
    let depth = shared.infer_inflight.fetch_add(1, Ordering::SeqCst);
    if depth >= shared.config.max_queue_depth {
        shared.infer_inflight.fetch_sub(1, Ordering::SeqCst);
        return GenAdmission::Plain(shed_response(
            shared,
            429,
            "capacity",
            "engine queue is full; retry later",
        ));
    }
    shared.metrics.infer_inflight.add(1.0);
    let slot = InflightSlot(shared.clone());

    let force = request.query_param("trace").is_some_and(|v| v != "0");
    let mut span = shared.tracer.start_root("http", force);
    if let Some(span) = span.as_mut() {
        span.attr_str("route", "/v1/generate");
        span.attr_int("prompt_len", body.prompt.len() as i64);
        span.attr_int("max_new_tokens", body.max_new_tokens as i64);
    }
    let ctx = span.as_ref().map(|span| span.context());

    let max_new =
        if body.max_new_tokens == 0 { DEFAULT_MAX_NEW_TOKENS } else { body.max_new_tokens };
    let prompt = body.prompt;
    let result =
        catch_unwind(AssertUnwindSafe(|| backend.generate(prompt, max_new, ctx, Some(deadline))));
    let events = match result {
        Ok(Ok(events)) => events,
        Ok(Err(InferError::BadRequest(message))) => {
            return GenAdmission::Plain(error_body(400, &message))
        }
        Ok(Err(InferError::DeadlineExceeded(message))) => {
            return GenAdmission::Plain(shed_response(shared, 504, "deadline", &message))
        }
        Ok(Err(InferError::Unavailable(message))) => {
            return GenAdmission::Plain(error_body(503, &message))
        }
        Err(_panic) => {
            return GenAdmission::Plain(error_body(503, "generation backend is unavailable"))
        }
    };
    // The slot rides inside the stream state from here on: dropping the
    // stream (client gone, engine done) releases the admission slot.
    GenAdmission::Stream(StreamState { events, slot, span, trace: ctx.map(|c| c.trace) })
}

/// Classify the first event of an admitted stream: an engine-side
/// rejection that produced no tokens becomes a proper HTTP error instead
/// of a `200` stream that instantly fails. `None` means commit to the
/// `200` chunked stream (a 0-token eos/length stream is still a valid,
/// empty stream).
fn classify_first_event(first: &TokenEvent, shared: &ServerShared) -> Option<Response> {
    if let TokenEvent::Done { finish, tokens: 0 } = first {
        return reject_response(finish, shared);
    }
    None
}

/// The typed rejection for a fatal zero-token finish; `None` for the
/// non-fatal finishes.
fn reject_response(finish: &FinishReason, shared: &ServerShared) -> Option<Response> {
    match finish {
        FinishReason::Deadline => {
            Some(shed_response(shared, 504, "deadline", "deadline expired before generation"))
        }
        FinishReason::OutOfPages => {
            Some(shed_response(shared, 429, "capacity", "KV-cache pages exhausted; retry later"))
        }
        FinishReason::Rejected => Some(error_body(
            400,
            "prompt cannot be served (longer than the context window or KV \
             arena, or contains out-of-vocabulary token ids)",
        )),
        // A 0-token eos/length stream is still a valid (empty) stream.
        FinishReason::Eos | FinishReason::Length => None,
    }
}

/// The committed `200` chunked-stream response head. Streams always close
/// the connection — chunk framing ends the body, and keep-alive buys
/// nothing after a generation-length exchange.
fn stream_head(trace: Option<TraceId>) -> String {
    let mut head = String::from(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n",
    );
    if let Some(trace) = trace {
        head.push_str(&format!("x-tt-trace-id: {trace}\r\n"));
    }
    head.push_str("Connection: close\r\n\r\n");
    head
}

/// `GET /v1/traces/<id>`: the span tree of one sampled request as JSON.
fn traces_route(path: &str, shared: &ServerShared) -> Response {
    let id = path.trim_start_matches("/v1/traces/");
    let Some(trace) = TraceId::parse(id) else {
        return error_body(400, &format!("'{id}' is not a trace id (up to 16 hex digits)"));
    };
    let spans = shared.tracer.spans_of(trace);
    if spans.is_empty() {
        return error_body(
            404,
            &format!("no spans recorded for trace {trace} (unsampled, expired, or never seen)"),
        );
    }
    json_response(200, trace_tree_json(trace, &spans))
}

fn json_response(status: u16, json: String) -> Response {
    (status, "application/json".to_string(), json.into_bytes(), Vec::new())
}

fn error_body(status: u16, message: &str) -> Response {
    let json = format!("{{\"error\":{}}}", json_escape(message));
    json_response(status, json)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialize a response head (both drivers write the identical bytes).
fn render_head(
    status: u16,
    content_type: &str,
    body_len: usize,
    extra_headers: &[(String, String)],
    close: bool,
) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        status_reason(status),
        content_type,
        body_len
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    head
}
