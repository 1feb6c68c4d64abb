//! Iteration-level (continuous) batching for generative decoding.
//!
//! The [`live`](crate::live) engine batches at *request* granularity: a
//! batch is formed, executed once, and every member completes together.
//! Generative decoding makes that shape pathological — a 5-token answer
//! would wait for the 200-token answer sharing its batch. This engine
//! reschedules at **token boundaries** instead, the Orca/vLLM idiom:
//!
//! 1. each engine iteration runs one decode step for every active
//!    sequence;
//! 2. waiting prompts are admitted between iterations under a *page-budget*
//!    check against the paged KV arena (plus the PR 5 deadline machinery:
//!    a prompt whose prefill cannot fit its deadline — estimated from the
//!    [`CachedCost`] table — is expired with a typed event, never run);
//! 3. sequences that finish (EOS, length cap, deadline expiry, page
//!    exhaustion) are retired *in the same iteration*, their pages going
//!    back to the free list before the next admission check.
//!
//! Tokens are streamed: every generated token is delivered through a
//! per-request channel as a [`TokenEvent`], and every stream ends with a
//! terminal [`TokenEvent::Done`] carrying a [`FinishReason`] — including
//! on deadline expiry and mid-decode page exhaustion, so a client never
//! hangs on a retired sequence.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};

use tt_model::gpt::Gpt;
use tt_runtime::decode::{DecodeConfig, DecodeEnergyModel, GenerativeRuntime};
use tt_telemetry::{AttrValue, Counter, Gauge, Histogram, Registry, SpanContext, Tracer};

use crate::config::{knob, knob_opt, process_env, Lookup};
use crate::cost_table::CachedCost;
use crate::deadline::Deadline;

/// Engine shape, overridable from the environment (`TT_GEN_*` for the
/// scheduler, `TT_KV_*` for the arena; see [`GenConfig::from_env`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Arena sizing (page slots, page count).
    pub kv: DecodeConfig,
    /// Maximum sequences decoded per iteration (`TT_GEN_MAX_ACTIVE`).
    pub max_active: usize,
    /// Server-side cap on `max_new_tokens` (`TT_GEN_MAX_NEW_TOKENS`).
    pub max_new_tokens: usize,
    /// Token id that terminates generation (`TT_GEN_EOS`; generation
    /// relies on the length cap when `None`).
    pub eos_token: Option<u32>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            kv: DecodeConfig::default(),
            max_active: 8,
            max_new_tokens: 64,
            eos_token: None,
        }
    }
}

impl GenConfig {
    /// Defaults overridden by `TT_KV_PAGE_SLOTS`, `TT_KV_PAGES`,
    /// `TT_GEN_MAX_ACTIVE`, `TT_GEN_MAX_NEW_TOKENS` and `TT_GEN_EOS`.
    ///
    /// # Panics
    ///
    /// On a set but unparsable knob (see [`crate::config`]).
    pub fn from_env() -> Self {
        Self::from_lookup(&process_env)
    }

    /// [`from_env`](Self::from_env) over any knob source.
    pub fn from_lookup(lookup: Lookup<'_>) -> Self {
        let d = GenConfig::default();
        GenConfig {
            kv: DecodeConfig {
                page_slots: knob(lookup, "TT_KV_PAGE_SLOTS", d.kv.page_slots).max(1),
                num_pages: knob(lookup, "TT_KV_PAGES", d.kv.num_pages).max(1),
            },
            max_active: knob(lookup, "TT_GEN_MAX_ACTIVE", d.max_active).max(1),
            max_new_tokens: knob(lookup, "TT_GEN_MAX_NEW_TOKENS", d.max_new_tokens).max(1),
            eos_token: knob_opt(lookup, "TT_GEN_EOS"),
        }
    }
}

/// Why a stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The EOS token was generated.
    Eos,
    /// `max_new_tokens` (or the model's context limit) was reached.
    Length,
    /// The deadline expired — while waiting, or mid-generation. The
    /// sequence's pages were reclaimed the same iteration.
    Deadline,
    /// The KV arena (or the `kv_alloc_fail` chaos point) refused a page
    /// mid-generation; the sequence's pages were reclaimed.
    OutOfPages,
    /// The request could never run (prompt longer than the arena or the
    /// model's context window).
    Rejected,
}

impl FinishReason {
    /// Wire label, as emitted in the terminal streaming event.
    pub fn as_str(&self) -> &'static str {
        match self {
            FinishReason::Eos => "eos",
            FinishReason::Length => "length",
            FinishReason::Deadline => "deadline",
            FinishReason::OutOfPages => "out_of_pages",
            FinishReason::Rejected => "rejected",
        }
    }

    /// Whether the stream ended without completing normally (the HTTP
    /// layer marks these terminal events as errors).
    pub fn is_error(&self) -> bool {
        matches!(self, FinishReason::Deadline | FinishReason::OutOfPages | FinishReason::Rejected)
    }
}

/// One event on a generation stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenEvent {
    /// The `index`-th generated token (0-based; index 0 is the
    /// time-to-first-token moment).
    Token {
        /// 0-based position among generated tokens.
        index: usize,
        /// The token id.
        token: u32,
    },
    /// Terminal event: the stream is complete, no further events follow.
    Done {
        /// Why generation stopped.
        finish: FinishReason,
        /// Tokens generated before stopping.
        tokens: usize,
    },
}

/// Why a submission was not accepted at all (no stream was created).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenError {
    /// The engine thread is gone.
    Unavailable,
}

struct GenJob {
    prompt: Vec<u32>,
    max_new_tokens: usize,
    submitted: Instant,
    deadline: Option<Deadline>,
    trace: Option<SpanContext>,
    events: Sender<TokenEvent>,
}

/// A sequence currently holding arena pages and decoding one token per
/// iteration.
struct ActiveSeq {
    seq: tt_alloc::KvSeq,
    events: Sender<TokenEvent>,
    deadline: Option<Deadline>,
    trace: Option<SpanContext>,
    prompt_len: usize,
    last_token: u32,
    generated: usize,
    max_new: usize,
}

/// Decode-path metric family (satellite: `decode_tokens_total`, `ttft_ms`,
/// `batch_active_seqs`; the `kv_*` gauges and the per-op `executor_*`
/// family come from [`GenerativeRuntime::instrument`]).
#[derive(Debug, Clone)]
struct GenMetrics {
    decode_tokens: Arc<Counter>,
    ttft_ms: Arc<Histogram>,
    batch_active: Arc<Histogram>,
    requests: Arc<Counter>,
    iterations: Arc<Counter>,
    waiting_depth: Arc<Gauge>,
    deadline_admit: Arc<Counter>,
    deadline_decode: Arc<Counter>,
}

impl GenMetrics {
    fn register(registry: &Registry) -> Self {
        GenMetrics {
            decode_tokens: registry.counter(
                "decode_tokens_total",
                "Tokens generated by the continuous-batching decode engine",
                &[],
            ),
            ttft_ms: registry.histogram(
                "ttft_ms",
                "Time-to-first-token per generation request, milliseconds",
                &[],
            ),
            batch_active: registry.histogram(
                "batch_active_seqs",
                "Active sequences per engine iteration",
                &[],
            ),
            requests: registry.counter(
                "gen_requests_total",
                "Generation requests accepted by the engine",
                &[],
            ),
            iterations: registry.counter(
                "gen_iterations_total",
                "Continuous-batching engine iterations executed",
                &[],
            ),
            waiting_depth: registry.gauge(
                "gen_waiting_depth",
                "Prompts waiting for page-budget admission",
                &[],
            ),
            deadline_admit: registry.counter(
                "deadline_exceeded_total",
                "Requests dropped because their deadline expired, by stage boundary",
                &[("stage", "gen_admit")],
            ),
            deadline_decode: registry.counter(
                "deadline_exceeded_total",
                "Requests dropped because their deadline expired, by stage boundary",
                &[("stage", "gen_decode")],
            ),
        }
    }
}

/// Handle for submitting generation requests to a running [`GenEngine`].
#[derive(Clone)]
pub struct GenClient {
    tx: Sender<GenJob>,
}

impl GenClient {
    /// Submit a prompt; returns the event stream. Tokens arrive as the
    /// engine generates them; the stream always ends with
    /// [`TokenEvent::Done`].
    pub fn generate(
        &self,
        prompt: Vec<u32>,
        max_new_tokens: usize,
    ) -> Result<Receiver<TokenEvent>, GenError> {
        self.generate_request(prompt, max_new_tokens, None, None)
    }

    /// [`generate`](Self::generate) with a sampled trace context and an
    /// end-to-end deadline. Expiry — in the waiting queue or
    /// mid-generation — ends the stream with a terminal
    /// [`FinishReason::Deadline`] event; the stream never hangs.
    pub fn generate_request(
        &self,
        prompt: Vec<u32>,
        max_new_tokens: usize,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<Receiver<TokenEvent>, GenError> {
        let (events_tx, events_rx) = unbounded();
        self.tx
            .send(GenJob {
                prompt,
                max_new_tokens,
                submitted: Instant::now(),
                deadline,
                trace,
                events: events_tx,
            })
            .map_err(|_| GenError::Unavailable)?;
        Ok(events_rx)
    }

    /// Collect one stream to completion: the generated tokens and the
    /// finish reason. Convenience for tests and benches.
    pub fn collect(rx: &Receiver<TokenEvent>) -> (Vec<u32>, Option<FinishReason>) {
        let mut tokens = Vec::new();
        let mut finish = None;
        for ev in rx.iter() {
            match ev {
                TokenEvent::Token { token, .. } => tokens.push(token),
                TokenEvent::Done { finish: f, .. } => {
                    finish = Some(f);
                    break;
                }
            }
        }
        (tokens, finish)
    }
}

/// End-of-life accounting returned by [`GenEngine::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSummary {
    /// Streams that received a terminal event.
    pub completed: usize,
    /// Arena pages still held at exit — must be zero (leak check).
    pub pages_leaked: usize,
    /// Largest per-iteration active-sequence count observed.
    pub max_active_observed: usize,
}

/// The running continuous-batching engine: owns the decode thread (and
/// through it the model + paged arena).
pub struct GenEngine {
    client: Option<GenClient>,
    handle: Option<JoinHandle<GenSummary>>,
}

impl GenEngine {
    /// Start an engine decoding `model` with the given scheduler shape and
    /// cost table (prefill feasibility against deadlines, exactly as the
    /// batch engine uses it).
    pub fn start(model: Gpt, config: GenConfig, costs: Arc<CachedCost>) -> Self {
        Self::start_inner(model, config, costs, None, Tracer::disabled())
    }

    /// [`start`](Self::start), reporting the decode metric family
    /// (`decode_tokens_total`, `ttft_ms`, `batch_active_seqs`, `kv_*`
    /// gauges, step timings) into `registry`.
    pub fn start_instrumented(
        model: Gpt,
        config: GenConfig,
        costs: Arc<CachedCost>,
        registry: &Registry,
    ) -> Self {
        Self::start_traced(model, config, costs, registry, Tracer::disabled())
    }

    /// [`start_instrumented`](Self::start_instrumented), additionally
    /// recording per-request prefill and per-iteration decode spans for
    /// jobs that arrive with a span context.
    pub fn start_traced(
        model: Gpt,
        config: GenConfig,
        costs: Arc<CachedCost>,
        registry: &Registry,
        tracer: Tracer,
    ) -> Self {
        start_engine(model, config, costs, Some(registry), tracer)
    }

    fn start_inner(
        model: Gpt,
        config: GenConfig,
        costs: Arc<CachedCost>,
        metrics: Option<GenMetrics>,
        tracer: Tracer,
    ) -> Self {
        let mut rt = GenerativeRuntime::new(model, config.kv);
        let (tx, rx): (Sender<GenJob>, Receiver<GenJob>) = unbounded();
        let handle = std::thread::Builder::new()
            .name("tt-gen-engine".into())
            .spawn(move || engine_loop(rx, &mut rt, &config, &costs, metrics.as_ref(), &tracer))
            .expect("spawning the generation engine thread");
        GenEngine { client: Some(GenClient { tx }), handle: Some(handle) }
    }

    /// A client handle (cheaply cloneable, usable from many threads).
    pub fn client(&self) -> GenClient {
        self.client.as_ref().expect("engine not shut down").clone()
    }

    /// Shut down: stop accepting jobs, finish every active sequence, join
    /// the thread.
    pub fn shutdown(mut self) -> GenSummary {
        self.client.take();
        let handle = self.handle.take().expect("shutdown runs once");
        handle.join().expect("generation engine thread exits cleanly")
    }

    /// Dismantle into raw parts for a caller that manages teardown itself
    /// (the fleet supervisor): dropping every clone of the client ends the
    /// loop, and joining the handle yields the leak-checked
    /// [`GenSummary`]. The caller takes over the
    /// [`shutdown`](Self::shutdown) obligation.
    pub fn into_parts(mut self) -> GenParts {
        let client = self.client.take().expect("engine not shut down");
        let handle = self.handle.take().expect("engine not shut down");
        GenParts { client, handle }
    }
}

/// The raw pieces of a running generation engine (see
/// [`GenEngine::into_parts`]).
pub struct GenParts {
    /// Submission handle.
    pub client: GenClient,
    /// Join handle; resolves to the engine's exit summary.
    pub handle: JoinHandle<GenSummary>,
}

impl Drop for GenEngine {
    fn drop(&mut self) {
        self.client.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Start an instrumented engine whose arena gauges and step-timing
/// histograms are also registered. Split from [`GenEngine::start_traced`]
/// because the runtime must be instrumented *before* it moves into the
/// engine thread.
pub fn start_engine(
    model: Gpt,
    config: GenConfig,
    costs: Arc<CachedCost>,
    registry: Option<&Registry>,
    tracer: Tracer,
) -> GenEngine {
    start_engine_with_energy(model, config, costs, registry, tracer, None)
}

/// [`start_engine`], additionally attaching an energy model to the decode
/// runtime: prefills charge the meter's prefill phase, token steps charge
/// decode, and traced `prefill` / `decode_iter` spans carry an `energy_uj`
/// attribute. The caller keeps a clone of the meter `Arc` to feed a
/// [`tt_telemetry::ModeledPowerSource`] + sampler.
pub fn start_engine_with_energy(
    model: Gpt,
    config: GenConfig,
    costs: Arc<CachedCost>,
    registry: Option<&Registry>,
    tracer: Tracer,
    energy: Option<DecodeEnergyModel>,
) -> GenEngine {
    let mut rt = GenerativeRuntime::new(model, config.kv);
    if let Some(e) = energy {
        rt.instrument_energy(e);
    }
    let metrics = registry.map(|r| {
        rt.instrument(r);
        GenMetrics::register(r)
    });
    let (tx, rx): (Sender<GenJob>, Receiver<GenJob>) = unbounded();
    let handle = std::thread::Builder::new()
        .name("tt-gen-engine".into())
        .spawn(move || engine_loop(rx, &mut rt, &config, &costs, metrics.as_ref(), &tracer))
        .expect("spawning the generation engine thread");
    GenEngine { client: Some(GenClient { tx }), handle: Some(handle) }
}

/// Retire `active`, emitting the terminal event and freeing its pages.
fn finish_seq(
    rt: &mut GenerativeRuntime,
    active: ActiveSeq,
    finish: FinishReason,
    metrics: Option<&GenMetrics>,
) {
    let _ = rt.release(active.seq);
    if finish == FinishReason::Deadline {
        if let Some(m) = metrics {
            m.deadline_decode.inc();
        }
    }
    let _ = active.events.send(TokenEvent::Done { finish, tokens: active.generated });
}

/// The iteration loop. One pass = expire + admit + one decode step for
/// every active sequence; repeat until the submission channel closes and
/// every sequence has retired.
fn engine_loop(
    rx: Receiver<GenJob>,
    rt: &mut GenerativeRuntime,
    config: &GenConfig,
    costs: &CachedCost,
    metrics: Option<&GenMetrics>,
    tracer: &Tracer,
) -> GenSummary {
    let mut pending: VecDeque<GenJob> = VecDeque::new();
    let mut active: Vec<ActiveSeq> = Vec::new();
    let mut completed = 0usize;
    let mut max_active_observed = 0usize;
    let max_position = rt.model().config.max_position;
    let vocab_size = rt.model().config.vocab_size;

    loop {
        // Block only when fully idle; at token boundaries the drain is
        // non-blocking so decode never stalls on the channel.
        if active.is_empty() && pending.is_empty() {
            match rx.recv() {
                Ok(job) => pending.push_back(job),
                Err(_) => break,
            }
        }
        while let Ok(job) = rx.try_recv() {
            pending.push_back(job);
        }

        // Expire waiting prompts whose deadline already passed — typed
        // terminal event, never a silent drop (the PR 5 invariant).
        pending.retain(|job| {
            if job.deadline.is_some_and(|d| d.expired()) {
                if let Some(m) = metrics {
                    m.deadline_admit.inc();
                }
                let _ =
                    job.events.send(TokenEvent::Done { finish: FinishReason::Deadline, tokens: 0 });
                completed += 1;
                false
            } else {
                true
            }
        });

        // Admission at the token boundary: FIFO, bounded by `max_active`
        // and the page budget. A prompt that can *never* be served —
        // arena or context window too small, or an out-of-vocabulary id
        // that would assert inside the embedding — is rejected outright
        // rather than blocking the queue (or killing the engine thread).
        while active.len() < config.max_active {
            let Some(job) = pending.front() else { break };
            let prompt_len = job.prompt.len();
            let arena_cfg = *rt.arena().config();
            if prompt_len == 0
                || prompt_len + 1 > max_position
                || arena_cfg.pages_for(prompt_len + 1) > arena_cfg.num_pages
                || job.prompt.iter().any(|&t| t as usize >= vocab_size)
            {
                let job = pending.pop_front().expect("front exists");
                let _ =
                    job.events.send(TokenEvent::Done { finish: FinishReason::Rejected, tokens: 0 });
                completed += 1;
                continue;
            }
            // Deadline feasibility: if the prefill alone (cost-table
            // estimate) cannot fit the remaining budget, serving it late
            // helps nobody — expire it now, before it holds pages.
            if let Some(d) = job.deadline {
                let est = std::time::Duration::from_secs_f64(
                    costs.single_request_estimate(prompt_len).max(0.0),
                );
                if d.remaining().is_none_or(|rem| rem < est) {
                    let job = pending.pop_front().expect("front exists");
                    if let Some(m) = metrics {
                        m.deadline_admit.inc();
                    }
                    let _ = job
                        .events
                        .send(TokenEvent::Done { finish: FinishReason::Deadline, tokens: 0 });
                    completed += 1;
                    continue;
                }
            }
            // Page budget: head-of-line blocking is deliberate (FIFO
            // fairness); the next retirement frees pages this same loop.
            if !rt.can_admit(prompt_len) {
                break;
            }
            let job = pending.pop_front().expect("front exists");
            let seq = match rt.admit(prompt_len) {
                Ok(seq) => seq,
                Err(_) => {
                    // Raced with chaos (`kv_alloc_fail`): typed terminal
                    // event, no pages held.
                    let _ = job
                        .events
                        .send(TokenEvent::Done { finish: FinishReason::OutOfPages, tokens: 0 });
                    completed += 1;
                    continue;
                }
            };
            let prefill_start = tracer.now_ns();
            let watch = Instant::now();
            let logits = match rt.prefill(seq, &job.prompt) {
                Ok(logits) => logits,
                Err(_) => {
                    let _ = rt.release(seq);
                    let _ = job
                        .events
                        .send(TokenEvent::Done { finish: FinishReason::OutOfPages, tokens: 0 });
                    completed += 1;
                    continue;
                }
            };
            costs.observe(prompt_len, 1, watch.elapsed().as_secs_f64());
            if let Some(ctx) = job.trace {
                tracer.record_span(
                    ctx.trace,
                    Some(ctx.span),
                    "prefill",
                    prefill_start,
                    tracer.now_ns().saturating_sub(prefill_start),
                    vec![
                        ("prompt_len", AttrValue::Int(prompt_len as i64)),
                        ("energy_uj", AttrValue::Int(rt.last_energy_uj() as i64)),
                    ],
                );
            }
            // Deadline may have expired *during* the prefill: pages must
            // still come back and the stream must still terminate.
            if job.deadline.is_some_and(|d| d.expired()) {
                let _ = rt.release(seq);
                if let Some(m) = metrics {
                    m.deadline_decode.inc();
                }
                let _ =
                    job.events.send(TokenEvent::Done { finish: FinishReason::Deadline, tokens: 0 });
                completed += 1;
                continue;
            }
            let first = tt_tensor::ops::argmax(&logits).expect("non-empty vocab") as u32;
            if let Some(m) = metrics {
                m.requests.inc();
                m.ttft_ms.record((job.submitted.elapsed().as_millis() as u64).max(1));
            }
            if job.events.send(TokenEvent::Token { index: 0, token: first }).is_err() {
                // Client gone before its first token: retire silently.
                let _ = rt.release(seq);
                completed += 1;
                continue;
            }
            if let Some(m) = metrics {
                m.decode_tokens.inc();
            }
            let max_new = job.max_new_tokens.clamp(1, config.max_new_tokens);
            let seq_state = ActiveSeq {
                seq,
                events: job.events,
                deadline: job.deadline,
                trace: job.trace,
                prompt_len,
                last_token: first,
                generated: 1,
                max_new,
            };
            // The first token may already satisfy a stop condition.
            if config.eos_token == Some(first) {
                finish_seq(rt, seq_state, FinishReason::Eos, metrics);
                completed += 1;
            } else if seq_state.generated >= max_new
                || prompt_len + seq_state.generated + 1 > max_position
            {
                finish_seq(rt, seq_state, FinishReason::Length, metrics);
                completed += 1;
            } else {
                active.push(seq_state);
            }
        }

        if active.is_empty() {
            continue;
        }
        max_active_observed = max_active_observed.max(active.len());
        if let Some(m) = metrics {
            m.iterations.inc();
            m.batch_active.record(active.len() as u64);
            m.waiting_depth.set(pending.len() as f64);
        }

        // One decode step for every active sequence. `drain` + rebuild
        // keeps retirement-in-iteration trivial.
        let iter_start = tracer.now_ns();
        let mut still_active = Vec::with_capacity(active.len());
        let batch_now = active.len();
        for mut s in active.drain(..) {
            if s.deadline.is_some_and(|d| d.expired()) {
                finish_seq(rt, s, FinishReason::Deadline, metrics);
                completed += 1;
                continue;
            }
            let logits = match rt.decode_step(s.seq, s.last_token) {
                Ok(logits) => logits,
                Err(_) => {
                    finish_seq(rt, s, FinishReason::OutOfPages, metrics);
                    completed += 1;
                    continue;
                }
            };
            let token = tt_tensor::ops::argmax(&logits).expect("non-empty vocab") as u32;
            let index = s.generated;
            if s.events.send(TokenEvent::Token { index, token }).is_err() {
                // Client disconnected mid-stream: free the pages now.
                let _ = rt.release(s.seq);
                completed += 1;
                continue;
            }
            s.generated += 1;
            s.last_token = token;
            if let Some(m) = metrics {
                m.decode_tokens.inc();
            }
            if let Some(ctx) = s.trace {
                tracer.record_span(
                    ctx.trace,
                    Some(ctx.span),
                    "decode_iter",
                    iter_start,
                    tracer.now_ns().saturating_sub(iter_start),
                    vec![
                        ("index", AttrValue::Int(index as i64)),
                        ("batch_active", AttrValue::Int(batch_now as i64)),
                        ("energy_uj", AttrValue::Int(rt.last_energy_uj() as i64)),
                    ],
                );
            }
            if config.eos_token == Some(token) {
                finish_seq(rt, s, FinishReason::Eos, metrics);
                completed += 1;
            } else if s.generated >= s.max_new || s.prompt_len + s.generated + 1 > max_position {
                finish_seq(rt, s, FinishReason::Length, metrics);
                completed += 1;
            } else {
                still_active.push(s);
            }
        }
        active = still_active;
    }

    GenSummary { completed, pages_leaked: rt.arena().pages_in_use(), max_active_observed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_model::gpt::GptConfig;

    fn costs() -> Arc<CachedCost> {
        Arc::new(CachedCost::from_fn(64, 8, 8, |len, b| 1.0e-4 + 1.0e-6 * (len * b) as f64))
    }

    fn config() -> GenConfig {
        GenConfig {
            kv: DecodeConfig { page_slots: 4, num_pages: 32 },
            max_active: 4,
            max_new_tokens: 16,
            eos_token: None,
        }
    }

    #[test]
    fn engine_matches_serial_greedy_generation() {
        let model = Gpt::new_random(&GptConfig::tiny(), 31);
        let expect = model.generate_greedy(&[1, 2, 3], 8);
        let eng = GenEngine::start(model, config(), costs());
        let rx = eng.client().generate(vec![1, 2, 3], 8).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert_eq!(tokens, expect, "continuous batching must not change the math");
        assert_eq!(finish, Some(FinishReason::Length));
        let summary = eng.shutdown();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.pages_leaked, 0);
    }

    #[test]
    fn concurrent_mixed_length_requests_share_iterations() {
        // On a single-core box the engine thread can win the race and
        // fully decode the first stream before the later submissions
        // land, so the concurrency assertion gets a few attempts;
        // correctness stays strict on every attempt.
        let mut max_active = 0;
        for _ in 0..3 {
            let model = Gpt::new_random(&GptConfig::tiny(), 32);
            let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![7, 8], vec![4, 9, 13, 2]];
            let wants: Vec<usize> = vec![12, 4, 8];
            let expects: Vec<Vec<u32>> =
                prompts.iter().zip(&wants).map(|(p, &n)| model.generate_greedy(p, n)).collect();
            let eng = GenEngine::start(model, config(), costs());
            let streams: Vec<_> = prompts
                .iter()
                .zip(&wants)
                .map(|(p, &n)| eng.client().generate(p.clone(), n).unwrap())
                .collect();
            for (rx, expect) in streams.iter().zip(&expects) {
                let (tokens, finish) = GenClient::collect(rx);
                assert_eq!(&tokens, expect);
                assert_eq!(finish, Some(FinishReason::Length));
            }
            let summary = eng.shutdown();
            assert_eq!(summary.completed, 3);
            assert_eq!(summary.pages_leaked, 0);
            max_active = max_active.max(summary.max_active_observed);
            if max_active >= 2 {
                return;
            }
        }
        panic!("requests never decoded in the same iterations (max active {max_active})");
    }

    #[test]
    fn eos_token_retires_a_sequence_early() {
        let model = Gpt::new_random(&GptConfig::tiny(), 33);
        let serial = model.generate_greedy(&[1, 2, 3], 16);
        // Pick the 3rd generated token as "EOS" so the engine must stop at
        // index 2 with reason Eos.
        let eos = serial[2];
        assert!(!serial[..2].contains(&eos), "test needs a first occurrence at index 2");
        let cfg = GenConfig { eos_token: Some(eos), ..config() };
        let eng = GenEngine::start(model, cfg, costs());
        let rx = eng.client().generate(vec![1, 2, 3], 16).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert_eq!(tokens, serial[..3].to_vec());
        assert_eq!(finish, Some(FinishReason::Eos));
        assert_eq!(eng.shutdown().pages_leaked, 0);
    }

    #[test]
    fn expired_deadline_yields_terminal_event_not_a_hang() {
        let model = Gpt::new_random(&GptConfig::tiny(), 34);
        let eng = GenEngine::start(model, config(), costs());
        let dead = Deadline::at(Instant::now());
        let rx = eng.client().generate_request(vec![1, 2, 3], 8, None, Some(dead)).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert!(tokens.is_empty());
        assert_eq!(finish, Some(FinishReason::Deadline));
        // A live deadline sails through.
        let live = Deadline::within(std::time::Duration::from_secs(30));
        let rx = eng.client().generate_request(vec![1, 2, 3], 4, None, Some(live)).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert_eq!(tokens.len(), 4);
        assert_eq!(finish, Some(FinishReason::Length));
        assert_eq!(eng.shutdown().pages_leaked, 0);
    }

    #[test]
    fn oversized_prompt_is_rejected_with_a_typed_event() {
        let model = Gpt::new_random(&GptConfig::tiny(), 35);
        // Arena of 2 pages × 2 slots can never hold a 6-token prompt.
        let cfg = GenConfig { kv: DecodeConfig { page_slots: 2, num_pages: 2 }, ..config() };
        let eng = GenEngine::start(model, cfg, costs());
        let rx = eng.client().generate(vec![1, 2, 3, 4, 5, 6], 4).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert!(tokens.is_empty());
        assert_eq!(finish, Some(FinishReason::Rejected));
        // A prompt that fits still serves.
        let rx = eng.client().generate(vec![1, 2], 1).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert_eq!(tokens.len(), 1);
        assert_eq!(finish, Some(FinishReason::Length));
        assert_eq!(eng.shutdown().pages_leaked, 0);
    }

    #[test]
    fn out_of_vocabulary_prompt_is_rejected_not_an_engine_panic() {
        // Regression: an id past the embedding table used to assert inside
        // the engine thread, killing generation for every later request.
        let model = Gpt::new_random(&GptConfig::tiny(), 38);
        let vocab = model.config.vocab_size as u32;
        let eng = GenEngine::start(model, config(), costs());
        let rx = eng.client().generate(vec![1, vocab, 2], 4).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert!(tokens.is_empty());
        assert_eq!(finish, Some(FinishReason::Rejected));
        // The engine thread survived and still serves.
        let rx = eng.client().generate(vec![1, 2], 2).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert_eq!(tokens.len(), 2);
        assert_eq!(finish, Some(FinishReason::Length));
        assert_eq!(eng.shutdown().pages_leaked, 0);
    }

    #[test]
    fn page_exhaustion_mid_decode_frees_pages_and_engine_keeps_serving() {
        let model = Gpt::new_random(&GptConfig::tiny(), 36);
        // 3 pages × 2 slots: a 4-token prompt reserves 2 pages, decode
        // claims the 3rd at token 7, and the 4th allocation fails.
        let cfg = GenConfig {
            kv: DecodeConfig { page_slots: 2, num_pages: 3 },
            max_active: 1,
            ..config()
        };
        let eng = GenEngine::start(model, cfg, costs());
        let rx = eng.client().generate(vec![1, 2, 3, 4], 16).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert_eq!(finish, Some(FinishReason::OutOfPages));
        assert!(!tokens.is_empty(), "some tokens streamed before exhaustion");
        // The freed pages serve the next request.
        let rx = eng.client().generate(vec![1, 2], 2).unwrap();
        let (tokens, finish) = GenClient::collect(&rx);
        assert_eq!(tokens.len(), 2);
        assert_eq!(finish, Some(FinishReason::Length));
        assert_eq!(eng.shutdown().pages_leaked, 0);
    }

    #[test]
    fn energy_instrumented_engine_charges_both_phases() {
        use tt_telemetry::{EnergyMeter, EnergyPhase};
        let registry = Registry::new();
        let meter = Arc::new(EnergyMeter::new());
        let model = Gpt::new_random(&GptConfig::tiny(), 39);
        let eng = start_engine_with_energy(
            model,
            config(),
            costs(),
            Some(&registry),
            Tracer::disabled(),
            Some(DecodeEnergyModel {
                device: tt_gpusim::device::DeviceKind::V100.config(),
                profile: tt_runtime::RuntimeKind::Turbo.profile(),
                meter: Arc::clone(&meter),
            }),
        );
        let rx = eng.client().generate(vec![1, 2, 3], 6).unwrap();
        let (tokens, _) = GenClient::collect(&rx);
        assert_eq!(tokens.len(), 6);
        assert_eq!(eng.shutdown().pages_leaked, 0);
        let prefill = meter.phase_uj(EnergyPhase::Prefill);
        let decode = meter.phase_uj(EnergyPhase::Decode);
        assert!(prefill > 0, "prompt prefill must charge the prefill phase");
        assert!(decode > 0, "token steps must charge the decode phase");
        assert_eq!(meter.busy_uj(), prefill + decode);
    }

    #[test]
    fn instrumented_engine_reports_decode_metric_family() {
        let registry = Registry::new();
        let model = Gpt::new_random(&GptConfig::tiny(), 37);
        let eng = start_engine(model, config(), costs(), Some(&registry), Tracer::disabled());
        let rx = eng.client().generate(vec![1, 2, 3], 6).unwrap();
        let (tokens, _) = GenClient::collect(&rx);
        assert_eq!(tokens.len(), 6);
        let summary = eng.shutdown();
        assert_eq!(summary.pages_leaked, 0);

        let snap = registry.snapshot();
        assert_eq!(snap.find("decode_tokens_total", &[]).unwrap().counter, Some(6));
        let ttft = snap.find("ttft_ms", &[]).unwrap().histogram.clone().unwrap();
        assert_eq!(ttft.count(), 1, "one TTFT observation per request");
        let batch = snap.find("batch_active_seqs", &[]).unwrap().histogram.clone().unwrap();
        assert!(batch.count() > 0);
        assert_eq!(snap.find("kv_pages_in_use", &[]).unwrap().gauge, Some(0.0));
        assert!(snap.find("kv_page_occupancy", &[]).is_some());
        assert!(snap.find("gen_requests_total", &[]).unwrap().counter.unwrap() >= 1);
        assert!(snap.find("prefill_us", &[]).is_some());
        assert!(snap.find("decode_step_us", &[]).is_some());
        // Every op a decode step runs lands in the executor's per-op family.
        let matmul = snap.find("executor_op_nanoseconds", &[("op", "matmul")]).unwrap();
        let matmul = matmul.histogram.as_ref().unwrap();
        assert!(matmul.count() > 0, "decode GEMMs must be timed");
        assert!(matmul.sum > 0);
    }
}
