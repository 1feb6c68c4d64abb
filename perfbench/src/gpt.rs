//! `gpt-stream`: the `serving_decode` GPT behind the in-process
//! continuous-batching engine.
//!
//! Only this workload runs the generative path (`generate`, the paged KV
//! arena, and the GPT op interpreter); it does no encoder work. The steady
//! phase opens Poisson-timed streams; the burst phase submits a backlog of
//! streams at once and times how fast their tokens come out.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, TryRecvError};
use tt_model::gpt::{Gpt, GptConfig};
use tt_serving::generate::start_engine;
use tt_serving::{FinishReason, GenConfig, GenEngine, TokenEvent};
use tt_telemetry::{Gauge, Registry, Span, TraceId, Tracer};

use crate::bert::production_costs;
use crate::layers::{self, Reconciled, SpanIndex, ROOT};
use crate::schedule::{open_loop, tokens, uniform_int, OpenLoop, Plan, Prompt, Rng, Timed};
use crate::stats::{lower_quartile, median, Summary};
use crate::sys::{peak_rss_mb, process_cpu_s, Placement};
use crate::{wait_until, Metric, Outcome, Pacing, Phase};

/// The `serving_decode` decoder (4 layers, 4 heads of 16) with a 256-token
/// context, so prompt plus output always fits.
pub fn config() -> GptConfig {
    GptConfig {
        num_layers: 4,
        num_heads: 4,
        head_dim: 16,
        ffn_dim: 256,
        vocab_size: 512,
        max_position: 256,
        layer_norm_eps: 1e-5,
    }
}

const MODEL_SEED: u64 = 2024;
/// Steady stream arrival rate, well under the burst capacity.
const RATE: f64 = 40.0;
/// SLO limits: time to first token, and every gap between tokens.
const TTFT_LIMIT_MS: f64 = 50.0;
const GAP_LIMIT_MS: f64 = 25.0;
/// Burst backlog: four times the engine's 8 active sequences.
const BURST: usize = 32;
/// Polling period while a burst drains (a drain takes hundreds of ms).
const BURST_POLL: Duration = Duration::from_micros(500);
const STEADY_SHARE: f64 = 0.6;
const WARMUP: usize = 16;
/// Every Nth steady stream is compared with a reference generation.
const CHECK_EVERY: usize = 8;
/// Largest steady backlog (active plus waiting streams) an open loop at
/// this rate may leave.
const BACKLOG_MAX: usize = 24;

/// Prompts uniform on 4..=64 tokens, outputs uniform on 8..=64 tokens.
fn draw(rng: &mut Rng, u: &[f64]) -> Prompt {
    let prompt = tokens(rng, uniform_int(u[0], 4, 64), config().vocab_size);
    Prompt { prompt, max_new: uniform_int(u[1], 8, 64) }
}

struct Stack {
    engine: GenEngine,
    registry: Registry,
    pages: Arc<Gauge>,
}

/// Start the engine and time it until the first token of a fixed probe
/// stream arrives.
fn timed_start(tracer: &Tracer) -> (Stack, f64) {
    let t0 = Instant::now();
    let registry = Registry::new();
    let model = Gpt::new_random(&config(), MODEL_SEED);
    let costs = Arc::new(production_costs(64));
    let engine = start_engine(model, GenConfig::default(), costs, Some(&registry), tracer.clone());
    let first = engine.client().generate(crate::bert::probe(), 1);
    let answered = first.is_ok_and(|rx| matches!(rx.recv(), Ok(TokenEvent::Token { .. })));
    let took = t0.elapsed().as_secs_f64();
    assert!(answered, "the set-up probe stream produced no token");
    let pages = registry.gauge("kv_pages_in_use", "", &[]);
    (Stack { engine, registry, pages }, took)
}

/// One stream as the client saw it.
struct Stream {
    due_at: Instant,
    seen: Vec<Instant>,
    tokens: Vec<u32>,
    done: Option<(FinishReason, usize)>,
    trace: Option<TraceId>,
    root: Option<Span>,
    rx: Option<Receiver<TokenEvent>>,
}

impl Stream {
    fn open(engine: &GenEngine, tracer: &Tracer, p: &Prompt, due_at: Instant) -> Stream {
        let root = tracer.is_enabled().then(|| tracer.start_root(ROOT, true).expect("forced root"));
        let ctx = root.as_ref().map(|r| r.context());
        let rx = engine.client().generate_request(p.prompt.clone(), p.max_new, ctx, None).ok();
        Stream {
            due_at,
            seen: Vec::with_capacity(p.max_new),
            tokens: Vec::with_capacity(p.max_new),
            done: None,
            trace: ctx.map(|c| c.trace),
            root,
            rx,
        }
    }

    /// Take every event already delivered; returns whether the stream is
    /// still open.
    fn poll(&mut self) -> bool {
        let Some(rx) = &self.rx else { return false };
        loop {
            match rx.try_recv() {
                Ok(TokenEvent::Token { token, .. }) => {
                    self.seen.push(Instant::now());
                    self.tokens.push(token);
                }
                Ok(TokenEvent::Done { finish, tokens }) => {
                    self.done = Some((finish, tokens));
                    break;
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => break,
            }
        }
        self.rx = None;
        self.root = None; // the root ends when the client sees the stream end
        false
    }

    fn ttft_ms(&self) -> Option<f64> {
        self.seen.first().map(|t| (*t - self.due_at).as_secs_f64() * 1e3)
    }

    fn gaps_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.seen.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
    }
}

/// The open-loop steady phase; the client spins on its own CPU so token
/// arrivals are timestamped within microseconds.
fn steady(
    stack: &Stack,
    tracer: &Tracer,
    plan: &[Timed<Prompt>],
    kv_max: &mut f64,
) -> (Vec<Stream>, Pacing) {
    let mut streams: Vec<Stream> = Vec::with_capacity(plan.len());
    let mut open: Vec<usize> = Vec::new();
    let mut pacing = Pacing::default();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(plan[i].due);
    let mut last_poll: Option<Instant> = None;
    loop {
        while streams.len() < plan.len() && Instant::now() >= due(streams.len()) {
            let i = streams.len();
            let due_at = due(i);
            streams.push(Stream::open(&stack.engine, tracer, &plan[i].item, due_at));
            pacing.lateness_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
            open.push(i);
            if streams.len() == plan.len() {
                pacing.backlog_at_end = open.len();
            }
        }
        let now = Instant::now();
        if let Some(prev) = last_poll.replace(now) {
            pacing.poll_gap_ms.push((now - prev).as_secs_f64() * 1e3);
        }
        open.retain(|&i| streams[i].poll());
        *kv_max = kv_max.max(stack.pages.get());
        if open.is_empty() {
            if streams.len() == plan.len() {
                break;
            }
            wait_until(due(streams.len()));
            last_poll = None;
        } else {
            std::hint::spin_loop();
        }
    }
    (streams, pacing)
}

/// Open one backlog of streams at once and drain it; returns tokens per
/// second over the drain and the streams.
fn burst(
    stack: &Stack,
    tracer: &Tracer,
    backlog: &[Prompt],
    kv_max: &mut f64,
) -> (f64, Vec<Stream>) {
    let t0 = Instant::now();
    let mut streams: Vec<Stream> =
        backlog.iter().map(|p| Stream::open(&stack.engine, tracer, p, t0)).collect();
    // Only the drain's end matters here, so the client sleeps between
    // polls instead of blocking on a stream: a client blocked on a channel
    // must be woken for every token, and a wake-up across CPUs is an
    // inter-processor interrupt the engine pays for on each send.
    let mut open: Vec<usize> = (0..streams.len()).collect();
    while !open.is_empty() {
        std::thread::sleep(BURST_POLL);
        open.retain(|&i| streams[i].poll());
        *kv_max = kv_max.max(stack.pages.get());
    }
    let tokens: usize = streams.iter().map(|s| s.tokens.len()).sum();
    (tokens as f64 / t0.elapsed().as_secs_f64(), streams)
}

/// A stream is correct when it ends with `length` after exactly the
/// requested tokens and, when sampled, matches the reference generation.
fn check(s: &Stream, p: &Prompt, reference: Option<&Gpt>) -> Result<(), String> {
    match s.done {
        Some((FinishReason::Length, n)) if n == p.max_new && s.tokens.len() == n => {}
        other => {
            return Err(format!(
                "stream ended with {other:?} after {} of {} tokens",
                s.tokens.len(),
                p.max_new
            ))
        }
    }
    if let Some(model) = reference {
        let expect = model.generate_greedy(&p.prompt, p.max_new);
        if expect != s.tokens {
            return Err("greedy tokens differ from the reference generation".into());
        }
    }
    Ok(())
}

/// Run the workload for `seconds`, traced or not.
pub fn run(seed: u64, seconds: f64, traced: bool, place: &Placement) -> Outcome {
    let mut out = Outcome::default();
    let steady_s = seconds * STEADY_SHARE;
    let burst_budget = seconds - steady_s;
    let shape =
        OpenLoop { rate: RATE, steady_s, burst: BURST, bursts: (burst_budget * 10.0) as usize + 3 };
    let plan: Plan<Prompt> = open_loop(seed, shape, WARMUP, 2, draw);
    let tracer = if traced { layers::tracer() } else { Tracer::disabled() };

    place.release();
    let (stack, first) = timed_start(&tracer);
    let mut setups = vec![first];
    place.burst();
    for p in &plan.warmup {
        let rx = stack.engine.client().generate(p.prompt.clone(), p.max_new);
        let done = rx.map(|rx| tt_serving::GenClient::collect(&rx).1);
        out.check(done == Ok(Some(FinishReason::Length)), || "warm-up stream failed".into());
    }
    let kv_fail = |r: &Registry| r.counter("kv_alloc_failures_total", "", &[]).get();
    let kv_fail0 = kv_fail(&stack.registry);

    let mut kv_max = 0.0f64;
    place.steady();
    let (steady_streams, pacing) = steady(&stack, &tracer, &plan.steady, &mut kv_max);
    place.burst();
    let mut rates = Vec::new();
    let mut cpu_rates = Vec::new();
    let mut burst_streams = Vec::new();
    let t_burst = Instant::now();
    for backlog in &plan.bursts {
        if rates.len() >= 3 && t_burst.elapsed().as_secs_f64() >= burst_budget {
            break;
        }
        let cpu0 = process_cpu_s();
        let (rate, streams) = burst(&stack, &tracer, backlog, &mut kv_max);
        rates.push(rate);
        let toks: usize = streams.iter().map(|s| s.tokens.len()).sum();
        cpu_rates.push(toks as f64 / (process_cpu_s() - cpu0));
        burst_streams.push((backlog, streams));
    }
    let rss = peak_rss_mb();

    let reference = Gpt::new_random(&config(), MODEL_SEED);
    let (mut ttft, mut gaps) = (Vec::new(), Vec::new());
    let (mut ok, mut failed, mut attained) = (0u64, 0u64, 0u64);
    for (i, s) in steady_streams.iter().enumerate() {
        let sampled = (i % CHECK_EVERY == 0).then_some(&reference);
        match check(s, &plan.steady[i].item, sampled) {
            Ok(()) => {
                ok += 1;
                let t = s.ttft_ms().expect("a complete stream has a first token");
                ttft.push(t);
                let before = gaps.len();
                gaps.extend(s.gaps_ms());
                let worst_gap = gaps[before..].iter().copied().fold(0.0, f64::max);
                attained += u64::from(t <= TTFT_LIMIT_MS && worst_gap <= GAP_LIMIT_MS);
            }
            Err(e) => {
                failed += 1;
                out.wrong.push(format!("steady stream {i}: {e}"));
            }
        }
    }
    out.phases.push(Phase { name: "steady".into(), sent: steady_streams.len() as u64, ok, failed });
    let (mut bsent, mut bok, mut bfailed) = (0u64, 0u64, 0u64);
    let mut out_of_pages = 0u64;
    for (backlog, streams) in &burst_streams {
        for (j, s) in streams.iter().enumerate() {
            bsent += 1;
            match check(s, &backlog[j], (j == 0).then_some(&reference)) {
                Ok(()) => bok += 1,
                Err(e) => {
                    bfailed += 1;
                    out.wrong.push(format!("burst stream {j}: {e}"));
                }
            }
        }
    }
    for s in steady_streams.iter().chain(burst_streams.iter().flat_map(|(_, s)| s)) {
        out_of_pages += u64::from(matches!(s.done, Some((FinishReason::OutOfPages, _))));
    }
    out.phases.push(Phase { name: "burst".into(), sent: bsent, ok: bok, failed: bfailed });

    let ttft_s = Summary::of(&ttft);
    let gap_s = Summary::of(&gaps);
    out.report_latency("ttft", &ttft_s);
    out.report_latency("itl", &gap_s);
    let p50 = ttft_s.as_ref().map_or(f64::NAN, |s| s.p50);
    let slo = attained as f64 / steady_streams.len().max(1) as f64;
    let capacity = median(&rates);
    let per_cpu = lower_quartile(&cpu_rates);
    let sent_all = steady_streams.len() as u64 + bsent;
    out.latency_p50_ms = p50;
    out.report.extend([
        Metric::new("gen_slo_attainment", slo, "share"),
        Metric::new("decode_tokens_per_s", capacity, "tok/s"),
        Metric::new("decode_tokens_per_cpu_s", per_cpu, "1/cpu-s"),
        Metric::new("failed_share", (failed + bfailed) as f64 / sent_all.max(1) as f64, "share"),
    ]);
    out.notes.push(format!(
        "steady: {steady_s:.1} s at {RATE} streams/s, limits TTFT {TTFT_LIMIT_MS} ms and gap {GAP_LIMIT_MS} ms; burst: {} backlogs of {BURST}, {:?} tok/s",
        rates.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    let itl50 = gap_s.as_ref().map_or(p50, |s| s.p50);
    pacing.judge(&mut out, "steady", BACKLOG_MAX, p50.min(itl50), 1e3 / RATE);

    let summary = stack.engine.shutdown();
    out.check(summary.pages_leaked == 0, || format!("{} KV pages leaked", summary.pages_leaked));
    if traced {
        match SpanIndex::collect(&tracer) {
            Ok(idx) => {
                let mut rec = Reconciled::default();
                let mut traced_streams = Vec::new();
                for (i, s) in steady_streams.iter().enumerate() {
                    let (Some(id), Some(first)) = (s.trace, s.seen.first()) else { continue };
                    traced_streams.push((id, plan.steady[i].item.prompt.len()));
                    let spans = idx.trace(id);
                    let tiling = spans
                        .iter()
                        .find(|r| r.name == ROOT)
                        .ok_or_else(|| "trace has no root span".to_string())
                        .and_then(|root| {
                            layers::ttft_tiling(spans, root, tracer.ns_of(*first) as f64)
                        })
                        .and_then(|t| {
                            let seen: Vec<f64> =
                                s.seen.iter().map(|&at| tracer.ns_of(at) as f64).collect();
                            layers::stream_check(spans, &seen).map(|()| t)
                        });
                    rec.add(tiling);
                }
                out.layers.extend(layers::generate_layers(&idx, &traced_streams));
                out.layers.push(Metric::new(
                    "trace.unattributed_share",
                    rec.unattributed_share(),
                    "share",
                ));
                rec.report(&mut out);
            }
            Err(e) => out.invalid.push(e),
        }
        out.layers.extend([
            Metric::new("kv.pages_in_use_max", kv_max, "count"),
            Metric::new("kv.pages_leaked", summary.pages_leaked as f64, "count"),
            Metric::new(
                "kv.out_of_pages",
                (out_of_pages + kv_fail(&stack.registry) - kv_fail0) as f64,
                "count",
            ),
        ]);
    } else {
        place.release();
        crate::later_setups(&mut setups, || {
            let (s, took) = timed_start(&tracer);
            s.engine.shutdown();
            took
        });
    }
    out.finish_end_to_end(&setups, per_cpu, slo, rss);
    out
}
