//! `bert-poisson`: a mid-size BERT behind the in-process live engine.
//!
//! Production wiring of the encoder path — `LiveEngine`, Algorithm 3
//! (`DpScheduler`) and the production cost table (`from_fn` prior refined
//! online) — driven by one open-loop generator. The steady phase sends
//! Poisson arrivals at a fixed rate; the burst phase submits backlogs at
//! once and times how fast they drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use tt_gpusim::device::DeviceKind;
use tt_model::bert::{graph_skeleton, Bert, BertConfig};
use tt_model::ids_batch;
use tt_runtime::{RuntimeConfig, TurboRuntime};
use tt_serving::live::{LiveClient, LiveEngine, LiveError, LiveResponse};
use tt_serving::scheduler::{BatchScheduler, DpScheduler, InstrumentedScheduler};
use tt_serving::CachedCost;
use tt_telemetry::{Registry, Span, TraceId, Tracer};

use crate::layers::{self, Reconciled, SpanIndex, TimedScheduler, ROOT};
use crate::schedule::{clamped_normal, open_loop, tokens, OpenLoop, Plan, Rng, Timed};
use crate::stats::{lower_quartile, median, Summary};
use crate::sys::{peak_rss_mb, process_cpu_s, Placement};
use crate::{wait_until, Metric, Outcome, Pacing, Phase};

/// The mid-size encoder: 4 layers, 4 heads of 32, FFN 512.
pub fn config() -> BertConfig {
    BertConfig {
        num_layers: 4,
        num_heads: 4,
        head_dim: 32,
        ffn_dim: 512,
        vocab_size: 1024,
        max_position: 128,
        type_vocab_size: 2,
        layer_norm_eps: 1e-12,
    }
}

const MODEL_SEED: u64 = 2024;
/// Steady arrival rate: well under the drain capacity, so batches stay
/// near one request and Algorithm 3 has nothing to split.
const RATE: f64 = 30.0;
/// Latency limit of the steady phase's SLO attainment.
const LIMIT_MS: f64 = 50.0;
/// Burst backlog: the engine drains up to 4 × max batch (64) per
/// scheduling round, so one burst is one full Algorithm 3 problem.
const BURST: usize = 64;
const STEADY_SHARE: f64 = 0.6;
const WARMUP: usize = 48;
/// Every Nth steady request is checked against the eager oracle.
const CHECK_EVERY: usize = 8;
/// Largest steady backlog an open loop at this rate may leave.
const BACKLOG_MAX: usize = 16;
/// Polling period while several replies are pending.
const POLL: Duration = Duration::from_micros(50);

/// Lengths: clamped normal (mean 40, std 30, 4..=128).
fn draw(rng: &mut Rng, u: &[f64]) -> Vec<u32> {
    tokens(rng, clamped_normal(u[0], 40.0, 30.0, 4, 128), config().vocab_size)
}

/// The fixed request that ends each timed set-up.
pub fn probe() -> Vec<u32> {
    (1..=16).collect()
}

/// The HTTP server binary's prior cost table, up to `max_len` positions.
pub fn prior_costs(max_len: usize) -> CachedCost {
    CachedCost::from_fn(max_len, 16, 8, |len, b| 1.0e-3 + 1.0e-5 * (len * b) as f64)
}

/// The HTTP server binary's production cost table: the prior, refined
/// online from measured batches.
pub fn production_costs(max_len: usize) -> CachedCost {
    prior_costs(max_len).with_online_updates(0.2)
}

struct Stack {
    engine: LiveEngine,
    model: Arc<Bert>,
    registry: Registry,
    timed: Option<Arc<TimedScheduler>>,
}

/// Start the stack and time it until a fixed probe request is answered.
fn timed_start(tracer: &Tracer, traced: bool) -> (Stack, f64) {
    let t0 = Instant::now();
    let stack = start(tracer, traced);
    let first = stack.engine.client().try_infer(probe());
    let took = t0.elapsed().as_secs_f64();
    assert!(first.is_some(), "the set-up probe request was not answered");
    (stack, took)
}

fn start(tracer: &Tracer, traced: bool) -> Stack {
    let registry = Registry::new();
    let model = Arc::new(Bert::new_random(&config(), MODEL_SEED));
    let runtime = Arc::new(TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060)));
    runtime.instrument(&registry);
    let costs = Arc::new(production_costs(config().max_position));
    let base: Arc<dyn BatchScheduler> =
        Arc::new(InstrumentedScheduler::new(Arc::new(DpScheduler), &registry));
    let timed = traced.then(|| Arc::new(TimedScheduler::new(base.clone())));
    let scheduler = timed.clone().map_or(base, |t| t as Arc<dyn BatchScheduler>);
    let engine = LiveEngine::start_traced(
        model.clone(),
        runtime,
        scheduler,
        costs,
        &registry,
        tracer.clone(),
    );
    Stack { engine, model, registry, timed }
}

/// One answered (or failed) request.
struct Served {
    latency_ms: f64,
    reply: Result<LiveResponse, LiveError>,
    trace: Option<TraceId>,
}

struct Pending {
    idx: usize,
    due_at: Instant,
    rx: Receiver<Result<LiveResponse, LiveError>>,
    root: Option<Span>,
}

fn submit(
    client: &LiveClient,
    tracer: &Tracer,
    tokens: &[u32],
    idx: usize,
    due_at: Instant,
) -> Result<Pending, Served> {
    let root = tracer.is_enabled().then(|| tracer.start_root(ROOT, true).expect("forced root"));
    let ctx = root.as_ref().map(|r| r.context());
    match client.submit_job(tokens.to_vec(), ctx, None) {
        Ok(rx) => Ok(Pending { idx, due_at, rx, root }),
        Err(e) => Err(Served { latency_ms: 0.0, reply: Err(e), trace: None }),
    }
}

fn finish(p: Pending, reply: Result<LiveResponse, LiveError>) -> Served {
    let latency_ms = p.due_at.elapsed().as_secs_f64() * 1e3;
    let trace = p.root.as_ref().map(|r| r.context().trace);
    drop(p.root); // the root ends when the client sees the reply
    Served { latency_ms, reply, trace }
}

/// The open-loop steady phase.
fn steady(client: &LiveClient, tracer: &Tracer, plan: &[Timed<Vec<u32>>]) -> (Vec<Served>, Pacing) {
    let mut served: Vec<Option<Served>> = (0..plan.len()).map(|_| None).collect();
    let mut pacing = Pacing::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(plan[i].due);
    let mut next = 0;
    let mut last_poll: Option<Instant> = None;
    loop {
        while next < plan.len() && Instant::now() >= due(next) {
            let due_at = due(next);
            match submit(client, tracer, &plan[next].item, next, due_at) {
                Ok(p) => pending.push(p),
                Err(s) => served[next] = Some(s),
            }
            pacing.lateness_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
            next += 1;
            if next == plan.len() {
                pacing.backlog_at_end = pending.len();
            }
        }
        let now = Instant::now();
        if let Some(prev) = last_poll.take() {
            pacing.poll_gap_ms.push((now - prev).as_secs_f64() * 1e3);
        }
        let mut k = 0;
        while k < pending.len() {
            let reply = match pending[k].rx.try_recv() {
                Ok(reply) => reply,
                Err(TryRecvError::Disconnected) => Err(LiveError::Unavailable),
                Err(TryRecvError::Empty) => {
                    k += 1;
                    continue;
                }
            };
            let p = pending.swap_remove(k);
            let i = p.idx;
            served[i] = Some(finish(p, reply));
        }
        if next == plan.len() && pending.is_empty() {
            break;
        }
        let until_due =
            (next < plan.len()).then(|| due(next).saturating_duration_since(Instant::now()));
        match pending.len() {
            0 => wait_until(due(next)),
            1 => {
                // One reply pending: block on it, so it is seen the moment
                // it lands, but no later than the next due request.
                let timeout = until_due.unwrap_or(Duration::from_secs(5));
                let got = pending[0].rx.recv_timeout(timeout);
                let reply = match got {
                    Ok(r) => Some(r),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => Some(Err(LiveError::Unavailable)),
                };
                if let Some(reply) = reply {
                    let p = pending.pop().expect("one pending");
                    let i = p.idx;
                    served[i] = Some(finish(p, reply));
                }
            }
            _ => {
                std::thread::sleep(until_due.map_or(POLL, |d| d.min(POLL)));
                last_poll = Some(now);
            }
        }
    }
    (served.into_iter().map(|s| s.expect("every request answered")).collect(), pacing)
}

/// Submit one backlog at once and wait for all of it; returns the drain
/// time and the replies.
fn burst(client: &LiveClient, tracer: &Tracer, backlog: &[Vec<u32>]) -> (f64, Vec<Served>) {
    let t0 = Instant::now();
    let sent: Vec<Result<Pending, Served>> =
        backlog.iter().enumerate().map(|(i, t)| submit(client, tracer, t, i, t0)).collect();
    let served: Vec<Served> = sent
        .into_iter()
        .map(|s| match s {
            Ok(p) => {
                let reply = p.rx.recv().unwrap_or(Err(LiveError::Unavailable));
                finish(p, reply)
            }
            Err(s) => s,
        })
        .collect();
    (t0.elapsed().as_secs_f64(), served)
}

/// Check a reply's CLS vector: its width always, and when `oracle` its
/// values against the eager `Bert::forward` with the tolerances the live
/// engine's own tests use (1e-4 served alone, 2e-3 in a padded batch).
pub fn check_cls(
    model: &Bert,
    tokens: &[u32],
    cls: &[f32],
    batch: usize,
    oracle: bool,
) -> Result<(), String> {
    let hidden = model.config.model_dim();
    if cls.len() != hidden {
        return Err(format!("cls vector has {} values, expected {hidden}", cls.len()));
    }
    if !oracle {
        return Ok(());
    }
    let expect = model.forward(&ids_batch(&[tokens]), None);
    let tol = if batch == 1 { 1e-4 } else { 2e-3 };
    let worst = cls
        .iter()
        .zip(&expect.as_slice()[..hidden])
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    if worst < tol {
        Ok(())
    } else {
        Err(format!("cls vector off the oracle by {worst:e} (tolerance {tol:e}, batch {batch})"))
    }
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter(name, "", &[]).get()
}

/// Computed matmul flops of one execution of `config()` at this shape.
pub fn matmul_flops(cfg: &BertConfig, batch: usize, len: usize) -> u64 {
    let bound = graph_skeleton(cfg, batch, len, batch > 1);
    bound
        .graph
        .nodes
        .iter()
        .filter_map(|n| tt_runtime::executor::matmul_flops(&bound.graph, n))
        .sum()
}

/// Run the workload for `seconds`, traced or not.
pub fn run(seed: u64, seconds: f64, traced: bool, place: &Placement) -> Outcome {
    let mut out = Outcome::default();
    let steady_s = seconds * STEADY_SHARE;
    let burst_budget = seconds - steady_s;
    let shape =
        OpenLoop { rate: RATE, steady_s, burst: BURST, bursts: (burst_budget * 10.0) as usize + 3 };
    let plan: Plan<Vec<u32>> = open_loop(seed, shape, WARMUP, 1, draw);
    let tracer = if traced { layers::tracer() } else { Tracer::disabled() };

    place.release();
    let (stack, first) = timed_start(&tracer, traced);
    let mut setups = vec![first];
    let client = stack.engine.client();
    place.burst();
    for t in &plan.warmup {
        out.check(client.try_infer(t.clone()).is_some(), || "warm-up request failed".into());
    }
    // One backlog at the longest length grows the allocator's chunk cache
    // to the largest batch shape before measuring, so the peak footprint
    // does not hinge on which shapes a run happens to batch.
    let mut rng = Rng::new(seed, 8);
    let longest: Vec<Vec<u32>> =
        (0..BURST).map(|_| tokens(&mut rng, config().max_position, config().vocab_size)).collect();
    let (_, warm) = burst(&client, &Tracer::disabled(), &longest);
    out.check(warm.iter().all(|s| s.reply.is_ok()), || "warm-up backlog failed".into());
    // Scheduler calls of the warm-up are not part of the measurement.
    let warm_calls = stack.timed.as_ref().map_or(0, |t| t.calls().len());
    let real0 = counter(&stack.registry, "live_real_tokens_total");
    let padded0 = counter(&stack.registry, "live_padded_tokens_total");

    place.steady();
    let t_measure = Instant::now();
    let (steady_served, pacing) = steady(&client, &tracer, &plan.steady);
    let steady_wall = t_measure.elapsed().as_secs_f64();
    place.burst();

    let mut rates = Vec::new();
    let mut cpu_rates = Vec::new();
    let mut burst_served = Vec::new();
    let t_burst = Instant::now();
    for backlog in &plan.bursts {
        if rates.len() >= 3 && t_burst.elapsed().as_secs_f64() >= burst_budget {
            break;
        }
        let cpu0 = process_cpu_s();
        let (drain, served) = burst(&client, &tracer, backlog);
        rates.push(backlog.len() as f64 / drain);
        cpu_rates.push(backlog.len() as f64 / (process_cpu_s() - cpu0));
        burst_served.push((backlog.clone(), served));
    }
    let wall_ns = t_measure.elapsed().as_secs_f64() * 1e9;
    let rss = peak_rss_mb();

    // Output checks, outside the timed phases.
    let mut latencies = Vec::new();
    let (mut ok, mut attained, mut failed) = (0u64, 0u64, 0u64);
    for (i, s) in steady_served.iter().enumerate() {
        let check = match &s.reply {
            Ok(r) => {
                let sampled = i % CHECK_EVERY == 0;
                check_cls(&stack.model, &plan.steady[i].item, &r.cls_vector, r.batch_size, sampled)
            }
            Err(e) => Err(format!("request not answered: {e:?}")),
        };
        match check {
            Ok(()) => {
                ok += 1;
                latencies.push(s.latency_ms);
                attained += u64::from(s.latency_ms <= LIMIT_MS);
            }
            Err(e) => {
                failed += 1;
                out.wrong.push(format!("steady request {i}: {e}"));
            }
        }
    }
    out.phases.push(Phase { name: "steady".into(), sent: steady_served.len() as u64, ok, failed });
    let (mut bok, mut bfailed, mut bsent) = (0u64, 0u64, 0u64);
    for (backlog, served) in &burst_served {
        for (j, s) in served.iter().enumerate() {
            bsent += 1;
            let check = match &s.reply {
                Ok(r) => check_cls(&stack.model, &backlog[j], &r.cls_vector, r.batch_size, j == 0),
                Err(e) => Err(format!("request not answered: {e:?}")),
            };
            match check {
                Ok(()) => bok += 1,
                Err(e) => {
                    bfailed += 1;
                    out.wrong.push(format!("burst request {j}: {e}"));
                }
            }
        }
    }
    out.phases.push(Phase { name: "burst".into(), sent: bsent, ok: bok, failed: bfailed });

    let summary = Summary::of(&latencies);
    out.report_latency("infer", &summary);
    let p50 = summary.as_ref().map_or(f64::NAN, |s| s.p50);
    let slo = attained as f64 / steady_served.len().max(1) as f64;
    let capacity = median(&rates);
    let per_cpu = lower_quartile(&cpu_rates);
    let sent_all = steady_served.len() as u64 + bsent;
    out.latency_p50_ms = p50;
    out.report.extend([
        Metric::new("infer_slo_attainment", slo, "share"),
        Metric::new("infer_capacity_rps", capacity, "req/s"),
        Metric::new("infer_per_cpu_s", per_cpu, "1/cpu-s"),
        Metric::new("failed_share", (failed + bfailed) as f64 / sent_all.max(1) as f64, "share"),
    ]);
    out.notes.push(format!(
        "steady: {:.1} s at {RATE} req/s, latency limit {LIMIT_MS} ms; burst: {} backlogs of {BURST}, drain rates {:?} req/s, per CPU-second {:?}",
        steady_wall,
        rates.len(),
        rates.iter().map(|r| (r * 10.0).round() / 10.0).collect::<Vec<_>>(),
        cpu_rates.iter().map(|r| (r * 10.0).round() / 10.0).collect::<Vec<_>>()
    ));
    pacing.judge(&mut out, "steady", BACKLOG_MAX, p50, 1e3 / RATE);

    if traced {
        let calls = stack.timed.as_ref().map(|t| t.calls()).unwrap_or_default();
        let calls = &calls[warm_calls.min(calls.len())..];
        let padding = (
            counter(&stack.registry, "live_real_tokens_total") - real0,
            counter(&stack.registry, "live_padded_tokens_total") - padded0,
        );
        match SpanIndex::collect(&tracer) {
            Ok(idx) => {
                let mut rec = Reconciled::default();
                let (mut qw, mut reply) = (Vec::new(), Vec::new());
                for s in steady_served.iter().filter(|s| s.reply.is_ok()) {
                    let Some(id) = s.trace else { continue };
                    let spans = idx.trace(id);
                    let tiling = spans
                        .iter()
                        .find(|r| r.name == ROOT)
                        .ok_or_else(|| "trace has no root span".to_string())
                        .and_then(|root| layers::infer_tiling(spans, root))
                        .and_then(|t| {
                            rec.cover(layers::op_cover(spans)?);
                            Ok(t)
                        });
                    if let Ok(t) = &tiling {
                        qw.push(t.part("live.queue_wait") / 1e6);
                        reply.push(t.part("live.reply") / 1e6);
                    }
                    rec.add(tiling);
                }
                let (q50, q99) = layers::p50_tail(qw);
                out.layers.push(Metric::new("live.queue_wait_ms_p50", q50, "ms"));
                out.layers.push(Metric::new("live.queue_wait_ms_p99", q99, "ms"));
                out.layers.push(Metric::new("live.reply_ms_p50", median(&reply), "ms"));
                let cfg = config();
                out.layers.extend(layers::encoder_layers(
                    &idx,
                    calls,
                    |b, l| matmul_flops(&cfg, b, l),
                    wall_ns,
                    padding,
                ));
                out.layers.push(Metric::new(
                    "trace.unattributed_share",
                    rec.unattributed_share(),
                    "share",
                ));
                rec.report(&mut out);
            }
            Err(e) => out.invalid.push(e),
        }
    }
    drop(client);
    stack.engine.shutdown();
    if !traced {
        place.release();
        crate::later_setups(&mut setups, || {
            let (s, took) = timed_start(&tracer, false);
            s.engine.shutdown();
            took
        });
    }
    out.finish_end_to_end(&setups, per_cpu, slo, rss);
    out
}
