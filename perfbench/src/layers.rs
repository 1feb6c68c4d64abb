//! Per-layer measurement from outside the program.
//!
//! The traced run hands the program a [`Tracer`] that keeps every span of
//! every request the benchmark forces in, then reads back what the program
//! already records (queue wait, schedule, execute, allocator plan, per-op,
//! prefill and decode spans). The benchmark's own spans are recorded only
//! here: a root span per request, and timing wrappers around the public
//! [`InferHandler`], [`GenerateHandler`] and [`BatchScheduler`] traits.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::Receiver;
use tt_serving::http::{GenerateHandler, InferError, InferHandler, InferReply};
use tt_serving::scheduler::{BatchScheduler, Batching};
use tt_serving::{CachedCost, Deadline, Request, TokenEvent};
use tt_telemetry::{AttrValue, SpanContext, SpanId, SpanRecord, TraceId, Tracer, TracerConfig};

use crate::stats::{mean, median, percentile, sorted, tail_rung};
use crate::{Metric, Outcome};

/// Name of the root span the benchmark opens for each in-process request.
pub const ROOT: &str = "bench.request";
/// Name of the span the handler wrappers record around each call.
pub const HANDLER: &str = "bench.handler";

/// Per-shard span capacity of the traced run. A shard overwrites only once
/// it holds this many spans, so a run that retains fewer spans in total
/// than this has lost none (see [`check_nothing_dropped`]).
const BUFFER_SPANS: usize = 1 << 22;

/// Ordering slack allowed between timestamps read on different threads.
pub const ORDER_SLACK_NS: f64 = 5_000.0;

/// The traced run's collector: forced roots only, nothing overwritten.
pub fn tracer() -> Tracer {
    Tracer::new(TracerConfig { enabled: true, sample_every: 0, buffer_spans: BUFFER_SPANS })
}

/// Fail unless every span the run recorded is still retained: the ring of
/// a shard drops its oldest span only when full, and no shard can be full
/// while all shards together hold fewer spans than one shard's capacity.
pub fn check_nothing_dropped(spans: &[SpanRecord]) -> Result<(), String> {
    if spans.len() < BUFFER_SPANS {
        Ok(())
    } else {
        Err(format!(
            "{} spans retained, at the per-shard capacity {BUFFER_SPANS}: spans may have been overwritten",
            spans.len()
        ))
    }
}

/// [`InferHandler`] wrapper recording a [`HANDLER`] span around every traced
/// call; the engine's own spans then hang under it.
pub struct TimedInfer<H> {
    /// The wrapped handler.
    pub inner: H,
    /// Where the span goes.
    pub tracer: Tracer,
}

impl<H: InferHandler> InferHandler for TimedInfer<H> {
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
        let span = trace.map(|ctx| self.tracer.span(ctx, HANDLER));
        self.inner.infer_deadline(tokens, span.as_ref().map(|s| s.context()).or(trace), deadline)
    }
}

/// [`GenerateHandler`] wrapper recording a [`HANDLER`] span around the
/// submission of every traced generation.
pub struct TimedGenerate<H> {
    /// The wrapped handler.
    pub inner: H,
    /// Where the span goes.
    pub tracer: Tracer,
}

impl<H: GenerateHandler> GenerateHandler for TimedGenerate<H> {
    fn generate(
        &self,
        prompt: Vec<u32>,
        max_new_tokens: usize,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<Receiver<TokenEvent>, InferError> {
        let span = trace.map(|ctx| self.tracer.span(ctx, HANDLER));
        let ctx = span.as_ref().map(|s| s.context()).or(trace);
        self.inner.generate(prompt, max_new_tokens, ctx, deadline)
    }
}

/// One scheduler invocation as the wrapper saw it.
#[derive(Debug, Clone)]
pub struct SchedCall {
    /// Wall time of the wrapped `schedule` call.
    pub ns: u64,
    /// Requests in the queue it was given.
    pub queue_len: usize,
    /// Per produced batch: padded length, size, and the cost-table price
    /// the scheduler acted on.
    pub batches: Vec<(usize, usize, f64)>,
}

/// [`BatchScheduler`] wrapper timing every call and keeping the cost-table
/// estimate of every batch it produced.
pub struct TimedScheduler {
    inner: Arc<dyn BatchScheduler>,
    calls: Mutex<Vec<SchedCall>>,
}

impl TimedScheduler {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn BatchScheduler>) -> Self {
        TimedScheduler { inner, calls: Mutex::new(Vec::new()) }
    }

    /// Every call recorded so far.
    pub fn calls(&self) -> Vec<SchedCall> {
        self.calls.lock().expect("scheduler log lock").clone()
    }
}

impl BatchScheduler for TimedScheduler {
    fn schedule(&self, queue: &[Request], costs: &CachedCost) -> Batching {
        let start = Instant::now();
        let batching = self.inner.schedule(queue, costs);
        let ns = start.elapsed().as_nanos() as u64;
        let batches = batching
            .iter()
            .map(|b| {
                let len = b.iter().map(|&i| queue[i].len).max().expect("non-empty batch");
                (len, b.len(), costs.batch_cost(len, b.len()))
            })
            .collect();
        let call = SchedCall { ns, queue_len: queue.len(), batches };
        self.calls.lock().expect("scheduler log lock").push(call);
        batching
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn attr_int(span: &SpanRecord, key: &str) -> Option<i64> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Int(i) if *k == key => Some(*i),
        _ => None,
    })
}

fn attr_str<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

fn end(span: &SpanRecord) -> f64 {
    (span.start_ns + span.dur_ns) as f64
}

/// Every retained span, grouped by trace.
pub struct SpanIndex {
    by_trace: HashMap<TraceId, Vec<SpanRecord>>,
    all: Vec<SpanRecord>,
}

impl SpanIndex {
    /// Index everything `tracer` holds, failing if anything was dropped.
    pub fn collect(tracer: &Tracer) -> Result<SpanIndex, String> {
        let all = tracer.all_spans();
        check_nothing_dropped(&all)?;
        let mut by_trace: HashMap<TraceId, Vec<SpanRecord>> = HashMap::new();
        for s in &all {
            by_trace.entry(s.trace).or_default().push(s.clone());
        }
        Ok(SpanIndex { by_trace, all })
    }

    /// The spans of one trace.
    pub fn trace(&self, id: TraceId) -> &[SpanRecord] {
        self.by_trace.get(&id).map_or(&[], Vec::as_slice)
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &SpanRecord> {
        let name = name.to_string();
        self.all.iter().filter(move |s| s.name == name)
    }
}

fn one<'a>(spans: &'a [SpanRecord], name: &str) -> Result<&'a SpanRecord, String> {
    let mut it = spans.iter().filter(|s| s.name == name);
    match (it.next(), it.next()) {
        (Some(s), None) => Ok(s),
        (None, _) => Err(format!("trace is missing its `{name}` span")),
        _ => Err(format!("trace has more than one `{name}` span")),
    }
}

/// A request's time split into consecutive parts that tile
/// `[start, end]`. Parts are differences of consecutive timestamps, so they
/// sum to the total by construction; what can fail is their order: a
/// missing or misplaced span makes a part negative.
#[derive(Debug, Clone, PartialEq)]
pub struct Tiling {
    /// Client-observed total, nanoseconds.
    pub total: f64,
    /// `(layer, nanoseconds, covered by a program span)`.
    pub parts: Vec<(&'static str, f64, bool)>,
}

impl Tiling {
    /// Build from consecutive boundary timestamps: `bounds[0]` is the
    /// request's start, the last bound its end, and part `i` spans
    /// `bounds[i]..bounds[i + 1]`.
    pub fn from_bounds(bounds: &[f64], labels: &[(&'static str, bool)]) -> Tiling {
        assert_eq!(bounds.len(), labels.len() + 1, "one label per interval");
        let parts =
            labels.iter().zip(bounds.windows(2)).map(|(&(l, c), w)| (l, w[1] - w[0], c)).collect();
        Tiling { total: bounds[bounds.len() - 1] - bounds[0], parts }
    }

    /// Check the order of the spans: every part ≥ −[`ORDER_SLACK_NS`].
    pub fn check(&self) -> Result<(), String> {
        match self.parts.iter().find(|p| p.1 < -ORDER_SLACK_NS) {
            Some((l, v, _)) => {
                Err(format!("part `{l}` is negative ({v:.0} ns): spans out of order"))
            }
            None => Ok(()),
        }
    }

    /// Nanoseconds no program span covers.
    pub fn unattributed(&self) -> f64 {
        self.parts.iter().filter(|p| !p.2).map(|p| p.1.max(0.0)).sum()
    }

    /// Nanoseconds of one named part (summed over repeats).
    pub fn part(&self, label: &str) -> f64 {
        self.parts.iter().filter(|p| p.0 == label).map(|p| p.1).sum()
    }
}

/// Reconcile the executor's per-op spans with the `execute` span they hang
/// under. Each op and the allocator plan are timed on their own, apart
/// from the `execute` span, so their durations must sum to no more than
/// its duration (plus [`ORDER_SLACK_NS`]). Returns the covered share; the
/// rest is the executor's bookkeeping between ops and any preemption
/// there, so no lower limit holds on a shared host.
pub fn op_cover(spans: &[SpanRecord]) -> Result<f64, String> {
    let ex = one(spans, "execute")?;
    let parts: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent == Some(ex.span))
        .filter(|s| tt_runtime::executor::OP_NAMES.contains(&s.name) || s.name == "alloc_plan")
        .collect();
    let sum: f64 = parts.iter().map(|s| s.dur_ns as f64).sum();
    let dur = ex.dur_ns as f64;
    let share = sum / dur.max(1.0);
    if parts.is_empty() {
        Err("execute has no op spans".into())
    } else if sum > dur + ORDER_SLACK_NS {
        Err(format!("{} op spans sum to {sum:.0} ns, more than execute's {dur:.0} ns", parts.len()))
    } else {
        Ok(share)
    }
}

/// Reconcile a stream's engine spans with the tokens its client saw
/// (`seen_ns[i]`: when token `i` was read): one `prefill` for token 0,
/// ending before the client saw it, then exactly one `decode_iter` for
/// each later token, with indices 1, 2, …, each starting before the
/// client saw its token (the engine closes that span after sending the
/// token). Both within [`ORDER_SLACK_NS`].
pub fn stream_check(spans: &[SpanRecord], seen_ns: &[f64]) -> Result<(), String> {
    let pf = one(spans, "prefill")?;
    let mut iters: Vec<(i64, f64)> = spans
        .iter()
        .filter(|s| s.name == "decode_iter")
        .map(|s| (attr_int(s, "index").unwrap_or(-1), s.start_ns as f64))
        .collect();
    iters.sort_by_key(|i| i.0);
    if iters.len() + 1 != seen_ns.len() {
        return Err(format!(
            "client saw {} tokens, engine recorded {} decode_iter spans",
            seen_ns.len(),
            iters.len()
        ));
    }
    let marks = std::iter::once((0, end(pf))).chain(iters);
    for (i, ((index, at), seen)) in marks.zip(seen_ns).enumerate() {
        if index != i as i64 {
            return Err(format!("token {i} has a span with index {index}"));
        }
        if at > seen + ORDER_SLACK_NS {
            return Err(format!(
                "token {i}'s span is {:.0} ns later than the client saw it",
                at - seen
            ));
        }
    }
    Ok(())
}

/// Reconciliation outcome over all traced requests of a run.
#[derive(Debug, Default)]
pub struct Reconciled {
    /// Requests checked.
    pub checked: usize,
    /// First failures (at most a handful kept).
    pub failures: Vec<String>,
    /// Failures in total.
    pub failed: usize,
    unattributed: f64,
    total: f64,
    covers: Vec<f64>,
}

impl Reconciled {
    /// Fold one request's tiling (or the reason it could not be built).
    pub fn add(&mut self, tiling: Result<Tiling, String>) {
        self.checked += 1;
        match tiling.and_then(|t| t.check().map(|()| t)) {
            Ok(t) => {
                self.unattributed += t.unattributed();
                self.total += t.total;
            }
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 4 {
                    self.failures.push(e);
                }
            }
        }
    }

    /// Keep an op cover (see [`op_cover`]).
    pub fn cover(&mut self, share: f64) {
        self.covers.push(share);
    }

    /// Note the reconciliation outcome; any failure invalidates the traced run.
    pub fn report(&self, out: &mut Outcome) {
        out.notes.push(format!(
            "reconciliation: {}/{} traced requests reconcile (tolerance: span boundaries in order within {slack} µs; op + alloc_plan spans sum to at most execute + {slack} µs; one prefill (ending) or decode_iter (starting) span per token, before the client saw it + {slack} µs); op cover median {}, smallest {}; unattributed share {:.4}; 0 spans dropped",
            self.checked - self.failed,
            self.checked,
            fmt_share(if self.covers.is_empty() { f64::NAN } else { median(&self.covers) }),
            fmt_share(self.covers.iter().copied().fold(f64::NAN, f64::min)),
            self.unattributed_share(),
            slack = ORDER_SLACK_NS / 1e3,
        ));
        if self.checked == 0 {
            out.invalid.push("no traced request to reconcile".into());
        }
        for f in &self.failures {
            out.invalid.push(format!("reconciliation failed: {f}"));
        }
    }

    /// Σ unattributed ÷ Σ total over the requests that reconciled.
    pub fn unattributed_share(&self) -> f64 {
        if self.total > 0.0 {
            self.unattributed / self.total
        } else {
            0.0
        }
    }
}

/// An in-process encoder request: root span (submit → reply observed),
/// with the engine's `queue_wait` and `execute` spans under it.
pub fn infer_tiling(spans: &[SpanRecord], root: &SpanRecord) -> Result<Tiling, String> {
    let qw = one(spans, "queue_wait")?;
    let ex = one(spans, "execute")?;
    Ok(Tiling::from_bounds(
        &[
            root.start_ns as f64,
            qw.start_ns as f64,
            end(qw),
            ex.start_ns as f64,
            end(ex),
            end(root),
        ],
        &[
            ("submit", false),
            ("live.queue_wait", true),
            ("live.dispatch", false),
            ("runtime.execute", true),
            ("live.reply", false),
        ],
    ))
}

/// An HTTP `/v1/infer` request: client send and receive instants around
/// the server's `http` root, the [`HANDLER`] span, and the engine spans.
pub fn http_infer_tiling(spans: &[SpanRecord], send: f64, recv: f64) -> Result<Tiling, String> {
    let http = one(spans, "http")?;
    let h = one(spans, HANDLER)?;
    let qw = one(spans, "queue_wait")?;
    let ex = one(spans, "execute")?;
    Ok(Tiling::from_bounds(
        &[
            send,
            http.start_ns as f64,
            h.start_ns as f64,
            qw.start_ns as f64,
            end(qw),
            ex.start_ns as f64,
            end(ex),
            end(h),
            end(http),
            recv,
        ],
        &[
            ("http.ingress", false),
            ("http.admit", true),
            ("router.dispatch", true),
            ("live.queue_wait", true),
            ("live.dispatch", true),
            ("runtime.execute", true),
            ("router.reply", true),
            ("http.respond", true),
            ("http.egress", false),
        ],
    ))
}

/// Time to first token of an in-process stream: root start (submit) →
/// `prefill` → first token observed.
pub fn ttft_tiling(
    spans: &[SpanRecord],
    root: &SpanRecord,
    first_seen: f64,
) -> Result<Tiling, String> {
    let pf = one(spans, "prefill")?;
    Ok(Tiling::from_bounds(
        &[root.start_ns as f64, pf.start_ns as f64, end(pf), first_seen],
        &[("generate.queue_wait", false), ("generate.prefill", true), ("generate.deliver", false)],
    ))
}

fn fmt_share(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "-".into()
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// p50 and highest-supported tail (≤ p99) of raw samples, 0 when empty.
pub fn p50_tail(v: Vec<f64>) -> (f64, f64) {
    let s = sorted(v);
    let p50 = percentile(&s, 0.5).unwrap_or(0.0);
    let tail = tail_rung(s.len(), 0.99).and_then(|q| percentile(&s, q)).unwrap_or(p50);
    (p50, tail)
}

/// Encoder-side layers (live, scheduler, runtime, alloc, tensor, kernels)
/// from the engine spans of a traced phase. `flops(batch, padded_len)`
/// returns the computed matmul flops of one execution; `wall_ns` is the
/// phase's wall time for the busy share.
pub fn encoder_layers(
    idx: &SpanIndex,
    calls: &[SchedCall],
    flops: impl Fn(usize, usize) -> u64,
    wall_ns: f64,
    padding: (u64, u64),
) -> Vec<Metric> {
    let mut out = Vec::new();

    // One executed batch = one allocator plan; the executor records the
    // plan and op spans once per traced member, with identical timestamps,
    // so batches and ops are de-duplicated on (name, start, duration).
    let exec_by_id: HashMap<SpanId, &SpanRecord> =
        idx.named("execute").map(|s| (s.span, s)).collect();
    let mut batches: BTreeMap<u64, (f64, usize, usize, u64)> = BTreeMap::new();
    for plan in idx.named("alloc_plan") {
        let Some(ex) = plan.parent.and_then(|p| exec_by_id.get(&p)) else { continue };
        let size = attr_int(ex, "batch_size").unwrap_or(1) as usize;
        let len = attr_int(ex, "padded_len").unwrap_or(0) as usize;
        let new_bytes = attr_int(plan, "new_bytes").unwrap_or(0).max(0) as u64;
        let e = batches.entry(plan.start_ns).or_insert((0.0, size, len, new_bytes));
        e.0 = e.0.max(ex.dur_ns as f64);
    }
    let mut ops: BTreeMap<(&'static str, u64, u64), &SpanRecord> = BTreeMap::new();
    for s in &idx.all {
        if tt_runtime::executor::OP_NAMES.contains(&s.name) || s.name == "alloc_plan" {
            ops.entry((s.name, s.start_ns, s.dur_ns)).or_insert(s);
        }
    }

    let exec_ms: Vec<f64> = batches.values().map(|b| ms(b.0)).collect();
    out.push(Metric::new(
        "live.batch_size_mean",
        mean(&batches.values().map(|b| b.1 as f64).collect::<Vec<_>>()),
        "count",
    ));
    let (real, padded) = padding;
    out.push(Metric::new(
        "live.padding_waste",
        padded as f64 / (real + padded).max(1) as f64,
        "share",
    ));

    out.push(Metric::new("scheduler.calls", calls.len() as f64, "count"));
    let sched_us: Vec<f64> = calls.iter().map(|c| c.ns as f64 / 1e3).collect();
    let (s50, s99) = p50_tail(sched_us);
    out.push(Metric::new("scheduler.us_p50", s50, "us"));
    out.push(Metric::new("scheduler.us_p99", s99, "us"));
    out.push(Metric::new(
        "scheduler.queue_len_mean",
        mean(&calls.iter().map(|c| c.queue_len as f64).collect::<Vec<_>>()),
        "count",
    ));
    out.push(Metric::new(
        "scheduler.splits_mean",
        mean(&calls.iter().map(|c| c.batches.len() as f64).collect::<Vec<_>>()),
        "count",
    ));
    out.push(Metric::new(
        "scheduler.cost_ratio_p50",
        median(&cost_ratios(calls, &batches)),
        "ratio",
    ));

    out.push(Metric::new("runtime.execute_ms_p50", median(&exec_ms), "ms"));
    out.push(Metric::new(
        "runtime.busy_share",
        exec_ms.iter().sum::<f64>() * 1e6 / wall_ns.max(1.0),
        "share",
    ));
    let mut by_group: BTreeMap<&str, f64> = BTreeMap::new();
    let mut op_total = 0.0;
    for (&(name, _, dur), _) in ops.iter().filter(|(k, _)| k.0 != "alloc_plan") {
        *by_group.entry(op_group(name)).or_default() += dur as f64;
        op_total += dur as f64;
    }
    for g in ["matmul", "add_bias_gelu", "attention", "layernorm", "other"] {
        let share = by_group.get(g).copied().unwrap_or(0.0) / op_total.max(1.0);
        out.push(Metric::new(&format!("runtime.op_self_share.{g}"), share, "share"));
    }

    let plan_us: Vec<f64> =
        ops.iter().filter(|(k, _)| k.0 == "alloc_plan").map(|(k, _)| k.2 as f64 / 1e3).collect();
    out.push(Metric::new("alloc.plan_us_p50", median(&plan_us), "us"));
    out.push(Metric::new(
        "alloc.new_bytes_total",
        batches.values().map(|b| b.3 as f64).sum(),
        "bytes",
    ));

    let gemm_ns: f64 = ops.iter().filter(|(k, _)| k.0 == "matmul").map(|(k, _)| k.2 as f64).sum();
    let gemm_flops: f64 = batches.values().map(|b| flops(b.1, b.2) as f64).sum();
    out.push(Metric::new(
        "tensor.gemm_gflops",
        if gemm_ns > 0.0 { gemm_flops / gemm_ns } else { 0.0 },
        "GFLOP/s",
    ));
    let (mut gelu_ns, mut gelu_elems) = (0.0, 0.0);
    for (k, s) in ops.iter().filter(|(k, _)| k.0 == "add_bias_gelu") {
        gelu_ns += k.2 as f64;
        gelu_elems += attr_str(s, "shape").map_or(0.0, shape_elems);
    }
    out.push(Metric::new(
        "kernels.gelu_ns_per_elem",
        if gelu_elems > 0.0 { gelu_ns / gelu_elems } else { 0.0 },
        "ns/elem",
    ));
    out
}

/// Measured execute time over the price the scheduler acted on, per
/// batch. Each executed batch is matched to the earliest unmatched
/// scheduled batch of the same shape (replicas of a fleet interleave).
fn cost_ratios(calls: &[SchedCall], batches: &BTreeMap<u64, (f64, usize, usize, u64)>) -> Vec<f64> {
    let mut pending: HashMap<(usize, usize), std::collections::VecDeque<f64>> = HashMap::new();
    for c in calls {
        for &(len, size, price) in &c.batches {
            pending.entry((len, size)).or_default().push_back(price);
        }
    }
    batches
        .values()
        .filter_map(|&(dur, size, len, _)| {
            let price = pending.get_mut(&(len, size))?.pop_front()?;
            (price > 0.0).then(|| dur / 1e9 / price)
        })
        .collect()
}

/// The op groups of the per-op share breakdown.
pub fn op_group(op: &str) -> &'static str {
    match op {
        "matmul" => "matmul",
        "add_bias_gelu" => "add_bias_gelu",
        "split_heads"
        | "add_bias_split_heads"
        | "merge_heads"
        | "scale"
        | "mask"
        | "softmax"
        | "scale_mask_softmax" => "attention",
        "layer_norm" | "add_bias_residual_layer_norm" => "layernorm",
        _ => "other",
    }
}

fn shape_elems(shape: &str) -> f64 {
    shape.split('x').map(|d| d.parse::<f64>().unwrap_or(0.0)).product()
}

/// Generative layers (generate, kv) from the traced streams' spans.
/// `streams` holds, per stream, its root span and prompt length.
pub fn generate_layers(idx: &SpanIndex, streams: &[(TraceId, usize)]) -> Vec<Metric> {
    let mut queue = Vec::new();
    let mut prefill = Vec::new();
    let mut per_token = Vec::new();
    for &(id, prompt_len) in streams {
        let spans = idx.trace(id);
        let (Ok(root), Ok(pf)) =
            (one(spans, ROOT).or_else(|_| one(spans, "http")), one(spans, "prefill"))
        else {
            continue;
        };
        let start = one(spans, HANDLER).map_or(root.start_ns, |h| h.start_ns);
        queue.push(ms(pf.start_ns as f64 - start as f64));
        prefill.push(ms(pf.dur_ns as f64));
        per_token.push(pf.dur_ns as f64 / 1e3 / prompt_len.max(1) as f64);
    }
    // One decode iteration appears once per active stream, all sharing its
    // start; the longest of them ends with the iteration's last step.
    let mut iters: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for s in idx.named("decode_iter") {
        let active = attr_int(s, "batch_active").unwrap_or(1) as usize;
        let e = iters.entry(s.start_ns).or_insert((0.0, active));
        e.0 = e.0.max(s.dur_ns as f64);
    }
    let iter_ms: Vec<f64> = iters.values().map(|i| ms(i.0)).collect();
    let active: Vec<f64> = iters.values().map(|i| i.1 as f64).collect();
    let step_us: Vec<f64> = iters.values().map(|i| i.0 / 1e3 / i.1.max(1) as f64).collect();
    let (_, q99) = p50_tail(queue);
    vec![
        Metric::new("generate.queue_wait_ms_p99", q99, "ms"),
        Metric::new("generate.prefill_ms_p50", median(&prefill), "ms"),
        Metric::new("generate.prefill_us_per_token", median(&per_token), "us/token"),
        Metric::new("generate.decode_iter_ms_p50", median(&iter_ms), "ms"),
        Metric::new("generate.active_mean", mean(&active), "count"),
        Metric::new("generate.step_us_per_seq", median(&step_us), "us/seq"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(1),
            span: SpanId(start + 1),
            parent: None,
            name,
            start_ns: start,
            dur_ns: dur,
            attrs: Vec::new(),
        }
    }

    fn child(name: &'static str, parent: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord { parent: Some(SpanId(parent + 1)), ..span(name, start, dur) }
    }

    fn with_index(mut s: SpanRecord, index: i64) -> SpanRecord {
        s.attrs.push(("index", AttrValue::Int(index)));
        s
    }

    #[test]
    fn infer_parts_tile_the_request() {
        let root = span(ROOT, 1_000, 10_000);
        let spans =
            vec![root.clone(), span("queue_wait", 1_100, 4_000), span("execute", 5_200, 5_000)];
        let t = infer_tiling(&spans, &root).unwrap();
        assert_eq!(t.total, 10_000.0);
        assert_eq!(t.part("live.queue_wait"), 4_000.0);
        assert_eq!(t.part("runtime.execute"), 5_000.0);
        assert_eq!(t.part("live.reply"), 800.0);
        // submit 100 + dispatch 100 + reply 800 lie outside program spans.
        assert_eq!(t.unattributed(), 1_000.0);
        assert!(t.check().is_ok());
    }

    #[test]
    fn out_of_order_spans_fail_reconciliation() {
        let root = span(ROOT, 1_000, 10_000);
        // execute "ends" 50 µs after the client saw the reply.
        let spans =
            vec![root.clone(), span("queue_wait", 1_100, 4_000), span("execute", 5_200, 59_000)];
        let t = infer_tiling(&spans, &root).unwrap();
        assert!(t.check().is_err());
    }

    #[test]
    fn missing_span_fails_reconciliation() {
        let root = span(ROOT, 0, 10);
        let mut r = Reconciled::default();
        r.add(infer_tiling(std::slice::from_ref(&root), &root));
        assert_eq!((r.checked, r.failed), (1, 1));
        assert!(r.failures[0].contains("queue_wait"));
    }

    #[test]
    fn op_spans_must_fit_in_and_cover_execute() {
        // execute is span id 1_001 (start 1_000); ops hang under it.
        let ex = span("execute", 1_000, 100_000);
        let plan = child("alloc_plan", 1_000, 1_000, 2_000);
        let fits = vec![ex.clone(), plan.clone(), child("matmul", 1_000, 3_500, 80_000)];
        assert!((op_cover(&fits).unwrap() - 0.82).abs() < 1e-12);
        // Ops that together outlast execute are not its children.
        let over = vec![ex.clone(), plan.clone(), child("matmul", 1_000, 3_500, 104_000)];
        assert!(op_cover(&over).unwrap_err().contains("more than execute"));
        // Spans under another parent do not count.
        let elsewhere = vec![ex.clone(), child("matmul", 7, 3_500, 80_000)];
        assert!(op_cover(&elsewhere).unwrap_err().contains("no op spans"));
        let doubled =
            vec![ex, child("matmul", 1_000, 3_500, 60_000), child("matmul", 1_000, 3_500, 60_000)];
        assert!(op_cover(&doubled).is_err());
    }

    #[test]
    fn stream_spans_match_the_tokens_seen() {
        let spans = vec![
            span("prefill", 0, 1_000),
            with_index(span("decode_iter", 2_000, 500), 1),
            with_index(span("decode_iter", 3_000, 500), 2),
        ];
        assert!(stream_check(&spans, &[1_100.0, 2_600.0, 3_600.0]).is_ok());
        // The prefill must end before the first token is seen.
        assert!(stream_check(&spans, &[900.0 - ORDER_SLACK_NS, 2_600.0, 3_600.0]).is_err());
        // One token more than the engine produced spans for.
        assert!(stream_check(&spans, &[1_100.0, 2_600.0, 3_600.0, 4_000.0]).is_err());
        // The client "saw" token 2 before its decode step started.
        let early = stream_check(&spans, &[1_100.0, 2_600.0, 2_900.0 - ORDER_SLACK_NS]);
        assert!(early.unwrap_err().contains("token 2"));
        // A repeated index is a missing step, even when the count matches.
        let dup = vec![
            span("prefill", 0, 1_000),
            with_index(span("decode_iter", 2_000, 500), 1),
            with_index(span("decode_iter", 3_000, 500), 1),
        ];
        assert!(stream_check(&dup, &[1_100.0, 2_600.0, 3_600.0]).is_err());
    }

    #[test]
    fn unattributed_share_weights_by_request_time() {
        let mut r = Reconciled::default();
        r.add(Ok(Tiling::from_bounds(&[0.0, 900.0, 1_000.0], &[("a", true), ("b", false)])));
        r.add(Ok(Tiling::from_bounds(&[0.0, 3_000.0], &[("a", true)])));
        assert!((r.unattributed_share() - 100.0 / 4_000.0).abs() < 1e-12);
    }

    #[test]
    fn op_groups_cover_the_executor_ops() {
        for op in tt_runtime::executor::OP_NAMES {
            let g = op_group(op);
            assert!(["matmul", "add_bias_gelu", "attention", "layernorm", "other"].contains(&g));
        }
        assert_eq!(op_group("scale_mask_softmax"), "attention");
        assert_eq!(op_group("add_bias_residual_layer_norm"), "layernorm");
        assert_eq!(shape_elems("2x8x16"), 256.0);
    }
}
