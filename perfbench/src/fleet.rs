//! `http-fleet`: the HTTP server binary's wiring — epoll reactor, a
//! supervised two-replica `Fleet`, BERT-tiny and GPT-tiny — driven over
//! loopback by two closed-loop clients.
//!
//! Model compute is negligible here, so the front-end, the router and the
//! engine hand-offs dominate. One client thread sends `/v1/infer` on a
//! keep-alive connection; the other opens a connection per `/v1/generate`
//! stream (the server closes each stream's connection).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tt_gpusim::device::DeviceKind;
use tt_model::bert::{Bert, BertConfig};
use tt_model::gpt::{Gpt, GptConfig};
use tt_runtime::decode::DecodeEnergyModel;
use tt_runtime::{RuntimeConfig, RuntimeKind, TurboRuntime};
use tt_serving::generate::start_engine_with_energy;
use tt_serving::http::{GenerateHandler, HttpConfig, HttpServer, InferHandler, VocabGuard};
use tt_serving::live::spawn_core;
use tt_serving::scheduler::{BatchScheduler, DpScheduler, InstrumentedScheduler};
use tt_serving::supervisor::{ReplicaFactory, ReplicaParts};
use tt_serving::{Fleet, FleetConfig, GenConfig};
use tt_telemetry::{
    EnergyMeter, EnergySampler, EnergySamplerConfig, Gauge, ModeledPowerSource, Registry, TraceId,
    Tracer,
};

use crate::layers::{
    self, Reconciled, SpanIndex, Tiling, TimedGenerate, TimedInfer, TimedScheduler,
};
use crate::schedule::{tokens, Rng};
use crate::stats::{median, Summary};
use crate::sys::{peak_rss_mb, process_cpu_s};
use crate::{Metric, Outcome, Phase};

const MODEL_SEED: u64 = 2024;
const REPLICAS: usize = 2;
/// Tokens per `/v1/generate` stream.
const STREAM_TOKENS: usize = 16;
/// SLO limits: infer latency and time to first token.
const INFER_LIMIT_MS: f64 = 25.0;
const TTFT_LIMIT_MS: f64 = 25.0;
const WARMUP_S: f64 = 0.3;
/// Every Nth infer reply is checked against the eager oracle, and every
/// Nth stream against a reference generation.
const CHECK_EVERY: usize = 16;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

struct Stack {
    server: HttpServer,
    fleet: Fleet,
    _sampler: EnergySampler,
    registry: Registry,
    timed: Option<Arc<TimedScheduler>>,
    model: Arc<Bert>,
}

/// Start the stack and time it until a fixed probe request has been
/// answered over HTTP.
fn timed_start(tracer: &Tracer, traced: bool) -> (Stack, f64) {
    let t0 = Instant::now();
    let stack = start(tracer, traced);
    let first = Conn::open(stack.server.addr())
        .and_then(|mut c| infer_once(&mut c, "/v1/infer", crate::bert::probe()));
    let took = t0.elapsed().as_secs_f64();
    assert!(first.is_ok_and(|f| f.status == 200), "the set-up probe request failed");
    (stack, took)
}

fn start(tracer: &Tracer, traced: bool) -> Stack {
    let registry = Registry::new();
    let bert_config = BertConfig::tiny();
    let model = Arc::new(Bert::new_random(&bert_config, MODEL_SEED));
    let device_kind = DeviceKind::RTX2060;
    let runtime = Arc::new(TurboRuntime::new(RuntimeConfig::turbo(device_kind)));
    runtime.instrument(&registry);
    let meter = Arc::new(EnergyMeter::new());
    runtime.instrument_energy(meter.clone());
    let costs = Arc::new(
        crate::bert::prior_costs(64)
            .with_energy_profile(&runtime, &bert_config)
            .with_online_updates(0.2),
    );
    let mut config = HttpConfig::from_env();
    config.addr = "127.0.0.1:0".into();
    let instrumented: Arc<dyn BatchScheduler> =
        Arc::new(InstrumentedScheduler::new(Arc::new(DpScheduler), &registry));
    let timed = traced.then(|| Arc::new(TimedScheduler::new(instrumented.clone())));
    let scheduler = timed.clone().map_or(instrumented, |t| t as Arc<dyn BatchScheduler>);
    let gen_config = GenConfig::from_env();
    let energy_model = DecodeEnergyModel {
        device: device_kind.config(),
        profile: RuntimeKind::Turbo.profile(),
        meter: meter.clone(),
    };
    let factory: ReplicaFactory = {
        let (model, runtime, costs) = (model.clone(), runtime.clone(), costs.clone());
        let (registry, tracer) = (registry.clone(), tracer.clone());
        Arc::new(move |id, _generation| {
            let live = spawn_core(
                model.clone(),
                runtime.clone(),
                scheduler.clone(),
                costs.clone(),
                Some(&registry),
                tracer.clone(),
                id,
            );
            let gpt = Gpt::new_random(&GptConfig::tiny(), MODEL_SEED);
            let generative = start_engine_with_energy(
                gpt,
                gen_config,
                costs.clone(),
                Some(&registry),
                tracer.clone(),
                Some(energy_model.clone()),
            )
            .into_parts();
            ReplicaParts { live, generative: Some(generative) }
        })
    };
    let fleet_config = FleetConfig { replicas: REPLICAS, ..FleetConfig::from_env() };
    let fleet = Fleet::start(factory, fleet_config, costs.clone(), Some(&registry));
    let guarded = VocabGuard::new(fleet.clone(), bert_config.vocab_size);
    let (handler, generate): (Arc<dyn InferHandler>, Arc<dyn GenerateHandler>) = if traced {
        (
            Arc::new(TimedInfer { inner: guarded, tracer: tracer.clone() }),
            Arc::new(TimedGenerate { inner: fleet.clone(), tracer: tracer.clone() }),
        )
    } else {
        (Arc::new(guarded), Arc::new(fleet.clone()))
    };
    let mut sampler_config = EnergySamplerConfig::from_env();
    sampler_config.per_request =
        Some(registry.counter("live_requests_total", "Requests served", &[]));
    sampler_config.per_token =
        Some(registry.counter("decode_tokens_total", "Tokens emitted by the decode engine", &[]));
    let source = Arc::new(ModeledPowerSource::new(meter, device_kind.config().idle_watts));
    let sampler = EnergySampler::start(&registry, source, sampler_config);
    let server = HttpServer::start_generative(
        config,
        handler,
        Some(generate),
        &registry,
        tracer.clone(),
        Some(costs),
    )
    .expect("binding the HTTP listener");
    Stack { server, fleet, _sampler: sampler, registry, timed, model }
}

/// A minimal HTTP/1.1 client: one request at a time on one connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct Head {
    status: u16,
    content_length: Option<usize>,
    chunked: bool,
    trace: Option<TraceId>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream, buf: Vec::with_capacity(4096) })
    }

    fn post(&mut self, path: &str, body: &str) -> io::Result<()> {
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn take_until(&mut self, pat: &[u8]) -> io::Result<Vec<u8>> {
        loop {
            if let Some(pos) = self.buf.windows(pat.len()).position(|w| w == pat) {
                let rest = self.buf.split_off(pos + pat.len());
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.truncate(pos);
                return Ok(line);
            }
            self.fill()?;
        }
    }

    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        let rest = self.buf.split_off(n);
        Ok(std::mem::replace(&mut self.buf, rest))
    }

    fn head(&mut self) -> io::Result<Head> {
        let raw = self.take_until(b"\r\n\r\n")?;
        let text = String::from_utf8_lossy(&raw);
        let mut lines = text.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut head = Head { status, content_length: None, chunked: false, trace: None };
        for line in lines {
            let Some((k, v)) = line.split_once(':') else { continue };
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            match k.as_str() {
                "content-length" => head.content_length = v.parse().ok(),
                "transfer-encoding" => head.chunked = v.eq_ignore_ascii_case("chunked"),
                "x-tt-trace-id" => head.trace = TraceId::parse(v),
                _ => {}
            }
        }
        Ok(head)
    }

    /// Next chunk of a chunked body; `None` after the terminal chunk.
    fn chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let size_line = self.take_until(b"\r\n")?;
        let size = usize::from_str_radix(String::from_utf8_lossy(&size_line).trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        let data = self.take(size + 2)?;
        Ok((size > 0).then(|| data[..size].to_vec()))
    }
}

/// One `/v1/infer` exchange as the client saw it.
struct InferSample {
    tokens: Vec<u32>,
    send: Instant,
    recv: Instant,
    status: u16,
    trace: Option<TraceId>,
    /// Parsed CLS vector and batch size of a 200 body.
    reply: Result<(Vec<f32>, usize), String>,
}

/// One `/v1/generate` stream as the client saw it.
struct StreamSample {
    prompt: Vec<u32>,
    send: Instant,
    seen: Vec<Instant>,
    tokens: Vec<u32>,
    status: u16,
    trace: Option<TraceId>,
    /// `finish` and token count of the terminal event, if it came.
    done: Option<(String, usize)>,
    error: Option<String>,
}

fn infer_target(traced: bool) -> &'static str {
    if traced {
        "/v1/infer?trace=1"
    } else {
        "/v1/infer"
    }
}

fn parse_reply(body: &[u8]) -> Result<(Vec<f32>, usize), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let v = serde::json::parse(text).map_err(|e| format!("body does not parse: {e:?}"))?;
    let cls = v
        .get("cls_vector")
        .and_then(|c| c.as_array())
        .ok_or("body has no cls_vector")?
        .iter()
        .map(|x| x.as_f64().map(|f| f as f32).ok_or("non-numeric cls value"))
        .collect::<Result<Vec<f32>, _>>()?;
    let batch = v.get("batch_size").and_then(|b| b.as_f64()).ok_or("body has no batch_size")?;
    Ok((cls, batch as usize))
}

fn infer_once(conn: &mut Conn, target: &str, tokens: Vec<u32>) -> io::Result<InferSample> {
    let body = format!("{{\"tokens\": {tokens:?}}}");
    let send = Instant::now();
    conn.post(target, &body)?;
    let head = conn.head()?;
    let payload = conn.take(head.content_length.unwrap_or(0))?;
    let recv = Instant::now();
    let reply = if head.status == 200 {
        parse_reply(&payload)
    } else {
        Err(format!("status {}", head.status))
    };
    Ok(InferSample { tokens, send, recv, status: head.status, trace: head.trace, reply })
}

fn draw_infer(rng: &mut Rng) -> Vec<u32> {
    let len = rng.range(4, 32);
    tokens(rng, len, BertConfig::tiny().vocab_size)
}

fn draw_prompt(rng: &mut Rng) -> Vec<u32> {
    let len = rng.range(2, 12);
    tokens(rng, len, GptConfig::tiny().vocab_size)
}

/// Closed-loop `/v1/infer` on one keep-alive connection until `until`.
fn infer_loop(addr: SocketAddr, rng: &mut Rng, traced: bool, until: Instant) -> Vec<InferSample> {
    let mut out = Vec::new();
    let mut conn = None;
    while Instant::now() < until {
        let tokens = draw_infer(rng);
        let c = match conn.take() {
            Some(c) => c,
            None => match Conn::open(addr) {
                Ok(c) => c,
                Err(e) => {
                    let now = Instant::now();
                    let reply = Err(format!("connect failed: {e}"));
                    out.push(InferSample {
                        tokens,
                        send: now,
                        recv: now,
                        status: 0,
                        trace: None,
                        reply,
                    });
                    continue;
                }
            },
        };
        let mut c = c;
        match infer_once(&mut c, infer_target(traced), tokens.clone()) {
            Ok(s) => {
                out.push(s);
                conn = Some(c);
            }
            Err(e) => {
                let now = Instant::now();
                let reply = Err(format!("exchange failed: {e}"));
                out.push(InferSample {
                    tokens,
                    send: now,
                    recv: now,
                    status: 0,
                    trace: None,
                    reply,
                });
            }
        }
    }
    out
}

fn stream_once(
    addr: SocketAddr,
    traced: bool,
    prompt: Vec<u32>,
    pages: &Gauge,
    kv_max: &mut f64,
) -> StreamSample {
    let send = Instant::now();
    let mut s = StreamSample {
        prompt,
        send,
        seen: Vec::new(),
        tokens: Vec::new(),
        status: 0,
        trace: None,
        done: None,
        error: None,
    };
    let res = (|| -> io::Result<()> {
        let mut conn = Conn::open(addr)?;
        let body = format!("{{\"prompt\": {:?}, \"max_new_tokens\": {STREAM_TOKENS}}}", s.prompt);
        let target = if traced { "/v1/generate?trace=1" } else { "/v1/generate" };
        s.send = Instant::now();
        conn.post(target, &body)?;
        let head = conn.head()?;
        s.status = head.status;
        s.trace = head.trace;
        if head.status != 200 || !head.chunked {
            return Ok(());
        }
        while let Some(data) = conn.chunk()? {
            let now = Instant::now();
            *kv_max = kv_max.max(pages.get());
            for line in String::from_utf8_lossy(&data).lines().filter(|l| !l.trim().is_empty()) {
                let v = serde::json::parse(line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
                match v.get("event").and_then(|e| e.as_str()) {
                    Some("token") => {
                        s.seen.push(now);
                        s.tokens
                            .push(v.get("token").and_then(|t| t.as_f64()).unwrap_or(-1.0) as u32);
                    }
                    Some("done") => {
                        let finish =
                            v.get("finish").and_then(|f| f.as_str()).unwrap_or("").to_string();
                        let n = v.get("tokens").and_then(|t| t.as_f64()).unwrap_or(-1.0) as usize;
                        s.done = Some((finish, n));
                    }
                    _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "unknown event")),
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = res {
        s.error = Some(e.to_string());
    }
    s
}

/// Closed-loop `/v1/generate`, a new connection per stream, until `until`.
fn stream_loop(
    addr: SocketAddr,
    rng: &mut Rng,
    traced: bool,
    until: Instant,
    pages: &Gauge,
) -> (Vec<StreamSample>, f64) {
    let mut out = Vec::new();
    let mut kv_max = 0.0f64;
    while Instant::now() < until {
        out.push(stream_once(addr, traced, draw_prompt(rng), pages, &mut kv_max));
    }
    (out, kv_max)
}

fn check_infer(model: &Bert, s: &InferSample, oracle: bool) -> Result<(), String> {
    let (cls, batch) = s.reply.as_ref().map_err(Clone::clone)?;
    crate::bert::check_cls(model, &s.tokens, cls, *batch, oracle)
}

fn check_stream(s: &StreamSample, reference: Option<&Gpt>) -> Result<(), String> {
    if let Some(e) = &s.error {
        return Err(format!("stream failed: {e}"));
    }
    if s.status != 200 {
        return Err(format!("status {}", s.status));
    }
    match &s.done {
        Some((finish, n)) if finish == "length" && *n == STREAM_TOKENS && s.tokens.len() == *n => {}
        other => {
            return Err(format!("stream ended with {other:?} after {} tokens", s.tokens.len()));
        }
    }
    if let Some(model) = reference {
        if model.generate_greedy(&s.prompt, STREAM_TOKENS) != s.tokens {
            return Err("greedy tokens differ from the reference generation".into());
        }
    }
    Ok(())
}

fn counter_sum(registry: &Registry, name: &str, label: &str, values: &[&str]) -> u64 {
    values.iter().map(|v| registry.counter(name, "", &[(label, v)]).get()).sum()
}

fn dispatches(registry: &Registry) -> Vec<u64> {
    (0..REPLICAS)
        .map(|i| registry.counter("fleet_dispatch_total", "", &[("replica", &i.to_string())]).get())
        .collect()
}

const RETRY_OUTCOMES: [&str; 4] = ["success", "exhausted", "budget", "deadline"];

/// Run the workload for `seconds`, traced or not.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let tracer = if traced { layers::tracer() } else { Tracer::disabled() };
    let mut infer_rng = Rng::new(seed, 3);
    let mut stream_rng = Rng::new(seed, 4);

    let (stack, first) = timed_start(&tracer, traced);
    let mut setups = vec![first];
    let addr = stack.server.addr();
    let pages = stack.registry.gauge("kv_pages_in_use", "", &[]);
    {
        // Warm both routes on both replicas before measuring.
        let until = Instant::now() + Duration::from_secs_f64(WARMUP_S);
        let mut warm_rng = Rng::new(seed, 6);
        let (a, b) = std::thread::scope(|sc| {
            let h = sc.spawn(|| infer_loop(addr, &mut Rng::new(seed, 7), false, until));
            let b = stream_loop(addr, &mut warm_rng, false, until, &pages);
            (h.join().expect("warm-up client"), b)
        });
        out.check(a.iter().all(|s| s.status == 200), || "warm-up infer failed".into());
        out.check(b.0.iter().all(|s| s.status == 200), || "warm-up stream failed".into());
    }
    let warm_calls = stack.timed.as_ref().map_or(0, |t| t.calls().len());
    let real0 = stack.registry.counter("live_real_tokens_total", "", &[]).get();
    let padded0 = stack.registry.counter("live_padded_tokens_total", "", &[]).get();
    let dispatch0 = dispatches(&stack.registry);
    let retries0 = counter_sum(&stack.registry, "fleet_retries_total", "outcome", &RETRY_OUTCOMES);

    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let (infers, (streams, kv_max)) = std::thread::scope(|sc| {
        let h = sc.spawn(|| infer_loop(addr, &mut infer_rng, traced, until));
        let s = stream_loop(addr, &mut stream_rng, traced, until, &pages);
        (h.join().expect("infer client"), s)
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    let rss = peak_rss_mb();
    let restarts: u64 = stack.fleet.restarts().iter().sum();

    let reference = Gpt::new_random(&GptConfig::tiny(), MODEL_SEED);
    let (mut lat, mut ttft) = (Vec::new(), Vec::new());
    let (mut iok, mut ifailed, mut attained) = (0u64, 0u64, 0u64);
    let mut non_200 = 0u64;
    for (i, s) in infers.iter().enumerate() {
        non_200 += u64::from(s.status != 200);
        match check_infer(&stack.model, s, i % CHECK_EVERY == 0) {
            Ok(()) => {
                iok += 1;
                let ms = (s.recv - s.send).as_secs_f64() * 1e3;
                lat.push(ms);
                attained += u64::from(ms <= INFER_LIMIT_MS);
            }
            Err(e) => {
                ifailed += 1;
                out.wrong.push(format!("infer {i}: {e}"));
            }
        }
    }
    out.phases.push(Phase {
        name: "infer".into(),
        sent: infers.len() as u64,
        ok: iok,
        failed: ifailed,
    });
    let (mut sok, mut sfailed, mut tokens) = (0u64, 0u64, 0usize);
    for (i, s) in streams.iter().enumerate() {
        non_200 += u64::from(s.status != 200);
        tokens += s.tokens.len();
        match check_stream(s, (i % CHECK_EVERY == 0).then_some(&reference)) {
            Ok(()) => {
                sok += 1;
                let t = (s.seen[0] - s.send).as_secs_f64() * 1e3;
                ttft.push(t);
                attained += u64::from(t <= TTFT_LIMIT_MS);
            }
            Err(e) => {
                sfailed += 1;
                out.wrong.push(format!("stream {i}: {e}"));
            }
        }
    }
    out.phases.push(Phase {
        name: "generate".into(),
        sent: streams.len() as u64,
        ok: sok,
        failed: sfailed,
    });

    let lat_s = Summary::of(&lat);
    out.report_latency("infer", &lat_s);
    out.report_latency("ttft", &Summary::of(&ttft));
    let p50 = lat_s.as_ref().map_or(f64::NAN, |s| s.p50);
    let sent = (infers.len() + streams.len()) as u64;
    let slo = attained as f64 / sent.max(1) as f64;
    let rps = iok as f64 / wall;
    let per_cpu = (iok + sok) as f64 / cpu;
    out.latency_p50_ms = p50;
    out.report.extend([
        Metric::new("infer_slo_attainment", slo, "share"),
        Metric::new("infer_rps", rps, "req/s"),
        Metric::new("requests_per_cpu_s", per_cpu, "1/cpu-s"),
        Metric::new("decode_tokens_per_s", tokens as f64 / wall, "tok/s"),
        Metric::new("failed_share", (ifailed + sfailed) as f64 / sent.max(1) as f64, "share"),
    ]);
    let d: Vec<u64> =
        dispatches(&stack.registry).iter().zip(&dispatch0).map(|(a, b)| a - b).collect();
    out.notes.push(format!(
        "closed loop {wall:.1} s: {} infers, {} streams of {STREAM_TOKENS} tokens; fleet dispatches per replica {d:?}; limits infer {INFER_LIMIT_MS} ms, TTFT {TTFT_LIMIT_MS} ms",
        infers.len(),
        streams.len()
    ));

    if traced {
        let calls = stack.timed.as_ref().map(|t| t.calls()).unwrap_or_default();
        let calls = &calls[warm_calls.min(calls.len())..];
        let padding = (
            stack.registry.counter("live_real_tokens_total", "", &[]).get() - real0,
            stack.registry.counter("live_padded_tokens_total", "", &[]).get() - padded0,
        );
        match SpanIndex::collect(&tracer) {
            Ok(idx) => {
                let mut rec = Reconciled::default();
                let (mut http_self, mut router_self, mut qw) = (Vec::new(), Vec::new(), Vec::new());
                for s in infers.iter().filter(|s| s.status == 200) {
                    let Some(id) = s.trace else { continue };
                    let spans = idx.trace(id);
                    let t = layers::http_infer_tiling(
                        spans,
                        tracer.ns_of(s.send) as f64,
                        tracer.ns_of(s.recv) as f64,
                    )
                    .and_then(|t| {
                        rec.cover(layers::op_cover(spans)?);
                        Ok(t)
                    });
                    if let Ok(t) = &t {
                        let handler = t.part("router.dispatch")
                            + t.part("live.queue_wait")
                            + t.part("live.dispatch")
                            + t.part("runtime.execute")
                            + t.part("router.reply");
                        http_self.push((t.total - handler) / 1e6);
                        router_self
                            .push((t.part("router.dispatch") + t.part("router.reply")) / 1e6);
                        qw.push(t.part("live.queue_wait") / 1e6);
                    }
                    rec.add(t);
                }
                let mut stream_self = Vec::new();
                let mut traced_streams = Vec::new();
                for s in streams.iter().filter(|s| s.status == 200 && !s.seen.is_empty()) {
                    let Some(id) = s.trace else { continue };
                    traced_streams.push((id, s.prompt.len()));
                    let spans = idx.trace(id);
                    let seen: Vec<f64> = s.seen.iter().map(|&at| tracer.ns_of(at) as f64).collect();
                    let t = stream_tiling(spans, tracer.ns_of(s.send) as f64, seen[0])
                        .and_then(|t| layers::stream_check(spans, &seen).map(|()| t));
                    if let Ok(t) = &t {
                        let in_handler = t.part("generate.queue_wait") + t.part("generate.prefill");
                        stream_self.push((t.total - in_handler) / 1e6);
                    }
                    rec.add(t);
                }
                let (h50, h99) = layers::p50_tail(http_self);
                let (q50, q99) = layers::p50_tail(qw);
                let total_d: u64 = d.iter().sum();
                out.layers.extend([
                    Metric::new("http.self_ms_p50", h50, "ms"),
                    Metric::new("http.self_ms_p99", h99, "ms"),
                    Metric::new("http.stream_self_ms_p50", median(&stream_self), "ms"),
                    Metric::new("router.self_ms_p50", median(&router_self), "ms"),
                    Metric::new(
                        "router.dispatch_share_max",
                        d.iter().copied().max().unwrap_or(0) as f64 / total_d.max(1) as f64,
                        "share",
                    ),
                    Metric::new("live.queue_wait_ms_p50", q50, "ms"),
                    Metric::new("live.queue_wait_ms_p99", q99, "ms"),
                ]);
                let cfg = BertConfig::tiny();
                out.layers.extend(layers::encoder_layers(
                    &idx,
                    calls,
                    |b, l| crate::bert::matmul_flops(&cfg, b, l),
                    wall * 1e9,
                    padding,
                ));
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
        let retries =
            counter_sum(&stack.registry, "fleet_retries_total", "outcome", &RETRY_OUTCOMES)
                - retries0;
        out.layers.extend([
            Metric::new("http.non_200", non_200 as f64, "count"),
            Metric::new("router.retries", retries as f64, "count"),
            Metric::new("router.restarts", restarts as f64, "count"),
            Metric::new("kv.pages_in_use_max", kv_max, "count"),
        ]);
    }
    out.check(restarts == 0, || format!("{restarts} replica restarts"));
    stack.server.shutdown();
    stack.fleet.shutdown();
    let leaked = stack.registry.gauge("kv_pages_in_use", "", &[]).get();
    out.check(leaked == 0.0, || format!("{leaked} KV pages still in use after shutdown"));
    if traced {
        out.layers.push(Metric::new("kv.pages_leaked", leaked, "count"));
        let oop = stack.registry.counter("kv_alloc_failures_total", "", &[]).get();
        out.layers.push(Metric::new("kv.out_of_pages", oop as f64, "count"));
    } else {
        crate::later_setups(&mut setups, || {
            let (s, took) = timed_start(&tracer, false);
            s.server.shutdown();
            s.fleet.shutdown();
            took
        });
    }
    out.finish_end_to_end(&setups, per_cpu, slo, rss);
    out
}

/// Time to first token of an HTTP stream: client send → server `http`
/// root → [`layers::HANDLER`] → `prefill` → first token chunk read.
fn stream_tiling(
    spans: &[tt_telemetry::SpanRecord],
    send: f64,
    first: f64,
) -> Result<Tiling, String> {
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("stream trace is missing `{name}`"))
    };
    let (http, h, pf) = (find("http")?, find(layers::HANDLER)?, find("prefill")?);
    Ok(Tiling::from_bounds(
        &[
            send,
            http.start_ns as f64,
            h.start_ns as f64,
            pf.start_ns as f64,
            (pf.start_ns + pf.dur_ns) as f64,
            first,
        ],
        &[
            ("http.ingress", false),
            ("http.admit", true),
            ("generate.queue_wait", true),
            ("generate.prefill", true),
            ("http.stream_out", false),
        ],
    ))
}
