//! One serving benchmark for the whole stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bert-poisson --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload against the real serving stack through its public
//! API, checks the outputs, prints every metric by name with its unit,
//! and ends with one JSON line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a separate traced run with `--trace 1`. See
//! `perfbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod bert;
mod fleet;
mod gpt;
mod layers;
mod schedule;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stats::{rung_label, Summary};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order. Every
/// workload reports each of them; the per-workload meaning is in the
/// README.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("throughput_per_cpu", "1/cpu-s"), ("slo_attainment", "share")];

/// The per-layer metrics of `BENCHMARK.json`, in its order. A workload
/// that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("http.self_ms_p50", "ms"),
    ("http.self_ms_p99", "ms"),
    ("http.stream_self_ms_p50", "ms"),
    ("http.non_200", "count"),
    ("router.self_ms_p50", "ms"),
    ("router.dispatch_share_max", "share"),
    ("router.retries", "count"),
    ("router.restarts", "count"),
    ("live.queue_wait_ms_p50", "ms"),
    ("live.queue_wait_ms_p99", "ms"),
    ("live.batch_size_mean", "count"),
    ("live.padding_waste", "share"),
    ("live.reply_ms_p50", "ms"),
    ("scheduler.calls", "count"),
    ("scheduler.us_p50", "us"),
    ("scheduler.us_p99", "us"),
    ("scheduler.queue_len_mean", "count"),
    ("scheduler.splits_mean", "count"),
    ("scheduler.cost_ratio_p50", "ratio"),
    ("runtime.execute_ms_p50", "ms"),
    ("runtime.busy_share", "share"),
    ("runtime.op_self_share.matmul", "share"),
    ("runtime.op_self_share.add_bias_gelu", "share"),
    ("runtime.op_self_share.attention", "share"),
    ("runtime.op_self_share.layernorm", "share"),
    ("runtime.op_self_share.other", "share"),
    ("alloc.plan_us_p50", "us"),
    ("alloc.new_bytes_total", "bytes"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("kernels.gelu_ns_per_elem", "ns/elem"),
    ("generate.queue_wait_ms_p99", "ms"),
    ("generate.prefill_ms_p50", "ms"),
    ("generate.prefill_us_per_token", "us/token"),
    ("generate.decode_iter_ms_p50", "ms"),
    ("generate.active_mean", "count"),
    ("generate.step_us_per_seq", "us/seq"),
    ("kv.pages_in_use_max", "count"),
    ("kv.pages_leaked", "count"),
    ("kv.out_of_pages", "count"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
];

/// Timed set-ups per untraced run: one before the run (the stack that is
/// measured), the rest after it, spaced so that their median samples a few
/// seconds of the host's varying speed rather than one moment of it.
pub const SETUPS: usize = 15;
/// Pause before each set-up after the run.
pub const SETUP_SPACING: Duration = Duration::from_millis(200);

/// Time the set-ups after the run: `setup` builds a fresh stack, waits
/// for its first answer, shuts it down and returns the seconds from start
/// to that answer.
pub fn later_setups(setups: &mut Vec<f64>, mut setup: impl FnMut() -> f64) {
    for _ in 1..SETUPS {
        std::thread::sleep(SETUP_SPACING);
        setups.push(setup());
    }
}

/// Sent / succeeded / failed of one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Requests or streams sent.
    pub sent: u64,
    /// Answered correctly.
    pub ok: u64,
    /// Failed, refused, shed, wrong or truncated.
    pub failed: u64,
}

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The [`END_TO_END`] metrics (untraced pass).
    pub end_to_end: Vec<Metric>,
    /// Named end-to-end metrics of the workloads they apply to.
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced pass).
    pub layers: Vec<Metric>,
    /// Median first-response latency, for the tracing overhead.
    pub latency_p50_ms: f64,
    /// Per-phase accounting.
    pub phases: Vec<Phase>,
    /// Extra report lines (generator lateness, reconciliation, …).
    pub notes: Vec<String>,
    /// Failed output checks.
    pub wrong: Vec<String>,
    /// Reasons the measurement itself is not valid.
    pub invalid: Vec<String>,
}

impl Outcome {
    /// Record a latency sample set under `name` (`<name>_p50_ms`, and
    /// `<name>_p99_ms` only when ten samples lie beyond p99).
    pub fn report_latency(&mut self, name: &str, s: &Option<Summary>) {
        let Some(s) = s else {
            self.wrong.push(format!("{name}: no samples"));
            return;
        };
        self.report.push(Metric::new(&format!("{name}_p50_ms"), s.p50, "ms"));
        match (s.p99, s.tail) {
            (Some(p99), _) => self.report.push(Metric::new(&format!("{name}_p99_ms"), p99, "ms")),
            (None, Some((q, v))) => self.notes.push(format!(
                "{name}_p99_ms: not supported by {} samples; {} = {v:.4} ms",
                s.n,
                rung_label(q)
            )),
            (None, None) => self.notes.push(format!("{name}: only {} samples", s.n)),
        }
        self.notes.push(format!("{name}: n={} max={:.4} ms", s.n, s.max));
    }

    /// Record the [`END_TO_END`] metrics, and set-up time and peak memory
    /// in the report.
    pub fn finish_end_to_end(&mut self, setups: &[f64], throughput: f64, slo: f64, rss: f64) {
        let round = |v: &[f64]| v.iter().map(|x| (x * 1e5).round() / 1e5).collect::<Vec<_>>();
        self.notes.push(format!("set-up times (s): {:?}", round(setups)));
        let setup_s = stats::median(setups);
        self.report.push(Metric::new("peak_rss_mb", rss, "MB"));
        self.report.push(Metric::new("setup_s", setup_s, "s"));
        self.end_to_end = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_per_cpu", throughput, "1/cpu-s"),
            Metric::new("slo_attainment", slo, "share"),
        ];
    }

    /// Fail the output check `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }
}

/// Load-generator lateness and timestamp resolution of an open-loop phase.
#[derive(Debug, Default)]
pub struct Pacing {
    /// Submit instant minus due instant, ms.
    pub lateness_ms: Vec<f64>,
    /// Gaps between consecutive non-blocking polls of pending replies, ms.
    pub poll_gap_ms: Vec<f64>,
    /// Requests outstanding when the last steady request was sent.
    pub backlog_at_end: usize,
}

/// The generator keeps an open loop's schedule when its lateness tail
/// stays within this share of the mean arrival gap, and its worst
/// lateness within this many gaps: beyond that, late submissions bunch
/// up and the arrival process is no longer the one planned.
const LATENESS_TAIL_GAPS: f64 = 0.5;
const LATENESS_MAX_GAPS: f64 = 10.0;

impl Pacing {
    /// Validate and describe: the generator kept the schedule of arrivals
    /// `mean_gap_ms` apart, the backlog stayed under `backlog_max`, and
    /// polls resolved finer than a tenth of `smallest_median_ms`.
    pub fn judge(
        &self,
        out: &mut Outcome,
        phase: &str,
        backlog_max: usize,
        smallest_median_ms: f64,
        mean_gap_ms: f64,
    ) {
        let late = Summary::of(&self.lateness_ms);
        let poll = Summary::of(&self.poll_gap_ms);
        let (late99, late_max) =
            late.as_ref().map_or((0.0, 0.0), |s| (s.tail.map_or(s.max, |t| t.1), s.max));
        let poll99 = poll.as_ref().map_or(0.0, |s| s.tail.map_or(s.max, |t| t.1));
        out.notes.push(format!(
            "{phase}: generator lateness tail {late99:.4} ms, max {late_max:.4} ms; backlog at end {}; poll gap tail {poll99:.4} ms",
            self.backlog_at_end
        ));
        if late99 > LATENESS_TAIL_GAPS * mean_gap_ms || late_max > LATENESS_MAX_GAPS * mean_gap_ms {
            out.invalid.push(format!(
                "{phase}: generator fell behind (lateness tail {late99:.3} ms, max {late_max:.3} ms)"
            ));
        }
        if self.backlog_at_end > backlog_max {
            out.invalid.push(format!(
                "{phase}: backlog grew to {} (limit {backlog_max})",
                self.backlog_at_end
            ));
        }
        if poll99 > smallest_median_ms / 10.0 {
            out.invalid.push(format!(
                "{phase}: client polls every {poll99:.4} ms, coarser than a tenth of the {smallest_median_ms:.4} ms median"
            ));
        }
    }
}

/// Sleep until shortly before `t`, then spin to it (at most 300 µs per
/// request, on the client's own CPU).
pub fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now + Duration::from_micros(300) {
        std::thread::sleep(t - now - Duration::from_micros(200));
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=120.0).contains(&s) {
                    return Err(format!("--seconds must be within 1..=120, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["bert-poisson", "gpt-stream", "http-fleet"];

fn run_pass(args: &Args, place: &sys::Placement, seconds: f64, traced: bool) -> Outcome {
    match args.workload.as_str() {
        "bert-poisson" => bert::run(args.seed, seconds, traced, place),
        "gpt-stream" => gpt::run(args.seed, seconds, traced, place),
        _ => fleet::run(args.seed, seconds, traced),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The measured program must be the shipped default: no TT_* override.
    let overrides: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("TT_")).collect();
    if !overrides.is_empty() {
        eprintln!("perfbench: refusing to run with configuration overrides set: {overrides:?}");
        std::process::exit(2);
    }

    // The fleet's dozen server threads and two clients stay unpinned (see
    // the README).
    let place = match args.workload.as_str() {
        "http-fleet" => sys::Placement::shared(),
        _ => sys::Placement::choose(),
    };
    let started = Instant::now();
    let times0 = sys::cpu_times();
    println!(
        "fingerprint: nproc={} cpu=\"{}\" gemm_kernel={} int8={} commit={} seed={} workload={} seconds={} trace={} cpus={:?} client_cpu={:?}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sys::cpu_model(),
        tt_tensor::kernel_variant_name(),
        tt_model::weights::int8_enabled(),
        sys::git_commit(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
        place.cpus,
        place.client,
    );

    let (out, metrics) = if args.trace {
        // Same workload twice, half the time each: untraced for the
        // overhead baseline, then traced for the layer metrics.
        let base = run_pass(&args, &place, args.seconds / 2.0, false);
        let mut traced = run_pass(&args, &place, args.seconds / 2.0, true);
        let overhead = traced.latency_p50_ms / base.latency_p50_ms.max(1e-9) - 1.0;
        traced.notes.push(format!(
            "trace overhead: traced p50 {:.4} ms vs untraced p50 {:.4} ms",
            traced.latency_p50_ms, base.latency_p50_ms
        ));
        traced.layers.push(Metric::new("trace.overhead_share", overhead, "share"));
        traced.wrong.extend(base.wrong.iter().map(|w| format!("untraced pass: {w}")));
        traced.invalid.extend(base.invalid.iter().map(|w| format!("untraced pass: {w}")));
        traced.phases.extend(
            base.phases.into_iter().map(|p| Phase { name: format!("untraced {}", p.name), ..p }),
        );
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = traced.layers.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                Metric::new(name, v, unit)
            })
            .collect::<Vec<_>>();
        (traced, metrics)
    } else {
        let out = run_pass(&args, &place, args.seconds, false);
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let m = out.end_to_end.iter().find(|m| m.name == name);
                Metric::new(name, m.map_or(f64::NAN, |m| m.value), unit)
            })
            .collect::<Vec<_>>();
        (out, metrics)
    };

    for m in &out.report {
        println!("metric {} = {:.6} {}", m.name, m.value, m.unit);
    }
    for m in &out.layers {
        println!("layer {} = {:.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.phases {
        println!("phase {}: sent={} succeeded={} failed={}", p.name, p.sent, p.ok, p.failed);
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    for w in &out.wrong {
        println!("WRONG: {w}");
    }
    let times1 = sys::cpu_times();
    for (cpu, (a, b)) in times0.iter().zip(&times1).enumerate() {
        let total = (b.2 - a.2).max(1) as f64;
        println!(
            "host: cpu{cpu} busy {:.3} steal {:.3}",
            (b.0 - a.0) as f64 / total,
            (b.1 - a.1) as f64 / total
        );
    }
    println!("wall: {:.3} s", started.elapsed().as_secs_f64());
    if !out.invalid.is_empty() {
        for i in &out.invalid {
            eprintln!("perfbench: invalid run: {i}");
        }
        std::process::exit(3);
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} was not measured", m.name);
        std::process::exit(3);
    }

    let attempted: u64 = out.phases.iter().map(|p| p.sent).sum();
    let failed: u64 = out.phases.iter().map(|p| p.failed).sum();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        out.wrong.is_empty() && failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde::json::parse(text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(|v| v.as_str()).expect("name");
                let unit = m.get("unit").and_then(|v| v.as_str()).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde::json::parse(text).expect("BENCHMARK.json parses");
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(listed, WORKLOADS);
    }
}
