//! The fleet router: health-gated, length-aware dispatch over supervised
//! engine replicas, with bounded deadline-aware retries and optional
//! hedging.
//!
//! A [`Fleet`] fronts N [`SupervisedReplica`]s and owns three decisions
//! per request:
//!
//! 1. **Where** — least-estimated-work dispatch: each replica carries an
//!    atomic sum of the [`CachedCost`] estimates of its in-flight
//!    requests; the request goes to the healthy replica with the least
//!    outstanding estimated work (length-aware, exactly the signal the
//!    paper's scheduler batches on).
//! 2. **Whether** — a per-replica circuit breaker:
//!
//!    ```text
//!              error rate ≥ degrade, or p99 ≥ threshold
//!      Healthy ─────────────────────────────────────────▶ Degraded
//!         ▲  ▲                                               │
//!         │  │ window recovers                               │ error rate ≥ eject
//!         │  └───────────────────────────────────────────────┤
//!         │                                                  ▼
//!         │    probe succeeds                             Ejected ◀─┐
//!         └──────────────── HalfOpen ◀──────────────────────┘       │
//!                              │        cooldown elapses            │
//!                              └─────────────────────────────────────
//!                                probe fails (or replica hard-down)
//!    ```
//!
//!    Ejected replicas receive no traffic; after the cooldown exactly one
//!    live request is admitted as a *probe* (HalfOpen), and its outcome
//!    decides re-admission. A replica that is mid-restart or whose
//!    heartbeat is stale is hard-down: forced `Ejected` regardless of its
//!    window. Degraded replicas are only used when no healthy one exists.
//! 3. **Again?** — the [`retry`](crate::retry) layer: failures that mean
//!    "this replica, right now" ([`LiveError::Unavailable`] — a bounced
//!    or mid-restart replica) are retried on the (rebalanced) fleet with
//!    decorrelated-jitter backoff, a global retry budget, and a hard
//!    deadline gate. [`LiveError::DeadlineExceeded`] is never retried:
//!    the deadline is end-to-end, so a second attempt can only be later.
//!    Generation streams are never retried past submission — once a
//!    stream exists, re-dispatching would replay tokens.
//!
//! With `TT_HEDGE_MS` set, a tail-latency *hedge* fires for idempotent
//! `/v1/infer` dispatches: if the first attempt has not answered within
//! the hedge delay, a duplicate is dispatched (the work-estimate bias
//! naturally steers it to a different replica) and the first usable
//! answer wins.
//!
//! See `docs/ROBUSTNESS.md` § Fleet for the full semantics and the
//! `serving_fleet` bench for the measured kill-one-of-three drill.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};

use tt_telemetry::{Counter, Gauge, Histogram, Registry, SpanContext};

use crate::config::{knob, process_env, Lookup};
use crate::cost_table::CachedCost;
use crate::deadline::Deadline;
use crate::generate::TokenEvent;
use crate::http::{GenerateHandler, InferError, InferHandler, InferReply};
use crate::live::{LiveError, LiveResponse};
use crate::retry::{fits_deadline, Backoff, RetryBudget, RetryConfig};
use crate::supervisor::{ReplicaFactory, ReplicaReport, SupervisedReplica, SupervisorConfig};

/// A replica's position in the circuit-breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full traffic.
    Healthy,
    /// Alive but impaired (error rate or latency over the degrade
    /// threshold): used only when no healthy replica exists.
    Degraded,
    /// No traffic; waiting out the cooldown.
    Ejected,
    /// Cooldown elapsed; exactly one in-flight probe decides re-admission.
    HalfOpen,
}

impl HealthState {
    /// Stable snake_case name (the `to` label on transition counters).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Ejected => "ejected",
            HealthState::HalfOpen => "half_open",
        }
    }

    /// Encoding for the `replica_health` gauge: 0 healthy, 1 degraded,
    /// 2 ejected, 3 half-open.
    pub fn gauge_value(self) -> f64 {
        match self {
            HealthState::Healthy => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::Ejected => 2.0,
            HealthState::HalfOpen => 3.0,
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Rolling outcome/latency window per replica.
    pub window: usize,
    /// Outcomes required before rate-based transitions engage (a single
    /// early error must not eject a cold replica).
    pub min_samples: usize,
    /// Error rate at or above which a replica degrades.
    pub degrade_error_rate: f64,
    /// Error rate at or above which a replica ejects.
    pub eject_error_rate: f64,
    /// Windowed p99 request latency at or above which a replica degrades.
    pub degrade_latency: Duration,
    /// How long an ejected replica waits before its half-open probe.
    pub eject_cooldown: Duration,
    /// Heartbeat age past which the router treats the replica as
    /// hard-down (keep aligned with the supervisor's liveness deadline).
    pub stale_heartbeat: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: 32,
            min_samples: 8,
            degrade_error_rate: 0.2,
            eject_error_rate: 0.5,
            degrade_latency: Duration::from_millis(500),
            eject_cooldown: Duration::from_millis(250),
            stale_heartbeat: Duration::from_millis(1500),
        }
    }
}

/// Everything a [`Fleet`] needs to start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of engine replicas.
    pub replicas: usize,
    /// Watchdog tuning, applied per replica.
    pub supervisor: SupervisorConfig,
    /// Circuit-breaker tuning, applied per replica.
    pub health: HealthConfig,
    /// Retry layer tuning.
    pub retry: RetryConfig,
    /// Hedged-dispatch delay for `/v1/infer`; `None` disables hedging.
    pub hedge: Option<Duration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 1,
            supervisor: SupervisorConfig::default(),
            health: HealthConfig::default(),
            retry: RetryConfig::default(),
            hedge: None,
        }
    }
}

impl FleetConfig {
    /// Defaults overridden by `TT_FLEET_REPLICAS`, the supervisor's
    /// `TT_FLEET_*` knobs, the retry layer's `TT_RETRY_*` knobs, and
    /// `TT_HEDGE_MS` (0 or unset disables hedging). The router's
    /// stale-heartbeat threshold follows the supervisor's liveness
    /// deadline.
    ///
    /// # Panics
    ///
    /// On a set but unparsable knob (see [`crate::config`]).
    pub fn from_env() -> Self {
        Self::from_lookup(&process_env)
    }

    /// [`from_env`](Self::from_env) over any knob source.
    pub fn from_lookup(lookup: Lookup<'_>) -> Self {
        let supervisor = SupervisorConfig::from_lookup(lookup);
        let health = HealthConfig {
            stale_heartbeat: supervisor.liveness_deadline,
            ..HealthConfig::default()
        };
        let hedge_ms: u64 = knob(lookup, "TT_HEDGE_MS", 0);
        FleetConfig {
            replicas: knob(lookup, "TT_FLEET_REPLICAS", 1usize).max(1),
            supervisor,
            health,
            retry: RetryConfig::from_lookup(lookup),
            hedge: (hedge_ms > 0).then(|| Duration::from_millis(hedge_ms)),
        }
    }
}

/// One replica's breaker cell: state, outcome window, latency window.
struct HealthCell {
    state: HealthState,
    since: Instant,
    probe_inflight: bool,
    /// Rolling outcomes, `true` = error.
    errors: VecDeque<bool>,
    latencies_ns: VecDeque<u64>,
}

/// Per-replica telemetry for the breaker.
struct HealthMetrics {
    state_gauge: Arc<Gauge>,
    to_healthy: Arc<Counter>,
    to_degraded: Arc<Counter>,
    to_ejected: Arc<Counter>,
    to_half_open: Arc<Counter>,
    dispatches: Arc<Counter>,
    request_ns: Arc<Histogram>,
}

impl HealthMetrics {
    fn register(registry: &Registry, replica: usize) -> Self {
        let label = replica.to_string();
        let to = |state: HealthState| {
            registry.counter(
                "replica_health_transitions_total",
                "Circuit-breaker state transitions, by replica index and target state",
                &[("replica", label.as_str()), ("to", state.name())],
            )
        };
        HealthMetrics {
            state_gauge: registry.gauge(
                "replica_health",
                "Circuit-breaker state per replica: 0 healthy, 1 degraded, 2 ejected, 3 half-open",
                &[("replica", label.as_str())],
            ),
            to_healthy: to(HealthState::Healthy),
            to_degraded: to(HealthState::Degraded),
            to_ejected: to(HealthState::Ejected),
            to_half_open: to(HealthState::HalfOpen),
            dispatches: registry.counter(
                "fleet_dispatch_total",
                "Requests dispatched by the fleet router, by replica index",
                &[("replica", label.as_str())],
            ),
            request_ns: registry.histogram(
                "fleet_request_nanoseconds",
                "Fleet-observed request latency per dispatch, by replica index",
                &[("replica", label.as_str())],
            ),
        }
    }

    fn transition(&self, to: HealthState) {
        self.state_gauge.set(to.gauge_value());
        match to {
            HealthState::Healthy => self.to_healthy.inc(),
            HealthState::Degraded => self.to_degraded.inc(),
            HealthState::Ejected => self.to_ejected.inc(),
            HealthState::HalfOpen => self.to_half_open.inc(),
        }
    }
}

/// One replica's health tracking: the breaker cell plus the atomic
/// outstanding-work estimate the dispatcher balances on.
struct ReplicaHealth {
    cell: Mutex<HealthCell>,
    est_work_ns: AtomicU64,
    metrics: Option<HealthMetrics>,
}

impl ReplicaHealth {
    fn new(metrics: Option<HealthMetrics>) -> Self {
        ReplicaHealth {
            cell: Mutex::new(HealthCell {
                state: HealthState::Healthy,
                since: Instant::now(),
                probe_inflight: false,
                errors: VecDeque::new(),
                latencies_ns: VecDeque::new(),
            }),
            est_work_ns: AtomicU64::new(0),
            metrics: None,
        }
        .with_metrics(metrics)
    }

    fn with_metrics(mut self, metrics: Option<HealthMetrics>) -> Self {
        if let Some(m) = &metrics {
            m.state_gauge.set(HealthState::Healthy.gauge_value());
        }
        self.metrics = metrics;
        self
    }

    fn lock(&self) -> MutexGuard<'_, HealthCell> {
        self.cell.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn set_state(&self, cell: &mut HealthCell, to: HealthState) {
        if cell.state == to {
            return;
        }
        cell.state = to;
        cell.since = Instant::now();
        if let Some(m) = &self.metrics {
            m.transition(to);
        }
    }

    /// Re-evaluate the breaker and return the current state. `hard_down`
    /// (mid-restart or stale heartbeat) forces `Ejected` unconditionally.
    fn evaluate(&self, config: &HealthConfig, hard_down: bool) -> HealthState {
        let mut cell = self.lock();
        if hard_down {
            cell.probe_inflight = false;
            self.set_state(&mut cell, HealthState::Ejected);
            return HealthState::Ejected;
        }
        match cell.state {
            HealthState::Ejected => {
                if cell.since.elapsed() >= config.eject_cooldown {
                    cell.probe_inflight = false;
                    self.set_state(&mut cell, HealthState::HalfOpen);
                }
            }
            HealthState::HalfOpen => {}
            HealthState::Healthy | HealthState::Degraded => {
                if cell.errors.len() >= config.min_samples {
                    let rate = cell.errors.iter().filter(|&&e| e).count() as f64
                        / cell.errors.len() as f64;
                    if rate >= config.eject_error_rate {
                        cell.errors.clear();
                        cell.latencies_ns.clear();
                        cell.probe_inflight = false;
                        self.set_state(&mut cell, HealthState::Ejected);
                    } else if rate >= config.degrade_error_rate
                        || p99_ns(&cell.latencies_ns) >= config.degrade_latency.as_nanos() as u64
                    {
                        self.set_state(&mut cell, HealthState::Degraded);
                    } else {
                        self.set_state(&mut cell, HealthState::Healthy);
                    }
                }
            }
        }
        cell.state
    }

    /// Claim the half-open probe slot (at most one in flight).
    fn try_claim_probe(&self) -> bool {
        let mut cell = self.lock();
        if cell.state == HealthState::HalfOpen && !cell.probe_inflight {
            cell.probe_inflight = true;
            true
        } else {
            false
        }
    }

    /// Record a dispatch outcome. A probe's outcome resolves the
    /// half-open question immediately; ordinary outcomes feed the rolling
    /// windows (the next [`evaluate`](Self::evaluate) applies them).
    fn record(&self, config: &HealthConfig, error: bool, latency: Duration, was_probe: bool) {
        let mut cell = self.lock();
        if let Some(m) = &self.metrics {
            m.request_ns.record_duration(latency);
        }
        if was_probe {
            cell.probe_inflight = false;
            if cell.state == HealthState::HalfOpen {
                if error {
                    self.set_state(&mut cell, HealthState::Ejected);
                } else {
                    cell.errors.clear();
                    cell.latencies_ns.clear();
                    self.set_state(&mut cell, HealthState::Healthy);
                }
                return;
            }
        }
        cell.errors.push_back(error);
        cell.latencies_ns.push_back(latency.as_nanos() as u64);
        while cell.errors.len() > config.window {
            cell.errors.pop_front();
        }
        while cell.latencies_ns.len() > config.window {
            cell.latencies_ns.pop_front();
        }
    }
}

/// Windowed p99 (0 when the window is empty).
fn p99_ns(latencies: &VecDeque<u64>) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted: Vec<u64> = latencies.iter().copied().collect();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) * 99 / 100]
}

/// Fleet-wide telemetry (the per-replica families live in
/// [`HealthMetrics`]).
struct FleetMetrics {
    retries_success: Arc<Counter>,
    retries_exhausted: Arc<Counter>,
    retries_budget: Arc<Counter>,
    retries_deadline: Arc<Counter>,
    hedges_launched: Arc<Counter>,
    hedges_won: Arc<Counter>,
}

impl FleetMetrics {
    fn register(registry: &Registry) -> Self {
        let retries = |outcome: &str| {
            registry.counter(
                "fleet_retries_total",
                "Fleet retry decisions: success (a retry answered), exhausted (attempt cap), \
                 budget (retry budget refused), deadline (no budget left in the deadline)",
                &[("outcome", outcome)],
            )
        };
        let hedges = |event: &str| {
            registry.counter(
                "fleet_hedges_total",
                "Hedged dispatches: launched (hedge delay elapsed), won (hedge answered first)",
                &[("event", event)],
            )
        };
        FleetMetrics {
            retries_success: retries("success"),
            retries_exhausted: retries("exhausted"),
            retries_budget: retries("budget"),
            retries_deadline: retries("deadline"),
            hedges_launched: hedges("launched"),
            hedges_won: hedges("won"),
        }
    }
}

struct FleetInner {
    replicas: Vec<SupervisedReplica>,
    health: Vec<ReplicaHealth>,
    health_config: HealthConfig,
    retry: RetryConfig,
    budget: RetryBudget,
    hedge: Option<Duration>,
    costs: Arc<CachedCost>,
    request_seq: AtomicU64,
    /// Where the next pick starts scanning, so equal-work ties rotate.
    pick_cursor: AtomicU64,
    metrics: Option<FleetMetrics>,
}

/// The fault-tolerant fleet front: N supervised replicas behind
/// health-gated least-estimated-work dispatch with retries and hedging.
/// Implements [`InferHandler`] and [`GenerateHandler`], so it plugs into
/// [`HttpServer`](crate::http::HttpServer) exactly where a single
/// engine's client used to. Clones share the fleet;
/// [`shutdown`](Fleet::shutdown) waits for every other clone to drop.
#[derive(Clone)]
pub struct Fleet {
    inner: Arc<FleetInner>,
}

impl Fleet {
    /// Start `config.replicas` supervised replicas from `factory` (each
    /// gets its fleet index and generation 0) and the router over them.
    /// `costs` prices dispatch estimates — use the same table the
    /// replicas schedule with. Pass a `registry` for the full
    /// `replica_health*` / `fleet_*` metric families.
    pub fn start(
        factory: ReplicaFactory,
        config: FleetConfig,
        costs: Arc<CachedCost>,
        registry: Option<&Registry>,
    ) -> Self {
        assert!(config.replicas >= 1, "a fleet needs at least one replica");
        let replicas: Vec<SupervisedReplica> = (0..config.replicas)
            .map(|id| SupervisedReplica::start(id, factory.clone(), config.supervisor, registry))
            .collect();
        let health = (0..config.replicas)
            .map(|id| ReplicaHealth::new(registry.map(|r| HealthMetrics::register(r, id))))
            .collect();
        Fleet {
            inner: Arc::new(FleetInner {
                replicas,
                health,
                health_config: config.health,
                retry: config.retry,
                budget: RetryBudget::new(config.retry.budget_ratio, config.retry.budget_cap),
                hedge: config.hedge,
                costs,
                request_seq: AtomicU64::new(0),
                pick_cursor: AtomicU64::new(0),
                metrics: registry.map(FleetMetrics::register),
            }),
        }
    }

    /// Replica count.
    pub fn len(&self) -> usize {
        self.inner.replicas.len()
    }

    /// Whether the fleet has no replicas (never true — `start` asserts).
    pub fn is_empty(&self) -> bool {
        self.inner.replicas.is_empty()
    }

    /// Current breaker state per replica (index-aligned).
    pub fn states(&self) -> Vec<HealthState> {
        self.inner
            .health
            .iter()
            .enumerate()
            .map(|(idx, h)| h.evaluate(&self.inner.health_config, self.inner.hard_down(idx)))
            .collect()
    }

    /// Watchdog restarts per replica (index-aligned).
    pub fn restarts(&self) -> Vec<u64> {
        self.inner.replicas.iter().map(|r| r.restarts()).collect()
    }

    /// Whole retry-budget tokens currently available.
    pub fn retry_budget_available(&self) -> f64 {
        self.inner.budget.available()
    }

    /// The full submission path: dispatch with health gating, hedging and
    /// the retry layer; returns the last typed error when every permitted
    /// attempt failed. Never hangs: every failure mode below this call is
    /// typed.
    pub fn infer_request(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<LiveResponse, LiveError> {
        let inner = &self.inner;
        inner.budget.deposit();
        let stream = inner.request_seq.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new(&inner.retry, stream);
        let estimate =
            Duration::from_secs_f64(inner.costs.single_request_estimate(tokens.len()).max(0.0));
        let max_attempts = inner.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match inner.dispatch_hedged(tokens.clone(), trace, deadline) {
                Ok(resp) => {
                    if attempt > 1 {
                        if let Some(m) = &inner.metrics {
                            m.retries_success.inc();
                        }
                    }
                    return Ok(resp);
                }
                // The deadline is end-to-end: a retry can only answer
                // later, so surface the expiry immediately.
                Err(LiveError::DeadlineExceeded) => return Err(LiveError::DeadlineExceeded),
                Err(LiveError::Unavailable) => {
                    if attempt >= max_attempts {
                        if let Some(m) = &inner.metrics {
                            m.retries_exhausted.inc();
                        }
                        return Err(LiveError::Unavailable);
                    }
                    let sleep = backoff.next_sleep();
                    if !fits_deadline(deadline, sleep, estimate) {
                        if let Some(m) = &inner.metrics {
                            m.retries_deadline.inc();
                        }
                        return Err(LiveError::Unavailable);
                    }
                    if !inner.budget.try_withdraw() {
                        if let Some(m) = &inner.metrics {
                            m.retries_budget.inc();
                        }
                        return Err(LiveError::Unavailable);
                    }
                    std::thread::sleep(sleep);
                }
            }
        }
    }

    /// Shut every replica down (watchdogs first, then drain + join) and
    /// return their reports, index-aligned. Waits for any in-flight
    /// hedge threads to finish — bounded, because every dispatch below
    /// the fleet is bounded by the supervisor's no-hang guarantee.
    pub fn shutdown(self) -> Vec<ReplicaReport> {
        let mut inner = self.inner;
        loop {
            match Arc::try_unwrap(inner) {
                Ok(owned) => {
                    return owned.replicas.into_iter().map(|r| r.shutdown()).collect();
                }
                Err(shared) => {
                    inner = shared;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
}

/// The routing decision over `n` replicas, each seen as `(state, outstanding
/// estimated work)`: a free half-open probe slot first (the only road back
/// from ejection), else the healthy replica with the least work, else the
/// least-loaded degraded one. The scan starts at `start` and wraps; the
/// first replica scanned wins a tie, so a rotating `start` spreads equal
/// work (idle replicas) across the fleet instead of always choosing index 0.
/// Returns `(index, is_probe)`.
fn pick_from(
    n: usize,
    start: usize,
    view: impl Fn(usize) -> (HealthState, u64),
    mut claim_probe: impl FnMut(usize) -> bool,
) -> Option<(usize, bool)> {
    let mut best_healthy: Option<(usize, u64)> = None;
    let mut best_degraded: Option<(usize, u64)> = None;
    for idx in (start..n).chain(0..start) {
        let (state, work) = view(idx);
        let best = match state {
            HealthState::HalfOpen if claim_probe(idx) => return Some((idx, true)),
            HealthState::Healthy => &mut best_healthy,
            HealthState::Degraded => &mut best_degraded,
            HealthState::HalfOpen | HealthState::Ejected => continue,
        };
        if best.is_none_or(|(_, w)| work < w) {
            *best = Some((idx, work));
        }
    }
    best_healthy.or(best_degraded).map(|(idx, _)| (idx, false))
}

impl FleetInner {
    /// Replica is mid-restart or its heartbeat is stale: hard-down.
    fn hard_down(&self, idx: usize) -> bool {
        let replica = &self.replicas[idx];
        replica.restarting()
            || replica.heartbeat_age().is_none_or(|age| age > self.health_config.stale_heartbeat)
    }

    /// Pick a replica (see [`pick_from`]), starting each scan one replica
    /// further along than the last.
    fn pick(&self) -> Option<(usize, bool)> {
        let n = self.replicas.len();
        let start = (self.pick_cursor.fetch_add(1, Ordering::Relaxed) % n as u64) as usize;
        pick_from(
            n,
            start,
            |idx| {
                let state = self.health[idx].evaluate(&self.health_config, self.hard_down(idx));
                (state, self.health[idx].est_work_ns.load(Ordering::Relaxed))
            },
            |idx| self.health[idx].try_claim_probe(),
        )
    }

    /// One dispatch: pick, account the work estimate, execute, record the
    /// outcome into the breaker.
    fn dispatch_once(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<LiveResponse, LiveError> {
        let Some((idx, probe)) = self.pick() else {
            // Whole fleet ejected: fail typed; the retry layer (and its
            // backoff) is the caller's recovery path.
            return Err(LiveError::Unavailable);
        };
        let est_ns = (self.costs.single_request_estimate(tokens.len()).max(0.0) * 1e9) as u64;
        self.health[idx].est_work_ns.fetch_add(est_ns, Ordering::Relaxed);
        if let Some(m) = &self.health[idx].metrics {
            m.dispatches.inc();
        }
        let start = Instant::now();
        let result = self.replicas[idx].infer_request(tokens, trace, deadline);
        self.health[idx].est_work_ns.fetch_sub(est_ns, Ordering::Relaxed);
        // Only replica-fault errors feed the breaker: a deadline expiry
        // charges the request's budget, not the replica (sustained
        // slowness reaches the breaker through the latency window).
        let error = matches!(result, Err(LiveError::Unavailable));
        self.health[idx].record(&self.health_config, error, start.elapsed(), probe);
        result
    }

    /// [`dispatch_once`](Self::dispatch_once), with an optional hedge:
    /// when the primary has not answered within the hedge delay, dispatch
    /// a duplicate and take the first usable answer. Only the idempotent
    /// infer path comes through here — generation streams never hedge.
    fn dispatch_hedged(
        self: &Arc<Self>,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<LiveResponse, LiveError> {
        let Some(hedge_after) = self.hedge else {
            return self.dispatch_once(tokens, trace, deadline);
        };
        let (tx, rx): (_, Receiver<(u8, Result<LiveResponse, LiveError>)>) = bounded(2);
        {
            let inner = self.clone();
            let tx = tx.clone();
            let tokens = tokens.clone();
            std::thread::spawn(move || {
                let _ = tx.send((0, inner.dispatch_once(tokens, trace, deadline)));
            });
        }
        match rx.recv_timeout(hedge_after) {
            Ok((_, result)) => result,
            Err(RecvTimeoutError::Disconnected) => Err(LiveError::Unavailable),
            Err(RecvTimeoutError::Timeout) => {
                if let Some(m) = &self.metrics {
                    m.hedges_launched.inc();
                }
                {
                    let inner = self.clone();
                    std::thread::spawn(move || {
                        let _ = tx.send((1, inner.dispatch_once(tokens, trace, deadline)));
                    });
                }
                // First usable answer wins; if the first arrival is an
                // error, the second still gets its chance.
                let (who, first) = rx.recv().unwrap_or((0, Err(LiveError::Unavailable)));
                if first.is_ok() {
                    if who == 1 {
                        if let Some(m) = &self.metrics {
                            m.hedges_won.inc();
                        }
                    }
                    return first;
                }
                let (who, second) = rx.recv().unwrap_or((0, Err(LiveError::Unavailable)));
                if second.is_ok() {
                    if who == 1 {
                        if let Some(m) = &self.metrics {
                            m.hedges_won.inc();
                        }
                    }
                    second
                } else {
                    first
                }
            }
        }
    }

    /// Generation candidates in routing-preference order: healthy (least
    /// work first), then degraded. Ejected and half-open replicas carry
    /// no streams — a stream is long-lived, the wrong place for a probe.
    fn gen_candidates(&self) -> Vec<usize> {
        let mut healthy: Vec<(usize, u64)> = Vec::new();
        let mut degraded: Vec<(usize, u64)> = Vec::new();
        for idx in 0..self.replicas.len() {
            let state = self.health[idx].evaluate(&self.health_config, self.hard_down(idx));
            let work = self.health[idx].est_work_ns.load(Ordering::Relaxed);
            match state {
                HealthState::Healthy => healthy.push((idx, work)),
                HealthState::Degraded => degraded.push((idx, work)),
                _ => {}
            }
        }
        healthy.sort_by_key(|&(_, w)| w);
        degraded.sort_by_key(|&(_, w)| w);
        healthy.into_iter().chain(degraded).map(|(idx, _)| idx).collect()
    }
}

impl InferHandler for Fleet {
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
                "no fleet replica could serve the request (retries exhausted)".into(),
            )),
        }
    }
}

impl GenerateHandler for Fleet {
    /// Route a generation to a healthy replica. Only *submission*
    /// failures (the replica bounced before a stream existed) move to the
    /// next candidate — an established stream is never re-dispatched, so
    /// no token is ever replayed.
    fn generate(
        &self,
        prompt: Vec<u32>,
        max_new_tokens: usize,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<crossbeam::channel::Receiver<TokenEvent>, InferError> {
        for idx in self.inner.gen_candidates() {
            let Some(client) = self.inner.replicas[idx].gen_client() else { continue };
            match client.generate_request(prompt.clone(), max_new_tokens, trace, deadline) {
                Ok(stream) => return Ok(stream),
                Err(_) => continue,
            }
        }
        Err(InferError::Unavailable("no fleet replica could start the generation".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn quick_health() -> HealthConfig {
        HealthConfig {
            window: 8,
            min_samples: 4,
            eject_cooldown: ms(20),
            ..HealthConfig::default()
        }
    }

    #[test]
    fn equal_work_ties_rotate_and_load_still_decides() {
        use HealthState::{Degraded, Ejected, HalfOpen, Healthy};
        let picks = |views: &[(HealthState, u64)]| -> Vec<usize> {
            (0..4)
                .map(|start| {
                    let view = |i: usize| views[i];
                    pick_from(views.len(), start % views.len(), view, |_| false).unwrap().0
                })
                .collect()
        };
        // Two idle healthy replicas alternate as the cursor advances.
        assert_eq!(picks(&[(Healthy, 0), (Healthy, 0)]), [0, 1, 0, 1]);
        // A loaded replica loses to an idle one from every start.
        assert_eq!(picks(&[(Healthy, 5_000), (Healthy, 0)]), [1, 1, 1, 1]);
        assert_eq!(picks(&[(Healthy, 0), (Healthy, 5_000)]), [0, 0, 0, 0]);
        // Healthy beats degraded regardless of work; ejected never serves.
        assert_eq!(picks(&[(Degraded, 0), (Healthy, 9), (Ejected, 0)]), [1, 1, 1, 1]);
        assert_eq!(pick_from(2, 1, |_| (Ejected, 0), |_| true), None);
        // A claimable probe slot wins outright, flagged as a probe.
        let views = [(Healthy, 0), (HalfOpen, 100)];
        assert_eq!(pick_from(2, 0, |i| views[i], |_| true), Some((1, true)));
        assert_eq!(pick_from(2, 0, |i| views[i], |_| false), Some((0, false)));
    }

    #[test]
    fn breaker_walks_healthy_ejected_half_open_healthy() {
        let config = quick_health();
        let h = ReplicaHealth::new(None);
        assert_eq!(h.evaluate(&config, false), HealthState::Healthy);
        // A burst of errors ejects.
        for _ in 0..6 {
            h.record(&config, true, ms(1), false);
        }
        assert_eq!(h.evaluate(&config, false), HealthState::Ejected);
        // No probe before the cooldown.
        assert!(!h.try_claim_probe());
        std::thread::sleep(config.eject_cooldown + ms(5));
        assert_eq!(h.evaluate(&config, false), HealthState::HalfOpen);
        // Exactly one probe slot.
        assert!(h.try_claim_probe());
        assert!(!h.try_claim_probe(), "second probe refused while one is in flight");
        // Probe success re-admits with a clean window.
        h.record(&config, false, ms(1), true);
        assert_eq!(h.evaluate(&config, false), HealthState::Healthy);
    }

    #[test]
    fn failed_probe_re_ejects() {
        let config = quick_health();
        let h = ReplicaHealth::new(None);
        for _ in 0..6 {
            h.record(&config, true, ms(1), false);
        }
        assert_eq!(h.evaluate(&config, false), HealthState::Ejected);
        std::thread::sleep(config.eject_cooldown + ms(5));
        assert_eq!(h.evaluate(&config, false), HealthState::HalfOpen);
        assert!(h.try_claim_probe());
        h.record(&config, true, ms(1), true);
        assert_eq!(h.evaluate(&config, false), HealthState::Ejected, "failed probe re-ejects");
    }

    #[test]
    fn hard_down_forces_ejection_regardless_of_window() {
        let config = quick_health();
        let h = ReplicaHealth::new(None);
        for _ in 0..6 {
            h.record(&config, false, ms(1), false);
        }
        assert_eq!(h.evaluate(&config, false), HealthState::Healthy);
        assert_eq!(h.evaluate(&config, true), HealthState::Ejected, "restarting replica ejects");
    }

    #[test]
    fn moderate_error_rate_degrades_without_ejecting() {
        let config = quick_health();
        let h = ReplicaHealth::new(None);
        // 2 errors in 8: above degrade (0.2), below eject (0.5).
        for i in 0..8 {
            h.record(&config, i < 2, ms(1), false);
        }
        assert_eq!(h.evaluate(&config, false), HealthState::Degraded);
        // A clean window recovers without the eject/probe cycle.
        for _ in 0..8 {
            h.record(&config, false, ms(1), false);
        }
        assert_eq!(h.evaluate(&config, false), HealthState::Healthy);
    }

    #[test]
    fn latency_p99_over_threshold_degrades() {
        let config = quick_health();
        let h = ReplicaHealth::new(None);
        for _ in 0..8 {
            h.record(&config, false, config.degrade_latency + ms(50), false);
        }
        assert_eq!(h.evaluate(&config, false), HealthState::Degraded);
    }

    #[test]
    fn health_state_names_and_gauge_values_are_stable() {
        for (state, name, value) in [
            (HealthState::Healthy, "healthy", 0.0),
            (HealthState::Degraded, "degraded", 1.0),
            (HealthState::Ejected, "ejected", 2.0),
            (HealthState::HalfOpen, "half_open", 3.0),
        ] {
            assert_eq!(state.name(), name);
            assert_eq!(state.gauge_value(), value);
        }
    }
}
