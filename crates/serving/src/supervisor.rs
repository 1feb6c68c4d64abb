//! Supervised engine replicas: a watchdog per replica that detects a dead
//! or stalled engine thread, tears the replica down (leak-checked),
//! restarts it under a fresh generation stamp, and fails any in-flight
//! work with typed errors — never a silent drop, never a hung client.
//!
//! A [`LiveEngine`](crate::live::LiveEngine) owns its engine thread for
//! life: a panic that escapes the per-batch `catch_unwind`, or a loop that
//! simply stops making progress, is a permanent outage. A
//! [`SupervisedReplica`] instead holds the thread at arm's length through
//! a [`ReplicaFactory`] and watches two signals:
//!
//! - **death** — the engine thread's `JoinHandle::is_finished()` turns
//!   true while the replica still holds its client (a panic, or an exit
//!   nothing asked for);
//! - **stall** — the loop's [`Heartbeat`] (ticked every iteration, idle
//!   iterations included) goes stale past the configured liveness
//!   deadline: the thread is alive but stuck.
//!
//! Either way the watchdog *bounces* the replica: it bumps the generation
//! stamp first (so every request polling a reply from the old generation
//! returns a typed [`LiveError::Unavailable`] instead of hanging), drops
//! the old clients, joins what can be joined — asserting the generative
//! engine leaked zero KV pages — waits the restart backoff, and asks the
//! factory for a fresh replica under the new stamp. The
//! [`Fleet`](crate::router::Fleet) routes around the replica for exactly
//! the window in which it is down.
//!
//! See `docs/ROBUSTNESS.md` § Fleet for the full state machine and the
//! `serving_fleet` bench for the measured kill-one-of-three drill.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::RecvTimeoutError;

use tt_telemetry::{Counter, Gauge, Registry, SpanContext};

use crate::config::{knob_ms, process_env, Lookup};
use crate::deadline::Deadline;
use crate::generate::{GenClient, GenParts};
use crate::live::{Heartbeat, LiveClient, LiveCore, LiveError, LiveResponse};

/// How often a request blocked on a replica's reply re-checks whether the
/// replica bounced out from under it.
const REPLY_POLL: Duration = Duration::from_millis(25);

/// Watchdog tuning. Defaults suit the tiny test models; a deployment
/// serving `TT_HTTP_MODEL=base` should keep the liveness deadline well
/// above its worst-case single-batch execution time (the loop ticks its
/// heartbeat *between* batches, not inside one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Heartbeat age past which the watchdog declares the replica stalled.
    pub liveness_deadline: Duration,
    /// Watchdog poll cadence (detection latency is at most one poll).
    pub poll_interval: Duration,
    /// Pause between teardown and respawn — a crash-looping replica
    /// restarts at this rate, not in a hot spin.
    pub restart_backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            liveness_deadline: Duration::from_millis(1500),
            poll_interval: Duration::from_millis(20),
            restart_backoff: Duration::from_millis(50),
        }
    }
}

impl SupervisorConfig {
    /// Defaults overridden by `TT_FLEET_LIVENESS_MS` /
    /// `TT_FLEET_POLL_MS` / `TT_FLEET_RESTART_BACKOFF_MS`.
    ///
    /// # Panics
    ///
    /// On a set but unparsable knob (see [`crate::config`]).
    pub fn from_env() -> Self {
        Self::from_lookup(&process_env)
    }

    /// [`from_env`](Self::from_env) over any knob source.
    pub fn from_lookup(lookup: Lookup<'_>) -> Self {
        let d = SupervisorConfig::default();
        SupervisorConfig {
            liveness_deadline: knob_ms(lookup, "TT_FLEET_LIVENESS_MS", d.liveness_deadline),
            poll_interval: knob_ms(lookup, "TT_FLEET_POLL_MS", d.poll_interval),
            restart_backoff: knob_ms(lookup, "TT_FLEET_RESTART_BACKOFF_MS", d.restart_backoff),
        }
    }
}

/// Everything one replica runs: the supervised live engine core and,
/// optionally, a generative engine riding the same lifecycle.
pub struct ReplicaParts {
    /// The replica's batch-inference engine (see
    /// [`spawn_core`](crate::live::spawn_core)).
    pub live: LiveCore,
    /// The replica's continuous-batching generation engine, if it serves
    /// `/v1/generate` too (see
    /// [`GenEngine::into_parts`](crate::generate::GenEngine::into_parts)).
    pub generative: Option<GenParts>,
}

/// Builds one replica: called at startup and again after every bounce,
/// with the replica's fleet index and its fresh generation stamp.
pub type ReplicaFactory = Arc<dyn Fn(usize, u64) -> ReplicaParts + Send + Sync>;

/// Why a replica was restarted (the `cause` label on
/// `replica_restarts_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartCause {
    /// The engine thread panicked.
    Panic,
    /// The engine thread exited cleanly while the replica still held its
    /// client — an exit nothing asked for.
    Exit,
    /// The heartbeat went stale past the liveness deadline.
    Stall,
}

impl RestartCause {
    /// Stable snake_case name for the metric label.
    pub fn name(self) -> &'static str {
        match self {
            RestartCause::Panic => "panic",
            RestartCause::Exit => "exit",
            RestartCause::Stall => "stall",
        }
    }
}

/// What the watchdog noticed before it knows whether the thread panicked
/// or exited (that distinction needs the join).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Detected {
    Dead,
    Stalled,
}

/// The live slot: the current generation's engine handles. `None` only
/// inside a bounce window.
struct Slot {
    live_client: LiveClient,
    heartbeat: Heartbeat,
    live_handle: JoinHandle<usize>,
    generative: Option<GenParts>,
}

impl Slot {
    fn from_parts(parts: ReplicaParts) -> Self {
        Slot {
            live_client: parts.live.client,
            heartbeat: parts.live.heartbeat,
            live_handle: parts.live.handle,
            generative: parts.generative,
        }
    }
}

/// Per-replica telemetry: a heartbeat-age/generation gauge pair plus the
/// restart counter, all labeled with the replica's fleet index.
struct ReplicaMetrics {
    heartbeat_age: Arc<Gauge>,
    generation: Arc<Gauge>,
    restarts_panic: Arc<Counter>,
    restarts_exit: Arc<Counter>,
    restarts_stall: Arc<Counter>,
}

impl ReplicaMetrics {
    fn register(registry: &Registry, replica: usize) -> Self {
        let label = replica.to_string();
        let restarts = |cause: &str| {
            registry.counter(
                "replica_restarts_total",
                "Replica bounces by the supervisor watchdog, by replica index and cause",
                &[("replica", label.as_str()), ("cause", cause)],
            )
        };
        ReplicaMetrics {
            heartbeat_age: registry.gauge(
                "replica_heartbeat_age_seconds",
                "Seconds since the replica's engine loop last ticked its heartbeat",
                &[("replica", label.as_str())],
            ),
            generation: registry.gauge(
                "replica_generation",
                "The replica's current generation stamp (bumped on every restart)",
                &[("replica", label.as_str())],
            ),
            restarts_panic: restarts("panic"),
            restarts_exit: restarts("exit"),
            restarts_stall: restarts("stall"),
        }
    }

    fn restart(&self, cause: RestartCause) {
        match cause {
            RestartCause::Panic => self.restarts_panic.inc(),
            RestartCause::Exit => self.restarts_exit.inc(),
            RestartCause::Stall => self.restarts_stall.inc(),
        }
    }
}

/// State shared between the replica handle, its watchdog thread, and
/// every request currently polling a reply.
struct ReplicaShared {
    id: usize,
    factory: ReplicaFactory,
    config: SupervisorConfig,
    slot: Mutex<Option<Slot>>,
    /// The authority on "which incarnation is current": bumped *before*
    /// teardown so pollers bail with a typed error instead of hanging.
    generation: AtomicU64,
    /// True from teardown until the respawned replica is in the slot.
    restarting: AtomicBool,
    restarts: AtomicU64,
    shutdown: AtomicBool,
    /// Requests served by incarnations that were joined (a stalled,
    /// abandoned thread takes its count with it).
    served: AtomicU64,
    metrics: Option<ReplicaMetrics>,
}

impl ReplicaShared {
    fn lock_slot(&self) -> MutexGuard<'_, Option<Slot>> {
        self.slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// End-of-life accounting returned by [`SupervisedReplica::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaReport {
    /// Requests served across all joined incarnations.
    pub served: u64,
    /// Times the watchdog bounced the replica.
    pub restarts: u64,
    /// Final generation stamp.
    pub generation: u64,
}

/// One supervised engine replica: the engine thread(s) behind a factory,
/// a watchdog that bounces them on death or stall, and a submission path
/// that can never hang on a bounced incarnation.
pub struct SupervisedReplica {
    shared: Arc<ReplicaShared>,
    watchdog: Option<JoinHandle<()>>,
}

impl SupervisedReplica {
    /// Build and start replica `id`: calls the factory for generation 0
    /// and spawns the watchdog. Pass a `registry` to get the
    /// `replica_heartbeat_age_seconds` / `replica_generation` /
    /// `replica_restarts_total` families, labeled with this replica's
    /// index.
    pub fn start(
        id: usize,
        factory: ReplicaFactory,
        config: SupervisorConfig,
        registry: Option<&Registry>,
    ) -> Self {
        let parts = factory(id, 0);
        let metrics = registry.map(|r| ReplicaMetrics::register(r, id));
        let shared = Arc::new(ReplicaShared {
            id,
            factory,
            config,
            slot: Mutex::new(Some(Slot::from_parts(parts))),
            generation: AtomicU64::new(0),
            restarting: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            metrics,
        });
        let watchdog = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("tt-replica-watchdog-{id}"))
                .spawn(move || watchdog_loop(&shared))
                .expect("spawning the replica watchdog")
        };
        SupervisedReplica { shared, watchdog: Some(watchdog) }
    }

    /// This replica's fleet index.
    pub fn id(&self) -> usize {
        self.shared.id
    }

    /// Current generation stamp (bumped on every bounce).
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// Whether the replica is inside a bounce window (torn down, not yet
    /// respawned). The router treats this as hard-down.
    pub fn restarting(&self) -> bool {
        self.shared.restarting.load(Ordering::SeqCst)
    }

    /// Times the watchdog has bounced this replica.
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::SeqCst)
    }

    /// Age of the current incarnation's heartbeat, or `None` mid-bounce.
    pub fn heartbeat_age(&self) -> Option<Duration> {
        self.shared.lock_slot().as_ref().map(|s| s.heartbeat.age())
    }

    /// The current incarnation's generation client, or `None` if the
    /// replica is mid-bounce or runs no generative engine.
    pub fn gen_client(&self) -> Option<GenClient> {
        self.shared
            .lock_slot()
            .as_ref()
            .and_then(|s| s.generative.as_ref().map(|g| g.client.clone()))
    }

    /// Submit a request to the current incarnation and wait for its reply
    /// — with the supervisor's no-hang guarantee: if the replica bounces
    /// while the job is in flight, the caller gets a typed
    /// [`LiveError::Unavailable`] within one reply-poll window, never a
    /// hang.
    pub fn infer_request(
        &self,
        tokens: Vec<u32>,
        trace: Option<SpanContext>,
        deadline: Option<Deadline>,
    ) -> Result<LiveResponse, LiveError> {
        let (submitted_generation, client) = {
            let slot = self.shared.lock_slot();
            match slot.as_ref() {
                Some(s) if !self.restarting() => (self.generation(), s.live_client.clone()),
                _ => return Err(LiveError::Unavailable),
            }
        };
        let reply = client.submit_job(tokens, trace, deadline)?;
        drop(client);
        loop {
            match reply.recv_timeout(REPLY_POLL) {
                Ok(result) => return result,
                Err(RecvTimeoutError::Disconnected) => return Err(LiveError::Unavailable),
                Err(RecvTimeoutError::Timeout) => {
                    if self.generation() != submitted_generation {
                        // The replica bounced under this job. One final
                        // look, in case the reply raced the teardown —
                        // then the typed error.
                        return reply.try_recv().unwrap_or(Err(LiveError::Unavailable));
                    }
                }
            }
        }
    }

    /// Stop the watchdog, drain and join the current incarnation, and
    /// leak-check the generative engine. Returns the lifetime accounting.
    pub fn shutdown(mut self) -> ReplicaReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        let slot = self.shared.lock_slot().take();
        if let Some(slot) = slot {
            drop(slot.live_client);
            if let Ok(served) = slot.live_handle.join() {
                self.shared.served.fetch_add(served as u64, Ordering::SeqCst);
            }
            join_generative(slot.generative, self.shared.id);
        }
        ReplicaReport {
            served: self.shared.served.load(Ordering::SeqCst),
            restarts: self.restarts(),
            generation: self.generation(),
        }
    }
}

impl Drop for SupervisedReplica {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        if let Some(slot) = self.shared.lock_slot().take() {
            drop(slot.live_client);
            let _ = slot.live_handle.join();
            join_generative(slot.generative, self.shared.id);
        }
    }
}

/// Join a replica's generative engine and leak-check it: the paged KV
/// arena must come back empty across a bounce, or pages are being lost
/// every restart and the fleet bleeds capacity until it can't admit
/// anything — exactly the failure this assert makes loud.
fn join_generative(generative: Option<GenParts>, replica: usize) {
    let Some(generative) = generative else { return };
    drop(generative.client);
    // A join Err means the generative thread itself panicked; there is no
    // summary to check — the fresh incarnation starts from an empty arena.
    if let Ok(summary) = generative.handle.join() {
        assert_eq!(summary.pages_leaked, 0, "replica {replica} leaked KV pages across a bounce");
    }
}

fn watchdog_loop(shared: &Arc<ReplicaShared>) {
    loop {
        std::thread::sleep(shared.config.poll_interval);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let detected = {
            let slot = shared.lock_slot();
            match slot.as_ref() {
                None => None,
                Some(s) => {
                    let age = s.heartbeat.age();
                    if let Some(m) = &shared.metrics {
                        m.heartbeat_age.set(age.as_secs_f64());
                    }
                    if s.live_handle.is_finished()
                        || s.generative.as_ref().is_some_and(|g| g.handle.is_finished())
                    {
                        Some(Detected::Dead)
                    } else if age > shared.config.liveness_deadline {
                        Some(Detected::Stalled)
                    } else {
                        None
                    }
                }
            }
        };
        if let Some(detected) = detected {
            bounce(shared, detected);
        }
    }
}

/// Tear the current incarnation down and respawn it under a fresh
/// generation stamp. The ordering is the contract: generation bumps
/// *first*, so every in-flight request sees the stamp change and returns
/// typed instead of hanging on a reply that will never come.
fn bounce(shared: &Arc<ReplicaShared>, detected: Detected) {
    shared.restarting.store(true, Ordering::SeqCst);
    let old = shared.lock_slot().take();
    let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;

    let mut cause = match detected {
        Detected::Stalled => RestartCause::Stall,
        Detected::Dead => RestartCause::Panic,
    };
    if let Some(slot) = old {
        // Dropping the client closes the job queue: queued jobs lose
        // their reply senders (typed Unavailable at the client), and a
        // merely-stalled loop exits once it wakes and finds the channel
        // closed.
        drop(slot.live_client);
        if slot.live_handle.is_finished() {
            match slot.live_handle.join() {
                Ok(served) => {
                    shared.served.fetch_add(served as u64, Ordering::SeqCst);
                    if detected == Detected::Dead {
                        cause = RestartCause::Exit;
                    }
                }
                Err(_) => cause = RestartCause::Panic,
            }
        }
        // else: stalled and still asleep — abandon it. The thread exits
        // on its own when the stall ends and the closed channel drains;
        // joining here would block the watchdog for the stall's duration.
        join_generative(slot.generative, shared.id);
    }

    shared.restarts.fetch_add(1, Ordering::SeqCst);
    if let Some(m) = &shared.metrics {
        m.restart(cause);
        m.generation.set(generation as f64);
    }

    std::thread::sleep(shared.config.restart_backoff);
    let parts = (shared.factory)(shared.id, generation);
    *shared.lock_slot() = Some(Slot::from_parts(parts));
    shared.restarting.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_table::CachedCost;
    use crate::live::spawn_core;
    use crate::scheduler::DpScheduler;
    use std::sync::Mutex;
    use tt_gpusim::device::DeviceKind;
    use tt_model::bert::{Bert, BertConfig};
    use tt_runtime::{RuntimeConfig, TurboRuntime};
    use tt_telemetry::Tracer;

    /// Chaos state is process-global; serialize the tests that arm it.
    static CHAOS: Mutex<()> = Mutex::new(());

    fn chaos_locked() -> std::sync::MutexGuard<'static, ()> {
        CHAOS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn factory() -> ReplicaFactory {
        let model = Arc::new(Bert::new_random(&BertConfig::tiny(), 2024));
        let runtime = Arc::new(TurboRuntime::new(RuntimeConfig::turbo(DeviceKind::RTX2060)));
        let costs =
            Arc::new(CachedCost::from_fn(64, 8, 8, |len, b| 1.0e-3 + 1.0e-5 * (len * b) as f64));
        Arc::new(move |id, _generation| ReplicaParts {
            live: spawn_core(
                model.clone(),
                runtime.clone(),
                Arc::new(DpScheduler),
                costs.clone(),
                None,
                Tracer::disabled(),
                id,
            ),
            generative: None,
        })
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            liveness_deadline: Duration::from_millis(150),
            poll_interval: Duration::from_millis(10),
            restart_backoff: Duration::from_millis(10),
        }
    }

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        let _guard = chaos_locked();
        tt_chaos::disarm();
        let replica = SupervisedReplica::start(0, factory(), quick_config(), None);
        let resp = replica.infer_request(vec![5, 6, 7], None, None).expect("served");
        assert_eq!(resp.batch_size, 1);
        let report = replica.shutdown();
        assert_eq!(report.served, 1);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.generation, 0);
    }

    #[test]
    fn panic_is_detected_and_the_replica_restarts_with_a_fresh_generation() {
        let _guard = chaos_locked();
        // Every loop iteration panics while armed: the first incarnation
        // dies immediately; respawns crash-loop until disarm.
        tt_chaos::install(tt_chaos::ChaosConfig {
            replica_panic: 1.0,
            seed: 7,
            ..Default::default()
        });
        let replica = SupervisedReplica::start(0, factory(), quick_config(), None);
        // A request against a dead/bouncing replica fails typed, fast.
        let err = replica.infer_request(vec![5, 6, 7], None, None).unwrap_err();
        assert_eq!(err, LiveError::Unavailable);
        // Let the watchdog notice and bounce at least once.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while replica.restarts() == 0 {
            assert!(std::time::Instant::now() < deadline, "watchdog never bounced the replica");
            std::thread::sleep(Duration::from_millis(5));
        }
        tt_chaos::disarm();
        // The next healthy incarnation serves again.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match replica.infer_request(vec![5, 6, 7], None, None) {
                Ok(resp) => {
                    assert_eq!(resp.batch_size, 1);
                    break;
                }
                Err(_) => {
                    assert!(std::time::Instant::now() < deadline, "restarted replica never served");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let report = replica.shutdown();
        assert!(report.restarts >= 1, "at least one bounce recorded");
        assert_eq!(report.generation, report.restarts, "one stamp per bounce");
    }

    #[test]
    fn stall_trips_the_liveness_deadline_and_pollers_never_hang() {
        let _guard = chaos_locked();
        // One long stall (longer than the liveness deadline), then quiet:
        // probability 1.0 would re-stall every iteration, so fire with
        // certainty but make the stall itself the detection window.
        tt_chaos::install(tt_chaos::ChaosConfig {
            replica_stall: 1.0,
            replica_stall_ms: 400,
            seed: 11,
            ..Default::default()
        });
        let replica = SupervisedReplica::start(0, factory(), quick_config(), None);
        // Submit into the stalled incarnation: the job sits in a queue the
        // loop never drains; the bounce must fail it typed — the recv
        // below returning at all *is* the no-hang guarantee.
        let start = std::time::Instant::now();
        let err = replica.infer_request(vec![5, 6, 7], None, None).unwrap_err();
        assert_eq!(err, LiveError::Unavailable);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "typed failure must beat the stall, not wait it out"
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while replica.restarts() == 0 {
            assert!(std::time::Instant::now() < deadline, "stall never detected");
            std::thread::sleep(Duration::from_millis(5));
        }
        tt_chaos::disarm();
        let report = replica.shutdown();
        assert!(report.restarts >= 1);
    }

    #[test]
    fn restart_cause_names_are_stable() {
        assert_eq!(RestartCause::Panic.name(), "panic");
        assert_eq!(RestartCause::Exit.name(), "exit");
        assert_eq!(RestartCause::Stall.name(), "stall");
    }
}
