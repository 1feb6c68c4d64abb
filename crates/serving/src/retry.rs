//! Retry policy for the fleet router: bounded attempts, seeded
//! decorrelated-jitter exponential backoff, a global retry *budget*
//! against retry storms, and hard deadline awareness.
//!
//! Retries are the cheapest reliability layer a replicated fleet gets —
//! and the easiest way to melt one down. Three guards keep them safe:
//!
//! - **Bounded attempts** ([`RetryConfig::max_attempts`]): a request makes
//!   at most N attempts total, then surfaces its last typed error.
//! - **A global budget** ([`RetryBudget`]): a token bucket that earns a
//!   fraction of a token per *first* attempt and spends a whole token per
//!   retry. Steady state: retries are capped at `budget_ratio` of
//!   traffic. When half the fleet is down and every request wants a
//!   retry, the bucket drains and the excess fails fast instead of
//!   doubling the load on the survivors — the classic retry-storm
//!   amplification cap (the same scheme Finagle and gRPC ship).
//! - **Deadline awareness** ([`fits_deadline`]): a retry never fires when
//!   its backoff sleep plus an execution estimate no longer fits in the
//!   request's remaining `x-tt-deadline-ms` budget; the client gets the
//!   typed error while it can still act on it.
//!
//! Backoff is *decorrelated jitter* (`sleep = min(cap, uniform(base,
//! prev·3))`): exponential-ish growth with enough randomness that a
//! thundering herd of simultaneous failures does not re-synchronize on
//! the next attempt. Draws come from a per-request SplitMix64 stream
//! seeded from `TT_RETRY_SEED`, so a drill replays the exact same sleep
//! schedule — pinned by the `prop_retry` property tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::config::{knob, knob_ms, process_env, Lookup};
use crate::deadline::Deadline;

/// Tuning for the fleet's retry layer. All knobs have `TT_RETRY_*`
/// environment overrides (see [`RetryConfig::from_env`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Total attempts per request, the first included. 1 disables retries.
    pub max_attempts: u32,
    /// Backoff floor: every sleep is at least this long.
    pub base: Duration,
    /// Backoff ceiling: every sleep is at most this long.
    pub cap: Duration,
    /// Retry-budget earn rate: tokens deposited per first attempt. 0.1
    /// means sustained retries are capped at 10% of request volume.
    pub budget_ratio: f64,
    /// Retry-budget bucket capacity (burst allowance). The bucket starts
    /// full, so a cold fleet can absorb an immediate failure burst.
    pub budget_cap: f64,
    /// Seed for the per-request backoff jitter streams.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            budget_ratio: 0.1,
            budget_cap: 32.0,
            seed: 0,
        }
    }
}

impl RetryConfig {
    /// Defaults overridden by `TT_RETRY_MAX` / `TT_RETRY_BASE_MS` /
    /// `TT_RETRY_CAP_MS` / `TT_RETRY_BUDGET` / `TT_RETRY_BUDGET_CAP` /
    /// `TT_RETRY_SEED`.
    ///
    /// # Panics
    ///
    /// On a set but unparsable knob (see [`crate::config`]).
    pub fn from_env() -> Self {
        Self::from_lookup(&process_env)
    }

    /// [`from_env`](Self::from_env) over any knob source.
    pub fn from_lookup(lookup: Lookup<'_>) -> Self {
        let d = RetryConfig::default();
        RetryConfig {
            max_attempts: knob(lookup, "TT_RETRY_MAX", d.max_attempts).max(1),
            base: knob_ms(lookup, "TT_RETRY_BASE_MS", d.base),
            cap: knob_ms(lookup, "TT_RETRY_CAP_MS", d.cap),
            budget_ratio: knob(lookup, "TT_RETRY_BUDGET", d.budget_ratio),
            budget_cap: knob(lookup, "TT_RETRY_BUDGET_CAP", d.budget_cap),
            seed: knob(lookup, "TT_RETRY_SEED", d.seed),
        }
    }
}

/// SplitMix64 — the same tiny dependency-free generator `tt-chaos` uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request's backoff stream: decorrelated jitter, deterministic under
/// its seed. [`next_sleep`](Self::next_sleep) yields the sleep before
/// attempt k+1.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ns: u64,
    cap_ns: u64,
    prev_ns: u64,
    rng: u64,
}

impl Backoff {
    /// A backoff stream for one request. `stream` decorrelates concurrent
    /// requests (the router passes a per-request counter); the same
    /// `(config.seed, stream)` pair always replays the same sleeps.
    pub fn new(config: &RetryConfig, stream: u64) -> Self {
        let base_ns = config.base.as_nanos() as u64;
        // A misconfigured cap below base degenerates to constant-base.
        let cap_ns = (config.cap.as_nanos() as u64).max(base_ns);
        let mut rng = config.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        // One warm-up step so stream 0 with seed 0 isn't a zero state.
        splitmix64(&mut rng);
        Backoff { base_ns, cap_ns, prev_ns: base_ns, rng }
    }

    /// The next sleep: `min(cap, uniform(base, prev·3))`, always within
    /// `[base, cap]`.
    pub fn next_sleep(&mut self) -> Duration {
        let hi = self.prev_ns.saturating_mul(3).clamp(self.base_ns, self.cap_ns);
        let span = hi - self.base_ns;
        let sleep_ns = if span == 0 {
            self.base_ns
        } else {
            self.base_ns + splitmix64(&mut self.rng) % (span + 1)
        };
        self.prev_ns = sleep_ns;
        Duration::from_nanos(sleep_ns)
    }
}

/// Millitokens per retry token — the bucket's fixed-point unit, so the
/// fractional earn rate needs no float atomics.
const MILLI: u64 = 1000;

/// The fleet-global retry budget: a token bucket shared by every request.
/// First attempts *deposit* `budget_ratio` tokens (up to `budget_cap`);
/// each retry *withdraws* one whole token or is refused. All operations
/// are lock-free CAS loops.
#[derive(Debug)]
pub struct RetryBudget {
    millitokens: AtomicU64,
    cap_millitokens: u64,
    deposit_millitokens: u64,
}

impl RetryBudget {
    /// A bucket earning `ratio` tokens per first attempt, holding at most
    /// `cap` tokens, starting full.
    pub fn new(ratio: f64, cap: f64) -> Self {
        let cap_millitokens = (cap.max(0.0) * MILLI as f64) as u64;
        RetryBudget {
            millitokens: AtomicU64::new(cap_millitokens),
            cap_millitokens,
            deposit_millitokens: (ratio.max(0.0) * MILLI as f64) as u64,
        }
    }

    /// Earn: called once per *first* attempt.
    pub fn deposit(&self) {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            let next = (cur + self.deposit_millitokens).min(self.cap_millitokens);
            match self.millitokens.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Spend: called before each retry. `false` means the budget is
    /// exhausted and the retry must not fire.
    pub fn try_withdraw(&self) -> bool {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            if cur < MILLI {
                return false;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                cur - MILLI,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Whole tokens currently available (observability/tests).
    pub fn available(&self) -> f64 {
        self.millitokens.load(Ordering::Relaxed) as f64 / MILLI as f64
    }
}

/// Whether a retry still fits: its backoff sleep plus an estimate of the
/// attempt itself must fit in the deadline's remaining budget. A request
/// without a deadline always fits; an expired deadline never does.
pub fn fits_deadline(deadline: Option<Deadline>, sleep: Duration, estimate: Duration) -> bool {
    match deadline {
        None => true,
        Some(d) => match d.remaining() {
            Some(remaining) => remaining > sleep + estimate,
            None => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_stays_within_bounds_and_is_deterministic() {
        let config = RetryConfig::default();
        let seq = |stream: u64| {
            let mut b = Backoff::new(&config, stream);
            (0..64).map(|_| b.next_sleep()).collect::<Vec<_>>()
        };
        let a = seq(42);
        assert_eq!(a, seq(42), "same (seed, stream) replays the same sleeps");
        assert_ne!(a, seq(43), "streams decorrelate");
        assert!(
            a.iter().all(|&s| s >= config.base && s <= config.cap),
            "every sleep within [base, cap]"
        );
        assert!(a.windows(2).any(|w| w[1] > w[0]), "backoff must actually back off");
    }

    #[test]
    fn degenerate_cap_below_base_yields_constant_base() {
        let config = RetryConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(1),
            ..Default::default()
        };
        let mut b = Backoff::new(&config, 0);
        for _ in 0..8 {
            assert_eq!(b.next_sleep(), Duration::from_millis(10));
        }
    }

    #[test]
    fn budget_earns_fractionally_and_spends_whole_tokens() {
        let budget = RetryBudget::new(0.1, 2.0);
        // Starts full: 2 tokens.
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw(), "bucket empty");
        // Ten first-attempts earn one retry token.
        for _ in 0..9 {
            budget.deposit();
            assert!(!budget.try_withdraw(), "fraction not yet a whole token");
        }
        budget.deposit();
        assert!(budget.try_withdraw());
        // Deposits clamp at the cap.
        for _ in 0..1000 {
            budget.deposit();
        }
        assert!((budget.available() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deadline_gate_blocks_unaffordable_retries() {
        let ms = Duration::from_millis;
        assert!(fits_deadline(None, ms(1000), ms(1000)), "no deadline, no gate");
        let d = Deadline::within(ms(100));
        assert!(fits_deadline(Some(d), ms(10), ms(10)));
        assert!(!fits_deadline(Some(d), ms(80), ms(30)), "sleep + estimate exceeds remaining");
        let expired = Deadline::at(std::time::Instant::now());
        assert!(!fits_deadline(Some(expired), Duration::ZERO, Duration::ZERO));
    }
}
