//! Generative decode execution: the runtime face of the paged KV cache.
//!
//! The encoder runtimes in this crate are *stateless per request* — plan,
//! execute, discard. Autoregressive decoding inverts that: per-request
//! state (the KV cache) outlives every individual step, and the expensive
//! thing to get wrong is recomputing the prefix each token. This module
//! owns the pairing of a [`Gpt`] with a [`PagedKvArena`] and exposes the
//! two primitives the continuous-batching engine schedules:
//!
//! - [`GenerativeRuntime::prefill`] — run a whole prompt through the
//!   cache, producing the first decode distribution;
//! - [`GenerativeRuntime::decode_step`] — one token of one sequence,
//!   attending over the page-table-resolved prefix in O(prefix) instead
//!   of re-running the model over it in O(prefix · model).
//!
//! Both are timed into `tt-telemetry` histograms (`prefill_us`,
//! `decode_step_us`) when instrumented — and so is every op they run, in
//! the same `executor_op_nanoseconds{op}` family the encoder runtime
//! reports into (decode steps record no spans) — and both surface
//! [`KvError::OutOfPages`] as a typed, recoverable error so the scheduler
//! can retire one sequence without stalling the rest of the batch.

use std::sync::Arc;
use std::time::Instant;

use tt_alloc::{KvError, KvSeq, PagedKvArena};
use tt_gpusim::device::DeviceConfig;
use tt_model::gpt::Gpt;
use tt_telemetry::{EnergyMeter, EnergyPhase, Histogram, Registry};

use crate::variants::VariantProfile;

/// Arena sizing for a generative runtime (the serving layer's
/// `GenConfig::from_env` reads `TT_KV_PAGE_SLOTS` / `TT_KV_PAGES` into it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeConfig {
    /// Token slots per physical page.
    pub page_slots: usize,
    /// Physical pages in the arena.
    pub num_pages: usize,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        DecodeConfig { page_slots: 16, num_pages: 256 }
    }
}

#[derive(Debug, Clone)]
struct DecodeMetrics {
    prefill_us: Arc<Histogram>,
    decode_step_us: Arc<Histogram>,
}

/// Energy pricing for generative decode: the modeled device, the variant
/// profile the joules are priced under, and the meter the attribution
/// lands in. Prompt prefills charge [`EnergyPhase::Prefill`]; single-token
/// steps charge [`EnergyPhase::Decode`] — the split the power sampler
/// publishes as per-phase `power_watts` / `energy_joules_total`.
#[derive(Debug, Clone)]
pub struct DecodeEnergyModel {
    /// Device whose energy constants price the work.
    pub device: DeviceConfig,
    /// Variant profile (GEMM efficiency, fusion level) the work runs under.
    pub profile: VariantProfile,
    /// Sink for the attributed microjoules.
    pub meter: Arc<EnergyMeter>,
}

/// A [`Gpt`] bound to a [`PagedKvArena`]: the decode execution engine the
/// continuous-batching scheduler drives. Single-threaded by design, like
/// the paper's serving loop — concurrency lives one layer up, in the
/// engine that interleaves sequences across iterations.
pub struct GenerativeRuntime {
    model: Gpt,
    arena: PagedKvArena,
    metrics: Option<DecodeMetrics>,
    energy: Option<DecodeEnergyModel>,
    last_energy_uj: u64,
}

impl std::fmt::Debug for GenerativeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerativeRuntime")
            .field("arena", &self.arena)
            .field("instrumented", &self.metrics.is_some())
            .finish()
    }
}

impl GenerativeRuntime {
    /// Bind `model` to a fresh arena shaped by `config`.
    pub fn new(model: Gpt, config: DecodeConfig) -> Self {
        let arena = PagedKvArena::new(model.kv_config(config.page_slots, config.num_pages));
        GenerativeRuntime { model, arena, metrics: None, energy: None, last_energy_uj: 0 }
    }

    /// Register the `kv_*` gauges (via the arena), the decode timing
    /// histograms and the per-op executor metrics in `registry`.
    pub fn instrument(&mut self, registry: &Registry) {
        self.arena.instrument(registry);
        self.model.attach_metrics(crate::executor::ExecutorMetrics::register(registry));
        self.metrics = Some(DecodeMetrics {
            prefill_us: registry.histogram(
                "prefill_us",
                "Prompt prefill wall time in microseconds",
                &[],
            ),
            decode_step_us: registry.histogram(
                "decode_step_us",
                "Single-token decode step wall time in microseconds",
                &[],
            ),
        });
    }

    /// Attach an energy model: every subsequent prefill and decode step
    /// attributes its modeled microjoules to `model.meter` under the
    /// matching phase, and [`last_energy_uj`](Self::last_energy_uj) reports
    /// the most recent attribution for span annotation.
    pub fn instrument_energy(&mut self, model: DecodeEnergyModel) {
        self.energy = Some(model);
    }

    /// Modeled microjoules of the most recent [`prefill`](Self::prefill) or
    /// [`decode_step`](Self::decode_step); zero when no energy model is
    /// attached.
    pub fn last_energy_uj(&self) -> u64 {
        self.last_energy_uj
    }

    /// The underlying model.
    pub fn model(&self) -> &Gpt {
        &self.model
    }

    /// The underlying arena (occupancy, page budget, translation).
    pub fn arena(&self) -> &PagedKvArena {
        &self.arena
    }

    /// Whether a prompt of `prompt_len` tokens (plus one decode slot of
    /// headroom) currently fits the page budget.
    pub fn can_admit(&self, prompt_len: usize) -> bool {
        self.arena.can_admit(prompt_len)
    }

    /// Admit a sequence, reserving pages for its prompt.
    pub fn admit(&mut self, prompt_len: usize) -> Result<KvSeq, KvError> {
        self.arena.admit(prompt_len)
    }

    /// Run the whole prompt through the cache; returns the logits after
    /// the last prompt token (the first decode distribution).
    pub fn prefill(&mut self, seq: KvSeq, prompt: &[u32]) -> Result<Vec<f32>, KvError> {
        let start = Instant::now();
        let out = self.model.prefill_paged(&mut self.arena, seq, prompt);
        if let Some(m) = &self.metrics {
            m.prefill_us.record(start.elapsed().as_micros() as u64);
        }
        if out.is_ok() {
            self.charge(EnergyPhase::Prefill, |e, cfg| {
                crate::cost::gpt_prefill_energy(&e.device, &e.profile, cfg, prompt.len()).total_uj()
            });
        }
        out
    }

    /// One decode step: feed `token`, attend over the paged prefix,
    /// return next-token logits.
    pub fn decode_step(&mut self, seq: KvSeq, token: u32) -> Result<Vec<f32>, KvError> {
        let start = Instant::now();
        let out = self.model.step_paged(&mut self.arena, seq, token);
        if let Some(m) = &self.metrics {
            m.decode_step_us.record(start.elapsed().as_micros() as u64);
        }
        if out.is_ok() {
            // Cache length *after* the append: the attention span this step
            // actually paid for.
            let t = self.arena.len_of(seq).unwrap_or(1);
            self.charge(EnergyPhase::Decode, |e, cfg| {
                crate::cost::gpt_step_energy(&e.device, &e.profile, cfg, t, true).total_uj()
            });
        }
        out
    }

    /// Price one unit of work against the attached energy model (no-op
    /// without one) and remember it for span annotation.
    fn charge(
        &mut self,
        phase: EnergyPhase,
        price: impl FnOnce(&DecodeEnergyModel, &tt_model::gpt::GptConfig) -> u64,
    ) {
        if let Some(e) = &self.energy {
            let uj = price(e, &self.model.config);
            e.meter.add(phase, uj);
            self.last_energy_uj = uj;
        }
    }

    /// Release a finished or expired sequence; its pages are free for the
    /// next admission immediately. Returns pages freed.
    pub fn release(&mut self, seq: KvSeq) -> Result<usize, KvError> {
        self.arena.release(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_model::gpt::GptConfig;

    fn runtime() -> GenerativeRuntime {
        let model = Gpt::new_random(&GptConfig::tiny(), 7);
        GenerativeRuntime::new(model, DecodeConfig { page_slots: 4, num_pages: 16 })
    }

    #[test]
    fn prefill_then_decode_produces_logits_and_grows_cache() {
        let mut rt = runtime();
        let seq = rt.admit(3).unwrap();
        let logits = rt.prefill(seq, &[1, 2, 3]).unwrap();
        assert_eq!(logits.len(), rt.model().config.vocab_size);
        let next = tt_tensor::ops::argmax(&logits).unwrap() as u32;
        rt.decode_step(seq, next).unwrap();
        assert_eq!(rt.arena().len_of(seq).unwrap(), 4);
        assert_eq!(rt.release(seq).unwrap(), 1);
    }

    #[test]
    fn instrumented_runtime_times_prefill_and_steps() {
        let registry = Registry::new();
        let mut rt = runtime();
        rt.instrument(&registry);
        let seq = rt.admit(2).unwrap();
        rt.prefill(seq, &[1, 2]).unwrap();
        rt.decode_step(seq, 3).unwrap();
        let snap = registry.snapshot();
        let prefill = snap.find("prefill_us", &[]).unwrap().histogram.clone().unwrap();
        let step = snap.find("decode_step_us", &[]).unwrap().histogram.clone().unwrap();
        assert_eq!(prefill.count(), 1);
        assert_eq!(step.count(), 1);
        assert!(snap.find("kv_pages_in_use", &[]).is_some());
    }

    #[test]
    fn energy_model_attributes_prefill_and_decode_phases() {
        use crate::variants::RuntimeKind;
        let meter = Arc::new(EnergyMeter::default());
        let mut rt = runtime();
        rt.instrument_energy(DecodeEnergyModel {
            device: tt_gpusim::device::DeviceKind::V100.config(),
            profile: RuntimeKind::Turbo.profile(),
            meter: Arc::clone(&meter),
        });
        let seq = rt.admit(3).unwrap();
        rt.prefill(seq, &[1, 2, 3]).unwrap();
        let prefill_uj = meter.phase_uj(EnergyPhase::Prefill);
        assert!(prefill_uj > 0, "prefill must charge the prefill phase");
        assert_eq!(rt.last_energy_uj(), prefill_uj);
        assert_eq!(meter.phase_uj(EnergyPhase::Decode), 0);

        rt.decode_step(seq, 4).unwrap();
        let one_step = meter.phase_uj(EnergyPhase::Decode);
        assert!(one_step > 0, "decode must charge the decode phase");
        assert_eq!(rt.last_energy_uj(), one_step);
        // A longer prefix attends over more cache: later steps cost at
        // least as much as earlier ones.
        rt.decode_step(seq, 5).unwrap();
        assert!(rt.last_energy_uj() >= one_step);
        // A full prompt pass costs more than a single token step.
        assert!(prefill_uj > one_step);
        assert_eq!(meter.busy_uj(), prefill_uj + one_step + rt.last_energy_uj());
    }
}
