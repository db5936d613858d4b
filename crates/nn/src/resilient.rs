//! Host-level graceful degradation: retry-from-weights inference.
//!
//! The paper's host runtime owns the model (it "emplaces the model and
//! bootstraps execution", §II): when the chip raises an *uncorrectable* ECC
//! detection or a C2C link exhausts its retransmission budget, the run is
//! lost but the weights are not. [`run_resilient`] re-creates the chip state
//! from the compiled model — reload constants, rewrite the input, rerun —
//! up to a bounded number of attempts, and reports what happened in a
//! [`ResilienceReport`] instead of propagating a panic-shaped error.
//!
//! A run that completes cleanly leaves its chip resident ([`ResidentChip`]):
//! the next run of the same model restores the rows the last one disturbed
//! instead of emplacing the model again.
//!
//! Only *transient* faults are retried (see [`transient`]): scheduling
//! and decode errors are compiler bugs that will recur deterministically,
//! so they propagate immediately as `Err`.

use tsp_arch::ChipConfig;
use tsp_sim::chip::RunOptions;
use tsp_sim::faults::{ChaosStrike, FaultPlan};
use tsp_sim::{Chip, Memory, SimError, Telemetry};

use crate::compile::CompiledModel;

/// Default retry budget: the first run plus two retries.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Options for [`run_resilient`].
#[derive(Debug, Clone)]
pub struct ResilientOptions {
    /// Total run budget (first attempt included), ≥ 1.
    pub max_attempts: u32,
    /// The chip strike, in the form a chaos draw states it:
    /// [`ChaosStrike::Transient`] injects its plan into the first attempt
    /// only (a retry-from-weights outruns it), [`ChaosStrike::Persistent`]
    /// into every attempt (a stuck cell survives the rebuild, so the run
    /// deterministically exhausts its budget — the case the serving layer's
    /// circuit breaker exists for), and [`ChaosStrike::None`] into none.
    pub strike: ChaosStrike,
    /// Base run options (trace / cycle limit / functional). The `faults`
    /// field is overridden per attempt from `strike`.
    pub base: RunOptions,
}

impl Default for ResilientOptions {
    fn default() -> ResilientOptions {
        ResilientOptions {
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            strike: ChaosStrike::None,
            base: RunOptions::default(),
        }
    }
}

/// How a resilient run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Some attempt ran to completion.
    Completed {
        /// The logits of the completing attempt.
        logits: Vec<i8>,
        /// Its completion cycle.
        cycles: u64,
    },
    /// Every attempt died on a transient fault.
    Exhausted {
        /// The last attempt's error.
        last_error: SimError,
    },
}

/// The coarse *site class* of a transient error — what kind of hardware the
/// fault lives in. The serving layer's circuit breaker keys off this: link
/// errors are weather (transient signaling margin), repeated SRAM
/// detections on one chip smell like a failing part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// Uncorrectable SECDED detection — SRAM-shaped (a stored word or an
    /// in-flight stream register took more damage than one bit).
    Ecc,
    /// A C2C `Receive` with nothing arrived (word lost beyond the timeout).
    LinkEmpty,
    /// A C2C wire exhausted its retransmission budget on one word.
    LinkRetryExhausted,
}

impl TransientKind {
    /// Stable identifier used in reports and serving telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransientKind::Ecc => "ecc",
            TransientKind::LinkEmpty => "link_empty",
            TransientKind::LinkRetryExhausted => "link_retry_exhausted",
        }
    }

    /// Is this a link-level (inter-chip signaling) fault rather than an
    /// on-chip memory/stream one?
    #[must_use]
    pub fn is_link(self) -> bool {
        matches!(
            self,
            TransientKind::LinkEmpty | TransientKind::LinkRetryExhausted
        )
    }
}

/// The site class and strike cycle of `error`, or `None` if it is not a
/// *transient* fault worth retrying from weights.
///
/// Uncorrectable ECC detections and link failures are particle-strike
/// shaped: the damaged state is rebuilt by the reload. Everything else
/// (scheduling violations, decode faults, cycle-limit overruns) is
/// deterministic and would recur identically.
#[must_use]
pub fn transient(error: &SimError) -> Option<(TransientKind, u64)> {
    match *error {
        SimError::Ecc { cycle, .. } => Some((TransientKind::Ecc, cycle)),
        SimError::LinkEmpty { cycle, .. } => Some((TransientKind::LinkEmpty, cycle)),
        SimError::LinkRetryExhausted { cycle, .. } => {
            Some((TransientKind::LinkRetryExhausted, cycle))
        }
        _ => None,
    }
}

/// Why one attempt of a resilient run died: one entry per retry-triggering
/// failure, in attempt order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryCause {
    /// Zero-based index of the attempt that died.
    pub attempt: u32,
    /// Simulated cycle the error struck at.
    pub cycle: u64,
    /// Site class of the fault (SRAM-shaped vs link-shaped).
    pub kind: TransientKind,
}

/// What the host observed across all attempts of one inference. Every field
/// is simulated, so the report is a pure function of the model, input and
/// options.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Runs performed (1 if the first attempt completed; the retries are
    /// `attempts − 1`).
    pub attempts: u32,
    /// Corrected single-bit ECC events, summed over all attempts.
    pub corrected: u64,
    /// Detected-uncorrectable events (ECC double-bit detections plus link
    /// retry exhaustions), summed over all attempts.
    pub detected: u64,
    /// Planned fault events that struck live state (completing attempt only;
    /// failed attempts abort before their report exists).
    pub faults_applied: u64,
    /// Planned fault events that hit vacant state or fell past the run.
    pub faults_vacant: u64,
    /// Simulated cycles burned by failed attempts (each failed attempt dies
    /// at its error cycle; the work up to there is thrown away).
    pub wasted_cycles: u64,
    /// Vectors that left on C2C links during the completing attempt (failed
    /// attempts abort before their report exists, so their egress is lost
    /// with them).
    pub egress_words: u64,
    /// Utilization counters of the completing attempt (zeroed when every
    /// attempt failed, or when `base.counters` is off).
    pub telemetry: Telemetry,
    /// Structured cause of each retry-triggering failure, in attempt order:
    /// the site class and strike cycle, so a circuit breaker can tell link
    /// weather from SRAM rot (the error text is `RunOutcome::Exhausted`'s
    /// `last_error`).
    pub retry_causes: Vec<RetryCause>,
    /// Final outcome.
    pub outcome: RunOutcome,
}

impl ResilienceReport {
    /// Did some attempt complete?
    #[must_use]
    pub fn completed(&self) -> bool {
        matches!(self.outcome, RunOutcome::Completed { .. })
    }

    /// The completing attempt's logits, if any.
    #[must_use]
    pub fn logits(&self) -> Option<&[i8]> {
        match &self.outcome {
            RunOutcome::Completed { logits, .. } => Some(logits),
            RunOutcome::Exhausted { .. } => None,
        }
    }
}

/// A chip that keeps a model's constants between runs — terminus's `ICache`
/// tag check at model grain: the chip is tagged with the model whose
/// constants it holds ([`CompiledModel::id`]) and with whether a run has used
/// it since they were emplaced. Between runs only its SRAM is kept; the rest
/// of a chip is power-on state, built anew for the next run
/// ([`Chip::with_memory`]).
#[derive(Debug)]
pub struct ResidentChip {
    memory: Memory,
    config: ChipConfig,
    model: u64,
    ran: bool,
}

impl ResidentChip {
    /// The rows the next run of `model` on `resident` restores before its
    /// input is written: 0 on a chip freshly emplaced with the model,
    /// [`CompiledModel::restore_cycles`] on one the model already ran on, and
    /// `None` when there is no chip, or it holds other constants or another
    /// configuration, so that the run emplaces onto a new chip.
    #[must_use]
    pub fn restore_rows(
        resident: Option<&ResidentChip>,
        model: &CompiledModel,
        config: &ChipConfig,
    ) -> Option<u64> {
        let held = resident.filter(|r| r.model == model.id() && r.config == *config)?;
        Some(if held.ran { model.restore_cycles() } else { 0 })
    }
}

/// Runs one inference with bounded retry-from-weights recovery.
///
/// The first attempt runs on `resident` when it holds this model's constants
/// ([`ResidentChip::restore_rows`]), after [`CompiledModel::restore`] if the
/// model has run there; otherwise, and for every retry, on a new chip with
/// the constants emplaced (the PCIe model-emplace), so a retry observes no
/// state damaged by the attempt before it. A chip is dropped before the next
/// is built: one is alive at a time. Attempt `i` is injected with the plan of
/// [`ResilientOptions::strike`] when the strike is persistent or `i` is the
/// first attempt, and runs fault-free otherwise.
///
/// An attempt that completes unstruck leaves its chip in `resident` for the
/// next run; any other ending leaves `resident` empty, so that a latent
/// strike never reaches the next request.
///
/// Returns `Err` only for non-transient errors (see [`transient`]);
/// transient exhaustion is reported as [`RunOutcome::Exhausted`].
///
/// # Panics
///
/// Panics if `options.max_attempts` is zero.
pub fn run_resilient(
    model: &CompiledModel,
    config: &ChipConfig,
    image_q: &[i8],
    options: &ResilientOptions,
    resident: &mut Option<ResidentChip>,
) -> Result<ResilienceReport, SimError> {
    assert!(options.max_attempts >= 1, "need at least one attempt");
    let mut report = ResilienceReport {
        attempts: 0,
        corrected: 0,
        detected: 0,
        faults_applied: 0,
        faults_vacant: 0,
        wasted_cycles: 0,
        egress_words: 0,
        telemetry: Telemetry::new(),
        retry_causes: Vec::new(),
        outcome: RunOutcome::Exhausted {
            last_error: SimError::CycleLimit { limit: 0 }, // replaced below
        },
    };
    for attempt in 0..options.max_attempts {
        let reuse = ResidentChip::restore_rows(resident.as_ref(), model, config);
        let held = resident.take().filter(|_| attempt == 0 && reuse.is_some());
        let mut chip = match held {
            // `restore`, with the rewind done by building the chip anew.
            Some(ResidentChip {
                mut memory, ran, ..
            }) => {
                if ran {
                    model.write_restore_set(&mut memory);
                }
                Chip::with_memory(config.clone(), memory)
            }
            None => {
                let mut chip = Chip::new(config.clone());
                model.load_constants(&mut chip);
                chip
            }
        };
        model.write_input(&mut chip, image_q);
        let struck = match (&options.strike, attempt) {
            (ChaosStrike::Transient(plan), 0) | (ChaosStrike::Persistent(plan), _) => Some(plan),
            _ => None,
        };
        let run_options = RunOptions {
            faults: struck.cloned().unwrap_or_else(FaultPlan::empty),
            ..options.base.clone()
        };
        report.attempts += 1;
        let outcome = if run_options.decoded {
            chip.run_decoded(&model.decoded(), &run_options)
        } else {
            chip.run_interpreted(&model.program, &run_options)
        };
        let error = match outcome {
            Ok(run) => {
                report.corrected += run.ecc_corrected;
                report.faults_applied += run.faults_applied;
                report.faults_vacant += run.faults_vacant;
                report.egress_words = run.egress.len() as u64;
                report.telemetry = run.telemetry;
                report.outcome = RunOutcome::Completed {
                    logits: model.read_logits(&chip),
                    cycles: run.cycles,
                };
                if struck.is_none() {
                    *resident = Some(ResidentChip {
                        memory: chip.memory,
                        config: chip.config,
                        model: model.id(),
                        ran: true,
                    });
                }
                return Ok(report);
            }
            Err(error) => error,
        };
        let Some((kind, cycle)) = transient(&error) else {
            return Err(error);
        };
        report.corrected += chip.memory.errors.corrected();
        report.detected += match kind {
            TransientKind::Ecc => chip.memory.errors.uncorrectable(),
            _ => 1, // link failures are not in the memory CSR
        };
        report.wasted_cycles += cycle;
        report.retry_causes.push(RetryCause {
            attempt,
            cycle,
            kind,
        });
        report.outcome = RunOutcome::Exhausted { last_error: error };
    }
    Ok(report)
}
