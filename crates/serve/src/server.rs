//! The serving event loop: admission → batch → dispatch → retry/quarantine.
//!
//! [`serve`] is a deterministic discrete-event simulation of a serving host
//! in front of a pool of TSP chips. Virtual time is a cycle counter; the
//! loop advances it from scheduling instant to scheduling instant (a
//! request arrival, or a chip coming free), and at each instant:
//!
//! 1. **admits** arrivals into a bounded queue, shedding
//!    [`Rejected::QueueFull`] when the bound is hit;
//! 2. **expires** queued requests that have already out-waited their
//!    deadline ([`Rejected::Expired`]) — dispatching them would only burn a
//!    chip on an answer nobody is waiting for;
//! 3. **dispatches** one batch of up to `max_batch` requests to every free,
//!    healthy chip (all of a wave's batches run concurrently on host
//!    threads via [`tsp_host::try_fan_out`]; results are merged in chip
//!    order, so the outcome is independent of host threading);
//! 4. **accounts** each batch on the virtual clock. Each pool member keeps
//!    the model resident on one chip ([`ResidentChip`]): a batch is charged
//!    the model emplace only when its chip holds none (the chip's first
//!    batch, or the one after a struck or failed batch, whose chip is
//!    dropped), and every run on a chip the model already ran on is charged
//!    the model's restore. Each request's attempts run back to back, with
//!    capped exponential backoff plus a re-emplace per retry — every
//!    completion cycle is re-derivable from the batch sequence alone, which
//!    is what [`crate::verify::verify_accounting`] checks.
//!
//! Failure handling is layered: each request of a batch runs through
//! [`run_resilient`], where transient faults retry; a request that exhausts
//! its budget is a structured [`ServeOutcome::Failed`], never a wrong
//! answer; and every verdict feeds the per-chip circuit breaker
//! ([`crate::health`]), which quarantines a chip that keeps drawing faults
//! and drains its work to the healthy rest.
//! Chaos mode ([`ChaosSpec`]) injects seeded fault plans into live
//! dispatches so all of the above runs under test, not in theory: each
//! dispatch's [`ChaosStrike`] is handed to `run_resilient` as drawn.

use std::collections::VecDeque;

use tsp_arch::ChipConfig;
use tsp_host::{try_fan_out, WorkerPanic};
use tsp_nn::batch::BatchModel;
use tsp_nn::resilient::{
    run_resilient, ResidentChip, ResilienceReport, ResilientOptions, RetryCause, RunOutcome,
    DEFAULT_MAX_ATTEMPTS,
};
use tsp_sim::chip::RunOptions;
use tsp_sim::{SimError, Telemetry};

use tsp_faults::{ChaosPlanner, ChaosSpec, ChaosStrike};

use crate::flight::{FlightRecorder, RequestTrace, SpanNode, TraceOutcome};
use crate::health::{ChipHealth, HealthConfig};
use crate::request::{Rejected, Request, Response, ServeOutcome};

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Chip configuration every pool member runs.
    pub chip: ChipConfig,
    /// Pool size (chips), 1 to [`ServeConfig::MAX_POOL`].
    pub pool: usize,
    /// Admission-queue bound, ≥ 1: arrivals past it shed
    /// [`Rejected::QueueFull`].
    pub queue_depth: usize,
    /// Per-request retry budget handed to `run_resilient` (first attempt
    /// included), 1 to [`ServeConfig::MAX_ATTEMPTS`].
    pub max_attempts: u32,
    /// Base of the capped exponential backoff: retry `k` (zero-based)
    /// charges [`ServeConfig::backoff`]`(k)` virtual cycles before its
    /// re-emplace.
    pub backoff_base: u64,
    /// Cap of the exponential backoff, in cycles.
    pub backoff_cap: u64,
    /// Chaos strikes land in the first `chaos_window` cycles of an attempt
    /// (the targeted double-bit strike lands at cycle 0, which the schedule
    /// always consumes). Irrelevant when `chaos` is `None`.
    pub chaos_window: u64,
    /// Circuit-breaker thresholds.
    pub health: HealthConfig,
    /// Seeded chaos mode: `Some` injects fault plans into live dispatches.
    pub chaos: Option<ChaosSpec>,
    /// Collect utilization counters into [`ChipStats::telemetry`].
    pub counters: bool,
    /// Build a lifecycle span tree per request ([`ServeResult::traces`]) and
    /// feed the flight recorder. Spans are assembled from the accounting the
    /// loop already does on the virtual clock, so turning them on changes
    /// **no** simulated cycle or outcome (pinned by the tracing tests) and
    /// they stay byte-identical across host threading.
    pub spans: bool,
    /// Flight-recorder retention bound: how many non-success request traces
    /// to keep, oldest evicted first. Irrelevant when `spans` is off.
    pub flight_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            chip: ChipConfig::asic(),
            pool: 4,
            queue_depth: 64,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            backoff_base: 256,
            backoff_cap: 2048,
            chaos_window: 2048,
            health: HealthConfig::default(),
            chaos: None,
            counters: true,
            spans: false,
            flight_capacity: 64,
        }
    }
}

impl ServeConfig {
    /// Most chips a pool may hold: the loop visits every member at each
    /// scheduling instant.
    pub const MAX_POOL: usize = 1024;
    /// Most attempts a request may be given: a persistent fault burns every
    /// one of them on the simulator.
    pub const MAX_ATTEMPTS: u32 = 64;

    /// Backoff charged before retry `k` (zero-based): capped exponential,
    /// `min(backoff_base · 2^k, backoff_cap)` without overflow.
    #[must_use]
    pub fn backoff(&self, retry: u32) -> u64 {
        1u64.checked_shl(retry)
            .and_then(|scale| self.backoff_base.checked_mul(scale))
            .map_or(self.backoff_cap, |b| b.min(self.backoff_cap))
    }

    /// Total backoff charged before the first `retries` retries, saturating.
    #[must_use]
    pub fn backoff_total(&self, retries: u32) -> u64 {
        (0..retries).fold(0, |sum, k| sum.saturating_add(self.backoff(k)))
    }
}

/// Why [`serve`] could not run at all (request-level failures are
/// [`ServeOutcome`]s, not errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `pool`, `queue_depth`, `max_attempts` or the model's `max_batch` was
    /// zero, or `pool` / `max_attempts` was past its limit.
    BadConfig(&'static str),
    /// Requests must arrive sorted by `(arrival, id)` with unique ids; the
    /// payload is the index of the first offender.
    BadRequestOrder(usize),
    /// A request's `input` index is outside the shared input set.
    InputOutOfRange {
        /// The offending request's id.
        id: u64,
        /// Its out-of-range input index.
        input: usize,
    },
    /// A pool worker panicked (attributed to its wave slot by `tsp-host`).
    WorkerPanic(WorkerPanic),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadConfig(what) => write!(f, "bad serve config: {what}"),
            ServeError::BadRequestOrder(index) => {
                write!(f, "request {index} breaks (arrival, id) order")
            }
            ServeError::InputOutOfRange { id, input } => {
                write!(f, "request {id}: input index {input} out of range")
            }
            ServeError::WorkerPanic(p) => write!(f, "serve pool: {p}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One request's row in a [`BatchRecord`] — everything needed to re-derive
/// its completion cycle from the batch's dispatch cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedRequest {
    /// The request's id.
    pub id: u64,
    /// Chip runs performed.
    pub attempts: u32,
    /// Simulated cycles each *failed* attempt burned before its transient
    /// error (in attempt order; length `attempts` when the budget
    /// exhausted, `attempts − 1` when some attempt completed, empty when
    /// the failure was non-transient).
    pub failed_attempt_cycles: Vec<u64>,
    /// The completing attempt's run cycles (`None` if no attempt
    /// completed).
    pub final_cycles: Option<u64>,
    /// Cycles charged before the first attempt to ready the chip: the
    /// model's restore on a chip it already ran on, the whole emplace when
    /// the row before left no chip (it failed, or its last attempt was
    /// struck), and 0 on the chip emplaced for this batch.
    pub restore: u64,
    /// Total backoff cycles charged between attempts.
    pub backoff: u64,
    /// Total re-emplace cycles charged (one model emplace per retry).
    pub reemplace: u64,
    /// Completion cycle: the batch's `dispatched + emplace`, plus every
    /// earlier row's service, plus this row's service.
    pub completed: u64,
}

impl ServedRequest {
    /// This row's service cycles — its restore, failed attempts, backoff,
    /// re-emplaces and completing run — saturating at `u64::MAX`, as every
    /// cycle of the virtual clock does.
    #[must_use]
    pub fn service(&self) -> u64 {
        let parts = [
            self.restore,
            self.backoff,
            self.reemplace,
            self.final_cycles.unwrap_or(0),
        ];
        (self.failed_attempt_cycles.iter().chain(&parts)).fold(0, |sum, &c| sum.saturating_add(c))
    }
}

/// One dispatched batch: the unit of accounting (and of chaos).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Pool member that ran it.
    pub chip: usize,
    /// Per-chip dispatch ordinal (the chaos draw coordinate).
    pub ordinal: u64,
    /// Cycle the batch left the queue.
    pub dispatched: u64,
    /// Model-emplace cycles charged once up front: the model's emplace when
    /// the chip held no resident copy of it, 0 when it did.
    pub emplace: u64,
    /// What the chaos draw decided: `"none"`, `"transient"` or
    /// `"persistent"`.
    pub chaos: &'static str,
    /// Member rows, in dispatch order.
    pub served: Vec<ServedRequest>,
    /// Cycle the chip came free again:
    /// `dispatched + emplace + Σ served.service()`.
    pub finished: u64,
}

/// Per-chip serving statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipStats {
    /// Batches dispatched to this chip.
    pub batches: u64,
    /// Requests carried by those batches.
    pub requests: u64,
    /// Requests that completed (logits produced).
    pub completed: u64,
    /// Requests that failed (budget exhausted or non-transient error).
    pub failed: u64,
    /// Busy cycles (dispatch to finish, summed over batches).
    pub busy_cycles: u64,
    /// Retries caused by link-shaped transients on this chip.
    pub retries_link: u64,
    /// Retries caused by SRAM-shaped transients on this chip.
    pub retries_sram: u64,
    /// Cycle the circuit breaker quarantined the chip, if it did.
    pub quarantined_at: Option<u64>,
    /// Utilization counters merged over the chip's completing attempts
    /// (zeroed when [`ServeConfig::counters`] is off).
    pub telemetry: Telemetry,
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// One response per request, sorted by id.
    pub responses: Vec<Response>,
    /// Every dispatched batch, in dispatch order (ties broken by chip
    /// index — the wave merge order).
    pub batches: Vec<BatchRecord>,
    /// Per-chip statistics, indexed by pool position.
    pub chips: Vec<ChipStats>,
    /// Cycle the last batch finished (0 when nothing dispatched).
    pub horizon: u64,
    /// One lifecycle span tree per request, sorted by id (empty unless
    /// [`ServeConfig::spans`]).
    pub traces: Vec<RequestTrace>,
    /// The bounded ring buffer of non-success request traces, in event
    /// order (empty unless [`ServeConfig::spans`]).
    pub flight: FlightRecorder,
}

impl ServeResult {
    /// Requests that produced logits.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.responses
            .iter()
            .filter(|r| matches!(r.outcome, ServeOutcome::Completed { .. }))
            .count()
    }

    /// Requests that produced logits within their deadline — goodput.
    #[must_use]
    pub fn good(&self) -> usize {
        self.responses.iter().filter(|r| r.good()).count()
    }

    /// Requests shed at admission (queue full).
    #[must_use]
    pub fn shed_queue_full(&self) -> usize {
        self.responses
            .iter()
            .filter(|r| matches!(r.outcome, ServeOutcome::Shed(Rejected::QueueFull { .. })))
            .count()
    }

    /// Requests shed after out-waiting their deadline in the queue.
    #[must_use]
    pub fn shed_expired(&self) -> usize {
        self.responses
            .iter()
            .filter(|r| matches!(r.outcome, ServeOutcome::Shed(Rejected::Expired { .. })))
            .count()
    }

    /// Requests dispatched but never completed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.responses
            .iter()
            .filter(|r| matches!(r.outcome, ServeOutcome::Failed { .. }))
            .count()
    }

    /// Requests that completed but past their deadline.
    #[must_use]
    pub fn deadline_missed(&self) -> usize {
        self.completed() - self.good()
    }

    /// Sorted end-to-end latencies (cycles) of completed requests.
    #[must_use]
    pub fn latencies(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .responses
            .iter()
            .filter(|r| matches!(r.outcome, ServeOutcome::Completed { .. }))
            .filter_map(Response::latency)
            .collect();
        out.sort_unstable();
        out
    }
}

/// Mutable per-chip serving state.
struct ChipState {
    free_at: u64,
    dispatches: u64,
    health: ChipHealth,
    stats: ChipStats,
    /// The chip holding the model between batches, if any.
    resident: Option<ResidentChip>,
}

/// A wave slot: one batch bound for one chip, chaos already drawn.
struct Assignment {
    chip: usize,
    ordinal: u64,
    batch_index: usize,
    dispatched: u64,
    requests: Vec<Request>,
    strike: ChaosStrike,
    /// The pool member's resident chip, lent to the batch and handed back
    /// unless the batch was struck or failed.
    resident: Option<ResidentChip>,
}

/// One request's run on the worker: the rows restored on the resident chip
/// before it (`None`: the model was emplaced onto a new chip), and what
/// `run_resilient` returned.
type RowRun = (Option<u64>, Result<ResilienceReport, SimError>);

/// Span-tree collection state: inert (no allocation, no work) unless
/// [`ServeConfig::spans`] is on.
struct Tracer {
    enabled: bool,
    traces: Vec<RequestTrace>,
    flight: FlightRecorder,
}

impl Tracer {
    fn new(config: &ServeConfig) -> Tracer {
        Tracer {
            enabled: config.spans,
            traces: Vec::new(),
            flight: FlightRecorder::new(config.flight_capacity),
        }
    }

    /// Records one finished request's trace (callers guard on `enabled` to
    /// skip tree construction entirely when tracing is off).
    fn record(&mut self, trace: RequestTrace) {
        self.flight.offer(&trace);
        self.traces.push(trace);
    }
}

/// Lifecycle tree of a request shed before dispatch: `request → queue →
/// shed marker`, all on the virtual clock.
fn shed_trace(r: &Request, why: &Rejected, at: u64) -> RequestTrace {
    let outcome = match why {
        Rejected::QueueFull { .. } => TraceOutcome::ShedQueueFull,
        Rejected::Expired { .. } => TraceOutcome::ShedExpired,
    };
    let mut root = SpanNode::span(format!("request {}", r.id), r.arrival, at)
        .with_arg("input", r.input as u64)
        .with_text("outcome", outcome.name());
    root.push(SpanNode::span("queue", r.arrival, at));
    root.push(match why {
        Rejected::QueueFull { queue_depth } => {
            SpanNode::new("shed:queue-full", at).with_arg("queue_depth", *queue_depth as u64)
        }
        Rejected::Expired { .. } => SpanNode::new("shed:expired", at).with_arg("deadline", r.due()),
    });
    RequestTrace {
        id: r.id,
        outcome,
        root,
    }
}

/// Lifecycle tree of a dispatched request, reconstructed from the same
/// accounting that produced its [`ServedRequest`] row: `request → queue →
/// batch (emplace → wait → restore → attempt/backoff/re-emplace… → final
/// attempt)`, the emplace only on a batch that was charged one, the restore
/// only where it is nonzero (named `emplace` on a row whose chip was lost).
/// Every fault/retry cause lands as span args on the attempt it killed.
#[allow(clippy::too_many_arguments)]
fn dispatched_trace(
    request: &Request,
    a: &Assignment,
    (batch_emplace, emplace): (u64, u64),
    row_start: u64,
    (row, restored): (&ServedRequest, Option<u64>),
    causes: &[RetryCause],
    config: &ServeConfig,
    outcome: TraceOutcome,
    error: Option<&str>,
) -> RequestTrace {
    let mut root = SpanNode::span(
        format!("request {}", request.id),
        request.arrival,
        row.completed,
    )
    .with_arg("input", request.input as u64)
    .with_arg("attempts", u64::from(row.attempts))
    .with_text("outcome", outcome.name());
    if let Some(e) = error {
        root = root.with_text("error", e);
    }
    root.push(SpanNode::span("queue", request.arrival, a.dispatched));
    let mut batch = SpanNode::span("batch", a.dispatched, row.completed)
        .with_arg("chip", a.chip as u64)
        .with_arg("batch", a.batch_index as u64);
    let emplaced = a.dispatched.saturating_add(batch_emplace);
    if batch_emplace > 0 {
        batch.push(SpanNode::span("emplace", a.dispatched, emplaced));
    }
    if row_start > emplaced {
        // Earlier rows of the batch ran first; this request waited its turn.
        batch.push(SpanNode::span("wait:earlier-rows", emplaced, row_start));
    }
    let transitions = row.attempts.saturating_sub(1);
    let mut at = row_start;
    // The row's phases, back to back on the (saturating) virtual clock.
    let mut phase = |name: String, cycles: u64| {
        let start = at;
        at = at.saturating_add(cycles);
        SpanNode::span(name, start, at)
    };
    if row.restore > 0 {
        let name = if restored.is_some() {
            "restore"
        } else {
            "emplace"
        };
        batch.push(phase(name.into(), row.restore));
    }
    for (i, &burned) in row.failed_attempt_cycles.iter().enumerate() {
        let mut attempt = phase(format!("attempt {}", i + 1), burned);
        if let Some(cause) = causes.get(i) {
            attempt = attempt
                .with_text("cause", cause.kind.name())
                .with_arg("fault_cycle", cause.cycle);
        }
        batch.push(attempt);
        if (i as u32) < transitions {
            batch.push(phase("backoff".into(), config.backoff(i as u32)));
            batch.push(phase("re-emplace".into(), emplace));
        }
    }
    batch.push(match row.final_cycles {
        Some(cycles) => phase(format!("attempt {}", row.attempts), cycles),
        None => SpanNode::new("failed", at),
    });
    debug_assert_eq!(at, row.completed, "span timeline must match accounting");
    root.push(batch);
    RequestTrace {
        id: request.id,
        outcome,
        root,
    }
}

/// Runs the serving loop over `requests` (sorted by `(arrival, id)`, ids
/// unique) against the shared quantized `inputs` set.
///
/// Deterministic: virtual time only — the same model, config, inputs and
/// requests produce an identical [`ServeResult`] regardless of host
/// threading or wall-clock conditions.
///
/// # Errors
///
/// [`ServeError`] on structural problems (bad config, unsorted requests,
/// out-of-range input indices, worker panics). Per-request failures are
/// [`ServeOutcome`]s inside the result, never errors.
pub fn serve(
    model: &BatchModel,
    config: &ServeConfig,
    inputs: &[Vec<i8>],
    requests: &[Request],
) -> Result<ServeResult, ServeError> {
    if !(1..=ServeConfig::MAX_POOL).contains(&config.pool) {
        return Err(ServeError::BadConfig("pool must hold 1 to MAX_POOL chips"));
    }
    if config.queue_depth == 0 {
        return Err(ServeError::BadConfig("queue_depth must be at least 1"));
    }
    if !(1..=ServeConfig::MAX_ATTEMPTS).contains(&config.max_attempts) {
        return Err(ServeError::BadConfig(
            "max_attempts must be 1 to MAX_ATTEMPTS",
        ));
    }
    if model.max_batch == 0 {
        return Err(ServeError::BadConfig("max_batch must be at least 1"));
    }
    for (i, pair) in requests.windows(2).enumerate() {
        if (pair[1].arrival, pair[1].id) <= (pair[0].arrival, pair[0].id) {
            return Err(ServeError::BadRequestOrder(i + 1));
        }
    }
    for r in requests {
        if r.input >= inputs.len() {
            return Err(ServeError::InputOutOfRange {
                id: r.id,
                input: r.input,
            });
        }
    }

    let planner = config.chaos.clone().map(ChaosPlanner::new);
    let emplace = model.emplace_cycles();
    let target = model.input_site();
    let base = RunOptions {
        counters: config.counters,
        ..RunOptions::default()
    };

    let mut chips: Vec<ChipState> = (0..config.pool)
        .map(|_| ChipState {
            free_at: 0,
            dispatches: 0,
            health: ChipHealth::new(config.health.clone()),
            stats: ChipStats {
                batches: 0,
                requests: 0,
                completed: 0,
                failed: 0,
                busy_cycles: 0,
                retries_link: 0,
                retries_sram: 0,
                quarantined_at: None,
                telemetry: Telemetry::new(),
            },
            resident: None,
        })
        .collect();
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut arrivals = requests.iter().cloned().peekable();
    let mut responses: Vec<Response> = Vec::with_capacity(requests.len());
    let mut batches: Vec<BatchRecord> = Vec::new();
    let mut tracer = Tracer::new(config);
    let mut now: u64 = 0;

    loop {
        // 1. Admission: arrivals up to the current instant, in order.
        while arrivals.peek().is_some_and(|r| r.arrival <= now) {
            let r = arrivals.next().expect("peeked");
            if queue.len() >= config.queue_depth {
                let why = Rejected::QueueFull {
                    queue_depth: config.queue_depth,
                };
                if tracer.enabled {
                    tracer.record(shed_trace(&r, &why, now));
                }
                responses.push(shed(&r, why));
            } else {
                queue.push_back(r);
            }
        }

        // 2. Expiry: queued requests already past their deadline are shed
        //    at this scheduling instant rather than wasting a chip.
        let expired: Vec<Request> = {
            let mut kept = VecDeque::with_capacity(queue.len());
            let mut out = Vec::new();
            for r in queue.drain(..) {
                if r.due() < now {
                    out.push(r);
                } else {
                    kept.push_back(r);
                }
            }
            queue = kept;
            out
        };
        for r in &expired {
            let why = Rejected::Expired { at: now };
            if tracer.enabled {
                tracer.record(shed_trace(r, &why, now));
            }
            responses.push(shed(r, why));
        }

        // 3. Dispatch wave: one batch per free eligible chip, in chip
        //    order. Quarantined chips are skipped — unless every chip is
        //    quarantined, in which case the breaker fails open (degraded
        //    service beats no service; correctness never depends on it).
        if !queue.is_empty() {
            let all_tripped = chips.iter().all(|c| c.health.tripped());
            let mut wave: Vec<Assignment> = Vec::new();
            for (ci, chip) in chips.iter_mut().enumerate() {
                if queue.is_empty() || chip.free_at > now {
                    continue;
                }
                if chip.health.tripped() && !all_tripped {
                    continue;
                }
                let take = queue.len().min(model.max_batch);
                let batch_requests: Vec<Request> = queue.drain(..take).collect();
                let ordinal = chip.dispatches;
                chip.dispatches += 1;
                let strike = planner.as_ref().map_or(ChaosStrike::None, |p| {
                    p.strike(ci, ordinal, 0..config.chaos_window.max(1), Some(target))
                });
                wave.push(Assignment {
                    chip: ci,
                    ordinal,
                    batch_index: batches.len() + wave.len(),
                    dispatched: now,
                    requests: batch_requests,
                    strike,
                    resident: chip.resident.take(),
                });
            }
            if !wave.is_empty() {
                // All of the wave's batches run concurrently; results come
                // back in wave (chip) order, so accounting is
                // threading-independent.
                let outcomes = try_fan_out(wave, |mut a| {
                    let reports = run_assignment(model, config, inputs, &mut a, &base);
                    (a, reports)
                })
                .map_err(ServeError::WorkerPanic)?;
                for (mut a, reports) in outcomes {
                    chips[a.chip].resident = a.resident.take();
                    account(
                        &a,
                        &reports,
                        emplace,
                        config,
                        &mut chips[a.chip],
                        &mut responses,
                        &mut batches,
                        &mut tracer,
                    );
                }
                continue; // re-evaluate at the same instant (drains queue)
            }
        }

        // 4. Advance the clock to the next scheduling instant.
        let next_arrival = arrivals.peek().map(|r| r.arrival);
        let next_free = if queue.is_empty() {
            None
        } else {
            let all_tripped = chips.iter().all(|c| c.health.tripped());
            chips
                .iter()
                .filter(|c| all_tripped || !c.health.tripped())
                .map(|c| c.free_at)
                .filter(|&f| f > now)
                .min()
        };
        now = match (next_arrival, next_free) {
            (Some(a), Some(f)) => a.min(f),
            (Some(a), None) => a,
            (None, Some(f)) => f,
            (None, None) => break, // no arrivals, empty queue: done
        };
    }

    responses.sort_by_key(|r| r.id);
    tracer.traces.sort_by_key(|t| t.id);
    let horizon = batches.iter().map(|b| b.finished).max().unwrap_or(0);
    Ok(ServeResult {
        responses,
        batches,
        chips: chips.into_iter().map(|c| c.stats).collect(),
        horizon,
        traces: tracer.traces,
        flight: tracer.flight,
    })
}

fn shed(r: &Request, why: Rejected) -> Response {
    Response {
        id: r.id,
        input: r.input,
        arrival: r.arrival,
        deadline: r.deadline,
        outcome: ServeOutcome::Shed(why),
    }
}

/// Executes one assignment's batch on the simulator (worker-thread side):
/// its requests back to back, each through [`run_resilient`] on the chip the
/// request before left resident, in batch order.
///
/// The chaos draw passes straight through as the request's
/// [`ResilientOptions::strike`]: a *transient* strike hits the batch's head
/// request only; a *persistent* one hits **every** request of the batch (a
/// stuck cell survives the per-attempt chip rebuild), so each budget
/// deterministically exhausts. A batch that was struck, or whose requests
/// did not all complete first time, drops its chip: the pool member's next
/// batch emplaces onto a new one.
fn run_assignment(
    model: &BatchModel,
    config: &ServeConfig,
    inputs: &[Vec<i8>],
    a: &mut Assignment,
    base: &RunOptions,
) -> Vec<RowRun> {
    let mut runs = Vec::with_capacity(a.requests.len());
    for (i, request) in a.requests.iter().enumerate() {
        let strike = match &a.strike {
            ChaosStrike::Transient(_) if i > 0 => ChaosStrike::None,
            strike => strike.clone(),
        };
        let options = ResilientOptions {
            max_attempts: config.max_attempts,
            strike,
            base: base.clone(),
        };
        let restored = ResidentChip::restore_rows(a.resident.as_ref(), &model.model, &config.chip);
        let image = &inputs[request.input];
        let result = run_resilient(&model.model, &config.chip, image, &options, &mut a.resident);
        runs.push((restored, result));
    }
    let first_time = |(_, result): &RowRun| matches!(result, Ok(report) if report.attempts == 1 && report.completed());
    if !matches!(a.strike, ChaosStrike::None) || !runs.iter().all(first_time) {
        a.resident = None;
    }
    runs
}

/// Folds one finished assignment into the serving state (main-loop side,
/// in wave order).
///
/// Every request takes one path: its [`ServedRequest`] row, health and
/// counters, [`Response`] and span tree. A non-transient error (the
/// simulator aborted deterministically — a compiler bug, not chip weather)
/// is one failed attempt that burned no modeled chip time.
#[allow(clippy::too_many_arguments)]
fn account(
    a: &Assignment,
    reports: &[RowRun],
    emplace: u64,
    config: &ServeConfig,
    chip: &mut ChipState,
    responses: &mut Vec<Response>,
    batches: &mut Vec<BatchRecord>,
    tracer: &mut Tracer,
) {
    // The batch pays the emplace up front when its head request found no
    // resident chip; a later request that found none pays it as its restore.
    let batch_emplace = match reports.first() {
        Some((None, _)) => emplace,
        _ => 0,
    };
    let mut cursor = a.dispatched.saturating_add(batch_emplace);
    let mut served = Vec::with_capacity(a.requests.len());
    for (i, (request, (restored, result))) in a.requests.iter().zip(reports).enumerate() {
        let (attempts, causes, ending) = match result {
            Ok(report) => (
                report.attempts,
                report.retry_causes.as_slice(),
                match &report.outcome {
                    RunOutcome::Completed { logits, cycles } => {
                        Ok((logits, *cycles, &report.telemetry))
                    }
                    RunOutcome::Exhausted { last_error } => Err(last_error),
                },
            ),
            Err(error) => (1, &[][..], Err(error)),
        };
        let transitions = attempts.saturating_sub(1);
        let mut row = ServedRequest {
            id: request.id,
            attempts,
            failed_attempt_cycles: causes.iter().map(|c| c.cycle).collect(),
            final_cycles: ending.as_ref().ok().map(|&(_, cycles, _)| cycles),
            restore: match restored {
                Some(rows) => *rows,
                None if i == 0 => 0,
                None => emplace,
            },
            backoff: config.backoff_total(transitions),
            reemplace: u64::from(transitions) * emplace,
            completed: 0,
        };
        row.completed = cursor.saturating_add(row.service());
        let (mut link, mut sram) = (0u64, 0u64);
        for cause in causes {
            if cause.kind.is_link() {
                link += 1;
            } else {
                sram += 1;
            }
            chip.health.record_retry(cause.kind);
        }
        chip.stats.retries_link += link;
        chip.stats.retries_sram += sram;
        let (outcome, traced, error) = match ending {
            Ok((logits, _, telemetry)) => {
                if attempts == 1 {
                    chip.health.record_success();
                }
                chip.stats.completed += 1;
                chip.stats.telemetry.merge(telemetry);
                let deadline_met = row.completed <= request.due();
                let outcome = ServeOutcome::Completed {
                    logits: logits.clone(),
                    chip: a.chip,
                    batch: a.batch_index,
                    dispatched: a.dispatched,
                    completed: row.completed,
                    deadline_met,
                    attempts,
                    retried_link: link as u32,
                    retried_sram: sram as u32,
                };
                let traced = if deadline_met {
                    TraceOutcome::Complete
                } else {
                    TraceOutcome::DeadlineMiss
                };
                (outcome, traced, None)
            }
            Err(error) => {
                chip.health.record_exhausted();
                chip.stats.failed += 1;
                let error = error.to_string();
                let outcome = ServeOutcome::Failed {
                    chip: a.chip,
                    batch: a.batch_index,
                    dispatched: a.dispatched,
                    completed: row.completed,
                    attempts,
                    error: error.clone(),
                };
                (outcome, TraceOutcome::Failed, Some(error))
            }
        };
        responses.push(Response {
            id: request.id,
            input: request.input,
            arrival: request.arrival,
            deadline: request.deadline,
            outcome,
        });
        if tracer.enabled {
            tracer.record(dispatched_trace(
                request,
                a,
                (batch_emplace, emplace),
                cursor,
                (&row, *restored),
                causes,
                config,
                traced,
                error.as_deref(),
            ));
        }
        cursor = row.completed;
        served.push(row);
    }
    let finished = cursor;
    chip.free_at = finished;
    chip.stats.batches += 1;
    chip.stats.requests += a.requests.len() as u64;
    chip.stats.busy_cycles += finished - a.dispatched;
    if chip.health.tripped() && chip.stats.quarantined_at.is_none() {
        chip.stats.quarantined_at = Some(finished);
    }
    batches.push(BatchRecord {
        chip: a.chip,
        ordinal: a.ordinal,
        dispatched: a.dispatched,
        emplace: batch_emplace,
        chaos: match a.strike {
            ChaosStrike::None => "none",
            ChaosStrike::Transient(_) => "transient",
            ChaosStrike::Persistent(_) => "persistent",
        },
        served,
        finished,
    });
}
