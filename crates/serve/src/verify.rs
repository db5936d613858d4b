//! Deadline-accounting verification: re-derive every cycle from first
//! principles.
//!
//! The serving loop claims its virtual-time accounting is deterministic and
//! self-consistent. [`verify_accounting`] checks that claim the hard way:
//! it takes only the original requests, the [`ServeResult`], the model's
//! emplace and restore costs and the [`ServeConfig`], and independently
//! re-derives every readiness charge, completion cycle, backoff charge,
//! deadline verdict and per-chip busy interval from the batch records. Any mismatch is a *violation* — the
//! condition the benchmark's `serve_steady` / `serve_chaos` workloads fail
//! on ("zero deadline-accounting violations").

use std::collections::HashMap;

use tsp_nn::batch::BatchModel;

use crate::request::{Rejected, Request, ServeOutcome};
use crate::server::{backoff_total, ServeConfig, ServeResult};

/// Re-derives the result's accounting and returns every violation found
/// (empty error never happens: `Ok(())` means fully consistent).
///
/// Checks, per the serving model in the crate docs:
///
/// 1. exactly one response per request, sorted by id, echoing the
///    request's arrival/deadline/input;
/// 2. residency, re-derived row by row from each chip's batch sequence
///    alone: a row's `ready` is the model's restore when its chip is
///    resident and the model's emplace when not. The chip is resident
///    after a row that completed with its last attempt unstruck, and so at
///    the start of a batch exactly when the pool member's previous batch's
///    last row left it so, struck or retried before or not. Every row's
///    backoff and re-emplace match the capped-exponential retry charges,
///    every row's completion cycle equals the dispatch plus the prefix of
///    services, and the batch's finish cycle closes the sum;
/// 3. batches never time-travel (dispatch ≥ every member's arrival) and
///    never overlap on a chip (per-chip ordinals contiguous, next dispatch
///    ≥ previous finish);
/// 4. every completed/failed response points at a batch row that agrees on
///    chip, dispatch and completion cycles, and `deadline_met` is exactly
///    `completed ≤` [`Request::due`];
/// 5. expiry sheds happened strictly after the deadline, and the horizon
///    is the latest batch finish.
///
/// # Errors
///
/// The list of violations, one human-readable line each.
pub fn verify_accounting(
    requests: &[Request],
    result: &ServeResult,
    model: &BatchModel,
    config: &ServeConfig,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let mut v = |msg: String| violations.push(msg);

    // 1. Response ↔ request bijection.
    let by_id: HashMap<u64, &Request> = requests.iter().map(|r| (r.id, r)).collect();
    if result.responses.len() != requests.len() {
        v(format!(
            "{} responses for {} requests",
            result.responses.len(),
            requests.len()
        ));
    }
    for pair in result.responses.windows(2) {
        if pair[1].id <= pair[0].id {
            v(format!("responses not sorted by id at {}", pair[1].id));
        }
    }
    for response in &result.responses {
        match by_id.get(&response.id) {
            None => v(format!("response {} matches no request", response.id)),
            Some(r) => {
                if (response.arrival, response.deadline, response.input)
                    != (r.arrival, r.deadline, r.input)
                {
                    v(format!(
                        "response {} does not echo its request",
                        response.id
                    ));
                }
            }
        }
    }

    // 2. Residency and batch-internal accounting.
    let (emplace, restore) = (model.model.emplace_cycles(), model.model.restore_cycles());
    // Per chip: whether the model stays resident after its last batch.
    let mut resident = vec![false; result.chips.len()];
    for (bi, batch) in result.batches.iter().enumerate() {
        let mut warm = resident.get(batch.chip).copied().unwrap_or(false);
        let mut cursor = batch.dispatched;
        for (ri, row) in batch.served.iter().enumerate() {
            let derived = if warm { restore } else { emplace };
            if row.ready != derived {
                v(format!(
                    "batch {bi} request {}: ready {} != derived {derived} on a {} chip",
                    row.id,
                    row.ready,
                    if warm { "warm" } else { "cold" }
                ));
            }
            let last_struck = match batch.chaos {
                "persistent" => true,
                "transient" => ri == 0 && row.attempts == 1,
                _ => false,
            };
            warm = row.final_cycles.is_some() && !last_struck;
            let transitions = row.attempts.saturating_sub(1);
            let backoff = backoff_total(transitions);
            if row.backoff != backoff {
                v(format!(
                    "batch {bi} request {}: backoff {} != derived {backoff}",
                    row.id, row.backoff
                ));
            }
            let reemplace = u64::from(transitions) * emplace;
            if row.reemplace != reemplace {
                v(format!(
                    "batch {bi} request {}: reemplace {} != derived {reemplace}",
                    row.id, row.reemplace
                ));
            }
            let expected_failures = match (row.final_cycles, row.failed_attempt_cycles.len()) {
                (Some(_), n) => n == transitions as usize,
                // Exhausted rows fail on every attempt; a non-transient
                // abort records a single attempt with no failure cycles.
                (None, n) => n == row.attempts as usize || (n == 0 && row.attempts == 1),
            };
            if !expected_failures {
                v(format!(
                    "batch {bi} request {}: {} failed-attempt cycles for {} attempts",
                    row.id,
                    row.failed_attempt_cycles.len(),
                    row.attempts
                ));
            }
            cursor = cursor.saturating_add(row.service());
            if row.completed != cursor {
                v(format!(
                    "batch {bi} request {}: completed {} != derived {cursor}",
                    row.id, row.completed
                ));
            }
            match by_id.get(&row.id) {
                None => v(format!("batch {bi} carries unknown request {}", row.id)),
                Some(r) => {
                    if batch.dispatched < r.arrival {
                        v(format!(
                            "batch {bi}: dispatched {} before request {} arrived at {}",
                            batch.dispatched, row.id, r.arrival
                        ));
                    }
                }
            }
        }
        if batch.finished != cursor {
            v(format!(
                "batch {bi}: finished {} != derived {cursor}",
                batch.finished
            ));
        }
        if let Some(slot) = resident.get_mut(batch.chip) {
            *slot = warm;
        }
    }

    // 3. Per-chip timeline: contiguous ordinals, no overlap.
    for chip in 0..result.chips.len() {
        let mut prev_finish = 0u64;
        let mut next_ordinal = 0u64;
        for (bi, batch) in result.batches.iter().enumerate() {
            if batch.chip != chip {
                continue;
            }
            if batch.ordinal != next_ordinal {
                v(format!(
                    "batch {bi}: chip {chip} ordinal {} != expected {next_ordinal}",
                    batch.ordinal
                ));
            }
            next_ordinal += 1;
            if batch.dispatched < prev_finish {
                v(format!(
                    "batch {bi}: chip {chip} dispatched {} overlaps previous finish {prev_finish}",
                    batch.dispatched
                ));
            }
            prev_finish = batch.finished;
        }
    }

    // 4. Responses agree with their batch rows. (A response matching no
    //    request is already a violation of 1.)
    for response in &result.responses {
        let Some(request) = by_id.get(&response.id) else {
            continue;
        };
        let (batch_index, chip, dispatched, completed, deadline_met) = match &response.outcome {
            ServeOutcome::Completed {
                batch,
                chip,
                dispatched,
                completed,
                deadline_met,
                ..
            } => (*batch, *chip, *dispatched, *completed, Some(*deadline_met)),
            ServeOutcome::Failed {
                batch,
                chip,
                dispatched,
                completed,
                ..
            } => (*batch, *chip, *dispatched, *completed, None),
            ServeOutcome::Shed(Rejected::Expired { at }) => {
                if *at <= request.due() {
                    v(format!(
                        "response {}: expired at {at}, within deadline {}",
                        response.id,
                        request.due()
                    ));
                }
                continue;
            }
            ServeOutcome::Shed(Rejected::QueueFull { queue_depth }) => {
                if *queue_depth != config.queue_depth {
                    v(format!(
                        "response {}: queue-full at depth {queue_depth} != configured {}",
                        response.id, config.queue_depth
                    ));
                }
                continue;
            }
        };
        let Some(batch) = result.batches.get(batch_index) else {
            v(format!(
                "response {}: batch index {batch_index} out of range",
                response.id
            ));
            continue;
        };
        if batch.chip != chip || batch.dispatched != dispatched {
            v(format!(
                "response {}: disagrees with batch {batch_index} on chip/dispatch",
                response.id
            ));
        }
        match batch.served.iter().find(|s| s.id == response.id) {
            None => v(format!(
                "response {}: not in batch {batch_index}'s rows",
                response.id
            )),
            Some(row) => {
                if row.completed != completed {
                    v(format!(
                        "response {}: completed {completed} != batch row {}",
                        response.id, row.completed
                    ));
                }
            }
        }
        if let Some(met) = deadline_met {
            let derived = completed <= request.due();
            if met != derived {
                v(format!(
                    "response {}: deadline_met {met} but completed {completed} vs bound {}",
                    response.id,
                    request.due()
                ));
            }
        }
    }

    // 5. Horizon.
    let horizon = result.batches.iter().map(|b| b.finished).max().unwrap_or(0);
    if result.horizon != horizon {
        v(format!(
            "horizon {} != latest batch finish {horizon}",
            result.horizon
        ));
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}
