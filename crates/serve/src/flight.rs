//! Request span trees and the deterministic flight recorder.
//!
//! When [`ServeConfig::spans`](crate::ServeConfig) is on, the serving loop
//! threads a [`SpanNode`] tree through every request's lifecycle —
//! `admit → queue → batch (emplace → restore → attempt/backoff/re-emplace…) →
//! complete / shed / miss` — built from the same virtual-cycle accounting
//! the batch records already carry, so the trees are byte-identical across
//! host threading and add **zero** cycles to any simulated result (the
//! tracing on-vs-off identity is pinned by `crates/serve/tests/tracing.rs`).
//!
//! The [`FlightRecorder`] is a bounded ring buffer retaining the full span
//! tree (fault/retry causes included as span args) for every **non-success**
//! request — shed, expired, failed, or completed past its deadline. It is the
//! "what just went wrong" view: cheap enough to leave on, small enough to
//! dump whole, and deterministic enough to diff between runs.

use std::collections::VecDeque;

pub use tsp_telemetry::span::{SpanArg, SpanNode};

/// How a traced request left the server — the flight-recorder triage label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Completed within its deadline (the only *success*).
    Complete,
    /// Completed, but past its deadline.
    DeadlineMiss,
    /// Shed at admission: the bounded queue was full.
    ShedQueueFull,
    /// Shed after out-waiting its deadline in the queue.
    ShedExpired,
    /// Dispatched but never completed (budget exhausted or simulator error).
    Failed,
}

impl TraceOutcome {
    /// Stable identifier used as the root span's `outcome` arg.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Complete => "complete",
            TraceOutcome::DeadlineMiss => "deadline-miss",
            TraceOutcome::ShedQueueFull => "shed-queue-full",
            TraceOutcome::ShedExpired => "shed-expired",
            TraceOutcome::Failed => "failed",
        }
    }

    /// Whether this outcome counts as success (completed in deadline);
    /// everything else is retained by the flight recorder.
    #[must_use]
    pub fn is_success(self) -> bool {
        matches!(self, TraceOutcome::Complete)
    }
}

/// One request's full lifecycle trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's id.
    pub id: u64,
    /// How it left the server.
    pub outcome: TraceOutcome,
    /// The lifecycle span tree, rooted at `request <id>`.
    pub root: SpanNode,
}

/// A bounded ring buffer of non-success [`RequestTrace`]s, oldest evicted
/// first. Capacity 0 disables retention (everything counts as dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    capacity: usize,
    records: VecDeque<RequestTrace>,
    dropped: u64,
}

impl FlightRecorder {
    /// An empty recorder retaining at most `capacity` traces.
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Offers a trace: non-success traces are retained (evicting the oldest
    /// past capacity), successes are ignored.
    pub fn offer(&mut self, trace: &RequestTrace) {
        if trace.outcome.is_success() {
            return;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(trace.clone());
    }

    /// Retained traces, oldest first.
    #[must_use]
    pub fn records(&self) -> &VecDeque<RequestTrace> {
        &self.records
    }

    /// Non-success traces evicted (or refused at capacity 0).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained trace count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, outcome: TraceOutcome) -> RequestTrace {
        RequestTrace {
            id,
            outcome,
            root: SpanNode::span(format!("request {id}"), 0, 10),
        }
    }

    #[test]
    fn retains_only_non_success_up_to_capacity() {
        let mut fr = FlightRecorder::new(2);
        fr.offer(&trace(0, TraceOutcome::Complete));
        fr.offer(&trace(1, TraceOutcome::Failed));
        fr.offer(&trace(2, TraceOutcome::DeadlineMiss));
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.dropped(), 0);
        fr.offer(&trace(3, TraceOutcome::ShedQueueFull));
        assert_eq!(fr.len(), 2, "bounded");
        assert_eq!(fr.dropped(), 1);
        let ids: Vec<u64> = fr.records().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 3], "oldest evicted first");
    }

    #[test]
    fn capacity_zero_disables_retention() {
        let mut fr = FlightRecorder::new(0);
        fr.offer(&trace(1, TraceOutcome::ShedExpired));
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 1);
    }
}
