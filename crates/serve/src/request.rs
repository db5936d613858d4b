//! Requests, responses, and the structured rejection vocabulary.

/// One inference request, timed on the serving layer's virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Unique request id (responses are returned sorted by it).
    pub id: u64,
    /// Arrival cycle on the virtual clock.
    pub arrival: u64,
    /// Deadline budget in cycles: the request must complete by
    /// [`Request::due`] to count toward goodput.
    pub deadline: u64,
    /// Index into the server's shared input set (which image to run).
    pub input: usize,
}

impl Request {
    /// The last cycle the request may complete in and still count toward
    /// goodput: `arrival + deadline`, saturating — a `u64::MAX` deadline is
    /// "no deadline", not one that wraps into the past.
    #[must_use]
    pub fn due(&self) -> u64 {
        self.arrival.saturating_add(self.deadline)
    }
}

/// Why a request was shed without touching a chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue was full at arrival — the load-shedding path.
    QueueFull {
        /// The configured queue bound that was hit.
        queue_depth: usize,
    },
    /// The request out-waited its deadline in the queue; dispatching it
    /// would only waste a chip on an answer nobody is waiting for.
    Expired {
        /// The scheduling instant at which the expiry was observed
        /// (strictly past [`Request::due`]).
        at: u64,
    },
}

/// How one request left the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The request ran to completion (possibly after retries, possibly past
    /// its deadline — see `deadline_met`). Logits are bit-identical to a
    /// fault-free serial oracle run of the same input.
    Completed {
        /// The model's output logits.
        logits: Vec<i8>,
        /// Pool member that served it.
        chip: usize,
        /// Index into [`ServeResult::batches`](crate::ServeResult::batches) of the
        /// carrying batch.
        batch: usize,
        /// Cycle the carrying batch started.
        dispatched: u64,
        /// Completion cycle (dispatch + emplace share + service).
        completed: u64,
        /// `completed ≤` [`Request::due`].
        deadline_met: bool,
        /// Chip runs performed (1 = first try).
        attempts: u32,
        /// Retries caused by link-shaped transient errors.
        retried_link: u32,
        /// Retries caused by SRAM-shaped (uncorrectable ECC) detections.
        retried_sram: u32,
    },
    /// Shed before dispatch.
    Shed(Rejected),
    /// Dispatched but never completed: the retry budget exhausted on a
    /// persistent fault, or a non-transient simulator error surfaced. The
    /// chip time burned is still accounted (see the batch record).
    Failed {
        /// Pool member that burned the attempts.
        chip: usize,
        /// Index into [`ServeResult::batches`](crate::ServeResult::batches) of the
        /// carrying batch.
        batch: usize,
        /// Cycle the carrying batch started.
        dispatched: u64,
        /// Cycle the failure was final.
        completed: u64,
        /// Chip runs performed.
        attempts: u32,
        /// The final error, rendered.
        error: String,
    },
}

/// One request's fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// The request's input index (echoed for oracle checking).
    pub input: usize,
    /// The request's arrival cycle.
    pub arrival: u64,
    /// The request's deadline budget.
    pub deadline: u64,
    /// What happened.
    pub outcome: ServeOutcome,
}

impl Response {
    /// End-to-end latency in cycles (arrival → completion), for requests
    /// that reached a chip.
    #[must_use]
    pub fn latency(&self) -> Option<u64> {
        match &self.outcome {
            ServeOutcome::Completed { completed, .. } | ServeOutcome::Failed { completed, .. } => {
                Some(completed - self.arrival)
            }
            ServeOutcome::Shed(_) => None,
        }
    }

    /// Did this request produce logits within its deadline? (The goodput
    /// predicate.)
    #[must_use]
    pub fn good(&self) -> bool {
        matches!(
            self.outcome,
            ServeOutcome::Completed {
                deadline_met: true,
                ..
            }
        )
    }
}
