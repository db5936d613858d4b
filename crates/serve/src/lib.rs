//! # tsp-serve — a resilient inference serving layer for the TSP
//!
//! The front door between "heavy traffic from millions of users" and
//! `Chip::run`. "Answer Fast" (PAPERS.md) frames the serving story the TSP
//! was built for — latency SLOs under real traffic — and this crate
//! composes the pieces the reliability stack already proved
//! (`compile_cached`, `run_resilient`, `tsp-faults`, `fan_out`) into a
//! server with three jobs:
//!
//! * **Admission control** — a bounded queue sheds load with a structured
//!   [`Rejected::QueueFull`] instead of letting latency grow without bound;
//!   requests that out-wait their deadline in the queue are shed as
//!   [`Rejected::Expired`] before they waste a chip.
//! * **Batched dispatch across a chip pool** — compatible requests are
//!   grouped into weights-resident batches ([`tsp_nn::batch::BatchModel`])
//!   and dispatched to the earliest-free healthy chip; pool members run
//!   concurrently on host threads ([`tsp_host::try_fan_out`]) with results
//!   merged in chip order, so the outcome is bit-identical to a serial run.
//! * **Graceful degradation, never wrong answers** — retries route through
//!   `run_resilient` with capped exponential backoff; a per-chip circuit
//!   breaker ([`health`]) quarantines chips whose fault score trips and
//!   drains work to the healthy rest (throughput degrades by roughly the
//!   struck chip's share); every successful response's logits are
//!   bit-identical to a fault-free serial oracle, enforced end to end by
//!   the zero-SDC check of the benchmark's `serve_steady` / `serve_chaos`
//!   workloads.
//!
//! **Determinism.** There is no wall clock anywhere in the serving model.
//! Time is a virtual cycle counter: arrivals carry cycles, service times are
//! the simulator's deterministic run cycles plus explicit emplace/backoff
//! accounting, and deadlines are enforced against that clock. The same
//! requests + config therefore produce byte-identical [`ServeResult`]s
//! regardless of host threading — and [`verify::verify_accounting`] can
//! re-derive every completion cycle and deadline verdict from the batch
//! records, which is what "zero deadline-accounting violations" means in
//! CI. An async runtime would add nothing but nondeterminism here (and the
//! build is dependency-free by constraint); the event loop plays the role
//! of the executor, scoped threads the role of the worker pool.
//!
//! Chaos mode ([`tsp_faults::ChaosSpec`]) injects seeded fault plans into
//! live dispatches so the degradation paths above are exercised by CI on
//! every commit, not hoped for.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod health;
pub mod load;
pub mod request;
pub mod server;
pub mod trace;
pub mod verify;

pub use flight::{FlightRecorder, RequestTrace, TraceOutcome};
pub use health::{ChipHealth, HealthConfig};
pub use load::{open_loop, LoadSpec};
pub use request::{Rejected, Request, Response, ServeOutcome};
pub use server::{
    serve, BatchRecord, ChipStats, ServeConfig, ServeError, ServeResult, ServedRequest,
};
pub use trace::{render_flight, serve_trace_json};
pub use verify::verify_accounting;
