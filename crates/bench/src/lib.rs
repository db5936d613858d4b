//! # tsp-bench — the experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §3 for the experiment
//! index), plus ablation studies. Binaries print the same rows/series the
//! paper reports, ready for EXPERIMENTS.md, and each one's output is
//! committed under `results/` (the fault sweep as
//! `results/fault_campaign.txt`). Host speed and serving are not measured
//! here: the standalone `benchmark/` crate is the one harness that
//! times the simulator and gates the serving layer, and `tsp-prof serve`
//! shows one served run ([`serve_profile`], pinned as
//! `results/serve_profile.txt`).
//!
//! The harness itself contributes [`fan_out`]: experiment points are
//! independent simulations of a deterministic machine, so the bins run them
//! on parallel host threads and print the collected results in input order —
//! the emitted report is byte-identical to a serial run no matter how the
//! host schedules the workers.

#![warn(missing_docs)]

pub mod campaign;
pub mod serve_profile;
pub mod stalls;
pub mod workloads;

// The harness's one concurrency primitive now lives in `tsp-host` (shared
// with the serving layer in `tsp-serve`); re-exported so every bench bin
// keeps its `tsp_bench::fan_out` import.
pub use tsp_host::fan_out;
