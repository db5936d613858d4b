//! # tsp-sim — cycle-accurate simulator of the Tensor Streaming Processor
//!
//! Simulates the TSP chip of the paper at the fidelity contract spelled out in
//! DESIGN.md §5:
//!
//! * **values** are bit-exact at 320-byte vector granularity for every
//!   functional unit;
//! * **time** is a single global cycle counter; streams advance one
//!   stream-register hop per cycle; every instruction's dispatch cycle is a
//!   pure function of its queue position — there are **no arbiters, caches or
//!   reactive elements anywhere in this crate** (the paper's determinism
//!   thesis holds by construction);
//! * the paper's timing model (`T = N + d_func + δ(j,i)`, Eq. 4) is enacted by
//!   the same [`tsp_arch::TimeModel`] values the compiler schedules with.
//!
//! The stream-register file uses a *diagonal* representation
//! ([`stream_file`]): a value written onto an eastward stream at position `p`
//! and cycle `t` lives on diagonal `p − t` and is visible at position `p′ ≥ p`
//! exactly at cycle `t + (p′ − p)`, so idle stream flow costs nothing to
//! simulate while remaining cycle-exact.
//!
//! A [`Chip`] executes a [`Program`] — one instruction queue per ICU, exactly
//! the form the `tsp-compiler` crate emits — and returns a [`RunReport`] with
//! cycle counts, activity/power events, bandwidth meters and the ECC CSR.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chip;
pub mod decoded;
pub mod error;
pub mod fp16;
pub mod lane;
pub mod mxm_unit;
pub mod program;
pub mod stagger;
pub mod stream_file;
pub mod sxm_unit;
pub mod telemetry;
pub mod trace;
pub mod vxm_unit;

pub use chip::{Chip, RunReport};
pub use decoded::DecodedProgram;
pub use error::SimError;
pub use program::{Program, QueueBuilder};
pub use stream_file::{StreamFile, StreamWord};
pub use telemetry::{perfetto_json, perfetto_json_with_layers, timeline, IcuTimeline, Span};
pub use trace::{Activity, ActivityKind, Trace};
pub use tsp_faults as faults;
pub use tsp_isa::icu_id::{self, IcuId};
pub use tsp_telemetry::{LayerMark, LayerSlice, Telemetry};
