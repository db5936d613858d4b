//! # tsp-nn — the neural-network front end for the TSP
//!
//! Everything between "a model" and "a scheduled TSP program":
//!
//! * [`graph`] — a small layer DAG (conv / max-pool / global-avg-pool /
//!   dense / residual add) with fp32 parameters;
//! * [`quant`] — post-training **layer-wise symmetric int8 quantization**
//!   (paper §IV-D), with power-of-two requantization scales calibrated on
//!   sample data so the on-chip `int32 → int8` conversion is a shift;
//! * [`reference`](mod@reference) — host-side executors: fp32 (for accuracy numbers) and
//!   bit-exact int8 (mirrors the kernels' arithmetic, used to verify the
//!   simulator end-to-end);
//! * [`compile`](mod@compile) — lowers a quantized graph onto the TSP through
//!   `tsp-compiler`'s kernels, producing a [`compile::CompiledModel`];
//! * [`resilient`] — host-level graceful degradation: bounded
//!   retry-from-weights on transient chip faults (uncorrectable ECC, link
//!   retry exhaustion), reporting recovery overhead in a `ResilienceReport`;
//! * [`batch`] — the serving surface: a cached compile plus a batch bound
//!   ([`batch::BatchModel`]), weights-resident emplace accounting, and
//!   back-to-back batch execution through the resilient layer;
//! * [`resnet`] — ResNet-50/101/152 graph builders (plus reduced variants
//!   for fast tests and the paper's §IV-E wide-320 variant);
//! * [`data`] / [`train`] — a deterministic synthetic classification dataset
//!   and a minimal SGD trainer, standing in for ImageNet in the quantization
//!   accuracy experiment (E12; see DESIGN.md §2 for why this substitution
//!   preserves the relevant behaviour).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod compile;
pub mod data;
pub mod graph;
pub mod quant;
pub mod reference;
pub mod resilient;
pub mod resnet;
pub mod train;

pub use batch::{compile_batch_cached, BatchModel};
pub use compile::{compile, compile_cached, CompileOptions, CompiledModel};
pub use graph::{ConvSpec, Graph, Op, Params};
pub use quant::{quantize, QuantGraph};
pub use resilient::{run_resilient, ResilienceReport, ResilientOptions, RunOutcome};
