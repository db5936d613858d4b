//! # tsp-compiler — the scheduling compiler for the Tensor Streaming Processor
//!
//! The TSP "pushes the complexities associated with scheduling into the
//! compiler" (paper §II): there is no hardware arbitration, so the compiler
//! must solve a two-dimensional placement of instructions and data in time
//! and space. This crate is that compiler:
//!
//! * [`tensor`] — how 2-D int8/int32 tensors are laid out in the 88-slice
//!   partitioned global address space (block-contiguous layouts, on-demand
//!   replication for multi-stream consumers);
//! * [`alloc`] — the slice/bank-aware memory allocator (paper §IV-A);
//! * [`rerun`] — the re-run contract: the rows a program needs fresh, the
//!   rows it writes, and what the host restores before running it again;
//! * [`resource`] — the books: when each instruction queue, stream register
//!   and MXM plane is next free;
//! * [`sched`] — the schedule builder, which keeps the only set of those books
//!   (placing an instruction books its queue) and turns `(queue, cycle,
//!   instruction)` placements into a [`tsp_sim::Program`] by inserting the
//!   exact `NOP` padding each queue needs;
//! * [`kernels`] — the lowering templates: streamed copy, element-wise chains,
//!   dense matmul on the MXM (with K/M/N splitting and requantize+ReLU
//!   chaining through the VXM), conv2d (offset accumulation, row-split over
//!   the planes, K-packed through MEM `Gather` where the channels leave room),
//!   max pooling (lane-packed through `Gather` and `Scatter` where they do),
//!   global average pooling, residual adds;
//! * [`viz`] — schedule rendering (regenerates the paper's Fig. 11).
//!
//! Everything is scheduled against the same [`tsp_arch::TimeModel`] the
//! simulator enacts, so a compiled program either runs exactly as predicted
//! or the simulator reports a scheduling-contract violation — there is no
//! silent slowdown.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod kernels;
pub mod rerun;
pub mod resource;
pub mod sched;
pub mod tensor;
pub mod viz;

pub use alloc::MemAllocator;
pub use rerun::{RestoreSet, RowRuns};
pub use resource::{Resource, ResourcePool};
pub use sched::{ConstantRows, Scheduler};
pub use tensor::{Layout, TensorHandle};
