//! # tsp — the Tensor Streaming Processor, end to end
//!
//! The facade crate of the `tsp-rs` workspace: a faithful, cycle-accurate
//! reproduction of the Groq TSP from "Think Fast: A Tensor Streaming
//! Processor (TSP) for Accelerating Deep Learning Workloads" (ISCA 2020) —
//! architecture model, full ISA, memory system with SECDED ECC, deterministic
//! chip simulator, space-time scheduling compiler, neural-network front end,
//! power model, multi-chip fabric and comparison baselines.
//!
//! ## Quickstart: `Z = X + Y` on streams (the paper's Fig. 3)
//!
//! ```
//! use tsp::prelude::*;
//!
//! // Compile: read X and Y from MEM, add on the VXM, write Z back.
//! let mut sched = Scheduler::new();
//! let x = sched.alloc.alloc_in(Some(Hemisphere::East), 4, 320, BankPolicy::Low, 4096).unwrap();
//! let y = sched.alloc.alloc_in(Some(Hemisphere::West), 4, 320, BankPolicy::Low, 4096).unwrap();
//! let (z, _) = binary_ew(&mut sched, BinaryAluOp::AddSat, &x, &y,
//!                        Hemisphere::East, BankPolicy::High, 0);
//! let program = sched.into_program().unwrap();
//!
//! // Execute on the simulated chip.
//! let mut chip = Chip::new(ChipConfig::asic());
//! for r in 0..4 {
//!     chip.memory.write(x.row(r), Vector::splat(10));
//!     chip.memory.write(y.row(r), Vector::splat(32));
//! }
//! let report = chip.run(&program, &RunOptions::default()).unwrap();
//! assert_eq!(chip.memory.read_unchecked(z.row(0)), Vector::splat(42));
//! assert!(report.cycles > 0); // and identical on every run — determinism.
//! ```
//!
//! ## Running a quantized network
//!
//! See [`tsp_nn::compile`](mod@tsp_nn::compile) and the `resnet50_inference` example: build a
//! graph, quantize it (`tsp_nn::quant`), `compile` it, `load_constants` /
//! `write_input`, `Chip::run`, `read_logits` — bit-exact against the host
//! int8 reference.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tsp_arch as arch;
pub use tsp_baseline as baseline;
pub use tsp_c2c as c2c;
pub use tsp_compiler as compiler;
pub use tsp_isa as isa;
pub use tsp_mem as mem;
pub use tsp_nn as nn;
pub use tsp_power as power;
pub use tsp_sim as sim;

/// The names most programs need, in one import.
pub mod prelude {
    pub use tsp_arch::{ChipConfig, Direction, Hemisphere, Slice, StreamGroup, StreamId, Vector};
    pub use tsp_compiler::alloc::BankPolicy;
    pub use tsp_compiler::kernels::{
        binary_ew, conv2d, copy, global_avg_pool, matmul, max_pool, unary_ew,
    };
    pub use tsp_compiler::{Scheduler, TensorHandle};
    pub use tsp_isa::{BinaryAluOp, Instruction, UnaryAluOp};
    pub use tsp_nn::compile::{compile, CompileOptions, CompiledModel};
    pub use tsp_sim::chip::{RunOptions, RunReport};
    pub use tsp_sim::{Chip, Program};
}
