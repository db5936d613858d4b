//! # tsp-baseline — comparison models
//!
//! The systems the paper compares against, built to the fidelity the paper
//! itself uses:
//!
//! * [`risc`] — a conventional in-order load-store core executing the
//!   paper's Fig. 3 vector-add loop (4 instructions *per element* against
//!   the TSP's 4 instructions *total*);
//! * [`cachey`] — the same core with a cache hierarchy whose initial state
//!   varies run to run: the "reactive element" the TSP deliberately removed,
//!   used as the contrast in the determinism experiment (E8);
//! * [`accel`] — analytic accelerator models (TPUv3-class, Goya-class,
//!   V100-class) parameterised from the numbers the paper cites \[44\] — the
//!   paper, too, compares against reported figures rather than testbed
//!   reruns (DESIGN.md §2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accel;
pub mod cachey;
pub mod risc;

pub use accel::{goya_class, tpu_v3_class, v100_class, AcceleratorModel};
pub use cachey::CacheyCore;
pub use risc::{RiscCore, RiscProfile};
