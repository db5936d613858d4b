//! Scalar oracles for the data-path kernels of `tsp_sim::{mxm_unit,
//! vxm_unit, sxm_unit}`: the plainest per-lane statement of each unit's
//! semantics. They decode lane bytes and do their arithmetic themselves and
//! import nothing from the kernels they check — not even the lane codec — so
//! a shared helper cannot hide a shared bug.

pub mod mxm;
pub mod sxm;
pub mod vxm;
