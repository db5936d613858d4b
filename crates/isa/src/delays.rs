//! The delays the compiler schedules by, named: what the `time_model()`s of
//! [`crate::MemOp`], [`crate::VxmOp`] and [`crate::MxmOp`] return as `d_func`
//! (paper §III: the temporal metadata handed across the static–dynamic
//! interface), and the length of a full weight load. `tsp-compiler` imports
//! these rather than keeping copies; they are cycles, in the scheduler's
//! `u64`.

use tsp_arch::TimeModel;

/// Functional delay of a MEM `Read`.
pub const D_READ: u64 = 5;
/// Functional delay of a MEM `Gather` or `Scatter`.
pub const D_GATHER: u64 = 7;
/// Functional delay of a VXM point-wise op (every unary, binary and convert
/// but `tanh`, `exp` and `rsqrt`).
pub const D_VXM: u64 = 4;
/// Delay from an `IW`'s dispatch until the array computes with the installed
/// weights.
pub const D_IW: u64 = 4;
/// Cycles — and `rows` — of the `LW` burst that fills a whole plane: 16 of the
/// 320 array rows a cycle.
pub const LW_ROWS: u64 = 20;

/// The temporal metadata of an instruction whose result appears `d_func`
/// cycles after dispatch, its operands due as it dispatches.
pub(crate) const fn after(d_func: u64) -> TimeModel {
    TimeModel::new(d_func as u32, 0)
}
