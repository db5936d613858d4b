//! Lowering templates ("kernels"): each compiles one tensor operation into a
//! timed instruction schedule, following the paper's chaining discipline —
//! results stream from slice to slice without intermediate memory round-trips
//! wherever possible (paper §II-E, §IV).

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod pool;

pub use conv::{
    alloc_feature_map, conv2d, conv2d_add, conv_passes, emplace_conv, emplace_conv_weights,
    taps_per_pass, ChunkPass, Conv2dParams, ConvWeights, FeatureMap, RowSplit,
};
pub use elementwise::{binary_ew, binary_ew_replicated, copy, copy_replicated, unary_ew};
pub use matmul::{lw_rows, matmul, ActFeed, MatmulOpts, WeightSet};
pub use matmul::{schedule_plane_chain, schedule_requant_write, Int32Stream, Pass};
pub use pool::{global_avg_pool, max_pool, MaxPoolParams};
