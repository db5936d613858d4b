//! Lowering templates ("kernels"): each compiles one tensor operation into a
//! timed instruction schedule, following the paper's chaining discipline —
//! results stream from slice to slice without intermediate memory round-trips
//! wherever possible (paper §II-E, §IV).

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod pool;

pub use conv::{
    alloc_feature_map, chain_plane, conv2d, conv2d_add, conv_passes, emplace_conv,
    emplace_conv_weights, packed_taps, taps_per_pass, ChunkPass, Conv2dParams, ConvWeights,
    FeatureMap, MapLayout, RowSplit,
};
pub use elementwise::{binary_ew, copy, unary_ew};
pub use matmul::{
    emplace_weight_blocks, lw_rows, matmul, plane_of_chain, schedule_requant_write, ActFeed,
    Int32Stream, MatmulOpts, WeightSet,
};
pub use pool::{global_avg_pool, max_pool, pixels_per_row, pooled_lanes, MaxPoolParams};

/// Helpers shared by the kernels' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use tsp_arch::{Direction, Hemisphere, Slice, StreamId, Vector, MEM_SLICES_PER_HEMISPHERE};
    use tsp_isa::{AluIndex, IcuOp};
    use tsp_sim::{Chip, IcuId};

    use crate::alloc::BankPolicy;
    use crate::{Scheduler, TensorHandle};

    /// Dirties the bottom `rows` words of every High bank of `hemispheres`
    /// with `0x55`, so every later activation tensor up to that size there
    /// lands on recycled SRAM.
    pub(crate) fn dirty_sram(
        s: &mut Scheduler,
        chip: &mut Chip,
        hemispheres: &[Hemisphere],
        rows: u32,
    ) {
        for &hemisphere in hemispheres {
            let stale: Vec<TensorHandle> = (0..MEM_SLICES_PER_HEMISPHERE)
                .map(|sl| {
                    let others: Vec<(Hemisphere, u8)> = (0..MEM_SLICES_PER_HEMISPHERE)
                        .filter(|&o| o != sl)
                        .map(|o| (hemisphere, o))
                        .collect();
                    (s.alloc)
                        .alloc_avoiding(
                            Some(hemisphere),
                            rows,
                            320,
                            BankPolicy::High,
                            rows,
                            &others,
                        )
                        .expect("an empty slice has room")
                })
                .collect();
            for t in &stale {
                for r in 0..t.rows {
                    chip.memory.write(t.row(r), Vector::splat(0x55));
                }
                s.alloc.free(t);
            }
        }
    }

    /// Holds VXM ALUs 1–15 until cycle 5,000 with a `NOP` on each queue:
    /// until then ALU 0 is the only one a kernel can issue on.
    pub(crate) fn hold_all_alus_but_the_first(s: &mut Scheduler) {
        for alu in (1..AluIndex::COUNT).map(AluIndex::new) {
            s.place(IcuId::Vxm { alu }, 0, IcuOp::Nop { count: 5_000 });
        }
    }

    /// Registers a full 320-row weight block and holds westward streams
    /// 0–15 until edge time `until`, so that before then a group of 16
    /// streaming the block to the West MXM can only take streams 16–31 —
    /// the ids single operand streams are picked from first. Returns the
    /// probe: per `not_before` below `until`, the group and arrival
    /// [`Scheduler::earliest_group_arrival`] finds. A probe that reads the
    /// same before and after a kernel shows that the kernel booked none of
    /// those streams before `until`.
    pub(crate) fn west_weight_windows(
        s: &mut Scheduler,
        until: u64,
    ) -> impl Fn(&Scheduler) -> Vec<(u8, u64)> {
        let weights = s.add_constant(vec![Vector::ZERO; 320], 320, BankPolicy::Low, 20);
        let mxm = Slice::Mxm(Hemisphere::West).position();
        for id in 0..16 {
            s.occupy_stream(StreamId::new(id, Direction::West), mxm, 0, until);
        }
        let lists: Vec<Vec<u32>> = (0..16u32)
            .map(|j| (20 * j..20 * j + 20).collect())
            .collect();
        move |s: &Scheduler| {
            (0..until)
                .map(|at| s.earliest_group_arrival(&weights, &lists, Direction::West, mxm, at))
                .collect()
        }
    }
}
