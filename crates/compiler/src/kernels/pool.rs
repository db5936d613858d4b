//! Pooling kernels.
//!
//! **Max pool** streams the k² shifted row sequences concurrently (one stream
//! per input replica) into a chained VXM `max` tree — the structure of the
//! paper's Fig. 11 max-pool schedule — one output row per cycle at steady
//! state. If fewer replicas than offsets are available, the offsets are
//! processed in rounds with the running partial as a carry input.
//!
//! A round streams its operands and lands its rows the way every VXM chain
//! does (see [`mod@crate::kernels::matmul`]): its taps and its carry are the
//! VXM prologue's operands, tap `i` due with the partial max of the taps
//! before it; each `max` is a VXM stage consuming its predecessor's result
//! where it is born; the carry — and a pixel-per-row output — is allocated
//! once its write time is known, on slices whose ports are free by then;
//! and a round that finds its ALUs, streams or ports busy is rolled back and
//! retried later ([`Scheduler::retry_later`]). Only a lane-packed output is
//! allocated ahead: its scatter maps are keyed by its rows, and the round's
//! start is priced for the scatter off the streams its taps picked, before
//! any of them is booked.
//!
//! **Lane packing.** A `c`-channel pixel fills `c` of the 320 lanes every one
//! of those `max` issues works on, so when the input is lane-replicated
//! ([`MapLayout::lane_copies`]` = G`, written so by a conv upstream) a
//! VXM row carries `G` horizontally adjacent *output* pixels instead of one:
//! each tap stream is a MEM `Gather` putting the tap's input pixel of output
//! `x_g` into lane group `g`, the `max` tree — lane-agnostic — is unchanged
//! but `G×` shorter, and the result is committed with a MEM `Scatter` that
//! sends lane group `g` to the stored row of pixel `x_g`. Pixel `x` therefore
//! sits at lane group `x mod G` of its own row, the other groups zero: a
//! **lane-skewed** map ([`MapLayout::lane_skew`]), which a conv reads for
//! nothing by repeating its weights at every lane group. A row's last vector,
//! when `G` does not divide the width, covers the last `G` pixels again —
//! each in the lane group its `x mod G` names — so no lane ever holds
//! anything but a pooled pixel.
//!
//! **Copies pass through.** An output row narrower than the input's copies
//! (`G > ow`) cannot take a pixel per copy, so it is pooled a pixel per row
//! with plain `Read`s and `Write`s — and since `max` is lane-wise, a row of
//! `G` copies of a pixel pools to `G` copies of the pooled pixel: the output
//! keeps the input's [`MapLayout::lane_copies`], for the conv that reads it
//! to pack its taps by. Which path a pool takes follows from its input alone
//! ([`pooled_lanes`]); a host-written or unreplicated map is pooled a pixel
//! per row into one copy.
//!
//! **Global average pool** rides the MXM: each channel part is a one-row
//! plane chain ([`PlaneChainBuilder::sum`]) — identity weights installed and
//! the N pixel rows streamed through while `ACC` *accumulates into a single
//! ordinal* — so the final readout is the channel-wise sum of all rows,
//! requantized like a conv's and retried later like one when its ports are
//! busy; the `1/N` factor is folded into the following layer's quantized
//! weights (standard practice — see DESIGN.md §2).

use tsp_arch::{Direction, Hemisphere, Slice, StreamGroup, Vector};
use tsp_isa::{BinaryAluOp, DataType, VxmOp, D_VXM};

use crate::kernels::conv::{group_lanes, FeatureMap, MapLayout};
use crate::kernels::matmul::{
    emplace_weight_blocks, lw_rows, plane_of_chain, price_operands, schedule_requant_write,
    stream_operands, vxm_stage, write_replicas, ActFeed, Operand, OutSpec, PlaneChainBuilder,
};
use crate::sched::{LaneMap, OutOfPorts, Scheduler};
use crate::tensor::TensorHandle;

/// Parameters of a [`max_pool`].
#[derive(Debug, Clone)]
pub struct MaxPoolParams {
    /// Window size (k×k).
    pub kernel: u32,
    /// Stride.
    pub stride: u32,
    /// Logical zero padding (≤ the input's materialized border).
    pub pad: u32,
    /// Border to materialize around the output.
    pub out_pad: u32,
    /// Output hemisphere.
    pub out_hemisphere: Hemisphere,
    /// Replicas per output part.
    pub out_replicas: u8,
    /// Schedule nothing before this cycle.
    pub not_before: u64,
}

/// Output pixels a [`max_pool`] of a `c`-channel map can put in one VXM row
/// of an `ow`-pixel-wide output: as many lane groups as the 320 lanes hold,
/// and no more than the row has pixels. The lane copies worth asking of the
/// pool's producer.
#[must_use]
pub fn pixels_per_row(c: u32, ow: u32) -> u32 {
    (320 / group_lanes(c)).clamp(1, ow.max(1))
}

/// The lanes a [`max_pool`] writes to an `ow`-pixel-wide output given an
/// input in `lane_copies` copies, as `(lane_skew, lane_copies)`: a pixel per
/// copy in one VXM row (`G`, skewed) — or, when the row has fewer pixels than
/// that, one pixel a row that keeps the input's copies, since `max` is
/// lane-wise and spare copies would end up where a skewed output must be
/// zero. The one rule both the kernel and `tsp-nn`'s planner read.
#[must_use]
pub fn pooled_lanes(lane_copies: u32, ow: u32) -> (u32, u32) {
    if lane_copies <= ow {
        (lane_copies, 1)
    } else {
        (1, lane_copies)
    }
}

/// How the `ow` output pixels of a row are dealt to vectors of `groups` lane
/// groups: vector `v`'s lane group `g` holds pixel `pixel(v, g)`, always one
/// with `x mod groups = g`. The last vector of a row whose width `groups` does
/// not divide starts `groups` pixels before the end, so it recomputes pixels
/// the vector before it already holds — into the same lane groups — rather
/// than carry lanes that are not a pixel.
#[derive(Debug, Clone, Copy)]
struct LanePacking {
    ow: u32,
    groups: u32,
}

impl LanePacking {
    /// Vectors per output row.
    fn vectors(self) -> u32 {
        self.ow.div_ceil(self.groups)
    }

    /// The pixel in lane group `g` of a row's vector `v`; lanes past the
    /// last group address the pixel of group 0 (they hold zeros).
    fn pixel(self, v: u32, g: u32) -> u32 {
        let g = if g < self.groups { g } else { 0 };
        let first = (v * self.groups).min(self.ow - self.groups);
        first + (g + self.groups - first % self.groups) % self.groups
    }
}

/// Schedules a k×k max pool over a feature map. Returns the output map and
/// completion cycle. A lane-replicated input is pooled `G` pixels per VXM row
/// into a lane-skewed output, or, in more copies than the output row has
/// pixels, a pixel per row into as many copies ([`pooled_lanes`], see the
/// module docs); anything else one pixel per row.
///
/// Each round of taps is one attempt of [`Scheduler::retry_later`]: its
/// operands streamed in, its `max`es VXM stages (`vxm_stage`) and its rows
/// landed the way a conv's epilogue lands them — a carry, or a pixel-per-row
/// output, allocated when it is written (`write_replicas`). A lane-packed
/// output is allocated and cleared ahead, and scattered once the last
/// round's start is priced for it.
///
/// # Panics
///
/// Panics if the input's materialized border is smaller than `pad`, if the
/// input is itself lane-skewed, or if a round finds no ports after retries.
pub fn max_pool(
    s: &mut Scheduler,
    input: &FeatureMap,
    params: &MaxPoolParams,
) -> (FeatureMap, u64) {
    assert_eq!(
        input.layout.lane_skew, 1,
        "only a conv reads a lane-skewed map"
    );
    let k = params.kernel;
    let oh = (input.h + 2 * params.pad - k) / params.stride + 1;
    let ow = (input.w + 2 * params.pad - k) / params.stride + 1;
    let (groups, lane_copies) = pooled_lanes(input.layout.lane_copies, ow);
    let packing = LanePacking { ow, groups };
    let vectors = packing.vectors();
    let n = oh * vectors;
    // Packed, the output is skewed; unpacked, it keeps the input's copies
    // (either way whole padded rows a block: a vector's pixels, or a
    // gather's taps, share a slice).
    let layout = MapLayout {
        lane_skew: groups,
        lane_copies,
        ..MapLayout::plain(params.out_pad, params.out_hemisphere, params.out_replicas)
    };
    let dims = (oh, ow, input.c);
    let mut out = match groups {
        1 => FeatureMap::new(dims, layout, Vec::new()),
        _ => FeatureMap::alloc(s, dims, layout),
    };
    let vxm = Slice::Vxm.position();
    let out_dir = Direction::outward_from(params.out_hemisphere);
    let mut done = params.not_before;
    let gl = group_lanes(input.c);
    // Everything the chain streams at once keeps to slices of its own: the
    // maps of a round's taps (opposite the input) off the output replicas,
    // the maps of the replicas (opposite the output) off the input.
    let mut avoid: Vec<(Hemisphere, u8)> = out.slices().chain(input.slices()).collect();
    // Row `i` of a tap or of the output, as `(row, column)` of the vectors.
    let at = |i: u32| (i / vectors, i % vectors);
    // How long after a round's first tap tap `i` reaches the VXM: with the
    // partial max of the taps before it.
    let stagger = |i: usize| (i as u64).saturating_sub(1) * D_VXM;

    let offsets: Vec<(u32, u32)> = (0..k)
        .flat_map(|dy| (0..k).map(move |dx| (dy, dx)))
        .collect();

    for kp in 0..input.kparts() {
        let replicas = &input.parts[kp];
        // Packed, each output replica is scattered through maps keyed by its
        // rows, and all of it is cleared before the first vector lands: a
        // `Scatter` leaves the superlanes it does not address as they were.
        let mut scatters: Vec<(Vec<LaneMap>, Vec<u32>)> = Vec::new();
        if groups > 1 {
            for rep in &out.parts[kp] {
                let row_of = |i: u32, g: u32| {
                    let (oy, v) = at(i);
                    out.row_index(oy, packing.pixel(v, g))
                };
                let keys: Vec<u32> = (0..n).map(|i| row_of(i, 0)).collect();
                scatters.push((s.add_lane_maps(rep, gl, &keys, row_of, &mut avoid), keys));
            }
            let whole = [(0, out.rows_total())];
            let jobs: Vec<(&TensorHandle, &[(u32, u32)])> =
                (out.parts[kp].iter().map(|t| (t, whole.as_slice()))).collect();
            done = done.max(s.zero_stale(&jobs, None).expect("no deadline to miss"));
        }
        // Where a round's rows land: in a carry, which the next round
        // streams back inward as an extra tree input — or, in the last round
        // of a pixel-per-row pool, in the output part, border and all, the
        // way a conv's output lands. Both downstream in the output
        // hemisphere, off everything the round streams.
        let carry_spec = OutSpec::rows(n, replicas[0].cols, params.out_hemisphere);
        let out_spec = OutSpec {
            rows_total: out.rows_total(),
            segments: out.interior_segments(),
            border: out.border_segments(),
            replicas: params.out_replicas,
            max_block: layout.max_block(out.pw()),
            ..carry_spec.clone()
        };
        // One stream per replica per round.
        let rounds: Vec<&[(u32, u32)]> = offsets.chunks(replicas.len().max(1)).collect();
        let mut carry: Option<TensorHandle> = None;
        for (round, batch) in rounds.iter().enumerate() {
            let last_round = round + 1 == rounds.len();
            let attempt = |s: &mut Scheduler, floor: u64| {
                // Per tap: its replica, the rows (packed: map keys) it
                // streams and, packed, the map that gathers the tap's pixel
                // of every lane group's output pixel.
                let mut plan: Vec<(&TensorHandle, Vec<u32>, Vec<LaneMap>)> = Vec::new();
                // An earlier round's maps are no longer streamed; its carry is.
                let mut avoid = avoid.clone();
                avoid.extend(carry.iter().flat_map(|c| c.layout.slices()));
                for (i, &(dy, dx)) in batch.iter().enumerate() {
                    let tensor = &replicas[i % replicas.len()];
                    let rows = input.offset_rows(oh, ow, params.stride, dy, dx, params.pad);
                    if groups == 1 {
                        plan.push((tensor, rows, Vec::new()));
                        continue;
                    }
                    let row_of = |i: u32, g: u32| {
                        let (oy, v) = at(i);
                        rows[(oy * ow + packing.pixel(v, g)) as usize]
                    };
                    let keys: Vec<u32> = (0..n).map(|i| row_of(i, 0)).collect();
                    let maps = s.add_lane_maps(tensor, gl, &keys, row_of, &mut avoid);
                    plan.push((tensor, keys, maps));
                }
                if let Some(c) = &carry {
                    plan.push((c, (0..n).collect(), Vec::new()));
                }
                // Tap `i` reaches the VXM with the partial max of the taps
                // before it; the carry is one more tree input.
                let operands: Vec<Operand<'_>> = (plan.iter().enumerate())
                    .map(|(i, (tensor, rows, maps))| Operand {
                        feed: match maps.as_slice() {
                            [] => ActFeed::Read(tensor),
                            maps => ActFeed::Gather(maps),
                        },
                        rows,
                        lag: stagger(i),
                    })
                    .collect();
                let (ids, mut t0) = price_operands(s, &operands, plan.len() - 1, floor);
                // The last max's results leave the VXM this long after `t0`.
                let t_out = stagger(plan.len() - 1) + if plan.len() > 1 { D_VXM } else { 0 };
                if last_round {
                    for (maps, keys) in &scatters {
                        let start =
                            s.earliest_scatter_start(maps, keys, out_dir, vxm, t0 + t_out, &ids);
                        t0 = start - t_out;
                    }
                }
                stream_operands(s, &operands, &ids, t0);

                // Chain of max ops: out_i = max(out_{i-1}, in_i).
                let mut current = StreamGroup::new(ids[0], 1);
                for (i, id) in ids.iter().enumerate().skip(1) {
                    let (a, b) = (current, StreamGroup::new(*id, 1));
                    let max = |dst, alu| VxmOp::Binary {
                        op: BinaryAluOp::Max,
                        dtype: DataType::Int8,
                        a,
                        b,
                        dst,
                        alu,
                    };
                    current = vxm_stage(s, t0 + stagger(i), u64::from(n), out_dir, &max)?;
                }
                let t_cur = t0 + t_out;

                if !last_round || groups == 1 {
                    let spec = if last_round { &out_spec } else { &carry_spec };
                    let spec = OutSpec {
                        avoid,
                        ..spec.clone()
                    };
                    return write_replicas(s, current, t_cur, u64::from(n), &spec);
                }
                // The stages took their streams after the scatters were
                // priced: one that took a map stream retries the round.
                for (maps, keys) in &scatters {
                    if s.earliest_scatter_start(maps, keys, out_dir, vxm, t_cur, &[]) != t_cur {
                        return Err(OutOfPorts { t_write: t_cur });
                    }
                    s.scatter_rows(maps, keys, current.base, vxm, t_cur);
                }
                Ok((Vec::new(), t_cur + u64::from(n)))
            };
            let (mut landed, end) = (s.retry_later(params.out_hemisphere, done, attempt))
                .expect("a pool round finds ports after retries");
            done = done.max(end);
            if let Some(old) = carry.take() {
                s.alloc.free(&old);
            }
            if !last_round {
                carry = landed.pop();
            } else if groups == 1 {
                avoid.extend(landed.iter().flat_map(|t| t.layout.slices()));
                out.parts.push(landed);
            }
        }
    }
    s.note_completion(done);
    (out, done)
}

/// Schedules a global sum pool over the interior pixels: returns one tensor
/// per channel part holding a single row — the channel-wise **sum** over all
/// `h·w` pixels, requantized to int8 by `2^-shift` (fold the `1/N` into the
/// next layer's scale). Completion cycle is returned alongside.
///
/// # Panics
///
/// Panics if the input is lane-skewed.
pub fn global_avg_pool(
    s: &mut Scheduler,
    input: &FeatureMap,
    requant_shift: i8,
    out_hemisphere: Hemisphere,
) -> (Vec<TensorHandle>, u64) {
    assert_eq!(
        input.layout.lane_skew, 1,
        "only a conv reads a lane-skewed map"
    );
    let mut outs = Vec::with_capacity(input.kparts());
    let mut done = 0;

    // Identity weights for every part, in LW order, each near the plane its
    // chain runs on.
    let blocks = (input.parts.iter().enumerate())
        .map(|(kp, reps)| {
            let cols = reps[0].cols;
            let fill = |m: u32, row: &mut Vector| row.set_lane(m as usize, 1);
            (kp, lw_rows(fill, u32::from(cols)), cols)
        })
        .collect();
    let chains = (plane_of_chain, input.kparts());
    let identities = emplace_weight_blocks(s, blocks, chains, &[]);

    // The interior rows, streamed through the identity into one accumulator.
    let rows: Vec<u32> = (0..input.h)
        .flat_map(|y| (0..input.w).map(move |x| input.row_index(y, x)))
        .collect();
    for (kp, identity) in identities.iter().enumerate() {
        let part = &input.parts[kp][0];
        let spec = OutSpec::rows(1, part.cols, out_hemisphere);
        let (mut reps, end) = (s.retry_later(out_hemisphere, 0, |s, floor| {
            let mut chain = PlaneChainBuilder::new(s, plane_of_chain(kp), 1, floor);
            PlaneChainBuilder::install(s, identity, std::slice::from_mut(&mut chain));
            chain.sum(s, ActFeed::Read(part), &rows);
            schedule_requant_write(s, chain.finish(), 1, requant_shift, false, None, &spec)
        }))
        .expect("a global pool finds ports after retries");
        done = done.max(end);
        outs.push(reps.remove(0));
    }
    s.note_completion(done);
    (outs, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::BankPolicy;
    use crate::kernels::conv::alloc_feature_map;
    use crate::kernels::testing::{dirty_sram, hold_all_alus_but_the_first, west_weight_windows};
    use tsp_arch::{ChipConfig, StreamId, STREAMS_PER_DIRECTION};
    use tsp_isa::{Instruction, MxmOp, Plane};
    use tsp_sim::chip::RunOptions;
    use tsp_sim::{Chip, IcuId, Program};

    fn load_constants(chip: &mut Chip, s: &mut Scheduler) {
        for (handle, rows) in s.take_constants() {
            for (r, v) in rows {
                chip.memory.write(handle.row(r), v);
            }
        }
    }

    /// A `k×k/stride` pool (logical pad `pad`, materialized in the input) of
    /// an `h×w×c` East map held in `in_replicas` replicas into West, on a
    /// scheduler `prepare` had first, against the scalar reference. Returns
    /// the output, the completion cycle and the rollbacks.
    fn plain_pool_on(
        (h, w, c): (u32, u32, u32),
        (kernel, stride, pad): (u32, u32, u32),
        in_replicas: u8,
        prepare: impl FnOnce(&mut Scheduler),
    ) -> (FeatureMap, u64, u64) {
        let mut s = Scheduler::new();
        prepare(&mut s);
        let input = alloc_feature_map(&mut s, h, w, c, pad, Hemisphere::East, in_replicas);
        let params = MaxPoolParams {
            kernel,
            stride,
            pad,
            out_pad: 0,
            out_hemisphere: Hemisphere::West,
            out_replicas: 1,
            not_before: 0,
        };
        let (out, done) = max_pool(&mut s, &input, &params);
        let rollbacks = s.rollbacks();
        let program = s.into_program().unwrap();

        let mut chip = Chip::new(ChipConfig::asic());
        let val = |y: u32, x: u32, ch: u32| ((y * 31 + x * 7 + ch * 3) % 19) as i8 - 9;
        for rep in &input.parts[0] {
            for y in 0..h {
                for x in 0..w {
                    let mut v = Vector::ZERO;
                    for ch in 0..c {
                        v.set_lane(ch as usize, val(y, x, ch) as u8);
                    }
                    chip.memory.write(rep.row(input.row_index(y, x)), v);
                }
            }
        }
        chip.run(&program, &RunOptions::default())
            .expect("clean run");

        for oy in 0..out.h {
            for ox in 0..out.w {
                let got = chip
                    .memory
                    .read_unchecked(out.parts[0][0].row(out.row_index(oy, ox)));
                for ch in 0..c {
                    let mut expect = i8::MIN;
                    for dy in 0..kernel {
                        for dx in 0..kernel {
                            let iy = (oy * stride + dy).wrapping_sub(pad);
                            let ix = (ox * stride + dx).wrapping_sub(pad);
                            // The materialized border is zero.
                            let v = if iy < h && ix < w { val(iy, ix, ch) } else { 0 };
                            expect = expect.max(v);
                        }
                    }
                    assert_eq!(got.lane(ch as usize) as i8, expect, "({oy},{ox}) ch{ch}");
                }
            }
        }
        (out, done, rollbacks)
    }

    #[test]
    fn max_pool_3x3_stride2_matches_reference() {
        plain_pool_on((7, 7, 5), (3, 2, 1), 9, |_| {});
    }

    /// The eight chained maxes of a 3×3/2 pool with one ALU free and the
    /// other fifteen held: the chain waits for an ALU per max instead of
    /// stacking them on the free one.
    #[test]
    fn max_tree_waits_for_an_alu_per_max() {
        plain_pool_on((12, 12, 32), (3, 2, 1), 9, hold_all_alus_but_the_first);
    }

    /// A pixel-per-row pool's output is allocated when its rows are written,
    /// on slices free by then: with West slices 0..40 busy until cycle 3,000
    /// it lands past them at once instead of waiting for them.
    #[test]
    fn an_unpacked_pool_lands_off_slices_busy_at_its_write_time() {
        let busy = |s: &mut Scheduler| {
            for slice in 0..40 {
                s.occupy_mem(Hemisphere::West, slice, 3_000);
            }
        };
        let (out, done, rollbacks) = plain_pool_on((8, 8, 16), (2, 2, 0), 4, busy);
        assert!(done < 3_000, "done at {done}");
        assert_eq!(rollbacks, 0);
        assert!(
            out.slices()
                .all(|(h, slice)| h == Hemisphere::West && slice >= 40),
            "{:?}",
            out.slices().collect::<Vec<_>>()
        );
    }

    /// A padded pool output on recycled SRAM gets its border cleared.
    #[test]
    fn max_pool_border_is_zero_on_recycled_sram() {
        let mut s = Scheduler::new();
        let mut chip = Chip::new(ChipConfig::asic());
        // A dead tenant's data where one of the output replicas (one per
        // West slice) will land.
        let hem = Some(Hemisphere::West);
        let stale = (s.alloc)
            .alloc_in(hem, 64, 320, BankPolicy::High, 4096)
            .unwrap();
        for r in 0..stale.rows {
            chip.memory.write(stale.row(r), Vector::splat(0x55));
        }
        s.alloc.free(&stale);
        let input = alloc_feature_map(&mut s, 4, 4, 3, 0, Hemisphere::East, 4);
        let params = MaxPoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
            out_pad: 1,
            out_hemisphere: Hemisphere::West,
            out_replicas: 44,
            not_before: 0,
        };
        let (out, _) = max_pool(&mut s, &input, &params);
        let program = s.into_program().unwrap();
        for rep in &input.parts[0] {
            for row in 0..rep.rows {
                chip.memory.write(rep.row(row), Vector::splat(7));
            }
        }
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        for rep in &out.parts[0] {
            for row in 0..out.rows_total() {
                let (y, x) = (row / out.pw(), row % out.pw());
                let interior = (1..=2).contains(&y) && (1..=2).contains(&x);
                let got = chip.memory.read_unchecked(rep.row(row));
                // The host wrote 7 to every lane of the input.
                let want = Vector::splat(if interior { 7 } else { 0 });
                assert_eq!(got, want, "row {row}");
            }
        }
    }

    /// One pool shape to check against the scalar reference: the input is
    /// produced on chip by an identity 1×1 conv writing `copies` lane copies
    /// (by default those the pool packs by, [`pixels_per_row`]; one from 161
    /// channels, which pools a pixel per row).
    #[derive(Clone, Copy)]
    struct Case {
        hw: (u32, u32),
        c: u32,
        kernel: u32,
        stride: u32,
        pad: u32,
        out_pad: u32,
        /// Replicas of the input: fewer than k² pools in rounds.
        in_replicas: u8,
        out_replicas: u8,
        /// Lane copies of the input, if not the pixels the pool packs.
        copies: Option<u32>,
    }

    impl Case {
        fn new(hw: (u32, u32), c: u32, (kernel, stride, pad): (u32, u32, u32)) -> Case {
            Case {
                hw,
                c,
                kernel,
                stride,
                pad,
                out_pad: 0,
                in_replicas: (kernel * kernel) as u8,
                out_replicas: 1,
                copies: None,
            }
        }
    }

    /// Compiles and runs `case` on a scheduler prepared by `prepare`, then
    /// checks **every lane** of every stored row of every output replica:
    /// pixel `x` holds the window maximum at lane group `x mod G` — or, when
    /// the pool keeps the input's copies, at every copy's group — and every
    /// other lane — the other groups, the lanes past the channels, the border
    /// — reads zero.
    fn run_pool_case_on(case: Case, prepare: impl FnOnce(&mut Scheduler, &mut Chip)) {
        use crate::kernels::conv::{conv2d, emplace_conv, Conv2dParams};
        let Case {
            hw: (h, w),
            c,
            kernel: k,
            stride,
            pad,
            ..
        } = case;
        let mut s = Scheduler::new();
        let mut chip = Chip::new(ChipConfig::asic());
        prepare(&mut s, &mut chip);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let copies = case.copies.unwrap_or(pixels_per_row(c, ow));
        let (groups, kept) = pooled_lanes(copies, ow);

        let host = alloc_feature_map(&mut s, h, w, c, 0, Hemisphere::West, 4);
        let identity = emplace_conv(
            &mut s,
            (1, c, c),
            (1, 1, copies),
            (1, 1, &[]),
            |co, ci, _, _| i8::from(co == ci),
        );
        let producer = Conv2dParams {
            out_pad: pad,
            out_hemisphere: Hemisphere::East,
            out_replicas: case.in_replicas,
            ..Conv2dParams::default()
        };
        let (input, _) = conv2d(&mut s, &host, &identity, &producer);
        assert_eq!(input.layout.lane_copies, copies);
        let params = MaxPoolParams {
            kernel: k,
            stride,
            pad,
            out_pad: case.out_pad,
            out_hemisphere: Hemisphere::West,
            out_replicas: case.out_replicas,
            not_before: 0,
        };
        let (out, _) = max_pool(&mut s, &input, &params);
        let lanes = (out.layout.lane_skew, out.layout.lane_copies);
        assert_eq!((out.h, out.w, lanes), (oh, ow, (groups, kept)));
        load_constants(&mut chip, &mut s);
        let program = s.into_program().expect("valid schedule");

        // Full-range values, negative ones included (the border is a zero).
        let val = |y: u32, x: u32, ch: u32| ((y * 131 + x * 31 + ch * 7) % 251) as u8 as i8;
        for rep in &host.parts[0] {
            for y in 0..h {
                for x in 0..w {
                    let mut v = Vector::ZERO;
                    for ch in 0..c {
                        v.set_lane(ch as usize, val(y, x, ch) as u8);
                    }
                    chip.memory.write(rep.row(host.row_index(y, x)), v);
                }
            }
        }
        chip.run(&program, &RunOptions::default())
            .expect("clean run");

        let expect = |oy: u32, ox: u32, ch: u32| {
            let taps = (0..k).flat_map(|dy| (0..k).map(move |dx| (dy, dx)));
            taps.map(|(dy, dx)| {
                let (iy, ix) = (oy * stride + dy, ox * stride + dx);
                let inside = |v: u32, len: u32| (pad..pad + len).contains(&v);
                if inside(iy, h) && inside(ix, w) {
                    val(iy - pad, ix - pad, ch)
                } else {
                    0
                }
            })
            .max()
            .expect("a window has taps")
        };
        let gl = group_lanes(c);
        assert_eq!(out.parts[0].len(), usize::from(case.out_replicas));
        for rep in &out.parts[0] {
            for row in 0..out.rows_total() {
                let got = chip.memory.read_unchecked(rep.row(row));
                let (py, px) = (row / out.pw(), row % out.pw());
                let inside = |v: u32, len: u32| (out.layout.pad..out.layout.pad + len).contains(&v);
                let pixel = inside(py, oh) && inside(px, ow);
                for lane in 0..320u32 {
                    let (oy, ox) = (
                        py.wrapping_sub(out.layout.pad),
                        px.wrapping_sub(out.layout.pad),
                    );
                    let group = lane / gl;
                    let own = pixel
                        && lane % gl < c
                        && if kept > 1 {
                            group < kept
                        } else {
                            group == ox % groups
                        };
                    let want = if own { expect(oy, ox, lane % gl) } else { 0 };
                    assert_eq!(
                        got.lane(lane as usize) as i8,
                        want,
                        "{h}×{w}×{c} k{k}/{stride} pad {pad}: row {row} lane {lane}"
                    );
                }
            }
        }
    }

    fn run_pool_case(case: Case) {
        run_pool_case_on(case, |_, _| {});
    }

    /// Kernel 2 and 3, stride 1 and 2, pad 0 and 1, over channel counts that
    /// pack 13 pixels a row (5 and 12 channels: as many as the row has), 5
    /// (64), 2 (100 — not a superlane multiple) and 1 (161: unpacked); a
    /// 13-pixel input row makes widths 5, 6, 7, 11, 12 and 13, most of which
    /// `G` does not divide.
    #[test]
    fn packed_pools_match_reference() {
        for c in [5, 12, 64, 100, 161] {
            for window in [
                (2, 2, 0),
                (3, 2, 1),
                (3, 1, 1),
                (2, 1, 0),
                (3, 2, 0),
                (2, 2, 1),
            ] {
                run_pool_case(Case::new((9, 13), c, window));
            }
        }
        assert_eq!(
            [5, 12, 64, 100, 161].map(|c| pixels_per_row(c, 13)),
            [13, 13, 5, 2, 1]
        );
    }

    /// The last vector of a row starts `G` pixels before its end and holds
    /// every pixel at lane group `x mod G`.
    #[test]
    fn the_last_vector_of_a_row_covers_its_last_pixels_again() {
        let packing = LanePacking { ow: 7, groups: 5 };
        assert_eq!(packing.vectors(), 2);
        let row: Vec<Vec<u32>> = (0..2)
            .map(|v| (0..5).map(|g| packing.pixel(v, g)).collect())
            .collect();
        assert_eq!(row, [[0, 1, 2, 3, 4], [5, 6, 2, 3, 4]]);
        let even = LanePacking { ow: 10, groups: 5 };
        assert_eq!(even.pixel(1, 3), 8);
    }

    /// A materialized output border and four output replicas — what a conv
    /// consumer asks for — each replica scattered through its own map.
    #[test]
    fn packed_pool_with_border_and_replicas_matches_reference() {
        for c in [12, 64] {
            run_pool_case(Case {
                out_pad: 1,
                out_replicas: 4,
                ..Case::new((11, 11), c, (3, 2, 1))
            });
        }
    }

    /// Fewer input replicas than taps: the packed partial maxima are carried
    /// from round to round as they are, a vector a row.
    #[test]
    fn packed_pool_in_rounds_matches_reference() {
        run_pool_case(Case {
            in_replicas: 4,
            ..Case::new((9, 13), 64, (3, 2, 1))
        });
    }

    /// Rows narrower than the input's copies: the pool pools a pixel per row
    /// and keeps the copies — nine of 12 channels, five of 64 — with a border
    /// and four replicas, in rounds, and on recycled SRAM.
    #[test]
    fn a_pool_narrower_than_its_input_copies_keeps_them() {
        for (c, copies) in [(12, 9), (64, 5)] {
            let case = Case {
                copies: Some(copies),
                ..Case::new((9, 9), c, (2, 2, 0))
            };
            run_pool_case(case);
            run_pool_case(Case {
                out_pad: 1,
                out_replicas: 4,
                in_replicas: 2,
                ..case
            });
            run_pool_case_on(case, |s, chip| dirty_sram(s, chip, &Hemisphere::ALL, 256));
        }
        assert_eq!(pooled_lanes(9, 4), (1, 9));
        assert_eq!(pooled_lanes(4, 4), (4, 1));
    }

    /// Producer and pool both on recycled SRAM pre-filled with `0x55`: a
    /// `Scatter` leaves the superlanes it does not address as they were, so
    /// every lane outside a row's own group must have been cleared first.
    #[test]
    fn packed_pool_on_recycled_sram_matches_reference() {
        for (c, out_pad) in [(64, 1), (100, 0), (12, 1)] {
            let case = Case {
                out_pad,
                out_replicas: 4,
                ..Case::new((9, 13), c, (3, 2, 1))
            };
            run_pool_case_on(case, |s, chip| dirty_sram(s, chip, &Hemisphere::ALL, 256));
        }
    }

    /// A lane-packed 2×2/2 pool from East into West asked for at cycle 300,
    /// the slices its output lands on busy until cycle 2,000: its taps are
    /// priced early, the scatter holds the round back until those slices
    /// free, and no tap stream stays booked at the earlier start — a weight
    /// group that needs those streams before then still gets them.
    #[test]
    fn a_scatter_pushed_later_leaves_no_tap_stream_booked_early() {
        let params = MaxPoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
            out_pad: 0,
            out_hemisphere: Hemisphere::West,
            out_replicas: 1,
            not_before: 300,
        };
        let layout = MapLayout {
            lane_copies: 5,
            ..MapLayout::plain(0, Hemisphere::East, 4)
        };
        let setup = |s: &mut Scheduler| {
            let input = FeatureMap::alloc(s, (10, 10, 64), layout);
            (input, west_weight_windows(s, 600))
        };
        // Where the output lands: the same allocations on an idle chip.
        let mut s = Scheduler::new();
        let (input, _) = setup(&mut s);
        let (out, _) = max_pool(&mut s, &input, &params);
        assert_eq!(out.layout.lane_skew, 5, "packed");

        let mut s = Scheduler::new();
        let (input, probe) = setup(&mut s);
        for (h, sl) in out.slices() {
            s.occupy_mem(h, sl, 2_000);
        }
        let before = probe(&s);
        let (out, done) = max_pool(&mut s, &input, &params);
        assert_eq!(out.layout.lane_skew, 5, "packed");
        assert!(done > 1_900, "done at {done}");
        let after = probe(&s);
        let moved = (before.iter().zip(&after).enumerate()).find(|(_, (b, a))| b != a);
        assert_eq!(moved, None, "no tap stream booked before its burst");
        assert!(s.check().is_none());
    }

    #[test]
    fn max_pool_with_fewer_replicas_uses_rounds() {
        let mut s = Scheduler::new();
        let input = alloc_feature_map(&mut s, 4, 4, 3, 0, Hemisphere::East, 3);
        let params = MaxPoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
            out_pad: 0,
            out_hemisphere: Hemisphere::West,
            out_replicas: 1,
            not_before: 0,
        };
        let (out, _) = max_pool(&mut s, &input, &params);
        let program = s.into_program().unwrap();
        let mut chip = Chip::new(ChipConfig::asic());
        let val = |y: u32, x: u32| (y * 4 + x) as i8;
        for rep in &input.parts[0] {
            for y in 0..4 {
                for x in 0..4 {
                    let mut v = Vector::ZERO;
                    for ch in 0..3 {
                        v.set_lane(ch, val(y, x) as u8);
                    }
                    chip.memory.write(rep.row(input.row_index(y, x)), v);
                }
            }
        }
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        // 2×2/2 pool of a raster ramp: max of each quad is its bottom-right.
        for oy in 0..2u32 {
            for ox in 0..2u32 {
                let got = chip
                    .memory
                    .read_unchecked(out.parts[0][0].row(out.row_index(oy, ox)));
                assert_eq!(got.lane(0) as i8, val(oy * 2 + 1, ox * 2 + 1));
            }
        }
    }

    /// A global pool of a 3×3×6 East map into West, on a scheduler
    /// `prepare` had first, against its channel sums; returns the program.
    fn global_pool_on(prepare: impl FnOnce(&mut Scheduler)) -> Program {
        let mut s = Scheduler::new();
        prepare(&mut s);
        let (h, w, c) = (3u32, 3u32, 6u32);
        let input = alloc_feature_map(&mut s, h, w, c, 0, Hemisphere::East, 1);
        let (outs, _) = global_avg_pool(&mut s, &input, 0, Hemisphere::West);
        let mut chip = Chip::new(ChipConfig::asic());
        load_constants(&mut chip, &mut s);
        let program = s.into_program().unwrap();
        for y in 0..h {
            for x in 0..w {
                let mut v = Vector::ZERO;
                for ch in 0..c {
                    v.set_lane(ch as usize, (ch as u8) + 1);
                }
                chip.memory
                    .write(input.parts[0][0].row(input.row_index(y, x)), v);
            }
        }
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        let got = chip.memory.read_unchecked(outs[0].row(0));
        for ch in 0..c {
            // Sum over 9 pixels of (ch+1), saturated to int8.
            let expect = (9 * (ch + 1)).min(127) as i8;
            assert_eq!(got.lane(ch as usize) as i8, expect, "ch {ch}");
        }
        program
    }

    #[test]
    fn global_pool_sums_channels() {
        global_pool_on(|_| {});
    }

    /// The pool's read-out quad is picked as every feed's is: with every
    /// stream it could flow on held, its sums wait for them.
    #[test]
    fn global_pool_reads_out_only_onto_free_streams() {
        let plane = Plane::new(0);
        let mxm = Slice::Mxm(plane.hemisphere()).position();
        let from_mxm = Direction::inward_from(plane.hemisphere());
        let program = global_pool_on(|s| {
            for id in 0..STREAMS_PER_DIRECTION {
                s.occupy_stream(StreamId::new(id, from_mxm), mxm, 0, 2_000);
            }
        });
        let (first, _) = (program.dispatches(IcuId::Mxm { plane, port: 2 }))
            .find(|(_, i)| matches!(i, Instruction::Mxm(MxmOp::Accumulate { .. })))
            .expect("a read-out");
        assert!(first >= 1_999, "first read-out dispatched at {first}");
    }
}
