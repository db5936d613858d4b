//! Pooling kernels.
//!
//! **Max pool** streams the k² shifted row sequences concurrently (one stream
//! per input replica) into a chained VXM `max` tree — the structure of the
//! paper's Fig. 11 max-pool schedule — one output row per cycle at steady
//! state. If fewer replicas than offsets are available, the offsets are
//! processed in rounds with the running partial as a carry input.
//!
//! **Global average pool** rides the MXM: identity weights are installed and
//! the N pixel rows streamed through while `ACC` *accumulates into a single
//! ordinal*, so the final readout is the channel-wise sum of all rows; the
//! `1/N` factor is folded into the following layer's quantized weights
//! (standard practice — see DESIGN.md §2).

use tsp_arch::{Direction, Hemisphere, Slice, StreamGroup, StreamId, Vector};
use tsp_isa::{AccumulateMode, BinaryAluOp, DataType, MxmOp, Plane, VxmOp, MXM_ARRAY_DELAY};
use tsp_sim::IcuId;

use crate::alloc::BankPolicy;
use crate::kernels::conv::FeatureMap;
use crate::kernels::elementwise::{pick_alu, tensor_hemisphere};
use crate::kernels::matmul::{place_repeated, schedule_requant_write, stream_weights, Int32Stream};
use crate::resource::Resource;
use crate::sched::{Scheduler, D_VXM};
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

/// Schedules a k×k max pool over a feature map. Returns the output map and
/// completion cycle.
///
/// # Panics
///
/// Panics if the input's materialized border is smaller than `pad`.
pub fn max_pool(
    s: &mut Scheduler,
    input: &FeatureMap,
    params: &MaxPoolParams,
) -> (FeatureMap, u64) {
    let k = params.kernel;
    let oh = (input.h + 2 * params.pad - k) / params.stride + 1;
    let ow = (input.w + 2 * params.pad - k) / params.stride + 1;
    let n = oh * ow;
    let mut avoid: Vec<(tsp_arch::Hemisphere, u8)> = Vec::new();
    let out = FeatureMap {
        h: oh,
        w: ow,
        c: input.c,
        pad: params.out_pad,
        lane_copies: 1,
        parts: (0..input.kparts())
            .map(|kp| {
                let cols = input.parts[kp][0].cols;
                (0..params.out_replicas.max(1))
                    .map(|_| {
                        let t = s
                            .alloc
                            .alloc_avoiding(
                                Some(params.out_hemisphere),
                                (oh + 2 * params.out_pad) * (ow + 2 * params.out_pad),
                                cols,
                                BankPolicy::High,
                                4096,
                                &avoid,
                            )
                            .expect("SRAM exhausted for pool output");
                        avoid.extend(t.layout.slices());
                        t
                    })
                    .collect()
            })
            .collect(),
    };
    let segments = out.interior_segments();
    let vxm = Slice::Vxm.position();
    let mut done = params.not_before;

    let offsets: Vec<(u32, u32)> = (0..k)
        .flat_map(|dy| (0..k).map(move |dx| (dy, dx)))
        .collect();

    for kp in 0..input.kparts() {
        let replicas = &input.parts[kp];
        // One stream per replica per round.
        let lanes_per_round = replicas.len().max(1);
        let mut carry: Option<TensorHandle> = None;
        let mut off_at = 0usize;
        let mut round = 0usize;
        while off_at < offsets.len() {
            let batch: Vec<(u32, u32)> = offsets
                .iter()
                .copied()
                .skip(off_at)
                .take(lanes_per_round)
                .collect();
            off_at += batch.len();
            let last_round = off_at >= offsets.len();

            // Input streams: each offset from its own replica, staggered by
            // the chain position so each max's operands meet in time.
            let mut t0 = s.pool.floor().max(params.not_before).max(done);
            // Floor on destination availability (stream-dictated writes).
            if last_round {
                for rep in &out.parts[kp] {
                    t0 = t0.max(s.mem_free_tensor(rep));
                }
            }
            let mut plan: Vec<(&TensorHandle, Vec<u32>)> = Vec::new();
            for (i, &(dy, dx)) in batch.iter().enumerate() {
                let tensor = &replicas[i % replicas.len()];
                let rows = input.offset_rows(oh, ow, params.stride, dy, dx, params.pad);
                plan.push((tensor, rows));
            }
            if let Some(c) = &carry {
                plan.push((c, (0..n).collect()));
            }
            // Common earliest start, honoring staggered arrivals: every
            // operand stream and every max-result stream free, every read
            // port free.
            let out_dir = Direction::outward_from(params.out_hemisphere);
            let stagger = |i: usize| (i as u64).saturating_sub(1) * D_VXM;
            let mut ids: Vec<StreamId> = Vec::new();
            let mut mids: Vec<StreamId> = Vec::new();
            for (i, (tensor, rows)) in plan.iter().enumerate() {
                let dir = Direction::inward_from(tensor_hemisphere(tensor));
                let (id, ready) = s.take_streams(dir, 1, t0 + stagger(i), vxm);
                let want = s.earliest_read_arrival(tensor, rows, dir, vxm, ready);
                t0 = t0.max(want - stagger(i));
                // Hold each pick for its (provisional) burst so the next pick,
                // at a later stagger, cannot land on it; the real schedule
                // below only extends these.
                s.occupy_stream(id[0], vxm, t0 + stagger(i) + u64::from(n));
                ids.push(id[0]);
                if i > 0 {
                    let t_res = t0 + stagger(i) + D_VXM;
                    let (mid, ready) = s.take_streams(out_dir, 1, t_res, vxm);
                    t0 += ready - t_res;
                    s.occupy_stream(mid[0], vxm, ready + u64::from(n));
                    mids.push(mid[0]);
                }
            }
            for (i, ((tensor, rows), id)) in plan.iter().zip(&ids).enumerate() {
                s.read_rows(tensor, rows, *id, vxm, t0 + stagger(i));
            }

            // Chain of max ops: out_i = max(out_{i-1}, in_i).
            let mut current = StreamGroup::new(ids[0], 1);
            let mut t_cur = t0;
            for (i, (id, mid)) in ids[1..].iter().zip(&mids).enumerate() {
                let t_op = t0 + stagger(i + 1);
                debug_assert_eq!(t_op, t_cur.max(t_op));
                let (alu, _) = pick_alu(s, t_op);
                s.pool.occupy(Resource::VxmAlu(alu.0), t_op + u64::from(n));
                let mid = StreamGroup::new(*mid, 1);
                place_repeated(
                    s,
                    IcuId::Vxm { alu },
                    t_op,
                    u64::from(n),
                    VxmOp::Binary {
                        op: BinaryAluOp::Max,
                        dtype: DataType::Int8,
                        a: current,
                        b: StreamGroup::new(*id, 1),
                        dst: mid,
                        alu,
                    },
                );
                s.occupy_stream(mid.base, vxm, t_op + D_VXM + u64::from(n));
                current = mid;
                t_cur = t_op + D_VXM;
            }

            if last_round {
                for rep in &out.parts[kp] {
                    let mut offset = 0u64;
                    for &(first, count) in &segments {
                        s.write_rows(rep, first, count, current.base, vxm, t_cur + offset);
                        offset += u64::from(count);
                    }
                }
                done = done.max(t_cur + u64::from(n));
                if let Some(old) = carry.take() {
                    s.alloc.free(&old);
                }
                // On recycled SRAM the never-written border is stale.
                let border = out.border_segments();
                let borders: Vec<(&TensorHandle, &[(u32, u32)])> =
                    (out.parts[kp].iter().map(|t| (t, border.as_slice()))).collect();
                done = done.max(s.zero_stale(&borders));
            } else {
                // The carry lands downstream in the output hemisphere; the
                // next round streams it back inward as an extra tree input.
                // (Fresh allocation: its slices carry no pending work beyond
                // what t0 already accounted for via the global floor.)
                let c = s
                    .alloc
                    .alloc_in(
                        Some(params.out_hemisphere),
                        n,
                        input.parts[kp][0].cols,
                        BankPolicy::High,
                        4096,
                    )
                    .expect("SRAM exhausted for pool carry");
                let cf = s.mem_free_tensor(&c);
                assert!(
                    cf <= t_cur,
                    "pool carry slices busy until {cf}, writes start at {t_cur}"
                );
                s.write_rows(&c, 0, n, current.base, vxm, t_cur);
                done = done.max(t_cur + u64::from(n));
                if let Some(old) = carry.replace(c) {
                    s.alloc.free(&old);
                }
            }
            round += 1;
            let _ = round;
        }
    }
    s.note_completion(done);
    (out, done)
}

/// Schedules a global sum pool over the interior pixels: returns one tensor
/// per channel part holding a single row — the channel-wise **sum** over all
/// `h·w` pixels, requantized to int8 by `2^-shift` (fold the `1/N` into the
/// next layer's scale). Completion cycle is returned alongside.
pub fn global_avg_pool(
    s: &mut Scheduler,
    input: &FeatureMap,
    requant_shift: i8,
    out_hemisphere: Hemisphere,
    not_before: u64,
) -> (Vec<TensorHandle>, u64) {
    let n = input.h * input.w;
    let vxm = Slice::Vxm.position();
    let mut outs = Vec::with_capacity(input.kparts());
    let mut done = not_before;

    for kp in 0..input.kparts() {
        let part = &input.parts[kp][0];
        let cols = part.cols;
        let plane = Plane::new((kp % 4) as u8);
        let mxm = Slice::Mxm(plane.hemisphere()).position();
        let to_mxm = match plane.hemisphere() {
            Hemisphere::East => Direction::East,
            Hemisphere::West => Direction::West,
        };
        let from_mxm = to_mxm.opposite();

        // Identity weights for this part, in LW order.
        let mut id_rows = Vec::with_capacity(320);
        for j in 0..16u32 {
            for r in 0..20u32 {
                let m = (16 * r + j) as usize;
                let mut v = Vector::ZERO;
                if m < usize::from(cols) {
                    v.set_lane(m, 1);
                }
                id_rows.push(v);
            }
        }
        let identity = s.add_constant(id_rows, cols, BankPolicy::Low, 20);

        // Install identity.
        let plane_res = Resource::MxmPlane(plane.index());
        let ready = s.pool.free_at(plane_res).max(not_before);
        let feed = stream_weights(s, &identity, plane.hemisphere(), ready);
        s.place(
            IcuId::Mxm { plane, port: 0 },
            feed.t_lw,
            MxmOp::LoadWeights {
                plane,
                streams: feed.group,
                rows: 20,
            },
        );
        let t_iw = feed.t_lw + 20;
        s.place(
            IcuId::Mxm { plane, port: 3 },
            t_iw,
            MxmOp::InstallWeights {
                plane,
                dtype: DataType::Int8,
            },
        );

        // Stream the interior rows through.
        let rows: Vec<u32> = (0..input.h)
            .flat_map(|y| (0..input.w).map(move |x| input.row_index(y, x)))
            .collect();
        let (acts, ready) = s.take_streams(to_mxm, 1, t_iw + 4, mxm);
        let t_abc = s.earliest_read_arrival(part, &rows, to_mxm, mxm, ready);
        s.read_rows(part, &rows, acts[0], mxm, t_abc);
        s.place(
            IcuId::Mxm { plane, port: 1 },
            t_abc,
            MxmOp::ActivationBuffer {
                plane,
                stream: acts[0],
                rows: n as u16,
            },
        );

        // N single-row ACCs, all into ordinal 0: a running channel sum.
        let t_acc = t_abc + u64::from(MXM_ARRAY_DELAY);
        let (acc_base, _) = s.take_aligned_group(from_mxm, 4, t_acc + 1, mxm);
        let acc_group = StreamGroup::new(StreamId::new(acc_base, from_mxm), 4);
        for r in 0..n {
            let mode = if r == 0 {
                AccumulateMode::Overwrite
            } else {
                AccumulateMode::Accumulate
            };
            s.place(
                IcuId::Mxm { plane, port: 2 },
                t_acc + u64::from(r),
                MxmOp::Accumulate {
                    plane,
                    dst: acc_group,
                    rows: 1,
                    mode,
                },
            );
        }
        for stream in acc_group.streams() {
            s.occupy_stream(stream, mxm, t_acc + 1 + u64::from(n));
        }
        s.pool.occupy(plane_res, t_acc + u64::from(n));

        // Only the final emission (row n−1) carries the full sum.
        let transit = u64::from(from_mxm.hops(mxm, vxm).expect("VXM inward"));
        let t_last = t_acc + u64::from(n - 1) + 1 + transit;
        let source = Int32Stream {
            group: acc_group,
            t_at_vxm: t_last,
        };
        let spec = crate::kernels::matmul::OutSpec {
            rows_total: 1,
            cols,
            segments: vec![(0, 1)],
            hemisphere: out_hemisphere,
            policy: BankPolicy::High,
            replicas: 1,
            max_block: 4096,
            avoid: Vec::new(),
        };
        let (mut reps, end) =
            schedule_requant_write(s, source, 1, requant_shift, false, None, &spec)
                .expect("a single pooled row always finds a port");
        done = done.max(end);
        outs.push(reps.remove(0));
    }
    s.note_completion(done);
    (outs, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::conv::alloc_feature_map;
    use tsp_arch::ChipConfig;
    use tsp_sim::chip::RunOptions;
    use tsp_sim::Chip;

    fn load_constants(chip: &mut Chip, s: &mut Scheduler) {
        for (handle, rows) in s.take_constants() {
            for (r, v) in rows.iter().enumerate() {
                chip.memory.write(handle.row(r as u32), v.clone());
            }
        }
    }

    #[test]
    fn max_pool_3x3_stride2_matches_reference() {
        let mut s = Scheduler::new();
        let (h, w, c) = (7u32, 7u32, 5u32);
        let input = alloc_feature_map(&mut s, h, w, c, 1, Hemisphere::East, 9);
        let params = MaxPoolParams {
            kernel: 3,
            stride: 2,
            pad: 1,
            out_pad: 0,
            out_hemisphere: Hemisphere::West,
            out_replicas: 1,
            not_before: 0,
        };
        let (out, _) = max_pool(&mut s, &input, &params);
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
                    for dy in 0..3i64 {
                        for dx in 0..3i64 {
                            let iy = i64::from(oy) * 2 + dy - 1;
                            let ix = i64::from(ox) * 2 + dx - 1;
                            let v = if iy < 0 || ix < 0 || iy >= i64::from(h) || ix >= i64::from(w)
                            {
                                0 // the materialized border is zero
                            } else {
                                val(iy as u32, ix as u32, ch)
                            };
                            expect = expect.max(v);
                        }
                    }
                    assert_eq!(got.lane(ch as usize) as i8, expect, "({oy},{ox}) ch{ch}");
                }
            }
        }
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
                let want = if interior { 7 } else { 0 };
                assert_eq!(chip.memory.read_unchecked(rep.row(row)).lane(0), want);
            }
        }
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

    #[test]
    fn global_pool_sums_channels() {
        let mut s = Scheduler::new();
        let (h, w, c) = (3u32, 3u32, 6u32);
        let input = alloc_feature_map(&mut s, h, w, c, 0, Hemisphere::East, 1);
        let (outs, _) = global_avg_pool(&mut s, &input, 0, Hemisphere::West, 0);
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
    }
}
