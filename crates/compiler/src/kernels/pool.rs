//! Pooling kernels.
//!
//! **Max pool** streams the k² shifted row sequences concurrently (one stream
//! per input replica) into a chained VXM `max` tree — the structure of the
//! paper's Fig. 11 max-pool schedule — one output row per cycle at steady
//! state. If fewer replicas than offsets are available, the offsets are
//! processed in rounds with the running partial as a carry input.
//!
//! **Lane packing.** A `c`-channel pixel fills `c` of the 320 lanes every one
//! of those `max` issues works on, so when the input is lane-replicated
//! ([`MapLayout::lane_copies`]` = G`, written so by the conv producing it) a
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
//! anything but a pooled pixel. Which path a pool takes follows from its
//! input alone; a host-written or unreplicated map is pooled a pixel per row.
//!
//! **Global average pool** rides the MXM: identity weights are installed and
//! the N pixel rows streamed through while `ACC` *accumulates into a single
//! ordinal*, so the final readout is the channel-wise sum of all rows; the
//! `1/N` factor is folded into the following layer's quantized weights
//! (standard practice — see DESIGN.md §2).

use tsp_arch::{Direction, Hemisphere, Slice, StreamGroup, StreamId, Vector};
use tsp_isa::{AccumulateMode, BinaryAluOp, DataType, MxmOp, VxmOp, D_VXM, MXM_ARRAY_DELAY};
use tsp_sim::IcuId;

use crate::alloc::BankPolicy;
use crate::kernels::conv::{group_lanes, FeatureMap, MapLayout};
use crate::kernels::elementwise::tensor_hemisphere;
use crate::kernels::matmul::{
    emplace_weight_blocks, lw_rows, plane_of_chain, schedule_requant_write, stream_weights,
    ActFeed, Int32Stream, PlaneChainBuilder,
};
use crate::sched::{LaneMap, Scheduler};
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

/// Output pixels a [`max_pool`] does put in one VXM row of an `ow`-pixel-wide
/// output (`G`) given an input in `lane_copies` copies: a pixel per copy —
/// or one, when the row has fewer pixels than that, since the spare copies
/// would end up where the skewed output must be zero.
#[must_use]
pub fn packed_pixels(lane_copies: u32, ow: u32) -> u32 {
    if lane_copies <= ow {
        lane_copies
    } else {
        1
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

/// How a pooled vector stream reaches an output replica.
enum Store {
    /// One pixel per vector: plain `Write`s over the interior segments.
    Write(Vec<(u32, u32)>),
    /// Lane-packed: a `Scatter` through the replica's maps, a key per vector.
    Scatter(Vec<LaneMap>, Vec<u32>),
}

impl Store {
    /// The earliest cycle ≥ `t` the first vector may be at the VXM.
    fn earliest(&self, s: &Scheduler, dir: Direction, t: u64) -> u64 {
        let vxm = Slice::Vxm.position();
        match self {
            Store::Write(_) => t,
            Store::Scatter(maps, keys) => s.earliest_scatter_start(maps, keys, dir, vxm, t),
        }
    }

    /// Commits the vectors on `stream`, the first at the VXM at `t`.
    fn commit(&self, s: &mut Scheduler, rep: &TensorHandle, stream: StreamId, t: u64) {
        let vxm = Slice::Vxm.position();
        match self {
            Store::Write(segments) => {
                let mut offset = 0u64;
                for &(first, count) in segments {
                    s.write_rows(rep, first, count, stream, vxm, t + offset);
                    offset += u64::from(count);
                }
            }
            Store::Scatter(maps, keys) => s.scatter_rows(maps, keys, stream, vxm, t),
        }
    }
}

/// Schedules a k×k max pool over a feature map. Returns the output map and
/// completion cycle. A lane-replicated input is pooled [`packed_pixels`] per
/// VXM row into a lane-skewed output (see the module docs), anything else
/// one pixel per row.
///
/// # Panics
///
/// Panics if the input's materialized border is smaller than `pad`, or if
/// the input is itself lane-skewed.
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
    let groups = packed_pixels(input.layout.lane_copies, ow);
    let packing = LanePacking { ow, groups };
    let vectors = packing.vectors();
    let n = oh * vectors;
    // Packed, the output is skewed (whole padded rows a block: a vector's
    // pixels share a slice).
    let layout = MapLayout {
        lane_skew: groups,
        ..MapLayout::plain(params.out_pad, params.out_hemisphere, params.out_replicas)
    };
    let out = FeatureMap::alloc(s, (oh, ow, input.c), layout);
    let vxm = Slice::Vxm.position();
    let mut done = params.not_before;
    let gl = group_lanes(input.c);
    // Everything the chain streams at once keeps to slices of its own: the
    // maps of a round's taps (opposite the input) off the output replicas,
    // the maps of the replicas (opposite the output) off the input.
    let mut avoid: Vec<(Hemisphere, u8)> = out.slices().chain(input.slices()).collect();
    // Row `i` of a tap or of the output, as `(row, column)` of the vectors.
    let at = |i: u32| (i / vectors, i % vectors);

    let offsets: Vec<(u32, u32)> = (0..k)
        .flat_map(|dy| (0..k).map(move |dx| (dy, dx)))
        .collect();

    for kp in 0..input.kparts() {
        let replicas = &input.parts[kp];
        // How each output replica is written, and what must read as zero
        // without ever being written: the border — or, scattered, all of it
        // (a `Scatter` leaves the superlanes it does not address as they
        // were), cleared before the first vector lands.
        let stores: Vec<Store> = (out.parts[kp].iter())
            .map(|rep| match groups {
                1 => Store::Write(out.interior_segments()),
                _ => {
                    let row_of = |i: u32, g: u32| {
                        let (oy, v) = at(i);
                        out.row_index(oy, packing.pixel(v, g))
                    };
                    let keys: Vec<u32> = (0..n).map(|i| row_of(i, 0)).collect();
                    Store::Scatter(s.add_lane_maps(rep, gl, &keys, row_of, &mut avoid), keys)
                }
            })
            .collect();
        let stale = match groups {
            1 => out.border_segments(),
            _ => vec![(0, out.rows_total())],
        };
        let clear = |s: &mut Scheduler| {
            let jobs: Vec<(&TensorHandle, &[(u32, u32)])> =
                (out.parts[kp].iter().map(|t| (t, stale.as_slice()))).collect();
            s.zero_stale(&jobs, None).expect("no deadline to miss")
        };
        if groups > 1 {
            done = done.max(clear(s));
        }
        // One stream per replica per round.
        let lanes_per_round = replicas.len().max(1);
        let mut carry: Option<TensorHandle> = None;
        let mut off_at = 0usize;
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
            let mut t0 = s.floor().max(params.not_before).max(done);
            // Floor on destination availability (stream-dictated writes).
            if last_round {
                for rep in &out.parts[kp] {
                    t0 = t0.max(s.mem_free_tensor(rep));
                }
            }
            // Per tap: its replica, the rows (packed: map keys) it streams
            // and, packed, the map that gathers the tap's pixel of every
            // lane group's output pixel.
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
            let feeds: Vec<ActFeed<'_>> = (plan.iter())
                .map(|(tensor, _, maps)| match maps.as_slice() {
                    [] => ActFeed::Read(tensor),
                    maps => ActFeed::Gather(maps),
                })
                .collect();
            // Common earliest start, honoring staggered arrivals: an ALU for
            // every max, every operand stream and every max-result stream
            // free, every read port free.
            t0 = s.alu_chain_free(t0, plan.len() - 1);
            let out_dir = Direction::outward_from(params.out_hemisphere);
            let stagger = |i: usize| (i as u64).saturating_sub(1) * D_VXM;
            let mut ids: Vec<StreamId> = Vec::new();
            let mut mids: Vec<StreamId> = Vec::new();
            // A pick stays free however far later picks push `t0`, but its
            // hold (below) may lapse before them: later picks exclude it.
            let mut picked: Vec<StreamId> = Vec::new();
            let mut pick = |s: &mut Scheduler, dir: Direction, at: u64| {
                let same = picked.iter().filter(|p| p.direction == dir);
                let exclude: Vec<u8> = same.map(|p| p.id).collect();
                let (id, ready) = s.take_streams_excluding(dir, 1, at, vxm, &exclude);
                picked.push(id[0]);
                (id[0], ready)
            };
            for (i, ((tensor, rows, _), feed)) in plan.iter().zip(&feeds).enumerate() {
                let dir = Direction::inward_from(tensor_hemisphere(tensor));
                let (id, ready) = pick(s, dir, t0 + stagger(i));
                let want = feed.earliest_arrival(s, rows, dir, vxm, ready);
                t0 = t0.max(want - stagger(i));
                // Hold each pick for its (provisional) burst so the next pick,
                // at a later stagger, cannot land on it; the real schedule
                // below only extends these.
                s.occupy_stream(id, vxm, t0 + stagger(i) + u64::from(n));
                ids.push(id);
                if i > 0 {
                    let t_res = t0 + stagger(i) + D_VXM;
                    let (mid, ready) = pick(s, out_dir, t_res);
                    t0 += ready - t_res;
                    s.occupy_stream(mid, vxm, ready + u64::from(n));
                    mids.push(mid);
                }
            }
            // The last max's results leave the VXM this long after `t0`.
            let t_out = stagger(plan.len() - 1) + if plan.len() > 1 { D_VXM } else { 0 };
            if last_round {
                for store in &stores {
                    t0 = store.earliest(s, out_dir, t0 + t_out) - t_out;
                }
            }
            // `t0` is final: hold every pick for its real burst before any
            // map stream is chosen.
            for (i, id) in ids.iter().enumerate() {
                s.occupy_stream(*id, vxm, t0 + stagger(i) + u64::from(n));
            }
            for (i, mid) in mids.iter().enumerate() {
                s.occupy_stream(*mid, vxm, t0 + stagger(i + 1) + D_VXM + u64::from(n));
            }
            for (i, (((_, rows, _), feed), id)) in plan.iter().zip(&feeds).zip(&ids).enumerate() {
                feed.stream_rows(s, rows, *id, vxm, t0 + stagger(i));
            }

            // Chain of max ops: out_i = max(out_{i-1}, in_i).
            let mut current = StreamGroup::new(ids[0], 1);
            let mut t_cur = t0;
            for (i, (id, mid)) in ids[1..].iter().zip(&mids).enumerate() {
                let t_op = t0 + stagger(i + 1);
                debug_assert_eq!(t_op, t_cur.max(t_op));
                let (alu, ready) = s.pick_alu(t_op);
                debug_assert_eq!(ready, t_op, "priced by alu_chain_free");
                let mid = StreamGroup::new(*mid, 1);
                let max = VxmOp::Binary {
                    op: BinaryAluOp::Max,
                    dtype: DataType::Int8,
                    a: current,
                    b: StreamGroup::new(*id, 1),
                    dst: mid,
                    alu,
                };
                s.place_burst(IcuId::Vxm { alu }, t_op, u64::from(n), max);
                current = mid;
                t_cur = t_op + D_VXM;
            }
            debug_assert_eq!(t_cur, t0 + t_out);

            if last_round {
                for (rep, store) in out.parts[kp].iter().zip(&stores) {
                    store.commit(s, rep, current.base, t_cur);
                }
                done = done.max(t_cur + u64::from(n));
                if let Some(old) = carry.take() {
                    s.alloc.free(&old);
                }
                // On recycled SRAM the never-written border is stale.
                if groups == 1 {
                    done = done.max(clear(s));
                }
            } else {
                // The carry lands downstream in the output hemisphere; the
                // next round streams it back inward as an extra tree input.
                // (Fresh allocation off everything the round streams: its
                // slices carry no pending work beyond what t0 already
                // accounted for via the global floor.)
                let (hemisphere, cols) = (Some(params.out_hemisphere), input.parts[kp][0].cols);
                let c = (s.alloc)
                    .alloc_avoiding(hemisphere, n, cols, BankPolicy::High, 4096, &avoid)
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
    not_before: u64,
) -> (Vec<TensorHandle>, u64) {
    assert_eq!(
        input.layout.lane_skew, 1,
        "only a conv reads a lane-skewed map"
    );
    let n = input.h * input.w;
    let vxm = Slice::Vxm.position();
    let mut outs = Vec::with_capacity(input.kparts());
    let mut done = not_before;

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

    for (kp, identity) in identities.iter().enumerate() {
        let part = &input.parts[kp][0];
        let cols = part.cols;
        let plane = plane_of_chain(kp);
        let mxm = Slice::Mxm(plane.hemisphere()).position();
        let to_mxm = Direction::outward_from(plane.hemisphere());
        let from_mxm = to_mxm.opposite();

        // Install identity the way every chain does; the feed below is GAP's
        // own (one `ABC`, but an `ACC` per row).
        let mut chain = PlaneChainBuilder::new(s, plane, u64::from(n), not_before);
        let feed = stream_weights(s, identity, plane.hemisphere(), chain.lw_floor());
        chain.install(s, feed);
        let installed = chain.lw_floor();

        // Stream the interior rows through.
        let rows: Vec<u32> = (0..input.h)
            .flat_map(|y| (0..input.w).map(move |x| input.row_index(y, x)))
            .collect();
        let (acts, ready) = s.take_streams(to_mxm, 1, installed, mxm);
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
        s.hold_array(plane, t_abc + u64::from(n));

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
            border: Vec::new(),
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
    use crate::kernels::testing::{dirty_sram, hold_all_alus_but_the_first};
    use tsp_arch::ChipConfig;
    use tsp_sim::chip::RunOptions;
    use tsp_sim::Chip;

    fn load_constants(chip: &mut Chip, s: &mut Scheduler) {
        for (handle, rows) in s.take_constants() {
            for (r, v) in rows {
                chip.memory.write(handle.row(r), v);
            }
        }
    }

    /// A 3×3/2 pool (pad 1) of an `h×w×c` map held in nine replicas, on a
    /// scheduler `prepare` had first, against the scalar reference.
    fn pool_3x3_stride2_on(h: u32, w: u32, c: u32, prepare: impl FnOnce(&mut Scheduler)) {
        let mut s = Scheduler::new();
        prepare(&mut s);
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

    #[test]
    fn max_pool_3x3_stride2_matches_reference() {
        pool_3x3_stride2_on(7, 7, 5, |_| {});
    }

    /// The eight chained maxes of a 3×3/2 pool with one ALU free and the
    /// other fifteen held: the chain waits for an ALU per max instead of
    /// stacking them on the free one.
    #[test]
    fn max_tree_waits_for_an_alu_per_max() {
        pool_3x3_stride2_on(12, 12, 32, hold_all_alus_but_the_first);
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
    /// produced on chip by an identity 1×1 conv writing the lane copies the
    /// pool packs by ([`pixels_per_row`]; one from 161 channels, which pools
    /// a pixel per row).
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
            }
        }
    }

    /// Compiles and runs `case` on a scheduler prepared by `prepare`, then
    /// checks **every lane** of every stored row of every output replica:
    /// pixel `x` holds the window maximum at lane group `x mod G`, and every
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
        let groups = pixels_per_row(c, ow);

        let host = alloc_feature_map(&mut s, h, w, c, 0, Hemisphere::West, 4);
        let identity = emplace_conv(
            &mut s,
            (1, c, c),
            (1, 1, groups),
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
        assert_eq!(input.layout.lane_copies, groups);
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
        assert_eq!((out.h, out.w, out.layout.lane_skew), (oh, ow, groups));
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
                    let own = pixel && lane / gl == ox % groups && lane % gl < c;
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
