//! `Scheduler::gather_rows` against `Scheduler::read_rows`, and
//! `Scheduler::scatter_rows` against the words it must and must not touch, on
//! the simulator: a gather through the map row of `r` yields, lane group by
//! lane group, what plain reads of rows `r, r+step, …` yield; a scatter
//! stores lane group `g` of a vector into row `r + g·step` and nothing else —
//! and both reserve the data slice's queue for exactly the cycles the
//! simulator dispatches them.

use proptest::prelude::*;
use tsp_arch::{ChipConfig, Direction, Hemisphere, Slice, Vector, SUPERLANES};
use tsp_compiler::alloc::BankPolicy;
use tsp_compiler::sched::LaneMap;
use tsp_compiler::{Scheduler, TensorHandle};
use tsp_isa::mem::map_addresses;
use tsp_isa::{MemAddr, MemOp};
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, IcuId};

/// A `height`-padded-row tensor of `pw`-pixel rows in the East hemisphere,
/// cut into blocks of `block_rows` whole padded rows, with one lane map per
/// block covering all of it: lane group `t < taps` addresses row `r + t·step`.
fn replicated_tensor(
    s: &mut Scheduler,
    (height, pw, block_rows): (u32, u32, u32),
    (taps, group_lanes, step): (u32, u32, u32),
) -> (TensorHandle, Vec<LaneMap>) {
    let per_block = block_rows * pw;
    let tensor = s
        .alloc
        .alloc_in(
            Some(Hemisphere::East),
            height * pw,
            320,
            BankPolicy::High,
            per_block,
        )
        .expect("an empty chip has room");
    let mut avoid: Vec<_> = tensor.layout.slices().collect();
    // Lane group `t` fetches row `r + t·step`, or `r` past the taps and past
    // the block.
    let row_of = |r: u32, t: u32| {
        let end = ((r / per_block + 1) * per_block).min(tensor.rows);
        if t < taps && r + t * step < end {
            r + t * step
        } else {
            r
        }
    };
    let keys: Vec<u32> = (0..tensor.rows).collect();
    let maps = s.add_lane_maps(&tensor, group_lanes, &keys, row_of, &mut avoid);
    (tensor, maps)
}

/// Streams `rows` of `tensor` westward past the VXM into a fresh West tensor
/// — gathered through `maps`, or plainly read when there are none — and
/// returns it.
fn stream_into_west(
    s: &mut Scheduler,
    tensor: &TensorHandle,
    maps: &[LaneMap],
    rows: &[u32],
) -> TensorHandle {
    let vxm = Slice::Vxm.position();
    let n = rows.len() as u32;
    let dst = s
        .alloc
        .alloc_in(Some(Hemisphere::West), n, 320, BankPolicy::High, 4096)
        .expect("an empty chip has room");
    let (stream, ready) = s.pick_streams(Direction::West, 1, 0, vxm, &[]);
    let dst_free = dst.layout.slices().map(|(h, sl)| s.mem_free(h, sl)).max();
    let ready = ready.max(dst_free.unwrap_or(0));
    if maps.is_empty() {
        let t0 = s.earliest_read_arrival(tensor, rows, Direction::West, vxm, ready);
        s.read_rows(tensor, rows, stream[0], vxm, t0);
        s.write_rows(&dst, 0, n, stream[0], vxm, t0);
    } else {
        let t0 = s.earliest_gather_arrival(maps, rows, Direction::West, vxm, ready);
        s.gather_rows(maps, rows, stream[0], vxm, t0);
        s.write_rows(&dst, 0, n, stream[0], vxm, t0);
    }
    dst
}

proptest! {
    /// Random geometry (taps, row step, lane-group width, row length, block
    /// cut), random full-range data, a random row list in any order, crossing
    /// blocks: superlane `s` of gathered row `r` equals superlane `s` of
    /// plainly read row `r + t·step`, `t` the lane group `s` falls in (0 past
    /// the last tap) — step 1 is a K-packed conv's map, step 2 a lane-packed
    /// stride-2 pool's.
    #[test]
    fn gather_equals_reads_lane_group_by_lane_group(
        seed in any::<u64>(),
        taps in 2u32..6,
        step in 1u32..4,
        group_superlanes in 1u32..5,
        height in 2u32..7,
        block_rows in 1u32..4,
        slack in 0u32..6,
        picks in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        prop_assume!(taps * group_superlanes <= SUPERLANES as u32);
        let pw = (taps - 1) * step + 1 + slack;
        let mut s = Scheduler::new();
        let lanes = (taps, 16 * group_superlanes, step);
        let (tensor, maps) = replicated_tensor(&mut s, (height, pw, block_rows), lanes);
        // Tap-group bases: any pixel whose `taps` rows stay in its padded row.
        let rows: Vec<u32> = picks
            .iter()
            .map(|&p| {
                let (y, x) = (p % height, (p / height) % (slack + 1));
                y * pw + x
            })
            .collect();
        let gathered = stream_into_west(&mut s, &tensor, &maps, &rows);
        let read: Vec<TensorHandle> = (0..taps)
            .map(|t| {
                let shifted: Vec<u32> = rows.iter().map(|r| r + t * step).collect();
                stream_into_west(&mut s, &tensor, &[], &shifted)
            })
            .collect();

        let constants = s.take_constants();
        let program = s.into_program().expect("valid schedule");
        let mut chip = Chip::new(ChipConfig::asic());
        for (handle, vectors) in &constants {
            for (r, v) in vectors {
                chip.memory.write(handle.row(*r), v.clone());
            }
        }
        let mut state = seed;
        for r in 0..tensor.rows {
            let data = Vector::from_fn(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            });
            chip.memory.write(tensor.row(r), data);
        }
        chip.run(&program, &RunOptions::default()).expect("clean run");

        for i in 0..rows.len() as u32 {
            let got = chip.memory.read_unchecked(gathered.row(i));
            for sl in 0..SUPERLANES {
                let t = sl as u32 / group_superlanes;
                let from = &read[if t < taps { t as usize } else { 0 }];
                let want = chip.memory.read_unchecked(from.row(i));
                prop_assert_eq!(got.superlane(sl), want.superlane(sl), "row {} superlane {}", i, sl);
            }
        }
    }

    /// The inverse, with a lane-packed pool's geometry: `vectors` source rows
    /// stream past the VXM and are scattered through a stepped map into a
    /// tensor full of other data — lane group `g < groups` of vector `i`
    /// lands in superlanes `g` of row `key_i + g·step`, every other superlane
    /// of every word keeps what it held (the lanes past the last group go to
    /// the key row, group 0's, like a pool's), and the simulator finds no bank
    /// or port contradiction in the schedule.
    #[test]
    fn scatter_stores_each_lane_group_in_its_own_row_and_nothing_else(
        seed in any::<u64>(),
        groups in 2u32..6,
        step in 1u32..3,
        group_superlanes in 1u32..5,
        height in 2u32..7,
        block_rows in 1u32..4,
        vectors_per_row in 1u32..3,
    ) {
        prop_assume!(groups * group_superlanes <= SUPERLANES as u32);
        // Vector `v` of a row covers pixels `v·groups·step + g·step`.
        let pw = vectors_per_row * groups * step;
        let mut s = Scheduler::new();
        let lanes = (groups, 16 * group_superlanes, step);
        let (dst, maps) = replicated_tensor(&mut s, (height, pw, block_rows), lanes);
        let keys: Vec<u32> = (0..height)
            .flat_map(|y| (0..vectors_per_row).map(move |v| y * pw + v * groups * step))
            .collect();
        let n = keys.len() as u32;
        let src = s
            .alloc
            .alloc_in(Some(Hemisphere::West), n, 320, BankPolicy::High, 4096)
            .expect("an empty chip has room");
        let vxm = Slice::Vxm.position();
        let all: Vec<u32> = (0..n).collect();
        let (stream, ready) = s.pick_streams(Direction::East, 1, 0, vxm, &[]);
        let t0 = s.earliest_read_arrival(&src, &all, Direction::East, vxm, ready);
        let t0 = s.earliest_scatter_start(&maps, &keys, Direction::East, vxm, t0, &stream);
        s.read_rows(&src, &all, stream[0], vxm, t0);
        s.scatter_rows(&maps, &keys, stream[0], vxm, t0);

        let constants = s.take_constants();
        let program = s.into_program().expect("valid schedule");
        let mut chip = Chip::new(ChipConfig::asic());
        for (handle, vectors) in &constants {
            for (r, v) in vectors {
                chip.memory.write(handle.row(*r), v.clone());
            }
        }
        let mut state = seed;
        let mut random = || Vector::from_fn(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        });
        let before: Vec<Vector> = (0..dst.rows).map(|_| random()).collect();
        let source: Vec<Vector> = (0..n).map(|_| random()).collect();
        for (r, v) in before.iter().enumerate() {
            chip.memory.write(dst.row(r as u32), v.clone());
        }
        for (r, v) in source.iter().enumerate() {
            chip.memory.write(src.row(r as u32), v.clone());
        }
        chip.run(&program, &RunOptions::default()).expect("clean run");

        let mut want = before;
        for (i, &key) in keys.iter().enumerate() {
            for sl in 0..SUPERLANES {
                let g = sl as u32 / group_superlanes;
                let row = if g < groups { key + g * step } else { key };
                want[row as usize].superlane_mut(sl).copy_from_slice(source[i].superlane(sl));
            }
        }
        for (r, want) in want.iter().enumerate() {
            let got = chip.memory.read_unchecked(dst.row(r as u32));
            for sl in 0..SUPERLANES {
                prop_assert_eq!(got.superlane(sl), want.superlane(sl), "row {} superlane {}", r, sl);
            }
        }
    }
}

/// The compiler reserves for a gather what the simulator charges: the data
/// slice's single-issue queue, one cycle per gathered row (DESIGN.md §2).
/// A `Write` to the slice is legal the cycle the burst ends — whichever bank
/// it targets — and a contradiction one cycle earlier.
#[test]
fn a_gather_burst_holds_its_slice_queue_exactly_as_long_as_it_dispatches() {
    let build = |write_offset: u64| {
        let mut s = Scheduler::new();
        let (tensor, maps) = replicated_tensor(&mut s, (4, 8, 4), (3, 64, 1));
        let (hemisphere, index, base) = tensor.layout.blocks[0];
        let rows: Vec<u32> = (0..6).collect();
        let before = s.mem_free(hemisphere, index);
        let _ = stream_into_west(&mut s, &tensor, &maps, &rows);
        let end = s.mem_free(hemisphere, index);
        assert!(
            end >= before + rows.len() as u64,
            "the queue is held per row"
        );
        // A westward stream the gather does not use, written on the data
        // slice itself at `end − write_offset`: into the gathered (High) bank.
        let (stream, _) = s.pick_streams(
            Direction::West,
            1,
            end,
            Slice::mem(hemisphere, index).position(),
            &[],
        );
        let icu = IcuId::Mem { hemisphere, index };
        let op = MemOp::Write {
            addr: MemAddr::new(base + 31),
            stream: stream[0],
        };
        s.place(icu, end - write_offset, op);
        s
    };
    assert!(build(0).check().is_none(), "free the cycle the burst ends");
    let clash = build(1)
        .check()
        .expect("one queue, one instruction a cycle");
    assert!(clash.previous.contains("Repeat") || clash.previous.contains("Gather"));
}

/// The same contract for a stepped `Gather` and for a `Scatter`: each holds
/// its data slice's queue one cycle per vector, from its first dispatch, and
/// not a cycle longer; and every address of a map lies in the bank of the
/// block it was built for — the one bank the simulator charges the access to.
#[test]
fn stepped_gather_and_scatter_bursts_hold_their_slice_queue_exactly() {
    let vxm = Slice::Vxm.position();
    // Six vectors of a stride-2 pool's geometry: 5 groups, step 2.
    let keys: Vec<u32> = (0..6).map(|i| i * 10).collect();
    let build = |scatter: bool, write_offset: u64| {
        let mut s = Scheduler::new();
        let (tensor, maps) = replicated_tensor(&mut s, (6, 10, 6), (5, 64, 2));
        let (hemisphere, index, base) = tensor.layout.blocks[0];
        for (map, rows) in s.constants() {
            assert_eq!(map.cols, 2 * SUPERLANES as u16, "only maps so far");
            for addr in rows.iter().flat_map(|(_, row)| map_addresses(row)) {
                assert_eq!(addr.bank(), MemAddr::new(base).bank());
            }
        }
        let before = s.mem_free(hemisphere, index);
        if scatter {
            let (stream, ready) = s.pick_streams(Direction::East, 1, 0, vxm, &[]);
            let src = s
                .alloc
                .alloc_in(Some(Hemisphere::West), 6, 320, BankPolicy::High, 4096)
                .expect("an empty chip has room");
            let all: Vec<u32> = (0..6).collect();
            let t0 = s.earliest_read_arrival(&src, &all, Direction::East, vxm, ready);
            let t0 = s.earliest_scatter_start(&maps, &keys, Direction::East, vxm, t0, &stream);
            s.read_rows(&src, &all, stream[0], vxm, t0);
            s.scatter_rows(&maps, &keys, stream[0], vxm, t0);
        } else {
            let _ = stream_into_west(&mut s, &tensor, &maps, &keys);
        }
        let end = s.mem_free(hemisphere, index);
        assert!(end >= before + keys.len() as u64, "held per vector");
        // A stream neither burst uses, read on the data slice itself at
        // `end − write_offset` — from the other (Low) bank, which would be
        // legal beside the burst were the queue not single-issue.
        let pos = Slice::mem(hemisphere, index).position();
        let (stream, _) = s.pick_streams(Direction::West, 1, end, pos, &[]);
        let icu = IcuId::Mem { hemisphere, index };
        let op = MemOp::Read {
            addr: MemAddr::new(31),
            stream: stream[0],
        };
        s.place(icu, end - write_offset, op);
        s
    };
    for scatter in [false, true] {
        assert!(
            build(scatter, 0).check().is_none(),
            "free as the burst ends"
        );
        let clash = build(scatter, 1)
            .check()
            .expect("one queue, one instruction a cycle");
        let burst = if scatter { "Scatter" } else { "Gather" };
        assert!(clash.previous.contains("Repeat") || clash.previous.contains(burst));
    }
}
