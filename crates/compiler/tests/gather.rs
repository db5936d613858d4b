//! `Scheduler::gather_rows` against `Scheduler::read_rows`, on the simulator:
//! a gather through map row `r` yields, lane group by lane group, what plain
//! reads of rows `r, r+1, …` yield — and it reserves the data slice's queue
//! for exactly the cycles the simulator dispatches it.

use proptest::prelude::*;
use tsp_arch::{ChipConfig, Direction, Hemisphere, Slice, Vector, SUPERLANES};
use tsp_compiler::alloc::BankPolicy;
use tsp_compiler::sched::GatherMap;
use tsp_compiler::{Scheduler, TensorHandle};
use tsp_isa::{MemAddr, MemOp};
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, IcuId};

/// A `height`-padded-row tensor of `pw`-pixel rows in the East hemisphere,
/// cut into blocks of `block_rows` whole padded rows, with one gather map per
/// block covering all of it.
fn replicated_tensor(
    s: &mut Scheduler,
    (height, pw, block_rows): (u32, u32, u32),
    lanes: (u32, u32),
) -> (TensorHandle, Vec<GatherMap>) {
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
    let avoid: Vec<_> = tensor.layout.slices().collect();
    let maps = (0..tensor.rows)
        .step_by(per_block as usize)
        .map(|first| {
            let count = per_block.min(tensor.rows - first);
            s.add_gather_map(&tensor, (first, count), lanes, &avoid)
        })
        .collect();
    (tensor, maps)
}

/// Streams `rows` of `tensor` westward past the VXM into a fresh West tensor
/// — gathered through `maps`, or plainly read when there are none — and
/// returns it.
fn stream_into_west(
    s: &mut Scheduler,
    tensor: &TensorHandle,
    maps: &[GatherMap],
    rows: &[u32],
) -> TensorHandle {
    let vxm = Slice::Vxm.position();
    let n = rows.len() as u32;
    let dst = s
        .alloc
        .alloc_in(Some(Hemisphere::West), n, 320, BankPolicy::High, 4096)
        .expect("an empty chip has room");
    let (stream, ready) = s.take_streams(Direction::West, 1, 0, vxm);
    let ready = ready.max(s.mem_free_tensor(&dst));
    if maps.is_empty() {
        let t0 = s.earliest_read_arrival(tensor, rows, Direction::West, vxm, ready);
        s.read_rows(tensor, rows, stream[0], vxm, t0);
        s.write_rows(&dst, 0, n, stream[0], vxm, t0);
    } else {
        let t0 = s.earliest_gather_arrival(tensor, maps, rows, Direction::West, vxm, ready);
        s.gather_rows(tensor, maps, rows, stream[0], vxm, t0);
        s.write_rows(&dst, 0, n, stream[0], vxm, t0);
    }
    dst
}

proptest! {
    /// Random geometry (taps, lane-group width, row length, block cut),
    /// random full-range data, a random row list in any order, crossing
    /// blocks: superlane `s` of gathered row `r` equals superlane `s` of
    /// plainly read row `r + t`, `t` the lane group `s` falls in (0 past the
    /// last tap).
    #[test]
    fn gather_equals_reads_lane_group_by_lane_group(
        seed in any::<u64>(),
        taps in 2u32..6,
        group_superlanes in 1u32..5,
        height in 2u32..7,
        block_rows in 1u32..4,
        slack in 0u32..6,
        picks in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        prop_assume!(taps * group_superlanes <= SUPERLANES as u32);
        let pw = taps + slack;
        let mut s = Scheduler::new();
        let lanes = (taps, 16 * group_superlanes);
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
                let shifted: Vec<u32> = rows.iter().map(|r| r + t).collect();
                stream_into_west(&mut s, &tensor, &[], &shifted)
            })
            .collect();

        let constants = s.take_constants();
        let program = s.into_program().expect("valid schedule");
        let mut chip = Chip::new(ChipConfig::asic());
        for (handle, vectors) in &constants {
            for (r, v) in vectors.iter().enumerate() {
                chip.memory.write(handle.row(r as u32), v.clone());
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
}

/// The compiler reserves for a gather what the simulator charges: the data
/// slice's single-issue queue, one cycle per gathered row (DESIGN.md §2).
/// A `Write` to the slice is legal the cycle the burst ends — whichever bank
/// it targets — and a contradiction one cycle earlier.
#[test]
fn a_gather_burst_holds_its_slice_queue_exactly_as_long_as_it_dispatches() {
    let build = |write_offset: u64| {
        let mut s = Scheduler::new();
        let (tensor, maps) = replicated_tensor(&mut s, (4, 8, 4), (3, 64));
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
        let (stream, _) = s.take_streams(
            Direction::West,
            1,
            end,
            Slice::mem(hemisphere, index).position(),
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
