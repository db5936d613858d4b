//! Element-wise kernels: streamed copies and point-wise VXM chains.
//!
//! Every kernel follows the paper's assembly-line discipline: operands are
//! read from MEM onto streams, intercepted at the VXM, and the results
//! written to MEM on the far side — one row per cycle at steady state, no
//! intermediate spills (paper §II-E).

use tsp_arch::{Direction, Hemisphere, Slice, StreamGroup};
use tsp_isa::{AluIndex, BinaryAluOp, DataType, UnaryAluOp, VxmOp, D_VXM};
use tsp_sim::IcuId;

use crate::alloc::BankPolicy;
use crate::sched::Scheduler;
use crate::tensor::TensorHandle;

/// The hemisphere a tensor lives in.
///
/// # Panics
///
/// Panics if the tensor spans both hemispheres (kernels require one-side
/// allocation for single-stream bursts; allocate with `alloc_in`).
#[must_use]
pub fn tensor_hemisphere(t: &TensorHandle) -> Hemisphere {
    let mut it = t.layout.slices();
    let (h, _) = it.next().expect("tensor has at least one block");
    for (h2, _) in it {
        assert_eq!(h, h2, "tensor spans both hemispheres");
    }
    h
}

/// Schedules a point-wise VXM chain over every row of the `inputs` (all the
/// same row count), producing a fresh output tensor in `out_hemisphere`.
///
/// `make_op` receives the chosen operand stream groups, the result group and
/// the ALU, and returns the VXM instruction to repeat row by row.
#[allow(clippy::too_many_arguments)]
fn ew_chain(
    s: &mut Scheduler,
    inputs: &[&TensorHandle],
    cols: u16,
    out_hemisphere: Hemisphere,
    out_policy: BankPolicy,
    not_before: u64,
    out_replicas: u8,
    post_relu: bool,
    make_op: impl FnOnce(&[StreamGroup], StreamGroup, AluIndex) -> VxmOp,
) -> (Vec<TensorHandle>, u64) {
    let n = inputs[0].rows;
    assert!(inputs.iter().all(|t| t.rows == n), "row count mismatch");
    let rows: Vec<u32> = (0..n).collect();
    let vxm = Slice::Vxm.position();

    // Choose operand streams (one per input, inward from its hemisphere),
    // excluding ids already claimed in the same direction.
    let mut t0 = not_before;
    let mut groups = Vec::new();
    let mut claimed_e: Vec<u8> = Vec::new();
    let mut claimed_w: Vec<u8> = Vec::new();
    let claim = |dir: Direction, id: u8, e: &mut Vec<u8>, w: &mut Vec<u8>| match dir {
        Direction::East => e.push(id),
        Direction::West => w.push(id),
    };
    for input in inputs {
        let dir = Direction::inward_from(tensor_hemisphere(input));
        let exclude = match dir {
            Direction::East => claimed_e.clone(),
            Direction::West => claimed_w.clone(),
        };
        let (streams, ready) = s.take_streams_excluding(dir, 1, t0, vxm, &exclude);
        t0 = ready;
        claim(dir, streams[0].id, &mut claimed_e, &mut claimed_w);
        groups.push(StreamGroup::new(streams[0], 1));
    }
    // Result stream flows outward into the output hemisphere; a chained
    // post-ReLU needs a second stream in the same direction.
    let out_dir = Direction::outward_from(out_hemisphere);
    let mut exclude = match out_dir {
        Direction::East => claimed_e.clone(),
        Direction::West => claimed_w.clone(),
    };
    let (out_streams, ready) = s.take_streams_excluding(out_dir, 1, t0 + D_VXM, vxm, &exclude);
    t0 = ready - D_VXM;
    let dst_group = StreamGroup::new(out_streams[0], 1);
    exclude.push(dst_group.base.id);
    let relu_group = if post_relu {
        let (streams, ready) = s.take_streams_excluding(out_dir, 1, t0 + 2 * D_VXM, vxm, &exclude);
        t0 = ready - 2 * D_VXM;
        Some(StreamGroup::new(streams[0], 1))
    } else {
        None
    };
    let write_delay = if post_relu { 2 * D_VXM } else { D_VXM };

    // An ALU for the op and, one stage later, another for the ReLU.
    t0 = s.alu_chain_free(t0, 1 + usize::from(post_relu));
    for input in inputs {
        let dir = Direction::inward_from(tensor_hemisphere(input));
        t0 = s.earliest_read_arrival(input, &rows, dir, vxm, t0);
    }

    // Allocate outputs before placing anything: if no slices have free
    // write ports by t0 + D_VXM, push the whole chain later and retry.
    // The kernel's *own* operand reads are scheduled after this allocation,
    // so their slices must be excluded explicitly (the write lands only
    // D_VXM + transit cycles behind the reads on any shared slice).
    let input_slices: Vec<(Hemisphere, u8)> =
        inputs.iter().flat_map(|t| t.layout.slices()).collect();
    let mut dsts: Vec<TensorHandle> = Vec::new();
    let mut avoid: Vec<(Hemisphere, u8)> = input_slices.clone();
    'alloc: loop {
        for _ in dsts.len()..usize::from(out_replicas.max(1)) {
            match s.try_alloc_for_write(
                Some(out_hemisphere),
                n,
                cols,
                out_policy,
                4096,
                t0 + write_delay,
                &avoid,
            ) {
                Some(t) => {
                    avoid.extend(t.layout.slices());
                    dsts.push(t);
                }
                None => {
                    // Wait for the soonest eligible port and retry.
                    t0 = s.port_quantile(out_hemisphere, 0.25).max(t0 + 1);
                    for d in dsts.drain(..) {
                        s.alloc.free(&d);
                    }
                    avoid = input_slices.clone();
                    for input in inputs {
                        let dir = Direction::inward_from(tensor_hemisphere(input));
                        t0 = s.earliest_read_arrival(input, &rows, dir, vxm, t0);
                    }
                    continue 'alloc;
                }
            }
        }
        break;
    }

    // Stream operands in.
    for (input, group) in inputs.iter().zip(&groups) {
        s.read_rows(input, &rows, group.base, vxm, t0);
    }
    // The repeated ALU op.
    let (alu, ready) = s.pick_alu(t0);
    debug_assert_eq!(ready, t0, "priced by alu_chain_free");
    let op = make_op(&groups, dst_group, alu);
    s.place_burst(IcuId::Vxm { alu }, t0, u64::from(n), op);
    s.occupy_stream(dst_group.base, vxm, t0 + D_VXM + u64::from(n));

    // Optional chained ReLU: consumes the result stream at its birth
    // position (the VXM) on a second ALU — no memory round trip (§II-E).
    let final_group = if let Some(rg) = relu_group {
        let (relu_alu, ready) = s.pick_alu(t0 + D_VXM);
        debug_assert_eq!(ready, t0 + D_VXM, "priced by alu_chain_free");
        let relu = VxmOp::Unary {
            op: UnaryAluOp::Relu,
            dtype: DataType::Int8,
            src: dst_group,
            dst: rg,
            alu: relu_alu,
        };
        let icu = IcuId::Vxm { alu: relu_alu };
        s.place_burst(icu, t0 + D_VXM, u64::from(n), relu);
        rg
    } else {
        dst_group
    };

    // Results out: each replica taps the same flowing stream.
    for dst in &dsts {
        s.write_rows(dst, 0, n, final_group.base, vxm, t0 + write_delay);
    }
    let done = t0 + write_delay + u64::from(n);
    s.note_completion(done);
    (dsts, done)
}

/// Copies a tensor into `out_hemisphere` (through a VXM `mask` pass-through —
/// one row per cycle). Used for replication so several consumers can stream
/// the same data concurrently from different read ports.
pub fn copy(
    s: &mut Scheduler,
    src: &TensorHandle,
    out_hemisphere: Hemisphere,
    out_policy: BankPolicy,
    not_before: u64,
) -> (TensorHandle, u64) {
    let cols = src.cols;
    let (mut v, t) = ew_chain(
        s,
        &[src],
        cols,
        out_hemisphere,
        out_policy,
        not_before,
        1,
        false,
        |srcs, dst, alu| VxmOp::Unary {
            op: UnaryAluOp::Mask,
            dtype: DataType::Int8,
            src: srcs[0],
            dst,
            alu,
        },
    );
    (v.remove(0), t)
}

/// Point-wise unary op over a tensor (`ReLU`, `negate`, …), int8.
pub fn unary_ew(
    s: &mut Scheduler,
    op: UnaryAluOp,
    src: &TensorHandle,
    out_hemisphere: Hemisphere,
    out_policy: BankPolicy,
    not_before: u64,
) -> (TensorHandle, u64) {
    let cols = src.cols;
    let (mut v, t) = ew_chain(
        s,
        &[src],
        cols,
        out_hemisphere,
        out_policy,
        not_before,
        1,
        false,
        |srcs, dst, alu| VxmOp::Unary {
            op,
            dtype: DataType::Int8,
            src: srcs[0],
            dst,
            alu,
        },
    );
    (v.remove(0), t)
}

/// Point-wise binary op over two tensors (residual adds etc.), int8.
pub fn binary_ew(
    s: &mut Scheduler,
    op: BinaryAluOp,
    a: &TensorHandle,
    b: &TensorHandle,
    out_hemisphere: Hemisphere,
    out_policy: BankPolicy,
    not_before: u64,
) -> (TensorHandle, u64) {
    let (mut v, t) = binary_ew_fused(
        s,
        op,
        a,
        b,
        out_hemisphere,
        out_policy,
        not_before,
        1,
        false,
    );
    (v.remove(0), t)
}

/// [`binary_ew`] into `replicas` identical outputs, with an optional
/// **chained ReLU** on a second ALU — the residual `add + relu` of a ResNet
/// block as one pipelined pass (paper §II-E chaining; no intermediate memory
/// round trip).
#[allow(clippy::too_many_arguments)]
pub fn binary_ew_fused(
    s: &mut Scheduler,
    op: BinaryAluOp,
    a: &TensorHandle,
    b: &TensorHandle,
    out_hemisphere: Hemisphere,
    out_policy: BankPolicy,
    not_before: u64,
    replicas: u8,
    post_relu: bool,
) -> (Vec<TensorHandle>, u64) {
    let cols = a.cols.max(b.cols);
    ew_chain(
        s,
        &[a, b],
        cols,
        out_hemisphere,
        out_policy,
        not_before,
        replicas,
        post_relu,
        |srcs, dst, alu| VxmOp::Binary {
            op,
            dtype: DataType::Int8,
            a: srcs[0],
            b: srcs[1],
            dst,
            alu,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::hold_all_alus_but_the_first;
    use tsp_arch::{ChipConfig, Vector};
    use tsp_sim::chip::RunOptions;
    use tsp_sim::Chip;

    fn fill(chip: &mut Chip, t: &TensorHandle, f: impl Fn(u32, usize) -> u8) {
        for r in 0..t.rows {
            chip.memory.write(t.row(r), Vector::from_fn(|l| f(r, l)));
        }
    }

    #[test]
    fn copy_roundtrips_through_vxm() {
        let mut s = Scheduler::new();
        let src = s
            .alloc
            .alloc_in(Some(Hemisphere::East), 12, 320, BankPolicy::Low, 4096)
            .unwrap();
        let (dst, _) = copy(&mut s, &src, Hemisphere::West, BankPolicy::High, 0);
        let program = s.into_program().unwrap();

        let mut chip = Chip::new(ChipConfig::asic());
        fill(&mut chip, &src, |r, l| (r as u8).wrapping_add(l as u8));
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        for r in 0..12 {
            assert_eq!(
                chip.memory.read_unchecked(dst.row(r)),
                Vector::from_fn(|l| (r as u8).wrapping_add(l as u8)),
                "row {r}"
            );
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut s = Scheduler::new();
        let src = s
            .alloc
            .alloc_in(Some(Hemisphere::West), 4, 320, BankPolicy::Low, 4096)
            .unwrap();
        let (dst, _) = unary_ew(
            &mut s,
            UnaryAluOp::Relu,
            &src,
            Hemisphere::East,
            BankPolicy::High,
            0,
        );
        let program = s.into_program().unwrap();
        let mut chip = Chip::new(ChipConfig::asic());
        fill(&mut chip, &src, |_, l| (l as i16 - 160) as i8 as u8);
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        for r in 0..4 {
            let got = chip.memory.read_unchecked(dst.row(r));
            for l in 0..320 {
                let x = (l as i16 - 160) as i8;
                assert_eq!(got.lane(l) as i8, x.max(0), "lane {l}");
            }
        }
    }

    #[test]
    fn residual_add_two_tensors() {
        let mut s = Scheduler::new();
        let a = s
            .alloc
            .alloc_in(Some(Hemisphere::East), 6, 320, BankPolicy::Low, 4096)
            .unwrap();
        let b = s
            .alloc
            .alloc_in(Some(Hemisphere::West), 6, 320, BankPolicy::Low, 4096)
            .unwrap();
        let (dst, _) = binary_ew(
            &mut s,
            BinaryAluOp::AddSat,
            &a,
            &b,
            Hemisphere::East,
            BankPolicy::High,
            0,
        );
        let program = s.into_program().unwrap();
        let mut chip = Chip::new(ChipConfig::asic());
        fill(&mut chip, &a, |r, _| 10 + r as u8);
        fill(&mut chip, &b, |r, _| 100 + r as u8);
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        for r in 0..6 {
            assert_eq!(
                chip.memory.read_unchecked(dst.row(r)),
                Vector::splat(110 + 2 * r as u8),
                "row {r}"
            );
        }
    }

    /// A fused `add + relu` with one ALU free and the other fifteen held: the
    /// ReLU waits for an ALU of its own instead of double-booking the add's.
    #[test]
    fn chained_relu_waits_for_an_alu_of_its_own() {
        let mut s = Scheduler::new();
        hold_all_alus_but_the_first(&mut s);
        let mut alloc = |h| {
            s.alloc
                .alloc_in(Some(h), 6, 320, BankPolicy::Low, 4096)
                .unwrap()
        };
        let (a, b) = (alloc(Hemisphere::East), alloc(Hemisphere::West));
        let (dst, done) = binary_ew_fused(
            &mut s,
            BinaryAluOp::AddSat,
            &a,
            &b,
            Hemisphere::East,
            BankPolicy::High,
            0,
            1,
            true,
        );
        let program = s.into_program().expect("no queue double-booked");
        assert!(done >= 5_000, "the ReLU waited for a held ALU: done {done}");
        let mut chip = Chip::new(ChipConfig::asic());
        fill(&mut chip, &a, |r, l| (r as u8 * 40).wrapping_add(l as u8));
        fill(&mut chip, &b, |_, l| (l as i16 - 160) as i8 as u8);
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        for r in 0..6 {
            let got = chip.memory.read_unchecked(dst[0].row(r));
            for l in 0..320 {
                let x = (r as u8 * 40).wrapping_add(l as u8) as i8;
                let y = (l as i16 - 160) as i8;
                assert_eq!(
                    got.lane(l) as i8,
                    x.saturating_add(y).max(0),
                    "row {r} lane {l}"
                );
            }
        }
    }

    #[test]
    fn successive_kernels_share_the_chip_without_conflicts() {
        // Two copies back-to-back reuse streams/ALUs via the resource pool.
        let mut s = Scheduler::new();
        let src = s
            .alloc
            .alloc_in(Some(Hemisphere::East), 5, 320, BankPolicy::Low, 4096)
            .unwrap();
        let (mid, t1) = copy(&mut s, &src, Hemisphere::West, BankPolicy::High, 0);
        let (dst, _) = copy(&mut s, &mid, Hemisphere::East, BankPolicy::High, t1);
        let program = s.into_program().unwrap();
        let mut chip = Chip::new(ChipConfig::asic());
        fill(&mut chip, &src, |r, _| 7 * (r as u8 + 1));
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        for r in 0..5 {
            assert_eq!(
                chip.memory.read_unchecked(dst.row(r)),
                Vector::splat(7 * (r as u8 + 1))
            );
        }
    }
}
