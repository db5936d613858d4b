//! Element-wise kernels: streamed copies and point-wise VXM chains.
//!
//! Every kernel follows the paper's assembly-line discipline: operands are
//! read from MEM onto streams, intercepted at the VXM, and the results
//! written to MEM on the far side — one row per cycle at steady state, no
//! intermediate spills (paper §II-E).
//!
//! The inputs reach the VXM through the one VXM prologue, the op and a
//! chained ReLU are the requant epilogue's VXM stages, and the results land
//! through its writer, which allocates the outputs at write time (see
//! [`mod@crate::kernels::matmul`]): a chain streams its operands and lands
//! its rows the way a max pool or a conv does, and is retried later the way
//! a conv is when its ALUs, streams or write ports are busy.

use tsp_arch::{Direction, Hemisphere, StreamGroup};
use tsp_isa::{AluIndex, BinaryAluOp, DataType, UnaryAluOp, VxmOp, D_VXM};

use crate::alloc::BankPolicy;
use crate::kernels::matmul::{
    price_operands, stream_operands, vxm_stage, write_replicas, ActFeed, Operand, OutSpec,
};
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
/// same row count), producing `out_replicas` fresh output tensors in
/// `out_hemisphere`. The op and its optional chained ReLU are VXM stages
/// whose rows land the way a conv's do (`write_replicas`): an attempt that
/// finds its ALUs, streams or write ports busy is rolled back and retried
/// later ([`Scheduler::retry_later`]).
///
/// `make_op` receives the operand stream groups, the result group and the
/// ALU, and returns the VXM instruction to repeat row by row.
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
    make_op: impl Fn(&[StreamGroup], StreamGroup, AluIndex) -> VxmOp,
) -> (Vec<TensorHandle>, u64) {
    let n = inputs[0].rows;
    assert!(inputs.iter().all(|t| t.rows == n), "row count mismatch");
    let rows: Vec<u32> = (0..n).collect();
    let out_dir = Direction::outward_from(out_hemisphere);
    // The chain's own operand reads share no slice with its writes.
    let out = OutSpec {
        policy: out_policy,
        replicas: out_replicas,
        avoid: inputs.iter().flat_map(|t| t.layout.slices()).collect(),
        ..OutSpec::rows(n, cols, out_hemisphere)
    };
    let operands: Vec<Operand<'_>> = (inputs.iter())
        .map(|input| Operand {
            feed: ActFeed::Read(input),
            rows: &rows,
            lag: 0,
        })
        .collect();
    s.retry_later(out_hemisphere, not_before, |s, floor| {
        let (streams, t0) = price_operands(s, &operands, 1 + usize::from(post_relu), floor);
        stream_operands(s, &operands, &streams, t0);
        let groups: Vec<StreamGroup> = (streams.iter())
            .map(|&stream| StreamGroup::new(stream, 1))
            .collect();
        let n = u64::from(n);
        let mut result = vxm_stage(s, t0, n, out_dir, &|dst, alu| make_op(&groups, dst, alu))?;
        let mut t = t0 + D_VXM;
        if post_relu {
            let src = result;
            result = vxm_stage(s, t, n, out_dir, &|dst, alu| VxmOp::Unary {
                op: UnaryAluOp::Relu,
                dtype: DataType::Int8,
                src,
                dst,
                alu,
            })?;
            t += D_VXM;
        }
        write_replicas(s, result, t, n, &out)
    })
    .expect("even a fully-drained chip must have ports")
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
    use crate::kernels::testing::{hold_all_alus_but_the_first, west_weight_windows};
    use tsp_arch::{ChipConfig, Vector};
    use tsp_isa::IcuOp;
    use tsp_sim::chip::RunOptions;
    use tsp_sim::Chip;
    use tsp_sim::IcuId;

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

    /// An add into East with every East slice but its operand's busy until
    /// cycle 3,000: the chain is rolled back and pushed past the held ports
    /// rather than writing into them, and lands its sums as soon as they
    /// free.
    #[test]
    fn busy_output_ports_push_the_chain_later() {
        let mut s = Scheduler::new();
        let mut alloc = |h| {
            s.alloc
                .alloc_in(Some(h), 6, 320, BankPolicy::Low, 4096)
                .unwrap()
        };
        let (a, b) = (alloc(Hemisphere::East), alloc(Hemisphere::West));
        let operand: Vec<(Hemisphere, u8)> = a.layout.slices().collect();
        for sl in 0..tsp_arch::MEM_SLICES_PER_HEMISPHERE {
            if !operand.contains(&(Hemisphere::East, sl)) {
                s.occupy_mem(Hemisphere::East, sl, 3_000);
            }
        }
        let (dst, done) = binary_ew(
            &mut s,
            BinaryAluOp::AddSat,
            &a,
            &b,
            Hemisphere::East,
            BankPolicy::High,
            0,
        );
        assert!((3_000..=3_010).contains(&done), "done at {done}");
        assert_eq!(s.rollbacks(), 1, "one attempt found the ports held");
        let program = s.into_program().expect("no queue double-booked");
        let mut chip = Chip::new(ChipConfig::asic());
        fill(&mut chip, &a, |r, l| {
            (r as u8).wrapping_mul(3).wrapping_add(l as u8)
        });
        fill(&mut chip, &b, |r, _| 50 + r as u8);
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        for r in 0..6 {
            let got = chip.memory.read_unchecked(dst.row(r));
            for l in 0..320 {
                let x = (r as u8).wrapping_mul(3).wrapping_add(l as u8) as i8;
                let y = (50 + r) as i8;
                assert_eq!(got.lane(l) as i8, x.saturating_add(y), "row {r} lane {l}");
            }
        }
    }

    /// An add asked for at cycle 300 whose ALUs are all held until cycle
    /// 1,000 books its operand streams only for their bursts, from cycle
    /// 1,000: a weight group that needs the westward operand's stream before
    /// then still gets it.
    #[test]
    fn operand_streams_are_booked_only_for_their_bursts() {
        let mut s = Scheduler::new();
        for alu in (0..AluIndex::COUNT).map(AluIndex::new) {
            s.place(IcuId::Vxm { alu }, 0, IcuOp::Nop { count: 1_000 });
        }
        let mut alloc = |h| {
            s.alloc
                .alloc_in(Some(h), 6, 320, BankPolicy::Low, 4096)
                .unwrap()
        };
        let (a, b) = (alloc(Hemisphere::East), alloc(Hemisphere::West));
        let probe = west_weight_windows(&mut s, 600);
        let before = probe(&s);
        let (_, done) = binary_ew(
            &mut s,
            BinaryAluOp::AddSat,
            &a,
            &b,
            Hemisphere::East,
            BankPolicy::High,
            300,
        );
        assert!(done > 1_000, "done at {done}");
        let after = probe(&s);
        let moved = (before.iter().zip(&after).enumerate()).find(|(_, (b, a))| b != a);
        assert_eq!(moved, None, "no operand stream booked before its burst");
        assert!(s.check().is_none());
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
