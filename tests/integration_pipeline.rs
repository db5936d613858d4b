//! Cross-crate integration: a multi-kernel pipeline (copy → matmul →
//! element-wise) compiled by `tsp-compiler`, executed by `tsp-sim`, verified
//! value-by-value.

use tsp::compiler::kernels::matmul::{matmul, MatmulOpts, WeightSet};
use tsp::prelude::*;

#[test]
fn copy_matmul_relu_pipeline() {
    let mut sched = Scheduler::new();
    let n = 6u32;
    let k = 10u16;
    let m = 7u32;

    // Source data lands in the East hemisphere, is copied West, multiplied
    // by an identity-ish matrix, and ReLU'd — three kernels sharing the chip.
    let src = sched
        .alloc
        .alloc_in(Some(Hemisphere::East), n, k, BankPolicy::Low, 4096)
        .unwrap();
    let (x, _) = copy(&mut sched, &src, Hemisphere::West, BankPolicy::High, 0);

    // Weights: w[c][c] = 2 on the diagonal (LW order).
    let mut wrows = Vec::with_capacity(320);
    for j in 0..16u32 {
        for r in 0..20u32 {
            let row = 16 * r + j;
            let mut v = Vector::ZERO;
            if row < m {
                v.set_lane(row as usize, 2);
            }
            wrows.push(v);
        }
    }
    let wh = sched.add_constant(wrows, k, BankPolicy::Low, 20);
    let wset = WeightSet {
        k: u32::from(k),
        m,
        parts: vec![vec![vec![wh]]],
    };
    let opts = MatmulOpts {
        requant_shift: 0,
        relu: true,
        out_hemisphere: Hemisphere::East,
        ..MatmulOpts::default()
    };
    let (outs, _) = matmul(&mut sched, &[vec![x]], &wset, &opts);

    let constants = sched.take_constants();
    let program = sched.into_program().expect("consistent schedule");
    let mut chip = Chip::new(ChipConfig::asic());
    for (h, rows) in &constants {
        for (r, v) in rows {
            chip.memory.write(h.row(*r), v.clone());
        }
    }
    for r in 0..n {
        chip.memory.write(
            src.row(r),
            Vector::from_fn(|l| {
                if l < usize::from(k) {
                    (r as i32 - 3) as i8 as u8
                } else {
                    0
                }
            }),
        );
    }
    chip.run(&program, &RunOptions::default())
        .expect("clean run");

    for r in 0..n {
        let got = chip.memory.read_unchecked(outs[0][0].row(r));
        let x_val = r as i32 - 3;
        for c in 0..m as usize {
            // y[c] = relu(2 * x[c]); x has the same value in every lane < k.
            let expect = if c < usize::from(k) {
                (2 * x_val).clamp(-128, 127).max(0) as u8
            } else {
                0
            };
            assert_eq!(got.lane(c), expect, "row {r} col {c}");
        }
    }
}
