//! Writing a custom kernel against the scheduler primitives: a fused
//! `y = relu(A.x)` kernel built from a raw MXM plane chain plus a chained
//! VXM epilogue — the paper's §II-E "chaining functional slices" in user
//! code, without going through the NN front end.
//!
//! Run with: `cargo run -p tsp --example custom_kernel`

use tsp::compiler::alloc::BankPolicy;
use tsp::compiler::kernels::matmul::{schedule_requant_write, ActFeed, OutSpec, PlaneChainBuilder};
use tsp::isa::Plane;
use tsp::prelude::*;

fn main() {
    let mut sched = Scheduler::new();
    let n = 16u32; // activation rows
    let k = 32u16; // input features
    let m = 24u32; // output features

    // Weights in "LW order": handle row j*20 + r feeds stream j on install
    // cycle r, i.e. array row 16r + j (see tsp-compiler's matmul docs).
    let mut wrows = Vec::with_capacity(320);
    for j in 0..16u32 {
        for r in 0..20u32 {
            let row = 16 * r + j;
            let mut v = Vector::ZERO;
            if row < m {
                for lane in 0..k {
                    v.set_lane(lane as usize, ((row + u32::from(lane)) % 5) as u8);
                }
            }
            wrows.push(v);
        }
    }
    let weights = sched.add_constant(wrows, k, BankPolicy::Low, 20);
    let x = sched
        .alloc
        .alloc_in(Some(Hemisphere::West), n, k, BankPolicy::High, 4096)
        .expect("alloc x");

    // 1) Stream weights in, install, stream activations through (plane 2).
    let rows: Vec<u32> = (0..n).collect();
    let mut chain = PlaneChainBuilder::new(&sched, Plane::new(2), u64::from(n), 0);
    PlaneChainBuilder::install(&mut sched, &weights, std::slice::from_mut(&mut chain));
    chain.feed(&mut sched, ActFeed::Read(&x), &rows);
    let int32 = chain.finish();
    // 2) Chain the int32 results through the VXM: requantize (>>2) + ReLU,
    //    then write every row to memory — no intermediate spills.
    let spec = OutSpec::rows(n, m.min(320) as u16, Hemisphere::West);
    let (outs, done) =
        schedule_requant_write(&mut sched, int32, u64::from(n), 2, true, None, &spec)
            .expect("ports available");
    // Execute with the host-emplaced constants (the weights) and the input:
    // in a full flow `CompiledModel` does this.
    let constants = sched.take_constants();
    let program = sched.into_program().expect("consistent schedule");
    let mut chip = Chip::new(ChipConfig::asic());
    for (handle, rows) in constants {
        for (r, v) in rows {
            chip.memory.write(handle.row(r), v);
        }
    }
    for row in 0..n {
        chip.memory.write(
            x.row(row),
            Vector::from_fn(|l| if l < k as usize { 1 } else { 0 }),
        );
    }
    let report = chip
        .run(&program, &RunOptions::default())
        .expect("clean run");

    // Verify one output: y[row][c] = relu(round(sum_k w[c][k] / 4)).
    let y0 = chip.memory.read_unchecked(outs[0].row(0));
    let expect_c0: i64 = (0..u32::from(k)).map(|l| i64::from(l % 5)).sum();
    let expect = ((expect_c0 + 2) >> 2).clamp(0, 127) as i8;
    assert_eq!(y0.lane(0) as i8, expect);
    println!(
        "fused matmul+requant+relu over {n} rows finished at cycle {done} \
         (simulated: {} cycles), y[0][0] = {}",
        report.cycles,
        y0.lane(0) as i8
    );
}
