//! E5 / Fig. 11 — the instruction schedule of a 3×3 max pool: concurrent
//! reads feeding a chained VXM max tree, writes committing downstream. (The
//! paper's figure uses transpose/rotate; our lowering uses the
//! shifted-row-stream equivalent — same dataflow shape: read fan-in →
//! switch/combine → write.)
//!
//! The input is written on chip by a 1×1 conv in `G` lane copies, so the pool
//! is **lane-packed**: every tap stream is a MEM `Gather` putting `G` output
//! pixels' taps side by side, the max tree pools `G` pixels per cycle, and a
//! MEM `Scatter` deals them back to their rows. The same pool over a
//! host-written map — a pixel per cycle — is scheduled beside it for scale.

use tsp::compiler::kernels::conv::alloc_feature_map;
use tsp::compiler::kernels::{
    conv2d, emplace_conv, max_pool, pixels_per_row, Conv2dParams, MaxPoolParams,
};
use tsp::compiler::viz;
use tsp::prelude::*;

const HW: u32 = 48;
const C: u32 = 32;

fn pool_params() -> MaxPoolParams {
    MaxPoolParams {
        kernel: 3,
        stride: 2,
        pad: 1,
        out_pad: 0,
        out_hemisphere: Hemisphere::West,
        out_replicas: 1,
        not_before: 0,
    }
}

fn main() {
    // A pixel per row: the pool of a host-written map, on a chip of its own.
    let mut plain = Scheduler::new();
    let input = alloc_feature_map(&mut plain, HW, HW, C, 1, Hemisphere::East, 9);
    let (unpacked, plain_done) = max_pool(&mut plain, &input, &pool_params());

    let mut sched = Scheduler::new();
    let host = alloc_feature_map(&mut sched, HW, HW, C, 0, Hemisphere::West, 4);
    let groups = pixels_per_row(C, unpacked.w);
    let identity = emplace_conv(
        &mut sched,
        (1, C, C),
        (1, 1, groups),
        (1, 1, &[]),
        |co, ci, _, _| i8::from(co == ci),
    );
    let producer = Conv2dParams {
        out_pad: 1,
        out_hemisphere: Hemisphere::East,
        out_replicas: 9,
        ..Conv2dParams::default()
    };
    let (input, start) = conv2d(&mut sched, &host, &identity, &producer);
    let (out, done) = max_pool(&mut sched, &input, &pool_params());
    let constants = sched.take_constants();
    let program = sched.into_program().expect("schedule");

    let mut chip = Chip::new(ChipConfig::asic());
    for (handle, rows) in &constants {
        for (r, v) in rows {
            chip.memory.write(handle.row(*r), v.clone());
        }
    }
    let report = chip
        .run(&program, &RunOptions::default())
        .expect("clean run");

    println!(
        "# E5 (Fig. 11): 3x3/2 max pool schedule, {HW}x{HW}x{C} -> {}x{}x{}",
        out.h, out.w, out.c
    );
    println!(
        "# lane-packed: {} pixels per VXM row, {} vectors for {} pixels; pool cycles {}..{} (sim ends {})",
        out.layout.lane_skew,
        out.h * out.w.div_ceil(out.layout.lane_skew),
        out.h * out.w,
        start,
        done,
        report.cycles
    );
    println!("# a pixel per row (host-written input): completed at cycle {plain_done}");
    println!();
    // From the first `Gather`: the map reads ahead of it look all alike.
    let listing = viz::render_listing(&program, start, done);
    let first = listing.lines().position(|l| l.contains("Gather"));
    println!("48 dispatches from the first gather (NOP timing glue elided):");
    println!("{}", listing.lines().next().expect("a header"));
    for line in listing
        .lines()
        .skip(first.expect("a packed pool gathers"))
        .take(48)
    {
        println!("{line}");
    }
    println!();
    println!("queue occupancy (1 column = 4 cycles): map reads and gather fan-in,");
    println!("staggered max tree on the VXM, scatter (and its map) trailing by the");
    println!("pipeline depth:");
    print!("{}", viz::render_gantt(&program, start, done + 16, 4));
    println!();
    println!(
        "steady state: {} pooled output pixels per cycle — the paper's full-bandwidth claim,",
        out.layout.lane_skew
    );
    println!("on all 320 lanes.");
}
