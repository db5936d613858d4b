//! Ablation: how many of the 32-per-direction streams does a conv pipeline
//! actually need? We artificially disable stream ids and re-schedule; fewer
//! streams leave the weight, activation and result traffic fewer idle
//! windows to share.

use tsp::compiler::kernels::conv::alloc_feature_map;
use tsp::compiler::kernels::{conv2d, emplace_conv_weights, Conv2dParams};
use tsp::prelude::*;
use tsp_bench::fan_out;

fn measure(streams_available: u8) -> u64 {
    let mut sched = Scheduler::new();
    // Park the disabled stream ids forever, at the MXM their values leave
    // the chip by.
    for (dir, last) in [
        (Direction::East, Hemisphere::East),
        (Direction::West, Hemisphere::West),
    ] {
        let edge = Slice::Mxm(last).position();
        for id in streams_available..32 {
            sched.occupy_stream(StreamId::new(id, dir), edge, 0, u64::MAX / 2);
        }
    }
    let input = alloc_feature_map(&mut sched, 14, 14, 64, 1, Hemisphere::East, 4);
    let w: Vec<Vec<Vec<Vec<i8>>>> = vec![vec![vec![vec![1i8; 3]; 3]; 64]; 64];
    let weights = emplace_conv_weights(&mut sched, &w, 1);
    let params = Conv2dParams {
        stride: 1,
        pad: 1,
        requant_shift: 6,
        relu: true,
        out_hemisphere: Hemisphere::West,
        ..Conv2dParams::default()
    };
    let (_, done) = conv2d(&mut sched, &input, &weights, &params);
    done
}

fn main() {
    println!("# ablation: schedule length of a 3x3x64->64 conv vs streams per direction");
    println!("{:>18} {:>12}", "streams/direction", "cycles");
    let rows = fan_out(vec![32u8, 28, 24, 22, 20], |streams| {
        (streams, std::panic::catch_unwind(|| measure(streams)))
    });
    for (streams, result) in rows {
        match result {
            Ok(c) => println!("{streams:>18} {:>12}", c),
            Err(_) => println!(
                "{streams:>18} {:>12}",
                "infeasible" // the compiler cannot find conflict-free ports
            ),
        }
    }
    println!();
    println!("the MXM needs a 16-wide aligned group for LW plus activation and SG4");
    println!("result streams per concurrent plane. Every count here keeps one weight");
    println!("group (ids 0-15), and a weight load takes any idle window of it as long");
    println!("as its block's rows (4 cycles for these 64 outputs), so the four row-split");
    println!("plane chains still run together: fewer activation and result streams cost");
    println!("this conv at most a fifth, not a serialization.");
}
