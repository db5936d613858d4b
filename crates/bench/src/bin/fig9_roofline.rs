//! E3 / Fig. 9 — the roofline: achieved arithmetic throughput vs operational
//! intensity, sweeping the weight-reuse factor of a 320×320 matmul. Low
//! reuse is bound by weight (memory) traffic — the sloped region; high reuse
//! saturates toward the 820 TeraOp/s MXM peak (one plane = 205 TeraOp/s).

use tsp::prelude::*;
use tsp_bench::fan_out;
use tsp_bench::workloads::roofline_program;

/// Cycles to install one plane's weights and stream `rows` activations.
fn measure(rows: u32, planes: u8) -> u64 {
    let program = roofline_program(rows, planes);
    let mut chip = Chip::new(ChipConfig::paper_1ghz());
    let report = chip
        .run(
            &program,
            &RunOptions {
                functional: false,
                ..RunOptions::default()
            },
        )
        .expect("clean run");
    report.cycles
}

fn main() {
    println!("# E3 (Fig. 9): roofline at 1 GHz — ops/byte vs achieved TeraOps/s");
    println!("# one 320x320 weight set per plane, reused over `rows` activation rows");
    println!();
    println!(
        "{:>6} {:>7} | {:>10} {:>12} {:>12} {:>10}",
        "rows", "planes", "ops/byte", "cycles", "TeraOps/s", "% of peak"
    );
    let peak = ChipConfig::paper_1ghz().peak_int8_ops();
    let mut points = Vec::new();
    for &planes in &[1u8, 4] {
        for &rows in &[4u32, 16, 64, 256, 1024, 4096] {
            points.push((rows, planes));
        }
    }
    let measured = fan_out(points, |(rows, planes)| {
        (rows, planes, measure(rows, planes))
    });
    for (rows, planes, cycles) in measured {
        let ops = f64::from(planes) * f64::from(rows) * 320.0 * 320.0 * 2.0;
        let bytes = f64::from(planes)
            * (320.0 * 320.0 + f64::from(rows) * 320.0 + f64::from(rows) * 1280.0);
        let tput = ops / (cycles as f64 / 1e9);
        println!(
            "{rows:>6} {planes:>7} | {:>10.2} {cycles:>12} {:>12.1} {:>9.1}%",
            ops / bytes,
            tput / 1e12,
            tput / peak * 100.0
        );
    }
    println!();
    println!("peak (4 planes, Eq. in §VII): {:.1} TeraOps/s", peak / 1e12);
    println!("the knee sits where activation streaming (1 row/cycle/plane) overtakes");
    println!("the fixed weight-install cost — the paper's memory-bound slope.");
}
