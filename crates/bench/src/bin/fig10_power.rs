//! E4 / Fig. 10 — power usage for ResNet-50, layer by layer: spikes where
//! four MXM planes run simultaneous conv2d passes, troughs on the
//! element-wise/pooling layers.

use tsp::prelude::*;
use tsp_bench::workloads::resnet_model;
use tsp_power::EnergyModel;

fn main() {
    println!("# E4 (Fig. 10): ResNet-50 per-layer power (activity-based model)");
    let (model, qi) = resnet_model(50);

    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    model.write_input(&mut chip, &qi);
    let report = chip
        .run(
            &model.program,
            &RunOptions {
                trace: true,
                functional: false,
                ..RunOptions::default()
            },
        )
        .expect("clean run");

    let energy = EnergyModel::default();
    let clock = 900e6;
    let spans: Vec<(u64, u64)> = (model.layer_spans.iter())
        .map(|s| (s.start, s.end))
        .collect();
    let watts = energy.span_watts(report.trace.events(), &spans, clock);

    let avg = energy.average_watts(report.trace.events(), report.cycles, clock);
    println!(
        "whole-inference average: {avg:.0} W over {} cycles",
        report.cycles
    );
    println!(
        "total energy: {:.3} J/inference",
        energy.total_energy_j(report.trace.events())
    );
    println!();
    println!("{:<14} {:>10} {:>8}  power", "layer", "cycles", "watts");
    let wmax = watts.iter().cloned().fold(0.0f64, f64::max);
    for (span, w) in model.layer_spans.iter().zip(&watts) {
        // No cycles of its own (the input; an add fused into its conv): no
        // power to average.
        if span.end == span.start {
            println!("{:<14} {:>10} {:>8}", span.name, 0, "-");
            continue;
        }
        let bar = "#".repeat((w / wmax * 40.0) as usize);
        println!(
            "{:<14} {:>10} {:>8.0}  {bar}",
            span.name,
            span.end - span.start,
            w
        );
    }
    println!();
    println!("spikes align with the 3x3 convolutions running plane-parallel offset");
    println!("passes — the paper's 'four simultaneous conv2d operations' regime.");
}
