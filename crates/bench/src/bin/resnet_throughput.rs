//! E7 / §IV-F — ResNet-50/101/152 batch-1 inference latency and throughput
//! (paper: ResNet-50 at 20.4K IPS, < 49 µs; 101/152 projected to the cycle).
//!
//! The compiled schedule *is* the runtime on deterministic hardware; we
//! additionally execute ResNet-50 on the simulator in timing mode to confirm
//! the compiler's cycle count, then derive IPS at the nominal 900 MHz clock
//! and the paper's 1 GHz exposition clock.

use tsp_arch::ChipConfig;
use tsp_bench::fan_out;
use tsp_bench::workloads::resnet_model;
use tsp_sim::chip::RunOptions;
use tsp_sim::Chip;

fn main() {
    println!("# E7: ResNet batch-1 inference on the simulated TSP");
    println!("# paper: ResNet-50 20.4K IPS < 49us; ResNet-101 14.3K; ResNet-152 10.7K");
    println!();
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10}",
        "model", "cycles", "us@900MHz", "IPS@900MHz", "IPS@1GHz"
    );

    // The three depths are independent: build, quantize, compile and (for
    // ResNet-50) simulate on parallel host threads, then print in order.
    let rows = fan_out(vec![50u32, 101, 152], |depth| {
        let (model, qi) = resnet_model(depth);

        // Confirm the predicted cycle count on the simulator (timing mode)
        // for ResNet-50; deeper nets reuse the compiler's deterministic
        // projection, as the paper does (§IV-F).
        let cycles = if depth == 50 {
            let mut chip = Chip::new(ChipConfig::asic());
            model.load_constants(&mut chip);
            model.write_input(&mut chip, &qi);
            let report = chip
                .run(
                    &model.program,
                    &RunOptions {
                        functional: false,
                        ..RunOptions::default()
                    },
                )
                .expect("resnet50 must run cleanly");
            // The compiler's completion bookkeeping is a (tight) upper
            // bound; the simulated count is authoritative and must agree to
            // within a couple of cycles — and be identical run to run.
            assert!(
                report.cycles <= model.cycles && model.cycles - report.cycles <= 4,
                "simulator {} vs compiler prediction {}",
                report.cycles,
                model.cycles
            );
            report.cycles
        } else {
            model.cycles
        };
        (depth, cycles)
    });

    for (depth, cycles) in rows {
        let us_900 = cycles as f64 / 900e6 * 1e6;
        let ips_900 = 900e6 / cycles as f64;
        let ips_1g = 1e9 / cycles as f64;
        println!("resnet{depth:<6} {cycles:>12} {us_900:>10.1} {ips_900:>10.0} {ips_1g:>10.0}");
    }
}
