//! E7b / §I, §V — the cross-accelerator comparison: batch-1 latency and
//! throughput of the simulated TSP against the TPUv3-class, Goya-class and
//! V100-class analytic baselines (parameterised from the figures the paper
//! cites), plus throughput-vs-batch to show the crossover: batch-pipelined
//! designs need large batches; the TSP peaks at batch 1.

use tsp::baseline::{goya_class, tpu_v3_class, v100_class};
use tsp_bench::workloads::resnet_model;

fn main() {
    // Our simulated TSP's ResNet-50 batch-1 number (compiler-predicted; the
    // prediction is simulator-verified in `resnet_throughput`).
    let (model, _) = resnet_model(50);
    let tsp_us = model.cycles as f64 / 900e6 * 1e6;
    let tsp_ips = 1e6 / tsp_us;

    println!("# E7b: ResNet-50 batch-1 comparison (paper §V)");
    println!();
    println!(
        "{:<22} {:>14} {:>12}",
        "accelerator", "batch-1 us", "batch-1 IPS"
    );
    println!(
        "{:<22} {:>14.1} {:>12.0}   (paper's TSP: 49 us / 20.4K IPS)",
        "TSP (this repo, sim)", tsp_us, tsp_ips
    );
    for b in [goya_class(), tpu_v3_class(), v100_class()] {
        println!(
            "{:<22} {:>14.1} {:>12.0}",
            b.name,
            b.batch1_latency_us,
            1e6 / b.batch1_latency_us
        );
    }
    println!();
    println!("shape checks (the paper's claims, on our numbers):");
    let goya = goya_class();
    println!(
        "  TSP beats Goya-class at batch 1 by {:.1}x (paper: ~5x at 49 us vs 240 us)",
        goya.batch1_latency_us / tsp_us
    );
    let tpu = tpu_v3_class();
    println!(
        "  TSP batch-1 IPS vs TPUv3-class large-batch IPS: {:.2}x (paper: 2.5x)",
        tsp_ips / tpu.ips_at_batch(1024.0)
    );
    println!();
    println!("throughput vs batch (IPS):");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "batch", "TSP", "TPUv3", "Goya", "V100"
    );
    for &batch in &[1.0f64, 4.0, 16.0, 64.0, 256.0] {
        println!(
            "{batch:>8} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            tsp_ips, // batch-insensitive: deterministic batch-1 pipeline
            tpu_v3_class().ips_at_batch(batch),
            goya_class().ips_at_batch(batch),
            v100_class().ips_at_batch(batch)
        );
    }
    println!();
    println!("the TSP row is flat: no pipeline to fill, every query sees the same");
    println!("deterministic latency — the paper's batch-size-1 design point.");
}
