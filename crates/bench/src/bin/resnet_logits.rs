//! `results/resnet_logits.txt`: every reported ResNet checked against the
//! host int8 reference. ResNet-50/101/152 at 224×224 are compiled, run
//! functionally on the simulator, and their logits compared with
//! `final_flat_q(run_int8(..))` — the gate that fails on a miscompile: the
//! bin exits 1 if any logit differs, and names the first graph node whose
//! activation differs (`first_divergence`, which compiles and runs every
//! graph prefix — only done when a logit differs; `-` otherwise).
//!
//! Also printed: the compiled and simulated cycles, and how many constants
//! the compiler placed in the High (activation) bank once the Low one was
//! full — the constants a miscompile that overwrites its own weights hits.

use tsp_arch::config::{BANKS_PER_SLICE, WORDS_PER_SLICE};
use tsp_arch::ChipConfig;
use tsp_bench::fan_out;
use tsp_bench::workloads::resnet_quant;
use tsp_nn::compile::{compile_cached, first_divergence, CompileOptions};
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_sim::chip::RunOptions;
use tsp_sim::Chip;

/// First word of a slice's High bank.
const HIGH_BANK: u16 = (WORDS_PER_SLICE / BANKS_PER_SLICE) as u16;

fn main() {
    println!("# ResNet batch-1 at 224x224: simulated logits vs the host int8 reference");
    println!();
    println!(
        "{:<12} {:>10} {:>10} {:>15} {:>16}  first diverging",
        "model", "compiled", "simulated", "high-bank const", "differing logits"
    );
    let rows = fan_out(vec![50u32, 101, 152], |depth| {
        let (q, image) = resnet_quant(depth);
        let model = compile_cached(&q, &CompileOptions::default());
        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        model.write_input(&mut chip, &image);
        let report = (chip.run(&model.program, &RunOptions::default()))
            .unwrap_or_else(|e| panic!("resnet{depth} must run cleanly: {e:?}"));
        let reference = run_int8(&q, &image);
        let differing = (model.read_logits(&chip).iter())
            .zip(final_flat_q(&reference))
            .filter(|(got, want)| got != want)
            .count();
        let high = (model.constants.iter())
            .filter(|(handle, _)| handle.layout.blocks.iter().any(|b| b.2 >= HIGH_BANK))
            .count();
        let diverging = (differing > 0)
            .then(|| first_divergence(&q, &image))
            .flatten()
            .map_or("-".to_string(), |(node, n)| format!("{node} ({n} values)"));
        (
            depth,
            model.cycles,
            report.cycles,
            high,
            differing,
            diverging,
        )
    });
    let mut failed = false;
    for (depth, compiled, simulated, high, differing, diverging) in rows {
        println!(
            "resnet{depth:<6} {compiled:>10} {simulated:>10} {high:>15} {differing:>16}  {diverging}"
        );
        failed |= differing > 0;
    }
    if failed {
        eprintln!("resnet_logits: a compiled ResNet disagrees with run_int8");
        std::process::exit(1);
    }
}
