//! Timing never depends on data (paper §II): a compiled model run
//! timing-only (`RunOptions { functional: false }`, which moves no data)
//! reports what its functional run reports — cycles, instruction and NOP
//! counts, telemetry, bandwidth and layer slices — and a chip that ran one
//! kind of run, restored as any rerun is (`CompiledModel::restore`), runs
//! the other as a fresh chip does, logits included.

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, CompileOptions, CompiledModel};
use tsp_nn::data::synthetic;
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::resnet::{resnet, Widths};
use tsp_nn::train::small_cnn;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::Chip;

/// A run's report and the logits it left.
type Run = (RunReport, Vec<i8>);

fn run_on(model: &CompiledModel, chip: &mut Chip, image: &[i8], functional: bool) -> Run {
    model.write_input(chip, image);
    let options = RunOptions {
        functional,
        layers: model.layer_marks(),
        ..RunOptions::default()
    };
    let report = chip
        .run_decoded(&model.decoded(), &options)
        .expect("clean run");
    (report, model.read_logits(chip))
}

fn assert_same_timing(got: &RunReport, want: &RunReport, what: &str) {
    assert_eq!(got.cycles, want.cycles, "{what}: cycles");
    assert_eq!(got.instructions, want.instructions, "{what}: instructions");
    assert_eq!(got.nops, want.nops, "{what}: NOPs");
    assert_eq!(got.telemetry, want.telemetry, "{what}: telemetry");
    assert_eq!(got.bandwidth, want.bandwidth, "{what}: bandwidth");
    assert_eq!(got.layers, want.layers, "{what}: layer slices");
}

/// `image` through `q`'s compiled program: functional and timing-only on
/// fresh chips, then timing-only and functional again on the functional
/// run's chip, restored before each.
fn parity_holds(q: &QuantGraph, image: &[i8]) {
    let model = compile(q, &CompileOptions::default());
    let fresh = || {
        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        chip
    };
    let mut chip = fresh();
    let (functional, logits) = run_on(&model, &mut chip, image, true);
    let (timing, _) = run_on(&model, &mut fresh(), image, false);
    assert_same_timing(&timing, &functional, "timing-only");
    // Teeth: the counters compared are the run's, not zeros.
    let t = &functional.telemetry;
    assert!(t.mxm_macc_waves.iter().sum::<u64>() > 0, "MACC waves");
    assert!(t.mem_reads_pristine > 0 && t.stream_high_water > 0);
    assert_eq!(functional.layers.len(), model.layer_spans.len());

    for (functional_run, what) in [
        (false, "timing-only after functional"),
        (true, "functional after timing-only"),
    ] {
        chip = model.restore(chip.config, chip.memory);
        let (report, got) = run_on(&model, &mut chip, image, functional_run);
        assert_same_timing(&report, &functional, what);
        if functional_run {
            assert_eq!(got, logits, "{what}: logits");
        }
    }
}

#[test]
fn small_cnn_timing_only_matches_functional() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    parity_holds(&q, &q.quantize_image(&data.images[0]));
}

#[test]
fn resnet50_at_32_timing_only_matches_functional() {
    let (g, params) = resnet(50, 32, 1000, &Widths::standard(), 0xC0FFEE);
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);
    parity_holds(&q, &q.quantize_image(&data.images[0]));
}

/// The benchmark's ResNet-50 at 224×224; seconds in release, run by CI's
/// "Compiled programs are unmoved" step.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimized: run with --release")]
fn resnet50_at_224_timing_only_matches_functional() {
    let data = synthetic(3, 224, 224, 3, 2, 1);
    let (g, params) = resnet(50, 224, 1000, &Widths::standard(), 7);
    let q = quantize(&g, &params, &data.images[..1]);
    parity_holds(&q, &q.quantize_image(&data.images[0]));
}
