//! The re-run contract (`tsp_compiler::rerun`): a model run again on the chip
//! it just ran on, after `CompiledModel::restore`, reports the same cycles,
//! telemetry and logits as the same input on a fresh chip — the residency
//! `tsp-serve` builds on. The restore is needed (leave its rows out and the
//! logits move), and the fresh rows the compiler records are all a program
//! needs as a fresh chip has them.

use tsp_arch::{ChipConfig, Vector};
use tsp_nn::compile::{compile, CompileOptions, CompiledModel};
use tsp_nn::data::synthetic;
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::resnet::{resnet, resnet_tiny, Widths};
use tsp_nn::train::small_cnn;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::{Chip, Memory};

/// `small_cnn` as `tsp-serve` runs it, and a few quantized inputs.
fn small() -> (QuantGraph, Vec<Vec<i8>>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let images = data.images.iter().map(|i| q.quantize_image(i)).collect();
    (q, images)
}

/// `resnet_tiny` and a few quantized inputs.
fn tiny() -> (QuantGraph, Vec<Vec<i8>>) {
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let (g, params) = resnet_tiny(10, 3);
    let q = quantize(&g, &params, &data.images[..2]);
    let images = data.images.iter().map(|i| q.quantize_image(i)).collect();
    (q, images)
}

/// Standard-width ResNet-50 at 32×32 and a few quantized inputs.
fn resnet50_32() -> (QuantGraph, Vec<Vec<i8>>) {
    let (g, params) = resnet(50, 32, 1000, &Widths::standard(), 0xC0FFEE);
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);
    let images = data.images.iter().map(|i| q.quantize_image(i)).collect();
    (q, images)
}

/// A run's report and the logits it left.
type Run = (RunReport, Vec<i8>);

fn run_on(model: &CompiledModel, chip: &mut Chip, image: &[i8]) -> Run {
    model.write_input(chip, image);
    let report = chip
        .run_decoded(&model.decoded(), &RunOptions::default())
        .expect("clean run");
    (report, model.read_logits(chip))
}

/// `image` on a fresh chip with the model emplaced.
fn fresh(model: &CompiledModel, image: &[i8]) -> Run {
    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    run_on(model, &mut chip, image)
}

/// `images` back to back on one chip emplaced once, `prepare` building the
/// next run's chip from the last one's configuration and SRAM before every
/// run but the first.
fn back_to_back(
    model: &CompiledModel,
    images: &[&[i8]],
    prepare: impl Fn(&CompiledModel, ChipConfig, Memory) -> Chip,
) -> Vec<Run> {
    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    let mut runs = Vec::with_capacity(images.len());
    for (i, image) in images.iter().enumerate() {
        if i > 0 {
            chip = prepare(model, chip.config, chip.memory);
        }
        runs.push(run_on(model, &mut chip, image));
    }
    runs
}

fn assert_same(got: &Run, want: &Run, what: &str) {
    let ((got, got_logits), (want, want_logits)) = (got, want);
    assert_eq!(got.cycles, want.cycles, "{what}: cycles");
    assert_eq!(got.instructions, want.instructions, "{what}: instructions");
    assert_eq!(got.nops, want.nops, "{what}: NOPs");
    assert_eq!(got.telemetry, want.telemetry, "{what}: telemetry");
    assert_eq!(got.bandwidth, want.bandwidth, "{what}: bandwidth");
    assert_eq!(got.ecc_corrected, want.ecc_corrected, "{what}: ECC");
    assert_eq!(got_logits, want_logits, "{what}: logits");
}

/// Four runs back to back with `restore` between them match four fresh-chip
/// runs, input order alternating so that each run follows a different one.
fn contract_holds(q: &QuantGraph, images: &[Vec<i8>]) -> CompiledModel {
    let model = compile(q, &CompileOptions::default());
    let order: Vec<&[i8]> = [0, 1, 0, 1].iter().map(|&i| images[i].as_slice()).collect();
    let reruns = back_to_back(&model, &order, CompiledModel::restore);
    for (i, (rerun, image)) in reruns.iter().zip(&order).enumerate() {
        assert_same(rerun, &fresh(&model, image), &format!("run {}", i + 1));
    }
    model
}

#[test]
fn small_cnn_reruns_restoring_nothing() {
    let (q, images) = small();
    let model = contract_holds(&q, &images);
    // The serving gain rests on this zero: a served `small_cnn` request on a
    // resident chip costs its run alone.
    assert_eq!(model.restore_cycles(), 0, "small_cnn's restore set");
    assert!(model.fresh.rows() > 0, "its borders are left to fresh SRAM");
}

#[test]
fn resnet_tiny_reruns_bit_identically() {
    let (q, images) = tiny();
    let model = contract_holds(&q, &images);
    assert!(model.restore_cycles() > 0, "resnet_tiny writes fresh rows");
    assert!(model.restore_set.shipped.is_empty(), "and no constant row");
}

#[test]
fn resnet50_at_32_reruns_bit_identically() {
    let (q, images) = resnet50_32();
    contract_holds(&q, &images);
}

/// Teeth: without the restore set's rows — a chip at power-on in all but
/// SRAM, nothing rewritten — a rerun reads the last run's activations where
/// it expects zero, and the logits move.
#[test]
fn resnet_tiny_without_restore_differs() {
    let (q, images) = tiny();
    let model = compile(&q, &CompileOptions::default());
    let order: Vec<&[i8]> = [0, 1, 0].iter().map(|&i| images[i].as_slice()).collect();
    let stale = back_to_back(&model, &order, |_, config, memory| {
        Chip::with_memory(config, memory)
    });
    let moved = (stale.iter().zip(&order))
        .skip(1)
        .filter(|((_, logits), image)| *logits != fresh(&model, image).1)
        .count();
    assert!(moved > 0, "no rerun without the restore set differed");
}

/// E is complete: a chip `resnet_tiny` left dirty, given `small_cnn`'s whole
/// constant allocations (shipped rows and zeros) and zeros over
/// `small_cnn`'s fresh rows and nothing else, runs `small_cnn` as a fresh
/// chip does — whatever else the other model left in SRAM.
#[test]
fn fresh_rows_are_all_a_program_needs_zeroed() {
    let (tiny_q, tiny_images) = tiny();
    let tiny = compile(&tiny_q, &CompileOptions::default());
    let (small_q, small_images) = small();
    let small = compile(&small_q, &CompileOptions::default());

    let mut chip = Chip::new(ChipConfig::asic());
    tiny.load_constants(&mut chip);
    run_on(&tiny, &mut chip, &tiny_images[0]);
    let mut chip = Chip::with_memory(chip.config, chip.memory);
    for (handle, rows) in &small.constants {
        for r in 0..handle.rows {
            chip.memory.write(handle.row(r), Vector::ZERO);
        }
        for (r, v) in rows {
            chip.memory.write(handle.row(*r), v.clone());
        }
    }
    for addr in small.fresh.addresses() {
        chip.memory.write(addr, Vector::ZERO);
    }
    let image = &small_images[1];
    assert_same(
        &run_on(&small, &mut chip, image),
        &fresh(&small, image),
        "small_cnn on resnet_tiny's leftovers",
    );
}
