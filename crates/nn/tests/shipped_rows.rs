//! A constant ships only the rows that hold data (`ConstantRows`): the rest
//! of its allocation is never written, and reads zero on a fresh chip. These
//! tests check that this changes no observable — every run, fault-free and
//! under SRAM strikes aimed at the rows nobody writes, reports the same
//! cycles, telemetry, bandwidth, trace, fault counts and logits as a run whose
//! host wrote every allocated row — and pin what `small_cnn` ships.

mod common;

use tsp_arch::{ChipConfig, Hemisphere, Vector};
use tsp_compiler::{ConstantRows, TensorHandle};
use tsp_nn::batch::compile_batch_cached;
use tsp_nn::compile::{compile, CompileOptions, CompiledModel};
use tsp_nn::data::synthetic;
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::resnet::{resnet, resnet_tiny, Widths};
use tsp_nn::train::small_cnn;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::faults::{FaultEvent, FaultKind, FaultPlan, PlanSpec};
use tsp_sim::Chip;

/// `small_cnn` as `tsp-serve` runs it, and a quantized input.
fn small() -> (QuantGraph, Vec<i8>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let image = q.quantize_image(&data.images[0]);
    (q, image)
}

/// `resnet_tiny` and a quantized input.
fn tiny() -> (QuantGraph, Vec<i8>) {
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let (g, params) = resnet_tiny(10, 3);
    let q = quantize(&g, &params, &data.images[..2]);
    let image = q.quantize_image(&data.images[0]);
    (q, image)
}

/// Writes every row of every constant's allocation: its data where the
/// compiler shipped a row, zero everywhere else.
fn load_dense(model: &CompiledModel, chip: &mut Chip) {
    for (handle, rows) in &model.constants {
        let mut dense = vec![Vector::ZERO; handle.rows as usize];
        for (r, v) in rows {
            dense[*r as usize] = v.clone();
        }
        for (r, v) in (0u32..).zip(dense) {
            chip.memory.write(handle.row(r), v);
        }
    }
}

/// The rows of a constant's allocation the host does not ship.
fn unshipped(handle: &TensorHandle, rows: &ConstantRows) -> Vec<u32> {
    let mut shipped = vec![false; handle.rows as usize];
    for (r, _) in rows {
        shipped[*r as usize] = true;
    }
    (0..handle.rows).filter(|&r| !shipped[r as usize]).collect()
}

/// Every unshipped row of a weight block, as a strike site.
fn unshipped_weight_rows(model: &CompiledModel) -> Vec<(Hemisphere, u8, u16)> {
    let blocks = model.constants.iter().filter(|(t, _)| t.rows == 320);
    blocks
        .flat_map(|(t, rows)| unshipped(t, rows).into_iter().map(|r| t.row(r)))
        .map(|a| (a.hemisphere, a.slice, a.word.word()))
        .collect()
}

/// A seeded plan over `cycles`: random SRAM data / check and stream strikes,
/// plus data and check strikes on every `stride`-th unwritten weight row, half
/// of them before the run reads anything.
fn plan(model: &CompiledModel, cycles: u64, seed: u64, stride: usize) -> FaultPlan {
    let spec = PlanSpec {
        cycles: 0..cycles,
        sram_data: 8,
        sram_check: 4,
        stream_upsets: 8,
        sram_words: 2048,
    };
    let mut events = FaultPlan::generate(seed, &spec).events().to_vec();
    let aimed = unshipped_weight_rows(model).into_iter().step_by(stride);
    for (i, (hemisphere, slice, word)) in aimed.enumerate() {
        let i = i as u64;
        let cycle = if i.is_multiple_of(2) {
            0
        } else {
            i * 37 % cycles
        };
        let kind = if i % 3 == 2 {
            FaultKind::SramCheck {
                hemisphere,
                slice,
                word,
                superlane: (i % 20) as u8,
                bit: (i % 9) as u8,
            }
        } else {
            FaultKind::SramData {
                hemisphere,
                slice,
                word,
                lane: (i * 53 % 320) as u16,
                bit: (i % 8) as u8,
            }
        };
        events.push(FaultEvent { cycle, kind });
    }
    FaultPlan::from_events(seed, events)
}

/// What a run shows: its report (or error) and the logits it left.
fn run(
    model: &CompiledModel,
    image: &[i8],
    dense: bool,
    options: &RunOptions,
) -> (Result<RunReport, String>, Vec<i8>) {
    let mut chip = Chip::new(ChipConfig::asic());
    if dense {
        load_dense(model, &mut chip);
    } else {
        model.load_constants(&mut chip);
    }
    model.write_input(&mut chip, image);
    let report = chip
        .run(&model.program, options)
        .map_err(|e| format!("{e:?}"));
    (report, model.read_logits(&chip))
}

fn assert_identical(sparse: &RunReport, dense: &RunReport, what: &str) {
    assert_eq!(sparse.cycles, dense.cycles, "{what}: cycles");
    assert_eq!(
        sparse.instructions, dense.instructions,
        "{what}: instructions"
    );
    assert_eq!(sparse.nops, dense.nops, "{what}: NOPs");
    assert_eq!(sparse.telemetry, dense.telemetry, "{what}: telemetry");
    assert_eq!(sparse.bandwidth, dense.bandwidth, "{what}: bandwidth");
    assert_eq!(sparse.ecc_corrected, dense.ecc_corrected, "{what}: ECC");
    assert_eq!(
        sparse.faults_applied, dense.faults_applied,
        "{what}: applied"
    );
    assert_eq!(sparse.faults_vacant, dense.faults_vacant, "{what}: vacant");
    assert_eq!(sparse.trace.events(), dense.trace.events(), "{what}: trace");
    assert_eq!(sparse.egress.len(), dense.egress.len(), "{what}: egress");
}

/// Shipped and dense emplace give one run, fault-free and under `plan`;
/// returns how many planned faults struck (0 if they stopped the run).
fn check(model: &CompiledModel, image: &[i8], functional: bool, seed: u64, stride: usize) -> u64 {
    let mut options = RunOptions {
        functional,
        trace: true,
        ..RunOptions::default()
    };
    let (clean, logits) = run(model, image, false, &options);
    let clean = clean.expect("fault-free run");
    let (dense, dense_logits) = run(model, image, true, &options);
    assert_identical(&clean, &dense.expect("fault-free run"), "fault-free");
    assert_eq!(logits, dense_logits, "fault-free logits");

    options.faults = plan(model, clean.cycles, seed, stride);
    let (sparse, logits) = run(model, image, false, &options);
    let (dense, dense_logits) = run(model, image, true, &options);
    assert_eq!(logits, dense_logits, "logits under faults");
    match (sparse, dense) {
        (Ok(sparse), Ok(dense)) => {
            assert_identical(&sparse, &dense, "under faults");
            sparse.faults_applied
        }
        (sparse, dense) => {
            assert_eq!(sparse.err(), dense.err(), "the same fault stops both runs");
            0
        }
    }
}

/// No row of a constant that the host does not ship holds anything on a
/// fresh chip once the model is emplaced: no other constant's rows land there.
fn assert_unshipped_rows_read_zero(model: &CompiledModel) {
    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    for (handle, rows) in &model.constants {
        for r in unshipped(handle, rows) {
            let word = chip.memory.read_unchecked(handle.row(r));
            assert!(word.is_zero(), "{handle:?}: unshipped row {r} is not zero");
        }
    }
}

/// The shipped constant rows of `model` that one of its data `Write`s or
/// `Scatter`s lands on (`CompiledModel::written`).
fn overwritten_shipped_rows(model: &CompiledModel) -> usize {
    let shipped = (model.constants.iter())
        .flat_map(|(handle, rows)| rows.iter().map(move |(r, _)| handle.row(*r)));
    shipped.filter(|&row| model.written.contains(row)).count()
}

/// No program overwrites its own weights: compiled, not run, every data
/// write of `small_cnn`, `resnet_tiny` and ResNet-50 / 101 at 224×224 lands
/// off the rows the host ships. (ResNet-152's High-bank constants are
/// overwritten today — its known miscompile — so it is left out; the restore
/// set puts those rows back before a rerun.)
#[test]
fn no_data_write_lands_on_a_shipped_constant_row() {
    let standard =
        |depth| common::synthetic_quant(&resnet(depth, 224, 1000, &Widths::standard(), 7).0);
    let models: [(&str, &dyn Fn() -> QuantGraph); 4] = [
        ("small_cnn", &|| small().0),
        ("resnet_tiny", &|| tiny().0),
        ("resnet50", &|| standard(50)),
        ("resnet101", &|| standard(101)),
    ];
    for (name, quant) in models {
        let model = compile(&quant(), &CompileOptions::default());
        assert!(model.written.rows() > 0, "{name}: no write recorded");
        assert_eq!(overwritten_shipped_rows(&model), 0, "{name}");
        assert!(model.restore_set.shipped.is_empty(), "{name}");
    }
}

#[test]
fn small_cnn_ships_212_rows_and_they_change_no_observable() {
    let (q, image) = small();
    let batch = compile_batch_cached(&q, &CompileOptions::default(), 4);
    let model = &batch.model;
    // c1: four 12-row blocks; c2: nine 16-row blocks; GAP: a 16-row identity;
    // fc: a 4-row head.
    let mut shipped: Vec<usize> = model.constants.iter().map(|(_, r)| r.len()).collect();
    shipped.sort_unstable();
    let mut want = vec![4, 12, 12, 12, 12];
    want.extend([16; 10]);
    assert_eq!(shipped, want);
    assert_eq!(batch.emplace_cycles(), 212);
    assert_unshipped_rows_read_zero(model);
    assert!(
        check(model, &image, true, 0x5171, 97) > 0,
        "no fault struck"
    );
}

#[test]
fn resnet_tiny_shipped_rows_change_no_observable() {
    let (q, image) = tiny();
    let model = compile(&q, &CompileOptions::default());
    assert_unshipped_rows_read_zero(&model);
    assert!(
        check(&model, &image, true, 0x7171, 997) > 0,
        "no fault struck"
    );
}

#[test]
fn resnet50_shipped_rows_change_no_timing_observable() {
    let g = resnet(50, 224, 1000, &Widths::standard(), 7).0;
    let model = compile(&common::synthetic_quant(&g), &CompileOptions::default());
    assert_unshipped_rows_read_zero(&model);
    let image = vec![0i8; 224 * 224 * 3];
    assert!(
        check(&model, &image, false, 0x5050, 4999) > 0,
        "no fault struck"
    );
}
