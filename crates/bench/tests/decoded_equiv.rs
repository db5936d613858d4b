//! Integration-scale decoded-vs-interpreted equivalence: the full ResNet-50
//! compile → run pipeline and the Fig. 3 vector-add stream program must
//! produce bit-identical reports (cycles, logits, telemetry, bandwidth,
//! fault accounting) on the pre-decoded and interpreted dispatch paths,
//! fault-free and under a seeded fault plan.

use tsp_arch::ChipConfig;
use tsp_bench::workloads::vector_add_program;
use tsp_nn::compile::{compile_cached, CompileOptions, CompiledModel};
use tsp_nn::data::synthetic;
use tsp_nn::quant::quantize;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::faults::{FaultPlan, PlanSpec};
use tsp_sim::Chip;

use std::sync::Arc;

/// The ResNet under test: the full 50-layer network in optimized builds, the
/// tiny variant in debug builds (the interpreted reference run of ResNet-50
/// takes minutes unoptimized; the pipeline exercised is identical).
fn resnet_under_test() -> (Arc<CompiledModel>, Vec<i8>) {
    if cfg!(debug_assertions) {
        let (g, params) = tsp_nn::resnet::resnet_tiny(10, 3);
        let data = synthetic(21, 32, 32, 3, 2, 2);
        let q = quantize(&g, &params, &data.images[..2]);
        let image = q.quantize_image(&data.images[0]);
        (compile_cached(&q, &CompileOptions::default()), image)
    } else {
        tsp_bench::workloads::resnet_model(50)
    }
}

fn assert_identical(d: &RunReport, i: &RunReport) {
    assert_eq!(d.cycles, i.cycles, "completion cycle");
    assert_eq!(d.instructions, i.instructions, "instruction count");
    assert_eq!(d.nops, i.nops, "NOP count");
    assert_eq!(d.telemetry, i.telemetry, "telemetry counters");
    assert_eq!(d.bandwidth, i.bandwidth, "bandwidth meters");
    assert_eq!(d.ecc_corrected, i.ecc_corrected, "ECC corrections");
    assert_eq!(d.faults_applied, i.faults_applied, "faults applied");
    assert_eq!(d.faults_vacant, i.faults_vacant, "faults vacant");
    assert_eq!(d.trace.events(), i.trace.events(), "trace events");
    assert_eq!(d.egress.len(), i.egress.len(), "egress count");
}

#[test]
fn resnet_decoded_matches_interpreted() {
    let (model, image) = resnet_under_test();
    let decoded = model.decoded();

    let run = |use_decoded: bool, faults: FaultPlan| {
        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        model.write_input(&mut chip, &image);
        let options = RunOptions {
            faults,
            ..RunOptions::default()
        };
        let report = if use_decoded {
            chip.run_decoded(&decoded, &options).expect("decoded run")
        } else {
            chip.run_interpreted(&model.program, &options)
                .expect("interpreted run")
        };
        let logits = model.read_logits(&chip);
        (report, logits)
    };

    // Fault-free.
    let (rd, logits_d) = run(true, FaultPlan::empty());
    let (ri, logits_i) = run(false, FaultPlan::empty());
    assert_identical(&rd, &ri);
    assert_eq!(logits_d, logits_i, "logits");

    // Under a seeded fault plan drawn over the run window: both paths must
    // strike identically and correct identically.
    let plan = FaultPlan::generate(
        2026,
        &PlanSpec {
            cycles: 0..rd.cycles,
            sram_data: 8,
            sram_check: 4,
            stream_upsets: 8,
            sram_words: 2048,
        },
    );
    let (fd, flogits_d) = run(true, plan.clone());
    let (fi, flogits_i) = run(false, plan);
    assert_identical(&fd, &fi);
    assert_eq!(flogits_d, flogits_i, "logits under faults");
}

#[test]
fn vector_add_decoded_matches_interpreted_with_trace() {
    let program = vector_add_program();
    let run = |options: &RunOptions| {
        let mut chip = Chip::new(ChipConfig::asic());
        chip.run(&program, options).expect("run")
    };
    let decoded = run(&RunOptions {
        trace: true,
        decoded: true,
        ..RunOptions::default()
    });
    let interpreted = run(&RunOptions {
        trace: true,
        decoded: false,
        ..RunOptions::default()
    });
    assert_identical(&decoded, &interpreted);
}
