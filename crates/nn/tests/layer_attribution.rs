//! Model-level layer attribution: the compiler's layer spans become run
//! marks, the simulator slices its counters at those boundaries, and the
//! per-layer slices name every compiled layer in order and sum bit-exactly
//! to the whole-run telemetry — on real compiled CNNs, not a toy program.

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, CompileOptions};
use tsp_nn::data::synthetic;
use tsp_nn::graph::{Graph, Params};
use tsp_nn::quant::quantize;
use tsp_nn::resnet::resnet_tiny;
use tsp_nn::train::small_cnn;
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, LayerSlice, Telemetry};

#[test]
fn compiled_model_layers_slice_the_run_exactly() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    layers_slice_the_run_exactly(&g, &params, &data.images);
}

/// `resnet_tiny`'s residual add runs inside its `b1c` conv: its slice is
/// empty — no cycles, no events — and the partition still holds around it.
#[test]
fn a_fused_add_is_a_zero_width_slice() {
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let (g, params) = resnet_tiny(10, 3);
    let layers = layers_slice_the_run_exactly(&g, &params, &data.images);
    let at = g.nodes.iter().position(|n| n.name == "b1add").unwrap();
    assert_eq!(layers[at].name.as_ref(), "b1add");
    assert_eq!(layers[at].cycles(), 0);
    assert_eq!(layers[at].start, layers[at - 1].end);
    let own = &layers[at].telemetry;
    let events = own.macc_waves() + own.vxm_issue_total() + own.sram_accesses();
    assert_eq!(events, 0, "a zero-width slice dispatches nothing");
    assert!(layers[at - 1].telemetry.vxm_issue_total() > 0, "b1c adds");
}

/// Compiles the graph, runs it with and without layer marks, and checks the
/// slices against the whole run; returns them.
fn layers_slice_the_run_exactly(
    g: &Graph,
    params: &Params,
    images: &[Vec<f32>],
) -> Vec<LayerSlice> {
    let q = quantize(g, params, &images[..2]);
    let model = compile(&q, &CompileOptions::default());
    let qi = q.quantize_image(&images[0]);

    let run = |options: &RunOptions| {
        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        model.write_input(&mut chip, &qi);
        let report = chip.run(&model.program, options).expect("model runs");
        (report, model.read_logits(&chip))
    };

    let (baseline, logits0) = run(&RunOptions::default());
    let (report, logits) = run(&RunOptions {
        layers: model.layer_marks(),
        ..RunOptions::default()
    });

    // Observation, not simulation: marks change nothing the chip computes.
    assert_eq!(report.cycles, baseline.cycles);
    assert_eq!(report.telemetry, baseline.telemetry);
    assert_eq!(logits, logits0);

    // One slice per compiled layer, in schedule order, named after it.
    assert_eq!(report.layers.len(), model.layer_spans.len());
    for (slice, span) in report.layers.iter().zip(&model.layer_spans) {
        assert_eq!(slice.name.as_ref(), span.name.as_str());
        assert_eq!(slice.end, span.end, "layer {}", span.name);
    }
    // Slices are contiguous from cycle 0 and sum bit-exactly.
    let mut at = 0;
    let mut total = Telemetry::new();
    for slice in &report.layers {
        assert_eq!(slice.start, at, "layer {} start", slice.name);
        at = slice.end;
        total.merge(&slice.telemetry);
    }
    assert_eq!(total, report.telemetry, "partition sums bit-exactly");

    // The attribution is meaningful: the conv layer did MXM work, and at
    // least one layer other than the first did too (work is spread out).
    let waves: Vec<u64> = report
        .layers
        .iter()
        .map(|s| s.telemetry.macc_waves())
        .collect();
    assert_eq!(waves.iter().sum::<u64>(), report.telemetry.macc_waves());
    assert!(
        waves.iter().filter(|&&w| w > 0).count() >= 1,
        "some layer carries MXM waves: {waves:?}"
    );

    // The interpreted dispatch path slices identically.
    let (interpreted, _) = run(&RunOptions {
        layers: model.layer_marks(),
        decoded: false,
        ..RunOptions::default()
    });
    assert_eq!(interpreted.layers, report.layers, "decoded ≡ interpreted");
    report.layers
}
