//! Cross-crate integration: a small trained CNN quantized, compiled,
//! simulated — bit-exact against the host int8 reference (the repository's
//! headline correctness property, exercised at workspace scope).

use tsp::nn::compile::{compile, CompileOptions};
use tsp::nn::data::synthetic;
use tsp::nn::quant::quantize;
use tsp::nn::reference::{final_flat_q, run_int8};
use tsp::nn::train::{small_cnn, train_head};
use tsp::prelude::*;

#[test]
fn trained_cnn_is_bit_exact_on_the_simulator() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, mut params) = small_cnn(12, 20, 4, 5);
    train_head(&g, &mut params, &data, 25, 0.5);
    let q = quantize(&g, &params, &data.images[..6]);
    let model = compile(&q, &CompileOptions::default());

    let mut agree = 0;
    for img in data.images.iter().take(2) {
        let qi = q.quantize_image(img);
        let expect = run_int8(&q, &qi);
        let expect = final_flat_q(&expect);

        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        model.write_input(&mut chip, &qi);
        chip.run(&model.program, &RunOptions::default())
            .expect("clean run");
        let got = model.read_logits(&chip);
        assert_eq!(&got[..expect.len()], expect);
        agree += 1;
    }
    assert_eq!(agree, 2);
}

/// A standard-width ResNet at 224×224 compiled for timing only: the schedule
/// is data independent, so all-zero weights stand in for a calibrated model.
fn timing_model(depth: u32) -> tsp::nn::compile::CompiledModel {
    use tsp::nn::quant::{QConv, QDense, QuantGraph};
    use tsp::nn::resnet::{resnet, Widths};

    let (graph, params) = resnet(depth, 224, 1000, &Widths::standard(), 7);
    let conv = params.conv.iter().map(|(&i, c)| {
        let w = vec![0i8; c.w.len()];
        (
            i,
            QConv {
                w,
                co: c.co,
                ci: c.ci,
                k: c.k,
                shift: 0,
            },
        )
    });
    let dense = params.dense.iter().map(|(&i, d)| {
        let w = vec![0i8; d.w.len()];
        (
            i,
            QDense {
                w,
                out: d.out,
                inp: d.inp,
                shift: 0,
            },
        )
    });
    let gap = (0..graph.nodes.len()).map(|i| (i, 0i8));
    let q = QuantGraph {
        conv: conv.collect(),
        dense: dense.collect(),
        gap_shift: gap.collect(),
        input_scale: 1.0,
        scales: vec![1.0; graph.nodes.len()],
        graph,
    };
    compile(&q, &CompileOptions::default())
}

/// The cycle gate (ROADMAP: "gate CI on total ResNet-50 cycles never
/// rising"): ResNet-50 batch-1 at 224×224 compiles to at most 40,700 cycles —
/// 1.5 % above the 40,115 landed once a chunk's tail landed on a slice of
/// its own and weight loads streamed only their blocks' rows, past
/// the paper's 20.4 K IPS (44,100 cycles) — every residual
/// add runs inside its `_c` conv (a span of its own would be hundreds of
/// cycles wide), the max pool is lane-packed (a pixel per VXM row takes it
/// 3,139 cycles, five take 677), the stage-2 3×3 convs pack five taps a pass
/// (three took them over 2,500 cycles each), the stage-5 3×3 convs find their
/// weights in the hemisphere that installs them (from slices shared across
/// the chip every third pass waited: 913–951 cycles each, 672–698 now) and
/// no kernel had to be rescheduled for want of a port, the simulator agrees
/// with the compiler's count, the row-split conv lowering keeps all four MXM
/// planes loaded, and the K-packed 3×3 convs keep the MACC waves under
/// 124,000 (unpacked they take 197,449, a kernel row a pass 131,593, whatever
/// the cycle count). Timing-only.
#[test]
fn resnet50_cycle_gate() {
    let model = timing_model(50);
    assert!(
        model.cycles <= 40_700,
        "ResNet-50 rose to {} cycles",
        model.cycles
    );
    let pools = (model.layer_spans.iter()).filter(|s| s.name.starts_with("pool"));
    let slow: Vec<_> = pools.filter(|s| s.end - s.start > 1_000).collect();
    assert!(
        slow.is_empty(),
        "a pool fell back to a pixel per row: {slow:?}"
    );
    let packed =
        |s: &&tsp::nn::compile::LayerSpan| s.name.starts_with("s2") && s.name.ends_with("_b");
    let slow: Vec<_> = (model.layer_spans.iter().filter(packed))
        .filter(|s| s.end - s.start > 2_000)
        .collect();
    assert!(
        slow.is_empty(),
        "a stage-2 3×3 conv fell back to a kernel row per pass: {slow:?}"
    );
    let homed =
        |s: &&tsp::nn::compile::LayerSpan| s.name.starts_with("s5") && s.name.ends_with("_b");
    let slow: Vec<_> = (model.layer_spans.iter().filter(homed))
        .filter(|s| s.end - s.start > 760)
        .collect();
    assert!(
        slow.is_empty(),
        "a stage-5 3×3 conv waits on weights from across the chip: {slow:?}"
    );
    let adds = (model.layer_spans.iter()).filter(|s| s.name.ends_with("_add"));
    let wide: Vec<_> = adds.clone().filter(|s| s.end - s.start > 16).collect();
    assert_eq!(adds.count(), 16, "one add per bottleneck block");
    assert!(wide.is_empty(), "adds left outside their conv: {wide:?}");
    // A shortcut, weight block or output that shared a slice with something
    // streamed beside it would show up as a retry with a later floor.
    assert_eq!(model.rollbacks, 0, "a kernel was rescheduled");

    let options = RunOptions {
        functional: false,
        ..RunOptions::default()
    };
    let report = Chip::new(ChipConfig::asic())
        .run(&model.program, &options)
        .expect("clean run");
    assert!(
        report.cycles.abs_diff(model.cycles) <= 4,
        "simulated {} vs compiled {}",
        report.cycles,
        model.cycles
    );
    let waves = report.telemetry.mxm_macc_waves;
    let total: u64 = waves.iter().sum();
    assert!(
        total <= 124_000,
        "{total} MACC waves: a 3×3 conv packs fewer taps per pass"
    );
    assert!(
        waves.iter().all(|&w| 100 * w >= 15 * total),
        "an MXM plane carries under 15% of the {total} MACC waves: {waves:?}"
    );
}

/// The deeper nets carry the same stage 2 and more bottlenecks of the same
/// kinds in stages 3–4: ResNet-101 compiles to at most 62,900 cycles, the
/// paper's (62,007 landed once a chunk's tail landed on a slice of its own
/// and weight loads streamed only their blocks' rows; 63,846 once weight
/// reads took idle windows, 65,506 before, 70,011 before padding borders
/// were cleared ahead of their data and M-split weights moved next to their
/// planes) and ResNet-152 to at most 91,300 (89,970; 93,094; 101,567;
/// 107,133), neither with a rescheduled kernel: each gate about 1.5 % above
/// its landed count. Compile only.
#[test]
fn deeper_resnets_cycle_gate() {
    for (depth, cycles) in [(101, 62_900), (152, 91_300)] {
        let model = timing_model(depth);
        assert!(
            model.cycles <= cycles,
            "ResNet-{depth} rose to {} cycles",
            model.cycles
        );
        assert_eq!(
            model.rollbacks, 0,
            "ResNet-{depth}: a kernel was rescheduled"
        );
    }
}
