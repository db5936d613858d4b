//! End-to-end: quantized graph → compiled TSP program → simulator →
//! **bit-exact** agreement with the host int8 reference executor.
//!
//! This is the repository's keystone test: it exercises the allocator, the
//! stream scheduler, every kernel, the ISA and the whole simulator at once.

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, first_divergence, CompileOptions};
use tsp_nn::data::synthetic;
use tsp_nn::quant::quantize;
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_nn::resnet::{resnet, resnet_tiny, Widths};
use tsp_nn::train::{small_cnn, train_head};
use tsp_sim::chip::RunOptions;
use tsp_sim::Chip;

fn run_model_on_sim(
    q: &tsp_nn::quant::QuantGraph,
    options: &CompileOptions,
    image_q: &[i8],
) -> (Vec<i8>, u64) {
    let model = compile(q, options);
    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    model.write_input(&mut chip, image_q);
    let report = chip
        .run(&model.program, &RunOptions::default())
        .expect("model must run without scheduling faults");
    (model.read_logits(&chip), report.cycles)
}

#[test]
fn small_cnn_matches_int8_reference_bit_exactly() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, mut params) = small_cnn(12, 24, 4, 5);
    train_head(&g, &mut params, &data, 40, 0.5);
    let q = quantize(&g, &params, &data.images[..6]);

    for (i, img) in data.images.iter().take(3).enumerate() {
        let qi = q.quantize_image(img);
        let reference = run_int8(&q, &qi);
        let expect = final_flat_q(&reference);
        let (got, _) = run_model_on_sim(&q, &CompileOptions::default(), &qi);
        assert_eq!(&got[..expect.len()], expect, "image {i}");
    }
}

#[test]
fn tiny_resnet_matches_int8_reference_bit_exactly() {
    let (g, params) = resnet_tiny(10, 3);
    // Calibrate on a couple of synthetic images of the right shape.
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);

    let img = &data.images[0];
    let qi = q.quantize_image(img);
    let reference = run_int8(&q, &qi);
    let expect = final_flat_q(&reference);
    let (got, cycles) = run_model_on_sim(&q, &CompileOptions::default(), &qi);
    assert_eq!(&got[..expect.len()], expect);
    assert!(cycles > 0);
}

#[test]
fn overlap_and_fenced_schedules_agree_on_values() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, mut params) = small_cnn(12, 16, 4, 5);
    train_head(&g, &mut params, &data, 20, 0.5);
    let q = quantize(&g, &params, &data.images[..4]);
    let qi = q.quantize_image(&data.images[0]);

    let (fast, t_fast) = run_model_on_sim(&q, &CompileOptions { overlap: true }, &qi);
    let (slow, t_slow) = run_model_on_sim(&q, &CompileOptions { overlap: false }, &qi);
    assert_eq!(fast, slow, "overlap must not change results");
    assert!(
        t_fast <= t_slow,
        "overlap should not be slower: {t_fast} vs {t_slow}"
    );
}

#[test]
fn compiled_model_is_run_to_run_deterministic() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, mut params) = small_cnn(12, 16, 4, 5);
    train_head(&g, &mut params, &data, 10, 0.5);
    let q = quantize(&g, &params, &data.images[..4]);
    let qi = q.quantize_image(&data.images[1]);

    let mut cycles = Vec::new();
    let mut logits = Vec::new();
    for _ in 0..3 {
        let (l, c) = run_model_on_sim(&q, &CompileOptions::default(), &qi);
        cycles.push(c);
        logits.push(l);
    }
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "cycles: {cycles:?}"
    );
    assert!(logits.windows(2).all(|w| w[0] == w[1]));
}

/// Every prefix of the tiny ResNet agrees with the reference at its last
/// node: the prefix ending at `b1c` has no add, so the conv compiles on its
/// own and its probe is readable; the next one ends at the add `b1c` hosts.
#[test]
fn every_prefix_of_tiny_resnet_matches_int8_reference() {
    let (g, params) = resnet_tiny(10, 3);
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);
    let qi = q.quantize_image(&data.images[0]);
    assert_eq!(first_divergence(&q, &qi), None);
}

/// Standard-width ResNet-50 (64 → 2048 channels: kparts and mparts up to 7)
/// on a 32×32 input agrees with the int8 reference on every logit; on a
/// mismatch the failure names the first diverging layer.
#[test]
fn standard_width_resnet50_matches_int8_reference() {
    let (g, params) = resnet(50, 32, 1000, &Widths::standard(), 0xC0FFEE);
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);
    let qi = q.quantize_image(&data.images[0]);
    let reference = run_int8(&q, &qi);
    let expect = final_flat_q(&reference);
    let (got, _) = run_model_on_sim(&q, &CompileOptions::default(), &qi);
    let differing = got.iter().zip(expect).filter(|(a, b)| a != b).count();
    assert_eq!(
        differing,
        0,
        "{differing} of {} logits differ; first diverging layer: {:?}",
        expect.len(),
        first_divergence(&q, &qi)
    );
}
