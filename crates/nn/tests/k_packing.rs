//! K-packing at graph level: which producers lane-replicate their output is
//! a function of the graph's shapes alone, every mix of packed and unpacked
//! readers stays bit-exact against the host int8 reference, and a graph with
//! no conv→conv pair loses neither cycles nor logits to operand placement.

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, CompileOptions, Probe};
use tsp_nn::data::synthetic;
use tsp_nn::graph::{ConvSpec, ConvW, DenseW, Graph, Op, Params};
use tsp_nn::quant::quantize;
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_nn::train::small_cnn;
use tsp_sim::chip::RunOptions;
use tsp_sim::Chip;

/// Deterministic pseudo-random weights in `[-1, 1)`.
fn weights(n: usize, seed: &mut u64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*seed >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

/// A 12×12×3 net: `stem` (3×3, im2col) then `convs` — `(name, input node,
/// c_out, k, stride)`, 3×3 with pad 1 or 1×1 — then, when `join` names two
/// nodes, their residual sum; GAP and a 5-way dense head close it.
fn net(convs: &[(&str, usize, u32, u32, u32)], join: Option<(usize, usize)>) -> (Graph, Params) {
    let mut seed = 7u64;
    let mut g = Graph::with_input(12, 12, 3);
    let mut params = Params::default();
    let mut conv = |g: &mut Graph, name: &str, from: usize, co: u32, k: u32, stride: u32| {
        let tsp_nn::graph::Shape::Map { c: ci, .. } = g.shapes()[from] else {
            panic!("conv on a flat node")
        };
        let spec = ConvSpec {
            c_out: co,
            k,
            stride,
            pad: k / 2,
            relu: true,
        };
        let id = g.push(Op::Conv(spec), vec![from], name);
        let scale = (2.0 / (ci * k * k) as f32).sqrt();
        let w = weights((co * ci * k * k) as usize, &mut seed);
        let w = w.into_iter().map(|v| v * scale).collect();
        params.conv.insert(id, ConvW { w, co, ci, k });
        id
    };
    conv(&mut g, "stem", 0, 64, 3, 1);
    for &(name, from, co, k, stride) in convs {
        conv(&mut g, name, from, co, k, stride);
    }
    let mut last = g.nodes.len() - 1;
    if let Some((a, b)) = join {
        last = g.push(Op::Add { relu: true }, vec![a, b], "join");
    }
    let tsp_nn::graph::Shape::Map { c, .. } = g.shapes()[last] else {
        panic!("the tail is a map")
    };
    let gap = g.push(Op::GlobalAvgPool, vec![last], "gap");
    let fc = g.push(
        Op::Dense {
            out: 5,
            relu: false,
        },
        vec![gap],
        "fc",
    );
    let w = weights((5 * c) as usize, &mut seed);
    params.dense.insert(fc, DenseW { w, out: 5, inp: c });
    (g, params)
}

/// Compiles the net and runs it, checking every logit against the int8
/// reference; returns the compiled model.
fn check(g: &Graph, params: &Params) -> tsp_nn::compile::CompiledModel {
    let data = synthetic(5, 12, 12, 3, 2, 2);
    let q = quantize(g, params, &data.images[..2]);
    let qi = q.quantize_image(&data.images[0]);
    let reference = run_int8(&q, &qi);
    let model = compile(&q, &CompileOptions::default());
    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    model.write_input(&mut chip, &qi);
    chip.run(&model.program, &RunOptions::default())
        .expect("clean run");
    assert_eq!(model.read_logits(&chip), final_flat_q(&reference));
    model
}

/// Weight blocks (320 LW rows each) among a model's constants beyond the
/// stem's (one copy per chunk): a packed 3×3 conv over 64 channels has 3
/// where an unpacked one has 9; GAP and the head have one per 320 channels.
fn weight_blocks(model: &tsp_nn::compile::CompiledModel) -> usize {
    const STEM: usize = 4;
    let blocks = model.constants.iter().filter(|(t, _)| t.rows == 320);
    blocks.count() - STEM
}

/// conv → conv → conv: the stem (im2col) and the first 3×3 both write three
/// lane copies, both 3×3 convs run 3 passes, and a strided packed conv with
/// two M-splits closes the chain.
#[test]
fn packed_chain_matches_reference() {
    let (g, params) = net(&[("a", 1, 64, 3, 1), ("b", 2, 400, 3, 2)], None);
    let model = check(&g, &params);
    // a: 3 tap groups; b: 3 × 2 M-splits; GAP and fc: 2 K-splits each.
    assert_eq!(weight_blocks(&model), 3 + 6 + 2 + 2);
    let Probe::Map { c, parts, .. } = &model.probes[1] else {
        panic!("the stem's output is a map")
    };
    assert_eq!((*c, parts[0].cols), (64, 64), "a probe shows one lane copy");
}

/// The stem feeds a packable 3×3 conv *and* a 1×1 conv: it must not
/// replicate, the 3×3 falls back to nine single-tap passes, and neither
/// reader is corrupted. The 3×3's own output feeds only the add.
#[test]
fn a_producer_with_an_unpacked_reader_does_not_replicate() {
    let (g, params) = net(
        &[("wide", 1, 64, 3, 1), ("point", 1, 64, 1, 1)],
        Some((2, 3)),
    );
    let model = check(&g, &params);
    assert_eq!(weight_blocks(&model), 9 + 1 + 1 + 1);
}

/// 128 channels pack two taps (6 passes), 176 none (9).
#[test]
fn tap_groups_follow_the_channel_count() {
    let (g, params) = net(&[("to128", 1, 128, 3, 1), ("b", 2, 32, 3, 1)], None);
    assert_eq!(weight_blocks(&check(&g, &params)), 3 + 6 + 1 + 1);
    let (g, params) = net(&[("to176", 1, 176, 3, 1), ("b", 2, 32, 3, 1)], None);
    assert_eq!(weight_blocks(&check(&g, &params)), 3 + 9 + 1 + 1);
}

/// `small_cnn` (conv → pool → conv → GAP → dense) has no conv→conv pair and
/// no add: it moves only through operand placement, which may not cost it
/// cycles (1,312 before every conv's weights kept off its input's slices) or
/// a logit. The property itself, on `c2`: none of its nine weight blocks —
/// the only 320-row constants 12 lanes wide — shares a slice with any replica
/// of the pooled map it streams.
#[test]
fn small_cnn_weights_keep_off_their_convs_input() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..4]);
    let qi = q.quantize_image(&data.images[0]);
    let model = compile(&q, &CompileOptions::default());
    assert!(model.cycles <= 1312, "small_cnn rose to {}", model.cycles);

    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    model.write_input(&mut chip, &qi);
    chip.run(&model.program, &RunOptions::default())
        .expect("clean run");
    assert_eq!(model.read_logits(&chip), final_flat_q(&run_int8(&q, &qi)));

    let Probe::Map { slices: input, .. } = &model.probes[2] else {
        panic!("the pool's output is a map")
    };
    let weights: Vec<_> = (model.constants.iter())
        .filter(|(t, _)| (t.rows, t.cols) == (320, 12))
        .collect();
    assert_eq!(weights.len(), 9, "c2 runs nine single-tap passes");
    for (block, _) in weights {
        let shared: Vec<_> = block
            .layout
            .slices()
            .filter(|s| input.contains(s))
            .collect();
        assert!(shared.is_empty(), "a weight block sits on {shared:?}");
    }
}
