//! Post-training layer-wise symmetric int8 quantization (paper §IV-D).
//!
//! The paper "selected a post-training layer-based symmetric int8
//! quantization strategy for convolutions and matrix multiplies"; the MXM
//! accumulates into int32 and the VXM requantizes back to int8. We follow
//! that recipe with one documented simplification: the requantization scale
//! is a **power of two** (the VXM convert's shift), chosen per layer from a
//! calibration pass. Quantization loss is measured against the fp32 model
//! in experiment E12.

use std::collections::BTreeMap;

use crate::graph::{Graph, Op, Params};
use crate::reference::{walk_fp32, ValueF};

/// Quantized conv parameters.
#[derive(Debug, Clone)]
pub struct QConv {
    /// int8 weights, `[co][ci][ky][kx]` flattened.
    pub w: Vec<i8>,
    /// Output channels.
    pub co: u32,
    /// Input channels.
    pub ci: u32,
    /// Kernel size.
    pub k: u32,
    /// Requantization shift (int32 → int8 via `2^-shift`).
    pub shift: i8,
}

/// Quantized dense parameters.
#[derive(Debug, Clone)]
pub struct QDense {
    /// int8 weights, `[out][in]` flattened.
    pub w: Vec<i8>,
    /// Output features.
    pub out: u32,
    /// Input features.
    pub inp: u32,
    /// Requantization shift.
    pub shift: i8,
}

/// A fully quantized model: the graph plus integer parameters. Everything a
/// TSP program needs — and everything the bit-exact int8 reference needs —
/// is in here.
#[derive(Debug, Clone)]
pub struct QuantGraph {
    /// The layer graph.
    pub graph: Graph,
    /// Quantized conv weights per conv node.
    pub conv: BTreeMap<usize, QConv>,
    /// Quantized dense weights per dense node.
    pub dense: BTreeMap<usize, QDense>,
    /// Global-average-pool requant shifts per GAP node.
    pub gap_shift: BTreeMap<usize, i8>,
    /// Scale of the quantized input (`x_q = round(x / input_scale)`).
    pub input_scale: f32,
    /// Effective activation scale of every node's output.
    pub scales: Vec<f32>,
}

impl QuantGraph {
    /// Quantizes a `[y][x][c]` fp32 image to the model's input scale.
    #[must_use]
    pub fn quantize_image(&self, image: &[f32]) -> Vec<i8> {
        image.iter().map(|&x| to_i8(x, self.input_scale)).collect()
    }
}

fn abs_max(v: &[f32]) -> f32 {
    v.iter().fold(1e-12f32, |m, &x| m.max(x.abs()))
}

/// `x` at `scale`, rounded and saturated to int8.
fn to_i8(x: f32, scale: f32) -> i8 {
    (x / scale).round().clamp(-128.0, 127.0) as i8
}

/// A conv's or dense layer's weights `w` at their own |max| scale `s_w`,
/// fed by an input at scale `s_in`: the int8 weights, the right shift that
/// brings the int32 sum's scale `s_in · s_w` nearest the output target
/// `act_max / 127`, and the output scale that shift gives.
fn quantize_layer(w: &[f32], s_in: f32, act_max: f32) -> (Vec<i8>, i8, f32) {
    let s_w = abs_max(w) / 127.0;
    let w_q = w.iter().map(|&x| to_i8(x, s_w)).collect();
    let s_out_target = act_max / 127.0;
    let shift = (s_out_target / (s_in * s_w)).log2().round() as i8;
    let shift = shift.clamp(0, 31);
    (w_q, shift, s_in * s_w * (2f32).powi(i32::from(shift)))
}

/// Quantizes a trained fp32 model using `calibration` images (`[y][x][c]`
/// fp32) to pick activation ranges.
///
/// The calibration pass is [`walk_fp32`]: it folds each node's |max| into
/// the node's range as the value is made, image by image, and keeps no value
/// past its last reader.
///
/// # Panics
///
/// Panics if `calibration` is empty or params are missing.
#[must_use]
pub fn quantize(graph: &Graph, params: &Params, calibration: &[Vec<f32>]) -> QuantGraph {
    assert!(!calibration.is_empty(), "need calibration data");
    let mut act_max = vec![1e-12f32; graph.nodes.len()];
    for image in calibration {
        walk_fp32(graph, params, image, |i, v| {
            let (ValueF::Map { data, .. } | ValueF::Flat(data)) = v;
            act_max[i] = act_max[i].max(abs_max(data));
        });
    }
    quantize_ranges(graph, params, &act_max)
}

/// Quantizes a trained fp32 model at per-node activation ranges `act_max`,
/// each node's |max| over the calibration set.
fn quantize_ranges(graph: &Graph, params: &Params, act_max: &[f32]) -> QuantGraph {
    let input_scale = act_max[0] / 127.0;
    let mut scales = vec![0f32; graph.nodes.len()];
    scales[0] = input_scale;

    let mut conv = BTreeMap::new();
    let mut dense = BTreeMap::new();
    let mut gap_shift = BTreeMap::new();

    for (i, node) in graph.nodes.iter().enumerate() {
        match &node.op {
            Op::Input { .. } => {}
            Op::Conv(_) => {
                let cw = &params.conv[&i];
                let (w, shift, scale) = quantize_layer(&cw.w, scales[node.inputs[0]], act_max[i]);
                scales[i] = scale;
                conv.insert(
                    i,
                    QConv {
                        w,
                        co: cw.co,
                        ci: cw.ci,
                        k: cw.k,
                        shift,
                    },
                );
            }
            Op::Dense { .. } => {
                let dw = &params.dense[&i];
                let (w, shift, scale) = quantize_layer(&dw.w, scales[node.inputs[0]], act_max[i]);
                scales[i] = scale;
                dense.insert(
                    i,
                    QDense {
                        w,
                        out: dw.out,
                        inp: dw.inp,
                        shift,
                    },
                );
            }
            Op::GlobalAvgPool => {
                // out_q = sum_int32 × 2^-shift; sum over N pixels ≈ N × avg.
                // shift ≈ log2(N) keeps the average's scale ≈ the input's.
                let s_in = scales[node.inputs[0]];
                let crate::graph::Shape::Map { h, w, .. } = graph.shapes()[node.inputs[0]] else {
                    panic!("gap input must be a map")
                };
                let n = (h * w) as f32;
                let shift = n.log2().round() as i8;
                gap_shift.insert(i, shift);
                scales[i] = s_in * n / (2f32).powi(i32::from(shift));
            }
            Op::MaxPool { .. } => {
                scales[i] = scales[node.inputs[0]];
            }
            Op::Add { .. } => {
                // Saturating add of two (approximately) same-scaled int8s;
                // the output keeps the larger branch scale.
                let sa = scales[node.inputs[0]];
                let sb = scales[node.inputs[1]];
                scales[i] = sa.max(sb);
            }
        }
    }

    QuantGraph {
        graph: graph.clone(),
        conv,
        dense,
        gap_shift,
        input_scale,
        scales,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synthetic;
    use crate::graph::{ConvSpec, ConvW, DenseW};
    use crate::reference::{argmax_f, argmax_q, final_flat_q, run_fp32, run_int8};
    use crate::resnet::{resnet, resnet_tiny, Widths};

    /// Build a tiny conv→relu→gap→dense model with fixed weights and verify
    /// int8 predictions track fp32 on smooth inputs.
    #[test]
    fn quantized_model_tracks_fp32() {
        let mut g = Graph::with_input(6, 6, 2);
        let c = g.push(
            Op::Conv(ConvSpec {
                c_out: 4,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            }),
            vec![0],
            "c1",
        );
        let gap = g.push(Op::GlobalAvgPool, vec![c], "gap");
        g.push(
            Op::Dense {
                out: 3,
                relu: false,
            },
            vec![gap],
            "fc",
        );

        let mut params = Params::default();
        let conv_w: Vec<f32> = (0..4 * 2 * 9)
            .map(|i| ((i % 13) as f32 - 6.0) / 10.0)
            .collect();
        params.conv.insert(
            c,
            ConvW {
                w: conv_w,
                co: 4,
                ci: 2,
                k: 3,
            },
        );
        params.dense.insert(
            3,
            DenseW {
                w: (0..3 * 4).map(|i| ((i % 7) as f32 - 3.0) / 5.0).collect(),
                out: 3,
                inp: 4,
            },
        );

        let images: Vec<Vec<f32>> = (0..4)
            .map(|s| {
                (0..6 * 6 * 2)
                    .map(|i| (((i + s * 17) % 11) as f32 - 5.0) / 5.0)
                    .collect()
            })
            .collect();
        let q = quantize(&g, &params, &images);

        let mut agree = 0;
        for img in &images {
            let f = run_fp32(&g, &params, img);
            let qi = q.quantize_image(img);
            let qv = run_int8(&q, &qi);
            let ValueF::Flat(logits_f) = f.last().unwrap() else {
                panic!()
            };
            let logits_q = final_flat_q(&qv);
            if argmax_f(logits_f) == argmax_q(logits_q) {
                agree += 1;
            }
        }
        assert!(agree >= 3, "only {agree}/4 predictions agree");
    }

    /// The model `quantize` builds through the value-dropping walk, bit for
    /// bit the one built from `run_fp32`'s full value list — every weight
    /// and shift, and every scale's bits — over two calibration images, so
    /// the fold across images counts.
    fn check_calibration(graph: &Graph, params: &Params, hw: u32) {
        let images = synthetic(3, hw, hw, 3, 2, 1).images;
        assert_eq!(images.len(), 2);
        let mut act_max = vec![1e-12f32; graph.nodes.len()];
        for image in &images {
            for (m, v) in act_max.iter_mut().zip(run_fp32(graph, params, image)) {
                let (ValueF::Map { data, .. } | ValueF::Flat(data)) = v;
                *m = data.iter().fold(*m, |m, &x| m.max(x.abs()));
            }
        }
        let (walked, full) = (
            quantize(graph, params, &images),
            quantize_ranges(graph, params, &act_max),
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(walked.input_scale.to_bits(), full.input_scale.to_bits());
        assert_eq!(bits(&walked.scales), bits(&full.scales), "scales");
        assert_eq!(walked.gap_shift, full.gap_shift, "GAP shifts");
        let conv = |q: &QuantGraph| {
            q.conv
                .iter()
                .map(|(&i, c)| (i, c.shift, c.w.clone()))
                .collect::<Vec<_>>()
        };
        assert!(conv(&walked) == conv(&full), "conv weights or shifts");
        let dense = |q: &QuantGraph| {
            q.dense
                .iter()
                .map(|(&i, d)| (i, d.shift, d.w.clone()))
                .collect::<Vec<_>>()
        };
        assert!(dense(&walked) == dense(&full), "dense weights or shifts");
    }

    #[test]
    fn a_small_residual_graph_calibrates_alike() {
        let (g, params) = resnet_tiny(10, 3);
        check_calibration(&g, &params, 32);
    }

    /// ResNet-50 at 224 × 224 in optimized builds (`cargo test --release -p
    /// tsp-nn --lib calibrates_alike`, about a second); at 32 × 32 in debug
    /// builds, where the fp32 pass at 224 takes minutes.
    #[test]
    fn resnet50_calibrates_alike() {
        let hw = if cfg!(debug_assertions) { 32 } else { 224 };
        let (g, params) = resnet(50, hw, 1000, &Widths::standard(), 7);
        check_calibration(&g, &params, hw);
    }

    #[test]
    fn image_quantization_saturates() {
        let q = QuantGraph {
            graph: Graph::with_input(1, 1, 1),
            conv: BTreeMap::new(),
            dense: BTreeMap::new(),
            gap_shift: BTreeMap::new(),
            input_scale: 0.01,
            scales: vec![0.01],
        };
        let img = q.quantize_image(&[0.05, -10.0, 10.0]);
        assert_eq!(img, vec![5, -128, 127]);
    }
}
