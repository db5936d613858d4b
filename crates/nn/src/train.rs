//! A minimal trainer for the quantization-accuracy experiment (E12).
//!
//! Strategy: fixed seeded convolutional features + a softmax classifier head
//! trained with SGD ("random features, trained readout"). This is enough to
//! obtain a model with real accuracy on the synthetic dataset, which is all
//! the experiment needs — it measures the *delta* between the fp32 model and
//! its int8 quantization (the paper's ≈0.5% loss), and how that accuracy
//! scales with feature width (the §IV-E wide-320 comparison).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::data::Dataset;
use crate::graph::{ConvSpec, DenseW, Graph, Op, Params};
use crate::reference::{run_fp32, ValueF};
use crate::resnet;

/// Builds the small CNN used by E12: conv3×3(relu) → maxpool2 →
/// conv3×3(relu) → GAP → dense(classes). `features` is the second conv's
/// channel count (the paper's §IV-E point: 256-style vs 320-style widths).
#[must_use]
pub fn small_cnn(input_hw: u32, features: u32, classes: u32, seed: u64) -> (Graph, Params) {
    let mut g = Graph::with_input(input_hw, input_hw, 2);
    let mut params = Params::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let conv_w = |co: u32, ci: u32, k: u32, rng: &mut ChaCha8Rng| {
        let std = (2.0 / (ci * k * k) as f32).sqrt();
        crate::graph::ConvW {
            w: (0..(co * ci * k * k) as usize)
                .map(|_| rng.gen_range(-1.0f32..1.0) * std)
                .collect(),
            co,
            ci,
            k,
        }
    };

    let c1 = g.push(
        Op::Conv(ConvSpec {
            c_out: 12,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }),
        vec![0],
        "c1",
    );
    params.conv.insert(c1, conv_w(12, 2, 3, &mut rng));
    let p1 = g.push(
        Op::MaxPool {
            k: 2,
            stride: 2,
            pad: 0,
        },
        vec![c1],
        "p1",
    );
    let c2 = g.push(
        Op::Conv(ConvSpec {
            c_out: features,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }),
        vec![p1],
        "c2",
    );
    params.conv.insert(c2, conv_w(features, 12, 3, &mut rng));
    let gap = g.push(Op::GlobalAvgPool, vec![c2], "gap");
    let fc = g.push(
        Op::Dense {
            out: classes,
            relu: false,
        },
        vec![gap],
        "fc",
    );
    // An untrained head is random too (a 1×1 "conv" over the GAP features),
    // so an untrained model's logits still depend on every feature map.
    let head = conv_w(classes, features, 1, &mut rng);
    params.dense.insert(
        fc,
        DenseW {
            w: head.w,
            out: classes,
            inp: features,
        },
    );
    (g, params)
}

/// Extracts the GAP features of every image (the fixed random-feature
/// embedding the classifier is trained on).
fn features(graph: &Graph, params: &Params, images: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let gap_index = graph
        .nodes
        .iter()
        .position(|n| matches!(n.op, Op::GlobalAvgPool))
        .expect("model has a GAP node");
    images
        .iter()
        .map(|img| {
            let values = run_fp32(graph, params, img);
            match &values[gap_index] {
                ValueF::Flat(v) => v.clone(),
                ValueF::Map { .. } => unreachable!(),
            }
        })
        .collect()
}

/// Trains the dense head with softmax cross-entropy SGD; returns the final
/// training accuracy.
pub fn train_head(
    graph: &Graph,
    params: &mut Params,
    data: &Dataset,
    epochs: usize,
    lr: f32,
) -> f32 {
    let feats = features(graph, params, &data.images);
    let classes = data.classes;
    let dim = feats[0].len();
    let fc_index = graph
        .nodes
        .iter()
        .position(|n| matches!(n.op, Op::Dense { .. }))
        .expect("model has a dense head");
    let mut w = vec![0f32; classes * dim];

    for _ in 0..epochs {
        for (x, &label) in feats.iter().zip(&data.labels) {
            // Softmax probabilities.
            let logits: Vec<f32> = (0..classes)
                .map(|c| {
                    x.iter()
                        .zip(&w[c * dim..(c + 1) * dim])
                        .map(|(a, b)| a * b)
                        .sum()
                })
                .collect();
            let max = logits.iter().fold(f32::MIN, |m, &v| m.max(v));
            let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
            let z: f32 = exps.iter().sum();
            for c in 0..classes {
                let p = exps[c] / z;
                let g = p - if c == label { 1.0 } else { 0.0 };
                for (wi, xi) in w[c * dim..(c + 1) * dim].iter_mut().zip(x) {
                    *wi -= lr * g * xi;
                }
            }
        }
    }

    params.dense.insert(
        fc_index,
        DenseW {
            w: w.clone(),
            out: classes as u32,
            inp: dim as u32,
        },
    );

    // Training accuracy.
    let correct = feats
        .iter()
        .zip(&data.labels)
        .filter(|(x, &label)| {
            let logits: Vec<f32> = (0..classes)
                .map(|c| {
                    x.iter()
                        .zip(&w[c * dim..(c + 1) * dim])
                        .map(|(a, b)| a * b)
                        .sum()
                })
                .collect();
            crate::reference::argmax_f(&logits) == label
        })
        .count();
    correct as f32 / feats.len() as f32
}

/// Classification accuracy of an fp32 model on a dataset.
#[must_use]
pub fn accuracy_fp32(graph: &Graph, params: &Params, data: &Dataset) -> f32 {
    let correct = data
        .images
        .iter()
        .zip(&data.labels)
        .filter(|(img, &label)| {
            let values = run_fp32(graph, params, img);
            match values.last().unwrap() {
                ValueF::Flat(logits) => crate::reference::argmax_f(logits) == label,
                ValueF::Map { .. } => false,
            }
        })
        .count();
    correct as f32 / data.images.len() as f32
}

/// Classification accuracy of a quantized model (bit-exact int8 reference).
#[must_use]
pub fn accuracy_int8(q: &crate::quant::QuantGraph, data: &Dataset) -> f32 {
    let correct = data
        .images
        .iter()
        .zip(&data.labels)
        .filter(|(img, &label)| {
            let qi = q.quantize_image(img);
            let values = crate::reference::run_int8(q, &qi);
            crate::reference::argmax_q(crate::reference::final_flat_q(&values)) == label
        })
        .count();
    correct as f32 / data.images.len() as f32
}

/// Convenience re-export so benches can build paper models.
pub use resnet::resnet50_paper;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synthetic;
    use crate::quant::quantize;

    #[test]
    fn head_training_learns_synthetic_data() {
        let data = synthetic(11, 12, 12, 2, 4, 12);
        let (g, mut params) = small_cnn(12, 24, 4, 5);
        let acc = train_head(&g, &mut params, &data, 120, 0.5);
        assert!(acc > 0.8, "training accuracy {acc}");
    }

    #[test]
    fn quantization_loss_is_small() {
        let data = synthetic(11, 12, 12, 2, 4, 10);
        let (g, mut params) = small_cnn(12, 24, 4, 5);
        train_head(&g, &mut params, &data, 120, 0.5);
        let fp = accuracy_fp32(&g, &params, &data);
        let q = quantize(&g, &params, &data.images[..8]);
        let qa = accuracy_int8(&q, &data);
        assert!(fp > 0.8, "fp32 accuracy {fp}");
        assert!(fp - qa <= 0.15, "quantization lost too much: {fp} → {qa}");
    }
}
