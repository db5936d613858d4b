//! Helpers shared by the `tsp-nn` integration tests.
#![allow(dead_code)] // every test binary uses its own subset

use tsp_isa::encode::encode_sequence;
use tsp_nn::compile::{CompiledModel, InputKind};
use tsp_nn::graph::{Graph, Op, Shape};
use tsp_nn::quant::{QConv, QDense, QuantGraph};

/// Quantized parameters for `graph` without a `quantize` run: every weight is
/// a function of its node and its position in the tensor (so a weight put in
/// the wrong lane or row shows in the compiled constants), shifts vary by
/// node.
pub fn synthetic_quant(graph: &Graph) -> QuantGraph {
    let shapes = graph.shapes();
    let weights = |node: usize, n: u32| -> Vec<i8> {
        (0..n)
            .map(|j| (j.wrapping_mul(31).wrapping_add(node as u32 * 17) % 251) as u8 as i8)
            .collect()
    };
    let shift = |node: usize| 5 + (node % 4) as i8;
    let mut q = QuantGraph {
        graph: graph.clone(),
        conv: Default::default(),
        dense: Default::default(),
        gap_shift: Default::default(),
        input_scale: 1.0,
        scales: vec![1.0; graph.nodes.len()],
    };
    for (i, node) in graph.nodes.iter().enumerate() {
        let fan_in = node.inputs.first().map(|&inp| match shapes[inp] {
            Shape::Map { c, .. } => c,
            Shape::Flat { n } => n,
        });
        match (&node.op, fan_in) {
            (Op::Conv(spec), Some(ci)) => {
                let (co, k) = (spec.c_out, spec.k);
                let w = weights(i, co * ci * k * k);
                let shift = shift(i);
                q.conv.insert(
                    i,
                    QConv {
                        w,
                        co,
                        ci,
                        k,
                        shift,
                    },
                );
            }
            (Op::Dense { out, .. }, Some(inp)) => {
                let (w, out, shift) = (weights(i, out * inp), *out, shift(i));
                q.dense.insert(i, QDense { w, out, inp, shift });
            }
            (Op::GlobalAvgPool, _) => {
                q.gap_shift.insert(i, shift(i));
            }
            _ => {}
        }
    }
    q
}

/// FNV-1a (stable across toolchains, unlike `DefaultHasher`) over everything
/// a chip is handed: every ICU queue's encoded bytes, every constant's
/// placement and rows, and where the input goes and the logits come from.
pub fn fingerprint(model: &CompiledModel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (icu, queue) in model.program.queues() {
        eat(icu.to_string().as_bytes());
        eat(&encode_sequence(queue));
    }
    for (handle, rows) in &model.constants {
        eat(format!("{handle:?}").as_bytes());
        for row in rows {
            eat(row.as_bytes());
        }
    }
    match &model.input {
        InputKind::Map(map) => eat(format!("{:?}", map.parts).as_bytes()),
        InputKind::Im2col {
            chunks,
            pixels,
            geometry,
        } => eat(format!("{chunks:?}{pixels:?}{geometry:?}").as_bytes()),
    }
    eat(format!("{:?}", model.output).as_bytes());
    hash
}
