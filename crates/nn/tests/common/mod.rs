//! Helpers shared by the `tsp-nn` integration tests.
#![allow(dead_code)] // every test binary uses its own subset

use tsp_arch::ChipConfig;
use tsp_compiler::kernels::FeatureMap;
use tsp_isa::encode::encode_sequence;
use tsp_nn::compile::{compile, CompileOptions, CompiledModel, InputKind, Probe};
use tsp_nn::data::synthetic;
use tsp_nn::graph::{ConvSpec, ConvW, DenseW, Graph, Op, Params, Shape};
use tsp_nn::quant::{quantize, QConv, QDense, QuantGraph};
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_sim::chip::RunOptions;
use tsp_sim::Chip;

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
/// placement and shipped rows (index and bytes), and where the input goes and
/// the logits come from.
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
        for (r, row) in rows {
            eat(&r.to_le_bytes());
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

/// A 3×3-style conv to `c_out` channels: kernel `k`, stride 1, pad `k/2`,
/// fused ReLU. Callers override fields for anything else.
pub fn conv(c_out: u32, k: u32) -> ConvSpec {
    ConvSpec {
        c_out,
        k,
        stride: 1,
        pad: k / 2,
        relu: true,
    }
}

/// [`conv`] without the ReLU: a conv that may host a residual add.
pub fn linear(c_out: u32, k: u32) -> ConvSpec {
    ConvSpec {
        relu: false,
        ..conv(c_out, k)
    }
}

/// The ResNet stem pool as [`Net::pool`] takes it: 3×3, stride 2, pad 1.
pub const STEM_POOL: (u32, u32, u32) = (3, 2, 1);

/// An `hw×hw×3` net under construction, with deterministic fp32 weights in
/// `[-1, 1)` scaled by fan-in.
pub struct Net {
    pub g: Graph,
    pub params: Params,
    hw: u32,
    seed: u64,
}

impl Net {
    pub fn new(hw: u32) -> Net {
        Net {
            g: Graph::with_input(hw, hw, 3),
            params: Params::default(),
            hw,
            seed: 7,
        }
    }

    fn weights(&mut self, n: u32, fan_in: u32) -> Vec<f32> {
        let scale = (2.0 / fan_in as f32).sqrt();
        let mut next = || {
            self.seed = (self.seed)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.seed >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        };
        (0..n).map(|_| next() * scale).collect()
    }

    pub fn channels(&self, node: usize) -> u32 {
        match self.g.shapes()[node] {
            Shape::Map { c, .. } => c,
            Shape::Flat { n } => n,
        }
    }

    /// A conv reading node `from`.
    pub fn conv(&mut self, name: &str, from: usize, spec: ConvSpec) -> usize {
        let (co, ci, k) = (spec.c_out, self.channels(from), spec.k);
        let id = self.g.push(Op::Conv(spec), vec![from], name);
        let w = self.weights(co * ci * k * k, ci * k * k);
        self.params.conv.insert(id, ConvW { w, co, ci, k });
        id
    }

    /// A `k×k` max pool reading node `from`.
    pub fn pool(&mut self, name: &str, from: usize, (k, stride, pad): (u32, u32, u32)) -> usize {
        self.g
            .push(Op::MaxPool { k, stride, pad }, vec![from], name)
    }

    /// `relu(a + b)`.
    pub fn add(&mut self, name: &str, a: usize, b: usize) -> usize {
        self.g.push(Op::Add { relu: true }, vec![a, b], name)
    }

    /// Closes the net over the map `tail` with GAP and a 5-way dense head.
    pub fn close(self, tail: usize) -> Net {
        self.close_with(tail, 5)
    }

    /// Closes the net over the map `tail` with GAP and an `out`-way dense head.
    pub fn close_with(mut self, tail: usize, out: u32) -> Net {
        let inp = self.channels(tail);
        let gap = self.g.push(Op::GlobalAvgPool, vec![tail], "gap");
        let head = Op::Dense { out, relu: false };
        let fc = self.g.push(head, vec![gap], "fc");
        let w = self.weights(out * inp, inp);
        self.params.dense.insert(fc, DenseW { w, out, inp });
        self
    }

    /// [`Net::close`]s the net and [`Net::check_closed`]s it.
    pub fn check(self, tail: usize) -> CompiledModel {
        self.close(tail).check_closed()
    }

    /// Quantizes the closed net on two synthetic images, compiles it, runs it
    /// on the simulator and checks every logit against the host int8
    /// reference.
    pub fn check_closed(self) -> CompiledModel {
        let net = self;
        let data = synthetic(5, net.hw, net.hw, 3, 2, 2);
        let q = quantize(&net.g, &net.params, &data.images[..2]);
        let qi = q.quantize_image(&data.images[0]);
        let (model, chip) = run(&q, &qi);
        assert_eq!(model.read_logits(&chip), final_flat_q(&run_int8(&q, &qi)));
        model
    }
}

/// Compiles `q` and runs `image` through it on a fresh chip.
pub fn run(q: &QuantGraph, image: &[i8]) -> (CompiledModel, Chip) {
    let model = compile(q, &CompileOptions::default());
    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    model.write_input(&mut chip, image);
    chip.run(&model.program, &RunOptions::default())
        .expect("clean run");
    (model, chip)
}

/// The map node `i` of `model` was lowered to.
pub fn map(model: &CompiledModel, i: usize) -> &FeatureMap {
    match &model.probes[i] {
        Probe::Map(map) => map,
        probe => panic!("node {i} is no map: {probe:?}"),
    }
}
