//! Lane-packed max pools at graph level: which pools pack is a function of
//! the graph's shapes alone — a conv-written input, conv consumers only, and
//! a saving worth the maps — every other pool keeps the pixel-per-row path,
//! and either way the logits are the host int8 reference's, bit for bit.

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, CompileOptions, CompiledModel, Probe};
use tsp_nn::data::synthetic;
use tsp_nn::graph::{ConvSpec, ConvW, DenseW, Graph, Op, Params, Shape};
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::reference::{final_flat_q, run_int8, ValueQ};
use tsp_nn::resnet::{resnet, Widths};
use tsp_nn::train::small_cnn;
use tsp_sim::chip::RunOptions;
use tsp_sim::Chip;

/// A `hw×hw×3` net under construction, with deterministic weights.
struct Net {
    g: Graph,
    params: Params,
    hw: u32,
    seed: u64,
}

impl Net {
    fn new(hw: u32) -> Net {
        Net {
            g: Graph::with_input(hw, hw, 3),
            params: Params::default(),
            hw,
            seed: 7,
        }
    }

    fn weights(&mut self, n: usize, scale: f32) -> Vec<f32> {
        let mut next = || {
            self.seed = (self.seed)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.seed >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        };
        (0..n).map(|_| next() * scale).collect()
    }

    fn channels(&self, node: usize) -> u32 {
        match self.g.shapes()[node] {
            Shape::Map { c, .. } => c,
            Shape::Flat { .. } => panic!("a flat node has no channels"),
        }
    }

    /// A `k×k` conv with ReLU (pad `k/2`) to `co` channels reading `from`.
    fn conv(&mut self, name: &str, from: usize, co: u32, k: u32) -> usize {
        let ci = self.channels(from);
        let spec = ConvSpec {
            c_out: co,
            k,
            stride: 1,
            pad: k / 2,
            relu: true,
        };
        let id = self.g.push(Op::Conv(spec), vec![from], name);
        let scale = (2.0 / (ci * k * k) as f32).sqrt();
        let w = self.weights((co * ci * k * k) as usize, scale);
        self.params.conv.insert(id, ConvW { w, co, ci, k });
        id
    }

    /// The ResNet stem pool: 3×3, stride 2, pad 1.
    fn pool(&mut self, from: usize) -> usize {
        let op = Op::MaxPool {
            k: 3,
            stride: 2,
            pad: 1,
        };
        self.g.push(op, vec![from], "pool")
    }

    /// Closes the net over `last` with GAP and a 5-way dense head, compiles
    /// it and checks every logit against the int8 reference.
    fn check(mut self, last: usize) -> CompiledModel {
        let c = self.channels(last);
        let gap = self.g.push(Op::GlobalAvgPool, vec![last], "gap");
        let head = Op::Dense {
            out: 5,
            relu: false,
        };
        let fc = self.g.push(head, vec![gap], "fc");
        let w = self.weights((5 * c) as usize, 0.1);
        self.params.dense.insert(fc, DenseW { w, out: 5, inp: c });

        let data = synthetic(5, self.hw, self.hw, 3, 2, 2);
        let q = quantize(&self.g, &self.params, &data.images[..2]);
        let qi = q.quantize_image(&data.images[0]);
        let (model, chip) = run(&q, &qi);
        assert_eq!(model.read_logits(&chip), final_flat_q(&run_int8(&q, &qi)));
        model
    }
}

fn run(q: &QuantGraph, image: &[i8]) -> (CompiledModel, Chip) {
    let model = compile(q, &CompileOptions::default());
    let mut chip = Chip::new(ChipConfig::asic());
    model.load_constants(&mut chip);
    model.write_input(&mut chip, image);
    chip.run(&model.program, &RunOptions::default())
        .expect("clean run");
    (model, chip)
}

/// The lane groups node `i`'s pixels are dealt over.
fn skew(model: &CompiledModel, i: usize) -> u32 {
    match &model.probes[i] {
        Probe::Map { lane_skew, .. } => *lane_skew,
        probe => panic!("node {i} is no map: {probe:?}"),
    }
}

/// Map rows (one per vector) among a model's constants: 40 lanes of
/// addresses each.
fn map_rows(model: &CompiledModel) -> usize {
    let maps = model.constants.iter().filter(|(t, _)| t.cols == 40);
    maps.map(|(_, rows)| rows.len()).sum()
}

/// stem → pool → 3×3 conv with a padded border, on 24×24: the 12×12 output
/// packs five pixels a row (three vectors a row, the last covering pixels
/// 7..12 again), and the consumer — nine single-tap passes over a map with a
/// border — reads the skewed map through weights tiled five times along K.
#[test]
fn a_pool_between_convs_packs_and_matches_reference() {
    let mut net = Net::new(24);
    let stem = net.conv("stem", 0, 64, 3);
    let pool = net.pool(stem);
    let last = net.conv("c2", pool, 32, 3);
    let model = net.check(last);
    assert_eq!((skew(&model, stem), skew(&model, pool)), (1, 5));
    // 9 taps and 4 output replicas, 12 × 3 vectors each.
    assert_eq!(map_rows(&model), (9 + 4) * 36);
    // The consumer's nine weight blocks span the five lane groups.
    let tiled = (model.constants.iter()).filter(|(t, _)| (t.rows, t.cols) == (320, 320));
    assert_eq!(tiled.count(), 9);
}

/// 12 channels pack as many pixels as the row has (16 of the 20 the lanes
/// would hold), 100 channels two; two 1×1 consumers share the skewed map.
#[test]
fn the_channel_count_sets_the_pixels_per_row() {
    for (c, groups) in [(12, 16), (100, 2)] {
        let mut net = Net::new(32);
        let stem = net.conv("stem", 0, c, 3);
        let pool = net.pool(stem);
        let a = net.conv("a", pool, 24, 1);
        let b = net.conv("b", pool, 24, 1);
        let join = net.g.push(Op::Add { relu: true }, vec![a, b], "join");
        let model = net.check(join);
        assert_eq!(skew(&model, pool), groups, "{c} channels");
    }
}

/// A pool that also feeds an add keeps the pixel-per-row path — an add reads
/// lanes as they are — and so does its producer.
#[test]
fn a_pool_feeding_an_add_does_not_pack() {
    let mut net = Net::new(24);
    let stem = net.conv("stem", 0, 64, 3);
    let pool = net.pool(stem);
    let a = net.conv("a", pool, 64, 1);
    let join = net.g.push(Op::Add { relu: true }, vec![pool, a], "join");
    let model = net.check(join);
    assert_eq!(skew(&model, pool), 1);
    assert_eq!(map_rows(&model), 0);
}

/// A pool on the host-written input has no lane copies to pack by.
#[test]
fn a_pool_on_the_network_input_does_not_pack() {
    let mut net = Net::new(24);
    let pool = net.pool(0);
    let last = net.conv("c", pool, 32, 1);
    let model = net.check(last);
    assert_eq!(skew(&model, pool), 1);
    assert_eq!(map_rows(&model), 0);
}

/// A pool whose consumer is another pool, and a pool that is the graph's
/// last map (GAP reads it), do not pack either.
#[test]
fn a_pool_without_a_conv_consumer_does_not_pack() {
    let mut net = Net::new(32);
    let stem = net.conv("stem", 0, 64, 3);
    let first = net.pool(stem);
    let second = net.pool(first);
    let model = net.check(second);
    assert_eq!((skew(&model, first), skew(&model, second)), (1, 1));
}

/// `small_cnn`'s 36-pixel pool has 30 cycles to save, under the 64 that
/// packing must: it stays as it was (and with it the served model's cycles
/// and constants).
#[test]
fn a_pool_too_small_to_pay_for_its_maps_does_not_pack() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..4]);
    let qi = q.quantize_image(&data.images[0]);
    let (model, chip) = run(&q, &qi);
    assert_eq!(model.read_logits(&chip), final_flat_q(&run_int8(&q, &qi)));
    assert_eq!(skew(&model, 2), 1);
    assert_eq!(map_rows(&model), 0);
}

/// The head of standard-width ResNet-50 on a 64×64 input, through the first
/// bottleneck block: `pool1` (16×16×64) packs five pixels a row and both its
/// readers — `s2b0_proj` and `s2b0_a`, 1×1 convs — take the skewed map; the
/// block's output (the add `s2b0_c` hosts) equals the reference's, value for
/// value.
#[test]
fn resnet50_stem_and_first_block_match_reference() {
    let (g, params) = resnet(50, 64, 1000, &Widths::standard(), 0xC0FFEE);
    let data = synthetic(21, 64, 64, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);
    let qi = q.quantize_image(&data.images[0]);
    let reference = run_int8(&q, &qi);
    let last = (q.graph.nodes.iter())
        .position(|n| n.name == "s2b0_add")
        .expect("the first block ends in an add");
    let prefix = QuantGraph {
        graph: Graph {
            nodes: q.graph.nodes[..=last].to_vec(),
        },
        ..q.clone()
    };
    let (model, chip) = run(&prefix, &qi);
    let pool = (q.graph.nodes.iter())
        .position(|n| n.name == "pool1")
        .expect("the stem has a pool");
    assert_eq!(skew(&model, pool), 5);

    let (Probe::Map { w, pad, parts, .. }, ValueQ::Map { c, data, .. }) =
        (&model.probes[last], &reference[last])
    else {
        panic!("the block's output is a map")
    };
    let differing = data.iter().enumerate().filter(|&(j, &want)| {
        let (px, ch) = (j as u32 / c, j as u32 % c);
        let row = (px / w + pad) * (w + 2 * pad) + px % w + pad;
        let part = &parts[(ch / 320) as usize];
        chip.memory
            .read_unchecked(part.row(row))
            .lane((ch % 320) as usize) as i8
            != want
    });
    assert_eq!(differing.count(), 0);
}
