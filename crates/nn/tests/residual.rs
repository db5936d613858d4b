//! Residual adds at graph level: an add one of whose operands is a
//! single-reader conv without ReLU is computed in that conv's own chains (a
//! zero-width layer span, nothing of the conv's own left to probe); every
//! other add stays a kernel of its own. Either way the logits are the host
//! int8 reference's, bit for bit.

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, CompileOptions, CompiledModel, Probe};
use tsp_nn::data::synthetic;
use tsp_nn::graph::{ConvSpec, ConvW, DenseW, Graph, Op, Params, Shape};
use tsp_nn::quant::quantize;
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_sim::chip::RunOptions;
use tsp_sim::Chip;

/// A 12×12×3 net under construction, with deterministic weights in `[-1, 1)`.
struct Net {
    g: Graph,
    params: Params,
    seed: u64,
}

impl Net {
    fn new() -> Net {
        Net {
            g: Graph::with_input(12, 12, 3),
            params: Params::default(),
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

    /// A `k×k` conv (pad `k/2`) to `co` channels reading node `from`.
    fn conv(&mut self, name: &str, from: usize, co: u32, k: u32, relu: bool) -> usize {
        let Shape::Map { c: ci, .. } = self.g.shapes()[from] else {
            panic!("conv on a flat node")
        };
        let spec = ConvSpec {
            c_out: co,
            k,
            stride: 1,
            pad: k / 2,
            relu,
        };
        let id = self.g.push(Op::Conv(spec), vec![from], name);
        let w = self.weights(
            (co * ci * k * k) as usize,
            (2.0 / (ci * k * k) as f32).sqrt(),
        );
        self.params.conv.insert(id, ConvW { w, co, ci, k });
        id
    }

    fn pool(&mut self, name: &str, from: usize) -> usize {
        let op = Op::MaxPool {
            k: 3,
            stride: 1,
            pad: 1,
        };
        self.g.push(op, vec![from], name)
    }

    fn add(&mut self, name: &str, a: usize, b: usize) -> usize {
        self.g.push(Op::Add { relu: true }, vec![a, b], name)
    }

    /// Closes the net with GAP and a 5-way dense head, compiles it, runs it
    /// and checks every logit against the int8 reference.
    fn check(mut self, tail: usize) -> CompiledModel {
        let Shape::Map { c, .. } = self.g.shapes()[tail] else {
            panic!("the tail is a map")
        };
        let gap = self.g.push(Op::GlobalAvgPool, vec![tail], "gap");
        let head = Op::Dense {
            out: 5,
            relu: false,
        };
        let fc = self.g.push(head, vec![gap], "fc");
        let w = self.weights((5 * c) as usize, 1.0);
        self.params.dense.insert(fc, DenseW { w, out: 5, inp: c });

        let data = synthetic(5, 12, 12, 3, 2, 2);
        let q = quantize(&self.g, &self.params, &data.images[..2]);
        let qi = q.quantize_image(&data.images[0]);
        let model = compile(&q, &CompileOptions::default());
        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        model.write_input(&mut chip, &qi);
        chip.run(&model.program, &RunOptions::default())
            .expect("clean run");
        assert_eq!(model.read_logits(&chip), final_flat_q(&run_int8(&q, &qi)));
        model
    }
}

/// Cycles of node `i`'s layer span.
fn width(model: &CompiledModel, i: usize) -> u64 {
    model.layer_spans[i].end - model.layer_spans[i].start
}

/// Two bottleneck blocks: the first add's shortcut is a projection, the
/// second's the first (fused) add — whichever operand order the add names
/// them in. Both are zero-width and leave their host conv nothing to probe.
#[test]
fn bottleneck_adds_run_inside_their_convs() {
    let mut net = Net::new();
    let stem = net.conv("stem", 0, 64, 3, true);
    let proj = net.conv("proj", stem, 400, 1, false);
    let a = net.conv("a", stem, 64, 1, true);
    let b = net.conv("b", a, 64, 3, true);
    let c = net.conv("c", b, 400, 1, false);
    let add1 = net.add("add1", proj, c);
    let a2 = net.conv("a2", add1, 32, 1, true);
    let c2 = net.conv("c2", a2, 400, 3, false);
    let add2 = net.add("add2", c2, add1);
    let model = net.check(add2);
    for (add, host) in [(add1, c), (add2, c2)] {
        assert_eq!(width(&model, add), 0, "add {add} has cycles of its own");
        assert!(matches!(model.probes[host], Probe::None));
        assert!(matches!(model.probes[add], Probe::Map { c: 400, .. }));
    }
    let ends: Vec<u64> = model.layer_spans.iter().map(|s| s.end).collect();
    assert!(ends.is_sorted(), "spans stay in graph order: {ends:?}");
}

/// No conv to host it: both operands are pools.
#[test]
fn an_add_of_two_pools_stays_a_kernel() {
    let mut net = Net::new();
    let stem = net.conv("stem", 0, 64, 3, true);
    let p = net.pool("p", stem);
    let r = net.pool("r", stem);
    let add = net.add("add", p, r);
    let model = net.check(add);
    assert!(width(&model, add) > 0);
}

/// Neither operand can host: `x` is read by the add and by `d`, and `d` has
/// a ReLU of its own between its requantize and the add.
#[test]
fn a_conv_with_relu_or_a_second_reader_hosts_nothing() {
    let mut net = Net::new();
    let stem = net.conv("stem", 0, 64, 3, true);
    let x = net.conv("x", stem, 64, 1, false);
    let d = net.conv("d", x, 64, 1, true);
    let add = net.add("add", x, d);
    let model = net.check(add);
    assert!(width(&model, add) > 0);
    assert!(matches!(model.probes[d], Probe::Map { .. }));
}

/// The identity block `x + conv(x)`: the conv could host, but its shortcut
/// is its own input, which it streams from the same slices — a kernel of its
/// own again. So is an add whose shortcut a pool wrote (one block per 4096
/// rows, not the conv's).
#[test]
fn a_shortcut_the_host_cannot_stream_beside_its_input_is_not_fused() {
    let mut net = Net::new();
    let stem = net.conv("stem", 0, 64, 3, true);
    let x = net.conv("x", stem, 64, 1, false);
    let d = net.conv("d", x, 64, 1, false);
    let add = net.add("add", x, d);
    let p = net.pool("p", add);
    let e = net.conv("e", add, 64, 1, false);
    let join = net.add("join", p, e);
    let model = net.check(join);
    assert!(width(&model, add) > 0);
    assert!(width(&model, join) > 0);
}
