//! The planner on its own, and the graphs that stress it. `plan` is pure —
//! shapes in, one `MapLayout` per node out — so the first test schedules
//! nothing: on every edge of the benches' models and of a table of odd graphs
//! it checks that the producer's layout is one its consumer can read. The
//! second compiles and simulates the same table against the host int8
//! reference, logit for logit; the third pins each odd graph's compiled
//! cycles, nothing simulated.

mod common;

use common::{conv, linear, Net, STEM_POOL};
use tsp_compiler::kernels::conv::group_lanes;
use tsp_compiler::kernels::{packed_taps, pooled_lanes, taps_per_pass, MapLayout};
use tsp_isa::encode::encode_sequence;
use tsp_nn::compile::{compile, plan, CompileOptions};
use tsp_nn::graph::{ConvSpec, Graph, Op, Shape};
use tsp_nn::resnet::{resnet, resnet_tiny, Widths};
use tsp_nn::train::small_cnn;

/// A net with a `stem` conv (3×3 to `c` channels) on an `hw×hw×3` input.
fn stemmed(hw: u32, c: u32) -> (Net, usize) {
    let mut net = Net::new(hw);
    let stem = net.conv("stem", 0, conv(c, 3));
    (net, stem)
}

/// Graphs off the ResNet path, each with the map its GAP + dense head closes
/// over: every way a pool, an add and a conv can meet that a plan has to get
/// right.
fn odd_graphs() -> Vec<(&'static str, Net, usize)> {
    let mut table = Vec::new();
    let mut case = |name: &'static str, (net, tail): (Net, usize)| table.push((name, net, tail));

    case("conv → 2×2 pool → conv", {
        let (mut net, stem) = stemmed(24, 64);
        let pool = net.pool("pool", stem, (2, 2, 0));
        let tail = net.conv("c", pool, conv(32, 3));
        (net, tail)
    });
    case("conv → pool → pool → conv", {
        let (mut net, stem) = stemmed(48, 64);
        let first = net.pool("first", stem, STEM_POOL);
        let second = net.pool("second", first, STEM_POOL);
        let tail = net.conv("c", second, conv(32, 1));
        (net, tail)
    });
    case("conv → pool → GAP", {
        let (mut net, stem) = stemmed(24, 64);
        let tail = net.pool("pool", stem, STEM_POOL);
        (net, tail)
    });
    case("a packed pool feeding a bottleneck with a fused add", {
        let (mut net, stem) = stemmed(24, 64);
        let pool = net.pool("pool", stem, STEM_POOL);
        let proj = net.conv("proj", pool, linear(128, 1));
        let a = net.conv("a", pool, conv(32, 1));
        let b = net.conv("b", a, conv(32, 3));
        let c = net.conv("c", b, linear(128, 1));
        let tail = net.add("add", proj, c);
        (net, tail)
    });
    case("a 100-channel pool packs two pixels a row", {
        let (mut net, stem) = stemmed(32, 100);
        let pool = net.pool("pool", stem, STEM_POOL);
        let tail = net.conv("c", pool, conv(24, 1));
        (net, tail)
    });
    case("a 5×5 pool: 25 taps over 9 replicas, in rounds", {
        let (mut net, stem) = stemmed(24, 64);
        let pool = net.pool("pool", stem, (5, 2, 2));
        let tail = net.conv("c", pool, conv(32, 1));
        (net, tail)
    });
    case("a 400-channel pool: two channel parts", {
        let (mut net, stem) = stemmed(16, 400);
        let pool = net.pool("pool", stem, STEM_POOL);
        let tail = net.conv("c", pool, conv(32, 1));
        (net, tail)
    });
    case("add(pool, conv)", {
        let (mut net, stem) = stemmed(24, 64);
        let pool = net.pool("pool", stem, STEM_POOL);
        let c = net.conv("c", pool, conv(64, 1));
        let tail = net.add("add", pool, c);
        (net, tail)
    });
    case("input → pool → conv", {
        let mut net = Net::new(24);
        let pool = net.pool("pool", 0, STEM_POOL);
        let tail = net.conv("c", pool, conv(32, 3));
        (net, tail)
    });
    case("a stride-2 3×3 conv on a packed pool", {
        let (mut net, stem) = stemmed(24, 64);
        let pool = net.pool("pool", stem, STEM_POOL);
        let strided = ConvSpec {
            stride: 2,
            ..conv(32, 3)
        };
        let tail = net.conv("c", pool, strided);
        (net, tail)
    });
    // One conv read by a packed pool (5 pixels) and a K-packed conv (5
    // taps), in both operand orders. With the conv lowered first the pool
    // came to write the hemisphere it reads, where its nine tap maps (two or
    // three bursts of each in flight where blocks hand over), eight partial
    // maxima, result and four scatter maps want more than the 32 streams of
    // one direction: it panicked "no map stream free" until the planner put
    // a packed pool opposite its input.
    for (name, pool_first) in [
        ("a packed pool, then a K-packed conv, on one producer", true),
        (
            "a K-packed conv, then a packed pool, on one producer",
            false,
        ),
    ] {
        case(name, {
            let (mut net, stem) = stemmed(24, 64);
            let mut wide = 0;
            if !pool_first {
                wide = net.conv("wide", stem, conv(64, 3));
            }
            let pool = net.pool("pool", stem, (3, 1, 1));
            let narrow = net.conv("narrow", pool, conv(64, 1));
            if pool_first {
                wide = net.conv("wide", stem, conv(64, 3));
            }
            let tail = net.add("add", wide, narrow);
            (net, tail)
        });
    }
    // The stem's other reader, a 5×5 conv, asks for 20 copies, more than
    // the pool's 12 pixels a row: the pool keeps them, and its unpadded 3×3
    // reader — which asked for nine, few enough to pack pixels by — packs
    // nine taps, so the pooled map needs a border after all.
    case("a pool given more copies than its row by another reader", {
        let (mut net, stem) = stemmed(24, 16);
        let wide = net.conv("wide", stem, conv(16, 5));
        let pool = net.pool("pool", stem, (2, 2, 0));
        let unpadded = ConvSpec {
            pad: 0,
            ..conv(16, 3)
        };
        let narrow = net.conv("narrow", pool, unpadded);
        let gap = net.pool("down", wide, (2, 2, 0));
        let down = net.pool("down2", gap, (3, 1, 0));
        let tail = net.add("add", down, narrow);
        (net, tail)
    });
    // Panicked "im2col path supports c_out ≤ 320" while only the patch's
    // width decided who takes the im2col path.
    case(
        "a first conv whose patch fits one pass but whose output does not",
        {
            let (net, stem) = stemmed(12, 384);
            (net, stem)
        },
    );
    // Panicked "no map stream free" / "queue over-committed" while
    // `dangling` was lowered, streaming `stem` beside the pool.
    case("a conv nothing reads", with_a_dangling_conv(true));
    table
}

/// stem → pool → 1×1 conv at 48×48, `dangling` or not with a second 3×3 conv
/// on the stem that nothing reads.
fn with_a_dangling_conv(dangling: bool) -> (Net, usize) {
    let (mut net, stem) = stemmed(48, 64);
    if dangling {
        net.conv("dangling", stem, conv(64, 3));
    }
    let pool = net.pool("pool", stem, STEM_POOL);
    let tail = net.conv("c", pool, conv(32, 1));
    (net, tail)
}

/// The benches' and `tsp-serve`'s models, and the table's graphs.
fn graphs() -> Vec<(String, Graph)> {
    let standard = |depth| resnet(depth, 224, 1000, &Widths::standard(), 7).0;
    let mut graphs = vec![
        ("resnet50".to_string(), standard(50)),
        ("resnet101".to_string(), standard(101)),
        ("resnet152".to_string(), standard(152)),
        ("resnet_tiny".to_string(), resnet_tiny(10, 7).0),
        ("small_cnn".to_string(), small_cnn(12, 16, 4, 5).0),
    ];
    for (name, net, tail) in odd_graphs() {
        graphs.push((name.to_string(), net.close(tail).g));
    }
    graphs
}

/// Channels of a map node.
fn channels(shapes: &[Shape], i: usize) -> u32 {
    match shapes[i] {
        Shape::Map { c, .. } => c,
        Shape::Flat { n } => n,
    }
}

#[test]
fn every_producer_writes_what_its_consumers_read() {
    for (name, graph) in graphs() {
        let shapes = graph.shapes();
        let plans = plan(&graph, &shapes);
        let nodes = &graph.nodes;
        let at = |i: usize| format!("{name}: {}", nodes[i].name);
        let live = |i: usize| plans[i].layout.replicas > 0;
        let readers = |i: usize| {
            (nodes.iter().enumerate()).filter(move |(j, n)| live(*j) && n.inputs.contains(&i))
        };

        for (i, node) in nodes.iter().enumerate() {
            let out: MapLayout = plans[i].layout;
            // Lowered exactly when something lowered reads it.
            let read = i == nodes.len() - 1 || readers(i).count() > 0;
            assert_eq!(live(i), read, "{}: liveness", at(i));
            if !live(i) {
                continue;
            }
            // What each kind of kernel can write: copies from a conv, or
            // from a pool that keeps its input's — more than it has pixels
            // a row, one pixel a row.
            let conv_written = matches!(node.op, Op::Conv(_));
            let pooled = matches!(node.op, Op::MaxPool { .. });
            let kept = match shapes[i] {
                Shape::Map { w, .. } => pooled && out.lane_skew == 1 && out.lane_copies > w,
                Shape::Flat { .. } => false,
            };
            assert!(
                out.lane_copies == 1 || conv_written || kept,
                "{}: copies",
                at(i)
            );
            assert!(
                out.lane_copies == 1 || out.lane_copies * group_lanes(channels(&shapes, i)) <= 320,
                "{}: copies overflow the lanes",
                at(i)
            );
            // A conv's gather may take a block's first row for zero.
            let conv_read = readers(i).any(|(_, n)| matches!(n.op, Op::Conv(_)));
            assert!(
                out.lane_copies == 1 || !conv_read || out.pad >= 1,
                "{}: border",
                at(i)
            );
            assert!(out.lane_skew == 1 || pooled, "{}: skew", at(i));

            // What it reads, edge by edge.
            for &inp in &node.inputs {
                let edge: MapLayout = plans[inp].layout;
                let (pad, replicas) = match node.op {
                    Op::Conv(spec) => (spec.pad, 4),
                    Op::MaxPool { k, pad, .. } => (pad, (k * k).min(9) as u8),
                    _ => (0, 1),
                };
                let hosted = plans[inp].host.is_some() && inp == 0;
                assert!(hosted || edge.pad >= pad, "{}: border", at(i));
                assert!(hosted || edge.replicas >= replicas, "{}: replicas", at(i));
                match (&node.op, shapes[i]) {
                    // A conv packs a tap per copy it finds, up to what fits
                    // a pass — all it asked for, or none; it alone reads a
                    // skewed map, a tap a pass.
                    (Op::Conv(spec), _) => {
                        let c_in = channels(&shapes, inp);
                        let taps = packed_taps(spec.k, c_in, edge.lane_copies);
                        assert!(
                            taps == 1 || taps == taps_per_pass(spec.k, c_in),
                            "{}: some taps",
                            at(i)
                        );
                        let lanes = taps.max(edge.lane_skew) * group_lanes(c_in);
                        assert!(
                            taps.max(edge.lane_skew) == 1 || lanes <= 320,
                            "{}: taps",
                            at(i)
                        );
                        assert!(
                            taps == 1 || edge.lane_skew == 1,
                            "{}: taps of a skewed map",
                            at(i)
                        );
                    }
                    // A pool packs by the copies it is given, and then
                    // writes opposite its input (its tap maps flow out one
                    // way, its maxima and scatter maps the other) — or, given
                    // more than its row has pixels, keeps them.
                    (Op::MaxPool { .. }, Shape::Map { w, .. }) => {
                        assert_eq!(edge.lane_skew, 1, "{}: skewed input", at(i));
                        assert!(
                            out.lane_skew == 1 || out.hemisphere == edge.hemisphere.opposite(),
                            "{}: sides",
                            at(i)
                        );
                        assert_eq!(
                            (out.lane_skew, out.lane_copies),
                            pooled_lanes(edge.lane_copies, w),
                            "{}",
                            at(i)
                        );
                    }
                    // An add's operands are cut like its output.
                    (Op::Add { .. }, _) => {
                        assert_eq!(
                            (edge.pad, edge.lane_skew),
                            (out.pad, 1),
                            "{}: operand",
                            at(i)
                        );
                    }
                    _ => assert_eq!(edge.lane_skew, 1, "{}: skewed input", at(i)),
                }
            }

            match (&node.op, plans[i].host) {
                // A fused add: its host is its later operand, a single-reader
                // conv without ReLU that writes the add's own layout; the
                // shortcut is conv-written — cut like the host's output —
                // and sits opposite the host's input.
                (Op::Add { .. }, Some(conv)) => {
                    let shortcut = *node.inputs.iter().min().expect("two operands");
                    assert_eq!(Some(&conv), node.inputs.iter().max(), "{}: host", at(i));
                    assert!(
                        matches!(nodes[conv].op, Op::Conv(spec) if !spec.relu),
                        "{}",
                        at(i)
                    );
                    assert_eq!(readers(conv).count(), 1, "{}: host's readers", at(i));
                    assert_eq!(plans[conv].layout, out, "{}: host's layout", at(i));
                    let cut = plans[shortcut].layout;
                    let written = match nodes[shortcut].op {
                        Op::Conv(_) => true,
                        Op::Add { .. } => plans[shortcut].host.is_some(),
                        _ => false,
                    };
                    assert!(written, "{}: shortcut not conv-written", at(i));
                    assert_eq!(
                        (cut.pad, cut.lane_copies, cut.lane_skew),
                        (out.pad, out.lane_copies, out.lane_skew),
                        "{}: shortcut cut",
                        at(i)
                    );
                    let input = plans[nodes[conv].inputs[0]].layout;
                    assert_eq!(
                        cut.hemisphere,
                        input.hemisphere.opposite(),
                        "{}: sides",
                        at(i)
                    );
                }
                // The im2col input: its one reader is a conv whose patch
                // and output each fit one 320-lane part.
                (Op::Input { c, .. }, Some(stem)) => {
                    assert_eq!(readers(i).count(), 1, "{}: im2col readers", at(i));
                    assert!(
                        matches!(nodes[stem].op, Op::Conv(s) if s.k * s.k * c <= 320 && s.c_out <= 320),
                        "{}: im2col conv",
                        at(i)
                    );
                }
                (_, host) => assert_eq!(host, None, "{}: hosted", at(i)),
            }
        }
    }
}

/// A conv's producer writes `min(k², ⌊320 / group_lanes⌋)` lane copies — the
/// taps of one pass, across kernel rows — only if every reader packs: a 1×1
/// conv or a pool that does not pack (a GAP reads it) caps it at one copy, a
/// packing pool raises it to the pixels it puts in a row.
#[test]
fn a_producer_writes_the_copies_its_readers_agree_on() {
    // What `stem` (to `c` channels, 24×24) is planned to write when read by a
    // 3×3 conv and by whatever `also` adds to the net.
    let copies = |c: u32, also: &dyn Fn(&mut Net, usize) -> Option<usize>| {
        let (mut net, stem) = stemmed(24, c);
        let wide = net.conv("wide", stem, conv(64, 3));
        let tail = match also(&mut net, stem) {
            Some(other) => net.add("add", wide, other),
            None => wide,
        };
        let graph = net.close(tail).g;
        plan(&graph, &graph.shapes())[stem].layout.lane_copies
    };
    let alone = |_: &mut Net, _| None;
    assert_eq!(
        [16, 32, 64, 100, 128, 160, 176].map(|c| copies(c, &alone)),
        [9, 9, 5, 2, 2, 2, 1]
    );
    let point = |net: &mut Net, stem| Some(net.conv("point", stem, conv(64, 1)));
    assert_eq!(copies(64, &point), 1, "a 1×1 reader packs nothing");
    let pooled = |net: &mut Net, stem| {
        let pool = net.pool("pool", stem, (3, 1, 1));
        Some(net.conv("narrow", pool, conv(64, 1)))
    };
    assert_eq!(
        copies(64, &pooled),
        5,
        "five pixels a row, five taps a pass"
    );
    assert_eq!(
        copies(16, &pooled),
        20,
        "twenty pixels a row, nine taps a pass"
    );
    let unpacked = |net: &mut Net, stem| Some(net.pool("pool", stem, (3, 1, 1)));
    assert_eq!(
        copies(64, &unpacked),
        1,
        "a pool feeding an add packs nothing"
    );
}

/// A node nothing reads is planned for by nobody and lowered by nothing: the
/// program is, instruction for instruction, that of the graph without it.
#[test]
fn an_unread_node_leaves_the_program_alone() {
    let [with, without] = [true, false].map(|dangling| {
        let (net, tail) = with_a_dangling_conv(dangling);
        // Shifts are encoded in the program: make them the same on both
        // sides, whatever index a node has.
        let mut quant = common::synthetic_quant(&net.close(tail).g);
        quant.conv.values_mut().for_each(|c| c.shift = 6);
        quant.dense.values_mut().for_each(|d| d.shift = 6);
        quant.gap_shift.values_mut().for_each(|shift| *shift = 6);
        let model = compile(&quant, &CompileOptions::default());
        let queues = model.program.queues();
        let code: Vec<_> = queues.map(|(icu, q)| (icu, encode_sequence(q))).collect();
        (model.cycles, code)
    });
    assert!(with == without, "the dangling conv moved the program");
}

#[test]
fn odd_graphs_match_the_int8_reference() {
    for (name, net, tail) in odd_graphs() {
        eprintln!("{name}");
        net.check(tail);
    }
}

/// Each odd graph's compiled cycles, in [`odd_graphs`] order. A change meant
/// to move a schedule regenerates the table with `print_odd_graph_cycles`,
/// the way `program_fingerprint` regenerates its goldens.
const ODD_GRAPH_CYCLES: [(&str, u64); 15] = [
    ("conv → 2×2 pool → conv", 1444),
    ("conv → pool → pool → conv", 2354),
    ("conv → pool → GAP", 1044),
    ("a packed pool feeding a bottleneck with a fused add", 1619),
    ("a 100-channel pool packs two pixels a row", 1424),
    ("a 5×5 pool: 25 taps over 9 replicas, in rounds", 1301),
    ("a 400-channel pool: two channel parts", 2124),
    ("add(pool, conv)", 1381),
    ("input → pool → conv", 1188),
    ("a stride-2 3×3 conv on a packed pool", 1331),
    ("a packed pool, then a K-packed conv, on one producer", 2665),
    ("a K-packed conv, then a packed pool, on one producer", 2904),
    (
        "a pool given more copies than its row by another reader",
        1855,
    ),
    (
        "a first conv whose patch fits one pass but whose output does not",
        1281,
    ),
    ("a conv nothing reads", 2102),
];

/// Every odd graph's name and compiled cycles, checked to have rolled back
/// no kernel. The weights are synthetic: schedules do not depend on them.
fn odd_graph_cycles() -> Vec<(&'static str, u64)> {
    (odd_graphs().into_iter())
        .map(|(name, net, tail)| {
            let quant = common::synthetic_quant(&net.close(tail).g);
            let model = compile(&quant, &CompileOptions::default());
            assert_eq!(model.rollbacks, 0, "{name}: a kernel was rescheduled");
            (name, model.cycles)
        })
        .collect()
}

#[test]
fn odd_graphs_keep_their_cycles() {
    assert_eq!(odd_graph_cycles(), ODD_GRAPH_CYCLES);
}

/// Blesses the table: prints [`ODD_GRAPH_CYCLES`]' rows as they are now, with
/// `cargo test --release -p tsp-nn --test edge_layouts -- --ignored
/// --nocapture`.
#[test]
#[ignore = "prints the cycles instead of checking them"]
fn print_odd_graph_cycles() {
    for (name, cycles) in odd_graph_cycles() {
        println!("    ({name:?}, {cycles}),");
    }
}
