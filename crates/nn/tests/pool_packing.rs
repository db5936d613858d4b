//! Lane-packed max pools at graph level: which pools pack is a function of
//! the graph's shapes alone — a conv-written input, conv consumers only, and
//! a saving worth the maps — every other pool keeps the pixel-per-row path
//! (passing through the copies its readers ask for when they are more than
//! its row has pixels), and either way the logits are the host int8
//! reference's, bit for bit.

mod common;

use common::{conv, map, run, Net, STEM_POOL};
use tsp_nn::compile::CompiledModel;
use tsp_nn::data::synthetic;
use tsp_nn::graph::Graph;
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::reference::{final_flat_q, run_int8, ValueQ};
use tsp_nn::resnet::{resnet, Widths};
use tsp_nn::train::small_cnn;

/// The lane groups node `i`'s pixels are dealt over.
fn skew(model: &CompiledModel, i: usize) -> u32 {
    map(model, i).layout.lane_skew
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
    let stem = net.conv("stem", 0, conv(64, 3));
    let pool = net.pool("pool", stem, STEM_POOL);
    let last = net.conv("c2", pool, conv(32, 3));
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
        let stem = net.conv("stem", 0, conv(c, 3));
        let pool = net.pool("pool", stem, STEM_POOL);
        let a = net.conv("a", pool, conv(24, 1));
        let b = net.conv("b", pool, conv(24, 1));
        let join = net.add("join", a, b);
        let model = net.check(join);
        assert_eq!(skew(&model, pool), groups, "{c} channels");
    }
}

/// A pool that also feeds an add keeps the pixel-per-row path — an add reads
/// lanes as they are — and so does its producer.
#[test]
fn a_pool_feeding_an_add_does_not_pack() {
    let mut net = Net::new(24);
    let stem = net.conv("stem", 0, conv(64, 3));
    let pool = net.pool("pool", stem, STEM_POOL);
    let a = net.conv("a", pool, conv(64, 1));
    let join = net.add("join", pool, a);
    let model = net.check(join);
    assert_eq!(skew(&model, pool), 1);
    assert_eq!(map_rows(&model), 0);
}

/// A pool on the host-written input has no lane copies to pack by.
#[test]
fn a_pool_on_the_network_input_does_not_pack() {
    let mut net = Net::new(24);
    let pool = net.pool("pool", 0, STEM_POOL);
    let last = net.conv("c", pool, conv(32, 1));
    let model = net.check(last);
    assert_eq!(skew(&model, pool), 1);
    assert_eq!(map_rows(&model), 0);
}

/// A pool whose consumer is another pool, and a pool that is the graph's
/// last map (GAP reads it), do not pack either.
#[test]
fn a_pool_without_a_conv_consumer_does_not_pack() {
    let mut net = Net::new(32);
    let stem = net.conv("stem", 0, conv(64, 3));
    let first = net.pool("first", stem, STEM_POOL);
    let second = net.pool("second", first, STEM_POOL);
    let model = net.check(second);
    assert_eq!((skew(&model, first), skew(&model, second)), (1, 1));
}

/// `small_cnn`'s 36-pixel pool has 30 cycles to save, under the 64 that
/// packing must, and its reader `c2` asks for nine copies, more than the six
/// pixels of a row: it pools a pixel per row and keeps the stem's nine
/// copies. The only maps are `c2`'s — one nine-tap gather pass, a map row
/// per pixel — none the pool's.
#[test]
fn a_pool_too_small_to_pay_for_its_maps_does_not_pack() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..4]);
    let qi = q.quantize_image(&data.images[0]);
    let (model, chip) = run(&q, &qi);
    assert_eq!(model.read_logits(&chip), final_flat_q(&run_int8(&q, &qi)));
    assert_eq!((skew(&model, 2), map(&model, 2).layout.lane_copies), (1, 9));
    assert_eq!(map_rows(&model), 6 * 6, "c2's gather alone");
}

/// conv → 2×2/2 pool → 3×3 conv over 64 channels, whose passes take five
/// taps. On 8×8 the pool's rows (4 pixels) are narrower than that: it keeps
/// the stem's five copies and the consumer runs ⌈9/5⌉ = 2 passes. On 16×16
/// (8 pixels a row) packing would save 48 cycles, under 64: nothing is
/// replicated, nine single-tap passes. On 24×24 (12 pixels) the pool packs
/// five pixels a row as before, and the consumer reads the skewed map a tap
/// a pass. Every logit is the int8 reference's.
#[test]
fn a_pool_narrower_than_its_readers_taps_keeps_the_copies() {
    for (hw, lanes, passes) in [(8, (1, 5), 2), (16, (1, 1), 9), (24, (5, 1), 9)] {
        let mut net = Net::new(hw);
        let stem = net.conv("stem", 0, conv(64, 3));
        let pool = net.pool("pool", stem, (2, 2, 0));
        let last = net.conv("c2", pool, conv(32, 3));
        let model = net.check(last);
        let out = map(&model, pool).layout;
        assert_eq!((out.lane_skew, out.lane_copies), lanes, "{hw}×{hw}");
        // The consumer's weight blocks, a pass each: the only 320-row
        // constants a 64-channel tap wide or more (the stem's are 27 lanes,
        // GAP's and the head's 32).
        let blocks = (model.constants.iter()).filter(|(t, _)| t.rows == 320 && t.cols >= 64);
        assert_eq!(blocks.count(), passes, "{hw}×{hw}");
    }
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

    let (block, ValueQ::Map { c, data, .. }) = (map(&model, last), &reference[last]) else {
        panic!("the block's output is a map")
    };
    let differing = data.iter().enumerate().filter(|&(j, &want)| {
        let (px, ch) = (j as u32 / c, j as u32 % c);
        let row = block.row_index(px / block.w, px % block.w);
        let part = &block.parts[(ch / 320) as usize][0];
        chip.memory
            .read_unchecked(part.row(row))
            .lane((ch % 320) as usize) as i8
            != want
    });
    assert_eq!(differing.count(), 0);
}
