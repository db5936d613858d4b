//! K-packing at graph level: which producers lane-replicate their output is
//! a function of the graph's shapes alone, every mix of packed and unpacked
//! readers stays bit-exact against the host int8 reference, and a graph with
//! no conv→conv pair loses neither cycles nor logits to operand placement.

mod common;

use common::{conv, map, run, Net};
use tsp_compiler::kernels::{chain_plane, plane_of_chain, RowSplit};
use tsp_nn::compile::{CompiledModel, Probe};
use tsp_nn::data::synthetic;
use tsp_nn::graph::ConvSpec;
use tsp_nn::quant::quantize;
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_nn::train::small_cnn;

/// A 12×12×3 net whose `stem` (3×3 to 64 channels, im2col) is node 1.
fn stemmed() -> Net {
    let mut net = Net::new(12);
    net.conv("stem", 0, conv(64, 3));
    net
}

/// Weight blocks (320 LW rows each) among a model's constants beyond the
/// stem's (one copy per chunk): a packed 3×3 conv over 64 channels has 2
/// where an unpacked one has 9; GAP and the head have one per 320 channels.
fn weight_blocks(model: &CompiledModel) -> usize {
    const STEM: usize = 4;
    let blocks = model.constants.iter().filter(|(t, _)| t.rows == 320);
    blocks.count() - STEM
}

/// conv → conv → conv: the stem (im2col) and the first 3×3 both write five
/// lane copies, both 3×3 convs run 2 passes of five and four taps, and a
/// strided packed conv with two M-splits closes the chain.
#[test]
fn packed_chain_matches_reference() {
    let mut net = stemmed();
    let a = net.conv("a", 1, conv(64, 3));
    let strided = ConvSpec {
        stride: 2,
        ..conv(400, 3)
    };
    let b = net.conv("b", a, strided);
    let model = net.check(b);
    // a: 2 tap groups; b: 2 × 2 M-splits; GAP and fc: 2 K-splits each.
    assert_eq!(weight_blocks(&model), 2 + 4 + 2 + 2);
    let stem = map(&model, 1);
    assert_eq!((stem.c, stem.parts[0][0].cols), (64, 64));
    assert_eq!(
        stem.layout.lane_copies, 5,
        "one copy per tap of a pass of `a`"
    );
}

/// The stem feeds a packable 3×3 conv *and* a 1×1 conv: it must not
/// replicate, the 3×3 falls back to nine single-tap passes, and neither
/// reader is corrupted. The 3×3's own output feeds only the add.
#[test]
fn a_producer_with_an_unpacked_reader_does_not_replicate() {
    let mut net = stemmed();
    let wide = net.conv("wide", 1, conv(64, 3));
    let point = net.conv("point", 1, conv(64, 1));
    let join = net.add("join", wide, point);
    let model = net.check(join);
    assert_eq!(weight_blocks(&model), 9 + 1 + 1 + 1);
}

/// 128 channels pack two taps (5 passes: a pair may span two kernel rows),
/// 176 none (9), 16 all nine.
#[test]
fn tap_groups_follow_the_channel_count() {
    for (channels, passes) in [(128, 5), (176, 9), (16, 1)] {
        let mut net = stemmed();
        let wide = net.conv("wide", 1, conv(channels, 3));
        let b = net.conv("b", wide, conv(32, 3));
        assert_eq!(weight_blocks(&net.check(b)), 2 + passes + 1 + 1);
    }
}

/// `small_cnn` (conv → pool → conv → GAP → dense) has no conv→conv pair and
/// no add, but its pool keeps the stem's nine lane copies, so `c2` runs one
/// pass of all nine taps; operand placement may not cost it cycles (1,312
/// before every conv's weights kept off its input's slices) or a logit. The
/// property itself, on `c2`: its one packed weight block — the only 320-row
/// constant 140 lanes wide, nine taps of 12 channels a superlane apart —
/// shares no slice with any replica of the pooled map it streams.
#[test]
fn small_cnn_weights_keep_off_their_convs_input() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..4]);
    let qi = q.quantize_image(&data.images[0]);
    let (model, chip) = run(&q, &qi);
    assert!(model.cycles <= 1312, "small_cnn rose to {}", model.cycles);
    assert_eq!(model.read_logits(&chip), final_flat_q(&run_int8(&q, &qi)));

    let input: Vec<_> = map(&model, 2).slices().collect();
    let weights: Vec<_> = (model.constants.iter())
        .filter(|(t, _)| (t.rows, t.cols) == (320, 8 * 16 + 12))
        .collect();
    assert_eq!(weights.len(), 1, "c2 runs one nine-tap pass");
    for (block, _) in weights {
        let shared: Vec<_> = block
            .layout
            .slices()
            .filter(|s| input.contains(s))
            .collect();
        assert!(shared.is_empty(), "a weight block sits on {shared:?}");
    }
}

/// Weights sit by the planes that install them (ResNet's stage 5 and head): of
/// a 512 → 512 3×3 conv on 7×7 — two M-splits of two chunks, 18 blocks each —
/// and of a 2048 → 1000 dense — four M-splits, seven blocks each — every
/// block of M-split `m` lies in the hemisphere of the plane `m`'s chains run
/// on, off the slices of what the kernel streams, and every logit matches the
/// int8 reference. (What happens when that hemisphere is full is the
/// compiler's own test, `m_split_weights_sit_by_the_planes_that_install_them`.)
#[test]
fn m_split_weights_lie_in_their_planes_hemisphere() {
    let blocks = |model: &CompiledModel| -> Vec<tsp_compiler::TensorHandle> {
        let blocks = model.constants.iter().filter(|(t, _)| t.rows == 320);
        blocks.map(|(t, _)| t.clone()).collect()
    };

    let mut net = Net::new(7);
    let a = net.conv("a", 0, conv(512, 1));
    let b = net.conv("b", a, conv(512, 3));
    let model = net.check(b);
    let input: Vec<_> = map(&model, a).slices().collect();
    let out = map(&model, b);
    let chunks = RowSplit::of_conv((out.h, out.w, out.c), &out.layout)
        .chunks
        .len();
    assert_eq!(chunks, 2);
    // a: 2 M-splits; b: 9 taps × 2 K-splits × 2 M-splits, M-split innermost;
    // GAP and fc: 2 K-splits each.
    let blocks_b = &blocks(&model)[2..];
    assert_eq!(blocks_b.len(), 36 + 2 + 2);
    for (i, block) in blocks_b[..36].iter().enumerate() {
        let home = chain_plane(chunks, i % 2, 0).hemisphere();
        for slice in block.layout.slices() {
            assert_eq!(slice.0, home, "block {i} of `b`");
            assert!(!input.contains(&slice), "block {i} of `b` on its input");
        }
    }

    let mut net = Net::new(7);
    let wide = net.conv("wide", 0, conv(2048, 1));
    let model = net.close_with(wide, 1000).check_closed();
    let Probe::Flat(pooled) = &model.probes[wide + 1] else {
        panic!("GAP writes a flat value")
    };
    let input: Vec<_> = pooled.iter().flat_map(|t| t.layout.slices()).collect();
    // wide: 7 M-splits; GAP: 7 parts; fc: 7 K-splits × 4 M-splits.
    let blocks_fc = &blocks(&model)[7 + 7..];
    assert_eq!(blocks_fc.len(), 28);
    for (i, block) in blocks_fc.iter().enumerate() {
        let home = plane_of_chain(i % 4).hemisphere();
        for slice in block.layout.slices() {
            assert_eq!(slice.0, home, "block {i} of `fc`");
            assert!(!input.contains(&slice), "block {i} of `fc` on its input");
        }
    }
}
