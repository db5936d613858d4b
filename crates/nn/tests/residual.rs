//! Residual adds at graph level: an add one of whose operands is a
//! single-reader conv without ReLU is computed in that conv's own chains (a
//! zero-width layer span, nothing of the conv's own left to probe); every
//! other add stays a kernel of its own. Either way the logits are the host
//! int8 reference's, bit for bit.

mod common;

use common::{conv, linear, Net};
use tsp_nn::compile::{CompiledModel, Probe};

/// A 3×3 pool that keeps the map's size.
const SAME_POOL: (u32, u32, u32) = (3, 1, 1);

/// Cycles of node `i`'s layer span.
fn width(model: &CompiledModel, i: usize) -> u64 {
    model.layer_spans[i].end - model.layer_spans[i].start
}

/// Two bottleneck blocks: the first add's shortcut is a projection, the
/// second's the first (fused) add — whichever operand order the add names
/// them in. Both are zero-width and leave their host conv nothing to probe.
#[test]
fn bottleneck_adds_run_inside_their_convs() {
    let mut net = Net::new(12);
    let stem = net.conv("stem", 0, conv(64, 3));
    let proj = net.conv("proj", stem, linear(400, 1));
    let a = net.conv("a", stem, conv(64, 1));
    let b = net.conv("b", a, conv(64, 3));
    let c = net.conv("c", b, linear(400, 1));
    let add1 = net.add("add1", proj, c);
    let a2 = net.conv("a2", add1, conv(32, 1));
    let c2 = net.conv("c2", a2, linear(400, 3));
    let add2 = net.add("add2", c2, add1);
    let model = net.check(add2);
    for (add, host) in [(add1, c), (add2, c2)] {
        assert_eq!(width(&model, add), 0, "add {add} has cycles of its own");
        assert!(matches!(model.probes[host], Probe::None));
        assert!(matches!(&model.probes[add], Probe::Map(map) if map.c == 400));
    }
    let ends: Vec<u64> = model.layer_spans.iter().map(|s| s.end).collect();
    assert!(ends.is_sorted(), "spans stay in graph order: {ends:?}");
}

/// No conv to host it: both operands are pools.
#[test]
fn an_add_of_two_pools_stays_a_kernel() {
    let mut net = Net::new(12);
    let stem = net.conv("stem", 0, conv(64, 3));
    let p = net.pool("p", stem, SAME_POOL);
    let r = net.pool("r", stem, SAME_POOL);
    let add = net.add("add", p, r);
    let model = net.check(add);
    assert!(width(&model, add) > 0);
}

/// Neither operand can host: `x` is read by the add and by `d`, and `d` has
/// a ReLU of its own between its requantize and the add.
#[test]
fn a_conv_with_relu_or_a_second_reader_hosts_nothing() {
    let mut net = Net::new(12);
    let stem = net.conv("stem", 0, conv(64, 3));
    let x = net.conv("x", stem, linear(64, 1));
    let d = net.conv("d", x, conv(64, 1));
    let add = net.add("add", x, d);
    let model = net.check(add);
    assert!(width(&model, add) > 0);
    assert!(matches!(model.probes[d], Probe::Map(_)));
}

/// The identity block `x + conv(x)`: the conv could host, but its shortcut
/// is its own input, which it streams from the same slices — a kernel of its
/// own again. So is an add whose shortcut a pool wrote (one block per 4096
/// rows, not the conv's).
#[test]
fn a_shortcut_the_host_cannot_stream_beside_its_input_is_not_fused() {
    let mut net = Net::new(12);
    let stem = net.conv("stem", 0, conv(64, 3));
    let x = net.conv("x", stem, linear(64, 1));
    let d = net.conv("d", x, linear(64, 1));
    let add = net.add("add", x, d);
    let p = net.pool("p", add, SAME_POOL);
    let e = net.conv("e", add, linear(64, 1));
    let join = net.add("join", p, e);
    let model = net.check(join);
    assert!(width(&model, add) > 0);
    assert!(width(&model, join) > 0);
}
