//! Host-side reference executors: one graph walk in two arithmetics.
//!
//! * [`run_fp32`] — floating-point forward pass, used for training-side
//!   accuracy.
//! * [`walk_fp32`] — the same pass for quantization calibration: each value
//!   is shown as it is made and dropped after its last reader, so only the
//!   values a later node still reads are alive at once.
//! * [`run_int8`] — **bit-exact mirror of the TSP kernels' arithmetic**
//!   (int32 accumulation, power-of-two round-half-away-from-zero
//!   requantization, int8 saturation, zero-padded pooling), so a compiled
//!   model run on the simulator must reproduce this executor exactly; any
//!   divergence is a compiler or simulator bug, not "numerics".
//!
//! All three are the one walker `run`: the op match, the convolution's
//! tiles, the pools and the dense layer are written once, and each executor
//! is an `Arith` — element and accumulator types, the multiply-accumulate,
//! and the epilogue that turns a weighted layer's sum into an element.
//! Neither arithmetic checks the other: each keeps its own exact one.
//!
//! A convolution is output-stationary: a tile of `PX_TILE` output pixels
//! of one row × `CO_BLOCK` output channels keeps its sums in registers
//! while the taps of a zero-padded copy of the input map stream past, each
//! sum in the textbook `(ky, kx, ci)` order. A padding tap adds `x·w = ±0.0`
//! to a sum that starts at `+0.0` and so is never `−0.0`, which leaves it as
//! it is while the weights are finite; integer sums are exact. So every
//! output is bit-identical to the naive loop that skips the border (DESIGN.md
//! §6, `tests/reference_oracle.rs`). The max pool reads the same padded map.

use std::borrow::Cow;

use crate::graph::{Graph, Op, Params};
use crate::quant::QuantGraph;

/// A node value: `Map` data is `[y][x][c]` row-major.
#[derive(Debug, Clone)]
pub enum Value<T> {
    /// Spatial map.
    Map {
        /// Height.
        h: u32,
        /// Width.
        w: u32,
        /// Channels.
        c: u32,
        /// `[y][x][c]` data.
        data: Vec<T>,
    },
    /// Flat vector.
    Flat(Vec<T>),
}

/// A node value during fp32 execution.
pub type ValueF = Value<f32>;

/// A node value during int8 execution.
pub type ValueQ = Value<i8>;

/// `v × 2^-shift`, round-half-away-from-zero (identical to the VXM convert).
#[must_use]
pub fn shift_round(v: i64, shift: i8) -> i64 {
    if shift > 0 {
        let s = u32::from(shift as u8);
        let half = 1i64 << (s - 1);
        if v >= 0 {
            (v + half) >> s
        } else {
            -((-v + half) >> s)
        }
    } else {
        v << u32::from((-shift) as u8)
    }
}

/// Saturate to int8 after requantization.
#[must_use]
pub fn sat8(v: i64) -> i8 {
    v.clamp(-128, 127) as i8
}

/// Runs the fp32 forward pass on an `[y][x][c]` image; returns per-node values.
///
/// # Panics
///
/// Panics if the image does not match the input shape or params are missing.
#[must_use]
pub fn run_fp32(graph: &Graph, params: &Params, image: &[f32]) -> Vec<ValueF> {
    every_value(run(graph, params, image, Keep::All, |_, _| {}))
}

/// Runs the fp32 forward pass on an `[y][x][c]` image, showing `seen` each
/// node's index and value as it is made; a value is dropped once its last
/// reader has run, so the pass keeps only what a later node still reads.
///
/// # Panics
///
/// Panics as [`run_fp32`] does.
pub fn walk_fp32(
    graph: &Graph,
    params: &Params,
    image: &[f32],
    mut seen: impl FnMut(usize, &ValueF),
) {
    run(graph, params, image, Keep::Live, |i, values| {
        seen(i, values[i].as_ref().expect("just made"));
    });
}

/// Runs the bit-exact int8 forward pass on a pre-quantized `[y][x][c]` image.
///
/// # Panics
///
/// Panics on shape mismatches.
#[must_use]
pub fn run_int8(q: &QuantGraph, image: &[i8]) -> Vec<ValueQ> {
    every_value(run(&q.graph, q, image, Keep::All, |_, _| {}))
}

/// Which values [`run`] keeps.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Keep {
    /// Every node's, to return.
    All,
    /// Those a later node still reads.
    Live,
}

/// A [`Keep::All`] walk's values.
fn every_value<T>(values: Vec<Option<Value<T>>>) -> Vec<Value<T>> {
    values.into_iter().map(|v| v.expect("kept")).collect()
}

/// The element arithmetic of one reference executor.
trait Arith {
    /// An activation or weight; its default is zero.
    type Elem: Copy + Default;
    /// A dot product's running sum; its default is zero.
    type Acc: Copy + Default;
    /// What a weighted layer's epilogue needs besides the sum.
    type Shift: Copy;
    /// Below every element: the seed of a max pool.
    const MIN: Self::Elem;
    /// `acc + x·w`.
    fn mac(acc: Self::Acc, x: Self::Elem, w: Self::Elem) -> Self::Acc;
    /// The larger of two elements.
    fn max(a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// A residual add.
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// A weighted layer's sum as an element.
    fn epilogue(acc: Self::Acc, shift: Self::Shift) -> Self::Elem;
    /// Conv node `node`'s `[co][ci][ky][kx]` weights and epilogue shift.
    fn conv(&self, node: usize) -> (&[Self::Elem], Self::Shift);
    /// Dense node `node`'s `[out][in]` weights and epilogue shift.
    fn dense(&self, node: usize) -> (&[Self::Elem], Self::Shift);
    /// Global-average-pool node `node`'s output for one channel's `n` values.
    fn gap(&self, node: usize, column: impl Iterator<Item = Self::Elem>, n: u32) -> Self::Elem;

    /// The element, through a fused ReLU when `relu`.
    fn relu(x: Self::Elem, relu: bool) -> Self::Elem {
        if relu {
            Self::max(x, Self::Elem::default())
        } else {
            x
        }
    }
}

/// fp32: plain float arithmetic, the sum as it is.
impl Arith for Params {
    type Elem = f32;
    type Acc = f32;
    type Shift = ();
    const MIN: f32 = f32::MIN;
    fn mac(acc: f32, x: f32, w: f32) -> f32 {
        acc + x * w
    }
    /// `f32::max`, with `+0.0` above `−0.0` (IEEE 754-2019
    /// `maximumNumber`): `f32::max` leaves the sign of a zero tie to
    /// codegen, and a vectorized pool and a scalar loop were seen to differ.
    fn max(a: f32, b: f32) -> f32 {
        if a == b {
            f32::from_bits(a.to_bits() & b.to_bits())
        } else {
            a.max(b)
        }
    }
    fn add(a: f32, b: f32) -> f32 {
        a + b
    }
    fn epilogue(acc: f32, (): ()) -> f32 {
        acc
    }
    fn conv(&self, node: usize) -> (&[f32], ()) {
        (&self.conv[&node].w, ())
    }
    fn dense(&self, node: usize) -> (&[f32], ()) {
        (&self.dense[&node].w, ())
    }
    fn gap(&self, _: usize, column: impl Iterator<Item = f32>, n: u32) -> f32 {
        column.sum::<f32>() / n as f32
    }
}

/// int8: the TSP's — sums in the MXM's wrapping int32 accumulators,
/// requantized by a per-layer shift and saturated; residual adds saturate.
impl Arith for QuantGraph {
    type Elem = i8;
    type Acc = i32;
    type Shift = i8;
    const MIN: i8 = i8::MIN;
    fn mac(acc: i32, x: i8, w: i8) -> i32 {
        acc.wrapping_add(i32::from(x) * i32::from(w))
    }
    fn max(a: i8, b: i8) -> i8 {
        a.max(b)
    }
    fn add(a: i8, b: i8) -> i8 {
        a.saturating_add(b)
    }
    fn epilogue(acc: i32, shift: i8) -> i8 {
        sat8(shift_round(acc.into(), shift))
    }
    fn conv(&self, node: usize) -> (&[i8], i8) {
        let qc = &self.conv[&node];
        (&qc.w, qc.shift)
    }
    fn dense(&self, node: usize) -> (&[i8], i8) {
        let qd = &self.dense[&node];
        (&qd.w, qd.shift)
    }
    fn gap(&self, node: usize, column: impl Iterator<Item = i8>, _: u32) -> i8 {
        sat8(shift_round(
            column.map(i64::from).sum(),
            self.gap_shift[&node],
        ))
    }
}

/// The forward pass of `graph` in `arith`'s arithmetic; returns per-node
/// values, those `keep` dropped as `None`.
///
/// After node `i` is made, `seen` is shown `i` and the values alive: node
/// `i`'s own and, under [`Keep::Live`], only those a node after `i` still
/// reads — an input is dropped by its last reader, before that reader's
/// value is shown, and a value nothing reads right after it is shown.
fn run<A: Arith>(
    graph: &Graph,
    arith: &A,
    image: &[A::Elem],
    keep: Keep,
    mut seen: impl FnMut(usize, &[Option<Value<A::Elem>>]),
) -> Vec<Option<Value<A::Elem>>> {
    let mut last_reader = vec![None; graph.nodes.len()];
    for (i, node) in graph.nodes.iter().enumerate() {
        for &input in &node.inputs {
            last_reader[input] = Some(i);
        }
    }
    let mut values: Vec<Option<Value<A::Elem>>> = Vec::with_capacity(graph.nodes.len());
    for (i, node) in graph.nodes.iter().enumerate() {
        let input = |n: usize| {
            values[node.inputs[n]]
                .as_ref()
                .expect("read after its last reader")
        };
        let map = |n: usize, what: &str| match input(n) {
            Value::Map { h, w, c, data } => (*h, *w, *c, data.as_slice()),
            Value::Flat(_) => panic!("{what} on flat"),
        };
        let v = match &node.op {
            &Op::Input { h, w, c } => {
                assert_eq!(image.len(), (h * w * c) as usize, "image size");
                Value::Map {
                    h,
                    w,
                    c,
                    data: image.to_vec(),
                }
            }
            Op::Conv(spec) => {
                let (h, w, c, data) = map(0, "conv");
                let (weights, shift) = arith.conv(i);
                let (oh, ow) = out_hw(h, w, spec.k, spec.stride, spec.pad);
                let x = padded(h, w, c, spec.pad, data);
                let wr = reorder_conv_blocked(weights, spec.c_out, c, spec.k);
                let conv = ConvTiles {
                    k: spec.k as usize,
                    stride: spec.stride as usize,
                    c: c as usize,
                    c_out: spec.c_out as usize,
                    width: (w + 2 * spec.pad) as usize,
                    x: &x,
                    wr: &wr,
                };
                let ow = ow as usize;
                let tiles = ow / PX_TILE * PX_TILE;
                let mut out = vec![A::Elem::default(); oh as usize * ow * conv.c_out];
                for (oy, row) in out.chunks_exact_mut(ow * conv.c_out).enumerate() {
                    for blk in 0..conv.c_out.div_ceil(CO_BLOCK) {
                        for ox in (0..tiles).step_by(PX_TILE) {
                            conv.tile::<A, PX_TILE>(row, (oy, ox), blk, shift, spec.relu);
                        }
                        for ox in tiles..ow {
                            conv.tile::<A, 1>(row, (oy, ox), blk, shift, spec.relu);
                        }
                    }
                }
                Value::Map {
                    h: oh,
                    w: ow as u32,
                    c: spec.c_out,
                    data: out,
                }
            }
            &Op::MaxPool { k, stride, pad } => {
                let (h, w, c, data) = map(0, "pool");
                let (oh, ow) = out_hw(h, w, k, stride, pad);
                // Zero-padded max (matches the kernel: the materialized
                // border is zero); each channel folds its taps in `(ky, kx)`
                // order.
                let x = padded(h, w, c, pad, data);
                let (k, stride, c) = (k as usize, stride as usize, c as usize);
                let width = w as usize + 2 * pad as usize;
                let mut out = vec![A::MIN; (oh * ow) as usize * c];
                for (o, m) in out.chunks_exact_mut(c).enumerate() {
                    let (oy, ox) = (o / ow as usize * stride, o % ow as usize * stride);
                    for ky in 0..k {
                        for kx in 0..k {
                            let at = ((oy + ky) * width + ox + kx) * c;
                            for (m, &v) in m.iter_mut().zip(&x[at..at + c]) {
                                *m = A::max(*m, v);
                            }
                        }
                    }
                }
                Value::Map {
                    h: oh,
                    w: ow,
                    c: c as u32,
                    data: out,
                }
            }
            Op::GlobalAvgPool => {
                let (h, w, c, data) = map(0, "gap");
                let column = |ch| (0..h * w).map(move |p| data[(p * c + ch) as usize]);
                Value::Flat((0..c).map(|ch| arith.gap(i, column(ch), h * w)).collect())
            }
            &Op::Dense { out: o, relu } => {
                let Value::Flat(x) = input(0) else {
                    panic!("dense on map")
                };
                let (weights, shift) = arith.dense(i);
                // The first `o` rows: a trained head may hold more.
                let out = (weights.chunks_exact(x.len()).take(o as usize))
                    .map(|row| {
                        let acc = (x.iter().zip(row))
                            .fold(A::Acc::default(), |acc, (&xv, &wv)| A::mac(acc, xv, wv));
                        A::relu(A::epilogue(acc, shift), relu)
                    })
                    .collect();
                Value::Flat(out)
            }
            &Op::Add { relu } => {
                let (h, w, c, a) = map(0, "add");
                let (_, _, _, b) = map(1, "add");
                Value::Map {
                    h,
                    w,
                    c,
                    data: (a.iter().zip(b))
                        .map(|(&x, &y)| A::relu(A::add(x, y), relu))
                        .collect(),
                }
            }
        };
        if keep == Keep::Live {
            for &input in &node.inputs {
                if last_reader[input] == Some(i) {
                    values[input] = None;
                }
            }
        }
        values.push(Some(v));
        seen(i, &values);
        if keep == Keep::Live && last_reader[i].is_none() {
            values[i] = None;
        }
    }
    values
}

/// Output channels one convolution tile accumulates.
///
/// With [`PX_TILE`] it sizes the tile: 4 × 16 `f32` or `i32` sums fill
/// eight AVX2 registers. On ResNet-50 at 224 × 224 (a 2-core Xeon,
/// `x86-64-v3`) this tile took `run_fp32` from 0.55 s (one pixel × 8
/// channels) to ≈ 0.30 s; 4 × 8 took ≈ 0.32 s, and 2, 6 or 8 pixels × 16
/// took 1.4–1.7 s.
const CO_BLOCK: usize = 16;

/// Consecutive output pixels of one row one convolution tile accumulates;
/// a row's last `ow mod PX_TILE` pixels are one-pixel tiles.
const PX_TILE: usize = 4;

/// One convolution's operands, convolved tile by tile.
struct ConvTiles<'a, T> {
    k: usize,
    stride: usize,
    /// Input channels.
    c: usize,
    c_out: usize,
    /// The width of the padded input map.
    width: usize,
    /// The input map with its zero border, `[y][x][c]`.
    x: &'a [T],
    /// The weights in [`CO_BLOCK`]-wide blocks, [`reorder_conv_blocked`].
    wr: &'a [T],
}

impl<T: Copy> ConvTiles<'_, T> {
    /// Writes output channels `blk·CO_BLOCK..` of the `P` pixels from
    /// `(oy, ox)` on into `row`, output row `oy`.
    ///
    /// The `P × CO_BLOCK` sums stay in registers while the taps stream
    /// past, each summed in the textbook `(ky, kx, ci)` order.
    fn tile<A: Arith<Elem = T>, const P: usize>(
        &self,
        row: &mut [T],
        (oy, ox): (usize, usize),
        blk: usize,
        shift: A::Shift,
        relu: bool,
    ) {
        let (k, c) = (self.k, self.c);
        let taps = k * k * c * CO_BLOCK;
        let wb = &self.wr[blk * taps..(blk + 1) * taps];
        let mut acc = [[A::Acc::default(); CO_BLOCK]; P];
        for ky in 0..k {
            let iy = oy * self.stride + ky;
            for kx in 0..k {
                let ws = &wb[(ky * k + kx) * c * CO_BLOCK..][..c * CO_BLOCK];
                let xs: [&[T]; P] = std::array::from_fn(|p| {
                    let at = (iy * self.width + (ox + p) * self.stride + kx) * c;
                    &self.x[at..at + c]
                });
                for (ci, wj) in ws.chunks_exact(CO_BLOCK).enumerate() {
                    for (acc, xs) in acc.iter_mut().zip(&xs) {
                        let x = xs[ci];
                        for (a, &w) in acc.iter_mut().zip(wj) {
                            *a = A::mac(*a, x, w);
                        }
                    }
                }
            }
        }
        let co = blk * CO_BLOCK;
        let live = (self.c_out - co).min(CO_BLOCK);
        for (p, acc) in acc.iter().enumerate() {
            let at = (ox + p) * self.c_out + co;
            for (o, &a) in row[at..at + live].iter_mut().zip(acc) {
                *o = A::relu(A::epilogue(a, shift), relu);
            }
        }
    }
}

/// Reorders conv weights from `[co][ci][ky][kx]` into [`CO_BLOCK`]-wide
/// output-channel blocks laid out `[blk][ky][kx][ci][b]`, zero-padding the
/// last block, so a tile reads its weights contiguously.
fn reorder_conv_blocked<T: Copy + Default>(w: &[T], c_out: u32, ci: u32, k: u32) -> Vec<T> {
    let (c_out, ci, k) = (c_out as usize, ci as usize, k as usize);
    let row = k * k * ci;
    let mut out = vec![T::default(); c_out.div_ceil(CO_BLOCK) * row * CO_BLOCK];
    for co in 0..c_out {
        let (blk, b) = (co / CO_BLOCK, co % CO_BLOCK);
        for ky in 0..k {
            for kx in 0..k {
                for c in 0..ci {
                    out[(blk * row + (ky * k + kx) * ci + c) * CO_BLOCK + b] =
                        w[((co * ci + c) * k + ky) * k + kx];
                }
            }
        }
    }
    out
}

/// An `h × w × c` map inside a `pad`-wide border of zeros (the element's
/// default), `[y][x][c]`; the map itself when `pad` is 0.
fn padded<T: Copy + Default>(h: u32, w: u32, c: u32, pad: u32, data: &[T]) -> Cow<'_, [T]> {
    if pad == 0 {
        return Cow::Borrowed(data);
    }
    let (w, c, pad) = (w as usize, c as usize, pad as usize);
    let width = w + 2 * pad;
    let mut out = vec![T::default(); (h as usize + 2 * pad) * width * c];
    for (y, src) in data.chunks_exact(w * c).enumerate() {
        let at = ((y + pad) * width + pad) * c;
        out[at..at + w * c].copy_from_slice(src);
    }
    Cow::Owned(out)
}

fn out_hw(h: u32, w: u32, k: u32, stride: u32, pad: u32) -> (u32, u32) {
    (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    )
}

/// The index of the largest element (argmax for classification).
#[must_use]
pub fn argmax_f(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// The index of the largest element of an int8 vector.
#[must_use]
pub fn argmax_q(v: &[i8]) -> usize {
    let mut best = 0usize;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Extracts the final flat value of a run.
///
/// # Panics
///
/// Panics if the last node is not flat.
#[must_use]
pub fn final_flat_q(values: &[ValueQ]) -> &[i8] {
    match values.last().expect("nonempty") {
        ValueQ::Flat(v) => v,
        ValueQ::Map { .. } => panic!("final node is a map"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_round_matches_vxm_semantics() {
        assert_eq!(shift_round(100, 7), 1);
        assert_eq!(shift_round(-100, 7), -1);
        assert_eq!(shift_round(3, 1), 2);
        assert_eq!(shift_round(-3, 1), -2);
        assert_eq!(shift_round(2, -3), 16);
    }

    #[test]
    fn argmax_helpers() {
        assert_eq!(argmax_f(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax_q(&[-5, 3, 3]), 1);
    }

    /// A keep-what-is-live walk over a residual fork: after each node, only
    /// its own value and those a later node still reads are alive — the
    /// fork's shortcut until its add — and nothing stays behind.
    #[test]
    fn a_live_walk_keeps_only_what_a_later_node_reads() {
        use crate::graph::{ConvSpec, ConvW, DenseW};
        let conv = |relu| {
            Op::Conv(ConvSpec {
                c_out: 2,
                k: 3,
                stride: 1,
                pad: 1,
                relu,
            })
        };
        let mut g = Graph::with_input(4, 4, 2);
        let fork = g.push(conv(true), vec![0], "fork");
        let branch = g.push(conv(false), vec![fork], "branch");
        let add = g.push(Op::Add { relu: true }, vec![branch, fork], "add");
        let gap = g.push(Op::GlobalAvgPool, vec![add], "gap");
        let fc = g.push(
            Op::Dense {
                out: 3,
                relu: false,
            },
            vec![gap],
            "fc",
        );
        let mut params = Params::default();
        for node in [fork, branch] {
            let w = (0..2 * 2 * 9).map(|i| (i % 5) as f32 / 4.0 - 0.5).collect();
            params.conv.insert(
                node,
                ConvW {
                    w,
                    co: 2,
                    ci: 2,
                    k: 3,
                },
            );
        }
        let w = (0..3 * 2).map(|i| i as f32 / 6.0).collect();
        params.dense.insert(fc, DenseW { w, out: 3, inp: 2 });
        let image: Vec<f32> = (0..4 * 4 * 2).map(|i| (i % 7) as f32 / 7.0).collect();

        let mut alive = Vec::new();
        let left = run(&g, &params, &image, Keep::Live, |i, values| {
            let live: Vec<usize> = (0..values.len()).filter(|&j| values[j].is_some()).collect();
            let read_later = |j: usize| g.nodes[i + 1..].iter().any(|n| n.inputs.contains(&j));
            let want: Vec<usize> = (0..=i).filter(|&j| j == i || read_later(j)).collect();
            assert_eq!(live, want, "alive after node {i}");
            alive.push(live);
        });
        assert_eq!(
            alive,
            [
                vec![0],
                vec![fork],
                vec![fork, branch],
                vec![add],
                vec![gap],
                vec![fc]
            ]
        );
        assert!(left.iter().all(Option::is_none), "a value stayed behind");
    }
}
