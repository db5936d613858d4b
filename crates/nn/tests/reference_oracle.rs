//! The reference executors' convolution and max pool against textbook loops
//! written here, on seeded random shapes: fp32 bit for bit, int8 exactly.
//!
//! The textbook conv sums each output's in-bounds taps in `(ky, kx, ci)`
//! order from `+0.0` and skips the padding border; the textbook pool folds
//! the larger of two elements over the window from the element's minimum, a
//! border tap reading zero. Nothing here is shared with
//! `tsp_nn::reference`: the int8 requantization is restated below.
//!
//! The shapes cover every kernel size, stride and padding ResNet uses and
//! more (k ∈ {1, 3, 7}, stride ∈ {1, 2}, pad ∈ {0, 1, 3}), output channel
//! counts off any tile width, output rows narrower than a tile and inputs
//! holding `−0.0`. A debug build checks a few cases; a release build
//! (`cargo test --release -p tsp-nn --test reference_oracle`) many.

use std::collections::BTreeMap;

use tsp_nn::graph::{ConvSpec, ConvW, Graph, Op, Params};
use tsp_nn::quant::{QConv, QuantGraph};
use tsp_nn::reference::{run_fp32, run_int8, Value};

/// Random cases per test.
const CASES: usize = if cfg!(debug_assertions) { 24 } else { 4000 };

/// SplitMix64: a seeded stream of cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }

    fn pick(&mut self, of: &[u32]) -> u32 {
        of[self.next() as usize % of.len()]
    }

    /// An fp32 value in [−1, 1); one in eight is `−0.0` and one in eight
    /// `+0.0`.
    fn f32(&mut self) -> f32 {
        match self.next() % 8 {
            0 => -0.0,
            1 => 0.0,
            _ => (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
        }
    }

    fn i8(&mut self) -> i8 {
        self.next() as i8
    }
}

/// A window's geometry over an `h × w × c` input.
#[derive(Debug, Clone, Copy)]
struct Window {
    h: u32,
    w: u32,
    c: u32,
    k: u32,
    stride: u32,
    pad: u32,
}

impl Window {
    /// A random window whose padded input holds at least one kernel, with
    /// outputs as narrow as one pixel.
    fn random(rng: &mut Rng, max_hw: u32, max_c: u32) -> Window {
        let k = rng.pick(&[1, 3, 7]);
        let stride = rng.pick(&[1, 2]);
        let pad = rng.pick(&[0, 1, 3]);
        let least = k.saturating_sub(2 * pad).max(1);
        Window {
            h: rng.range(least, least.max(max_hw)),
            w: rng.range(least, least.max(max_hw)),
            c: rng.range(1, max_c),
            k,
            stride,
            pad,
        }
    }

    fn out(&self) -> (u32, u32) {
        (
            (self.h + 2 * self.pad - self.k) / self.stride + 1,
            (self.w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// The input index window tap `(ky, kx)` of output `(oy, ox)` reads,
    /// `None` on the border.
    fn at(&self, (oy, ox): (u32, u32), (ky, kx): (u32, u32)) -> Option<usize> {
        let iy = i64::from(oy * self.stride + ky) - i64::from(self.pad);
        let ix = i64::from(ox * self.stride + kx) - i64::from(self.pad);
        let inside = (0..i64::from(self.h)).contains(&iy) && (0..i64::from(self.w)).contains(&ix);
        inside.then(|| (iy as usize * self.w as usize + ix as usize) * self.c as usize)
    }
}

/// The textbook convolution of `x` (`[y][x][ci]`) by `w` (`[co][ci][ky][kx]`):
/// each output the `(ky, kx, ci)` fold of `mac` over its in-bounds taps,
/// then `finish`.
fn textbook_conv<T: Copy, S: Copy>(
    win: Window,
    c_out: u32,
    x: &[T],
    w: &[T],
    zero: S,
    mac: impl Fn(S, T, T) -> S,
    finish: impl Fn(S) -> T,
) -> Vec<T> {
    let (oh, ow) = win.out();
    let mut out = Vec::new();
    for oy in 0..oh {
        for ox in 0..ow {
            for co in 0..c_out {
                let mut acc = zero;
                for ky in 0..win.k {
                    for kx in 0..win.k {
                        let Some(at) = win.at((oy, ox), (ky, kx)) else {
                            continue;
                        };
                        for ci in 0..win.c {
                            let wi = (((co * win.c + ci) * win.k + ky) * win.k + kx) as usize;
                            acc = mac(acc, x[at + ci as usize], w[wi]);
                        }
                    }
                }
                out.push(finish(acc));
            }
        }
    }
    out
}

/// The textbook max pool: each output the `(ky, kx)` fold of `max` from
/// `min`, a border tap reading `zero`.
fn textbook_pool<T: Copy>(
    win: Window,
    x: &[T],
    min: T,
    zero: T,
    max: impl Fn(T, T) -> T,
) -> Vec<T> {
    let (oh, ow) = win.out();
    let mut out = Vec::new();
    for oy in 0..oh {
        for ox in 0..ow {
            for ch in 0..win.c as usize {
                let mut m = min;
                for ky in 0..win.k {
                    for kx in 0..win.k {
                        let v = win.at((oy, ox), (ky, kx)).map_or(zero, |at| x[at + ch]);
                        m = max(m, v);
                    }
                }
                out.push(m);
            }
        }
    }
    out
}

/// `acc × 2^-shift`, rounded half away from zero, saturated to int8.
fn requant(acc: i64, shift: u32) -> i8 {
    let magnitude = if shift == 0 {
        acc.abs()
    } else {
        (acc.abs() + (1 << (shift - 1))) >> shift
    };
    (acc.signum() * magnitude).clamp(-128, 127) as i8
}

/// The larger of two fp32 values, `+0.0` above `−0.0` (`f32::max` leaves a
/// zero tie's sign to codegen).
fn larger(a: f32, b: f32) -> f32 {
    if b.total_cmp(&a).is_gt() {
        b
    } else {
        a
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The last node's map.
fn last_map<T: Clone>(values: &[Value<T>]) -> Vec<T> {
    match values.last().expect("a node") {
        Value::Map { data, .. } => data.clone(),
        Value::Flat(_) => panic!("a map"),
    }
}

/// A one-op graph over an input of `win`'s shape.
fn one_op(win: Window, op: Op) -> Graph {
    let mut g = Graph::with_input(win.h, win.w, win.c);
    g.push(op, vec![0], "op");
    g
}

fn conv_case(rng: &mut Rng) -> (Window, ConvSpec) {
    let win = Window::random(rng, 11, 20);
    let spec = ConvSpec {
        c_out: rng.range(1, 40),
        k: win.k,
        stride: win.stride,
        pad: win.pad,
        relu: rng.next().is_multiple_of(2),
    };
    (win, spec)
}

fn int8_graph(g: Graph, conv: BTreeMap<usize, QConv>) -> QuantGraph {
    let scales = vec![1.0; g.nodes.len()];
    QuantGraph {
        graph: g,
        conv,
        dense: BTreeMap::new(),
        gap_shift: BTreeMap::new(),
        input_scale: 1.0,
        scales,
    }
}

#[test]
fn fp32_conv_is_the_textbook_loop_bit_for_bit() {
    let mut rng = Rng(0x5eed_c0de);
    for case in 0..CASES {
        let (win, spec) = conv_case(&mut rng);
        let x: Vec<f32> = (0..win.h * win.w * win.c).map(|_| rng.f32()).collect();
        let w: Vec<f32> = (0..spec.c_out * win.c * win.k * win.k)
            .map(|_| rng.f32())
            .collect();
        let mut params = Params::default();
        params.conv.insert(
            1,
            ConvW {
                w: w.clone(),
                co: spec.c_out,
                ci: win.c,
                k: win.k,
            },
        );
        let got = last_map(&run_fp32(&one_op(win, Op::Conv(spec)), &params, &x));
        let relu = spec.relu;
        let want = textbook_conv(
            win,
            spec.c_out,
            &x,
            &w,
            0.0f32,
            |acc, x, w| acc + x * w,
            |acc| if relu { larger(acc, 0.0) } else { acc },
        );
        assert_eq!(bits(&got), bits(&want), "case {case}: {win:?} {spec:?}");
    }
}

#[test]
fn int8_conv_is_the_textbook_loop_exactly() {
    let mut rng = Rng(0x1a7e_57a7);
    for case in 0..CASES {
        let (win, spec) = conv_case(&mut rng);
        let shift = rng.range(0, 12);
        let x: Vec<i8> = (0..win.h * win.w * win.c).map(|_| rng.i8()).collect();
        let w: Vec<i8> = (0..spec.c_out * win.c * win.k * win.k)
            .map(|_| rng.i8())
            .collect();
        let qc = QConv {
            w: w.clone(),
            co: spec.c_out,
            ci: win.c,
            k: win.k,
            shift: shift as i8,
        };
        let q = int8_graph(one_op(win, Op::Conv(spec)), BTreeMap::from([(1, qc)]));
        let got = last_map(&run_int8(&q, &x));
        let relu = spec.relu;
        let want = textbook_conv(
            win,
            spec.c_out,
            &x,
            &w,
            0i64,
            |acc, x, w| acc + i64::from(x) * i64::from(w),
            |acc| {
                let v = requant(acc, shift);
                if relu {
                    v.max(0)
                } else {
                    v
                }
            },
        );
        assert_eq!(got, want, "case {case}: {win:?} {spec:?} shift {shift}");
    }
}

#[test]
fn max_pools_are_the_textbook_loop_bit_for_bit() {
    let mut rng = Rng(0x00b0_01ed);
    for case in 0..CASES {
        let win = Window::random(&mut rng, 13, 40);
        let op = Op::MaxPool {
            k: win.k,
            stride: win.stride,
            pad: win.pad,
        };
        let g = one_op(win, op);

        let x: Vec<f32> = (0..win.h * win.w * win.c).map(|_| rng.f32()).collect();
        let got = last_map(&run_fp32(&g, &Params::default(), &x));
        let want = textbook_pool(win, &x, f32::MIN, 0.0, larger);
        assert_eq!(bits(&got), bits(&want), "fp32 case {case}: {win:?}");

        let x: Vec<i8> = (0..win.h * win.w * win.c).map(|_| rng.i8()).collect();
        let got = last_map(&run_int8(&int8_graph(g, BTreeMap::new()), &x));
        let want = textbook_pool(win, &x, i8::MIN, 0, i8::max);
        assert_eq!(got, want, "int8 case {case}: {win:?}");
    }
}
