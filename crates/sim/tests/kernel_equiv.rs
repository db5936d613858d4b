//! Kernel-equivalence suite (DESIGN.md §9): the chunked/batched data-path
//! kernels must be **bit-identical** to the scalar oracles in `reference/`
//! across random weights, activations, operands and shifts — including the
//! int8 saturating/modulo edges, conversions at every `i8` shift and the
//! fp16 tandem path's single-rounding-at-readout contract. The oracles
//! import nothing from the kernels they check.

mod reference;

use proptest::prelude::*;
use tsp_arch::{Vector, LANES};
use tsp_isa::{BinaryAluOp, DataType, PermuteMap, UnaryAluOp};
use tsp_sim::mxm_unit::{MxmPlane, MxmResult};
use tsp_sim::{fp16, sxm_unit, vxm_unit};

const BINARY_OPS: [BinaryAluOp; 8] = [
    BinaryAluOp::AddSat,
    BinaryAluOp::AddMod,
    BinaryAluOp::SubSat,
    BinaryAluOp::SubMod,
    BinaryAluOp::MulSat,
    BinaryAluOp::MulMod,
    BinaryAluOp::Max,
    BinaryAluOp::Min,
];
const UNARY_OPS: [UnaryAluOp; 7] = [
    UnaryAluOp::Mask,
    UnaryAluOp::Negate,
    UnaryAluOp::Abs,
    UnaryAluOp::Relu,
    UnaryAluOp::Tanh,
    UnaryAluOp::Exp,
    UnaryAluOp::Rsqrt,
];
const DTYPES: [DataType; 5] = [
    DataType::Int8,
    DataType::Int16,
    DataType::Int32,
    DataType::Fp16,
    DataType::Fp32,
];

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A vector of raw random bytes (covers every lane bit pattern, so int edges
/// like -128 and float specials like NaN/Inf appear regularly).
fn rand_vector(state: &mut u64) -> Vector {
    Vector::from_fn(|_| (xorshift(state) >> 24) as u8)
}

fn rand_planes(state: &mut u64, dtype: DataType) -> Vec<Vector> {
    (0..dtype.stream_width())
        .map(|_| rand_vector(state))
        .collect()
}

/// Loads a full random weight matrix and installs it; returns the rows it
/// loaded, for driving the scalar oracle.
fn install_random_weights(
    plane: &mut MxmPlane,
    state: &mut u64,
    dtype: DataType,
) -> Vec<[u8; LANES]> {
    let mut installed = Vec::with_capacity(LANES);
    for g in 0..20u8 {
        let rows: Vec<Vector> = (0..16).map(|_| rand_vector(state)).collect();
        plane.load_weight_rows(g, &rows);
        installed.extend(rows.iter().map(|row| *row.as_bytes()));
    }
    plane.install(dtype);
    installed
}

proptest! {
    /// The wave-batched, i16-widened int8 MXM path retires exactly the
    /// scalar oracle's dot products, per feed, in feed order.
    #[test]
    fn mxm_i8_wave_matches_scalar_reference(seed in any::<u64>(), k in 1usize..5) {
        let mut s = seed | 1;
        let mut plane = MxmPlane::new();
        let installed = install_random_weights(&mut plane, &mut s, DataType::Int8);
        let acts: Vec<Vector> = (0..k).map(|_| rand_vector(&mut s)).collect();
        for (i, a) in acts.iter().enumerate() {
            plane.feed_activation_i8(i as u64, a);
        }
        for (i, a) in acts.iter().enumerate() {
            let Some(MxmResult::Int32(got)) = plane.accumulate(1000 + i as u64, 0, false) else {
                return Err(TestCaseError::Fail(format!("feed {i} produced no int32 result")));
            };
            prop_assert_eq!(got, &reference::mxm::matmul_i8(&installed, a), "feed {}", i);
        }
    }

    /// Interleaving feeds, reinstalls, and accumulates (the flush-on-demand
    /// wave boundaries) never changes a value versus the oracle computed
    /// against the weights each feed streamed through.
    #[test]
    fn mxm_i8_wave_respects_reinstall_boundaries(seed in any::<u64>()) {
        let mut s = seed | 1;
        let mut plane = MxmPlane::new();
        let first = install_random_weights(&mut plane, &mut s, DataType::Int8);
        let a0 = rand_vector(&mut s);
        let a1 = rand_vector(&mut s);
        plane.feed_activation_i8(0, &a0);
        // Reinstall mid-stream: a0 is already queued against `first`.
        let second = install_random_weights(&mut plane, &mut s, DataType::Int8);
        plane.feed_activation_i8(1, &a1);
        let Some(MxmResult::Int32(r0)) = plane.accumulate(1000, 0, false) else {
            return Err(TestCaseError::Fail("no result for feed 0".into()));
        };
        prop_assert_eq!(r0, &reference::mxm::matmul_i8(&first, &a0));
        let Some(MxmResult::Int32(r1)) = plane.accumulate(1001, 0, false) else {
            return Err(TestCaseError::Fail("no result for feed 1".into()));
        };
        prop_assert_eq!(r1, &reference::mxm::matmul_i8(&second, &a1));
    }

    /// The fp16 tandem path, decoding both planes' weights through the
    /// lane codec at each feed, is bit-identical (compared as f32 bit
    /// patterns, so NaN payloads and signed zeros count) to the scalar
    /// oracle, which decodes the bytes itself.
    #[test]
    fn mxm_fp16_matches_scalar_reference(seed in any::<u64>()) {
        let mut s = seed | 1;
        let mut lo = MxmPlane::new();
        let mut hi = MxmPlane::new();
        let lo_rows = install_random_weights(&mut lo, &mut s, DataType::Fp16);
        let hi_rows = install_random_weights(&mut hi, &mut s, DataType::Fp16);
        let act_lo = rand_vector(&mut s);
        let act_hi = rand_vector(&mut s);
        // Two feeds through the same installed pair.
        lo.feed_activation_fp16(0, &hi, &act_lo, &act_hi);
        lo.feed_activation_fp16(1, &hi, &act_lo, &act_hi);
        let want: Vec<u32> = reference::mxm::matmul_fp16(&lo_rows, &hi_rows, &act_lo, &act_hi)
            .into_iter()
            .map(f32::to_bits)
            .collect();
        for feed in 0..2u64 {
            let Some(MxmResult::Fp32(got)) = lo.accumulate(1000 + feed, 0, false) else {
                return Err(TestCaseError::Fail(format!("feed {feed} produced no fp32 result")));
            };
            let got: Vec<u32> = got.iter().copied().map(f32::to_bits).collect();
            prop_assert_eq!(&got, &want, "feed {}", feed);
        }
    }

    /// Every (binary op × dtype) combination of the typed VXM kernels equals
    /// the tagged-lane oracle on raw random operand planes.
    #[test]
    fn vxm_binary_matches_scalar_reference(seed in any::<u64>()) {
        let mut s = seed | 1;
        for dtype in DTYPES {
            let a = rand_planes(&mut s, dtype);
            let b = rand_planes(&mut s, dtype);
            for op in BINARY_OPS {
                prop_assert_eq!(
                    vxm_unit::apply_binary(op, dtype, &a, &b).unwrap(),
                    reference::vxm::apply_binary(op, dtype, &a, &b).unwrap(),
                    "{:?} {}", op, dtype
                );
            }
        }
    }

    /// Every (unary op × dtype) combination equals the oracle, including the
    /// rejection of transcendentals on integer types.
    #[test]
    fn vxm_unary_matches_scalar_reference(seed in any::<u64>()) {
        let mut s = seed | 1;
        for dtype in DTYPES {
            let x = rand_planes(&mut s, dtype);
            for op in UNARY_OPS {
                prop_assert_eq!(
                    vxm_unit::apply_unary(op, dtype, &x).ok(),
                    reference::vxm::apply_unary(op, dtype, &x).ok(),
                    "{:?} {}", op, dtype
                );
            }
        }
    }

    /// Every (from × to) conversion with a power-of-two scale at any `i8`
    /// shift equals the oracle (requantization rounding and saturation
    /// included).
    #[test]
    fn vxm_convert_matches_scalar_reference(seed in any::<u64>(), shift in any::<i8>()) {
        let mut s = seed | 1;
        for from in DTYPES {
            let x = rand_planes(&mut s, from);
            for to in DTYPES {
                prop_assert_eq!(
                    vxm_unit::apply_convert(from, to, shift, &x).unwrap(),
                    reference::vxm::apply_convert(from, to, shift, &x).unwrap(),
                    "{} -> {} shift {}", from, to, shift
                );
            }
        }
    }

    /// The block-copy SXM kernels equal their per-lane oracles, including
    /// oversized shift counts and whole-vector select boundaries.
    #[test]
    fn sxm_kernels_match_scalar_reference(
        seed in any::<u64>(),
        n in 0u16..400,
        boundary in 0u16..400,
        rot in 0usize..LANES,
        fan in 1u8..6,
    ) {
        let mut s = seed | 1;
        let v = rand_vector(&mut s);
        let w = rand_vector(&mut s);
        prop_assert_eq!(sxm_unit::shift_up(&v, n), reference::sxm::shift_up(&v, n));
        prop_assert_eq!(sxm_unit::shift_down(&v, n), reference::sxm::shift_down(&v, n));
        prop_assert_eq!(
            sxm_unit::select(&v, &w, boundary),
            reference::sxm::select(&v, &w, boundary)
        );
        let map = PermuteMap::rotation(rot);
        prop_assert_eq!(
            sxm_unit::permute(&v, &map),
            reference::sxm::permute(&v, &map)
        );
        let mut dist = [None; 16];
        for d in &mut dist {
            let r = xorshift(&mut s);
            *d = (r & 1 == 1).then_some((r >> 8) as u8 % 16);
        }
        prop_assert_eq!(
            sxm_unit::distribute(&v, &dist),
            reference::sxm::distribute(&v, &dist)
        );
        let rows: Vec<Vector> = (0..fan).map(|_| rand_vector(&mut s)).collect();
        prop_assert_eq!(
            sxm_unit::rotate(&rows, fan),
            reference::sxm::rotate(&rows, fan)
        );
        let streams: Vec<Vector> = (0..16).map(|_| rand_vector(&mut s)).collect();
        prop_assert_eq!(
            sxm_unit::transpose(&streams),
            reference::sxm::transpose(&streams)
        );
    }
}

/// Exhaustive int8 × int8 sweep of every saturating and modulo binary op:
/// the chunked kernel, the tagged-lane oracle, and independently computed
/// i16 arithmetic agree on all 65 536 operand pairs — every saturation edge
/// (−128·−128, −128+−128, …) and every wraparound included.
#[test]
fn vxm_int8_edges_exhaustive() {
    for a in i8::MIN..=i8::MAX {
        // One vector sweeps all b values per a: lane l holds b = l - 128
        // (lanes 256..320 repeat b = 127).
        let b_sweep = Vector::from_fn(|l| (l as i64 - 128).clamp(-128, 127) as i8 as u8);
        let va = vec![Vector::splat(a as u8)];
        let vb = vec![b_sweep.clone()];
        for op in BINARY_OPS {
            let got = vxm_unit::apply_binary(op, DataType::Int8, &va, &vb).unwrap();
            let want = reference::vxm::apply_binary(op, DataType::Int8, &va, &vb).unwrap();
            assert_eq!(got, want, "{op:?} a={a}");
            for l in 0..LANES {
                let b = b_sweep.lane(l) as i8;
                let (x, y) = (i16::from(a), i16::from(b));
                let expect = match op {
                    BinaryAluOp::AddSat => (x + y).clamp(-128, 127) as i8,
                    BinaryAluOp::AddMod => a.wrapping_add(b),
                    BinaryAluOp::SubSat => (x - y).clamp(-128, 127) as i8,
                    BinaryAluOp::SubMod => a.wrapping_sub(b),
                    BinaryAluOp::MulSat => (x * y).clamp(-128, 127) as i8,
                    BinaryAluOp::MulMod => a.wrapping_mul(b),
                    BinaryAluOp::Max => a.max(b),
                    BinaryAluOp::Min => a.min(b),
                };
                assert_eq!(got[0].lane(l) as i8, expect, "{op:?} {a} {b}");
            }
        }
    }
}

/// The fp16 tandem dot product accumulates in f64 and rounds **once** at
/// readout: 1 + 2⁻²⁴ + 2⁻²⁴ must come out as 1 + 2⁻²³ (representable in
/// f32), which stepwise f32 accumulation would lose (1 + 2⁻²⁴ rounds back
/// to 1.0 at every step).
#[test]
fn mxm_fp16_single_rounding_at_readout() {
    let mut lo = MxmPlane::new();
    let mut hi = MxmPlane::new();
    // Row 0 = [1.0, 2^-24, 2^-24, 0, ...]; 2^-24 is the smallest fp16
    // subnormal, bit pattern 0x0001.
    let weights: [u16; 3] = [fp16::f32_to_f16(1.0), 0x0001, 0x0001];
    let mut row_lo = Vector::ZERO;
    let mut row_hi = Vector::ZERO;
    for (l, bits) in weights.iter().enumerate() {
        row_lo.set_lane(l, (bits & 0xFF) as u8);
        row_hi.set_lane(l, (bits >> 8) as u8);
    }
    let pad = |first: Vector| {
        let mut rows = vec![first];
        rows.extend((1..16).map(|_| Vector::ZERO));
        rows
    };
    lo.load_weight_rows(0, &pad(row_lo));
    hi.load_weight_rows(0, &pad(row_hi));
    lo.install(DataType::Fp16);
    hi.install(DataType::Fp16);
    // Activation = 1.0 in the three live lanes.
    let one = fp16::f32_to_f16(1.0);
    let mut act_lo = Vector::ZERO;
    let mut act_hi = Vector::ZERO;
    for l in 0..3 {
        act_lo.set_lane(l, (one & 0xFF) as u8);
        act_hi.set_lane(l, (one >> 8) as u8);
    }
    lo.feed_activation_fp16(0, &hi, &act_lo, &act_hi);
    let Some(MxmResult::Fp32(out)) = lo.accumulate(1000, 0, false) else {
        panic!("expected fp32 result");
    };
    let single_rounded = (1.0 + 2f64.powi(-23)) as f32;
    assert_eq!(out[0].to_bits(), single_rounded.to_bits());
    assert_ne!(out[0].to_bits(), 1f32.to_bits(), "double rounding detected");
}

/// `v·2^-shift`, rounded half away from zero and clamped to `[min, max]`,
/// computed with `u128` magnitudes: a divide for a right shift, a checked
/// multiply for a left one.
fn exact_shift(v: i128, shift: i8, (min, max): (i128, i128)) -> i128 {
    let k = u32::from(shift.unsigned_abs());
    let m = v.unsigned_abs();
    let magnitude = if shift >= 0 {
        let d = 1u128 << k;
        (m + d / 2) / d
    } else if m == 0 {
        0
    } else {
        1u128
            .checked_shl(k)
            .and_then(|p| m.checked_mul(p))
            .unwrap_or(u128::MAX)
    };
    let magnitude = i128::try_from(magnitude).unwrap_or(i128::MAX);
    (if v < 0 { -magnitude } else { magnitude }).clamp(min, max)
}

/// Integer → integer conversions at shifts far outside a requantizer's,
/// for every source/target pair, against `u128` arithmetic: the exact
/// rounded and saturated `v·2^-shift` (a shift of 64 takes 1 to 0; −63
/// takes 1,000 to the target's maximum).
#[test]
fn vxm_convert_extreme_shifts_match_i128_arithmetic() {
    const SHIFTS: [i8; 12] = [-128, -64, -63, -40, -33, 32, 33, 63, 64, 127, 1, -1];
    let ints = [
        (DataType::Int8, i128::from(i8::MIN), i128::from(i8::MAX)),
        (DataType::Int16, i128::from(i16::MIN), i128::from(i16::MAX)),
        (DataType::Int32, i128::from(i32::MIN), i128::from(i32::MAX)),
    ];
    for (from, min, max) in ints {
        let values = [0, 1, -1, 2, -2, 3, 1000, -1000, min, max, min + 1, max - 1]
            .map(|v: i128| v.clamp(min, max));
        let width = usize::from(from.stream_width());
        // Lane `l` holds `values[l % 12]`, little-endian across the planes.
        let x: Vec<Vector> = (0..width)
            .map(|k| Vector::from_fn(|l| (values[l % values.len()] >> (8 * k)) as u8))
            .collect();
        for (to, to_min, to_max) in ints {
            let out_width = usize::from(to.stream_width());
            for shift in SHIFTS {
                let got = vxm_unit::apply_convert(from, to, shift, &x).unwrap();
                for (l, &v) in values.iter().enumerate() {
                    let lane: i128 = (0..out_width)
                        .map(|k| i128::from(got[k].lane(l)) << (8 * k))
                        .sum();
                    let bits = 8 * out_width as u32;
                    let lane = (lane << (128 - bits)) >> (128 - bits); // sign-extend
                    let want = exact_shift(v, shift, (to_min, to_max));
                    assert_eq!(lane, want, "{from} -> {to}, {v} shift {shift}");
                }
            }
        }
    }
}

/// The lane codec lays an `int32` lane across a quad as the oracle's
/// byte-by-byte reading expects (plane `k` holds byte `k`), and loads back
/// what it stored.
#[test]
fn lane_codec_round_trips_i32_quads() {
    use tsp_sim::lane::{self, Lane};
    let ints: Vec<i32> = (0..LANES as i32).map(|i| i * 1_000_003 - 7).collect();
    let quad = lane::group(|l| ints[l]);
    assert_eq!(quad.len(), 4);
    for (l, &v) in ints.iter().enumerate() {
        assert_eq!(i32::load(&lane::planes(&quad), l), v);
        for (k, plane) in quad.iter().enumerate() {
            assert_eq!(plane.lane(l), (v >> (8 * k)) as u8, "lane {l} plane {k}");
        }
    }
}

/// The lane codec lays an fp16 lane across a pair, low byte first, and loads
/// back what it stored.
#[test]
fn lane_codec_round_trips_fp16_pairs() {
    use tsp_sim::lane::{self, Lane, F16};
    let halves: Vec<u16> = (0..LANES).map(|i| (i * 257) as u16).collect();
    let pair = lane::group(|l| F16(halves[l]));
    assert_eq!(pair.len(), 2);
    for (l, &v) in halves.iter().enumerate() {
        assert_eq!(F16::load(&lane::planes(&pair), l), F16(v));
        assert_eq!(
            [pair[0].lane(l), pair[1].lane(l)],
            [v as u8, (v >> 8) as u8]
        );
    }
}
