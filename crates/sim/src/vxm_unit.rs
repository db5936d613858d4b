//! Value semantics of the vector execution module (VXM).
//!
//! Pure functions from operand vectors to result vectors, shared by the chip
//! simulator and unit tests. Multi-byte element types arrive as naturally
//! aligned groups of byte-plane vectors (paper §I-B); these helpers assemble
//! lanes, apply the (stateless) ALU operation with the saturating or modulo
//! semantics the ISA selects, and split results back into byte planes.
//!
//! ## Host-performance shape (DESIGN.md §9)
//!
//! The entry points dispatch on `(op, dtype)` **once** and run a typed,
//! monomorphized kernel over fixed 16-lane chunks — one superlane word,
//! `[u8; 16]` on the wire — straight off the byte planes, with no per-lane
//! enum tagging or intermediate allocation. Integer kernels widen to
//! `i32`/`i64` (wide enough that the raw result never overflows, so
//! saturating and modulo variants are exact); float kernels keep the
//! original `f64`-internal arithmetic so every rounding step is unchanged.
//! The original tagged-lane implementation is retained in [`reference`](mod@reference) as
//! the oracle the kernel-equivalence property tests compare against.

use std::borrow::Borrow;

use tsp_arch::{Vector, LANES, LANES_PER_SUPERLANE};
use tsp_isa::{BinaryAluOp, DataType, UnaryAluOp};

use crate::fp16;

fn check_width(dtype: DataType, planes: &[impl Borrow<Vector>]) {
    assert_eq!(
        planes.len(),
        dtype.stream_width() as usize,
        "stream group width does not match {dtype}"
    );
}

fn saturate(dtype: DataType, v: i64) -> i64 {
    match dtype {
        DataType::Int8 => v.clamp(i64::from(i8::MIN), i64::from(i8::MAX)),
        DataType::Int16 => v.clamp(i64::from(i16::MIN), i64::from(i16::MAX)),
        DataType::Int32 => v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)),
        _ => v,
    }
}

fn wrap(dtype: DataType, v: i64) -> i64 {
    match dtype {
        DataType::Int8 => i64::from(v as i8),
        DataType::Int16 => i64::from(v as i16),
        DataType::Int32 => i64::from(v as i32),
        _ => v,
    }
}

fn sat_f64_to_i8(f: f64) -> i8 {
    f.round().clamp(f64::from(i8::MIN), f64::from(i8::MAX)) as i8
}
fn sat_f64_to_i16(f: f64) -> i16 {
    f.round().clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
}
fn sat_f64_to_i32(f: f64) -> i32 {
    f.round().clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
}

// ---------------------------------------------------------------------------
// Typed lanewise kernels. Each takes operand byte planes and a per-lane
// closure over the widened arithmetic type; the closure is monomorphized per
// call site, so the chunked loops autovectorize. The closure must return a
// value already narrowed into the target range (the `Sat` arms clamp, the
// `Mod` arms wrap; `Max`/`Min` never leave it).
// ---------------------------------------------------------------------------

#[inline]
fn map_i8(
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
    f: impl Fn(i32, i32) -> i32,
) -> Vec<Vector> {
    let (pa, pb) = (a[0].borrow().as_bytes(), b[0].borrow().as_bytes());
    let mut out = Vector::ZERO;
    let ob = out.as_bytes_mut();
    for ((oc, ac), bc) in ob
        .chunks_exact_mut(LANES_PER_SUPERLANE)
        .zip(pa.chunks_exact(LANES_PER_SUPERLANE))
        .zip(pb.chunks_exact(LANES_PER_SUPERLANE))
    {
        for j in 0..LANES_PER_SUPERLANE {
            oc[j] = f(i32::from(ac[j] as i8), i32::from(bc[j] as i8)) as i8 as u8;
        }
    }
    vec![out]
}

#[inline]
fn map1_i8(x: &[impl Borrow<Vector>], f: impl Fn(i32) -> i32) -> Vec<Vector> {
    let px = x[0].borrow().as_bytes();
    let mut out = Vector::ZERO;
    let ob = out.as_bytes_mut();
    for (oc, xc) in ob
        .chunks_exact_mut(LANES_PER_SUPERLANE)
        .zip(px.chunks_exact(LANES_PER_SUPERLANE))
    {
        for j in 0..LANES_PER_SUPERLANE {
            oc[j] = f(i32::from(xc[j] as i8)) as i8 as u8;
        }
    }
    vec![out]
}

#[inline]
fn map_i16(
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
    f: impl Fn(i32, i32) -> i32,
) -> Vec<Vector> {
    let (a0, a1) = (a[0].borrow().as_bytes(), a[1].borrow().as_bytes());
    let (b0, b1) = (b[0].borrow().as_bytes(), b[1].borrow().as_bytes());
    let mut lo = [0u8; LANES];
    let mut hi = [0u8; LANES];
    for l in 0..LANES {
        let x = i32::from(i16::from_le_bytes([a0[l], a1[l]]));
        let y = i32::from(i16::from_le_bytes([b0[l], b1[l]]));
        let r = (f(x, y) as i16).to_le_bytes();
        lo[l] = r[0];
        hi[l] = r[1];
    }
    vec![Vector::new(lo), Vector::new(hi)]
}

#[inline]
fn map1_i16(x: &[impl Borrow<Vector>], f: impl Fn(i32) -> i32) -> Vec<Vector> {
    let (x0, x1) = (x[0].borrow().as_bytes(), x[1].borrow().as_bytes());
    let mut lo = [0u8; LANES];
    let mut hi = [0u8; LANES];
    for l in 0..LANES {
        let v = i32::from(i16::from_le_bytes([x0[l], x1[l]]));
        let r = (f(v) as i16).to_le_bytes();
        lo[l] = r[0];
        hi[l] = r[1];
    }
    vec![Vector::new(lo), Vector::new(hi)]
}

#[inline]
fn map_i32(
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
    f: impl Fn(i64, i64) -> i64,
) -> Vec<Vector> {
    let pa = [
        a[0].borrow().as_bytes(),
        a[1].borrow().as_bytes(),
        a[2].borrow().as_bytes(),
        a[3].borrow().as_bytes(),
    ];
    let pb = [
        b[0].borrow().as_bytes(),
        b[1].borrow().as_bytes(),
        b[2].borrow().as_bytes(),
        b[3].borrow().as_bytes(),
    ];
    let mut out = [[0u8; LANES]; 4];
    for l in 0..LANES {
        let x = i64::from(i32::from_le_bytes([pa[0][l], pa[1][l], pa[2][l], pa[3][l]]));
        let y = i64::from(i32::from_le_bytes([pb[0][l], pb[1][l], pb[2][l], pb[3][l]]));
        let r = (f(x, y) as i32).to_le_bytes();
        for (plane, byte) in out.iter_mut().zip(r) {
            plane[l] = byte;
        }
    }
    out.into_iter().map(Vector::new).collect()
}

#[inline]
fn map1_i32(x: &[impl Borrow<Vector>], f: impl Fn(i64) -> i64) -> Vec<Vector> {
    let px = [
        x[0].borrow().as_bytes(),
        x[1].borrow().as_bytes(),
        x[2].borrow().as_bytes(),
        x[3].borrow().as_bytes(),
    ];
    let mut out = [[0u8; LANES]; 4];
    for l in 0..LANES {
        let v = i64::from(i32::from_le_bytes([px[0][l], px[1][l], px[2][l], px[3][l]]));
        let r = (f(v) as i32).to_le_bytes();
        for (plane, byte) in out.iter_mut().zip(r) {
            plane[l] = byte;
        }
    }
    out.into_iter().map(Vector::new).collect()
}

#[inline]
fn map_f32(
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
    f: impl Fn(f64, f64) -> f64,
) -> Vec<Vector> {
    let pa = [
        a[0].borrow().as_bytes(),
        a[1].borrow().as_bytes(),
        a[2].borrow().as_bytes(),
        a[3].borrow().as_bytes(),
    ];
    let pb = [
        b[0].borrow().as_bytes(),
        b[1].borrow().as_bytes(),
        b[2].borrow().as_bytes(),
        b[3].borrow().as_bytes(),
    ];
    let mut out = [[0u8; LANES]; 4];
    for l in 0..LANES {
        let x = f32::from_le_bytes([pa[0][l], pa[1][l], pa[2][l], pa[3][l]]);
        let y = f32::from_le_bytes([pb[0][l], pb[1][l], pb[2][l], pb[3][l]]);
        let r = (f(f64::from(x), f64::from(y)) as f32).to_le_bytes();
        for (plane, byte) in out.iter_mut().zip(r) {
            plane[l] = byte;
        }
    }
    out.into_iter().map(Vector::new).collect()
}

#[inline]
fn map1_f32(x: &[impl Borrow<Vector>], f: impl Fn(f64) -> f64) -> Vec<Vector> {
    let px = [
        x[0].borrow().as_bytes(),
        x[1].borrow().as_bytes(),
        x[2].borrow().as_bytes(),
        x[3].borrow().as_bytes(),
    ];
    let mut out = [[0u8; LANES]; 4];
    for l in 0..LANES {
        let v = f32::from_le_bytes([px[0][l], px[1][l], px[2][l], px[3][l]]);
        let r = (f(f64::from(v)) as f32).to_le_bytes();
        for (plane, byte) in out.iter_mut().zip(r) {
            plane[l] = byte;
        }
    }
    out.into_iter().map(Vector::new).collect()
}

#[inline]
fn map_f16(
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
    f: impl Fn(f64, f64) -> f64,
) -> Vec<Vector> {
    let (a0, a1) = (a[0].borrow().as_bytes(), a[1].borrow().as_bytes());
    let (b0, b1) = (b[0].borrow().as_bytes(), b[1].borrow().as_bytes());
    let mut lo = [0u8; LANES];
    let mut hi = [0u8; LANES];
    for l in 0..LANES {
        let x = f64::from(fp16::f16_to_f32(u16::from_le_bytes([a0[l], a1[l]])));
        let y = f64::from(fp16::f16_to_f32(u16::from_le_bytes([b0[l], b1[l]])));
        let r = fp16::f32_to_f16(f(x, y) as f32).to_le_bytes();
        lo[l] = r[0];
        hi[l] = r[1];
    }
    vec![Vector::new(lo), Vector::new(hi)]
}

#[inline]
fn map1_f16(x: &[impl Borrow<Vector>], f: impl Fn(f64) -> f64) -> Vec<Vector> {
    let (x0, x1) = (x[0].borrow().as_bytes(), x[1].borrow().as_bytes());
    let mut lo = [0u8; LANES];
    let mut hi = [0u8; LANES];
    for l in 0..LANES {
        let v = f64::from(fp16::f16_to_f32(u16::from_le_bytes([x0[l], x1[l]])));
        let r = fp16::f32_to_f16(f(v) as f32).to_le_bytes();
        lo[l] = r[0];
        hi[l] = r[1];
    }
    vec![Vector::new(lo), Vector::new(hi)]
}

/// Shared float arithmetic for both float widths (the internal type is `f64`
/// either way; saturating and modulo variants are synonyms for floats).
#[inline]
fn float_binary(op: BinaryAluOp, x: f64, y: f64) -> f64 {
    match op {
        BinaryAluOp::AddSat | BinaryAluOp::AddMod => x + y,
        BinaryAluOp::SubSat | BinaryAluOp::SubMod => x - y,
        BinaryAluOp::MulSat | BinaryAluOp::MulMod => x * y,
        BinaryAluOp::Max => x.max(y),
        BinaryAluOp::Min => x.min(y),
    }
}

/// Applies a binary point-wise operation to two operand groups.
///
/// # Errors
///
/// Returns a description if the op/type combination is unsupported.
pub fn apply_binary(
    op: BinaryAluOp,
    dtype: DataType,
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
) -> Result<Vec<Vector>, String> {
    check_width(dtype, a);
    check_width(dtype, b);
    use BinaryAluOp as Op;
    Ok(match dtype {
        DataType::Int8 => {
            const MIN: i32 = i8::MIN as i32;
            const MAX: i32 = i8::MAX as i32;
            match op {
                Op::AddSat => map_i8(a, b, |x, y| (x + y).clamp(MIN, MAX)),
                Op::AddMod => map_i8(a, b, |x, y| (x + y) as i8 as i32),
                Op::SubSat => map_i8(a, b, |x, y| (x - y).clamp(MIN, MAX)),
                Op::SubMod => map_i8(a, b, |x, y| (x - y) as i8 as i32),
                Op::MulSat => map_i8(a, b, |x, y| (x * y).clamp(MIN, MAX)),
                Op::MulMod => map_i8(a, b, |x, y| (x * y) as i8 as i32),
                Op::Max => map_i8(a, b, i32::max),
                Op::Min => map_i8(a, b, i32::min),
            }
        }
        DataType::Int16 => {
            const MIN: i32 = i16::MIN as i32;
            const MAX: i32 = i16::MAX as i32;
            match op {
                Op::AddSat => map_i16(a, b, |x, y| (x + y).clamp(MIN, MAX)),
                Op::AddMod => map_i16(a, b, |x, y| (x + y) as i16 as i32),
                Op::SubSat => map_i16(a, b, |x, y| (x - y).clamp(MIN, MAX)),
                Op::SubMod => map_i16(a, b, |x, y| (x - y) as i16 as i32),
                Op::MulSat => map_i16(a, b, |x, y| (x * y).clamp(MIN, MAX)),
                Op::MulMod => map_i16(a, b, |x, y| (x * y) as i16 as i32),
                Op::Max => map_i16(a, b, i32::max),
                Op::Min => map_i16(a, b, i32::min),
            }
        }
        DataType::Int32 => {
            const MIN: i64 = i32::MIN as i64;
            const MAX: i64 = i32::MAX as i64;
            match op {
                Op::AddSat => map_i32(a, b, |x, y| (x + y).clamp(MIN, MAX)),
                Op::AddMod => map_i32(a, b, |x, y| (x + y) as i32 as i64),
                Op::SubSat => map_i32(a, b, |x, y| (x - y).clamp(MIN, MAX)),
                Op::SubMod => map_i32(a, b, |x, y| (x - y) as i32 as i64),
                Op::MulSat => map_i32(a, b, |x, y| (x * y).clamp(MIN, MAX)),
                Op::MulMod => map_i32(a, b, |x, y| (x * y) as i32 as i64),
                Op::Max => map_i32(a, b, i64::max),
                Op::Min => map_i32(a, b, i64::min),
            }
        }
        DataType::Fp16 => map_f16(a, b, |x, y| float_binary(op, x, y)),
        DataType::Fp32 => map_f32(a, b, |x, y| float_binary(op, x, y)),
    })
}

/// Applies a unary point-wise operation to one operand group.
///
/// # Errors
///
/// Returns a description if the op/type combination is unsupported (the
/// transcendental units are floating-point only).
pub fn apply_unary(
    op: UnaryAluOp,
    dtype: DataType,
    x: &[impl Borrow<Vector>],
) -> Result<Vec<Vector>, String> {
    check_width(dtype, x);
    use UnaryAluOp as Op;
    if matches!(op, Op::Tanh | Op::Exp | Op::Rsqrt) && !dtype.is_float() {
        return Err(format!(
            "{} is floating-point only (convert first)",
            op.mnemonic()
        ));
    }
    Ok(match dtype {
        DataType::Int8 => {
            const MIN: i32 = i8::MIN as i32;
            const MAX: i32 = i8::MAX as i32;
            match op {
                Op::Mask => map1_i8(x, |v| v),
                Op::Negate => map1_i8(x, |v| (-v).clamp(MIN, MAX)),
                Op::Abs => map1_i8(x, |v| v.abs().clamp(MIN, MAX)),
                Op::Relu => map1_i8(x, |v| v.max(0)),
                Op::Tanh | Op::Exp | Op::Rsqrt => unreachable!("rejected above"),
            }
        }
        DataType::Int16 => {
            const MIN: i32 = i16::MIN as i32;
            const MAX: i32 = i16::MAX as i32;
            match op {
                Op::Mask => map1_i16(x, |v| v),
                Op::Negate => map1_i16(x, |v| (-v).clamp(MIN, MAX)),
                Op::Abs => map1_i16(x, |v| v.abs().clamp(MIN, MAX)),
                Op::Relu => map1_i16(x, |v| v.max(0)),
                Op::Tanh | Op::Exp | Op::Rsqrt => unreachable!("rejected above"),
            }
        }
        DataType::Int32 => {
            const MIN: i64 = i32::MIN as i64;
            const MAX: i64 = i32::MAX as i64;
            match op {
                Op::Mask => map1_i32(x, |v| v),
                Op::Negate => map1_i32(x, |v| (-v).clamp(MIN, MAX)),
                Op::Abs => map1_i32(x, |v| v.abs().clamp(MIN, MAX)),
                Op::Relu => map1_i32(x, |v| v.max(0)),
                Op::Tanh | Op::Exp | Op::Rsqrt => unreachable!("rejected above"),
            }
        }
        DataType::Fp16 => map1_f16(x, |v| float_unary(op, v)),
        DataType::Fp32 => map1_f32(x, |v| float_unary(op, v)),
    })
}

#[inline]
fn float_unary(op: UnaryAluOp, v: f64) -> f64 {
    match op {
        UnaryAluOp::Mask => v,
        UnaryAluOp::Negate => -v,
        UnaryAluOp::Abs => v.abs(),
        UnaryAluOp::Relu => v.max(0.0),
        UnaryAluOp::Tanh => v.tanh(),
        UnaryAluOp::Exp => v.exp(),
        UnaryAluOp::Rsqrt => 1.0 / v.sqrt(),
    }
}

// ---------------------------------------------------------------------------
// Conversions.
// ---------------------------------------------------------------------------

fn decode_i64(from: DataType, x: &[impl Borrow<Vector>], out: &mut [i64; LANES]) {
    match from {
        DataType::Int8 => {
            for (o, &b) in out.iter_mut().zip(x[0].borrow().as_bytes()) {
                *o = i64::from(b as i8);
            }
        }
        DataType::Int16 => {
            let (x0, x1) = (x[0].borrow().as_bytes(), x[1].borrow().as_bytes());
            for l in 0..LANES {
                out[l] = i64::from(i16::from_le_bytes([x0[l], x1[l]]));
            }
        }
        DataType::Int32 => {
            let px = [
                x[0].borrow().as_bytes(),
                x[1].borrow().as_bytes(),
                x[2].borrow().as_bytes(),
                x[3].borrow().as_bytes(),
            ];
            for l in 0..LANES {
                out[l] = i64::from(i32::from_le_bytes([px[0][l], px[1][l], px[2][l], px[3][l]]));
            }
        }
        DataType::Fp16 | DataType::Fp32 => unreachable!("float source decodes to f64"),
    }
}

fn decode_f64(from: DataType, x: &[impl Borrow<Vector>], out: &mut [f64; LANES]) {
    match from {
        DataType::Fp16 => {
            let (x0, x1) = (x[0].borrow().as_bytes(), x[1].borrow().as_bytes());
            for l in 0..LANES {
                out[l] = f64::from(fp16::f16_to_f32(u16::from_le_bytes([x0[l], x1[l]])));
            }
        }
        DataType::Fp32 => {
            let px = [
                x[0].borrow().as_bytes(),
                x[1].borrow().as_bytes(),
                x[2].borrow().as_bytes(),
                x[3].borrow().as_bytes(),
            ];
            for l in 0..LANES {
                out[l] = f64::from(f32::from_le_bytes([px[0][l], px[1][l], px[2][l], px[3][l]]));
            }
        }
        _ => unreachable!("integer source decodes to i64"),
    }
}

fn encode_int_sat(to: DataType, vals: &[i64; LANES]) -> Vec<Vector> {
    match to {
        DataType::Int8 => {
            let mut out = [0u8; LANES];
            for (o, &v) in out.iter_mut().zip(vals) {
                *o = saturate(DataType::Int8, v) as i8 as u8;
            }
            vec![Vector::new(out)]
        }
        DataType::Int16 => {
            let mut lo = [0u8; LANES];
            let mut hi = [0u8; LANES];
            for l in 0..LANES {
                let r = (saturate(DataType::Int16, vals[l]) as i16).to_le_bytes();
                lo[l] = r[0];
                hi[l] = r[1];
            }
            vec![Vector::new(lo), Vector::new(hi)]
        }
        DataType::Int32 => {
            let mut out = [[0u8; LANES]; 4];
            for l in 0..LANES {
                let r = (saturate(DataType::Int32, vals[l]) as i32).to_le_bytes();
                for (plane, byte) in out.iter_mut().zip(r) {
                    plane[l] = byte;
                }
            }
            out.into_iter().map(Vector::new).collect()
        }
        DataType::Fp16 | DataType::Fp32 => unreachable!("float targets encode from f64"),
    }
}

fn encode_f64(to: DataType, vals: &[f64; LANES]) -> Vec<Vector> {
    match to {
        DataType::Int8 => {
            let mut out = [0u8; LANES];
            for (o, &v) in out.iter_mut().zip(vals) {
                *o = sat_f64_to_i8(v) as u8;
            }
            vec![Vector::new(out)]
        }
        DataType::Int16 => {
            let mut lo = [0u8; LANES];
            let mut hi = [0u8; LANES];
            for l in 0..LANES {
                let r = (sat_f64_to_i16(vals[l]) as u16).to_le_bytes();
                lo[l] = r[0];
                hi[l] = r[1];
            }
            vec![Vector::new(lo), Vector::new(hi)]
        }
        DataType::Int32 => {
            let mut out = [[0u8; LANES]; 4];
            for l in 0..LANES {
                let r = sat_f64_to_i32(vals[l]).to_le_bytes();
                for (plane, byte) in out.iter_mut().zip(r) {
                    plane[l] = byte;
                }
            }
            out.into_iter().map(Vector::new).collect()
        }
        DataType::Fp16 => {
            let mut lo = [0u8; LANES];
            let mut hi = [0u8; LANES];
            for l in 0..LANES {
                let r = fp16::f32_to_f16(vals[l] as f32).to_le_bytes();
                lo[l] = r[0];
                hi[l] = r[1];
            }
            vec![Vector::new(lo), Vector::new(hi)]
        }
        DataType::Fp32 => {
            let mut out = [[0u8; LANES]; 4];
            for l in 0..LANES {
                let r = (vals[l] as f32).to_le_bytes();
                for (plane, byte) in out.iter_mut().zip(r) {
                    plane[l] = byte;
                }
            }
            out.into_iter().map(Vector::new).collect()
        }
    }
}

/// Applies a type conversion with a power-of-two scale: each lane is
/// multiplied by `2^-shift` before re-encoding (the requantization primitive:
/// `int32 → int8` with `shift = log2(scale)` rounds-to-nearest and saturates).
///
/// # Errors
///
/// Returns a description if the conversion pair is unsupported.
pub fn apply_convert(
    from: DataType,
    to: DataType,
    shift: i8,
    x: &[impl Borrow<Vector>],
) -> Result<Vec<Vector>, String> {
    check_width(from, x);
    if from.is_float() {
        let mut vals = [0f64; LANES];
        decode_f64(from, x, &mut vals);
        let scale = (2f64).powi(-i32::from(shift));
        for v in &mut vals {
            *v *= scale;
        }
        Ok(encode_f64(to, &vals))
    } else {
        let mut vals = [0i64; LANES];
        decode_i64(from, x, &mut vals);
        if to.is_float() {
            let scale = (2f64).powi(-i32::from(shift));
            let mut f = [0f64; LANES];
            for (o, &v) in f.iter_mut().zip(&vals) {
                *o = v as f64 * scale;
            }
            Ok(encode_f64(to, &f))
        } else {
            // Integer → integer: exact shift arithmetic with
            // round-half-away-from-zero on right shifts.
            for v in &mut vals {
                *v = shift_round(*v, shift);
            }
            Ok(encode_int_sat(to, &vals))
        }
    }
}

/// `v × 2^-shift` in integer arithmetic, rounding half away from zero.
fn shift_round(v: i64, shift: i8) -> i64 {
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

/// The pre-optimization tagged-lane data path, retained as the oracle for
/// the kernel-equivalence property tests (hence `pub`, not `#[cfg(test)]`:
/// the integration test suites link the library from outside the crate).
#[doc(hidden)]
pub mod reference {
    use super::*;
    use tsp_arch::vector;

    /// Per-lane numeric value wide enough for every supported type.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Lane {
        Int(i64),
        Float(f64),
    }

    fn decode_lanes(dtype: DataType, planes: &[Vector]) -> Vec<Lane> {
        check_width(dtype, planes);
        match dtype {
            DataType::Int8 => planes[0]
                .as_bytes()
                .iter()
                .map(|&b| Lane::Int(i64::from(b as i8)))
                .collect(),
            DataType::Int16 => {
                let pair = [planes[0].clone(), planes[1].clone()];
                vector::join_u16(&pair)
                    .into_iter()
                    .map(|u| Lane::Int(i64::from(u as i16)))
                    .collect()
            }
            DataType::Int32 => {
                let quad = [
                    planes[0].clone(),
                    planes[1].clone(),
                    planes[2].clone(),
                    planes[3].clone(),
                ];
                vector::join_i32(&quad)
                    .into_iter()
                    .map(|v| Lane::Int(i64::from(v)))
                    .collect()
            }
            DataType::Fp16 => {
                let pair = [planes[0].clone(), planes[1].clone()];
                vector::join_u16(&pair)
                    .into_iter()
                    .map(|bits| Lane::Float(f64::from(fp16::f16_to_f32(bits))))
                    .collect()
            }
            DataType::Fp32 => {
                let quad = [
                    planes[0].clone(),
                    planes[1].clone(),
                    planes[2].clone(),
                    planes[3].clone(),
                ];
                vector::join_i32(&quad)
                    .into_iter()
                    .map(|v| Lane::Float(f64::from(f32::from_bits(v as u32))))
                    .collect()
            }
        }
    }

    fn encode_lanes(dtype: DataType, lanes: &[Lane]) -> Vec<Vector> {
        assert_eq!(lanes.len(), LANES);
        match dtype {
            // Integer lanes saturate on the final narrowing; modulo-variant
            // ops have already wrapped into range upstream, so this is a
            // no-op for them and the requantization clamp for conversions.
            DataType::Int8 => {
                vec![Vector::from_fn(|i| match lanes[i] {
                    Lane::Int(v) => saturate(DataType::Int8, v) as i8 as u8,
                    Lane::Float(f) => sat_f64_to_i8(f) as u8,
                })]
            }
            DataType::Int16 => {
                let vals: Vec<u16> = lanes
                    .iter()
                    .map(|l| match *l {
                        Lane::Int(v) => saturate(DataType::Int16, v) as i16 as u16,
                        Lane::Float(f) => sat_f64_to_i16(f) as u16,
                    })
                    .collect();
                vector::split_u16(&vals).to_vec()
            }
            DataType::Int32 => {
                let vals: Vec<i32> = lanes
                    .iter()
                    .map(|l| match *l {
                        Lane::Int(v) => saturate(DataType::Int32, v) as i32,
                        Lane::Float(f) => sat_f64_to_i32(f),
                    })
                    .collect();
                vector::split_i32(&vals).to_vec()
            }
            DataType::Fp16 => {
                let vals: Vec<u16> = lanes
                    .iter()
                    .map(|l| match *l {
                        Lane::Float(f) => fp16::f32_to_f16(f as f32),
                        Lane::Int(v) => fp16::f32_to_f16(v as f32),
                    })
                    .collect();
                vector::split_u16(&vals).to_vec()
            }
            DataType::Fp32 => {
                let vals: Vec<i32> = lanes
                    .iter()
                    .map(|l| match *l {
                        Lane::Float(f) => (f as f32).to_bits() as i32,
                        Lane::Int(v) => (v as f32).to_bits() as i32,
                    })
                    .collect();
                vector::split_i32(&vals).to_vec()
            }
        }
    }

    /// Scalar oracle for [`super::apply_binary`].
    ///
    /// # Errors
    ///
    /// Returns a description if the op/type combination is unsupported.
    pub fn apply_binary(
        op: BinaryAluOp,
        dtype: DataType,
        a: &[Vector],
        b: &[Vector],
    ) -> Result<Vec<Vector>, String> {
        let la = decode_lanes(dtype, a);
        let lb = decode_lanes(dtype, b);
        let out: Vec<Lane> = la
            .iter()
            .zip(&lb)
            .map(|(x, y)| binary_lane(op, dtype, *x, *y))
            .collect();
        Ok(encode_lanes(dtype, &out))
    }

    fn binary_lane(op: BinaryAluOp, dtype: DataType, x: Lane, y: Lane) -> Lane {
        match (x, y) {
            (Lane::Int(a), Lane::Int(b)) => {
                let raw = match op {
                    BinaryAluOp::AddSat | BinaryAluOp::AddMod => a + b,
                    BinaryAluOp::SubSat | BinaryAluOp::SubMod => a - b,
                    BinaryAluOp::MulSat | BinaryAluOp::MulMod => a * b,
                    BinaryAluOp::Max => a.max(b),
                    BinaryAluOp::Min => a.min(b),
                };
                let cooked = match op {
                    BinaryAluOp::AddSat | BinaryAluOp::SubSat | BinaryAluOp::MulSat => {
                        saturate(dtype, raw)
                    }
                    BinaryAluOp::AddMod | BinaryAluOp::SubMod | BinaryAluOp::MulMod => {
                        wrap(dtype, raw)
                    }
                    BinaryAluOp::Max | BinaryAluOp::Min => raw,
                };
                Lane::Int(cooked)
            }
            (Lane::Float(a), Lane::Float(b)) => Lane::Float(match op {
                BinaryAluOp::AddSat | BinaryAluOp::AddMod => a + b,
                BinaryAluOp::SubSat | BinaryAluOp::SubMod => a - b,
                BinaryAluOp::MulSat | BinaryAluOp::MulMod => a * b,
                BinaryAluOp::Max => a.max(b),
                BinaryAluOp::Min => a.min(b),
            }),
            _ => unreachable!("operands decoded with the same dtype"),
        }
    }

    /// Scalar oracle for [`super::apply_unary`].
    ///
    /// # Errors
    ///
    /// Returns a description if the op/type combination is unsupported (the
    /// transcendental units are floating-point only).
    pub fn apply_unary(
        op: UnaryAluOp,
        dtype: DataType,
        x: &[Vector],
    ) -> Result<Vec<Vector>, String> {
        let lanes = decode_lanes(dtype, x);
        let out: Result<Vec<Lane>, String> = lanes.iter().map(|l| unary_lane(op, *l)).collect();
        Ok(encode_lanes(dtype, &out?))
    }

    fn unary_lane(op: UnaryAluOp, x: Lane) -> Result<Lane, String> {
        Ok(match (op, x) {
            (UnaryAluOp::Mask, v) => v,
            (UnaryAluOp::Negate, Lane::Int(v)) => Lane::Int(-v),
            (UnaryAluOp::Negate, Lane::Float(v)) => Lane::Float(-v),
            (UnaryAluOp::Abs, Lane::Int(v)) => Lane::Int(v.abs()),
            (UnaryAluOp::Abs, Lane::Float(v)) => Lane::Float(v.abs()),
            (UnaryAluOp::Relu, Lane::Int(v)) => Lane::Int(v.max(0)),
            (UnaryAluOp::Relu, Lane::Float(v)) => Lane::Float(v.max(0.0)),
            (UnaryAluOp::Tanh, Lane::Float(v)) => Lane::Float(v.tanh()),
            (UnaryAluOp::Exp, Lane::Float(v)) => Lane::Float(v.exp()),
            (UnaryAluOp::Rsqrt, Lane::Float(v)) => Lane::Float(1.0 / v.sqrt()),
            (UnaryAluOp::Tanh | UnaryAluOp::Exp | UnaryAluOp::Rsqrt, Lane::Int(_)) => {
                return Err(format!(
                    "{} is floating-point only (convert first)",
                    op.mnemonic()
                ))
            }
        })
    }

    /// Scalar oracle for [`super::apply_convert`].
    ///
    /// # Errors
    ///
    /// Returns a description if the conversion pair is unsupported.
    pub fn apply_convert(
        from: DataType,
        to: DataType,
        shift: i8,
        x: &[Vector],
    ) -> Result<Vec<Vector>, String> {
        let lanes = decode_lanes(from, x);
        let scaled: Vec<Lane> = lanes
            .iter()
            .map(|l| match *l {
                Lane::Int(v) => {
                    if !to.is_float() {
                        Lane::Int(shift_round(v, shift))
                    } else {
                        Lane::Float(v as f64 * (2f64).powi(-i32::from(shift)))
                    }
                }
                Lane::Float(f) => Lane::Float(f * (2f64).powi(-i32::from(shift))),
            })
            .collect();
        Ok(encode_lanes(to, &scaled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_arch::vector;

    fn int8(vals: &[i8]) -> Vec<Vector> {
        vec![Vector::from_fn(|i| vals.get(i).copied().unwrap_or(0) as u8)]
    }

    fn get_i8(planes: &[Vector], lane: usize) -> i8 {
        planes[0].lane(lane) as i8
    }

    fn fp32(vals: &[f32]) -> Vec<Vector> {
        let bits: Vec<i32> = (0..LANES)
            .map(|i| vals.get(i).copied().unwrap_or(0.0).to_bits() as i32)
            .collect();
        vector::split_i32(&bits).to_vec()
    }

    fn get_f32(planes: &[Vector], lane: usize) -> f32 {
        let quad = [
            planes[0].clone(),
            planes[1].clone(),
            planes[2].clone(),
            planes[3].clone(),
        ];
        f32::from_bits(vector::join_i32(&quad)[lane] as u32)
    }

    #[test]
    fn int8_add_sat_vs_mod() {
        let a = int8(&[100, -100, 1]);
        let b = int8(&[100, -100, 2]);
        let sat = apply_binary(BinaryAluOp::AddSat, DataType::Int8, &a, &b).unwrap();
        assert_eq!(get_i8(&sat, 0), 127);
        assert_eq!(get_i8(&sat, 1), -128);
        assert_eq!(get_i8(&sat, 2), 3);
        let modular = apply_binary(BinaryAluOp::AddMod, DataType::Int8, &a, &b).unwrap();
        assert_eq!(get_i8(&modular, 0), (200i32 as i8)); // wraps to -56
        assert_eq!(get_i8(&modular, 1), (-200i32 as i8));
    }

    #[test]
    fn int8_mul_sat() {
        let a = int8(&[12, -12]);
        let b = int8(&[12, 12]);
        let r = apply_binary(BinaryAluOp::MulSat, DataType::Int8, &a, &b).unwrap();
        assert_eq!(get_i8(&r, 0), 127);
        assert_eq!(get_i8(&r, 1), -128);
    }

    #[test]
    fn relu_int8() {
        let x = int8(&[-5, 0, 5]);
        let r = apply_unary(UnaryAluOp::Relu, DataType::Int8, &x).unwrap();
        assert_eq!(get_i8(&r, 0), 0);
        assert_eq!(get_i8(&r, 1), 0);
        assert_eq!(get_i8(&r, 2), 5);
    }

    #[test]
    fn fp32_math() {
        let a = fp32(&[1.5, -2.0, 100.0]);
        let b = fp32(&[2.5, 0.5, -1.0]);
        let add = apply_binary(BinaryAluOp::AddSat, DataType::Fp32, &a, &b).unwrap();
        assert_eq!(get_f32(&add, 0), 4.0);
        let mul = apply_binary(BinaryAluOp::MulMod, DataType::Fp32, &a, &b).unwrap();
        assert_eq!(get_f32(&mul, 2), -100.0);
    }

    #[test]
    fn transcendentals_fp32() {
        let x = fp32(&[0.0, 1.0, 4.0]);
        let e = apply_unary(UnaryAluOp::Exp, DataType::Fp32, &x).unwrap();
        assert!((get_f32(&e, 1) - std::f32::consts::E).abs() < 1e-6);
        let r = apply_unary(UnaryAluOp::Rsqrt, DataType::Fp32, &x).unwrap();
        assert_eq!(get_f32(&r, 2), 0.5);
        let t = apply_unary(UnaryAluOp::Tanh, DataType::Fp32, &x).unwrap();
        assert_eq!(get_f32(&t, 0), 0.0);
    }

    #[test]
    fn transcendental_on_int_is_rejected() {
        let x = int8(&[1]);
        assert!(apply_unary(UnaryAluOp::Exp, DataType::Int8, &x).is_err());
    }

    #[test]
    fn requantize_int32_to_int8() {
        // The post-MXM requantization path: int32 accumulators scaled down.
        let acc: Vec<i32> = (0..LANES as i32).map(|i| i * 100).collect();
        let planes = vector::split_i32(&acc).to_vec();
        let q = apply_convert(DataType::Int32, DataType::Int8, 7, &planes).unwrap();
        // lane i holds round(i*100 / 128) saturated to i8.
        assert_eq!(get_i8(&q, 0), 0);
        assert_eq!(get_i8(&q, 1), 1); // 100/128 = 0.78 → 1
        assert_eq!(get_i8(&q, 100), 78);
        assert_eq!(get_i8(&q, 319), 127); // saturated
    }

    #[test]
    fn shift_round_half_away() {
        assert_eq!(shift_round(3, 1), 2); // 1.5 → 2
        assert_eq!(shift_round(-3, 1), -2);
        assert_eq!(shift_round(5, 2), 1); // 1.25 → 1
        assert_eq!(shift_round(6, 2), 2); // 1.5 → 2
        assert_eq!(shift_round(4, -2), 16);
    }

    #[test]
    fn int32_to_fp32_and_back() {
        let vals: Vec<i32> = vec![-1000, 0, 77];
        let mut padded = vals.clone();
        padded.resize(LANES, 0);
        let planes = vector::split_i32(&padded).to_vec();
        let f = apply_convert(DataType::Int32, DataType::Fp32, 0, &planes).unwrap();
        assert_eq!(get_f32(&f, 0), -1000.0);
        let back = apply_convert(DataType::Fp32, DataType::Int32, 0, &f).unwrap();
        let quad = [
            back[0].clone(),
            back[1].clone(),
            back[2].clone(),
            back[3].clone(),
        ];
        assert_eq!(vector::join_i32(&quad)[..3], vals[..]);
    }

    #[test]
    fn fp16_roundtrip_through_vxm() {
        let vals: Vec<u16> = (0..LANES)
            .map(|i| fp16::f32_to_f16(i as f32 * 0.25))
            .collect();
        let planes = vector::split_u16(&vals).to_vec();
        let widened = apply_convert(DataType::Fp16, DataType::Fp32, 0, &planes).unwrap();
        assert_eq!(get_f32(&widened, 8), 2.0);
        let narrowed = apply_convert(DataType::Fp32, DataType::Fp16, 0, &widened).unwrap();
        assert_eq!(narrowed, planes);
    }

    /// Int8 negate saturates at the asymmetric edge exactly like the oracle.
    #[test]
    fn negate_int8_min_saturates() {
        let x = int8(&[-128, 127, 0]);
        let r = apply_unary(UnaryAluOp::Negate, DataType::Int8, &x).unwrap();
        let want = reference::apply_unary(UnaryAluOp::Negate, DataType::Int8, &x).unwrap();
        assert_eq!(r, want);
        assert_eq!(get_i8(&r, 0), 127); // -(-128) saturates
        let a = apply_unary(UnaryAluOp::Abs, DataType::Int8, &x).unwrap();
        assert_eq!(get_i8(&a, 0), 127); // |−128| saturates
    }
}
