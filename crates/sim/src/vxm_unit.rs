//! Value semantics of the vector execution module (VXM).
//!
//! Pure functions from operand stream groups to result groups, shared by the
//! chip simulator and unit tests. A multi-byte element arrives as a naturally
//! aligned group of byte planes (paper §I-B), laid out by [`crate::lane`];
//! these functions apply the (stateless) ALU operation with the saturating or
//! modulo semantics the ISA selects and lay the result out the same way.
//!
//! ## Host-performance shape (DESIGN.md §9)
//!
//! Each entry point checks the group widths and dispatches on the dtype
//! **once**, to one generic kernel per op shape — two operands, one operand,
//! or a conversion — monomorphized per lane type and per op, so the lane loop
//! runs straight off the byte planes with no per-lane enum tagging or
//! intermediate allocation. Integer ops compute in `i64`, where no raw
//! result overflows, then saturate to the lane type's bounds or wrap; float
//! ops keep `f64`-internal arithmetic. The scalar oracles these kernels are
//! checked against live in `tests/reference/`, and share nothing with them.

use std::borrow::Borrow;

use tsp_arch::{Vector, LANES};
use tsp_isa::{BinaryAluOp, DataType, UnaryAluOp};

use crate::fp16;
use crate::lane::{self, Lane, F16};

/// An error naming the mismatch if `group` is not `dtype`'s stream width.
fn check_width(dtype: DataType, group: &[impl Borrow<Vector>]) -> Result<(), String> {
    let want = usize::from(dtype.stream_width());
    if group.len() == want {
        Ok(())
    } else {
        Err(format!(
            "a {}-stream group does not hold {dtype}, which spans {want}",
            group.len()
        ))
    }
}

/// An integer lane. Its ALU computes in `i64`, where no raw sum,
/// difference, product or negation of two lanes overflows, and narrows the
/// result back by saturating or wrapping.
trait Int: Lane + Ord + Default + Into<i64> {
    const MIN: Self;
    const MAX: Self;
    /// The low bits of `w`: modulo narrowing.
    fn wrap(w: i64) -> Self;
}

/// A lane's value as the float units and the converter see it.
trait Value: Lane {
    /// The value, exactly.
    fn to_f64(self) -> f64;
    /// `v` in this type: an integer rounds half away from zero and
    /// saturates (NaN is 0), a float rounds to nearest.
    fn from_f64(v: f64) -> Self;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;
            #[inline]
            fn wrap(w: i64) -> $t {
                w as $t
            }
        }
        impl Value for $t {
            #[inline]
            fn to_f64(self) -> f64 {
                f64::from(self)
            }
            #[inline]
            fn from_f64(v: f64) -> $t {
                v.round().clamp(f64::from(<$t>::MIN), f64::from(<$t>::MAX)) as $t
            }
        }
    )*};
}
int!(i8, i16, i32);

impl Value for f32 {
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
}

impl Value for F16 {
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }
    #[inline]
    fn from_f64(v: f64) -> F16 {
        F16(fp16::f32_to_f16(v as f32))
    }
}

/// `w` clamped to `T`'s range: saturating narrowing.
#[inline]
fn saturate<T: Int>(w: i64) -> T {
    T::wrap(w.clamp(T::MIN.into(), T::MAX.into()))
}

/// The two-operand kernel: lane `l` of the result is `f(a[l], b[l])`.
#[inline]
fn binary<T: Lane>(
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
    f: impl Fn(T, T) -> T,
) -> Vec<Vector> {
    let (a, b) = (lane::planes(a), lane::planes(b));
    lane::group(|l| f(T::load(&a, l), T::load(&b, l)))
}

/// The one-operand kernel: lane `l` of the result is `f(x[l])`.
#[inline]
fn unary<T: Lane>(x: &[impl Borrow<Vector>], f: impl Fn(T) -> T) -> Vec<Vector> {
    let x = lane::planes(x);
    lane::group(|l| f(T::load(&x, l)))
}

fn int_binary<T: Int>(
    op: BinaryAluOp,
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
) -> Vec<Vector> {
    use BinaryAluOp as Op;
    let w = |x: T| -> i64 { x.into() };
    match op {
        Op::AddSat => binary(a, b, |x, y| saturate::<T>(w(x) + w(y))),
        Op::AddMod => binary(a, b, |x, y| T::wrap(w(x) + w(y))),
        Op::SubSat => binary(a, b, |x, y| saturate::<T>(w(x) - w(y))),
        Op::SubMod => binary(a, b, |x, y| T::wrap(w(x) - w(y))),
        Op::MulSat => binary(a, b, |x, y| saturate::<T>(w(x) * w(y))),
        Op::MulMod => binary(a, b, |x, y| T::wrap(w(x) * w(y))),
        Op::Max => binary(a, b, T::max),
        Op::Min => binary(a, b, T::min),
    }
}

fn int_unary<T: Int>(op: UnaryAluOp, x: &[impl Borrow<Vector>]) -> Vec<Vector> {
    use UnaryAluOp as Op;
    let w = |x: T| -> i64 { x.into() };
    match op {
        Op::Mask => unary(x, |v: T| v),
        Op::Negate => unary(x, |v| saturate::<T>(-w(v))),
        Op::Abs => unary(x, |v| saturate::<T>(w(v).max(-w(v)))),
        Op::Relu => unary(x, |v: T| v.max(T::default())),
        Op::Tanh | Op::Exp | Op::Rsqrt => unreachable!("rejected by apply_unary"),
    }
}

/// Float arithmetic for both widths, in `f64` (saturating and modulo
/// variants are synonyms for floats). Of two NaN operands the first one's
/// payload survives: left to the hardware, that would depend on whether the
/// compiler commutes the operation.
#[inline]
fn float_binary(op: BinaryAluOp, x: f64, y: f64) -> f64 {
    if x.is_nan() && y.is_nan() {
        return x;
    }
    match op {
        BinaryAluOp::AddSat | BinaryAluOp::AddMod => x + y,
        BinaryAluOp::SubSat | BinaryAluOp::SubMod => x - y,
        BinaryAluOp::MulSat | BinaryAluOp::MulMod => x * y,
        BinaryAluOp::Max => x.max(y),
        BinaryAluOp::Min => x.min(y),
    }
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

/// Applies a binary point-wise operation to two operand groups.
///
/// # Errors
///
/// Returns a description if a group's width does not match `dtype`.
pub fn apply_binary(
    op: BinaryAluOp,
    dtype: DataType,
    a: &[impl Borrow<Vector>],
    b: &[impl Borrow<Vector>],
) -> Result<Vec<Vector>, String> {
    check_width(dtype, a)?;
    check_width(dtype, b)?;
    let float = |x: f64, y: f64| float_binary(op, x, y);
    Ok(match dtype {
        DataType::Int8 => int_binary::<i8>(op, a, b),
        DataType::Int16 => int_binary::<i16>(op, a, b),
        DataType::Int32 => int_binary::<i32>(op, a, b),
        DataType::Fp16 => binary(a, b, |x: F16, y| {
            F16::from_f64(float(x.to_f64(), y.to_f64()))
        }),
        DataType::Fp32 => binary(a, b, |x: f32, y| {
            f32::from_f64(float(x.to_f64(), y.to_f64()))
        }),
    })
}

/// Applies a unary point-wise operation to one operand group.
///
/// # Errors
///
/// Returns a description if the group's width does not match `dtype`, or
/// for a transcendental on an integer type (those units are floating-point
/// only).
pub fn apply_unary(
    op: UnaryAluOp,
    dtype: DataType,
    x: &[impl Borrow<Vector>],
) -> Result<Vec<Vector>, String> {
    check_width(dtype, x)?;
    use UnaryAluOp as Op;
    if matches!(op, Op::Tanh | Op::Exp | Op::Rsqrt) && !dtype.is_float() {
        return Err(format!(
            "{} is floating-point only (convert first)",
            op.mnemonic()
        ));
    }
    Ok(match dtype {
        DataType::Int8 => int_unary::<i8>(op, x),
        DataType::Int16 => int_unary::<i16>(op, x),
        DataType::Int32 => int_unary::<i32>(op, x),
        DataType::Fp16 => unary(x, |v: F16| F16::from_f64(float_unary(op, v.to_f64()))),
        DataType::Fp32 => unary(x, |v: f32| f32::from_f64(float_unary(op, v.to_f64()))),
    })
}

/// Every lane of a `T` group, through `f`.
fn decode<T: Lane, V>(x: &[impl Borrow<Vector>], f: impl Fn(T) -> V) -> [V; LANES] {
    let x = lane::planes(x);
    std::array::from_fn(|l| f(T::load(&x, l)))
}

/// `v·2^-shift` rounded half away from zero, exactly, for an `int32`-range
/// `v`. Past a right shift of 33 every such `v` rounds to 0, and past a left
/// shift of 32 every nonzero one is out of every integer type's range, so
/// the shift is clamped there and the arithmetic never leaves `i64`.
#[inline]
fn shift_round(v: i64, shift: i8) -> i64 {
    let s = shift.clamp(-32, 33);
    if s <= 0 {
        return v << -s;
    }
    let magnitude = ((v.unsigned_abs() + (1 << (s - 1))) >> s) as i64;
    if v < 0 {
        -magnitude
    } else {
        magnitude
    }
}

/// Applies a type conversion with a power-of-two scale: each lane is
/// multiplied by `2^-shift` before re-encoding — the requantization
/// primitive: `int32 → int8` with `shift = log2(scale)` rounds half away
/// from zero and saturates, at every shift.
///
/// Integer to integer runs exactly in `i64`; a conversion from or to a
/// float runs in `f64`, where every source value and its product with a
/// power of two from `2^-127` to `2^128` is exact.
///
/// # Errors
///
/// Returns a description if the group's width does not match `from`.
pub fn apply_convert(
    from: DataType,
    to: DataType,
    shift: i8,
    x: &[impl Borrow<Vector>],
) -> Result<Vec<Vector>, String> {
    check_width(from, x)?;
    if from.is_float() || to.is_float() {
        let scale = 2f64.powi(-i32::from(shift));
        let vals = match from {
            DataType::Int8 => decode(x, |v: i8| v.to_f64() * scale),
            DataType::Int16 => decode(x, |v: i16| v.to_f64() * scale),
            DataType::Int32 => decode(x, |v: i32| v.to_f64() * scale),
            DataType::Fp16 => decode(x, |v: F16| v.to_f64() * scale),
            DataType::Fp32 => decode(x, |v: f32| v.to_f64() * scale),
        };
        return Ok(match to {
            DataType::Int8 => lane::group(|l| i8::from_f64(vals[l])),
            DataType::Int16 => lane::group(|l| i16::from_f64(vals[l])),
            DataType::Int32 => lane::group(|l| i32::from_f64(vals[l])),
            DataType::Fp16 => lane::group(|l| F16::from_f64(vals[l])),
            DataType::Fp32 => lane::group(|l| f32::from_f64(vals[l])),
        });
    }
    let vals = match from {
        DataType::Int8 => decode(x, |v: i8| shift_round(v.into(), shift)),
        DataType::Int16 => decode(x, |v: i16| shift_round(v.into(), shift)),
        DataType::Int32 => decode(x, |v: i32| shift_round(v.into(), shift)),
        DataType::Fp16 | DataType::Fp32 => unreachable!("float sources convert in f64"),
    };
    Ok(match to {
        DataType::Int8 => lane::group(|l| saturate::<i8>(vals[l])),
        DataType::Int16 => lane::group(|l| saturate::<i16>(vals[l])),
        DataType::Int32 => lane::group(|l| saturate::<i32>(vals[l])),
        DataType::Fp16 | DataType::Fp32 => unreachable!("float targets convert in f64"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int8(vals: &[i8]) -> Vec<Vector> {
        vec![Vector::from_fn(|i| vals.get(i).copied().unwrap_or(0) as u8)]
    }

    fn get_i8(planes: &[Vector], lane: usize) -> i8 {
        planes[0].lane(lane) as i8
    }

    fn int32(vals: &[i32]) -> Vec<Vector> {
        lane::group(|l| vals.get(l).copied().unwrap_or(0))
    }

    fn fp32(vals: &[f32]) -> Vec<Vector> {
        lane::group(|l| vals.get(l).copied().unwrap_or(0.0))
    }

    fn get<T: Lane>(planes: &[Vector], l: usize) -> T {
        T::load(&lane::planes(planes), l)
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
        assert_eq!(get::<f32>(&add, 0), 4.0);
        let mul = apply_binary(BinaryAluOp::MulMod, DataType::Fp32, &a, &b).unwrap();
        assert_eq!(get::<f32>(&mul, 2), -100.0);
    }

    #[test]
    fn transcendentals_fp32() {
        let x = fp32(&[0.0, 1.0, 4.0]);
        let e = apply_unary(UnaryAluOp::Exp, DataType::Fp32, &x).unwrap();
        assert!((get::<f32>(&e, 1) - std::f32::consts::E).abs() < 1e-6);
        let r = apply_unary(UnaryAluOp::Rsqrt, DataType::Fp32, &x).unwrap();
        assert_eq!(get::<f32>(&r, 2), 0.5);
        let t = apply_unary(UnaryAluOp::Tanh, DataType::Fp32, &x).unwrap();
        assert_eq!(get::<f32>(&t, 0), 0.0);
    }

    #[test]
    fn transcendental_on_int_is_rejected() {
        let x = int8(&[1]);
        assert!(apply_unary(UnaryAluOp::Exp, DataType::Int8, &x).is_err());
    }

    /// A group narrower or wider than its dtype is an error, not a panic.
    #[test]
    fn group_width_must_match_dtype() {
        let one = int8(&[1]);
        let err = apply_binary(BinaryAluOp::AddSat, DataType::Int32, &one, &one).unwrap_err();
        assert!(err.contains("1-stream group"), "{err}");
        assert!(apply_unary(UnaryAluOp::Mask, DataType::Fp16, &int32(&[1])).is_err());
        assert!(apply_convert(DataType::Int16, DataType::Int8, 0, &one).is_err());
    }

    #[test]
    fn requantize_int32_to_int8() {
        // The post-MXM requantization path: int32 accumulators scaled down.
        let acc: Vec<i32> = (0..LANES as i32).map(|i| i * 100).collect();
        let q = apply_convert(DataType::Int32, DataType::Int8, 7, &int32(&acc)).unwrap();
        // lane i holds round(i*100 / 128) saturated to i8.
        assert_eq!(get_i8(&q, 0), 0);
        assert_eq!(get_i8(&q, 1), 1); // 100/128 = 0.78 → 1
        assert_eq!(get_i8(&q, 100), 78);
        assert_eq!(get_i8(&q, 319), 127); // saturated
    }

    #[test]
    fn shift_round_half_away() {
        let x = int32(&[3, -3, 5, 6, 4]);
        let shifted = |shift: i8, l: usize| {
            let r = apply_convert(DataType::Int32, DataType::Int32, shift, &x).unwrap();
            get::<i32>(&r, l)
        };
        assert_eq!(shifted(1, 0), 2); // 1.5 → 2
        assert_eq!(shifted(1, 1), -2);
        assert_eq!(shifted(2, 2), 1); // 1.25 → 1
        assert_eq!(shifted(2, 3), 2); // 1.5 → 2
        assert_eq!(shifted(-2, 4), 16);
    }

    #[test]
    fn int32_to_fp32_and_back() {
        let vals = [-1000, 0, 77];
        let f = apply_convert(DataType::Int32, DataType::Fp32, 0, &int32(&vals)).unwrap();
        assert_eq!(get::<f32>(&f, 0), -1000.0);
        let back = apply_convert(DataType::Fp32, DataType::Int32, 0, &f).unwrap();
        for (l, want) in vals.into_iter().enumerate() {
            assert_eq!(get::<i32>(&back, l), want);
        }
    }

    #[test]
    fn fp16_roundtrip_through_vxm() {
        let planes = lane::group(|l| F16(fp16::f32_to_f16(l as f32 * 0.25)));
        let widened = apply_convert(DataType::Fp16, DataType::Fp32, 0, &planes).unwrap();
        assert_eq!(get::<f32>(&widened, 8), 2.0);
        let narrowed = apply_convert(DataType::Fp32, DataType::Fp16, 0, &widened).unwrap();
        assert_eq!(narrowed, planes);
    }

    /// Int8 negate and abs saturate at the asymmetric edge.
    #[test]
    fn negate_int8_min_saturates() {
        let x = int8(&[-128, 127, 0]);
        let r = apply_unary(UnaryAluOp::Negate, DataType::Int8, &x).unwrap();
        assert_eq!(get_i8(&r, 0), 127); // -(-128) saturates
        assert_eq!(get_i8(&r, 1), -127);
        assert_eq!(get_i8(&r, 2), 0);
        let a = apply_unary(UnaryAluOp::Abs, DataType::Int8, &x).unwrap();
        assert_eq!(get_i8(&a, 0), 127); // |−128| saturates
    }
}
