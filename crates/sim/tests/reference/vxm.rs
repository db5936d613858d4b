//! Scalar oracle for `vxm_unit`: every lane decoded byte by byte into a
//! tagged value, computed on in `i128` or `f64`, and encoded back.

use tsp_arch::{Vector, LANES};
use tsp_isa::{BinaryAluOp, DataType, UnaryAluOp};
use tsp_sim::fp16;

/// One lane's value, wide enough for every type and every shift.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Int(i128),
    Float(f64),
}

/// Lane `l` of a group as the unsigned little-endian number its planes
/// spell: plane `k` carries bits `8k..8k + 8`.
fn raw(planes: &[Vector], l: usize) -> u32 {
    let mut bits = 0u32;
    for (k, plane) in planes.iter().enumerate() {
        bits |= u32::from(plane.lane(l)) << (8 * k);
    }
    bits
}

fn decode(dtype: DataType, planes: &[Vector]) -> Result<Vec<Lane>, String> {
    if planes.len() != usize::from(dtype.stream_width()) {
        return Err(format!("{} planes for {dtype}", planes.len()));
    }
    Ok((0..LANES)
        .map(|l| {
            let r = raw(planes, l);
            match dtype {
                DataType::Int8 => Lane::Int(i128::from(r as u8 as i8)),
                DataType::Int16 => Lane::Int(i128::from(r as u16 as i16)),
                DataType::Int32 => Lane::Int(i128::from(r as i32)),
                DataType::Fp16 => Lane::Float(f64::from(fp16::f16_to_f32(r as u16))),
                DataType::Fp32 => Lane::Float(f64::from(f32::from_bits(r))),
            }
        })
        .collect())
}

/// The range of an integer type.
fn bounds(dtype: DataType) -> (i128, i128) {
    match dtype {
        DataType::Int8 => (i128::from(i8::MIN), i128::from(i8::MAX)),
        DataType::Int16 => (i128::from(i16::MIN), i128::from(i16::MAX)),
        DataType::Int32 => (i128::from(i32::MIN), i128::from(i32::MAX)),
        DataType::Fp16 | DataType::Fp32 => unreachable!("{dtype} is not an integer type"),
    }
}

/// `v` reduced modulo the width of `dtype`, as a signed value.
fn wrap(dtype: DataType, v: i128) -> i128 {
    let bits = 8 * u32::from(dtype.stream_width());
    let low = v.rem_euclid(1 << bits);
    if low >= 1 << (bits - 1) {
        low - (1 << bits)
    } else {
        low
    }
}

/// Encodes lanes as `dtype`: an integer saturates (a float rounds half away
/// from zero first, NaN to 0), a float rounds to nearest.
fn encode(dtype: DataType, lanes: &[Lane]) -> Vec<Vector> {
    let bits: Vec<u32> = lanes
        .iter()
        .map(|&lane| match (dtype, lane) {
            (DataType::Fp16, Lane::Float(f)) => u32::from(fp16::f32_to_f16(f as f32)),
            (DataType::Fp32, Lane::Float(f)) => (f as f32).to_bits(),
            (DataType::Fp16 | DataType::Fp32, Lane::Int(_)) => {
                unreachable!("integers reach a float type through Lane::Float")
            }
            (_, Lane::Int(v)) => {
                let (min, max) = bounds(dtype);
                v.clamp(min, max) as u32
            }
            (_, Lane::Float(f)) => {
                let (min, max) = bounds(dtype);
                f.round().clamp(min as f64, max as f64) as i128 as u32
            }
        })
        .collect();
    (0..usize::from(dtype.stream_width()))
        .map(|k| Vector::from_fn(|l| (bits[l] >> (8 * k)) as u8))
        .collect()
}

/// Oracle for `vxm_unit::apply_binary`.
///
/// # Errors
///
/// A description if a group's width does not match `dtype`.
pub fn apply_binary(
    op: BinaryAluOp,
    dtype: DataType,
    a: &[Vector],
    b: &[Vector],
) -> Result<Vec<Vector>, String> {
    let (la, lb) = (decode(dtype, a)?, decode(dtype, b)?);
    let out: Vec<Lane> = la
        .iter()
        .zip(&lb)
        .map(|pair| match pair {
            (Lane::Int(x), Lane::Int(y)) => Lane::Int(match op {
                BinaryAluOp::AddSat => x + y,
                BinaryAluOp::AddMod => wrap(dtype, x + y),
                BinaryAluOp::SubSat => x - y,
                BinaryAluOp::SubMod => wrap(dtype, x - y),
                BinaryAluOp::MulSat => x * y,
                BinaryAluOp::MulMod => wrap(dtype, x * y),
                BinaryAluOp::Max => *x.max(y),
                BinaryAluOp::Min => *x.min(y),
            }),
            // Two NaNs: the first operand's payload.
            (Lane::Float(x), Lane::Float(y)) if x.is_nan() && y.is_nan() => Lane::Float(*x),
            (Lane::Float(x), Lane::Float(y)) => Lane::Float(match op {
                BinaryAluOp::AddSat | BinaryAluOp::AddMod => x + y,
                BinaryAluOp::SubSat | BinaryAluOp::SubMod => x - y,
                BinaryAluOp::MulSat | BinaryAluOp::MulMod => x * y,
                BinaryAluOp::Max => x.max(*y),
                BinaryAluOp::Min => x.min(*y),
            }),
            _ => unreachable!("operands decoded with the same dtype"),
        })
        .collect();
    Ok(encode(dtype, &out))
}

/// Oracle for `vxm_unit::apply_unary`.
///
/// # Errors
///
/// A description if the group's width does not match `dtype`, or for a
/// transcendental on an integer type.
pub fn apply_unary(op: UnaryAluOp, dtype: DataType, x: &[Vector]) -> Result<Vec<Vector>, String> {
    let lanes = decode(dtype, x)?;
    let out: Result<Vec<Lane>, String> = lanes
        .iter()
        .map(|&lane| {
            Ok(match (op, lane) {
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
                    return Err(format!("{} is floating-point only", op.mnemonic()))
                }
            })
        })
        .collect();
    Ok(encode(dtype, &out?))
}

/// `v·2^-shift` rounded half away from zero, exactly. A left shift by 64 or
/// more saturates to `±2^64`, far outside every integer type.
fn shift_round(v: i128, shift: i8) -> i128 {
    let s = u32::from(shift.unsigned_abs());
    if shift <= 0 {
        return if s >= 64 { v.signum() << 64 } else { v << s };
    }
    let magnitude = (v.abs() + (1 << (s - 1))) >> s;
    if v < 0 {
        -magnitude
    } else {
        magnitude
    }
}

/// Oracle for `vxm_unit::apply_convert`.
///
/// # Errors
///
/// A description if the group's width does not match `from`.
pub fn apply_convert(
    from: DataType,
    to: DataType,
    shift: i8,
    x: &[Vector],
) -> Result<Vec<Vector>, String> {
    let scale = 2f64.powi(-i32::from(shift));
    let scaled: Vec<Lane> = decode(from, x)?
        .into_iter()
        .map(|lane| match lane {
            Lane::Int(v) if !to.is_float() => Lane::Int(shift_round(v, shift)),
            Lane::Int(v) => Lane::Float(v as f64 * scale),
            Lane::Float(f) => Lane::Float(f * scale),
        })
        .collect();
    Ok(encode(to, &scaled))
}
