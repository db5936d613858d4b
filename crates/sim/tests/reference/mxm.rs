//! Scalar oracle for `mxm_unit`: one activation pass, element by element.

use tsp_arch::{Vector, LANES};
use tsp_sim::fp16;

/// One int8 activation pass through the installed rows.
#[must_use]
pub fn matmul_i8(installed: &[[u8; LANES]], activation: &Vector) -> Vec<i32> {
    installed
        .iter()
        .map(|wrow| {
            let mut sum = 0i32;
            for (w, x) in wrow.iter().zip(activation.as_bytes()) {
                sum += i32::from(*w as i8) * i32::from(*x as i8);
            }
            sum
        })
        .collect()
}

/// The fp16 element whose low byte is `lo` and high byte `hi`.
fn f16(lo: u8, hi: u8) -> f32 {
    fp16::f16_to_f32(u16::from(lo) | u16::from(hi) << 8)
}

/// One fp16 tandem activation pass: per-MAC weight decode, strict
/// lane-order `f64` accumulation, one rounding at readout, and a NaN result
/// read out as the canonical quiet NaN.
#[must_use]
pub fn matmul_fp16(
    lo: &[[u8; LANES]],
    hi: &[[u8; LANES]],
    act_lo: &Vector,
    act_hi: &Vector,
) -> Vec<f32> {
    let acts: Vec<f32> = (0..LANES)
        .map(|l| f16(act_lo.lane(l), act_hi.lane(l)))
        .collect();
    (0..LANES)
        .map(|row| {
            let mut sum = 0f64;
            for l in 0..LANES {
                sum += f64::from(f16(lo[row][l], hi[row][l])) * f64::from(acts[l]);
            }
            let v = sum as f32;
            if v.is_nan() {
                f32::NAN
            } else {
                v
            }
        })
        .collect()
}
