//! The byte-plane layout of a lane (paper §I-B), stated once.
//!
//! A stream carries one byte per lane, so a wider element spans an aligned
//! stream group: `int16`/`fp16` a pair, `int32`/`fp32` a quad. Plane `k` of
//! the group holds byte `k` of every lane, little-endian. Every kernel that
//! reads or writes lane bytes — the VXM's ALUs and converter, the MXM's fp16
//! tandem decode and its `ACC` read-out — goes through [`Lane`]; the scalar
//! oracles of `tests/kernel_equiv.rs` spell the layout out again on their own.

use std::borrow::Borrow;

use tsp_arch::{Vector, LANES};

use crate::fp16;

/// An element type as it lies across byte planes.
pub trait Lane: Copy {
    /// Planes one lane spans: the width of its stream group.
    const PLANES: usize;
    /// The lane whose byte `k` is `byte(k)`.
    fn from_bytes(byte: impl FnMut(usize) -> u8) -> Self;
    /// Byte `k` of the lane: what plane `k` holds.
    fn byte(self, k: usize) -> u8;

    /// Lane `l` of `planes`.
    #[inline]
    fn load(planes: &[&[u8; LANES]], l: usize) -> Self {
        Self::from_bytes(|k| planes[k][l])
    }

    /// Stores the lane as lane `l` of `planes`.
    #[inline]
    fn store(self, planes: &mut [[u8; LANES]], l: usize) {
        for (k, plane) in planes.iter_mut().enumerate() {
            plane[l] = self.byte(k);
        }
    }
}

/// Implements [`Lane`] for `$t`, whose bit pattern is the integer `$bits`,
/// read by `$to_bits` and made into a `$t` by `$from_bits`.
macro_rules! lane {
    ($t:ty, $bits:ty, $to_bits:expr, $from_bits:expr) => {
        impl Lane for $t {
            const PLANES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn from_bytes(byte: impl FnMut(usize) -> u8) -> $t {
                $from_bits(<$bits>::from_le_bytes(std::array::from_fn(byte)))
            }
            #[inline]
            fn byte(self, k: usize) -> u8 {
                ($to_bits(self) >> (8 * k)) as u8
            }
        }
    };
}
lane!(i8, i8, |v| v, |v| v);
lane!(i16, i16, |v| v, |v| v);
lane!(i32, i32, |v| v, |v| v);
lane!(f32, u32, f32::to_bits, f32::from_bits);
lane!(F16, u16, |v: F16| v.0, F16);

/// An IEEE 754 binary16 lane, as its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F16(pub u16);

impl F16 {
    /// The value, widened exactly.
    #[must_use]
    pub fn to_f32(self) -> f32 {
        fp16::f16_to_f32(self.0)
    }
}

/// The byte planes of a stream group of at most four streams, padded with
/// zero planes.
#[must_use]
pub fn planes(group: &[impl Borrow<Vector>]) -> [&[u8; LANES]; 4] {
    static ZERO: [u8; LANES] = [0; LANES];
    std::array::from_fn(|k| group.get(k).map_or(&ZERO, |v| v.borrow().as_bytes()))
}

/// The `T` stream group whose lane `l` is `lane(l)`.
#[must_use]
pub fn group<T: Lane>(mut lane: impl FnMut(usize) -> T) -> Vec<Vector> {
    if T::PLANES == 1 {
        // Built in place: no staging planes to zero and copy out.
        return vec![Vector::from_fn(|l| lane(l).byte(0))];
    }
    let mut out = [[0u8; LANES]; 4];
    for l in 0..LANES {
        lane(l).store(&mut out[..T::PLANES], l);
    }
    out[..T::PLANES].iter().map(|p| Vector::new(*p)).collect()
}
