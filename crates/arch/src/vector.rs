//! The 320-byte vector: the TSP's fundamental data type.
//!
//! A full-length vector spans all 20 superlanes of the chip, 16 lanes (bytes)
//! per superlane. Shorter vectors (down to the 16-element minimum) simply leave
//! the upper superlanes unused and powered down (paper §II-F).
//!
//! Each element of a stream is one byte; wider data types are constructed from
//! several streams (paper §I-B): `int16` from a stream pair, `int32`/`fp32`
//! from an aligned quad-stream group. This module therefore keeps [`Vector`]
//! byte-granular; the simulator's lane codec (`tsp_sim::lane`) is the one
//! place that lays a multi-byte element across the vectors of a group.

use core::fmt;

/// Lanes per superlane: the minimum SIMD granularity ("minVL", 16 bytes).
pub const LANES_PER_SUPERLANE: usize = 16;
/// Superlanes on the chip (vertical stack of 20 tiles per slice).
pub const SUPERLANES: usize = 20;
/// Total lanes on the chip (320 = 20 superlanes × 16 lanes).
pub const LANES: usize = SUPERLANES * LANES_PER_SUPERLANE;
/// Minimum vector length in elements (one superlane).
pub const MIN_VL: usize = LANES_PER_SUPERLANE;
/// Maximum vector length in elements (all superlanes; "maxVL").
pub const MAX_VL: usize = LANES;

/// A 320-byte vector occupying one stream time-slot.
///
/// `Vector` is the unit of data transported on streams and operated on by
/// functional slices in SIMD fashion. Lane `i` holds byte `i`; lanes `16·s ..
/// 16·(s+1)` form superlane `s`.
///
/// The type is deliberately `Copy`-free: 320-byte copies are cheap but explicit
/// cloning keeps data movement visible in simulator code.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Vector {
    bytes: [u8; LANES],
}

impl Vector {
    /// The all-zero vector.
    pub const ZERO: Vector = Vector { bytes: [0; LANES] };

    /// Creates a vector from exactly 320 bytes.
    #[must_use]
    pub fn new(bytes: [u8; LANES]) -> Vector {
        Vector { bytes }
    }

    /// Creates a vector filled with `byte` in every lane.
    #[must_use]
    pub fn splat(byte: u8) -> Vector {
        Vector {
            bytes: [byte; LANES],
        }
    }

    /// Creates a vector from a slice, zero-padding the tail.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > 320`.
    #[must_use]
    pub fn from_slice(data: &[u8]) -> Vector {
        assert!(
            data.len() <= LANES,
            "vector data of {} bytes exceeds the 320-lane maximum",
            data.len()
        );
        let mut bytes = [0u8; LANES];
        bytes[..data.len()].copy_from_slice(data);
        Vector { bytes }
    }

    /// Creates a vector whose lane `i` is `f(i)`.
    #[must_use]
    pub fn from_fn(mut f: impl FnMut(usize) -> u8) -> Vector {
        let mut bytes = [0u8; LANES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = f(i);
        }
        Vector { bytes }
    }

    /// Read-only view of all 320 lanes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; LANES] {
        &self.bytes
    }

    /// Mutable view of all 320 lanes.
    #[must_use]
    pub fn as_bytes_mut(&mut self) -> &mut [u8; LANES] {
        &mut self.bytes
    }

    /// The byte in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 320`.
    #[must_use]
    pub fn lane(&self, lane: usize) -> u8 {
        self.bytes[lane]
    }

    /// Sets the byte in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 320`.
    pub fn set_lane(&mut self, lane: usize, value: u8) {
        self.bytes[lane] = value;
    }

    /// The 16-byte word occupied by superlane `s` (the MEM tile word).
    ///
    /// # Panics
    ///
    /// Panics if `superlane >= 20`.
    #[must_use]
    pub fn superlane(&self, superlane: usize) -> &[u8] {
        let start = superlane * LANES_PER_SUPERLANE;
        &self.bytes[start..start + LANES_PER_SUPERLANE]
    }

    /// Mutable view of superlane `s`'s 16-byte word.
    ///
    /// # Panics
    ///
    /// Panics if `superlane >= 20`.
    pub fn superlane_mut(&mut self, superlane: usize) -> &mut [u8] {
        let start = superlane * LANES_PER_SUPERLANE;
        &mut self.bytes[start..start + LANES_PER_SUPERLANE]
    }

    /// Interprets every lane as `i8` and applies `f` lane-wise against `other`.
    #[must_use]
    pub fn zip_map_i8(&self, other: &Vector, mut f: impl FnMut(i8, i8) -> i8) -> Vector {
        Vector::from_fn(|i| f(self.bytes[i] as i8, other.bytes[i] as i8) as u8)
    }

    /// True if every lane is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }
}

impl Default for Vector {
    fn default() -> Vector {
        Vector::ZERO
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Summarize: full 320-byte dumps drown test output.
        let head: Vec<u8> = self.bytes[..8].to_vec();
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Vector[{head:?}.. {nonzero}/320 nonzero]")
    }
}

impl From<[u8; LANES]> for Vector {
    fn from(bytes: [u8; LANES]) -> Vector {
        Vector { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants() {
        assert_eq!(LANES, 320);
        assert_eq!(MAX_VL, 320);
        assert_eq!(MIN_VL, 16);
        assert_eq!(SUPERLANES * LANES_PER_SUPERLANE, LANES);
    }

    #[test]
    fn from_slice_pads_with_zeros() {
        let v = Vector::from_slice(&[1, 2, 3]);
        assert_eq!(v.lane(0), 1);
        assert_eq!(v.lane(2), 3);
        assert_eq!(v.lane(3), 0);
        assert_eq!(v.lane(319), 0);
    }

    #[test]
    fn superlane_views() {
        let v = Vector::from_fn(|i| (i / LANES_PER_SUPERLANE) as u8);
        assert!(v.superlane(0).iter().all(|&b| b == 0));
        assert!(v.superlane(19).iter().all(|&b| b == 19));
    }

    #[test]
    fn zip_map_i8_adds() {
        let a = Vector::splat(5);
        let b = Vector::splat(0xFF); // -1 as i8
        let z = a.zip_map_i8(&b, |x, y| x.wrapping_add(y));
        assert_eq!(z, Vector::splat(4));
    }

    #[test]
    #[should_panic(expected = "exceeds the 320-lane maximum")]
    fn oversized_slice_panics() {
        let _ = Vector::from_slice(&[0u8; 321]);
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", Vector::splat(1));
        assert!(s.len() < 80, "debug output too long: {s}");
    }
}
